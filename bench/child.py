"""One cold benchmark process: set up, signal ready, run one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Set-up is everything a user's fresh ``adicgaps`` invocation pays
before work starts (interpreter start, ``import adicgaps``) plus writing
this workload's seeded gap files.  The child then prints ``READY`` and runs
every operation through ``adicgaps.cli.main``, the function behind the
``adicgaps`` entry point, so each one parses arguments, reads its files
and prints its report exactly as on the command line.  Results go to a
JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

import inputs

AUDIT_HASH_SEED0 = "799aa1e1257343f766d39ddb45dd4ac7050e07d56de4871b2c2ad3b3f8e97a73"
AUDIT_SUMMARY = {"pass": 9, "fail": 0, "discrepancy_known": 2}
STRONG_THREE = {"candidates": 4096, "classes": 31, "upto_permutation": 9}


class Runner:
    """Runs CLI operations in this process and records their outcomes."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.ops: list[dict] = []
        self.gate_failures: list[str] = []

    def gap_file(self, name: str) -> str:
        return str(self.workdir / "gaps" / f"{name}.json")

    def write_gaps(self, gaps: dict) -> None:
        (self.workdir / "gaps").mkdir(parents=True, exist_ok=True)
        for name, gap in gaps.items():
            Path(self.gap_file(name)).write_text(json.dumps(gap), encoding="utf-8")

    def call(self, op: str, argv: list) -> tuple:
        """Run one command; return (record, stdout, seconds).  The record
        starts as failed and the caller marks it ok once its checks pass."""
        record = {"op": op, "ok": False, "verdict": None, "label": None}
        self.ops.append(record)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except SystemExit as ex:
            code = ex.code
        except Exception as ex:  # a traceback on the command line: count it, keep going
            traceback.print_exc()
            code = None
            record["verdict"] = f"ERROR:{type(ex).__name__}"
            record["label"] = str(ex)
        elapsed = time.perf_counter() - start
        if code not in (0, None):
            record["verdict"] = f"EXIT:{code}"
        return record, (out.getvalue() if code == 0 else None), elapsed

    def gate(self, ok: bool, message: str) -> bool:
        if not ok:
            self.gate_failures.append(message)
        return ok

    def witnessed_query(self, op: str, argv: list, witnessed: str):
        """A query whose positive verdict must carry a revalidated witness."""
        record, out, _ = self.call(op, argv + ["--json"])
        if out is None:
            return record
        payload = json.loads(out)
        witness = payload.get("witness")
        record["verdict"] = payload["verdict"]
        record["label"] = witness["label"] if witness else None
        record["ok"] = payload["verdict"] != witnessed or payload.get("revalidated") is True
        return record


# The audit runs at its default seed whatever the benchmark seed: the sampled
# checks cost up to a quarter more at some seeds (39.5 and 39.9 s at seed 0
# against 48.3 and 50.5 s at seed 2, alternated), which would swamp the
# changes the benchmark exists to show, and only seed 0 has a pinned hash.
AUDIT_SEED = 0


def run_audit(runner: Runner) -> None:
    report_path = runner.workdir / "audit.json"
    argv = ["audit", "paper-tables", "--no-cache", "--seed", str(AUDIT_SEED),
            "--json-out", str(report_path)]
    record, out, _ = runner.call("audit", argv)
    if out is None:
        runner.gate(False, f"audit: {record['verdict']}")
        return
    report = json.loads(report_path.read_text(encoding="utf-8"))
    record["verdict"] = report["summary"]
    record["label"] = report["content_hash"]
    ok = runner.gate(report["summary"] == AUDIT_SUMMARY, f"audit summary {report['summary']}")
    ok = runner.gate(
        report["content_hash"] == AUDIT_HASH_SEED0, f"audit content_hash {report['content_hash']}"
    ) and ok
    record["ok"] = ok


def run_record_queries(runner: Runner, queries: dict) -> None:
    for name, sides in queries["breaking"]:
        side_set = ",".join(map(str, sides))
        record = runner.witnessed_query(
            f"breaking {name} {side_set}",
            ["breaking", "check", "--gap", runner.gap_file(name), "--set", side_set],
            "BROKEN_witnessed",
        )
        if name == "three" and sides in inputs.RECORD_THREE_PINNED:
            expected = inputs.RECORD_THREE_PINNED[sides]
            got = (record["verdict"], record["label"])
            record["ok"] = runner.gate(
                record["ok"] and got == expected, f"three-gap {side_set}: {got} != {expected}"
            )
    for left, right in queries["order"]:
        runner.witnessed_query(
            f"order {left} {right}",
            ["gaps", "order", "--left", runner.gap_file(left), "--right", runner.gap_file(right)],
            "LE_witnessed",
        )


def run_strong_order(runner: Runner, queries: dict) -> float:
    """Order pairs, then the strong three-sided classes computed into an
    empty cache and served from it; returns the cached call's seconds."""
    for left, right, expected in queries["order"]:
        record = runner.witnessed_query(
            f"order {left} {right}",
            ["gaps", "order", "--left", runner.gap_file(left), "--right", runner.gap_file(right)],
            "LE_witnessed",
        )
        if expected is not None:
            record["ok"] = runner.gate(
                record["ok"] and record["verdict"] == expected,
                f"order {left} {right}: {record['verdict']} != {expected}",
            )
    argv = ["gaps", "enum-strong", "--n", "3", "--json", "--cache-dir", str(runner.workdir / "cache")]
    payloads = []
    hit_seconds = 0.0
    for op in ("enum-strong cold", "enum-strong cached"):
        record, out, hit_seconds = runner.call(op, argv)
        if out is None:
            runner.gate(False, f"{op}: {record['verdict']}")
            return hit_seconds
        payload = json.loads(out)
        computed = {
            "candidates": payload["candidates"],
            "classes": len(payload["classes"]),
            "upto_permutation": payload["quotients"]["alphabet"],
        }
        record["verdict"] = computed
        record["ok"] = runner.gate(computed == STRONG_THREE, f"{op}: {computed}")
        payloads.append(payload)
    runner.gate(payloads[0] == payloads[1], "cached enum-strong differs from computed")
    runner.gate(
        any((runner.workdir / "cache").rglob("*.json")), "enum-strong wrote no cache entry"
    )
    return hit_seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import adicgaps.cli as cli

    workdir = Path(args.workdir)
    runner = Runner(cli, workdir)
    if args.workload == "record-queries":
        queries = inputs.record_queries(args.seed)
    elif args.workload == "strong-order":
        queries = inputs.strong_queries(args.seed)
    else:
        queries = {"gaps": {}}
    runner.write_gaps(queries["gaps"])
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    cache_hit_s = 0.0
    start = time.perf_counter()
    if args.workload == "audit":
        run_audit(runner)
    elif args.workload == "record-queries":
        run_record_queries(runner, queries)
    else:
        cache_hit_s = run_strong_order(runner, queries)
    wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "cache_hit_s": cache_hit_s,
        "ops": runner.ops,
        "gate_failures": runner.gate_failures,
        "package": os.path.dirname(cli.__file__),
        "layers": tracing.layer_metrics(tracer) if tracer else None,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
