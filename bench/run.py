"""Benchmark of the adicgaps command surface, one fresh process per run.

Run from the root of a checkout:

    python3 bench/run.py --workload audit --seed 0 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

- ``audit``: ``adicgaps audit paper-tables --no-cache --seed 0``.
- ``record-queries``: a seeded batch of dyadic record gaps through
  ``breaking check`` and record ``gaps order``.
- ``strong-order``: seeded first-move ``gaps order`` pairs over the strong
  three-sided candidates, then ``gaps enum-strong --n 3`` into an empty
  cache directory and again from it.

Every operation starts in a fresh child process, because every command a
user runs starts cold.  Children run one after another, closed loop, until
``--seconds`` would be exceeded (at least one runs).  With ``--trace 0``
the run reports the end-to-end metrics as medians over its children; with
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics of the traced ones.  The last line of standard output is
one JSON object; the lines before it give the metadata, the digest of all
verdicts and witness labels, and each metric with its sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("audit", "record-queries", "strong-order")
HASH_SEED = "0"  # pinned so set iteration order, hence search order, repeats
SETUP_PROBES = 5  # extra set-up-only children per run, for a steadier set-up median
RUN_LIMIT_S = 170.0  # a run is abandoned, as failed, past this many seconds
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark could not run; reported on stderr with exit code 1."""


@dataclass
class Child:
    setup_s: float
    rss_mb: float
    result: dict | None  # None for set-up-only children


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    # a warm user cache must never leak in, and the worker count stays the
    # default users get
    for name in ("ADICGAPS_CACHE_DIR", "ADICGAPS_WORKERS", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage
        if time.perf_counter() > deadline:
            raise BenchError("child process ran past the run time limit")
        time.sleep(0.01)


def spawn(root: Path, work: Path, index: int, workload: str, seed: int,
          deadline: float, trace: bool = False, setup_only: bool = False) -> Child:
    """Start one child, time its set-up to the READY line, wait for it and
    read its peak RSS from the kernel's accounting of that child alone."""
    child_dir = work / f"child{index}"
    child_dir.mkdir(parents=True)
    result_path = child_dir / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(child_dir), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    err_path = child_dir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(root, work), cwd=child_dir)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line != b"READY\n":
            _wait(proc, deadline)
            raise BenchError(f"child did not start: {_tail(err_path)}")
        rusage = _wait(proc, deadline)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}: {_tail(err_path)}")
    result = None if setup_only else json.loads(result_path.read_text(encoding="utf-8"))
    return Child(setup_s, rusage.ru_maxrss / 1024.0, result)


def _tail(path: Path) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else "(no output)"


def run_children(root, work, args, deadline):
    """The set-up probes, then a closed loop of work children.  In a traced
    run each step is an untraced child followed by a traced one."""
    untraced, traced, setups = [], [], []
    for _ in range(SETUP_PROBES):
        child = spawn(root, work, len(setups), args.workload, args.seed, deadline, setup_only=True)
        setups.append(child.setup_s)
    start = time.perf_counter()
    step_times = []
    while True:
        step_start = time.perf_counter()
        for trace in ((False, True) if args.trace else (False,)):
            child = spawn(root, work, len(setups), args.workload, args.seed, deadline, trace=trace)
            setups.append(child.setup_s)
            (traced if trace else untraced).append(child)
        step_times.append(time.perf_counter() - step_start)
        if time.perf_counter() - start + statistics.median(step_times) > args.seconds:
            break
    return untraced, traced, setups


def digest(ops: list) -> str:
    rows = [[op["op"], op["verdict"], op["label"]] for op in ops]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def metadata(root: Path) -> dict:
    sources = sorted((root / "src" / "adicgaps").glob("*.py"))
    blob = b"".join(p.read_bytes() for p in sources)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": hashlib.sha256(blob).hexdigest(),
        "src_lines": blob.count(b"\n"),
        "pythonhashseed": HASH_SEED,
    }


def _median_layers(children: list) -> dict:
    names = children[0].result["layers"]
    return {
        name: (statistics.median(c.result["layers"][name][0] for c in children), unit)
        for name, (_, unit) in names.items()
    }


def measure(root: Path, work: Path, args) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    untraced, traced, setups = run_children(root, work, args, deadline)
    children = untraced + traced
    ops = [op for c in children for op in c.result["ops"]]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    digests = {digest(c.result["ops"]) for c in children}
    gate_failures = sorted({g for c in children for g in c.result["gate_failures"]})
    src = str((root / "src" / "adicgaps").resolve())
    foreign = [c.result["package"] for c in children if c.result["package"] != src]
    correct = not gate_failures and len(digests) == 1 and not foreign

    walls = [c.result["wall_s"] for c in untraced]
    if args.trace:
        metrics = _median_layers(traced)
        metrics["trace_overhead"] = (
            statistics.median(c.result["wall_s"] for c in traced) / statistics.median(walls),
            "ratio",
        )
        metrics["cache_hit_s"] = (statistics.median(c.result["cache_hit_s"] for c in untraced), "s")
        metrics["failed_ratio"] = (failed / attempted, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in untraced), "MB"),
        }

    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} children={len(untraced)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-ups")
    print("meta " + json.dumps(metadata(root), sort_keys=True))
    print("digest " + " ".join(sorted(digests)))
    for failure in gate_failures:
        print(f"GATE FAILED: {failure}")
    for path in foreign:
        print(f"GATE FAILED: adicgaps imported from {path}, not from {src}")
    errors = sorted({f"{op['op']}: {op['verdict']} {op['label'] or ''}".strip()
                     for op in ops if not op["ok"]})
    for line in errors:
        print(f"failed op: {line}")
    print(f"failed_ratio {failed}/{attempted}")
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "traced wall_s": [c.result["wall_s"] for c in traced],
        "peak_rss_mb": [c.rss_mb for c in untraced],
        "cache_hit_s": [c.result["cache_hit_s"] for c in untraced],
    }
    for name, values in samples.items():
        if values:
            print(f"samples {name} (n={len(values)}): " + " ".join(f"{v:.4g}" for v in values))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "adicgaps" / "__init__.py").is_file():
        print(f"error: no src/adicgaps under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(root, work, args)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
