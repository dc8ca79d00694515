"""Tests of the benchmark itself.

Run from the repository root (the traced runs take a few minutes):

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_inputs_match_the_package_enumerations():
    from adicgaps import breaking, cli, gaps, types

    assert list(inputs.DYADIC_TYPES) == [types.print_type(t) for t in types.enumerate_types(2)]
    as_json = lambda specs: sorted(json.dumps(g.to_json(), sort_keys=True) for g in specs)  # noqa: E731
    parsed = lambda objs: as_json(gaps.GapSpec.from_json(o) for o in objs)  # noqa: E731
    assert parsed(inputs.record_candidates()) == as_json(gaps.enumerate_candidates_record(2))
    assert parsed(inputs.strong_candidates()) == as_json(gaps.enumerate_candidates_strong(3))
    assert parsed([inputs.RECORD_THREE_GAP]) == as_json([breaking.record_three_gap()])
    reference = {
        "four_star": cli.REFERENCE_STRONG_TABLE["4*"],
        "stilde": cli.GAP_STILDE,
        "three": cli.REFERENCE_STRONG_TABLE["3"],
        "four": cli.REFERENCE_STRONG_TABLE["4"],
    }
    for name, spec in reference.items():
        assert parsed([inputs.PINNED_GAPS[name]]) == as_json([spec])


def test_inputs_depend_only_on_the_seed():
    assert inputs.record_queries(5) == inputs.record_queries(5)
    assert inputs.record_queries(5) != inputs.record_queries(6)
    assert inputs.strong_queries(5) == inputs.strong_queries(5)


def test_benchmark_json_names_every_traced_metric():
    emitted = tracer.layer_metrics(tracer.Tracer())
    emitted.update({"trace_overhead": (0, "ratio"), "cache_hit_s": (0, "s"), "failed_ratio": (0, "ratio")})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in emitted.items()}


@pytest.fixture(scope="module")
def traced_record_runs():
    return [_result(_run("record-queries", 0, 1)) for _ in range(2)]


def test_traced_counts_repeat_exactly(traced_record_runs):
    first, second = (run["metrics"] for run in traced_record_runs)
    counted = [name for name, m in first.items() if m["unit"] == "count"]
    assert any(name.endswith(".searched") for name in counted)
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["breaking.break_check.searched"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric(traced_record_runs):
    names = {m["name"] for m in SPEC["per_layer"]}
    for run in traced_record_runs:
        assert set(run["metrics"]) == names
        assert run["correct"] is True
        assert run["attempted"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    run = _result(_run("strong-order", 0, 0))
    assert run["correct"] is True
    assert run["failed"] == 0
    assert {n: m["unit"] for n, m in run["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("strong-order", 0, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
