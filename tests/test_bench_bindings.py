"""The package names that the benchmark binds by name.

``bench/tracer.py`` looks up each traced function as ``vars(owner)[member]``
and wraps every audit check by name, and ``bench/test_bench.py`` reads two
reference gaps off the CLI.  A rename in the package breaks every traced
benchmark child with a ``KeyError``; these tests name the break at once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from adicgaps import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    missing = []
    for module_name, attr in tracer.TRACED:
        module = importlib.import_module(f"adicgaps.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or member not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_audit_check_names_match(tracer):
    assert tracer.AUDIT_CHECK_NAMES == tuple(name for name, _ in cli.AUDIT_CHECKS)


def test_reference_gaps_the_bench_reads_exist():
    assert {"4*", "3", "4"} <= set(cli.REFERENCE_STRONG_TABLE)
    assert cli.GAP_STILDE.layer == "first_move"
