"""The package names that the benchmark binds by name.

``bench/tracer.py`` looks up each traced function as ``vars(owner)[member]``
and wraps every audit check by name, and ``bench/test_bench.py`` reads two
reference gaps off the CLI.  A rename in the package breaks every traced
benchmark child with a ``KeyError``; these tests name the break at once.
The tracer also depends on the kind of each member: it wraps the function
of a ``cached_property`` and replaces anything else with a wrapper that
calls it, so a closure turned into a plain ``property`` breaks every traced
child, and any other change of kind breaks it or what it counts.
"""

import functools
import importlib
import importlib.util
import types
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


def traced_members(tracer):
    """Each traced (module, attribute) with its member as the tracer finds
    it, or ``None`` where it finds none."""
    for module_name, attr in tracer.TRACED:
        module = importlib.import_module(f"adicgaps.{module_name}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        yield (module_name, attr), vars(owner).get(member) if owner is not None else None


def test_every_traced_name_resolves(tracer):
    missing = [key for key, value in traced_members(tracer) if value is None]
    assert missing == []


# The closures are cached per node set; the memoized functions' pools are
# counted once each, by identity.
CACHED_PROPERTIES = {
    ("tree", "NodeSet.record_closure_nodes"),
    ("tree", "NodeSet.meet_closure_nodes"),
}
MEMOIZED = {("types", "same_type_probes"), ("gaps", "generate_type_actions")}


def kind(value):
    if isinstance(value, functools.cached_property):
        return "cached_property"
    if isinstance(value, types.FunctionType):
        return "function"
    if hasattr(value, "cache_info") and isinstance(value.__wrapped__, types.FunctionType):
        return "lru_cache"
    return type(value).__name__


def test_every_traced_name_keeps_its_kind(tracer):
    kinds = {key: kind(value) for key, value in traced_members(tracer)}
    expected = dict.fromkeys(tracer.TRACED, "function")
    expected.update(dict.fromkeys(CACHED_PROPERTIES, "cached_property"))
    expected.update(dict.fromkeys(MEMOIZED, "lru_cache"))
    assert kinds == expected


def test_audit_check_names_match(tracer):
    assert tracer.AUDIT_CHECK_NAMES == tuple(name for name, _ in cli.AUDIT_CHECKS)


def test_reference_gaps_the_bench_reads_exist():
    assert {"4*", "3", "4"} <= set(cli.REFERENCE_STRONG_TABLE)
    assert cli.GAP_STILDE.layer == "first_move"
