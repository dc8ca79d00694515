"""Span tracing of the package's public functions, installed from outside.

``install`` replaces each traced function with a wrapper that records one
span per call: calls, total time and self time (span time minus the time
of child spans opened on the same thread).  Spans stay in memory; the
child process turns them into per-layer metrics when its run ends.

Modules bind each other's functions by name (``from .combs import
classify_comb``), and some functions capture others as default arguments
(``minimal_classes(order=order_le)`` compares against ``order_le``), so a
wrapper replaces the original in every module namespace and in every
default-argument tuple of the package.  The two closures computed through
``cached_property`` are traced by wrapping the property's function, which
runs once per node set.  Functions called millions of times (``meet``,
``prec_compare``, ``Node.__hash__``) are left alone: a wrapper there would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

# (module, attribute) -> span name; dotted attributes reach into classes
TRACED = {
    ("tree", "NodeSet.record_closure_nodes"): "tree.record_closure",
    ("tree", "NodeSet.meet_closure_nodes"): "tree.meet_closure",
    ("tree", "record_table"): "tree.record_table",
    ("tree", "first_move_equivalent"): "tree.first_move_equivalent",
    ("tree", "record_equivalent"): "tree.record_equivalent",
    ("combs", "classify_comb"): "combs.classify_comb",
    ("combs", "efamily_induced_map"): "combs.efamily_induced_map",
    ("types", "classify_type"): "types.classify_type",
    ("types", "same_type_probes"): "types.same_type_probes",
    ("embeddings", "type_action"): "embeddings.type_action",
    ("embeddings", "comb_action"): "embeddings.comb_action",
    ("embeddings", "structural_replay"): "embeddings.structural_replay",
    ("embeddings", "apply"): "embeddings.apply",
    ("embeddings", "realize_efamily"): "embeddings.realize_efamily",
    ("gaps", "generate_type_actions"): "gaps.generate_type_actions",
    ("gaps", "order_le"): "gaps.order_le",
    ("gaps", "revalidate_order"): "gaps.revalidate_order",
    ("gaps", "minimal_classes"): "gaps.minimal_classes",
    ("breaking", "break_check"): "breaking.break_check",
    ("breaking", "revalidate_break"): "breaking.revalidate_break",
    ("runtime", "pmap"): "runtime.pmap",
    ("runtime", "ResultCache.get"): "runtime.ResultCache.get",
    ("runtime", "ResultCache.put"): "runtime.ResultCache.put",
    ("runtime", "content_key"): "runtime.content_key",
}

# (outer span, inner span): inner calls made while outer is open on the thread
NESTED = (
    ("combs.classify_comb", "tree.first_move_equivalent"),
    ("gaps.generate_type_actions", "embeddings.type_action"),
    ("breaking.break_check", "embeddings.type_action"),
)


class Tracer:
    """Per-span call counts and times, plus named counters, for one process."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()  # named counters observed at spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._nested_under: dict[str, tuple[str, ...]] = {}
        for outer, inner in NESTED:
            self._nested_under.setdefault(inner, ())
            self._nested_under[inner] += (outer,)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter())  # child-time stack, open spans
        return state

    def wrap(self, name: str, fn, observe=None):
        """A wrapper recording a span named ``name`` around each call of ``fn``;
        ``observe(tracer, result, error)`` adds counters at the span."""
        nested_under = self._nested_under.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, open_spans = self._state()
            for outer in nested_under:
                if open_spans[outer]:
                    self.count(f"{outer}>{name}")
            stack.append(0.0)
            open_spans[name] += 1
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as ex:
                error = ex
                raise
            finally:
                elapsed = time.perf_counter() - start
                open_spans[name] -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_time[name] += elapsed - children
                if observe is not None:
                    observe(self, result, error)

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount


def _observe_failed(name: str):
    def observe(tracer, result, error):
        if error is not None or result is not True:
            tracer.count(f"{name}.failed")
    return observe


def _observe_generate():
    # the function is memoized: count each distinct pool once, when built
    built = set()

    def observe(tracer, result, error):
        if result is not None and id(result) not in built:
            built.add(id(result))
            tracer.count("gaps.generate_type_actions.actions", len(result))
    return observe


def _observe_break(tracer, result, error):
    if result is not None:
        tracer.count("breaking.break_check.searched", result.searched)


def _observe_cache_get(tracer, result, error):
    tracer.count("runtime.ResultCache.get.misses" if result is None else "runtime.ResultCache.get.hits")


def _observers() -> dict:
    return {
        "gaps.revalidate_order": _observe_failed("gaps.revalidate_order"),
        "breaking.revalidate_break": _observe_failed("breaking.revalidate_break"),
        "gaps.generate_type_actions": _observe_generate(),
        "breaking.break_check": _observe_break,
        "runtime.ResultCache.get": _observe_cache_get,
    }


def _package_functions(modules):
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield from (v for v in vars(value).values() if callable(v))
            elif callable(value):
                yield value


def install(tracer: Tracer) -> None:
    """Trace every function in ``TRACED`` and every audit check of the CLI.

    Must run after ``adicgaps.cli`` is imported and before any traced
    function is called."""
    from adicgaps import cli

    modules = [m for k, m in sys.modules.items() if k == "adicgaps" or k.startswith("adicgaps.")]
    observers = _observers()
    replaced = {}
    for (module_name, attr), name in TRACED.items():
        module = sys.modules[f"adicgaps.{module_name}"]
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner)[member]
        if isinstance(original, functools.cached_property):
            original.func = tracer.wrap(name, original.func)
            continue
        wrapper = tracer.wrap(name, original, observers.get(name))
        setattr(owner, member, wrapper)
        replaced[id(original)] = wrapper

    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])
    for fn in _package_functions(modules):
        fn = getattr(fn, "__wrapped__", fn)
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(id(d) in replaced for d in defaults):
            fn.__defaults__ = tuple(replaced.get(id(d), d) for d in defaults)

    cli.AUDIT_CHECKS = tuple(
        (check, tracer.wrap(f"cli.check.{check}", fn)) for check, fn in cli.AUDIT_CHECKS
    )


AUDIT_CHECK_NAMES = (
    "type-catalogue",
    "strong-two-gap-table",
    "strong-three-gap-classes",
    "worked-order-examples",
    "rule-oracle-agreement",
    "record-self-tests",
    "domination-and-prune",
    "breaking-desk-instances",
    "property-suites",
    "known-discrepancy-worked-family-print",
    "known-discrepancy-dominating-teeth",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    calls, self_s, counts = tracer.calls, tracer.self_time, tracer.counts
    out = {}

    def span(name, *fields):
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (calls[name], "count")
            else:
                out[f"{name}.self_s"] = (self_s[name], "s")

    for name in ("record_closure", "meet_closure", "record_table",
                 "first_move_equivalent", "record_equivalent"):
        span(f"tree.{name}", "calls", "self_s")
    span("combs.classify_comb", "calls", "self_s")
    out["combs.classify_comb.equiv_per_call"] = (
        _ratio(counts["combs.classify_comb>tree.first_move_equivalent"],
               calls["combs.classify_comb"]),
        "ratio",
    )
    span("combs.efamily_induced_map", "calls", "self_s")
    span("types.classify_type", "calls", "self_s")
    span("types.same_type_probes", "self_s")
    for name in ("type_action", "comb_action", "structural_replay", "apply"):
        span(f"embeddings.{name}", "calls", "self_s")
    span("embeddings.realize_efamily", "calls")
    span("gaps.generate_type_actions", "self_s")
    actions = counts["gaps.generate_type_actions.actions"]
    out["gaps.generate_type_actions.actions"] = (actions, "count")
    out["gaps.generate_type_actions.admit_ratio"] = (
        _ratio(actions, counts["gaps.generate_type_actions>embeddings.type_action"]),
        "ratio",
    )
    span("gaps.order_le", "calls", "self_s")
    span("gaps.revalidate_order", "calls")
    out["gaps.revalidate_order.failed"] = (counts["gaps.revalidate_order.failed"], "count")
    span("gaps.minimal_classes", "calls", "self_s")
    span("breaking.break_check", "calls", "self_s")
    searched = counts["breaking.break_check.searched"]
    out["breaking.break_check.searched"] = (searched, "count")
    out["breaking.break_check.admit_ratio"] = (
        _ratio(searched, counts["breaking.break_check>embeddings.type_action"]),
        "ratio",
    )
    span("breaking.revalidate_break", "calls")
    out["breaking.revalidate_break.failed"] = (counts["breaking.revalidate_break.failed"], "count")
    span("runtime.pmap", "calls", "self_s")
    for key in ("hits", "misses"):
        out[f"runtime.ResultCache.get.{key}"] = (counts[f"runtime.ResultCache.get.{key}"], "count")
    span("runtime.ResultCache.put", "calls")
    span("runtime.content_key", "self_s")
    for check in AUDIT_CHECK_NAMES:
        name = f"cli.check.{check}"
        span(name, "self_s")
        out[f"{name}.wall_s"] = (tracer.total[name], "s")
    return out
