"""Bounded B-breaking analysis of record-layer gaps.

A record gap ``Γ = (S₀, …, S_{n−1})`` over the alphabet ``m`` is *B-broken*
by an infinite set ``M ⊆ m^{<ω}`` when the restrictions of the sides in ``B``
to ``M`` still form a gap while ``M`` is orthogonal to every other side.  At
desk scale we search for ``M`` as the range of an injective tree map
``φ: m′^{<ω} → m^{<ω}`` whose action on types is well defined; the types
realised inside ``M`` are then exactly the action's range, so the verdict
reduces to a range rule:

    BROKEN  ⇔  range(φ̄) meets Sᵢ for every i ∈ B
               and avoids Sᵢ for every i ∉ B.

Four generator families feed the search, cheapest evidence first:

* **subalphabet inclusions** — increasing letter injections; the action is
  the relabelling rule, total and exact, so the range is the full relabelled
  type catalogue;
* **substitutions** — block maps ordered by longest block, total length
  and letters; the action is probed;
* **e-driven realizations** — tabulated embeddings realizing an e-family
  of at most ``EFAMILY_LETTERS`` letters; the action is probed;
* **domination constructions** — the dyadic two-type maps sending the first
  chain type to a dominated type and everything else to a dominating
  top-comb; the action is the construction's defining rule.

The pool is :func:`adicgaps.search.candidate_pool`, the one the gap order
walks too; this module asks it for every domain alphabet up to the gap's,
each family over all of them before the next, and admits probed candidates
under the *range* policy: the type action is *total*, *stable* (the
canonical witness classifies identically at consecutive block counts) and
*corroborated by a pooled sample of same-type sets* — evidence that the
action is a well-defined function of the type, which is exactly what the
range rule needs.  Order-layer requirements such as ``≺``-monotonicity are
deliberately **not** imposed: the verdict quantifies over the range *set*
``M``, not over order-preserving maps, and demanding monotonicity would
empty the witness families this module exists to search.  (Block maps with
unequal block lengths always reverse some length tie, yet their ranges are
perfectly good sets ``M``.)

:func:`break_check` takes the gap and the side set ``B`` as the gap order's
``order_le(g, h)`` takes its two gaps, answers in the same
:class:`~adicgaps.search.Answer`, and :func:`revalidate_break` rechecks the
answer against the same arguments.  Verdicts are one-sided:
``BROKEN_witnessed`` embeds a re-checkable witness, while
``NOT_BROKEN_bounded`` only reports that the bounded search found nothing —
non-breaking facts are not mechanized here.  Only restrictions
along the full side set and only ranges of generated embeddings are
examined, so a clean sweep under-approximates the full combinatorial
statement.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .gaps import RECORD, GapSpec
from .runtime import pmap
from .search import RANGE, Answer, budget_json, candidate_pool, revalidate
from .types import enumerate_types, parse_type, print_type

BROKEN_WITNESSED = "BROKEN_witnessed"
NOT_BROKEN_BOUNDED = "NOT_BROKEN_bounded"


def _range_rule(gap: GapSpec, broken_sides: frozenset, range_types: frozenset) -> bool:
    """True when the range meets exactly the requested sides."""
    for i in range(gap.n):
        if bool(range_types & gap.sides[i]) != (i in broken_sides):
            return False
    return True


def break_check(gap: GapSpec, broken_sides: Iterable[int]) -> Answer:
    """Search the generator families for a witness that the sides
    ``broken_sides`` break; first validated wins.

    A first-move gap, an empty side set and indices outside the gap are
    refused with ValueError before any candidate is drawn.  The verdict is
    ``BROKEN_witnessed`` with the winning embedding and its action table, or
    ``NOT_BROKEN_bounded`` once the bounded families are exhausted.  The
    search order is deterministic, so reruns reproduce the same witness.
    """
    if gap.layer != RECORD:
        raise ValueError("breaking analysis applies to record-layer gaps")
    sides = frozenset(broken_sides)
    if not sides:
        raise ValueError("broken_sides must be nonempty")
    if not sides <= set(range(gap.n)):
        raise ValueError(
            f"broken_sides {sorted(sides)} not a subset of side indices 0..{gap.n - 1}"
        )
    searched = 0
    for cand in candidate_pool(range(1, gap.m + 1), gap.m, RANGE):
        searched += 1
        if _range_rule(gap, sides, cand.range_types):
            return Answer(BROKEN_WITNESSED, cand, searched, budget_json(RANGE))
    return Answer(NOT_BROKEN_BOUNDED, None, searched, budget_json(RANGE))


# --------------------------------------------------------------------------
# witness revalidation


def revalidate_break(gap: GapSpec, broken_sides: Iterable[int], answer: Answer) -> bool:
    """Recheck a BROKEN verdict from scratch.

    The witness embedding is rebuilt from its JSON payload and its action
    re-derived under the range policy (rule-level kinds recompute the rule,
    probed kinds are re-probed, and the domination construction is rebuilt
    and its probed behaviour compared against the defining rule); then the
    range rule is re-applied: every requested side must be met by some
    action image and every other side avoided by all of them.
    """
    w = answer.witness
    if answer.verdict != BROKEN_WITNESSED or w is None:
        return False
    return revalidate(w, RANGE) and _range_rule(gap, frozenset(broken_sides), w.range_types)


# --------------------------------------------------------------------------
# desk gaps


def record_three_gap() -> GapSpec:
    """The canonical three-sided dyadic record gap: sides pin ``[l0]``,
    ``[l1]`` and ``[l0 l1]``.  The classic partial-breaking example: both
    mixed pairs containing side 2 break, the pair {0,1} does not."""
    t = enumerate_types(2)
    l01 = parse_type("[l0 l1]", 2)
    return GapSpec(
        layer=RECORD,
        n=3,
        m=2,
        sides=(frozenset({t[0]}), frozenset({t[1]}), frozenset({l01})),
    )


# --------------------------------------------------------------------------
# jigsaw audit


def jigsaw_audit(gap: GapSpec) -> tuple:
    """``(side indices, answer)`` of :func:`break_check` for every nonempty
    subset of side indices.

    Queries run one after another on the calling thread, in subset order:
    by size, then lexicographically.
    """
    subsets = [
        combo
        for size in range(1, gap.n + 1)
        for combo in itertools.combinations(range(gap.n), size)
    ]
    return tuple(zip(subsets, pmap(lambda b: break_check(gap, b), subsets)))


# --------------------------------------------------------------------------
# J-optimality


def jbreak_optimality_check() -> tuple[int, tuple]:
    """Evidence that the all-types gap needs every side to break: the
    number of generated dyadic embeddings checked, and the counterexamples,
    expected to stay empty.

    The all-types gap is the dyadic gap with one singleton side per type.
    Over every generated dyadic embedding whose action range contains both
    chain types, the range must be the full eight-type catalogue; otherwise
    some proper superset of {0, 1} would break the eight-sided gap, beating
    the J bound."""
    catalogue = enumerate_types(2)
    chain0, chain1 = catalogue[0], catalogue[1]
    checked = 0
    counterexamples = []
    for cand in candidate_pool(range(1, 3), 2, RANGE):
        checked += 1
        rng = cand.range_types
        if chain0 in rng and chain1 in rng and len(rng) != len(catalogue):
            missing = sorted(print_type(t) for t in set(catalogue) - rng)
            tag = f"{cand.kind}:{cand.label}"
            counterexamples.append({"embedding": tag, "range_size": len(rng), "missing": missing})
    return checked, tuple(counterexamples)
