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

Verdicts are one-sided: ``BROKEN_witnessed`` embeds a re-checkable witness,
while ``NOT_BROKEN_bounded`` only reports that the bounded search found
nothing — non-breaking facts are not mechanized here.  Only restrictions
along the full side set and only ranges of generated embeddings are
examined, so a clean sweep under-approximates the full combinatorial
statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .gaps import RECORD, GapSpec
from .runtime import pmap
from .search import RANGE, Candidate, budget_json, candidate_pool, revalidate
from .types import enumerate_types, parse_type, print_type

BROKEN_WITNESSED = "BROKEN_witnessed"
NOT_BROKEN_BOUNDED = "NOT_BROKEN_bounded"


# --------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class BreakQuery:
    """A single breaking question: which sides must survive restriction."""

    gap: GapSpec
    broken_sides: frozenset

    def __post_init__(self) -> None:
        if self.gap.layer != RECORD:
            raise ValueError("breaking analysis applies to record-layer gaps")
        sides = frozenset(self.broken_sides)
        object.__setattr__(self, "broken_sides", sides)
        if not sides:
            raise ValueError("broken_sides must be nonempty")
        if not sides <= set(range(self.gap.n)):
            raise ValueError(
                f"broken_sides {sorted(sides)} not a subset of side indices "
                f"0..{self.gap.n - 1}"
            )


# --------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class BreakReport:
    """Outcome of one breaking query; ``bool`` is True exactly when broken."""

    gap: GapSpec
    broken_sides: tuple
    verdict: str
    witness: Optional[Candidate]
    searched: int

    def __bool__(self) -> bool:
        return self.verdict == BROKEN_WITNESSED

    def as_dict(self) -> dict:
        return {
            "gap": self.gap.to_json(),
            "broken_sides": list(self.broken_sides),
            "verdict": self.verdict,
            "witness": self.witness.as_dict() if self.witness else None,
            "searched": self.searched,
            "budget": budget_json(RANGE),
        }


def _range_rule(gap: GapSpec, broken_sides: frozenset, range_types: frozenset) -> bool:
    """True when the range meets exactly the requested sides."""
    for i in range(gap.n):
        if bool(range_types & gap.sides[i]) != (i in broken_sides):
            return False
    return True


def break_check(query: BreakQuery) -> BreakReport:
    """Search the generator families for a witness; first validated wins.

    The verdict is ``BROKEN_witnessed`` with the winning embedding and its
    action table, or ``NOT_BROKEN_bounded`` once the bounded families are
    exhausted.  The search order is deterministic, so reruns reproduce the
    same witness.
    """
    gap = query.gap
    searched = 0
    for cand in candidate_pool(range(1, gap.m + 1), gap.m, RANGE):
        searched += 1
        if _range_rule(gap, query.broken_sides, cand.range_types):
            return BreakReport(
                gap=gap,
                broken_sides=tuple(sorted(query.broken_sides)),
                verdict=BROKEN_WITNESSED,
                witness=cand,
                searched=searched,
            )
    return BreakReport(
        gap=gap,
        broken_sides=tuple(sorted(query.broken_sides)),
        verdict=NOT_BROKEN_BOUNDED,
        witness=None,
        searched=searched,
    )


# --------------------------------------------------------------------------
# witness revalidation


def revalidate_break(report: BreakReport) -> bool:
    """Recheck a BROKEN verdict from scratch.

    The witness embedding is rebuilt from its JSON payload and its action
    re-derived under the range policy (rule-level kinds recompute the rule,
    probed kinds are re-probed, and the domination construction is rebuilt
    and its probed behaviour compared against the defining rule); then the
    range rule is re-applied: every requested side must be met by some
    action image and every other side avoided by all of them.
    """
    if report.verdict != BROKEN_WITNESSED or report.witness is None:
        return False
    if not revalidate(report.witness, RANGE):
        return False
    return _range_rule(report.gap, frozenset(report.broken_sides), report.witness.range_types)


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


@dataclass(frozen=True)
class JigsawAudit:
    """Break verdicts for every nonempty subset of sides of one gap."""

    gap: GapSpec
    entries: tuple  # ((side indices...), BreakReport) ordered by (len, tuple)

    @property
    def fully_broken(self) -> bool:
        return all(report for _, report in self.entries)

    def as_dict(self) -> dict:
        return {
            "gap": self.gap.to_json(),
            "entries": [
                {"broken_sides": list(b), "report": report.as_dict()}
                for b, report in self.entries
            ],
        }


def jigsaw_audit(gap: GapSpec) -> JigsawAudit:
    """Run :func:`break_check` for every nonempty subset of side indices.

    Queries run one after another on the calling thread, in subset order:
    by size, then lexicographically.
    """
    subsets = [
        combo
        for size in range(1, gap.n + 1)
        for combo in itertools.combinations(range(gap.n), size)
    ]
    reports = pmap(lambda b: break_check(BreakQuery(gap, frozenset(b))), subsets)
    return JigsawAudit(gap=gap, entries=tuple(zip(subsets, reports)))


# --------------------------------------------------------------------------
# J-optimality


@dataclass(frozen=True)
class OptimalityReport:
    """Evidence that the all-types gap needs every side to break.

    The all-types gap is the dyadic gap with one singleton side per type.
    Over every generated dyadic embedding whose action range contains both
    chain types, the range must be the full eight-type catalogue — otherwise
    some proper superset of {0, 1} would break the eight-sided gap, beating
    the J bound.  ``counterexamples`` is expected to stay empty."""

    checked: int
    counterexamples: tuple


def jbreak_optimality_check() -> OptimalityReport:
    """Check that no generated embedding witnesses a partial break of the
    eight-type gap beyond the two chain sides."""
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
    return OptimalityReport(checked=checked, counterexamples=tuple(counterexamples))
