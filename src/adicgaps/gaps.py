"""Symbolic gap layer.

A gap specification assigns comb kinds (first-move layer) or record types
(record layer) to sides.  This module decides the witnessed order between
two specifications, enumerates the candidate lists with their pinned
diagonals, extracts minimal equivalence classes with their quotients by
alphabet permutations, and prunes record candidates through domination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

from .combs import (
    CombKind,
    EFamily,
    InducedCombMap,
    concretize,
    efamily_induced_map,
    efamily_shapes,
    shape_induced_row,
)
from .search import (
    DEFAULT_SEARCH_BUDGET,
    ORDER,
    Candidate,
    SearchBudget,
    dominations,
    efamilies,
    efamily_label,
    revalidate,
    subalphabets,
    substitutions,
)
from .tree import ScaleLimit, format_node, words_upto
from .types import (
    TypeDescriptor,
    enumerate_types,
    max_of,
    parse_type,
    print_type,
    type_id,
)

FIRST_MOVE = "first_move"
RECORD = "record"

LE_WITNESSED = "LE_witnessed"
NOT_LE_REFUTED_EXACT = "NOT_LE_refuted_exact"
UNKNOWN_BOUNDED = "UNKNOWN_bounded"


# ---------------------------------------------------------------------------
# gap specifications


def _symbol_key(symbol) -> tuple:
    if isinstance(symbol, CombKind):
        return (symbol.spine, symbol.teeth)
    return (type_id(symbol),)


def _format_symbol(symbol) -> str:
    if isinstance(symbol, CombKind):
        return str(symbol)
    return print_type(symbol)


@dataclass(frozen=True)
class GapSpec:
    """Sides of symbols over one tree: comb kinds or record types."""

    layer: str
    n: int  # number of sides
    m: int  # alphabet of the underlying tree
    sides: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        if self.layer not in (FIRST_MOVE, RECORD):
            raise ValueError(f"unknown layer {self.layer!r}")
        if self.n != len(self.sides):
            raise ValueError(f"{len(self.sides)} sides for arity {self.n}")
        if self.m < 1:
            raise ValueError("alphabet must be positive")
        seen = set()
        for side in self.sides:
            if not side:
                raise ValueError("every side must be nonempty")
            for symbol in side:
                self._check_symbol(symbol)
                if symbol in seen:
                    raise ValueError(f"sides overlap at {_format_symbol(symbol)}")
                seen.add(symbol)

    def _check_symbol(self, symbol) -> None:
        if self.layer == FIRST_MOVE:
            if not isinstance(symbol, CombKind):
                raise TypeError(f"first-move sides hold comb kinds, got {symbol!r}")
            symbol.check_alphabet(self.m)
        else:
            if not isinstance(symbol, TypeDescriptor):
                raise TypeError(f"record sides hold type descriptors, got {symbol!r}")
            if symbol.alphabet != self.m:
                raise ValueError(
                    f"type {print_type(symbol)} lives over alphabet {symbol.alphabet}, not {self.m}"
                )

    def side_of(self, symbol) -> Optional[int]:
        for i, side in enumerate(self.sides):
            if symbol in side:
                return i
        return None

    def symbol_universe(self) -> tuple:
        """Every symbol of the layer over this alphabet, canonically ordered."""
        if self.layer == FIRST_MOVE:
            return tuple(
                CombKind(i, j) for i, j in sorted(itertools.product(range(self.m), repeat=2))
            )
        return enumerate_types(self.m)

    @property
    def is_strong_candidate(self) -> bool:
        return self.layer == FIRST_MOVE and all(
            CombKind(i, i) in self.sides[i] for i in range(self.n)
        )

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "n": self.n,
            "m": self.m,
            "sides": [
                [_format_symbol(s) for s in sorted(side, key=_symbol_key)]
                for side in self.sides
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "GapSpec":
        if not isinstance(obj, dict):
            raise ValueError("a gap file must hold a JSON object")
        layer = obj["layer"]
        m = int(obj["m"])
        if layer == FIRST_MOVE:
            parse = CombKind.parse
        elif layer == RECORD:
            parse = lambda text: parse_type(text, m)  # noqa: E731
        else:
            raise ValueError(f"unknown layer {layer!r}")
        sides = tuple(list(side) for side in obj["sides"])
        if not all(isinstance(text, str) for side in sides for text in side):
            raise ValueError("a gap side must list symbols as strings")
        return GapSpec(
            layer, int(obj["n"]), m, tuple(frozenset(map(parse, side)) for side in sides)
        )

    def __str__(self) -> str:
        body = " | ".join(
            ",".join(_format_symbol(s) for s in sorted(side, key=_symbol_key))
            for side in self.sides
        )
        return f"<{self.layer} {body}>"


def _chain_type(alphabet: int, letter: int) -> TypeDescriptor:
    return parse_type(f"[l{letter}]", alphabet)


def critical_record_gap(n: int) -> GapSpec:
    """Chain-type gap: side i holds exactly the i-chain type."""
    return GapSpec(
        RECORD, n, n, tuple(frozenset({_chain_type(n, i)}) for i in range(n))
    )


def max_partition_gap(n: int) -> GapSpec:
    """Record gap whose side i collects every type with maximum letter i."""
    if n > 3:
        raise ScaleLimit("max-partition gap supported up to alphabet 3")
    sides = tuple(
        frozenset(tau for tau in enumerate_types(n) if max_of(tau) == i) for i in range(n)
    )
    return GapSpec(RECORD, n, n, sides)


# ---------------------------------------------------------------------------
# candidate enumerations

_STRONG_LIMIT = 3


@lru_cache(maxsize=None)
def enumerate_candidates_strong(n: int) -> tuple[GapSpec, ...]:
    """Every side assignment pinning the i-chain kind to side i.

    Candidate index equals the base-(n+1) number read off the off-diagonal
    assignment digits (side index, or n for unassigned), most significant
    digit first; the pullback order matrix relies on this correspondence.
    """
    if n < 1:
        raise ValueError("arity must be positive")
    if n > _STRONG_LIMIT:
        raise ScaleLimit(f"strong candidate enumeration supported up to arity {_STRONG_LIMIT}")
    off = [(i, j) for i, j in sorted(itertools.product(range(n), repeat=2)) if i != j]
    out = []
    for digits in itertools.product(range(n + 1), repeat=len(off)):
        sides = [{CombKind(i, i)} for i in range(n)]
        for (i, j), d in zip(off, digits):
            if d < n:
                sides[d].add(CombKind(i, j))
        out.append(GapSpec(FIRST_MOVE, n, n, tuple(frozenset(s) for s in sides)))
    return tuple(out)


def enumerate_candidates_record(n: int) -> tuple[GapSpec, ...]:
    """Dyadic record candidates: both chain pinnings, free types anywhere.

    The two chain types are pinned to the two sides in either orientation,
    and each of the six remaining types goes to side 0, side 1, or neither.
    """
    if n != 2:
        raise ScaleLimit("record candidate enumeration supported for alphabet 2 only")
    chain0, chain1 = _chain_type(2, 0), _chain_type(2, 1)
    free = tuple(t for t in enumerate_types(2) if t not in (chain0, chain1))
    out = []
    for pinning in ((chain0, chain1), (chain1, chain0)):
        for digits in itertools.product((0, 1, 2), repeat=len(free)):
            sides = [{pinning[0]}, {pinning[1]}]
            for tau, d in zip(free, digits):
                if d < 2:
                    sides[d].add(tau)
            out.append(GapSpec(RECORD, 2, 2, tuple(frozenset(s) for s in sides)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the witnessed order


@lru_cache(maxsize=None)
def generate_type_actions(
    m_in: int, m_out: int, budget: SearchBudget = DEFAULT_SEARCH_BUDGET
) -> tuple[Candidate, ...]:
    """All generated total type actions m_in -> m_out, deduplicated by map,
    in deterministic generator order: subalphabet inclusions, substitutions,
    branch-word family realizations, dominations.

    Inclusions carry the rule-level action of an increasing letter
    injection and domination maps the action its existence theorem states;
    the probed kinds (substitutions, family realizations) are admitted under
    the order policy: total, stable across witness sizes, monotone in the
    maximum letter, and surviving structural replay plus the pooled
    same-type probes."""
    words = words_upto(m_out, budget.substitution_blocks)
    out: list[Candidate] = []
    seen: set[tuple] = set()
    chain = itertools.chain(
        subalphabets(m_in, m_out),
        substitutions(itertools.product(words, repeat=m_in), m_out, ORDER),
        efamilies(m_in, m_out, budget, ORDER),
        dominations(m_in, m_out),
    )
    for cand in chain:
        if cand.action in seen:
            continue
        seen.add(cand.action)
        out.append(cand)
    return tuple(out)


@dataclass(frozen=True)
class GapWitness:
    """A first-move order witness: the comb map and the family inducing it.
    Record-layer witnesses are search :class:`Candidate` objects."""

    kind: str  # always "efamily"
    label: str
    comb_map: InducedCombMap
    efamily: EFamily

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "comb_map": self.comb_map.to_json_obj(),
            "efamily": {
                "e_inf": format_node(self.efamily.e_inf),
                "e": [format_node(w) for w in self.efamily.e],
            },
        }


@dataclass(frozen=True)
class OrderResult:
    verdict: str
    witness: Optional[GapWitness | Candidate]
    searched: int
    budget_note: str
    budget: SearchBudget = DEFAULT_SEARCH_BUDGET  # the record-layer search's

    def __bool__(self) -> bool:
        return self.verdict == LE_WITNESSED

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "searched": self.searched,
            "budget": self.budget_note,
        }


_FIRST_MOVE_FROM_FOUR_LIMIT = 2


@lru_cache(maxsize=None)
def _realizable_maps(m_in: int, m_out: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Each distinct realizable comb map as a flat image row
    (:func:`shape_induced_row`), sorted, and the first family shape in
    enumeration order that induces it.  Only the witness a query returns is
    ever concretized into words.

    From input alphabet 4 only output alphabets up to 2 are enumerated: at
    (4, 3) the family shapes already number 244,080."""
    if m_in >= 4 and m_out > _FIRST_MOVE_FROM_FOUR_LIMIT:
        raise ScaleLimit(
            f"first-move order from alphabet {m_in} supported into output alphabets "
            f"up to {_FIRST_MOVE_FROM_FOUR_LIMIT}, got {m_out}"
        )
    first: dict[tuple[int, ...], object] = {}
    for shape in efamily_shapes(m_in, m_out):
        first.setdefault(shape_induced_row(shape, m_in, m_out), shape)
    rows = tuple(sorted(first))
    return rows, tuple(first[row] for row in rows)


@lru_cache(maxsize=None)
def _comb_image_table(m_in: int, m_out: int):
    """Read-only int array: ``image[e, c]`` is the slot of the comb kind that
    map ``e`` of :func:`_realizable_maps` sends the input kind in slot ``c``
    to.  Kind i>j sits in slot ``i * m + j`` over alphabet m, the sorted
    order of a map's table."""
    import numpy as np

    rows, _shapes = _realizable_maps(m_in, m_out)
    image = np.array(rows, dtype=np.int64).reshape(len(rows), m_in * m_in)
    image.flags.writeable = False
    return image


def _side_table(specs: tuple[GapSpec, ...], m: int):
    """``rows[k, c]``: the side of first-move spec k holding the comb kind in
    slot c, or the arity n where no side holds it, so that two unassigned
    kinds compare equal as :meth:`GapSpec.side_of`'s ``None`` does."""
    import numpy as np

    rows = np.full((len(specs), m * m), specs[0].n, dtype=np.int64)
    for k, g in enumerate(specs):
        for i, side in enumerate(g.sides):
            for kind in side:
                rows[k, kind.spine * m + kind.teeth] = i
    return rows


def _membership_iff(g: GapSpec, h: GapSpec, image_of: Callable) -> bool:
    """Symbol map rule: land on side i exactly when starting on side i."""
    return all(g.side_of(c) == h.side_of(image_of(c)) for c in g.symbol_universe())


def order_le(
    g: GapSpec, h: GapSpec, budget: SearchBudget = DEFAULT_SEARCH_BUDGET
) -> OrderResult:
    """Decide g <= h by searching symbol-map witnesses.

    First-move layer: exact over every realizable comb map, so a verdict of
    not-below means no branch-word family witnesses the relation.  Each map
    is one row of the image table; with g and h written as side-per-slot
    rows, map e witnesses g <= h exactly when ``h_row[image[e]] == g_row``
    in every slot, and the witness is the first such map.  From input
    alphabet 4 into an output alphabet of 3 or more the maps are not
    enumerated and :class:`ScaleLimit` is raised.

    Record layer: exhaust the generated embedding actions within budget;
    failure to find a witness is only a bounded outcome, never a refutation.
    This path does not import numpy.
    """
    if g.layer != h.layer:
        raise ValueError(f"layer mismatch: {g.layer} vs {h.layer}")
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} vs {h.n}")
    if g.layer == FIRST_MOVE:
        import numpy as np

        rows, shapes = _realizable_maps(g.m, h.m)
        image = _comb_image_table(g.m, h.m)
        g_row, h_row = _side_table((g,), g.m)[0], _side_table((h,), h.m)[0]
        hits = np.flatnonzero((h_row[image] == g_row).all(axis=1))
        if hits.size:
            eps = InducedCombMap.from_row(g.m, h.m, rows[hits[0]])
            fam = concretize(shapes[hits[0]], h.m)
            witness = GapWitness("efamily", efamily_label(fam), eps, fam)
            return OrderResult(LE_WITNESSED, witness, len(rows), "exact")
        return OrderResult(NOT_LE_REFUTED_EXACT, None, len(rows), "exact")
    actions = generate_type_actions(g.m, h.m, budget)
    for action in actions:
        if _membership_iff(g, h, action.lookup().__getitem__):
            return OrderResult(LE_WITNESSED, action, len(actions), "bounded", budget)
    return OrderResult(UNKNOWN_BOUNDED, None, len(actions), "bounded", budget)


def revalidate_order(g: GapSpec, h: GapSpec, result: OrderResult) -> bool:
    """Independently re-check a witnessed verdict.

    The symbol map is recomputed from the witness provenance (never reused
    from the stored table) and the membership rule is re-run against it:
    first-move witnesses recompute the family's induced comb map, and
    record-layer witnesses rebuild their embedding from its payload and
    re-derive its action under the order policy.
    """
    if result.verdict != LE_WITNESSED or result.witness is None:
        return False
    w = result.witness
    if g.layer == FIRST_MOVE:
        if not isinstance(w, GapWitness):
            return False
        eps = efamily_induced_map(w.efamily)
        if eps.table != w.comb_map.table:
            return False
        return _membership_iff(g, h, eps.apply)
    if not isinstance(w, Candidate) or not revalidate(w, result.budget, ORDER):
        return False
    lookup = w.lookup()
    if set(lookup) != set(enumerate_types(g.m)):
        return False
    return _membership_iff(g, h, lookup.__getitem__)


# ---------------------------------------------------------------------------
# minimality and classes


@dataclass(frozen=True)
class MinimalClassesReport:
    candidates: tuple[GapSpec, ...]
    # bool matrix, le[i][j] means candidate i <= candidate j; an array has no
    # single truth value, so == compares the fields the matrix determines
    le: "numpy.ndarray" = field(compare=False)
    minimal: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    quotient_counts: dict
    mode: str  # exact | witnessed

    @property
    def class_representatives(self) -> tuple[GapSpec, ...]:
        return tuple(self.candidates[cls[0]] for cls in self.classes)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "candidates": len(self.candidates),
            "minimal": len(self.minimal),
            "classes": [[self.candidates[i].to_json()["sides"] for i in cls] for cls in self.classes],
            "quotients": dict(self.quotient_counts),
        }


def _pullback_maps(n: int):
    """Indices of the realizable n -> n comb maps that pull back onto at
    least one strong candidate (the argument is in :func:`_le_matrix_strong`)."""
    import numpy as np

    own_chain = np.arange(n) * (n + 1)
    chain_images = _comb_image_table(n, n)[:, own_chain]
    to_other_chain = np.isin(chain_images, own_chain) & (chain_images != own_chain)
    keep = ~to_other_chain.any(axis=1)
    for a, b in itertools.combinations(range(n), 2):
        keep &= chain_images[:, a] != chain_images[:, b]
    return np.flatnonzero(keep)


def _le_matrix_strong(candidates: tuple[GapSpec, ...], n: int):
    """Exact order matrix of the strong candidates through witness pullbacks.

    For a fixed symbol map eps, the only specification below h via eps is
    the pullback g assigning each kind c to the side of eps(c).  It is a
    candidate exactly when it pins every chain kind i>i to side i, that is
    when h holds eps(i>i) on side i.  Candidates are indexed by their
    assignment digits, so each such (eps, h) contributes the one edge
    ``le[key(g), h]``, written through a flat index.  The realizable maps
    contain the identity and are closed under composition, so the edge set
    is already reflexive and transitive.

    Most maps pull back onto no candidate and are skipped.  Every candidate
    holds j>j on side j, so a map sending i>i to j>j with j != i has no h;
    and a map sending i>i and j>j (i != j) to one kind would need that kind
    on two sides.  In a kept map each chain goes to its own chain kind,
    which every candidate satisfies, or to its own off-diagonal kind, which
    asks for digit i at that kind's position; the candidates with those
    digits are exactly the h the map pulls back onto, and there is at least
    one, since an off-diagonal digit may take any value.  So the skipped
    maps and the rows left out add no edge.
    """
    import numpy as np

    k_count = len(candidates)
    full = _side_table(candidates, n)
    diag_slots = np.arange(n) * (n + 1)
    off_slots = np.setdiff1d(np.arange(n * n), diag_slots)
    powers = (n + 1) ** np.arange(len(off_slots) - 1, -1, -1)
    digits = full[:, off_slots]
    pinned = (full[:, diag_slots] == np.arange(n)).all()
    if not pinned or not np.array_equal(digits @ powers, np.arange(k_count)):
        raise AssertionError("candidate order must match assignment keys")

    image = _comb_image_table(n, n)
    position = np.full(n * n, -1)
    position[off_slots] = np.arange(len(off_slots))
    rows_for = {}
    edges = []
    for e in _pullback_maps(n):
        demands = tuple(
            (position[s], i) for i, s in enumerate(image[e, diag_slots].tolist())
            if position[s] >= 0
        )
        rows = rows_for.get(demands)
        if rows is None:
            match = np.ones(k_count, dtype=bool)
            for p, i in demands:
                match &= digits[:, p] == i
            rows = rows_for[demands] = np.flatnonzero(match)
        g_keys = full[rows[:, None], image[e, off_slots]] @ powers
        edges.append(g_keys * k_count + rows)
    le = np.zeros(k_count * k_count, dtype=bool)
    le[np.concatenate(edges)] = True
    return le.reshape(k_count, k_count)


def _permuted_candidate(g: GapSpec, pi: tuple[int, ...], convention: str) -> Optional[GapSpec]:
    """Image of a first-move candidate under an alphabet permutation.

    "alphabet" relabels side indices and comb letters together; "sides_only"
    moves side indices while leaving symbols alone (which may break the
    diagonal pinning, in which case there is no candidate image).
    """
    sides = [None] * g.n
    for i, side in enumerate(g.sides):
        if convention == "alphabet":
            sides[pi[i]] = frozenset(CombKind(pi[c.spine], pi[c.teeth]) for c in side)
        else:
            sides[pi[i]] = side
    candidate = GapSpec(FIRST_MOVE, g.n, g.m, tuple(sides))
    return candidate if candidate.is_strong_candidate else None


def minimal_classes(candidates: tuple[GapSpec, ...]) -> MinimalClassesReport:
    """Minimal candidates grouped by mutual order, with permutation quotients.

    The strong layer is decided exactly by the pullback matrix of
    :func:`_le_matrix_strong`.  The record layer walks :func:`order_le` over
    all pairs; an UNKNOWN on a needed pair aborts with an error naming the
    blocked comparison, because minimality must not be guessed.  Either way
    ``le`` is a dense bool matrix; minimality is read off its edge list (a
    candidate is minimal when each edge into it comes back), and classes
    group the minimal candidates by mutual order.
    """
    import numpy as np

    if not candidates:
        return MinimalClassesReport((), np.zeros((0, 0), dtype=bool), (), (), {}, "exact")
    layer = candidates[0].layer
    n = candidates[0].n
    if any(c.layer != layer or c.n != n for c in candidates):
        raise ValueError("candidates must share layer and arity")

    if layer == FIRST_MOVE:
        le = _le_matrix_strong(tuple(candidates), n)
        mode = "exact"
    else:
        mode = "witnessed"
        k_count = len(candidates)
        le = np.zeros((k_count, k_count), dtype=bool)
        for i, g in enumerate(candidates):
            for j, h in enumerate(candidates):
                res = order_le(g, h)
                if res.verdict == LE_WITNESSED:
                    le[i, j] = True
                elif res.verdict == UNKNOWN_BOUNDED:
                    raise ValueError(
                        f"minimality blocked by unknown comparison {g} vs {h}"
                    )

    # i is minimal when no j lies strictly below it: every edge j -> i of the
    # edge list comes back as le[i, j]
    below, above = np.nonzero(le)
    not_minimal = np.zeros(len(le), dtype=bool)
    not_minimal[above[~le[above, below]]] = True
    minimal = np.flatnonzero(~not_minimal).tolist()
    classes: list[list[int]] = []
    for i in minimal:
        for cls in classes:
            j = cls[0]
            if le[i, j] and le[j, i]:
                cls.append(i)
                break
        else:
            classes.append([i])

    # two classes share an orbit when a permutation maps one exactly onto
    # the other; permutations form a group, so each class's set of exact
    # images is its whole orbit and serves as the orbit's key
    quotient_counts: dict[str, int] = {}
    if layer == FIRST_MOVE:
        index_of = {c: k for k, c in enumerate(candidates)}
        class_at = {frozenset(cls): a for a, cls in enumerate(classes)}
        for convention in ("alphabet", "sides_only"):
            orbits = set()
            for cls in classes:
                orbit = set()
                for pi in itertools.permutations(range(n)):
                    image = frozenset(
                        index_of.get(_permuted_candidate(candidates[idx], pi, convention))
                        for idx in cls
                    )
                    if image in class_at:
                        orbit.add(class_at[image])
                orbits.add(frozenset(orbit))
            quotient_counts[convention] = len(orbits)

    return MinimalClassesReport(
        tuple(candidates),
        le,
        tuple(minimal),
        tuple(tuple(cls) for cls in classes),
        quotient_counts,
        mode,
    )


# ---------------------------------------------------------------------------
# domination pruning of record candidates

_PRUNED_TYPE_TEXTS = ("[u0 u1 l1]", "[u1 l0]")


@dataclass(frozen=True)
class PruneReport:
    before: int
    after: int
    removed_types: tuple[str, ...]
    audit_note: str
    pruned: tuple[GapSpec, ...]

    def as_dict(self) -> dict:
        return {
            "before": self.before,
            "after": self.after,
            "removed_types": list(self.removed_types),
            "audit_note": self.audit_note,
        }


_PRUNE_NOTE = (
    "the all-dominating teeth types are removed from every side; the literal "
    "top-comb reading would additionally remove [l0 u1 l1] (it dominates every "
    "dyadic type by the same definition, and the worked construction maps "
    "every non-chain type onto it), but the published refinement keeps it, so "
    "it is retained here and the tension is reported, not resolved"
)


def domination_prune(candidates: tuple[GapSpec, ...]) -> PruneReport:
    """Refine record candidates by deleting the two all-dominating types.

    Any candidate using one of them sits above a chain-versus-everything
    gap, so restricting sides to the remaining types preserves the property
    that every gap contains a candidate; duplicates collapse after the
    restriction."""
    removed = tuple(parse_type(text, 2) for text in _PRUNED_TYPE_TEXTS)
    out: list[GapSpec] = []
    seen = set()
    for g in candidates:
        if g.layer != RECORD or g.m != 2:
            raise ValueError("domination pruning applies to dyadic record candidates")
        sides = tuple(frozenset(t for t in side if t not in removed) for side in g.sides)
        restricted = GapSpec(RECORD, g.n, g.m, sides)
        if restricted in seen:
            continue
        seen.add(restricted)
        out.append(restricted)
    return PruneReport(
        before=len(candidates),
        after=len(out),
        removed_types=_PRUNED_TYPE_TEXTS,
        audit_note=_PRUNE_NOTE,
        pruned=tuple(out),
    )
