"""Symbolic gap layer.

A gap specification assigns comb kinds (first-move layer) or record types
(record layer) to sides.  This module decides the witnessed order between
two specifications, enumerates the candidate lists with their pinned
diagonals, extracts the minimal equivalence classes of the strong (first-move)
candidates with their quotients by alphabet permutations, and prunes record
candidates through domination.  The first-move order is exact; the record
order searches the candidate embeddings of :mod:`adicgaps.search`, whose
extent is fixed there, so it is one-sided.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .combs import (
    CombKind,
    comb_kinds,
    concretize,
    efamily_induced_map,
    efamily_placements,
    shape_induced_row,
)
from .runtime import canonical_json
from .search import (
    ORDER,
    Answer,
    Candidate,
    budget_json,
    candidate_pool,
    efamily_label,
    efamily_of,
    efamily_payload,
    revalidate,
)
from .tree import ScaleLimit
from .types import (
    TYPE_ALPHABET_LIMIT,
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
        if self.n < 1:
            raise ValueError(f"a gap needs at least one side, got arity {self.n}")
        if self.n != len(self.sides):
            raise ValueError(f"{len(self.sides)} sides for arity {self.n}")
        if self.m < 1:
            raise ValueError("alphabet must be positive")
        if self.layer == RECORD and self.m > TYPE_ALPHABET_LIMIT:
            raise ScaleLimit(
                f"record gaps are supported over alphabets up to {TYPE_ALPHABET_LIMIT}, "
                f"got {self.m}"
            )
        seen = set()
        for side in self.sides:
            if not side:
                raise ValueError("every side must be nonempty")
            for symbol in side:
                self._check_symbol(symbol)
                if symbol in seen:
                    raise ValueError(f"sides overlap at {symbol}")
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
            return comb_kinds(self.m)
        return enumerate_types(self.m)

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "n": self.n,
            "m": self.m,
            "sides": [
                [str(s) for s in sorted(side, key=_symbol_key)]
                for side in self.sides
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "GapSpec":
        if not isinstance(obj, dict):
            raise ValueError("a gap file must hold a JSON object")
        layer, n, m = obj["layer"], obj["n"], obj["m"]
        if type(n) is not int or type(m) is not int:  # bool is an int subtype
            raise ValueError("a gap file's n and m must be integers")
        if layer == FIRST_MOVE:
            parse = CombKind.parse
        elif layer == RECORD:
            parse = lambda text: parse_type(text, m)  # noqa: E731
        else:
            raise ValueError(f"unknown layer {layer!r}")
        sides = obj["sides"]
        if not isinstance(sides, list) or not all(isinstance(side, list) for side in sides):
            raise ValueError("a gap file's sides must be a list of lists")
        if not all(isinstance(text, str) for side in sides for text in side):
            raise ValueError("a gap side must list symbols as strings")
        return GapSpec(layer, n, m, tuple(frozenset(map(parse, side)) for side in sides))

    def __str__(self) -> str:
        body = " | ".join(
            ",".join(str(s) for s in sorted(side, key=_symbol_key))
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
def _strong_off_kinds(n: int) -> tuple[CombKind, ...]:
    """The off-diagonal kinds of a strong n-sided candidate, whose sides
    are its digits, in :func:`~adicgaps.combs.comb_kinds` order."""
    if n < 1:
        raise ValueError("arity must be positive")
    if n > _STRONG_LIMIT:
        raise ScaleLimit(f"strong candidate enumeration supported up to arity {_STRONG_LIMIT}")
    return tuple(kind for kind in comb_kinds(n) if kind.spine != kind.teeth)


def _strong_count(n: int) -> int:
    return (n + 1) ** len(_strong_off_kinds(n))


def _strong_digits(n: int, index: int) -> list[int]:
    """The off-diagonal digits of candidate ``index``, most significant
    first: digit p is the side holding off-diagonal kind p, or n for none."""
    if not 0 <= index < _strong_count(n):
        raise ValueError(f"no strong {n}-sided candidate has index {index}")
    digits = []
    for _ in _strong_off_kinds(n):
        index, d = divmod(index, n + 1)
        digits.append(d)
    return digits[::-1]


def strong_candidate(n: int, index: int) -> GapSpec:
    """The strong n-sided candidate with the given index: the i-chain kind
    on side i, and the off-diagonal kinds assigned by the base-(n+1) digits
    of the index (:func:`_strong_digits`).  The pullback order pairs of
    :func:`_le_matrix_strong` are keyed by this index."""
    sides = [{CombKind(i, i)} for i in range(n)]
    for kind, d in zip(_strong_off_kinds(n), _strong_digits(n, index)):
        if d < n:
            sides[d].add(kind)
    return GapSpec(FIRST_MOVE, n, n, tuple(frozenset(s) for s in sides))


@lru_cache(maxsize=None)
def enumerate_candidates_strong(n: int) -> tuple[GapSpec, ...]:
    """Every side assignment pinning the i-chain kind to side i, candidate k
    at position k (:func:`strong_candidate`)."""
    return tuple(strong_candidate(n, k) for k in range(_strong_count(n)))


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
def generate_type_actions(m_in: int, m_out: int) -> tuple[Candidate, ...]:
    """All generated total type actions m_in -> m_out, deduplicated by map,
    in the order of :func:`~adicgaps.search.candidate_pool` over the domain
    alphabet ``m_in`` alone: subalphabet inclusions, substitutions,
    branch-word family realizations, dominations.

    Inclusions carry the rule-level action of an increasing letter
    injection and domination maps the action its existence theorem states;
    the probed kinds (substitutions, family realizations) are admitted under
    the order policy: total, stable across witness sizes, monotone in the
    maximum letter, and surviving structural replay plus the pooled
    same-type probes."""
    out: list[Candidate] = []
    seen: set[tuple] = set()
    for cand in candidate_pool((m_in,), m_out, ORDER):
        if cand.action in seen:
            continue
        seen.add(cand.action)
        out.append(cand)
    return tuple(out)


_FIRST_MOVE_FROM_FOUR_LIMIT = 2


@lru_cache(maxsize=None)
def _realizable_maps(m_in: int, m_out: int) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Each distinct realizable comb map as a flat image row
    (:func:`shape_induced_row`), sorted, and the first family shape in
    enumeration order that induces it.  Only the witness a query returns is
    ever concretized into words.

    Placing e(inf) fixes only the chain kinds' images, so each lettered
    branch-word tree's off-diagonal images are read once, off the tree, and
    each shape's row is that tree row with the diagonal its placement fixes
    (:func:`~adicgaps.combs.efamily_placements`).

    From input alphabet 4 only output alphabets up to 2 are enumerated: at
    (4, 3) the family shapes already number 244,080."""
    if m_in >= 4 and m_out > _FIRST_MOVE_FROM_FOUR_LIMIT:
        raise ScaleLimit(
            f"first-move order from alphabet {m_in} supported into output alphabets "
            f"up to {_FIRST_MOVE_FROM_FOUR_LIMIT}, got {m_out}"
        )
    first: dict[tuple[int, ...], object] = {}
    last = tree_row = None
    for tree, shape, diagonal in efamily_placements(m_in, m_out):
        if tree is not last:
            last, tree_row = tree, list(shape_induced_row(tree, m_in, m_out))
        for i, image in diagonal.items():
            tree_row[i * (m_in + 1)] = image
        first.setdefault(tuple(tree_row), shape)
    rows = tuple(sorted(first))
    return rows, tuple(first[row] for row in rows)


def _side_row(g: GapSpec) -> tuple[int, ...]:
    """Slot ``i * m + j`` holds the side of first-move spec g holding the
    comb kind i>j (its place in :func:`~adicgaps.combs.comb_kinds`), or the
    arity n where no side holds it, so that two unassigned kinds compare
    equal as :meth:`GapSpec.side_of`'s ``None`` does."""
    row = [g.n] * (g.m * g.m)
    for i, side in enumerate(g.sides):
        for kind in side:
            row[kind.spine * g.m + kind.teeth] = i
    return tuple(row)


def _first_witness_row(
    rows: tuple[tuple[int, ...], ...], g_row: tuple[int, ...], h_row: tuple[int, ...]
) -> Optional[int]:
    """The index of the first of the sorted ``rows`` with
    ``h_row[row[c]] == g_row[c]`` in every slot c, or ``None``.

    Slot c may hold exactly the images v with ``h_row[v] == g_row[c]``.
    The rows sharing a prefix are one run of the sorted rows, found by
    bisecting on the prefix, so the matching rows are walked slot by slot,
    each slot's allowed images in increasing order: the first full match is
    the lowest index, the one a scan of every row in order would find."""
    allowed = [[v for v, side in enumerate(h_row) if side == want] for want in g_row]

    def descend(prefix: tuple[int, ...], lo: int, hi: int) -> Optional[int]:
        if len(prefix) == len(allowed):
            return lo
        for v in allowed[len(prefix)]:
            longer = prefix + (v,)
            start = bisect_left(rows, longer, lo, hi)
            if start == hi:
                break
            stop = bisect_left(rows, prefix + (v + 1,), start, hi)
            if start < stop:
                hit = descend(longer, start, stop)
                if hit is not None:
                    return hit
        return None

    return descend((), 0, len(rows))


def _membership_iff(g: GapSpec, h: GapSpec, image_of: Callable) -> bool:
    """Symbol map rule: land on side i exactly when starting on side i."""
    return all(g.side_of(c) == h.side_of(image_of(c)) for c in g.symbol_universe())


def order_le(g: GapSpec, h: GapSpec) -> Answer:
    """Decide g <= h by searching symbol-map witnesses.

    First-move layer: exact over every realizable comb map, so a verdict of
    not-below means no branch-word family witnesses the relation, and the
    answer states no ``budget``.  Each map
    is one flat row of :func:`_realizable_maps`; with g and h written as
    side-per-slot rows (:func:`_side_row`), the map witnesses g <= h exactly
    when ``h_row[row[c]] == g_row[c]`` in every slot c.  The witness is the
    first such row in pool order, found by descending the sorted rows slot
    by slot (:func:`_first_witness_row`) rather than mapping every row: an
    e-family :class:`Candidate` acting by the row, with the first shape's
    words.  ``searched`` counts the whole pool, which the verdict covers.
    From input alphabet 4 into an output alphabet of 3 or more the maps are
    not enumerated and :class:`ScaleLimit` is raised.

    Record layer: exhaust the generated embedding actions, whose extent
    :mod:`adicgaps.search` fixes and the answer states as its ``budget``;
    failure to find a witness is only a bounded outcome, never a refutation.
    """
    if g.layer != h.layer:
        raise ValueError(f"layer mismatch: {g.layer} vs {h.layer}")
    if g.n != h.n:
        raise ValueError(f"arity mismatch: {g.n} vs {h.n}")
    if g.layer == FIRST_MOVE:
        rows, shapes = _realizable_maps(g.m, h.m)
        hit = _first_witness_row(rows, _side_row(g), _side_row(h))
        if hit is not None:
            fam = concretize(shapes[hit], h.m)
            images = (CombKind(*divmod(v, h.m)) for v in rows[hit])
            action = tuple(zip(comb_kinds(g.m), images))
            witness = Candidate("efamily", efamily_label(fam), g.m, action, efamily_payload(fam))
            return Answer(LE_WITNESSED, witness, len(rows), None)
        return Answer(NOT_LE_REFUTED_EXACT, None, len(rows), None)
    actions = generate_type_actions(g.m, h.m)
    for action in actions:
        if _membership_iff(g, h, action.lookup().__getitem__):
            return Answer(LE_WITNESSED, action, len(actions), budget_json(ORDER))
    return Answer(UNKNOWN_BOUNDED, None, len(actions), budget_json(ORDER))


def _efamily_action(w: Candidate) -> Optional[tuple]:
    """A first-move witness's comb action, recomputed by the family rule
    from its payload alone; ``None`` when the payload names no family."""
    if w.kind != "efamily" or w.payload.get("kind") != "efamily":
        return None
    try:
        fam = efamily_of(w.payload)
    except ValueError:
        return None
    return efamily_induced_map(fam)


def revalidate_order(g: GapSpec, h: GapSpec, answer: Answer) -> bool:
    """Independently re-check a witnessed verdict.

    The witness's action is recomputed from its payload alone (never read
    from the map pool or the probe memo) and must equal the stored one:
    a first-move witness recomputes its family's induced comb map, and a
    record witness rebuilds its embedding and re-derives its action under
    the order policy.  The action must then cover g's symbols, land among
    h's (a first-move family must be written over h's alphabet), and
    satisfy the membership rule.
    """
    w = answer.witness
    if answer.verdict != LE_WITNESSED or w is None:
        return False
    if g.layer == FIRST_MOVE:
        rederived = w.payload.get("alphabet_out") == h.m and _efamily_action(w) == w.action
    else:
        rederived = revalidate(w, ORDER)
    lookup = w.lookup()
    return (
        rederived
        and set(lookup) == set(g.symbol_universe())
        and set(lookup.values()) <= set(h.symbol_universe())
        and _membership_iff(g, h, lookup.__getitem__)
    )


# ---------------------------------------------------------------------------
# minimality and classes


@dataclass(frozen=True)
class MinimalClassesReport:
    """The classes of the minimal strong n-sided candidates, as indices of
    :func:`strong_candidate`, and the number of orbits of those classes
    under letter-and-side permutations.  :meth:`as_dict` is the one JSON
    form of the result, which ``gaps enum-strong --json`` prints and the
    cache stores."""

    n: int
    classes: tuple[tuple[int, ...], ...]
    orbits: int

    @property
    def class_representatives(self) -> tuple[GapSpec, ...]:
        return tuple(strong_candidate(self.n, cls[0]) for cls in self.classes)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": "exact",
            "candidates": _strong_count(self.n),
            "classes": [
                [strong_candidate(self.n, i).to_json()["sides"] for i in cls]
                for cls in self.classes
            ],
            "quotients": {"alphabet": self.orbits},
        }


def is_classes_dict(value: object, n: int) -> bool:
    """Whether ``value`` has the form of ``minimal_classes(n).as_dict()``:
    its keys, arity and candidate count, nonempty classes of strong n-sided
    candidates written as it writes them, and an integer orbit count.
    Whether they are the right classes only recomputing tells."""
    try:
        orbits = value["quotients"]["alphabet"]
        classes = [
            [GapSpec.from_json({"layer": FIRST_MOVE, "n": n, "m": n, "sides": s}) for s in cls]
            for cls in value["classes"]
        ]
    except (KeyError, TypeError, ValueError):
        return False
    form = MinimalClassesReport(n, (), orbits).as_dict()
    form["classes"] = [[g.to_json()["sides"] for g in cls] for cls in classes]
    chains = all(CombKind(i, i) in g.sides[i] for cls in classes for g in cls for i in range(n))
    same = canonical_json(form) == canonical_json(value)
    return same and type(orbits) is int and all(classes) and chains


def _pullback_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the realizable n -> n comb maps that pull back onto at
    least one strong candidate (the argument is in :func:`_le_matrix_strong`)."""
    chains = tuple(i * (n + 1) for i in range(n))
    kept = []
    for row in _realizable_maps(n, n)[0]:
        images = [row[s] for s in chains]
        to_other_chain = any(v in chains and v != s for s, v in zip(chains, images))
        if not to_other_chain and len(set(images)) == n:
            kept.append(row)
    return tuple(kept)


def _le_matrix_strong(n: int) -> set[int]:
    """Exact order of the strong n-sided candidates through witness
    pullbacks: the set of flat pair keys ``key(g) * total + key(h)`` with
    g <= h, where key is the index of :func:`strong_candidate` and total
    the number of candidates (:func:`_strong_count`).

    For a fixed symbol map eps, the only specification below h via eps is
    the pullback g assigning each kind c to the side of eps(c).  It is a
    candidate exactly when it pins every chain kind i>i to side i, that is
    when h holds eps(i>i) on side i.  Candidates are indexed by their
    assignment digits, so each such (eps, h) contributes the one key of the
    pair ``(key(g), key(h))``.  The realizable maps contain the identity and
    are closed under composition, so the pair set is already reflexive and
    transitive.

    Most maps pull back onto no candidate and are skipped.  Every candidate
    holds j>j on side j, so a map sending i>i to j>j with j != i has no h;
    and a map sending i>i and j>j (i != j) to one kind would need that kind
    on two sides.  In a kept map each chain goes to its own chain kind,
    which every candidate satisfies, or to its own off-diagonal kind, which
    asks for digit i at that kind's position; the candidates with those
    digits are exactly the h the map pulls back onto, and there is at least
    one, since an off-diagonal digit may take any value.  So the skipped
    maps and the h left out add no pair.

    No realizable map sends an off-diagonal kind to a chain kind: i>j
    (i != j) goes to the letters where the branch words e(i) and e(j) part
    (:func:`~adicgaps.combs.efamily_induced_map`), and two distinct words
    of one length part at two distinct letters.  So g's digit at
    off-diagonal slot q is h's digit at the slot eps sends q to, and key(g)
    is linear in h's digits.  A kept map's pairs are built digit by digit
    over h's digits, fixed where a chain lands off the diagonal and free
    elsewhere.
    """
    diag = tuple(i * (n + 1) for i in range(n))
    off = tuple(s for s in range(n * n) if s not in diag)
    position = {s: p for p, s in enumerate(off)}
    weight = tuple((n + 1) ** (len(off) - 1 - p) for p in range(len(off)))

    # a pair is written as the one int key(g) * total + key(h)
    total = (n + 1) ** len(off)
    flat: set[int] = set()
    for row in _pullback_maps(n):
        g_weight = [0] * len(off)
        for s, w in zip(off, weight):
            g_weight[position[row[s]]] += w
        fixed = {position[row[s]]: i for i, s in enumerate(diag) if row[s] != s}
        keys = [0]
        for p, w in enumerate(weight):
            digits = (fixed[p],) if p in fixed else range(n + 1)
            steps = [d * (g_weight[p] * total + w) for d in digits]
            keys = [key + step for key in keys for step in steps]
        flat.update(keys)
    return flat


def _permuted_index(n: int, index: int, pi: tuple[int, ...]) -> int:
    """Index of the image of strong candidate ``index`` under an alphabet
    permutation, which relabels side indices and comb letters together:
    side pi(i) of the image holds the kinds pi(u)>pi(v) for the kinds u>v
    on side i, so the digit of u>v moves to the position of pi(u)>pi(v)
    and reads pi of itself (n, for no side, stays n)."""
    off = _strong_off_kinds(n)
    position = {kind: p for p, kind in enumerate(off)}
    side = tuple(pi) + (n,)
    image = [0] * len(off)
    for kind, d in zip(off, _strong_digits(n, index)):
        image[position[CombKind(pi[kind.spine], pi[kind.teeth])]] = side[d]
    out = 0
    for d in image:
        out = out * (n + 1) + d
    return out


def minimal_classes(n: int) -> MinimalClassesReport:
    """Minimal strong n-sided candidates grouped by mutual order, with the
    number of their orbits under letter-and-side permutations.

    The order is decided exactly by the flat pair keys of
    :func:`_le_matrix_strong`, a set ``flat`` holding ``i * total + j``
    when candidate i lies below candidate j; a candidate is minimal when
    each pair into it comes back, and classes group the minimal candidates
    by mutual order, so the minimal candidates are the union of the classes.
    Only the first-move layer has minimal classes: the record order is
    bounded, and minimality must not be guessed.
    """
    total = _strong_count(n)
    flat = _le_matrix_strong(n)

    # i is minimal when no j lies strictly below it: every key j * total + i
    # comes back as i * total + j.  ``back`` holds each key reversed, so a
    # reversed key missing from ``flat`` names, by its quotient, a candidate
    # with something strictly below it
    back = {(r % total) * total + r // total for r in flat}
    not_minimal = {r // total for r in back - flat}
    classes: list[list[int]] = []
    for i in range(total):
        if i in not_minimal:
            continue
        for cls in classes:
            j = cls[0]
            if i * total + j in flat and j * total + i in flat:
                cls.append(i)
                break
        else:
            classes.append([i])

    # two classes share an orbit when a permutation maps one onto the
    # other; the order is permutation-equivariant, so every image of a
    # class is a class, and each class's set of images is its whole orbit
    # and serves as the orbit's key
    class_at = {frozenset(cls): a for a, cls in enumerate(classes)}
    orbits = set()
    for cls in classes:
        orbit = set()
        for pi in itertools.permutations(range(n)):
            image = frozenset(_permuted_index(n, idx, pi) for idx in cls)
            orbit.add(class_at[image])
        orbits.add(frozenset(orbit))

    return MinimalClassesReport(n, tuple(tuple(cls) for cls in classes), len(orbits))


# ---------------------------------------------------------------------------
# domination pruning of record candidates

#: The two all-dominating dyadic types that the pruning deletes.
PRUNED_TYPE_TEXTS = ("[u0 u1 l1]", "[u1 l0]")


def domination_prune(candidates: tuple[GapSpec, ...]) -> tuple[GapSpec, ...]:
    """Refine record candidates by deleting the two all-dominating types.

    Any candidate using one of them sits above a chain-versus-everything
    gap, so restricting sides to the remaining types preserves the property
    that every gap contains a candidate; duplicates collapse after the
    restriction."""
    removed = tuple(parse_type(text, 2) for text in PRUNED_TYPE_TEXTS)
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
    return tuple(out)
