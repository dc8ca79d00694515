"""Gap specifications, the witnessed order, minimality, and pruning."""

import itertools
import json
import random
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import adicgaps.combs as combs_module
import adicgaps.gaps as gaps_module
from adicgaps.cli import DISCREPANCY_KNOWN, AuditContext, check_discrepancy_dominating_teeth
from adicgaps.combs import (
    CombKind,
    EFamily,
    concretize,
    efamily_induced_map,
    efamily_placements,
    efamily_shapes,
    enumerate_efamilies,
    shape_induced_row,
)
from adicgaps.gaps import (
    FIRST_MOVE,
    LE_WITNESSED,
    NOT_LE_REFUTED_EXACT,
    PRUNED_TYPE_TEXTS,
    RECORD,
    UNKNOWN_BOUNDED,
    GapSpec,
    _first_witness_row,
    _le_matrix_strong,
    _membership_iff,
    _permuted_index,
    _pullback_maps,
    _realizable_maps,
    _side_row,
    critical_record_gap,
    domination_prune,
    enumerate_candidates_record,
    enumerate_candidates_strong,
    generate_type_actions,
    is_classes_dict,
    max_partition_gap,
    minimal_classes,
    order_le,
    revalidate_order,
    strong_candidate,
)
from adicgaps.search import Answer, Candidate, efamily_label, efamily_payload
from adicgaps.tree import ScaleLimit
from adicgaps.types import enumerate_types, max_of, parse_type, print_type

from helpers import compose, critical_strong_gap, identity_map


def strong2(s0, s1):
    return GapSpec(
        FIRST_MOVE,
        2,
        2,
        (
            frozenset(CombKind.parse(t) for t in s0),
            frozenset(CombKind.parse(t) for t in s1),
        ),
    )


def record2(s0, s1):
    return GapSpec(
        RECORD,
        2,
        2,
        (
            frozenset(parse_type(t, 2) for t in s0),
            frozenset(parse_type(t, 2) for t in s1),
        ),
    )


# the six minimal dyadic representatives of the strong reference table
GAP_1 = strong2(["0>0", "0>1"], ["1>1", "1>0"])
GAP_2 = strong2(["0>0"], ["1>1"])
GAP_3 = strong2(["0>0"], ["1>1", "0>1", "1>0"])
GAP_3S = strong2(["0>0", "0>1", "1>0"], ["1>1"])
GAP_4 = strong2(["0>0"], ["1>1", "1>0"])
GAP_4S = strong2(["0>0", "0>1"], ["1>1"])
TABLE = {GAP_1: "1", GAP_2: "2", GAP_3: "3", GAP_3S: "3*", GAP_4: "4", GAP_4S: "4*"}

# the three candidates the reference table folds into the six
STILDE = strong2(["0>0", "1>0"], ["1>1"])  # 4* with mirrored teeth
EXC_DIAG_TOOTH = strong2(["0>0"], ["1>1", "0>1"])
EXC_BOTH = strong2(["0>0", "1>0"], ["1>1", "0>1"])

CHAIN0, CHAIN1 = "[l0]", "[l1]"
NONCHAIN = [print_type(t) for t in enumerate_types(2) if print_type(t) != CHAIN0]

# the nine minimal rows of the record reference table
RECORD_ROWS = {
    "1": record2([CHAIN0], NONCHAIN),
    "1*": record2(NONCHAIN, [CHAIN0]),
    "2": record2([CHAIN0], [CHAIN1]),
    "2*": record2([CHAIN1], [CHAIN0]),
    "3": record2([CHAIN0], [CHAIN1, "[l0 l1]"]),
    "3*": record2([CHAIN1, "[l0 l1]"], [CHAIN0]),
    "4": record2([CHAIN0, "[l0 l1]"], [CHAIN1]),
    "5": record2([CHAIN0], [CHAIN1, "[l0 l1]", "[u1 l0 l1]"]),
    "5*": record2([CHAIN1, "[l0 l1]", "[u1 l0 l1]"], [CHAIN0]),
}


class TestGapSpec:
    def test_side_lookup(self):
        assert GAP_4S.side_of(CombKind.parse("0>1")) == 0
        assert GAP_4S.side_of(CombKind.parse("1>1")) == 1
        assert GAP_4S.side_of(CombKind.parse("1>0")) is None

    def test_sides_must_not_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            strong2(["0>0", "1>0"], ["1>1", "1>0"])

    def test_sides_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            GapSpec(FIRST_MOVE, 2, 2, (frozenset({CombKind(0, 0)}), frozenset()))

    def test_layer_symbol_mismatch(self):
        with pytest.raises(TypeError):
            GapSpec(RECORD, 1, 2, (frozenset({CombKind(0, 0)}),))
        with pytest.raises(TypeError):
            GapSpec(FIRST_MOVE, 1, 2, (frozenset({parse_type("[l0]", 2)}),))

    def test_alphabet_checked(self):
        with pytest.raises(ValueError):
            GapSpec(RECORD, 1, 2, (frozenset({parse_type("[l2]", 3)}),))

    def test_candidate_flags(self):
        # a strong candidate pins the i-chain kind to side i
        assert GAP_1 in enumerate_candidates_strong(2)
        assert strong2(["0>1"], ["1>1", "0>0"]) not in enumerate_candidates_strong(2)

    def test_json_documented_example(self):
        doc = {
            "layer": "first_move",
            "n": 2,
            "m": 2,
            "sides": [["0>0", "0>1"], ["1>1"]],
        }
        assert GapSpec.from_json(doc) == GAP_4S
        assert GAP_4S.to_json() == doc
        assert json.loads(json.dumps(GAP_4S.to_json())) == doc

    def test_json_roundtrip_record(self):
        g = RECORD_ROWS["5"]
        assert GapSpec.from_json(g.to_json()) == g
        # side lists come out sorted by catalogue position
        assert g.to_json()["sides"][1] == ["[l1]", "[l0 l1]", "[u1 l0 l1]"]

    def test_critical_gaps(self):
        s = critical_strong_gap(3)
        assert s.sides == tuple(frozenset({CombKind(i, i)}) for i in range(3))
        r = critical_record_gap(3)
        assert [print_type(next(iter(side))) for side in r.sides] == ["[l0]", "[l1]", "[l2]"]


class TestEnumerations:
    def test_strong_counts(self):
        assert len(enumerate_candidates_strong(2)) == 9
        assert len(enumerate_candidates_strong(3)) == 4096

    def test_strong_candidates_distinct_and_pinned(self):
        cands = enumerate_candidates_strong(2)
        assert len(set(cands)) == 9
        assert all(g.side_of(CombKind(i, i)) == i for g in cands for i in range(2))

    def test_strong_scale_guard(self):
        with pytest.raises(ScaleLimit):
            enumerate_candidates_strong(4)

    def test_record_count(self):
        cands = enumerate_candidates_record(2)
        assert len(cands) == 1458
        assert len(set(cands)) == 1458

    def test_record_orientations(self):
        cands = enumerate_candidates_record(2)
        chain0 = parse_type(CHAIN0, 2)
        pinned = sum(1 for g in cands if chain0 in g.sides[0])
        assert pinned == 729  # the other 729 pin the chains the other way round
        assert all(len(g.sides) == 2 for g in cands)

    def test_record_scale_guard(self):
        with pytest.raises(ScaleLimit):
            enumerate_candidates_record(3)


class TestOrderFirstMove:
    def test_mirrored_teeth_sit_above(self):
        res = order_le(GAP_4S, STILDE)
        assert res.verdict == LE_WITNESSED
        assert revalidate_order(GAP_4S, STILDE, res)

    def test_worked_family_witnesses_mirrored_teeth(self):
        # the reference construction: e(inf)=0, e(0)=11, e(1)=01 maps the
        # diagonal comb kinds as 0>0 -> 1>0, 0>1 -> 1>0, 1>0 -> 0>1, 1>1 -> 1>1
        fam = EFamily.of(2, "0", ["11", "01"])
        eps = efamily_induced_map(fam)
        expected = {
            (0, 0): (1, 0),
            (0, 1): (1, 0),
            (1, 0): (0, 1),
            (1, 1): (1, 1),
        }
        assert eps == tuple((CombKind(*k), CombKind(*v)) for k, v in sorted(expected.items()))
        for kind, image in eps:
            assert GAP_4S.side_of(kind) == STILDE.side_of(image)

    def test_separations_are_exact(self):
        assert order_le(GAP_3, GAP_4).verdict == NOT_LE_REFUTED_EXACT
        assert order_le(GAP_1, GAP_2).verdict == NOT_LE_REFUTED_EXACT
        assert order_le(GAP_2, GAP_1).verdict == NOT_LE_REFUTED_EXACT

    def test_reflexive_on_all_candidates(self):
        for g in enumerate_candidates_strong(2):
            res = order_le(g, g)
            assert res.verdict == LE_WITNESSED
            assert revalidate_order(g, g, res)

    def test_witness_is_a_candidate_over_comb_kinds(self):
        res = order_le(GAP_4S, STILDE)
        w = res.witness
        assert isinstance(w, Candidate) and res.budget is None
        assert (w.kind, w.domain_alphabet) == ("efamily", 2)
        assert w.payload == {"kind": "efamily", "alphabet_out": 2, "e_inf": "0", "e": ["100", "010"]}
        assert w.label == "e_inf=0;e=100,010"
        assert w.action == efamily_induced_map(EFamily.of(2, "0", ["100", "010"]))
        assert w.as_dict()["action"] == {"0>0": "1>0", "0>1": "1>0", "1>0": "0>1", "1>1": "1>1"}

    @pytest.mark.parametrize(
        "tamper",
        [
            "branch-word",
            "action-entry",
            "no-branch-words",
            "record-pair",
            "other-alphabet",
            "record-witness",
        ],
    )
    def test_tampered_witness_fails(self, tamper):
        """Each witness revalidates as found and fails, without raising,
        once tampered with or checked against another pair."""
        g, h = GAP_4S, STILDE
        res = order_le(g, h)
        assert revalidate_order(g, h, res)
        w = res.witness
        if tamper == "branch-word":
            # swapping the branch words swaps the images of 0>1 and 1>0
            payload = {**w.payload, "e": w.payload["e"][::-1]}
            fam = EFamily.of(2, payload["e_inf"], payload["e"])
            assert efamily_induced_map(fam) != w.action
            w = replace(w, payload=payload)
        elif tamper == "action-entry":
            # 0>1 -> 0>0 still satisfies the membership rule, so only the
            # recomputed map can reject it
            action = tuple(
                (c, CombKind(0, 0) if c == CombKind(0, 1) else image) for c, image in w.action
            )
            assert _membership_iff(g, h, dict(action).__getitem__)
            w = replace(w, action=action)
        elif tamper == "no-branch-words":
            w = replace(w, payload={k: v for k, v in w.payload.items() if k != "e"})
        elif tamper == "record-pair":
            g = h = record2([CHAIN0], [CHAIN1])
        elif tamper == "other-alphabet":
            # a ternary family whose images use letters 0 and 1 only is still
            # a map into the ternary tree, not a witness over the dyadic one
            ternary = GapSpec(FIRST_MOVE, 2, 3, GAP_2.sides)
            res = order_le(GAP_2, ternary)
            assert revalidate_order(GAP_2, ternary, res)
            assert {image for _, image in res.witness.action} <= set(GAP_2.symbol_universe())
            g = h = GAP_2
            w = res.witness
        else:
            record = record2([CHAIN0], [CHAIN1])
            res = order_le(record, record)
            assert revalidate_order(record, record, res)
            g = h = GAP_2
            w = res.witness
        assert not revalidate_order(g, h, replace(res, witness=w))

    def test_layer_and_arity_guards(self):
        with pytest.raises(ValueError, match="layer"):
            order_le(GAP_2, critical_record_gap(2))
        with pytest.raises(ValueError, match="arity"):
            order_le(GAP_2, critical_strong_gap(3))

    def test_map_pool_closed_under_composition(self):
        maps = [eps for eps, _fam in reference_realizable_with_families(2, 2)]
        assert len(maps) == 20  # frozen count, also pinned in the comb tests
        for outer, inner in itertools.product(maps, repeat=2):
            assert compose(outer, inner) in maps
        assert identity_map(2) in maps


def le_pairs(n):
    """The order pairs ``(i, j)``, candidate i below candidate j, decoded
    from the flat keys ``i * total + j`` of :func:`_le_matrix_strong`."""
    total = len(enumerate_candidates_strong(n))
    return {divmod(r, total) for r in _le_matrix_strong(n)}


def true_cells(le):
    """The ``(i, j)`` pairs of a bool matrix's true cells."""
    return set(map(tuple, np.argwhere(le).tolist()))


def reference_minimal_classes(le):
    """Minimal indices and their mutual-order classes, by the pairwise
    Python loops over one row and one column of a dense matrix ``le`` at a
    time."""
    k_count = len(le)
    minimal = []
    for i in range(k_count):
        below, above = le[:, i].tolist(), le[i].tolist()
        if all(not below[j] or above[j] for j in range(k_count)):
            minimal.append(i)
    classes = []
    for i in minimal:
        for cls in classes:
            j = cls[0]
            if le[i][j] and le[j][i]:
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(minimal), tuple(tuple(cls) for cls in classes)


def minimal_indices(report):
    """The minimal candidates: the members of the classes, in index order."""
    return tuple(sorted(i for cls in report.classes for i in cls))


def reference_sides_only_orbits(report, n):
    """The orbits of the classes under permutations of the sides alone, by
    brute force: a permutation pi moves side i to side pi[i] and leaves the
    kinds as they are, and an image counts when it is a class."""
    candidates = enumerate_candidates_strong(n)
    index_of = {c: k for k, c in enumerate(candidates)}
    class_at = {frozenset(cls): a for a, cls in enumerate(report.classes)}
    orbits = set()
    for cls in report.classes:
        orbit = set()
        for pi in itertools.permutations(range(n)):
            image = set()
            for idx in cls:
                sides = [None] * n
                for i, side in enumerate(candidates[idx].sides):
                    sides[pi[i]] = side
                image.add(index_of.get(GapSpec(FIRST_MOVE, n, n, tuple(sides))))
            if frozenset(image) in class_at:
                orbit.add(class_at[frozenset(image)])
        orbits.add(frozenset(orbit))
    return len(orbits)


class TestMinimalClasses:
    def test_dyadic_table_recovered(self):
        report = minimal_classes(2)
        assert report.as_dict()["mode"] == "exact"
        assert len(minimal_indices(report)) == 6
        cands = enumerate_candidates_strong(2)
        classes = {frozenset(cands[i] for i in cls) for cls in report.classes}
        assert classes == {frozenset({g}) for g in TABLE}

    def test_dyadic_quotients(self):
        report = minimal_classes(2)
        # letter-and-side permutations pair 3 with 3* and 4 with 4*
        assert report.orbits == 4
        assert report.as_dict()["quotients"] == {"alphabet": 4}

    def test_excluded_candidates_have_minimal_below(self):
        cands = enumerate_candidates_strong(2)
        minimal = minimal_indices(minimal_classes(2))
        le = le_pairs(2)
        below = {
            STILDE: GAP_4S,
            EXC_DIAG_TOOTH: GAP_4,
            EXC_BOTH: GAP_1,
        }
        for g, expected in below.items():
            idx = cands.index(g)
            assert idx not in minimal
            minimal_below = {cands[j] for j in minimal if (j, idx) in le}
            assert expected in minimal_below

    def test_order_matrix_transitive(self):
        le = le_pairs(2)
        k = len(enumerate_candidates_strong(2))
        for a in range(k):
            for b in range(k):
                if (a, b) not in le:
                    continue
                for c in range(k):
                    if (b, c) in le:
                        assert (a, c) in le

    def test_matrix_agrees_with_pairwise_order(self):
        cands = enumerate_candidates_strong(2)
        le = le_pairs(2)
        for i, g in enumerate(cands):
            for j, h in enumerate(cands):
                assert ((i, j) in le) == (order_le(g, h).verdict == LE_WITNESSED)

    def test_permutation_equivariance(self):
        cands = enumerate_candidates_strong(2)
        le = le_pairs(2)
        index = {g: i for i, g in enumerate(cands)}
        swap = {}
        for g in cands:
            sides = [
                frozenset(CombKind(1 - c.spine, 1 - c.teeth) for c in side)
                for side in g.sides
            ]
            swap[g] = GapSpec(FIRST_MOVE, 2, 2, (sides[1], sides[0]))
        for g in cands:
            for h in cands:
                assert ((index[g], index[h]) in le) == ((index[swap[g]], index[swap[h]]) in le)

    def test_triadic_counts(self):
        report = minimal_classes(3)
        assert report.n == 3 and report.as_dict()["candidates"] == 4096
        assert len(report.classes) == 31
        assert report.orbits == 9

    def test_reports_compare_by_value(self):
        assert minimal_classes(2) == minimal_classes(2)
        assert minimal_classes(1) != minimal_classes(2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_minimal_and_classes_match_pairwise_loops(self, n):
        # the flat-key classes against the pairwise loops on the numpy
        # oracle's matrix, which never forms a flat key
        report = minimal_classes(n)
        le = reference_le_matrix_strong(enumerate_candidates_strong(n), n)[0]
        assert (minimal_indices(report), report.classes) == reference_minimal_classes(le)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sides_only_quotient_matches_brute_force(self, n):
        report = minimal_classes(n)
        assert reference_sides_only_orbits(report, n) == len(report.classes)

    @pytest.mark.parametrize("n", [2, 3])
    def test_only_the_form_as_dict_gives_passes_as_classes(self, n):
        good = minimal_classes(n).as_dict()
        assert is_classes_dict(good, n)
        assert not is_classes_dict(good, 5 - n)
        member = good["classes"][0][0]
        bad = {
            "candidates": {**good, "candidates": good["candidates"] + 1},
            "float candidates": {**good, "candidates": float(good["candidates"])},
            "mode": {**good, "mode": "bounded"},
            "classes not a list": {**good, "classes": 5},
            "empty class": {**good, "classes": good["classes"] + [[]]},
            "member not sides": {**good, "classes": [[1]]},
            "member unsorted": {**good, "classes": [[[side[::-1] for side in member]]]},
            "chain off its side": {**good, "classes": [[member[::-1]]]},
            "extra quotient": {**good, "quotients": {**good["quotients"], "sides_only": 1}},
            "quotient text": {**good, "quotients": {"alphabet": "x"}},
            "quotient bool": {**good, "quotients": {"alphabet": True}},
            "no quotients": {**good, "quotients": {}},
        }
        assert [name for name, value in bad.items() if is_classes_dict(value, n)] == []


def reference_enumerate_candidates_strong(n):
    """The candidate enumeration the index decoding replaced: every digit
    tuple of ``itertools.product`` in order, each off-diagonal kind on the
    side its digit names, or on none for digit n."""
    off = [kind for kind in combs_module.comb_kinds(n) if kind.spine != kind.teeth]
    out = []
    for digits in itertools.product(range(n + 1), repeat=len(off)):
        sides = [{CombKind(i, i)} for i in range(n)]
        for kind, d in zip(off, digits):
            if d < n:
                sides[d].add(kind)
        out.append(GapSpec(FIRST_MOVE, n, n, tuple(frozenset(s) for s in sides)))
    return out


def reference_permuted_candidate(g, pi):
    """The candidate relabelling the digit arithmetic replaced: side pi(i)
    of the image holds the kinds pi(u)>pi(v) for the kinds u>v on side i."""
    sides = [None] * g.n
    for i, side in enumerate(g.sides):
        sides[pi[i]] = frozenset(CombKind(pi[c.spine], pi[c.teeth]) for c in side)
    return GapSpec(FIRST_MOVE, g.n, g.m, tuple(sides))


class TestStrongIndices:
    """The strong layer decodes a candidate from its index only where a
    candidate is reported; the decoding and the permutation arithmetic
    against the spec-level loops they replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decoding_matches_product_enumeration(self, n):
        reference = reference_enumerate_candidates_strong(n)
        assert [strong_candidate(n, k) for k in range(len(reference))] == reference
        assert list(enumerate_candidates_strong(n)) == reference

    @pytest.mark.parametrize("index", [-1, 9])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="index"):
            strong_candidate(2, index)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_permuted_index_matches_permuted_candidate(self, n):
        cands = enumerate_candidates_strong(n)
        index_of = {g: k for k, g in enumerate(cands)}
        for pi in itertools.permutations(range(n)):
            for k, g in enumerate(cands):
                assert _permuted_index(n, k, pi) == index_of[reference_permuted_candidate(g, pi)]

    def test_triadic_classes_decode_only_their_members(self, monkeypatch):
        decoded = []

        def counted(n, index):
            decoded.append(index)
            return strong_candidate(n, index)

        def refused(n):
            raise AssertionError("the candidate tuple was built")

        monkeypatch.setattr(gaps_module, "strong_candidate", counted)
        monkeypatch.setattr(gaps_module, "enumerate_candidates_strong", refused)
        report = minimal_classes(3)
        assert decoded == []
        payload = report.as_dict()
        members = [i for cls in report.classes for i in cls]
        assert len(members) == 43 and decoded == members
        assert payload["candidates"] == 4096 and len(payload["classes"]) == 31
        decoded.clear()
        assert len(report.class_representatives) == 31
        assert decoded == [cls[0] for cls in report.classes]


@lru_cache(maxsize=None)
def reference_realizable_with_families(m_in, m_out):
    """The map pool the shape rule replaced: every family shape concretized
    into words and induced by the family rule, each distinct map kept with
    its first family, sorted by map."""
    by_map = {}
    for fam in enumerate_efamilies(m_in, m_out):
        by_map.setdefault(efamily_induced_map(fam), fam)
    return tuple((eps, by_map[eps]) for eps in sorted(by_map))


def flat_row(eps, m):
    """A map as a flat image row over output alphabet m: entry c is
    ``u * m + v`` for the kind u>v that the input kind in slot c goes to."""
    return tuple(image.spine * m + image.teeth for _, image in eps)


@lru_cache(maxsize=None)
def reference_le_matrix_strong(candidates, n):
    """The per-map pullback loop the matrix kernel replaced: every realizable
    map over all candidate rows, cells filled by ``side_of``.  Also returns,
    per map, whether it adds at least one edge."""
    combs = sorted(itertools.product(range(n), repeat=2))
    slot = {c: k for k, c in enumerate(combs)}
    off_slots = [k for k, (i, j) in enumerate(combs) if i != j]
    diag_slots = [slot[(i, i)] for i in range(n)]
    diag_vals = np.arange(n)

    k_count = len(candidates)
    full = np.empty((k_count, len(combs)), dtype=np.int64)
    for idx, g in enumerate(candidates):
        for k, (i, j) in enumerate(combs):
            side = g.side_of(CombKind(i, j))
            full[idx, k] = n if side is None else side
    powers = (n + 1) ** np.arange(len(off_slots) - 1, -1, -1)
    assert np.array_equal(full[:, off_slots] @ powers, np.arange(k_count))

    le = np.zeros((k_count, k_count), dtype=bool)
    hs = np.arange(k_count)
    adds_edge = []
    for eps, _fam in reference_realizable_with_families(n, n):
        perm = [slot[(image.spine, image.teeth)] for _, image in eps]
        pulled = full[:, perm]
        valid = (pulled[:, diag_slots] == diag_vals).all(axis=1)
        g_keys = pulled[:, off_slots][valid] @ powers
        le[g_keys, hs[valid]] = True
        adds_edge.append(bool(valid.any()))
    return le, adds_edge


def reference_order_le(g, h):
    """The first-move scan the image-table comparison replaced: the
    membership rule map by map, in pool order, until one holds."""
    pairs = reference_realizable_with_families(g.m, h.m)
    for eps, fam in pairs:
        if _membership_iff(g, h, dict(eps).__getitem__):
            payload = efamily_payload(fam)
            witness = Candidate("efamily", efamily_label(fam), g.m, eps, payload)
            return Answer(LE_WITNESSED, witness, len(pairs), None)
    return Answer(NOT_LE_REFUTED_EXACT, None, len(pairs), None)


def random_first_move_gap(rng, n, m):
    """Each kind of alphabet m on one of n sides or on none, every side used."""
    kinds = [CombKind(i, j) for i in range(m) for j in range(m)]
    while True:
        sides = [set() for _ in range(n)]
        for kind in kinds:
            d = rng.randrange(n + 1)
            if d < n:
                sides[d].add(kind)
        if all(sides):
            return GapSpec(FIRST_MOVE, n, m, tuple(frozenset(s) for s in sides))


@pytest.fixture(scope="module")
def triadic():
    cands = enumerate_candidates_strong(3)
    return cands, le_pairs(3)


class TestStrongKernels:
    """The pure-Python kernels of the strong layer (the order pairs and the
    first-move scan) against the vectorized numpy oracle and the loops they
    replaced."""

    def test_dyadic_matrix_matches_reference(self):
        cands = enumerate_candidates_strong(2)
        expected = true_cells(reference_le_matrix_strong(cands, 2)[0])
        assert le_pairs(2) == expected and len(expected) == 12

    def test_triadic_matrix_and_visited_maps_match_reference(self, triadic):
        cands, le = triadic
        expected, adds_edge = reference_le_matrix_strong(cands, 3)
        assert le == true_cells(expected) and len(le) == 41_283
        # the pullback visits exactly the maps that add an edge
        reference = reference_realizable_with_families(3, 3)
        assert len(adds_edge) == len(reference) == len(_realizable_maps(3, 3)[0]) == 4290
        edge_rows = [flat_row(eps, 3) for (eps, _fam), adds in zip(reference, adds_edge) if adds]
        assert list(_pullback_maps(3)) == edge_rows
        assert len(edge_rows) == 919

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_candidate_digits_read_their_index(self, n):
        # the pairs are keyed by index, so candidate k must pin the chains
        # and read k in base n + 1 off its off-diagonal side digits
        diag = [i * (n + 1) for i in range(n)]
        off = [s for s in range(n * n) if s not in diag]
        for k, g in enumerate(enumerate_candidates_strong(n)):
            row = _side_row(g)
            assert [row[s] for s in diag] == list(range(n))
            assert int("".join(str(row[s]) for s in off) or "0", n + 1) == k

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_realizable_maps_keep_off_diagonal_kinds_off_the_diagonal(self, m):
        rows = _realizable_maps(m, m)[0]
        for row in rows:
            for s in range(m * m):
                if s % (m + 1):  # an off-diagonal kind i>j, slot i * m + j
                    assert row[s] % (m + 1), (row, s)
        assert len(rows) == {1: 1, 2: 20, 3: 4290}[m]

    def test_dyadic_order_matches_reference_on_all_pairs(self):
        cands = enumerate_candidates_strong(2)
        for g, h in itertools.product(cands, repeat=2):
            assert order_le(g, h).as_dict() == reference_order_le(g, h).as_dict()

    @pytest.mark.parametrize("m_in,m_out", [(1, 2), (1, 3), (2, 3), (3, 2), (2, 4), (4, 2)])
    def test_mixed_alphabet_order_matches_reference(self, m_in, m_out):
        rng = random.Random(m_in * 10 + m_out)
        maps = [eps for eps, _fam in reference_realizable_with_families(m_in, m_out)]
        verdicts = set()
        for k in range(16):
            n = 1 if k % 2 or m_in == 1 else 2
            h = random_first_move_gap(rng, n, m_out)
            g = random_first_move_gap(rng, n, m_in)
            # every other g is the pullback of h through a random map, when
            # that pullback uses every side
            eps = rng.choice(maps)
            sides = [set() for _ in range(n)]
            for c, image in eps:
                side = h.side_of(image)
                if side is not None:
                    sides[side].add(c)
            if k % 4 < 2 and all(sides):
                g = GapSpec(FIRST_MOVE, n, m_in, tuple(frozenset(s) for s in sides))
            res = order_le(g, h)
            assert res.as_dict() == reference_order_le(g, h).as_dict()
            verdicts.add(res.verdict)
        assert LE_WITNESSED in verdicts

    def test_triadic_order_matches_reference_on_seeded_sample(self, triadic):
        cands, le = triadic
        rng = random.Random(3)
        edges = sorted(le)
        pairs = [edges[k] for k in rng.sample(range(len(edges)), 6)]
        pairs += [tuple(rng.sample(range(len(cands)), 2)) for _ in range(4)]
        for i, j in pairs:
            g, h = cands[i], cands[j]
            assert order_le(g, h).as_dict() == reference_order_le(g, h).as_dict()

    def test_triadic_order_agrees_with_matrix(self, triadic):
        cands, le = triadic
        rng = random.Random(5)
        edges = sorted(le)
        pairs = [edges[k] for k in rng.sample(range(len(edges)), 150)]
        pairs += [tuple(rng.sample(range(len(cands)), 2)) for _ in range(150)]
        for i, j in pairs:
            assert (order_le(cands[i], cands[j]).verdict == LE_WITNESSED) == ((i, j) in le)

    def test_order_from_alphabet_four_is_guarded(self):
        def chain_gap(m):
            return GapSpec(FIRST_MOVE, 1, m, (frozenset({CombKind(0, 0)}),))

        for m_out in (3, 4):
            with pytest.raises(ScaleLimit, match="alphabet 4"):
                order_le(chain_gap(4), chain_gap(m_out))

    def test_strong_enumeration_is_cached(self):
        assert enumerate_candidates_strong(3) is enumerate_candidates_strong(3)


POOL_SCALES = list(itertools.product((1, 2, 3), repeat=2)) + [(4, 2), (2, 4)]


class TestRealizablePool:
    """The first-move map pool read off family shapes, against the family
    rule on concrete words."""

    def test_shape_rule_matches_family_rule_on_every_shape(self):
        shapes = mismatches = 0
        for m_in, m_out in POOL_SCALES:
            for shape in efamily_shapes(m_in, m_out):
                shapes += 1
                family_row = flat_row(efamily_induced_map(concretize(shape, m_out)), m_out)
                mismatches += shape_induced_row(shape, m_in, m_out) != family_row
        assert (shapes, mismatches) == (10_324, 0)

    @pytest.mark.parametrize("m_in,m_out", POOL_SCALES)
    def test_pool_matches_reference_pair_by_pair(self, m_in, m_out):
        rows, shapes = _realizable_maps(m_in, m_out)
        reference = reference_realizable_with_families(m_in, m_out)
        assert len(rows) == len(shapes) == len(reference)
        for row, shape, (eps, fam) in zip(rows, shapes, reference):
            assert row == flat_row(eps, m_out)
            assert concretize(shape, m_out) == fam

    def test_only_the_witness_is_concretized(self, monkeypatch):
        calls = {"efamily_induced_map": 0, "concretize": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            wrapper = counted(name, getattr(combs_module, name))
            monkeypatch.setattr(combs_module, name, wrapper)
            monkeypatch.setattr(gaps_module, name, wrapper)
        _realizable_maps.cache_clear()
        cands = enumerate_candidates_strong(3)
        _realizable_maps(3, 3)
        assert order_le(cands[0], cands[1]).verdict == NOT_LE_REFUTED_EXACT
        assert calls == {"efamily_induced_map": 0, "concretize": 0}
        res = order_le(cands[5], cands[5])
        assert res.verdict == LE_WITNESSED
        assert calls == {"efamily_induced_map": 0, "concretize": 1}
        assert revalidate_order(cands[5], cands[5], res)
        assert calls == {"efamily_induced_map": 1, "concretize": 1}


#: the scales whose pools the fast paths are compared on, shape by shape
ROW_SCALES = list(itertools.product((1, 2, 3), repeat=2)) + [(3, 4), (4, 1), (4, 2)]


def reference_first_hit(table, g_row, h_row):
    """The linear scan the sorted-prefix descent replaced, over every row of
    the pool as an int array ``table``, in pool order (vectorized): the
    index of the first row with ``h_row[row[c]] == g_row[c]`` in every
    slot c, or ``None``."""
    match = (np.asarray(h_row)[table] == np.asarray(g_row)).all(axis=1)
    return int(match.argmax()) if match.any() else None


def seeded_side_rows(rng, count, m_in, m_out):
    """``count`` pairs of side rows (:func:`_side_row`) of first-move gaps
    with 1 to 3 sides, from alphabet m_in into m_out; every other g is the
    pullback of h through a random map of the pool, so about half the pairs
    are witnessed."""
    rows = _realizable_maps(m_in, m_out)[0]
    out = []
    for k in range(count):
        n = rng.randrange(1, 4)
        h_row = _side_row(random_first_move_gap(rng, n, m_out))
        if k % 2:
            g_row = tuple(h_row[v] for v in rng.choice(rows))
        else:
            g_row = _side_row(random_first_move_gap(rng, n, m_in))
        out.append((g_row, h_row))
    return out


class TestFastPaths:
    """The strong layer's fast paths against the computations they
    replaced: pool rows read off placements against :func:`shape_induced_row`
    on every shape, the sorted-prefix descent against the linear scan, and
    the flat-key classes against the numpy oracle."""

    @pytest.mark.parametrize("m_in,m_out", ROW_SCALES)
    def test_rows_read_off_placements_match_per_shape_rows(self, m_in, m_out):
        # each placement's diagonal with its tree's off-diagonal slots is the
        # shape's own row, and the pool keeps each distinct row's first shape
        chains = [i * (m_in + 1) for i in range(m_in)]
        first = {}
        tree_rows = {}  # by tree identity: placements share their tree object
        for tree, shape, diagonal in efamily_placements(m_in, m_out):
            row = shape_induced_row(shape, m_in, m_out)
            if id(tree) not in tree_rows:
                tree_rows[id(tree)] = tree, shape_induced_row(tree, m_in, m_out)
            tree_row = tree_rows[id(tree)][1]
            assert sorted(diagonal) == list(range(m_in))
            assert [row[s] for s in chains] == [diagonal[i] for i in range(m_in)]
            assert all(row[s] == tree_row[s] for s in range(m_in * m_in) if s not in chains)
            first.setdefault(row, shape)
        rows = tuple(sorted(first))
        assert _realizable_maps(m_in, m_out) == (rows, tuple(first[row] for row in rows))

    def assert_descent_matches_scan(self, m_in, m_out, pairs):
        rows = _realizable_maps(m_in, m_out)[0]
        table = np.asarray(rows)
        hits = set()
        for g_row, h_row in pairs:
            hit = _first_witness_row(rows, g_row, h_row)
            assert hit == reference_first_hit(table, g_row, h_row), (g_row, h_row)
            hits.add(hit is None)
        return hits

    def test_descent_matches_scan_on_every_dyadic_strong_pair(self):
        rows = [_side_row(g) for g in enumerate_candidates_strong(2)]
        pairs = list(itertools.product(rows, repeat=2))
        assert len(pairs) == 81
        assert self.assert_descent_matches_scan(2, 2, pairs) == {True, False}

    def test_descent_matches_scan_among_triadic_class_members(self):
        report = minimal_classes(3)
        rows = [_side_row(strong_candidate(3, i)) for cls in report.classes for i in cls]
        pairs = list(itertools.product(rows, repeat=2))
        assert len(pairs) == 43 * 43
        assert self.assert_descent_matches_scan(3, 3, pairs) == {True, False}

    @pytest.mark.parametrize(
        "m_in,m_out,count", [(3, 3, 2000), (2, 3, 200), (3, 2, 200), (3, 4, 200)]
    )
    def test_descent_matches_scan_on_seeded_pairs(self, m_in, m_out, count):
        rng = random.Random(m_in * 10 + m_out)
        pairs = seeded_side_rows(rng, count, m_in, m_out)
        assert self.assert_descent_matches_scan(m_in, m_out, pairs) == {True, False}

    def test_descent_on_an_empty_pool_finds_nothing(self):
        assert _realizable_maps(2, 1)[0] == ()
        assert _first_witness_row((), (0, 1, 1, 0), (0,)) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flat_keys_match_the_oracle(self, n):
        cands = enumerate_candidates_strong(n)
        total = len(cands)
        cells = true_cells(reference_le_matrix_strong(cands, n)[0])
        assert _le_matrix_strong(n) == {i * total + j for i, j in cells}


class TestOrderRecord:
    def test_rows_reflexive(self):
        for name, g in RECORD_ROWS.items():
            res = order_le(g, g)
            assert res.verdict == LE_WITNESSED, name
            assert res.witness.kind == "subalphabet"
            assert revalidate_order(g, g, res)

    def test_rows_pairwise_unrelated_within_budget(self):
        for (a, ga), (b, gb) in itertools.permutations(RECORD_ROWS.items(), 2):
            res = order_le(ga, gb)
            assert res.verdict == UNKNOWN_BOUNDED, (a, b, res.witness)

    def test_tampered_witness_fails(self):
        g = record2([CHAIN0], [CHAIN1])
        res = order_le(g, g)
        two_record, moved = parse_type("[l0 l1]", 2), parse_type("[u0 l1]", 2)
        action = tuple(
            (tau, moved if tau == two_record else sigma) for tau, sigma in res.witness.action
        )
        # the tampered map still satisfies the membership rule, but it is not
        # the action its payload rebuilds to
        tampered = replace(res, witness=replace(res.witness, action=action))
        assert revalidate_order(g, g, res)
        assert not revalidate_order(g, g, tampered)

    def test_record_never_refutes(self):
        for ga, gb in itertools.permutations(RECORD_ROWS.values(), 2):
            assert order_le(ga, gb).verdict != NOT_LE_REFUTED_EXACT


class TestTypeActionGenerators:
    def test_generated_pool_frozen(self):
        acts = generate_type_actions(2, 2)
        kinds = {
            kind: sum(1 for a in acts if a.kind == kind)
            for kind in ("subalphabet", "substitution", "efamily", "domination")
        }
        # frozen counts for the default budget; the inclusion is the identity,
        # the one substitution carries the interleaving map, dominations
        # pair each of the four teeth-type targets with what it dominates
        assert kinds == {"subalphabet": 1, "substitution": 1, "efamily": 8, "domination": 25}

    def test_actions_are_total_and_distinct(self):
        acts = generate_type_actions(2, 2)
        universe = set(enumerate_types(2))
        seen = set()
        for act in acts:
            assert set(act.lookup()) == universe
            assert act.action not in seen
            seen.add(act.action)

    def test_letter_swap_rejected(self):
        # swapping the alphabet reverses the well order on same-length
        # words, so its would-be action on types is not well defined; no
        # generated action may carry its signature
        chain0, chain1 = parse_type(CHAIN0, 2), parse_type(CHAIN1, 2)
        for act in generate_type_actions(2, 2):
            lookup = act.lookup()
            assert not (lookup[chain0] == chain1 and lookup[chain1] == chain0), act.label

    def test_actions_monotone_in_maximum_letter(self):
        for act in generate_type_actions(2, 2):
            lookup = act.lookup()
            for tau, sigma in itertools.product(lookup, repeat=2):
                if max_of(tau) <= max_of(sigma):
                    assert max_of(lookup[tau]) <= max_of(lookup[sigma]), act.label


class TestDominationPrune:
    def test_counts(self):
        candidates = enumerate_candidates_record(2)
        pruned = domination_prune(candidates)
        assert len(candidates) == 1458
        assert len(pruned) == len(set(pruned)) == 162

    def test_removed_types_absent(self):
        removed = {parse_type(t, 2) for t in PRUNED_TYPE_TEXTS}
        assert {print_type(t) for t in removed} == {"[u0 u1 l1]", "[u1 l0]"}
        for g in domination_prune(enumerate_candidates_record(2)):
            assert not frozenset().union(*g.sides) & removed

    def test_widest_row_restriction_retained(self):
        pruned = domination_prune(enumerate_candidates_record(2))
        survivors = [t for t in NONCHAIN if t not in ("[u0 u1 l1]", "[u1 l0]")]
        assert record2([CHAIN0], survivors) in pruned

    def test_disputed_type_retained_and_flagged(self):
        pruned = domination_prune(enumerate_candidates_record(2))
        # the audit reports the tension as a known discrepancy
        ctx = AuditContext(seed=0, cache=None)
        _anchor, _expected, computed, status = check_discrepancy_dominating_teeth(ctx)
        assert computed["literal_extra_dominator"] == "[l0 u1 l1]"
        assert status == DISCREPANCY_KNOWN
        disputed = parse_type("[l0 u1 l1]", 2)
        assert any(disputed in side for g in pruned for side in g.sides)

    def test_idempotent(self):
        once = domination_prune(enumerate_candidates_record(2))
        assert domination_prune(once) == once

    def test_empty_input(self):
        assert domination_prune(()) == ()

    def test_rejects_other_layers(self):
        with pytest.raises(ValueError):
            domination_prune((GAP_2,))


class TestMaxPartition:
    def test_degenerate_single_letter(self):
        g = max_partition_gap(1)
        assert [print_type(t) for t in g.sides[0]] == ["[l0]"]

    def test_dyadic_sizes_match_widest_row(self):
        g = max_partition_gap(2)
        assert [len(side) for side in g.sides] == [1, 7]
        assert g == RECORD_ROWS["1"]

    def test_triadic_partitions_catalogue(self):
        g = max_partition_gap(3)
        assert [len(side) for side in g.sides] == [1, 7, 53]
        assert sum(len(side) for side in g.sides) == len(enumerate_types(3))
        for i, side in enumerate(g.sides):
            assert all(max_of(t) == i for t in side)


@st.composite
def strong_candidates(draw):
    cands = enumerate_candidates_strong(2)
    return cands[draw(st.integers(min_value=0, max_value=len(cands) - 1))]


class TestProperties:
    @given(strong_candidates(), strong_candidates())
    @settings(max_examples=60, deadline=None)
    def test_strong_verdicts_exact_and_revalidating(self, g, h):
        res = order_le(g, h)
        assert res.verdict in (LE_WITNESSED, NOT_LE_REFUTED_EXACT)
        if res.verdict == LE_WITNESSED:
            assert revalidate_order(g, h, res)
        else:
            assert res.witness is None

    @given(st.integers(min_value=0, max_value=1457))
    @settings(max_examples=40, deadline=None)
    def test_record_candidate_json_roundtrip(self, idx):
        g = enumerate_candidates_record(2)[idx]
        assert GapSpec.from_json(json.loads(json.dumps(g.to_json()))) == g

    @given(st.integers(min_value=0, max_value=4095))
    @settings(max_examples=40, deadline=None)
    def test_triadic_candidate_json_roundtrip(self, idx):
        g = enumerate_candidates_strong(3)[idx]
        assert GapSpec.from_json(json.loads(json.dumps(g.to_json()))) == g
