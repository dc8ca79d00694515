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
from adicgaps.combs import (
    CombKind,
    EFamily,
    InducedCombMap,
    concretize,
    efamily_induced_map,
    efamily_shapes,
    enumerate_efamilies,
    shape_induced_row,
)
from adicgaps.gaps import (
    FIRST_MOVE,
    LE_WITNESSED,
    NOT_LE_REFUTED_EXACT,
    RECORD,
    UNKNOWN_BOUNDED,
    GapSpec,
    GapWitness,
    OrderResult,
    _comb_image_table,
    _le_matrix_strong,
    _membership_iff,
    _pullback_maps,
    _realizable_maps,
    critical_record_gap,
    domination_prune,
    enumerate_candidates_record,
    enumerate_candidates_strong,
    generate_type_actions,
    max_partition_gap,
    minimal_classes,
    order_le,
    revalidate_order,
)
from adicgaps.search import efamily_label
from adicgaps.tree import ScaleLimit
from adicgaps.types import enumerate_types, max_of, parse_type, print_type

from helpers import compose, critical_strong_gap


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
        assert GAP_1.is_strong_candidate
        assert not strong2(["0>1"], ["1>1", "0>0"]).is_strong_candidate

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
        assert all(g.is_strong_candidate for g in cands)

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
        assert eps.table == tuple(sorted(expected.items()))
        for kind in (CombKind(i, j) for i in range(2) for j in range(2)):
            assert GAP_4S.side_of(kind) == STILDE.side_of(eps.apply(kind))

    def test_separations_are_exact(self):
        assert order_le(GAP_3, GAP_4).verdict == NOT_LE_REFUTED_EXACT
        assert order_le(GAP_1, GAP_2).verdict == NOT_LE_REFUTED_EXACT
        assert order_le(GAP_2, GAP_1).verdict == NOT_LE_REFUTED_EXACT

    def test_reflexive_on_all_candidates(self):
        for g in enumerate_candidates_strong(2):
            res = order_le(g, g)
            assert res.verdict == LE_WITNESSED
            assert revalidate_order(g, g, res)

    def test_layer_and_arity_guards(self):
        with pytest.raises(ValueError, match="layer"):
            order_le(GAP_2, critical_record_gap(2))
        with pytest.raises(ValueError, match="arity"):
            order_le(GAP_2, critical_strong_gap(3))

    def test_map_pool_closed_under_composition(self):
        maps = [eps for eps, _fam in reference_realizable_with_families(2, 2)]
        assert len(maps) == 20  # frozen count, also pinned in the comb tests
        tables = {eps.table for eps in maps}
        for outer, inner in itertools.product(maps, repeat=2):
            assert compose(outer, inner).table in tables
        assert InducedCombMap.identity(2).table in tables


def reference_minimal_classes(le):
    """Minimal indices and their mutual-order classes, by the pairwise
    Python loops over one row and one column of ``le`` at a time."""
    le = np.asarray(le, dtype=bool)
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


class TestMinimalClasses:
    def test_dyadic_table_recovered(self):
        report = minimal_classes(enumerate_candidates_strong(2))
        assert report.mode == "exact"
        assert len(report.minimal) == 6
        classes = {frozenset(report.candidates[i] for i in cls) for cls in report.classes}
        assert classes == {frozenset({g}) for g in TABLE}

    def test_dyadic_quotients(self):
        report = minimal_classes(enumerate_candidates_strong(2))
        # letter-and-side permutations pair 3 with 3* and 4 with 4*;
        # side-only permutations break the diagonal pinning, so they
        # identify nothing
        assert report.quotient_counts == {"alphabet": 4, "sides_only": 6}

    def test_excluded_candidates_have_minimal_below(self):
        cands = enumerate_candidates_strong(2)
        report = minimal_classes(cands)
        below = {
            STILDE: GAP_4S,
            EXC_DIAG_TOOTH: GAP_4,
            EXC_BOTH: GAP_1,
        }
        for g, expected in below.items():
            idx = cands.index(g)
            assert idx not in report.minimal
            minimal_below = {
                report.candidates[j]
                for j in report.minimal
                if report.le[j][idx]
            }
            assert expected in minimal_below

    def test_order_matrix_transitive(self):
        report = minimal_classes(enumerate_candidates_strong(2))
        le = report.le
        k = len(le)
        for a in range(k):
            for b in range(k):
                if not le[a][b]:
                    continue
                for c in range(k):
                    if le[b][c]:
                        assert le[a][c]

    def test_matrix_agrees_with_pairwise_order(self):
        cands = enumerate_candidates_strong(2)
        report = minimal_classes(cands)
        for i, g in enumerate(cands):
            for j, h in enumerate(cands):
                assert report.le[i][j] == (order_le(g, h).verdict == LE_WITNESSED)

    def test_permutation_equivariance(self):
        cands = enumerate_candidates_strong(2)
        report = minimal_classes(cands)
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
                assert report.le[index[g]][index[h]] == report.le[index[swap[g]]][index[swap[h]]]

    def test_triadic_counts(self):
        report = minimal_classes(enumerate_candidates_strong(3))
        assert len(report.candidates) == 4096
        assert len(report.classes) == 31
        assert report.quotient_counts["alphabet"] == 9
        assert report.quotient_counts["sides_only"] == 31

    def test_reports_compare_by_value(self):
        cands = enumerate_candidates_strong(2)
        assert minimal_classes(cands) == minimal_classes(cands)
        assert minimal_classes(cands) != minimal_classes(cands[:-1])

    @pytest.mark.parametrize("n", [2, 3])
    def test_minimal_and_classes_match_pairwise_loops(self, n):
        report = minimal_classes(enumerate_candidates_strong(n))
        assert (report.minimal, report.classes) == reference_minimal_classes(report.le)

    def test_record_layer_refuses_unknown(self):
        with pytest.raises(ValueError, match="blocked"):
            minimal_classes((RECORD_ROWS["2"], RECORD_ROWS["2*"]))

    def test_record_layer_witnessed_mode(self):
        g = RECORD_ROWS["2"]
        dup = record2([CHAIN0], [CHAIN1])
        report = minimal_classes((g, dup))
        assert report.mode == "witnessed"
        assert report.classes == ((0, 1),)
        assert (report.minimal, report.classes) == reference_minimal_classes(report.le)

    def test_empty_input(self):
        report = minimal_classes(())
        assert report.classes == ()


@lru_cache(maxsize=None)
def reference_realizable_with_families(m_in, m_out):
    """The map pool the shape rule replaced: every family shape concretized
    into words and induced by the family rule, each distinct map kept with
    its first family, sorted by table."""
    by_map = {}
    for fam in enumerate_efamilies(m_in, m_out):
        eps = efamily_induced_map(fam)
        if eps.table not in by_map:
            by_map[eps.table] = (eps, fam)
    return tuple(by_map[key] for key in sorted(by_map))


def flat_row(eps):
    """A map's table as a flat image row: entry c is ``u * m + v`` for the
    kind u>v that the input kind in slot c goes to."""
    return tuple(u * eps.m + v for _, (u, v) in eps.table)


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
        perm = [slot[(eps.apply(CombKind(i, j)).spine, eps.apply(CombKind(i, j)).teeth)]
                for (i, j) in combs]
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
        if _membership_iff(g, h, eps.apply):
            witness = GapWitness("efamily", efamily_label(fam), eps, fam)
            return OrderResult(LE_WITNESSED, witness, len(pairs), "exact")
    return OrderResult(NOT_LE_REFUTED_EXACT, None, len(pairs), "exact")


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
    return cands, _le_matrix_strong(cands, 3)


class TestStrongKernels:
    """The array kernels of the strong layer against the loops they replaced."""

    def test_dyadic_matrix_matches_reference(self):
        cands = enumerate_candidates_strong(2)
        assert np.array_equal(_le_matrix_strong(cands, 2), reference_le_matrix_strong(cands, 2)[0])

    def test_triadic_matrix_and_visited_maps_match_reference(self, triadic):
        cands, le = triadic
        expected, adds_edge = reference_le_matrix_strong(cands, 3)
        assert np.array_equal(le, expected)
        # the pullback visits exactly the maps that add an edge
        assert len(adds_edge) == len(_comb_image_table(3, 3)) == 4290
        assert _pullback_maps(3).tolist() == np.flatnonzero(adds_edge).tolist()
        assert len(_pullback_maps(3)) == 919

    def test_matrix_refuses_candidates_out_of_key_order(self):
        cands = enumerate_candidates_strong(2)
        with pytest.raises(AssertionError, match="assignment keys"):
            _le_matrix_strong(cands[::-1], 2)

    def test_dyadic_order_matches_reference_on_all_pairs(self):
        cands = enumerate_candidates_strong(2)
        for g, h in itertools.product(cands, repeat=2):
            assert order_le(g, h).as_dict() == reference_order_le(g, h).as_dict()

    @pytest.mark.parametrize("m_in,m_out", [(1, 2), (2, 3), (3, 2)])
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
            for c in g.symbol_universe():
                side = h.side_of(eps.apply(c))
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
        edges = np.argwhere(le)
        pairs = [tuple(edges[k]) for k in rng.sample(range(len(edges)), 6)]
        pairs += [tuple(rng.sample(range(len(cands)), 2)) for _ in range(4)]
        for i, j in pairs:
            g, h = cands[i], cands[j]
            assert order_le(g, h).as_dict() == reference_order_le(g, h).as_dict()

    def test_triadic_order_agrees_with_matrix(self, triadic):
        cands, le = triadic
        rng = random.Random(5)
        edges = np.argwhere(le)
        pairs = [tuple(edges[k]) for k in rng.sample(range(len(edges)), 150)]
        pairs += [tuple(rng.sample(range(len(cands)), 2)) for _ in range(150)]
        for i, j in pairs:
            assert (order_le(cands[i], cands[j]).verdict == LE_WITNESSED) == le[i, j]

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
                family_row = flat_row(efamily_induced_map(concretize(shape, m_out)))
                mismatches += shape_induced_row(shape, m_in, m_out) != family_row
        assert (shapes, mismatches) == (10_324, 0)

    @pytest.mark.parametrize("m_in,m_out", POOL_SCALES)
    def test_pool_matches_reference_pair_by_pair(self, m_in, m_out):
        rows, shapes = _realizable_maps(m_in, m_out)
        reference = reference_realizable_with_families(m_in, m_out)
        assert len(rows) == len(shapes) == len(reference)
        for row, shape, (eps, fam) in zip(rows, shapes, reference):
            assert row == flat_row(eps)
            assert concretize(shape, m_out) == fam
        table = _comb_image_table(m_in, m_out)
        assert table.tolist() == [list(flat_row(eps)) for eps, _fam in reference]

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
        _comb_image_table.cache_clear()
        cands = enumerate_candidates_strong(3)
        _comb_image_table(3, 3)
        assert order_le(cands[0], cands[1]).verdict == NOT_LE_REFUTED_EXACT
        assert calls == {"efamily_induced_map": 0, "concretize": 0}
        res = order_le(cands[5], cands[5])
        assert res.verdict == LE_WITNESSED
        assert calls == {"efamily_induced_map": 0, "concretize": 1}
        assert revalidate_order(cands[5], cands[5], res)
        assert calls == {"efamily_induced_map": 1, "concretize": 1}


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
        report = domination_prune(enumerate_candidates_record(2))
        assert report.before == 1458
        assert report.after == 162
        assert len(report.pruned) == len(set(report.pruned)) == 162

    def test_removed_types_absent(self):
        report = domination_prune(enumerate_candidates_record(2))
        removed = {parse_type(t, 2) for t in report.removed_types}
        for g in report.pruned:
            assert not frozenset().union(*g.sides) & removed

    def test_widest_row_restriction_retained(self):
        report = domination_prune(enumerate_candidates_record(2))
        survivors = [t for t in NONCHAIN if t not in ("[u0 u1 l1]", "[u1 l0]")]
        assert record2([CHAIN0], survivors) in report.pruned

    def test_disputed_type_retained_and_flagged(self):
        report = domination_prune(enumerate_candidates_record(2))
        assert "[l0 u1 l1]" in report.audit_note
        disputed = parse_type("[l0 u1 l1]", 2)
        assert any(disputed in side for g in report.pruned for side in g.sides)

    def test_idempotent(self):
        once = domination_prune(enumerate_candidates_record(2))
        twice = domination_prune(once.pruned)
        assert twice.after == once.after
        assert twice.pruned == once.pruned

    def test_empty_input(self):
        report = domination_prune(())
        assert report.before == report.after == 0

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
