import itertools

import pytest

from adicgaps import types
from adicgaps.combs import CombKind, comb_witness
from adicgaps.tree import (
    AmbiguousTruncation,
    NodeSet,
    NotHomogeneous,
    ScaleLimit,
    format_node,
    node_from_runs,
    record_equivalent,
    record_table,
    words_upto,
)
from adicgaps.types import (
    TypeDescriptor,
    catalogue_json,
    classify_type,
    dominates,
    enumerate_types,
    is_top_comb,
    j_count,
    max_of,
    parse_type,
    print_type,
    relabel,
    same_type_probes,
    type_id,
    type_witness,
    witness_spec,
)

from helpers import format_node_set, table_witness, tower_reps

DYADIC = [
    "[l0]",
    "[l1]",
    "[l0 l1]",
    "[u0 l1]",
    "[u1 l0]",
    "[l0 u1 l1]",
    "[u0 u1 l1]",
    "[u1 l0 l1]",
]


def test_counts():
    assert j_count(1) == 1
    assert j_count(2) == 8
    assert j_count(3) == 61
    assert j_count(4) == 480


def test_dyadic_catalogue_is_exactly_the_eight():
    got = [print_type(t) for t in enumerate_types(2)]
    assert got == DYADIC


def test_parse_print_roundtrip():
    tau = parse_type("[u2 u3 l1 u4 l2]")
    assert tau.alphabet == 5
    assert tau.tau0 == {1, 2}
    assert tau.tau1 == {2, 3, 4}
    assert tau.tokens == ((2, 1), (3, 1), (1, 0), (4, 1), (2, 0))
    assert print_type(tau) == "[u2 u3 l1 u4 l2]"
    assert parse_type("[l0]", 2).tau1 == frozenset()


def test_parse_rejects_invalid():
    with pytest.raises(ValueError):
        parse_type("[l0 l1 u1]")  # maximum must be the largest lower letter
    with pytest.raises(ValueError):
        parse_type("[u1 u0 l0]")  # upper row must increase
    with pytest.raises(ValueError):
        parse_type("[u0 l0]")  # shared minimum
    with pytest.raises(ValueError):
        parse_type("[u1 u2]")  # empty lower row
    with pytest.raises(ValueError):
        parse_type("l0 l1")
    with pytest.raises(ValueError):
        parse_type("[x0]")


def type_by_id(alphabet: int, ident: int) -> TypeDescriptor:
    return enumerate_types(alphabet)[ident]


def test_ids_are_list_positions():
    for n in (2, 3):
        for k, tau in enumerate(enumerate_types(n)):
            assert type_id(tau) == k
            assert type_by_id(n, k) == tau


def test_catalogue_json_fields():
    rows = catalogue_json(2)
    assert rows[0] == {"id": 0, "text": "[l0]", "max": 0, "top_comb": False}
    assert {r["text"] for r in rows} == set(DYADIC)
    assert [r["id"] for r in rows] == list(range(8))


def test_enumeration_scale():
    assert j_count(4) > j_count(3)
    with pytest.raises(ScaleLimit):
        enumerate_types(5)


# ---------------------------------------------------------------------------
# witnesses


def test_single_letter_witness():
    w = type_witness(parse_type("[l0]", 2), 3)
    assert format_node_set(w) == "{0,00,000}"


def _repetitions(spec):
    """Each token's repetition count, read off the run lengths of the lower
    block u and the upper block v."""
    return {**{(k, 0): r for k, r in spec.u.runs}, **{(k, 1): r for k, r in spec.v.runs}}


def test_witness_spec_repetitions():
    spec = witness_spec(parse_type("[u1 l0]", 2))
    reps = _repetitions(spec)
    assert reps[(1, 1)] == 1 and reps[(0, 0)] == 3
    assert reps[(0, 0)] > 2 ** reps[(1, 1)]
    assert spec.u == node_from_runs(2, [(0, 3)])
    assert spec.v == node_from_runs(2, [(1, 1)])


def obeys_growth_rule(reps):
    """Each count beats the sum of all earlier ones (``witness_spec``)."""
    return all(r > sum(reps[:k]) for k, r in enumerate(reps))


def test_witness_repetitions_grow_along_the_order():
    tau = parse_type("[l0 l1 u1 u2 l2]", 3)
    reps = _repetitions(witness_spec(tau))
    ordered = [reps[tok] for tok in tau.tokens]
    assert ordered == [1, 3, 7, 15, 31]
    assert obeys_growth_rule(ordered)
    assert tower_reps(tau) == (1, 3, 9, 513, 2**513 + 1)


def test_witness_blocks_materialize_beyond_five_tokens():
    # six- and seven-token witnesses build: their largest count is 127,
    # where the tower's would pass 2**513
    taus = [t for t in enumerate_types(4) if len(t.tokens) >= 6]
    assert len(taus) == 140
    for tau in taus:
        assert len(type_witness(tau, 3)) == 3
    seven = [t for t in taus if len(t.tokens) == 7]
    assert seven and max(r for _, r in witness_spec(seven[0]).u.runs) == 127


def alt_witness(tau, reps, blocks):
    """A witness from a hand-picked repetition table (for schedule freedom)."""
    assert obeys_growth_rule(reps), "table violates the growth rule"
    return table_witness(tau, reps, blocks)


def test_schedule_freedom():
    # any table obeying the growth rule gives an equivalent witness
    cases = [
        ("[u1 l0]", (2, 5)),
        ("[l0 l1]", (2, 5)),
        ("[l0 u1 l1]", (1, 3, 9)),
        ("[u0 u1 l1]", (2, 5, 33)),
        ("[u0 u1 l1]", (2, 3, 6)),  # 3 < 2**2 + 1: the tower's rule r' > 2**r rejects it
    ]
    for text, reps in cases:
        tau = parse_type(text, 2)
        for blocks in (3, 4):
            a = type_witness(tau, blocks)
            b = alt_witness(tau, reps, blocks)
            assert record_equivalent(a, b), (text, blocks)


def test_schedule_without_the_growth_rule_moves_a_record_table():
    # r -> r + 1 gives 3 = 1 + 2 at the third token, and the record table
    # of [u1 u2 l0] moves: a schedule needs the rule, not just growth
    tau = parse_type("[u1 u2 l0]", 3)
    reps = (1, 2, 3)
    assert not obeys_growth_rule(reps)
    for blocks in (3, 4):
        assert not record_equivalent(type_witness(tau, blocks), table_witness(tau, reps, blocks))


def test_schedule_equals_the_tower_oracle():
    # every type at alphabets 1-3, 1 to 9 blocks: 630 record tables
    compared = 0
    for n in (1, 2, 3):
        for tau in enumerate_types(n):
            for blocks in range(1, 10):
                oracle = table_witness(tau, tower_reps(tau), blocks)
                assert record_table(type_witness(tau, blocks)) == record_table(oracle), (
                    print_type(tau),
                    blocks,
                )
                compared += 1
    assert compared == 630


# ---------------------------------------------------------------------------
# classification


def test_classify_witness_roundtrip_all_types():
    for n in (2, 3):
        for tau in enumerate_types(n):
            for blocks in (3, 4, 5):
                assert classify_type(type_witness(tau, blocks)) == tau


def test_classify_witness_roundtrip_alphabets_one_and_four():
    for n in (1, 4):
        for tau in enumerate_types(n):
            for blocks in (3, 4, 5):
                assert classify_type(type_witness(tau, blocks)) == tau


def test_classify_constant_chain():
    assert print_type(classify_type(NodeSet.of(2, ["1", "11", "111"]))) == "[l1]"
    assert print_type(classify_type(NodeSet.of(3, ["2", "22", "222", "2222"]))) == "[l2]"


def test_comb_witness_record_class_frozen():
    # regression constant: the (0,1)-comb witness lands in [u1 l0]
    w = comb_witness(CombKind(0, 1), 4, 2)
    assert print_type(classify_type(w)) == "[u1 l0]"


def test_classify_subset_stability():
    for text in ("[l0 u1 l1]", "[u1 l0 l1]", "[l0 l1]"):
        tau = parse_type(text, 2)
        full = type_witness(tau, 6).sorted_nodes
        for keep in ((0, 2, 4), (1, 3, 5), (0, 1, 4, 5), (2, 3, 4, 5)):
            sub = NodeSet(2, frozenset(full[k] for k in keep))
            assert classify_type(sub) == tau, (text, keep)


def test_classify_rejects_small_and_mixed():
    with pytest.raises(ValueError):
        classify_type(NodeSet.of(2, ["0", "1"]))
    with pytest.raises(NotHomogeneous):
        classify_type(NodeSet.of(2, ["0", "1", "00", "11", "0101"]))


def test_classify_ambiguous_truncation():
    # {1, 0001} is a 2-block witness of both [u1 l0] and [u1 l0 l1]; with a
    # pattern-breaking last element the classifier must refuse, not guess
    a = NodeSet.of(2, ["1", "0001", "11111"])
    with pytest.raises(AmbiguousTruncation):
        classify_type(a)


def test_trimming_fallback_still_works():
    # a healthy witness plus one long stray element classifies by trimming
    tau = parse_type("[l0 u1 l1]", 2)
    w = type_witness(tau, 4)
    stray = max(w.sorted_nodes, key=lambda x: x.length).extend(0, 7)
    damaged = NodeSet(2, (w.nodes - {max(w.sorted_nodes, key=lambda x: x.length)}) | {stray})
    assert classify_type(damaged) == tau


def scan_same_type_probes(alphabet):
    """The scan the frozen pool was taken from: every 3-element set of words
    up to 4 letters (3 over alphabet 3), in ``itertools.combinations``
    order, keeping the first 6 sets that classify as each type."""
    words = words_upto(alphabet, 4 if alphabet <= 2 else 3)
    pool = {tau: [] for tau in enumerate_types(alphabet)}
    for combo in itertools.combinations(words, 3):
        a = NodeSet(alphabet, frozenset(combo))
        try:
            tau = classify_type(a)
        except ValueError:
            continue
        if len(pool[tau]) < 6:
            pool[tau].append(a)
            if all(len(bucket) == 6 for bucket in pool.values()):
                break
    return {tau: tuple(bucket) for tau, bucket in pool.items()}


def frozen_pool_literal(pool):
    """The pool as the data in ``types``: type text -> its sets, in order."""
    return {
        print_type(tau): " ".join(",".join(format_node(x) for x in a.sorted_nodes) for a in bucket)
        for tau, bucket in pool.items()
        if bucket
    }


@pytest.mark.parametrize("alphabet", [1, 2, 3])
def test_frozen_pool_equals_scan(alphabet):
    # on a mismatch, the left side is the data to paste into types
    scanned = scan_same_type_probes(alphabet)
    assert frozen_pool_literal(scanned) == types._SAME_TYPE_POOL[alphabet]
    assert list(same_type_probes(alphabet).items()) == list(scanned.items())


def test_no_same_type_pool_over_alphabet_four(monkeypatch):
    # the scan ran past 300 s there; the pool refuses at once
    calls = []
    monkeypatch.setattr(types, "classify_type", lambda a: calls.append(a))
    with pytest.raises(ScaleLimit):
        same_type_probes(4)
    assert calls == []


def test_quaternary_witness_tables_are_built_once(monkeypatch):
    # every quaternary witness builds, so sets over alphabet 4 classify; the
    # witness tables are cached, so later calls build no witness
    a = NodeSet.of(4, ["0", "00", "000"])
    assert print_type(classify_type(a)) == "[l0]"
    built = []
    original = types.type_witness
    monkeypatch.setattr(
        types, "type_witness", lambda tau, blocks: built.append(tau) or original(tau, blocks)
    )
    assert print_type(classify_type(a)) == "[l0]"
    assert built == []


def test_same_type_probe_buckets_pinned():
    # [u1 l0] and [u1 l0 l1] get no sample over alphabet 2, so their images
    # are never corroborated by a second realization; filling them would
    # move admission verdicts, so the pool is pinned as it stands
    pool = same_type_probes(2)
    assert [len(pool[tau]) for tau in enumerate_types(2)] == [6, 6, 6, 6, 0, 6, 6, 0]
    for tau, samples in pool.items():
        assert all(len(a) == 3 and classify_type(a) == tau for a in samples)


# ---------------------------------------------------------------------------
# max, top-combs, domination, relabeling


def test_max_of_example():
    assert max_of(parse_type("[u2 u3 l1 u4 l2]")) == 4


def test_top_comb_examples():
    assert is_top_comb(parse_type("[u1 l0]", 2))
    assert not is_top_comb(parse_type("[l0 l1]", 2))
    assert not is_top_comb(parse_type("[l0]", 2))
    assert is_top_comb(parse_type("[l0 u1 l1]", 2))  # literal reading


def test_domination_of_all_dyadic_types():
    all2 = enumerate_types(2)
    for text in ("[u0 u1 l1]", "[u1 l0]"):
        tau = parse_type(text, 2)
        assert all(dominates(tau, sigma) for sigma in all2)
    # the literal definition lets [l0 u1 l1] dominate everything too;
    # the audit reports this tension rather than the code hiding it
    assert all(dominates(parse_type("[l0 u1 l1]", 2), sigma) for sigma in all2)
    # a non-top-comb never dominates
    assert not any(dominates(parse_type("[l0 l1]", 2), sigma) for sigma in all2)


def test_domination_needs_enough_max():
    tau = parse_type("[u0 l1]", 2)  # top-comb with max(tau1) = 0
    assert dominates(tau, parse_type("[l0]", 2))
    assert not dominates(tau, parse_type("[l1]", 2))


def test_relabel():
    assert print_type(relabel(parse_type("[l0]", 1), (1,), 2)) == "[l1]"
    assert print_type(relabel(parse_type("[l0 l1]", 2), (0, 2), 3)) == "[l0 l2]"
    with pytest.raises(ValueError):
        relabel(parse_type("[l0 l1]", 2), (2, 0), 3)


def test_relabel_functorial():
    tau = parse_type("[u1 l0 l1]", 2)
    first = relabel(tau, (0, 2), 3)
    second = relabel(first, (1, 2, 3), 4)
    composed = relabel(tau, (1, 3), 4)
    assert second == composed


def test_relabel_preserves_classification():
    tau = parse_type("[u1 l0]", 2)
    out = relabel(tau, (0, 2), 3)
    w = type_witness(tau, 4)
    lifted = NodeSet(
        3,
        frozenset(
            node_from_runs(3, [(2 if l == 1 else 0, c) for l, c in x.runs])
            for x in w.nodes
        ),
    )
    assert classify_type(lifted) == out
