import pytest

from adicgaps.combs import CombKind, NotHomogeneous, comb_witness
from adicgaps.tree import (
    NodeSet,
    ScaleLimit,
    empty_node,
    node_from_runs,
    record_equivalent,
)
from adicgaps.types import (
    AmbiguousTruncation,
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

from helpers import format_node_set

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


def test_witness_spec_repetitions():
    spec = witness_spec(parse_type("[u1 l0]", 2))
    reps = dict(spec.repetitions)
    assert reps[(1, 1)] == 1 and reps[(0, 0)] == 3
    assert reps[(0, 0)] > 2 ** reps[(1, 1)]
    assert spec.u == node_from_runs(2, [(0, 3)])
    assert spec.v == node_from_runs(2, [(1, 1)])


def test_witness_repetitions_grow_along_the_order():
    tau = parse_type("[l0 l1 u1 u2 l2]", 3)
    spec = witness_spec(tau)
    reps = {tok: r for tok, r in spec.repetitions}
    ordered = [reps[tok] for tok in tau.tokens]
    assert ordered == [1, 3, 9, 513, 2**513 + 1]
    longest = max(x.length for x in type_witness(tau, 3).nodes)
    assert longest > 2**513  # the whole point of run-length encoding


def test_witness_blocks_unmaterializable_beyond_five_tokens():
    taus = [t for t in enumerate_types(4) if len(t.tokens) == 6]
    assert taus
    with pytest.raises(ScaleLimit):
        type_witness(taus[0], 3)


def alt_witness(tau, reps, blocks):
    """A witness from a hand-picked repetition table (for schedule freedom)."""
    by_tok = dict(zip(tau.tokens, reps))
    for a, b in zip(tau.tokens, tau.tokens[1:]):
        assert by_tok[b] > 2 ** by_tok[a], "table violates the growth rule"
    u = node_from_runs(tau.alphabet, [(k, by_tok[(k, 0)]) for k in sorted(tau.tau0)])
    if tau.tau1:
        v = node_from_runs(tau.alphabet, [(k, by_tok[(k, 1)]) for k in sorted(tau.tau1)])
    else:
        v = u
    elems, word = [], empty_node(tau.alphabet)
    for _ in range(blocks):
        elems.append(word.concat(v))
        word = word.concat(u)
    return NodeSet(tau.alphabet, frozenset(elems))


def test_schedule_freedom():
    # any table obeying the growth rule gives an equivalent witness
    cases = [
        ("[u1 l0]", (2, 5)),
        ("[l0 l1]", (2, 5)),
        ("[l0 u1 l1]", (1, 3, 9)),
        ("[u0 u1 l1]", (2, 5, 33)),
    ]
    for text, reps in cases:
        tau = parse_type(text, 2)
        for blocks in (3, 4):
            a = type_witness(tau, blocks)
            b = alt_witness(tau, reps, blocks)
            assert record_equivalent(a, b), (text, blocks)


# ---------------------------------------------------------------------------
# classification


def test_classify_witness_roundtrip_all_types():
    for n in (2, 3):
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
