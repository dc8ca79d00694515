import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adicgaps import tree
from adicgaps.combs import (
    CombKind,
    EFamily,
    _comb_classes,
    classify_comb,
    comb_witness,
    concretize,
    efamily_induced_map,
    efamily_shapes,
    enumerate_efamilies,
)
from adicgaps.gaps import _realizable_maps
from adicgaps.search import efamily_label
from adicgaps.tree import (
    NodeSet,
    NotHomogeneous,
    first_move_equivalent,
    node,
    random_node_set,
    reembed,
)

from helpers import (
    compose,
    format_node_set,
    identity_map,
    map_from_row,
    map_json,
    reference_classify_comb,
    word_image,
)

WORKED = EFamily.of(2, "0", ["11", "01"])


def test_kind_literals():
    k = CombKind.parse("0>1")
    assert (k.spine, k.teeth) == (0, 1)
    assert str(k) == "0>1"
    with pytest.raises(ValueError):
        CombKind.parse("01")


def test_witness_matches_display():
    w = comb_witness(CombKind(0, 1), 3, 2)
    assert format_node_set(w) == "{1,001,00001}"
    chain = comb_witness(CombKind(1, 1), 2, 2)
    assert format_node_set(chain) == "{1,111}"


def test_witness_with_huge_count():
    w = comb_witness(CombKind(0, 1), 2**14, 2)
    assert len(w) == 2**14
    longest = max(x.length for x in w.nodes)
    assert longest == 2 * (2**14 - 1) + 1


@pytest.mark.parametrize("alphabet", [2, 3])
def test_witness_is_built_once_and_shared(alphabet):
    for kind in itertools.product(range(alphabet), repeat=2):
        kind = CombKind(*kind)
        shared = comb_witness(kind, 5, alphabet)
        assert comb_witness(kind, 5, alphabet) is shared
        fresh = comb_witness.__wrapped__(kind, 5, alphabet)
        assert fresh == shared and fresh is not shared
        # classifying the shared witness leaves it as it was
        assert classify_comb(shared) == classify_comb(fresh) == kind
        assert classify_comb(comb_witness(kind, 5, alphabet)) == kind
        assert shared.sorted_nodes == fresh.sorted_nodes


def test_classify_witness_roundtrip():
    for alphabet in range(1, 5):
        for i in range(alphabet):
            for j in range(alphabet):
                for count in range(3, 8):
                    w = comb_witness(CombKind(i, j), count, alphabet)
                    assert classify_comb(w) == reference_classify_comb(w) == CombKind(i, j)


def test_classify_subset_stability():
    w = comb_witness(CombKind(0, 1), 6, 2).sorted_nodes
    for keep in itertools.combinations(range(6), 4):
        sub = NodeSet(2, frozenset(w[k] for k in keep))
        assert classify_comb(sub) == CombKind(0, 1)


def test_classify_rejects_mixtures():
    with pytest.raises(NotHomogeneous):
        classify_comb(NodeSet.of(2, ["0", "1", "00", "11"]))
    with pytest.raises(ValueError):
        classify_comb(NodeSet.of(2, ["0", "1"]))


def test_distinct_kinds_are_inequivalent():
    kinds = [CombKind(i, j) for i in range(3) for j in range(3)]
    for a, b in itertools.combinations(kinds, 2):
        wa = comb_witness(a, 4, 3)
        wb = comb_witness(b, 4, 3)
        assert not first_move_equivalent(wa, wb)


# ---------------------------------------------------------------------------
# the induced map rule


def test_worked_family_values():
    eps = dict(efamily_induced_map(WORKED))
    assert eps[CombKind(0, 0)] == CombKind(1, 0)
    assert eps[CombKind(1, 1)] == CombKind(1, 1)
    # the remaining two follow from the rule; the classification oracle
    # below agrees, so they are pinned here as regression values
    assert eps[CombKind(0, 1)] == CombKind(1, 0)
    assert eps[CombKind(1, 0)] == CombKind(0, 1)


def test_identity_family():
    fam = EFamily.of(3, "", ["0", "1", "2"])
    assert efamily_induced_map(fam) == identity_map(3)


def test_degenerate_diagonal_is_a_chain_kind():
    # e(inf) below e(1): the 1-chain image is again a chain
    out = dict(efamily_induced_map(WORKED))[CombKind(1, 1)]
    assert out.spine == out.teeth == 1


def test_family_validation():
    with pytest.raises(ValueError):
        EFamily.of(2, "0", ["1", "01"])  # unequal branch lengths
    with pytest.raises(ValueError):
        EFamily.of(2, "00", ["01", "11"])  # e(inf) not shorter
    with pytest.raises(ValueError):
        EFamily.of(2, "0", ["11", "11"])  # repeated branch word


def classify_image(fam, kind, count=4):
    w = comb_witness(kind, count, fam.n)
    image = NodeSet(fam.alphabet_out, frozenset(word_image(fam, x) for x in w.nodes))
    assert len(image) == count
    return classify_comb(image)


def test_rule_matches_oracle_on_worked_family():
    for kind, image in efamily_induced_map(WORKED):
        assert classify_image(WORKED, kind) == image


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_rule_matches_oracle_on_random_small_families(seed):
    import random

    rng = random.Random(seed)
    m = rng.choice([2, 3])
    n = rng.choice([2, 3])
    length = rng.randint(1, 3)
    words = [node(m, [rng.randrange(m) for _ in range(length)]) for _ in range(50)]
    distinct = []
    for w in words:
        if w not in distinct:
            distinct.append(w)
        if len(distinct) == n:
            break
    if len(distinct) < n:
        return
    e_inf = node(m, [rng.randrange(m) for _ in range(rng.randrange(length))])
    fam = EFamily(m, e_inf, tuple(distinct))
    for kind, image in efamily_induced_map(fam):
        assert classify_image(fam, kind) == image


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_shape_count_small():
    # one family per branching shape; the count is a frozen regression value
    assert sum(1 for _ in enumerate_efamilies(2, 2)) == 26


#: sha256 of the newline-joined ``efamily_label(concretize(shape, m))`` of
#: every ``efamily_shapes(n, m)`` shape, in order, with the shape count: the
#: audit samples 500 shapes at (3, 3) by position, so the order is pinned
SHAPE_SEQUENCE_SHA256 = {
    (2, 2): (26, "cbc3141ffa324da27d9a24a76e47b4796b29a2687c7a4eae3e14eef0716aa71b"),
    (3, 3): (5_514, "edd4ee4f978dba391af1430cbdf6cf19b3e5aa7239c2226b51d331b71edc9671"),
    (3, 4): (38_736, "81ada52adb9c6177bc97a16276a269f761bd56c72876c352d0265c3a25e1d070"),
}


@pytest.mark.parametrize("n,m", SHAPE_SEQUENCE_SHA256)
def test_shape_sequence_pinned(n, m):
    labels = [efamily_label(concretize(shape, m)) for shape in efamily_shapes(n, m)]
    digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
    assert (len(labels), digest) == SHAPE_SEQUENCE_SHA256[(n, m)]


def realizable_maps(n, m):
    """The first-move map pool, as maps, in pool order."""
    rows, _shapes = _realizable_maps(n, m)
    return tuple(map_from_row(n, m, row) for row in rows)


def test_realizable_maps_at_2_2():
    maps = realizable_maps(2, 2)
    assert len(maps) == 20  # frozen from this enumeration, cross-checked below
    assert identity_map(2) in set(maps)
    assert efamily_induced_map(WORKED) in set(maps)


def test_realizable_maps_match_word_bruteforce_at_2_2():
    # independent check: families assembled letter by letter, length <= 3
    words = {
        length: [node(2, bits) for bits in itertools.product(range(2), repeat=length)]
        for length in range(4)
    }
    seen = set()
    for inf_len in range(3):
        for e_inf in words[inf_len]:
            for length in range(inf_len + 1, 4):
                for e0, e1 in itertools.permutations(words[length], 2):
                    seen.add(efamily_induced_map(EFamily(2, e_inf, (e0, e1))))
    assert seen == set(realizable_maps(2, 2))


def test_off_diagonal_images_are_conjugate():
    for fam in enumerate_efamilies(2, 3):
        eps = dict(efamily_induced_map(fam))
        a = eps[CombKind(0, 1)]
        b = eps[CombKind(1, 0)]
        assert (a.spine, a.teeth) == (b.teeth, b.spine)
        assert a.spine != a.teeth


def test_composition_closure_at_2():
    maps = set(realizable_maps(2, 2))
    for f in maps:
        for g in maps:
            assert compose(g, f) in maps


def test_identity_is_always_realizable():
    for n in (1, 2, 3):
        assert identity_map(n) in set(realizable_maps(n, n))


def test_arity_one_maps():
    # a single branch word: e(inf) on its path gives chains, beside it combs
    maps = set(realizable_maps(1, 2))
    images = {image for ((_kind, image),) in maps}
    assert images == {CombKind(0, 0), CombKind(1, 1), CombKind(0, 1), CombKind(1, 0)}


def test_map_json_roundtrip():
    eps = efamily_induced_map(WORKED)
    obj = map_json(eps)
    assert obj["0>0"] == "1>0"
    assert tuple((CombKind.parse(k), CombKind.parse(v)) for k, v in obj.items()) == eps


# ---------------------------------------------------------------------------
# comb classification vs the pairwise reference search


def outcome(classify, a):
    try:
        return classify(a)
    except NotHomogeneous:
        return "not homogeneous"


def perturbed_comb(rng):
    """A comb witness, re-embedded and then possibly disturbed: one element
    extended, replaced, or joined by a random word."""
    alphabet = rng.randint(1, 3)
    kind = CombKind(rng.randrange(alphabet), rng.randrange(alphabet))
    w = reembed(comb_witness(kind, rng.randint(3, 6), alphabet), rng)
    nodes = list(w.sorted_nodes)
    action = rng.randrange(4)
    k = rng.randrange(len(nodes))
    word = node(alphabet, [rng.randrange(alphabet) for _ in range(rng.randint(0, 6))])
    if action == 1:
        nodes[k] = nodes[k].extend(rng.randrange(alphabet))
    elif action == 2:
        nodes[k] = word
    elif action == 3:
        nodes.append(word)
    return NodeSet(alphabet, frozenset(nodes))


def test_classify_matches_search_on_seeded_corpus():
    rng = random.Random(20141013)
    classified = rejected = 0
    for k in range(1500):
        if k % 2:
            a = perturbed_comb(rng)
        else:
            alphabet = rng.randint(2, 3)
            a = random_node_set(rng, alphabet, rng.randint(3, 6), max_len=5)
        if len(a) < 3:
            continue
        got = outcome(classify_comb, a)
        assert got == outcome(reference_classify_comb, a), format_node_set(a)
        if got == "not homogeneous":
            rejected += 1
        else:
            classified += 1
    # both outcomes are exercised in bulk
    assert classified > 300 and rejected > 300


def test_classify_builds_one_structure_table(monkeypatch):
    w = comb_witness(CombKind(0, 1), 5, 2)
    classify_comb(w)  # the kind tables for this size are now cached
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    fresh = reembed(w, random.Random(0))
    for name in ("first_move_equivalent", "_tree_code"):
        monkeypatch.setattr(tree, name, counted(name, getattr(tree, name)))
    assert classify_comb(fresh) == CombKind(0, 1)
    assert calls == Counter({"_tree_code": 1})


def test_comb_tables_built_once_per_size():
    _comb_classes.cache_clear()
    for count in (3, 4, 5):
        for kind in (CombKind(0, 1), CombKind(1, 0), CombKind(1, 1)):
            classify_comb(comb_witness(kind, count, 2))
    # a witness of `count` elements is looked up among tables for count - 1,
    # where every kind has a table of its own, so the whole set is never
    # looked up
    assert _comb_classes.cache_info().misses == 3
    assert sorted(_comb_classes(2, 4).values()) == [
        (CombKind(i, j),) for i in range(2) for j in range(2)
    ]
