import functools
import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adicgaps.tree as tree_module
from adicgaps.embeddings import RUN_LIMIT, apply, domination_embedding
from adicgaps.tree import (
    AlphabetMismatch,
    EquivalenceResult,
    Node,
    NodeSet,
    ScaleLimit,
    empty_node,
    first_move_equivalent,
    format_node,
    lex_key,
    meet,
    meet_closure,
    node,
    node_from_runs,
    parse_node,
    prec_compare,
    prec_sorted,
    random_node_set,
    record_closure,
    record_equivalent,
    reembed,
    weight,
)
from adicgaps.types import enumerate_types, parse_type, type_witness

from helpers import (
    NotBelow,
    format_node_set,
    parse_node_set,
    strictly_below,
    suffix_after,
    suffix_from,
)


def letters_strategy(alphabet, max_len=6):
    return st.lists(st.integers(0, alphabet - 1), max_size=max_len)


node_strategy = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), letters_strategy(n))
).map(lambda t: node(t[0], t[1]))


def pair_strategy(alphabet):
    return st.tuples(letters_strategy(alphabet), letters_strategy(alphabet)).map(
        lambda t: (node(alphabet, t[0]), node(alphabet, t[1]))
    )


# ---------------------------------------------------------------------------
# words and runs


def test_run_normalization():
    a = node_from_runs(3, [(1, 2), (1, 3), (0, 0), (2, 1)])
    assert a.runs == ((1, 5), (2, 1))
    assert a.length == 6
    assert a == node(3, [1, 1, 1, 1, 1, 2])


def test_parse_format_roundtrip():
    for text in ("e", "", "0", "120", "0011"):
        nd = parse_node(3, text)
        assert format_node(nd) == (text if text else "e")
        assert parse_node(3, format_node(nd)) == nd


def test_letter_access_and_slicing():
    a = parse_node(4, "0123012")
    assert [a.letter_at(i) for i in range(7)] == [0, 1, 2, 3, 0, 1, 2]
    assert a.prefix(3) == parse_node(4, "012")
    assert suffix_from(a, 3) == parse_node(4, "3012")
    assert suffix_after(a, parse_node(4, "01")) == parse_node(4, "23012")
    with pytest.raises(NotBelow):
        suffix_after(a, parse_node(4, "1"))
    with pytest.raises(IndexError):
        a.letter_at(7)


def test_concat_extend_repeat():
    a = parse_node(2, "01")
    assert a.concat(parse_node(2, "10")) == parse_node(2, "0110")
    assert a.extend(1, 3) == parse_node(2, "01111")
    assert a.repeat(3) == parse_node(2, "010101")
    assert empty_node(2).repeat(5) == empty_node(2)
    with pytest.raises(AlphabetMismatch):
        a.concat(parse_node(3, "2"))


def test_prefix_relation():
    a = parse_node(2, "0010")
    assert parse_node(2, "001").is_prefix_of(a)
    assert parse_node(2, "00").is_prefix_of(a)
    assert not parse_node(2, "01").is_prefix_of(a)
    assert a.is_prefix_of(a)
    assert not strictly_below(a, a)
    assert strictly_below(parse_node(2, "0"), a)


def test_big_counts_stay_cheap():
    # Witness words later in the suite reach lengths near 2**513; every
    # structural operation must work on runs without expanding them.
    big = node_from_runs(3, [(0, 2**513), (2, 1)])
    other = node_from_runs(3, [(0, 2**513), (1, 7)])
    assert big.length == 2**513 + 1
    assert meet(big, other).length == 2**513
    assert prec_compare(big, other) == -1
    assert big.letter_at(2**513) == 2
    with pytest.raises(ScaleLimit):
        big.letters


# ---------------------------------------------------------------------------
# the well order


def test_prec_is_length_then_lexicographic():
    a, b, c = parse_node(3, "001"), parse_node(3, "020"), parse_node(3, "12")
    assert prec_compare(c, a) == -1  # shorter first
    assert prec_compare(a, b) == -1  # 001 before 020
    assert prec_compare(a, a) == 0
    # the runs tuples compare the other way round; ordering must not use them
    assert a.runs > b.runs


@given(st.integers(2, 4).flatmap(lambda n: pair_strategy(n)))
def test_prec_matches_weight_order(pair):
    s, t = pair
    cmp = prec_compare(s, t)
    key_s, key_t = (s.length, weight(s)), (t.length, weight(t))
    assert cmp == (key_s > key_t) - (key_s < key_t)


@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    letters_strategy(n), letters_strategy(n), letters_strategy(n)
).map(lambda t: (node(n, t[0]), node(n, t[1]), node(n, t[2])))))
def test_prec_total_order_laws(triple):
    a, b, c = triple
    assert prec_compare(a, b) == -prec_compare(b, a)
    assert (prec_compare(a, b) == 0) == (a == b)
    if prec_compare(a, b) <= 0 and prec_compare(b, c) <= 0:
        assert prec_compare(a, c) <= 0


def test_prec_sorted_deduplicates_nothing_and_orders():
    nodes = [parse_node(2, w) for w in ("10", "e", "0", "010", "1", "00")]
    got = [format_node(x) for x in prec_sorted(nodes)]
    assert got == ["e", "0", "1", "00", "10", "010"]


# ---------------------------------------------------------------------------
# meets


@given(st.integers(2, 4).flatmap(lambda n: pair_strategy(n)))
def test_meet_is_longest_common_prefix(pair):
    s, t = pair
    m = meet(s, t)
    assert m.is_prefix_of(s) and m.is_prefix_of(t)
    if m.length < s.length and m.length < t.length:
        assert s.letter_at(m.length) != t.letter_at(m.length)
    assert meet(t, s) == m
    assert meet(s, s) == s


# ---------------------------------------------------------------------------
# record histories: the oracle of the record closure and of replay_witness


def first_move(t: Node, s: Node) -> int:
    """The letter i with t+i below s; requires t strictly below s."""
    if not strictly_below(t, s):
        raise NotBelow(f"{t!r} is not strictly below {s!r}")
    return s.letter_at(t.length)


@dataclass(frozen=True)
class RecordHistory:
    """Climb decomposition t = nodes[0] < ... < nodes[-1] = s.

    ``records[k]`` is the letter emitted at ``nodes[k]``: the strictly
    increasing sequence of new maximum letters met while climbing.
    """

    nodes: tuple[Node, ...]
    records: tuple[int, ...]

    def check(self) -> None:
        assert len(self.nodes) == len(self.records) + 1
        assert all(self.records[k] < self.records[k + 1] for k in range(len(self.records) - 1))
        s = self.nodes[-1]
        for k, rec in enumerate(self.records):
            t = self.nodes[k]
            assert strictly_below(t, s) and first_move(t, s) == rec
            seg = suffix_after(self.nodes[k + 1], t)
            assert max(l for l, _ in seg.runs) == rec


def record_history(t: Node, s: Node) -> RecordHistory:
    """Running-maximum records of the climb from t to s.

    Maxima restart at t: only letters of the suffix s minus t are scanned.
    """
    if not strictly_below(t, s):
        raise NotBelow(f"{t!r} is not strictly below {s!r}")
    w = suffix_after(s, t)
    nodes: list[Node] = []
    records: list[int] = []
    best = -1
    pos = 0
    for letter, count in w.runs:
        if letter > best:
            nodes.append(s.prefix(t.length + pos))
            records.append(letter)
            best = letter
        pos += count
    nodes.append(s)
    return RecordHistory(tuple(nodes), tuple(records))


def test_record_history_worked_examples():
    h = record_history(parse_node(3, "e"), parse_node(3, "1020"))
    assert [format_node(x) for x in h.nodes] == ["e", "10", "1020"]
    assert h.records == (1, 2)
    h.check()

    h = record_history(parse_node(2, "1"), parse_node(2, "101"))
    assert [format_node(x) for x in h.nodes] == ["1", "10", "101"]
    assert h.records == (0, 1)
    h.check()


def test_record_history_restarts_at_the_lower_node():
    # climbing from 2 only sees the suffix 01; the 2 below is irrelevant
    h = record_history(parse_node(3, "2"), parse_node(3, "201"))
    assert h.records == (0, 1)
    assert [format_node(x) for x in h.nodes] == ["2", "20", "201"]


def test_record_history_on_giant_runs():
    t = empty_node(3)
    s = node_from_runs(3, [(0, 2**100), (1, 2**200), (2, 1)])
    h = record_history(t, s)
    assert h.records == (0, 1, 2)
    assert [x.length for x in h.nodes] == [0, 2**100, 2**100 + 2**200, s.length]


@given(st.integers(2, 4).flatmap(lambda n: pair_strategy(n)))
def test_record_history_invariants(pair):
    t, s = pair
    if not strictly_below(t, s):
        s = t.concat(s).extend(0)
    h = record_history(t, s)
    h.check()
    assert h.nodes[0] == t and h.nodes[-1] == s
    assert h.records[0] == first_move(t, s)
    assert list(h.records) == sorted(set(h.records))


# ---------------------------------------------------------------------------
# closures


def naive_meet_closure(nodes):
    cur = set(nodes)
    while True:
        nxt = cur | {meet(a, b) for a in cur for b in cur}
        if nxt == cur:
            return cur
        cur = nxt


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(1, 5), st.integers(0, 10_000))
def test_meet_closure_matches_fixpoint(alphabet, size, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size)
    got = set(meet_closure(a).nodes)
    assert got == naive_meet_closure(a.nodes)
    assert got >= set(a.nodes)
    # closing again adds nothing
    assert set(meet_closure(meet_closure(a)).nodes) == got


def test_record_closure_worked_example():
    a = NodeSet.of(3, ["e", "1020"])
    assert [format_node(x) for x in a.record_closure_nodes] == ["e", "10", "1020"]


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 10_000))
def test_record_closure_is_closed(alphabet, size, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size, max_len=5)
    clo = record_closure(a)
    items = clo.sorted_nodes
    for x in items:
        for y in items:
            assert meet(x, y) in clo
            if strictly_below(x, y):
                for nd in record_history(x, y).nodes:
                    assert nd in clo
    assert set(record_closure(clo).nodes) == set(clo.nodes)
    assert set(clo.nodes) >= set(a.nodes)
    assert set(clo.nodes) >= set(meet_closure(a).nodes)


def fixpoint_record_closure(nodes):
    """Add pairwise meets and interior record nodes until nothing changes."""
    cur = set(nodes)
    while True:
        items = prec_sorted(cur)
        new = set()
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                new.add(meet(items[i], items[j]))
                if strictly_below(items[i], items[j]):
                    new.update(record_history(items[i], items[j]).nodes[1:-1])
        if new <= cur:
            return tuple(items)
        cur |= new


def test_record_closure_matches_fixpoint_on_type_witnesses():
    checked = 0
    for alphabet in (1, 2, 3):
        for tau in enumerate_types(alphabet):
            for blocks in (2, 3, 4):
                w = type_witness(tau, blocks)
                assert w.record_closure_nodes == fixpoint_record_closure(w.nodes), (tau, blocks)
                checked += 1
    assert checked == 3 * (1 + 8 + 61)


def test_record_closure_matches_fixpoint_on_seeded_corpus():
    rng = random.Random(1406)
    for _ in range(3000):
        alphabet = rng.randint(2, 4)
        a = random_node_set(rng, alphabet, rng.randint(1, 6), max_len=rng.randint(2, 7))
        assert a.record_closure_nodes == fixpoint_record_closure(a.nodes), format_node_set(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(1, 7), st.integers(0, 10_000))
def test_record_closure_matches_fixpoint(alphabet, size, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size, max_len=8)
    assert a.record_closure_nodes == fixpoint_record_closure(a.nodes)


# ---------------------------------------------------------------------------
# equivalence deciders vs the exhaustive oracle


def replay_witness(a: NodeSet, b: NodeSet, result: EquivalenceResult, record: bool) -> bool:
    """Independently re-check a witness bijection: meets, order, first moves,
    and that it maps the one underlying set onto the other."""
    if not result.equivalent or result.mapping is None:
        return False
    f = dict(result.mapping)
    ca = [p for p, _ in result.mapping]
    closure = set(a.record_closure_nodes if record else a.meet_closure_nodes)
    if set(ca) != closure:
        return False
    if {f[x] for x in a.nodes} != set(b.nodes):
        return False
    for i, x in enumerate(ca):
        for y in ca[:i]:
            if f[meet(x, y)] != meet(f[x], f[y]):
                return False
            if prec_compare(x, y) != prec_compare(f[x], f[y]):
                return False
            lo, hi = (x, y) if strictly_below(x, y) else (y, x)
            if strictly_below(lo, hi):
                if first_move(lo, hi) != first_move(f[lo], f[hi]):
                    return False
                if record:
                    ha = record_history(lo, hi)
                    hb = record_history(f[lo], f[hi])
                    if ha.records != hb.records:
                        return False
                    if tuple(f[nd] for nd in ha.nodes) != hb.nodes:
                        return False
    return True


def oracle_equivalent(a, b, record):
    """Try every bijection between the closures; no positional shortcut."""
    ca = a.record_closure_nodes if record else a.meet_closure_nodes
    cb = b.record_closure_nodes if record else b.meet_closure_nodes
    if len(ca) != len(cb):
        return False
    for perm in itertools.permutations(cb):
        f = dict(zip(ca, perm))
        if {f[x] for x in a.nodes} != set(b.nodes):
            continue
        ok = True
        for x in ca:
            for y in ca:
                if f[meet(x, y)] != meet(f[x], f[y]):
                    ok = False
                elif prec_compare(x, y) != prec_compare(f[x], f[y]):
                    ok = False
                elif strictly_below(x, y):
                    if first_move(x, y) != first_move(f[x], f[y]):
                        ok = False
                    elif record and record_history(x, y).records != record_history(
                        f[x], f[y]
                    ).records:
                        ok = False
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_equivalence_worked_examples():
    # padding along a chain changes nothing
    assert first_move_equivalent(NodeSet.of(2, ["1", "001"]), NodeSet.of(2, ["1", "00001"]))
    # a first move is part of the structure
    assert not first_move_equivalent(NodeSet.of(2, ["0", "00"]), NodeSet.of(2, ["0", "010"]))
    # same first move, different record pattern: only the finer relation sees it
    a, b = NodeSet.of(3, ["e", "10"]), NodeSet.of(3, ["e", "12"])
    assert first_move_equivalent(a, b)
    assert not record_equivalent(a, b)
    # record positions are immaterial, the record letters are not
    assert record_equivalent(NodeSet.of(3, ["e", "102"]), NodeSet.of(3, ["e", "12"]))
    assert not record_equivalent(NodeSet.of(3, ["e", "102"]), NodeSet.of(3, ["e", "101"]))


def test_equivalence_requires_matching_membership():
    # equal record closures, different underlying sets
    a = NodeSet.of(2, ["e", "0", "01"])
    b = NodeSet.of(2, ["e", "01"])  # record closure also {e, 0, 01}
    assert set(a.record_closure_nodes) == set(b.record_closure_nodes)
    assert not record_equivalent(a, b)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 10_000))
def test_decider_agrees_with_oracle(alphabet, size_a, size_b, record, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size_a, max_len=4)
    b = random_node_set(rng, alphabet, size_b, max_len=4)
    fast = record_equivalent(a, b) if record else first_move_equivalent(a, b)
    slow = oracle_equivalent(a, b, record)
    assert bool(fast) == slow
    if fast:
        assert replay_witness(a, b, fast, record=record)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.booleans(), st.integers(0, 10_000))
def test_reembed_preserves_structure(alphabet, size, record, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size)
    b = reembed(a, rng, record=record)
    res = record_equivalent(a, b) if record else first_move_equivalent(a, b)
    assert res
    assert replay_witness(a, b, res, record=record)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.booleans(), st.integers(0, 10_000))
def test_equivalence_relation_laws(alphabet, size, record, seed):
    rng = random.Random(seed)
    a = random_node_set(rng, alphabet, size, max_len=5)
    b = reembed(a, rng, record=record)
    c = reembed(b, rng, record=record)
    rel = record_equivalent if record else first_move_equivalent
    assert rel(a, a)
    assert bool(rel(a, b)) == bool(rel(b, a))
    assert rel(a, c)  # transitivity along the reembedding chain


# ---------------------------------------------------------------------------
# literals


def test_node_set_literals():
    a = parse_node_set(2, "{1, 001, e}")
    assert format_node_set(a) == "{e,1,001}"
    assert parse_node_set(2, "{}") == NodeSet.of(2, [])


# ---------------------------------------------------------------------------
# the tree kernel against the pairwise kernel it replaced
#
# The references below are the earlier implementations: every join and cut
# renormalises all runs, the meet closure takes every pairwise meet, the
# record closure tests every pair for comparability and builds its record
# history, and the structure table builds one meet per pair.


def reference_normalize(runs):
    out = []
    for letter, count in runs:
        if count < 0:
            raise ValueError(f"negative run count {count}")
        if count == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1][1] += count
        else:
            out.append([letter, count])
    return tuple((l, c) for l, c in out)


def reference_concat(a, b):
    return Node(a.alphabet, reference_normalize(a.runs + b.runs), a.length + b.length)


def reference_extend(a, letter, count):
    return Node(a.alphabet, reference_normalize(a.runs + ((letter, count),)), a.length + count)


def reference_repeat(a, times):
    if times == 0 or a.length == 0:
        return Node(a.alphabet, (), 0)
    return Node(a.alphabet, reference_normalize(a.runs * times), a.length * times)


def reference_suffix_from(a, start):
    skip, out = start, []
    for letter, count in a.runs:
        if skip >= count:
            skip -= count
            continue
        out.append((letter, count - skip))
        skip = 0
    return Node(a.alphabet, reference_normalize(out), a.length - start)


def reference_meet_closure(a):
    items = list(a.nodes)
    out = set(items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            out.add(meet(items[i], items[j]))
    return tuple(prec_sorted(out))


def reference_record_closure(a):
    items = reference_meet_closure(a)
    out = set(items)
    for i, lo in enumerate(items):
        for hi in items[i + 1 :]:
            if strictly_below(lo, hi):
                out.update(record_history(lo, hi).nodes[1:-1])
    return tuple(prec_sorted(out))


def reference_structure_table(closure, members):
    index = {nd: k for k, nd in enumerate(closure)}
    rows = []
    for j in range(len(closure)):
        for i in range(j):
            m = meet(closure[i], closure[j])
            u = -1 if m.length == closure[i].length else closure[i].letter_at(m.length)
            rows.append((index[m], u, closure[j].letter_at(m.length)))
    return (len(closure), tuple(rows), tuple(nd in members for nd in closure))


def assert_kernel_matches(a):
    meet_closure_nodes = reference_meet_closure(a)
    record_closure_nodes = reference_record_closure(a)
    assert a.meet_closure_nodes == meet_closure_nodes, format_node_set(a)
    assert a.record_closure_nodes == record_closure_nodes, format_node_set(a)
    for closure in (meet_closure_nodes, record_closure_nodes):
        assert tree_module._structure_table(closure, a.nodes) == reference_structure_table(
            closure, a.nodes
        ), format_node_set(a)


def assert_joins_match(a, b):
    assert a.concat(b) == reference_concat(a, b)
    assert a.repeat(3) == reference_repeat(a, 3)
    for letter in range(a.alphabet):
        assert a.extend(letter, 2) == reference_extend(a, letter, 2)
    for start in {0, a.length // 2, a.length}:
        assert suffix_from(a, start) == reference_suffix_from(a, start)


def test_kernel_matches_reference_on_seeded_corpus():
    rng = random.Random(2024)
    for _ in range(3000):
        alphabet = rng.randint(2, 3)
        a = random_node_set(rng, alphabet, rng.randint(1, 8), max_len=rng.randint(3, 7))
        assert_kernel_matches(a)
        items = a.sorted_nodes
        assert_joins_match(items[0], items[-1])


def test_kernel_matches_reference_on_type_witnesses():
    checked = 0
    for alphabet in (1, 2, 3):
        for tau in enumerate_types(alphabet):
            for blocks in (2, 3, 4):
                w = type_witness(tau, blocks)
                assert_kernel_matches(w)
                items = w.sorted_nodes
                assert_joins_match(items[-1], items[0])
                checked += 1
    assert checked == 3 * (1 + 8 + 61)


def domination_teeth():
    """Images of chains and witnesses under a domination map: thousands of
    runs, sharing long prefixes."""
    phi = domination_embedding(parse_type("[u0 u1 l1]", 2), parse_type("[l0 u1 l1]", 2))
    sets = [
        apply(phi, NodeSet.of(2, ["1", "01", "10", "100", "0001", "000001", "1000001"])),
        apply(phi, NodeSet.of(2, ["000001", "0000010", "00000100", "0000001"])),
        apply(phi, type_witness(parse_type("[l1]", 2), 4)),
    ]
    return sets


def test_kernel_matches_reference_on_domination_teeth():
    sets = domination_teeth()
    longest = max(len(x.runs) for a in sets for x in a.nodes)
    assert 2_000 < longest <= RUN_LIMIT
    for a in sets:
        assert_kernel_matches(a)
        items = a.sorted_nodes
        for x, y in zip(items, items[1:]):
            assert_joins_match(x, y)
            assert_joins_match(y, x)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n: st.lists(letters_strategy(n, max_len=7), min_size=1, max_size=7).map(
            lambda words: NodeSet.of(n, [node(n, w) for w in words])
        )
    )
)
def test_kernel_matches_reference(a):
    assert_kernel_matches(a)


@given(st.integers(2, 4).flatmap(lambda n: pair_strategy(n)), st.integers(0, 4))
def test_joins_match_reference(pair, times):
    a, b = pair
    assert a.concat(b) == reference_concat(a, b)
    assert a.repeat(times) == reference_repeat(a, times)
    assert a.extend(b.alphabet - 1, times) == reference_extend(a, b.alphabet - 1, times)
    start = min(times, a.length)
    assert suffix_from(a, start) == reference_suffix_from(a, start)


@given(st.integers(2, 4).flatmap(lambda n: pair_strategy(n)))
def test_lex_key_is_lexicographic(pair):
    s, t = pair
    assert (lex_key(s) < lex_key(t)) == (s.letters < t.letters)
    assert (lex_key(s) == lex_key(t)) == (s == t)


def reference_lex_compare(s, t):
    m = meet(s, t)
    if m.length == s.length or m.length == t.length:
        return (s.length > t.length) - (s.length < t.length)
    return -1 if s.letter_at(m.length) < t.letter_at(m.length) else 1


def test_lex_key_on_domination_teeth():
    # the teeth and every prefix of them that ends a run: long shared
    # prefixes, and run pairs that differ in count only
    teeth = {x for a in domination_teeth() for x in a.nodes}
    words = teeth | {x.prefix(x.length - x.runs[-1][1] // 2) for x in teeth}
    words |= {x.prefix(x.length - sum(c for _, c in x.runs[-k:])) for x in teeth for k in (1, 2, 3)}
    expected = sorted(words, key=functools.cmp_to_key(reference_lex_compare))
    assert sorted(words, key=lex_key) == expected


def test_negative_counts_raise():
    a = parse_node(2, "01")
    with pytest.raises(ValueError):
        a.extend(1, -1)
    with pytest.raises(ValueError):
        a.repeat(-1)
    with pytest.raises(ValueError):
        node_from_runs(2, [(0, 2), (1, -1)])
    assert a.extend(1, 0) == a


def test_kernel_builds_no_meets_and_renormalises_nothing(monkeypatch):
    calls = {"meet": 0, "_normalize_runs": 0}

    def counted(name):
        original = getattr(tree_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_module, name, wrapper)

    sets = [type_witness(tau, 4) for tau in enumerate_types(2)]
    sets += [random_node_set(random.Random(seed), 3, 6) for seed in range(20)]
    closures = [(c, a.nodes) for a in sets for c in (a.meet_closure_nodes, a.record_closure_nodes)]
    counted("meet")
    counted("_normalize_runs")
    for closure, members in closures:
        tree_module._structure_table(closure, members)
    assert calls["meet"] == 0
    for a in sets:
        items = a.sorted_nodes
        for x, y in zip(items, items[1:]):
            suffix_from(x.concat(y).extend(0, 2).extend(1).repeat(3), y.length // 2)
            suffix_from(y.repeat(2), 1)
    assert calls["_normalize_runs"] == 0
