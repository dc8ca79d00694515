"""The candidate pools of the two searches, frozen entry by entry.

Each entry is ``(kind, label, action)``, the action written as the
catalogue indices (``type_id``) of the images of the domain types, in
domain catalogue order.  The dyadic catalogue is ``[l0]``, ``[l1]``,
``[l0 l1]``, ``[u0 l1]``, ``[u1 l0]``, ``[l0 u1 l1]``, ``[u0 u1 l1]``,
``[u1 l0 l1]``.  The breaking pool's order fixes every breaking witness and
the audit's ``optimality_checked``; the order pools fix every record-layer
order witness.  Both searches share one vocabulary of kinds and labels.
"""

import gc
import itertools
import json
import random
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest

import adicgaps.tree as tree_module
from adicgaps import embeddings, search
from adicgaps.combs import (
    CombKind,
    _comb_classes,
    classify_comb,
    comb_kinds,
    comb_witness,
    enumerate_efamilies,
)
from adicgaps.embeddings import (
    PROBE_BLOCKS,
    REPLAY_DEPTH,
    REPLAY_SAMPLES,
    STABLE,
    OutOfDomain,
    SubstitutionEmbedding,
    TabulatedEmbedding,
    ValidationFailure,
    apply,
    domination_embedding,
    max_monotone,
    psi_map,
    read,
    realize_efamily,
    replay_fixture,
    structural_replay,
    type_action,
    type_witness,
)
from adicgaps.gaps import generate_type_actions
from adicgaps.search import (
    DOMAIN_DEPTHS,
    ORDER,
    RANGE,
    SUBSTITUTION_BLOCKS,
    _build,
    _domination_types,
    _rule_action,
    admit,
    block_tuples,
    candidate_pool,
    dominations,
    efamilies,
    probe,
    revalidate,
)
from adicgaps.tree import (
    ScaleLimit,
    empty_node,
    first_move_equivalent,
    first_move_table,
    format_node,
    node_from_runs,
    parse_node,
    prec_compare,
    random_node_set,
    record_table,
    reembed,
    words_upto,
)
from adicgaps.types import (
    _type_classes,
    classify_type,
    enumerate_types,
    parse_type,
    print_type,
    same_type_probes,
    type_id,
)

from helpers import parse_node_set, reference_classify

BREAK_POOL_2 = (
    ("subalphabet", "iota=0", (0,)),
    ("subalphabet", "iota=1", (1,)),
    ("subalphabet", "iota=0,1", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00", (0,)),
    ("substitution", "blocks=01", (2,)),
    ("substitution", "blocks=10", (1,)),
    ("substitution", "blocks=11", (1,)),
    ("substitution", "blocks=000", (0,)),
    ("substitution", "blocks=001", (2,)),
    ("substitution", "blocks=010", (2,)),
    ("substitution", "blocks=011", (2,)),
    ("substitution", "blocks=100", (1,)),
    ("substitution", "blocks=101", (1,)),
    ("substitution", "blocks=110", (1,)),
    ("substitution", "blocks=111", (1,)),
    ("substitution", "blocks=00,10", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,11", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=01,10", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=01,11", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=10,11", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=00,010", (0, 2, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,011", (0, 2, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,100", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,101", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,110", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=00,111", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=01,011", (2, 2, 2, 1, 5, 5, 6, 5)),
    ("substitution", "blocks=01,100", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=01,101", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=01,110", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=01,111", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=10,110", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=10,111", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=000,100", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=000,101", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=000,110", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=000,111", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=001,010", (2, 2, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=001,011", (2, 2, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=001,100", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=001,101", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=001,110", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=001,111", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=010,100", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=010,101", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=010,110", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=010,111", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=011,100", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=011,101", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=011,110", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=011,111", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=100,101", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=100,110", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=100,111", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("substitution", "blocks=101,110", (1, 1, 1, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=101,111", (1, 1, 1, 6, 5, 5, 6, 5)),
    ("substitution", "blocks=110,111", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("efamily", "e_inf=;e=00", (0,)),
    ("efamily", "e_inf=;e=10", (1,)),
    ("efamily", "e_inf=1;e=00", (4,)),
    ("efamily", "e_inf=0;e=10", (3,)),
    ("domination", "tau0=[l0],tau1=[u0 l1]", (0, 3, 3, 3, 3, 3, 3, 3)),
    ("domination", "tau0=[l0],tau1=[u1 l0]", (0, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l1],tau1=[u1 l0]", (1, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0 l1],tau1=[u1 l0]", (2, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u0 l1],tau1=[u1 l0]", (3, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u1 l0],tau1=[u1 l0]", (4, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0 u1 l1],tau1=[u1 l0]", (5, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u0 u1 l1],tau1=[u1 l0]", (6, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u1 l0 l1],tau1=[u1 l0]", (7, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0],tau1=[l0 u1 l1]", (0, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l1],tau1=[l0 u1 l1]", (1, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0 l1],tau1=[l0 u1 l1]", (2, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u0 l1],tau1=[l0 u1 l1]", (3, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u1 l0],tau1=[l0 u1 l1]", (4, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0 u1 l1],tau1=[l0 u1 l1]", (5, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u0 u1 l1],tau1=[l0 u1 l1]", (6, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u1 l0 l1],tau1=[l0 u1 l1]", (7, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0],tau1=[u0 u1 l1]", (0, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l1],tau1=[u0 u1 l1]", (1, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l0 l1],tau1=[u0 u1 l1]", (2, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u0 l1],tau1=[u0 u1 l1]", (3, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u1 l0],tau1=[u0 u1 l1]", (4, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l0 u1 l1],tau1=[u0 u1 l1]", (5, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u0 u1 l1],tau1=[u0 u1 l1]", (6, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u1 l0 l1],tau1=[u0 u1 l1]", (7, 6, 6, 6, 6, 6, 6, 6)),
)

ORDER_POOL_2_2 = (
    ("subalphabet", "iota=0,1", (0, 1, 2, 3, 4, 5, 6, 7)),
    ("substitution", "blocks=01,10", (2, 1, 2, 6, 5, 5, 6, 5)),
    ("efamily", "e_inf=0;e=000,100", (0, 3, 2, 3, 4, 5, 6, 7)),
    ("efamily", "e_inf=0;e=010,100", (1, 3, 1, 6, 5, 5, 6, 5)),
    ("efamily", "e_inf=00;e=010,100", (3, 3, 3, 6, 5, 5, 6, 5)),
    ("efamily", "e_inf=;e=000,010", (0, 2, 2, 3, 4, 5, 6, 7)),
    ("efamily", "e_inf=;e=100,110", (1, 1, 1, 3, 5, 5, 6, 5)),
    ("efamily", "e_inf=0;e=100,110", (3, 3, 3, 3, 5, 5, 6, 5)),
    ("efamily", "e_inf=0;e=100,010", (3, 1, 3, 5, 6, 6, 5, 6)),
    ("efamily", "e_inf=00;e=100,010", (3, 3, 3, 5, 6, 6, 5, 6)),
    ("domination", "tau0=[l0],tau1=[u0 l1]", (0, 3, 3, 3, 3, 3, 3, 3)),
    ("domination", "tau0=[l0],tau1=[u1 l0]", (0, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l1],tau1=[u1 l0]", (1, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0 l1],tau1=[u1 l0]", (2, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u0 l1],tau1=[u1 l0]", (3, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u1 l0],tau1=[u1 l0]", (4, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0 u1 l1],tau1=[u1 l0]", (5, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u0 u1 l1],tau1=[u1 l0]", (6, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[u1 l0 l1],tau1=[u1 l0]", (7, 4, 4, 4, 4, 4, 4, 4)),
    ("domination", "tau0=[l0],tau1=[l0 u1 l1]", (0, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l1],tau1=[l0 u1 l1]", (1, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0 l1],tau1=[l0 u1 l1]", (2, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u0 l1],tau1=[l0 u1 l1]", (3, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u1 l0],tau1=[l0 u1 l1]", (4, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0 u1 l1],tau1=[l0 u1 l1]", (5, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u0 u1 l1],tau1=[l0 u1 l1]", (6, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[u1 l0 l1],tau1=[l0 u1 l1]", (7, 5, 5, 5, 5, 5, 5, 5)),
    ("domination", "tau0=[l0],tau1=[u0 u1 l1]", (0, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l1],tau1=[u0 u1 l1]", (1, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l0 l1],tau1=[u0 u1 l1]", (2, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u0 l1],tau1=[u0 u1 l1]", (3, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u1 l0],tau1=[u0 u1 l1]", (4, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[l0 u1 l1],tau1=[u0 u1 l1]", (5, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u0 u1 l1],tau1=[u0 u1 l1]", (6, 6, 6, 6, 6, 6, 6, 6)),
    ("domination", "tau0=[u1 l0 l1],tau1=[u0 u1 l1]", (7, 6, 6, 6, 6, 6, 6, 6)),
)

ORDER_POOL_1_2 = (
    ("subalphabet", "iota=0", (0,)),
    ("subalphabet", "iota=1", (1,)),
    ("substitution", "blocks=01", (2,)),
    ("efamily", "e_inf=1;e=00", (4,)),
    ("efamily", "e_inf=0;e=10", (3,)),
)


def _entries(candidates):
    return tuple(
        (c.kind, c.label, tuple(type_id(sigma) for _, sigma in c.action))
        for c in candidates
    )


def _break_pool_2():
    return candidate_pool(range(1, 3), 2, RANGE)


def test_breaking_pool_pinned():
    assert _entries(_break_pool_2()) == BREAK_POOL_2


def test_order_pool_2_2_pinned():
    assert _entries(generate_type_actions(2, 2)) == ORDER_POOL_2_2


def test_order_pool_1_2_pinned():
    assert _entries(generate_type_actions(1, 2)) == ORDER_POOL_1_2


@pytest.mark.parametrize(
    "pool,policy",
    [
        (_break_pool_2, RANGE),
        (lambda: generate_type_actions(2, 2), ORDER),
    ],
    ids=["breaking", "order"],
)
def test_pool_candidates_revalidate_from_their_payloads(pool, policy):
    # every candidate rebuilds from its payload alone, domination actions
    # with an upper-row padding type included
    for cand in pool():
        assert revalidate(cand, policy), cand.label


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "subalphabet", "alphabet_out": 2},
        {"kind": "subalphabet", "iota": [0, 1]},
        {"kind": "subalphabet", "iota": "ab", "alphabet_out": 2},
        {"kind": "domination", "tau1": "[u0 u1 l1]"},
        {"kind": "domination", "tau0": "[l9]", "tau1": "[u0 u1 l1]"},
        {"kind": "domination", "tau0": 5, "tau1": "[u0 u1 l1]"},
    ],
    ids=["no-iota", "no-alphabet-out", "string-iota", "no-tau0", "bad-tau0", "int-tau0"],
)
def test_malformed_rule_payload_fails_revalidation(payload):
    # refused like a malformed probed payload, never raised on
    witness = next(dominations(2, 2))
    assert revalidate(witness, ORDER)
    assert not revalidate(replace(witness, kind=payload["kind"], payload=payload), ORDER)


def test_every_domination_construction_probes_to_its_rule():
    # all 25 dyadic dominations, upper-row padding types included: the built
    # map's probed values agree with the defining rule, and the chain type
    # is always probed, landing on the padding type
    candidates = list(dominations(2, 2))
    assert len(candidates) == 25
    chain = enumerate_types(2)[0]
    for cand in candidates:
        phi = domination_embedding(
            *_domination_types(cand.payload), DOMAIN_DEPTHS[ORDER]
        )
        probed = type_action(phi).probed()
        rule = dict(_rule_action(cand.payload))
        assert chain in probed, cand.label
        assert {tau: rule[tau] for tau in probed} == probed, cand.label


# --------------------------------------------------------------------------
# one candidate pool, one substitution order


def eager_block_tuples(m_in, m_out):
    """The substitution order as one sorted list: the oracle of the lazy
    :func:`block_tuples`."""
    words = words_upto(m_out, SUBSTITUTION_BLOCKS)
    tuples = [
        blocks
        for blocks in itertools.product(words, repeat=m_in)
        if not all(b.length == 1 for b in blocks)
    ]
    return sorted(
        tuples,
        key=lambda blocks: (
            max(b.length for b in blocks),
            sum(b.length for b in blocks),
            tuple(b.letters for b in blocks),
        ),
    )


def reference_order_pool(m_in, m_out):
    """The order pool with its substitutions in ``itertools.product`` order,
    single letters included, deduplicated by action."""

    def product_substitutions():
        for blocks in itertools.product(words_upto(m_out, SUBSTITUTION_BLOCKS), repeat=m_in):
            phi = SubstitutionEmbedding(empty_node(m_out), blocks)
            if phi.injective:
                label = "blocks=" + ",".join(search._digits(b) for b in blocks)
                yield from search._probed(label, phi.to_json(), ORDER)

    out, seen = [], set()
    for cand in itertools.chain(
        search.subalphabets(m_in, m_out),
        product_substitutions(),
        efamilies(m_in, m_out, ORDER),
        dominations(m_in, m_out),
    ):
        if cand.action not in seen:
            seen.add(cand.action)
            out.append(cand)
    return tuple(out)


@pytest.mark.parametrize(
    "m_in, m_out",
    [(m_in, m_out) for m_in in (1, 2, 3) for m_out in (1, 2, 3)] + [(1, 4), (2, 4)],
)
def test_block_tuples_equal_the_sorted_list(m_in, m_out):
    assert list(block_tuples(m_in, m_out)) == eager_block_tuples(m_in, m_out)


@pytest.mark.parametrize("m_in, m_out", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_order_pool_equals_the_product_order_pool(m_in, m_out):
    # the substitution order moves no action, label or position
    assert _entries(generate_type_actions(m_in, m_out)) == _entries(
        reference_order_pool(m_in, m_out)
    )


def test_block_tuples_are_generated_as_drawn():
    # sorting all 84**3 triples over alphabet 4 as one list peaks at 235 MB
    tracemalloc.start()
    try:
        first = list(itertools.islice(block_tuples(3, 4), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 1000 and peak < 1 << 20


def test_pool_refuses_alphabet_four_at_its_first_probed_candidate(monkeypatch):
    # alphabet 4 has no same-type pool; with domains 1-3 emptied, the
    # refusal comes at the first injective domain-4 tuple, the 156th drawn,
    # and no later tuple is built
    drawn = Counter()
    original = search.block_tuples

    def counted(m_in, m_out):
        for blocks in original(m_in, m_out) if m_in == 4 else ():
            drawn[m_in] += 1
            yield blocks

    monkeypatch.setattr(search, "block_tuples", counted)
    with pytest.raises(ScaleLimit, match="no same-type pool over alphabet 4"):
        list(candidate_pool(range(1, 5), 4, RANGE))
    first_probed = next(
        i
        for i, blocks in enumerate(original(4, 4), 1)
        if SubstitutionEmbedding(empty_node(4), blocks).injective
    )
    assert drawn[4] == first_probed == 156


# --------------------------------------------------------------------------
# the probe record against the per-policy admission it replaced


def reference_structural_replay(phi, rng, sample_sets=None):
    """The replay loop that draws its samples and re-embeddings for every
    map: the oracle of the cached fixture.  Returns how many samples and
    pairs it read."""
    violations = []
    checked = 0
    n = phi.domain_alphabet
    if sample_sets is None:
        samples = [
            random_node_set(rng, n, rng.randint(2, 5), max_len=REPLAY_DEPTH)
            for _ in range(REPLAY_SAMPLES)
        ]
    else:
        samples = list(sample_sets)
    for k, a in enumerate(samples):
        images = {s: phi.map_node(s) for s in a.sorted_nodes}
        items = list(images)
        for i, s in enumerate(items):
            for t in items[:i]:
                checked += 1
                if images[s] == images[t]:
                    violations.append(f"collision: {s!r} and {t!r}")
                if prec_compare(s, t) != prec_compare(images[s], images[t]):
                    violations.append(f"order flip: {s!r} vs {t!r}")
        if sample_sets is None:
            b = reembed(a, rng)
            if first_move_equivalent(a, b):
                if not first_move_equivalent(apply(phi, a), apply(phi, b)):
                    violations.append(f"equivalence lost on sample {k}")
    if violations:
        raise ValidationFailure("; ".join(violations[:3]))
    return len(samples), checked


def reference_replay(phi):
    """The search's replay with every sample drawn afresh for the map:
    tabulated maps on the random samples alone, substitutions with
    re-embeddings."""
    rng = random.Random(0)
    samples = None
    if isinstance(phi, TabulatedEmbedding):
        samples = [
            random_node_set(rng, phi.domain_alphabet, rng.randint(2, 5), max_len=REPLAY_DEPTH)
            for _ in range(REPLAY_SAMPLES)
        ]
    return reference_structural_replay(phi, rng, sample_sets=samples)


def reference_admissible_action(phi, policy):
    """Per-policy admission, probing ``phi`` afresh for each policy."""
    mapping = dict(type_action(phi).mapping)
    if len(mapping) != len(enumerate_types(phi.domain_alphabet)):
        return None
    if policy == ORDER:
        if not max_monotone(mapping):
            return None
        try:
            reference_replay(phi)
        except ValueError:
            return None
    for tau, samples in same_type_probes(phi.domain_alphabet).items():
        for sample in samples:
            try:
                if classify_type(apply(phi, sample)) != mapping[tau]:
                    return None
            except ValueError:  # unmappable or unclassifiable: refuted
                return None
    return tuple(sorted(mapping.items(), key=lambda pair: type_id(pair[0])))


def _outcome(replay, *args):
    """What a replay returns, or the message it failed with."""
    try:
        return replay(*args)
    except ValidationFailure as ex:
        return str(ex)


def _probed_payloads(pools):
    """Every probed payload the pools generate, in generation order."""
    seen = {}
    original = search._memoized_probe

    def spy(payload_json):
        seen.setdefault(payload_json, None)
        return original(payload_json)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_memoized_probe", spy)
        for pool in pools:
            list(pool())
    return [json.loads(text) for text in seen]


@lru_cache(maxsize=None)
def _admission_payloads():
    return _probed_payloads([
        _break_pool_2,
        lambda: generate_type_actions.__wrapped__(2, 2),
        lambda: generate_type_actions.__wrapped__(1, 2),
        lambda: generate_type_actions.__wrapped__(2, 1),
    ])


def test_probed_payloads_cover_both_probed_kinds():
    kinds = Counter(payload["kind"] for payload in _admission_payloads())
    assert set(kinds) == {"substitution", "efamily"}
    assert kinds["substitution"] > 100 and kinds["efamily"] > 10


def test_record_admission_equals_per_policy_admission():
    admitted = Counter()
    for payload in _admission_payloads():
        try:
            phi = _build(payload)
        except ValueError:
            continue
        action = probe(phi)
        # the search reads the memoized action of the same payload
        assert search._memoized_probe(json.dumps(payload, sort_keys=True)) == action
        for policy in (RANGE, ORDER):
            expected = reference_admissible_action(phi, policy)
            assert admit(action, policy, lambda: phi) == expected, (policy, payload)
            admitted[policy] += expected is not None
    assert admitted[RANGE] > admitted[ORDER] > 20
    # no pooled sample leaves a pool map's domain; this map's samples do,
    # and both the probe and the reference refute it under both policies
    phi = _witness_words_only(2)
    for policy in (RANGE, ORDER):
        assert admit(probe(phi), policy, lambda: phi) == reference_admissible_action(phi, policy)


def _replay_maps():
    """Every injective substitution at (1, 2) and (2, 2), and the e-family
    realizations the order pools generate."""
    words = words_upto(2, SUBSTITUTION_BLOCKS)
    for m_in in (1, 2):
        for blocks in itertools.product(words, repeat=m_in):
            phi = SubstitutionEmbedding(empty_node(2), tuple(blocks))
            if phi.injective:
                yield phi
    for m_in in (1, 2):
        for cand in efamilies(m_in, 2, ORDER):
            yield _build(cand.payload)


def test_cached_fixture_replay_equals_per_map_replay(monkeypatch):
    # a passing replay returns nothing, so the pairs it read are counted
    # through its order comparisons
    compared = []

    def counted(s, t):
        compared.append((s, t))
        return prec_compare(s, t)

    monkeypatch.setattr(embeddings, "prec_compare", counted)
    failed = passed = 0
    for phi in _replay_maps():
        fixture = search._replay_fixture(phi.domain_alphabet, isinstance(phi, TabulatedEmbedding))
        expected = _outcome(reference_replay, phi)
        compared.clear()
        got = _outcome(structural_replay, phi, fixture)
        if isinstance(expected, str):
            assert got == expected, phi
        else:
            assert got is None and (len(fixture), len(compared)) == expected, phi
        assert search._survives_replay(phi) == (got is None)
        failed += isinstance(expected, str)
        passed += got is None
    assert failed > 10 and passed > 10


def test_fixture_drops_a_reembedding_that_is_not_equivalent(monkeypatch):
    # a re-embedding that lost the sample's structure is compared with nothing
    sample = parse_node_set(2, "{0,10,11}")
    chain = parse_node_set(2, "{0,00,000}")
    monkeypatch.setattr(embeddings, "reembed", lambda a, rng: chain)
    (kept,) = replay_fixture([sample], random.Random(0))
    assert kept.reembedded is None
    monkeypatch.setattr(embeddings, "reembed", lambda a, rng: sample)
    (kept,) = replay_fixture([sample], random.Random(0))
    assert kept.reembedded == sample


# --------------------------------------------------------------------------
# one probe per payload


def _counting(monkeypatch, module, name, calls=None):
    """Count the calls of ``module.name`` into ``calls`` (a new Counter by
    default), which is returned."""
    calls = Counter() if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _swap_blocks_payload():
    """The payload of the substitution ``0 -> 01, 1 -> 10``."""
    blocks = (node_from_runs(2, [(0, 1), (1, 1)]), node_from_runs(2, [(1, 1), (0, 1)]))
    return SubstitutionEmbedding(empty_node(2), blocks).to_json()


def test_both_policies_read_one_probe(monkeypatch):
    search._memoized_probe.cache_clear()
    calls = _counting(monkeypatch, search, "probe")
    (broken,) = search._probed("blocks=01,10", _swap_blocks_payload(), RANGE)
    (ordered,) = search._probed("blocks=01,10", _swap_blocks_payload(), ORDER)
    assert broken.action == ordered.action
    assert calls["probe"] == 1
    # revalidation recomputes from the payload and never reads the memo
    assert revalidate(ordered, ORDER)
    assert calls["probe"] == 2


@pytest.mark.parametrize(
    "blocks, refuted_at",
    [
        # the letter swap maps [l0]'s witness onto some type, but a pooled
        # [l0] sample elsewhere
        (("1", "0"), "[l0]"),
        (("0", "01"), "[l1]"),
        (("01", "010"), "[u0 l1]"),
        (("00", "01"), "[l0 u1 l1]"),
        (("10", "1011"), "[u0 u1 l1]"),
    ],
)
def test_probe_stops_at_the_first_refuting_sample(monkeypatch, blocks, refuted_at):
    # each earlier type is read at both witness sizes, the refuted type at
    # the first only, and no witness of a later type is built
    phi = SubstitutionEmbedding(empty_node(2), tuple(parse_node(2, b) for b in blocks))
    built = []
    original = embeddings.type_witness
    monkeypatch.setattr(
        embeddings,
        "type_witness",
        lambda tau, size: built.append((print_type(tau), size)) or original(tau, size),
    )
    assert probe(phi) is None
    earlier = [print_type(tau) for tau in enumerate_types(2)]
    earlier = earlier[: earlier.index(refuted_at)]
    sizes = (PROBE_BLOCKS, PROBE_BLOCKS + 1)
    assert built == [(t, n) for t in earlier for n in sizes] + [(refuted_at, PROBE_BLOCKS)]
    # the witness alone reads stably: a sample, not the witness, refuted it
    assert read(phi, parse_type(refuted_at, 2))[0] == STABLE
    assert reference_admissible_action(phi, RANGE) is None


def test_pooled_samples_fit_every_tabulated_domain():
    # a sample that cannot be mapped refutes the map; the searches never
    # meet one, since every pooled sample is shorter than the shallowest
    # domain they tabulate
    depth = min(DOMAIN_DEPTHS.values())
    lengths = [
        s.length
        for m in (1, 2, 3)
        for samples in same_type_probes(m).values()
        for sample in samples
        for s in sample.sorted_nodes
    ]
    assert lengths and max(lengths) < depth


def _witness_words_only(m):
    """The identity on the words of the type witnesses over alphabet m, at
    both probe sizes; every other word is out of its domain."""
    words = {
        s
        for tau in enumerate_types(m)
        for size in (PROBE_BLOCKS, PROBE_BLOCKS + 1)
        for s in type_witness(tau, size).sorted_nodes
    }

    def fn(s):
        if s not in words:
            raise OutOfDomain(f"{format_node(s)} is no witness word")
        return s

    return TabulatedEmbedding(m, m, max(s.length for s in words), fn)


def _leaves_domain(phi, sample):
    try:
        apply(phi, sample)
    except OutOfDomain:
        return True
    return False


@pytest.mark.parametrize("witnessed", [False, True])
def test_a_sample_outside_the_domain_refutes_under_both_policies(witnessed):
    # the identity of depth 1 maps no witness either; the identity on the
    # witness words reads every witness stably, so only its samples refute it
    if witnessed:
        phi = _witness_words_only(2)
        assert all(read(phi, tau) == (STABLE, tau) for tau in enumerate_types(2))
    else:
        phi = TabulatedEmbedding(2, 2, 1, lambda s: s)
    samples = [sample for pool in same_type_probes(2).values() for sample in pool]
    assert any(_leaves_domain(phi, sample) for sample in samples)
    assert probe(phi) is None
    for policy in (RANGE, ORDER):
        assert admit(probe(phi), policy, lambda: phi) is None


def test_probe_over_an_alphabet_with_no_pool_refuses():
    # alphabet 4 has no same-type pool: its ScaleLimit must reach the
    # caller, not refute the map as a sample that fails would
    blocks = tuple(parse_node(2, text) for text in ("00", "01", "10", "11"))
    phi = SubstitutionEmbedding(empty_node(2), blocks)
    assert phi.domain_alphabet == 4 and phi.injective
    with pytest.raises(ScaleLimit, match="no same-type pool over alphabet 4"):
        probe(phi)


def test_replay_samples_are_drawn_once_per_alphabet(monkeypatch):
    search._replay_fixture(2, False)
    calls = _counting(monkeypatch, embeddings, "reembed")
    _counting(monkeypatch, search, "random_node_set", calls)
    assert search._survives_replay(psi_map(2))
    assert not calls


def test_memo_keeps_no_embedding(monkeypatch):
    search._memoized_probe.cache_clear()
    built = []
    original = search._build

    def tracked(payload):
        phi = original(payload)
        built.append(weakref.ref(phi))
        return phi

    monkeypatch.setattr(search, "_build", tracked)
    for policy in (RANGE, ORDER):
        assert list(search._probed("blocks=01,10", _swap_blocks_payload(), policy))
        assert list(efamilies(1, 2, policy))
    assert len(built) > 2
    gc.collect()
    assert all(ref() is None for ref in built)


# --------------------------------------------------------------------------
# the classification memo on the probe stream


LAYERS = (
    (classify_comb, _comb_classes, first_move_table),
    (classify_type, _type_classes, record_table),
)


def _classified(classify, a, *layer):
    try:
        return classify(a, *layer)
    except ValueError as ex:
        return type(ex).__name__, str(ex)


def _memo_corpus():
    """Every type witness at alphabets 1-3 and 3-6 blocks, the pooled
    same-type samples mapped through every payload the breaking and order
    pools probe, and the comb witness images at 4 and 5 blocks of the
    audit's 31 exhaustive e-families."""
    corpus = [
        type_witness(tau, blocks)
        for alphabet in (1, 2, 3)
        for tau in enumerate_types(alphabet)
        for blocks in range(3, 7)
    ]
    for payload in _admission_payloads():
        try:
            phi = _build(payload)
        except ValueError:
            continue
        for samples in same_type_probes(phi.domain_alphabet).values():
            for sample in samples:
                try:
                    corpus.append(apply(phi, sample))
                except ValueError:  # out of the domain or scale
                    continue
    families = [
        fam for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)) for fam in enumerate_efamilies(n, m)
    ]
    assert len(families) == 31
    for fam in families:
        phi = realize_efamily(fam)
        corpus += [
            apply(phi, comb_witness(kind, blocks, fam.n))
            for kind in comb_kinds(fam.n)
            for blocks in (PROBE_BLOCKS, PROBE_BLOCKS + 1)
        ]
    return [a for a in corpus if len(a) >= 3]


def test_memoized_classify_equals_per_call_classify():
    # answers, refusals and their messages, on both layers, cold and then
    # warm in reverse order, where the memo answers most lookups
    corpus = _memo_corpus()
    expected = [[_classified(reference_classify, a, *layer) for _, *layer in LAYERS] for a in corpus]
    seen = Counter()
    tree_module._matches.cache_clear()
    for order in (range(len(corpus)), reversed(range(len(corpus)))):
        hits = tree_module._matches.cache_info().hits
        for k in order:
            for (classify, *_), want in zip(LAYERS, expected[k]):
                got = _classified(classify, corpus[k])
                assert got == want, (classify.__name__, corpus[k])
                seen[got[0] if isinstance(got, tuple) else type(got).__name__] += 1
        assert tree_module._matches.cache_info().hits > hits
    assert set(seen) == {"CombKind", "TypeDescriptor", "NotHomogeneous", "AmbiguousTruncation"}, seen


def test_memo_keeps_the_layers_apart():
    # a 0-chain is both a comb witness and a type witness: keyed without its
    # classes and table, the memo would give the second layer the first's
    # symbol
    chain = comb_witness(CombKind(0, 0), 4, 2)
    for first, second in ((classify_comb, classify_type), (classify_type, classify_comb)):
        tree_module._matches.cache_clear()
        got = {classify: classify(chain) for classify in (first, second)}
        assert got[classify_comb] == CombKind(0, 0)
        assert got[classify_type] == parse_type("[l0]", 2)


def test_memo_stays_bounded_over_a_pool_walk():
    # the breaking pool at m = 2 makes more distinct lookups than the memo
    # holds; it keeps its bound and still answers repeats
    search._memoized_probe.cache_clear()
    tree_module._matches.cache_clear()
    list(candidate_pool(range(1, 3), 2, RANGE))
    info = tree_module._matches.cache_info()
    assert info.misses > info.maxsize >= info.currsize
    assert info.hits > 0
