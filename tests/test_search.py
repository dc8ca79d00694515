"""The candidate pools of the two searches, frozen entry by entry.

Each entry is ``(kind, label, action)``, the action written as the
catalogue indices (``type_id``) of the images of the domain types, in
domain catalogue order.  The dyadic catalogue is ``[l0]``, ``[l1]``,
``[l0 l1]``, ``[u0 l1]``, ``[u1 l0]``, ``[l0 u1 l1]``, ``[u0 u1 l1]``,
``[u1 l0 l1]``.  The breaking pool's order fixes every breaking witness and
the audit's ``optimality_checked``; the order pools fix every record-layer
order witness.  Both searches share one vocabulary of kinds and labels.
"""

import pytest

from adicgaps.breaking import DEFAULT_BREAK_BUDGET, candidate_pool
from adicgaps.embeddings import type_action
from adicgaps.gaps import generate_type_actions
from adicgaps.search import (
    DEFAULT_SEARCH_BUDGET,
    ORDER,
    RANGE,
    _build,
    _rule_action,
    dominations,
    revalidate,
)
from adicgaps.types import enumerate_types, type_id

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


def test_breaking_pool_pinned():
    assert _entries(candidate_pool(2, DEFAULT_BREAK_BUDGET)) == BREAK_POOL_2


def test_order_pool_2_2_pinned():
    assert _entries(generate_type_actions(2, 2)) == ORDER_POOL_2_2


def test_order_pool_1_2_pinned():
    assert _entries(generate_type_actions(1, 2)) == ORDER_POOL_1_2


@pytest.mark.parametrize(
    "pool,budget,policy",
    [
        (lambda: candidate_pool(2, DEFAULT_BREAK_BUDGET), DEFAULT_BREAK_BUDGET, RANGE),
        (lambda: generate_type_actions(2, 2), DEFAULT_SEARCH_BUDGET, ORDER),
    ],
    ids=["breaking", "order"],
)
def test_pool_candidates_revalidate_from_their_payloads(pool, budget, policy):
    # every candidate rebuilds from its payload alone, domination actions
    # with an upper-row padding type included
    for cand in pool():
        assert revalidate(cand, budget, policy), cand.label


def test_every_domination_construction_probes_to_its_rule():
    # all 25 dyadic dominations, upper-row padding types included: the built
    # map's probed values agree with the defining rule, and the chain type
    # is always probed, landing on the padding type
    candidates = list(dominations(2, 2))
    assert len(candidates) == 25
    chain = enumerate_types(2)[0]
    for cand in candidates:
        probed = type_action(_build(cand.payload, DEFAULT_SEARCH_BUDGET.domain_depth)).probed()
        rule = dict(_rule_action(cand.payload))
        assert chain in probed, cand.label
        assert {tau: rule[tau] for tau in probed} == probed, cand.label
