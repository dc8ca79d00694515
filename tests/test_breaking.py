"""Breaking-layer tests: witness search, revalidation, audits, two-element
breaking and the preservation lemma.

Expected values were produced by probing oracles in a scratch harness before
this suite was written, then frozen here; search order is deterministic, so
witness identities are exact expectations, not regressions of convenience.
"""

import itertools
import random
import threading
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adicgaps.breaking as breaking_module
from adicgaps.breaking import (
    BROKEN_WITNESSED,
    NOT_BROKEN_BOUNDED,
    break_check,
    jbreak_optimality_check,
    jigsaw_audit,
    record_three_gap,
    revalidate_break,
)
from adicgaps.embeddings import psi_map
from adicgaps.gaps import (
    RECORD,
    GapSpec,
    critical_record_gap,
    enumerate_candidates_record,
    max_partition_gap,
)
from adicgaps.runtime import canonical_json
from adicgaps.search import ORDER, RANGE, admit, budget_json, candidate_pool, probe
from adicgaps.tree import ScaleLimit
from adicgaps.types import enumerate_types, j_count, parse_type, print_type

from helpers import RETIRED_POOL_VARIABLE, critical_strong_gap

DELTA = record_three_gap()


def record_gap(*sides):
    return GapSpec.from_json({"layer": RECORD, "n": len(sides), "m": 2, "sides": list(sides)})


class TestBreakQuery:
    """A question ``break_check`` cannot answer is refused before any
    candidate is drawn."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("candidate_pool drawn for a refused question")

        monkeypatch.setattr(breaking_module, "candidate_pool", refuse)

    def test_rejects_first_move_layer(self):
        with pytest.raises(ValueError, match="^breaking analysis applies to record-layer gaps$"):
            break_check(critical_strong_gap(2), {0})

    def test_rejects_empty_side_set(self):
        with pytest.raises(ValueError, match="^broken_sides must be nonempty$"):
            break_check(DELTA, set())

    def test_rejects_out_of_range_indices(self):
        message = r"^broken_sides \[0, 3\] not a subset of side indices 0\.\.2$"
        with pytest.raises(ValueError, match=message):
            break_check(DELTA, {0, 3})

    def test_budget_json_echo(self):
        # the fixed extent of each search, as every answer states it
        assert budget_json(ORDER) == {
            "efamily_letters": 12,
            "probe": {
                "comb_blocks": 4,
                "domain_depth": 64,
                "replay_depth": 6,
                "replay_samples": 20,
                "run_limit": 20000,
                "type_blocks": 4,
            },
            "substitution_blocks": 3,
        }
        assert budget_json(RANGE) == {
            "efamily_letters": 12,
            "probe": {
                "comb_blocks": 4,
                "domain_depth": 40,
                "replay_depth": 6,
                "replay_samples": 20,
                "run_limit": 20000,
                "type_blocks": 4,
            },
            "substitution_blocks": 3,
        }


class TestBreakCheckOnThreeGap:
    """The canonical partial-breaking instance, side by side with its table."""

    def test_single_side_witnesses(self):
        for side, kind, label in [
            (0, "subalphabet", "iota=0"),
            (1, "subalphabet", "iota=1"),
            (2, "substitution", "blocks=01"),
        ]:
            answer = break_check(DELTA, {side})
            assert answer.verdict == BROKEN_WITNESSED
            assert (answer.witness.kind, answer.witness.label) == (kind, label)
            assert revalidate_break(DELTA, {side}, answer)

    def test_pair_with_two_record_side_breaks(self):
        answer = break_check(DELTA, {0, 2})
        assert answer.verdict == BROKEN_WITNESSED
        assert answer.witness.kind == "substitution"
        assert answer.witness.label == "blocks=00,010"
        assert revalidate_break(DELTA, {0, 2}, answer)

    def test_other_pair_with_two_record_side_breaks(self):
        answer = break_check(DELTA, {1, 2})
        assert answer.verdict == BROKEN_WITNESSED
        assert answer.witness.label == "blocks=01,10"
        assert revalidate_break(DELTA, {1, 2}, answer)

    def test_chain_pair_is_not_broken_within_budget(self):
        answer = break_check(DELTA, {0, 1})
        assert answer.verdict == NOT_BROKEN_BOUNDED
        assert answer.witness is None
        assert answer.searched == 86  # the full dyadic candidate pool
        assert answer.budget == budget_json(RANGE)
        assert not revalidate_break(DELTA, {0, 1}, answer)

    def test_all_sides_break_via_identity_inclusion(self):
        answer = break_check(DELTA, {0, 1, 2})
        assert answer.witness.kind == "subalphabet"
        assert answer.witness.label == "iota=0,1"

    def test_witness_range_meets_exactly_the_requested_sides(self):
        answer = break_check(DELTA, {0, 2})
        rng = answer.witness.range_types
        for i in range(DELTA.n):
            assert bool(rng & DELTA.sides[i]) == (i in {0, 2})

    def test_pair_witness_action_table(self):
        answer = break_check(DELTA, {1, 2})
        action = {print_type(a): print_type(b) for a, b in answer.witness.action}
        assert action["[l0]"] == "[l0 l1]"
        assert action["[l1]"] == "[l1]"

    def test_report_json_shape(self):
        # the one answer shape the gap order has too; the question (gap and
        # side set) is the caller's to state
        data = break_check(DELTA, {0, 2}).as_dict()
        assert set(data) == {"verdict", "witness", "searched", "budget"}
        assert data["verdict"] == BROKEN_WITNESSED
        assert data["witness"]["action"]["[l0]"] == "[l0]"
        assert "embedding" in data["witness"]
        assert data["budget"]["probe"]["domain_depth"] == 40

    def test_determinism_byte_identical(self):
        first = break_check(DELTA, {0, 2}).as_dict()
        second = break_check(DELTA, {0, 2}).as_dict()
        assert canonical_json(first) == canonical_json(second)


def test_quaternary_three_gap_breaks_with_the_dyadic_labels():
    # [l0]|[l1]|[l0 l1] over alphabet 4: quaternary witness images
    # classify, so the m = 3 witnesses answer; in one process the three
    # queries share the probe memo
    sides = [["[l0]"], ["[l1]"], ["[l0 l1]"]]
    gap = GapSpec.from_json({"layer": RECORD, "n": 3, "m": 4, "sides": sides})
    for broken, label, searched in [
        ({2}, "blocks=01", 17),
        ({0, 2}, "blocks=00,010", 176),
        ({1, 2}, "blocks=01,10", 105),
    ]:
        answer = break_check(gap, broken)
        assert answer.verdict == BROKEN_WITNESSED
        assert (answer.witness.label, answer.searched) == (label, searched)
        assert revalidate_break(gap, broken, answer)


class TestRevalidation:
    def test_tampered_witness_fails(self):
        answer = break_check(DELTA, {0, 2})
        flipped = tuple((a, b) for a, b in reversed(answer.witness.action))
        tampered = replace(answer, witness=replace(answer.witness, action=flipped))
        assert revalidate_break(DELTA, {0, 2}, answer)
        assert not revalidate_break(DELTA, {0, 2}, tampered)

    def test_witness_fails_against_another_side_set(self):
        answer = break_check(DELTA, {0, 2})
        assert not revalidate_break(DELTA, {1, 2}, answer)

    def test_efamily_witness_revalidates_after_a_full_sweep(self):
        # a full sweep fills the per-candidate memo; an e-family witness
        # served from it must still rebuild from its payload alone
        sweep = record_gap(
            ["[u1 l0 l1]"],
            ["[l1]", "[l0 l1]", "[u0 l1]", "[u1 l0]", "[l0 u1 l1]"],
            ["[l0]", "[u0 u1 l1]"],
        )
        assert break_check(sweep, {0}).verdict == NOT_BROKEN_BOUNDED
        gap = record_gap(
            ["[l0 l1]", "[u1 l0]", "[u0 u1 l1]"],
            ["[u0 l1]"],
            ["[l0]", "[l1]", "[l0 u1 l1]", "[u1 l0 l1]"],
        )
        answer = break_check(gap, {1})
        assert (answer.witness.kind, answer.witness.label) == ("efamily", "e_inf=0;e=10")
        assert revalidate_break(gap, {1}, answer)

    def test_seeded_three_sided_partitions_revalidate(self):
        # 200 of the 5,796 three-sided partitions of the eight dyadic types,
        # each with one two-element side set: every BROKEN verdict
        # revalidates, domination witnesses whose padding type has an upper
        # row included
        catalogue = enumerate_types(2)
        rng = random.Random(1406)
        partitions = set()
        while len(partitions) < 200:
            labels = tuple(rng.randrange(3) for _ in catalogue)
            if len(set(labels)) == 3:
                partitions.add(labels)
        witnesses = Counter()
        for labels in sorted(partitions):
            gap = record_gap(*(
                [print_type(tau) for tau, side in zip(catalogue, labels) if side == k]
                for k in range(3)
            ))
            broken = rng.choice([{0, 1}, {0, 2}, {1, 2}])
            answer = break_check(gap, broken)
            if answer.verdict == BROKEN_WITNESSED:
                assert revalidate_break(gap, broken, answer), answer.witness.label
                kind = answer.witness.kind
                if kind == "domination" and "u" in answer.witness.payload["tau0"]:
                    kind = "upper-row domination"
                witnesses[kind] += 1
        assert witnesses["upper-row domination"] > 0, witnesses

    def test_every_broken_verdict_in_the_audit_revalidates(self):
        for b, answer in jigsaw_audit(DELTA):
            if answer.witness is not None:
                assert revalidate_break(DELTA, b, answer)


class TestJigsawAudit:
    def test_three_gap_table(self):
        audit = jigsaw_audit(DELTA)
        assert tuple(b for b, answer in audit if answer.witness is not None) == (
            (0,),
            (1,),
            (2,),
            (0, 2),
            (1, 2),
            (0, 1, 2),
        )

    def test_queries_run_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv(RETIRED_POOL_VARIABLE, "4")
        threads = []
        real = breaking_module.break_check

        def recorded(gap, broken_sides):
            threads.append(threading.get_ident())
            return real(gap, broken_sides)

        monkeypatch.setattr(breaking_module, "break_check", recorded)
        audit = jigsaw_audit(max_partition_gap(3))
        assert len(threads) == len(audit) == 7
        assert set(threads) == {threading.get_ident()}

    def test_critical_gap_breaks_everywhere_by_subalphabets(self):
        audit = jigsaw_audit(critical_record_gap(3))
        assert len(audit) == 7
        for b, answer in audit:
            assert answer.witness.kind == "subalphabet"
            assert answer.witness.label == "iota=" + ",".join(map(str, b))

    def test_max_partition_gap_breaks_everywhere(self):
        audit = jigsaw_audit(max_partition_gap(3))
        assert all(a.witness is not None and a.witness.kind == "subalphabet" for _, a in audit)

    def test_audit_json_carries_reports(self):
        # subsets by size, then lexicographically, each with its answer
        audit = jigsaw_audit(DELTA)
        assert [b for b, _ in audit] == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        assert audit[3][1].as_dict()["verdict"] == NOT_BROKEN_BOUNDED


class TestPreservationLemma:
    """Over every generated dyadic embedding with a two-letter domain, an
    action fixing both chain types also fixes ``[l0 l1]``."""

    def test_no_violations_and_known_premise_holders(self):
        chain0, chain1 = enumerate_types(2)[:2]
        two_record = parse_type("[l0 l1]", 2)
        checked = 0
        premise_holders = []
        for cand in candidate_pool(range(1, 3), 2, RANGE):
            if cand.domain_alphabet != 2:
                continue
            checked += 1
            mapping = dict(cand.action)
            if mapping[chain0] == chain0 and mapping[chain1] == chain1:
                premise_holders.append(f"{cand.kind}:{cand.label}")
                assert mapping[two_record] == two_record, premise_holders[-1]
        assert checked == 68
        assert len(premise_holders) == 11
        assert "subalphabet:iota=0,1" in premise_holders
        assert "substitution:blocks=00,10" in premise_holders

    def test_reduction_map_fails_the_premise(self):
        # the canonical interleaving reduction moves [l0] to [l0 l1]
        psi = psi_map(2)
        action = admit(probe(psi), RANGE, lambda: psi)
        assert action is not None
        mapping = {print_type(a): print_type(b) for a, b in action}
        assert mapping["[l0]"] == "[l0 l1]"


class TestJFunction:
    """J(m), the number of record types over the alphabet m, is the side
    count of the all-types gap whose breaking the optimality check bounds."""

    def test_counts(self):
        assert j_count(1) == 1
        assert j_count(2) == 8
        assert j_count(3) == 61
        assert j_count(4) == 480

    def test_scale_guard(self):
        with pytest.raises(ScaleLimit):
            j_count(5)
        with pytest.raises(ValueError):
            j_count(0)


class TestOptimality:
    def test_no_counterexamples(self):
        checked, counterexamples = jbreak_optimality_check()
        assert counterexamples == ()
        assert checked == 86
        # the embeddings meeting the premise: both chain types in the range
        chains = set(enumerate_types(2)[:2])
        pool = candidate_pool(range(1, 3), 2, RANGE)
        qualifying = [f"{c.kind}:{c.label}" for c in pool if chains <= c.range_types]
        assert len(qualifying) == 11
        assert "subalphabet:iota=0,1" in qualifying


def broken_pairs(gap):
    return tuple(
        pair
        for pair in itertools.combinations(range(gap.n), 2)
        if break_check(gap, pair).witness is not None
    )


class TestTwoBreakAudit:
    """Every desk gap breaks at some two-element side set."""

    def test_every_candidate_breaks_at_a_pair(self):
        # all two-sided dyadic record candidates, each at its one pair {0,1}
        candidates = enumerate_candidates_record(2)
        assert len(candidates) == 1458
        assert [gap for gap in candidates if not broken_pairs(gap)] == []

    def test_named_desk_instances(self):
        assert broken_pairs(critical_record_gap(3)) == ((0, 1), (0, 2), (1, 2))
        assert broken_pairs(DELTA) == ((0, 2), (1, 2))
        assert broken_pairs(max_partition_gap(3)) == ((0, 1), (0, 2), (1, 2))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=1457))
    def test_two_sided_candidates_break_at_full_pair(self, index):
        gap = enumerate_candidates_record(2)[index]
        answer = break_check(gap, {0, 1})
        assert answer.verdict == BROKEN_WITNESSED
        # The full-alphabet inclusion realises every type, so it always
        # validates a query with no avoid sides; nothing earlier can meet
        # two disjoint sides with a single-type range.
        assert answer.witness.label == "iota=0,1"
        assert revalidate_break(gap, {0, 1}, answer)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]))
    def test_broken_verdicts_meet_exactly_the_requested_sides(self, sides):
        answer = break_check(DELTA, sides)
        assert answer.verdict == BROKEN_WITNESSED
        rng = answer.witness.range_types
        for i in range(DELTA.n):
            assert bool(rng & DELTA.sides[i]) == (i in sides)

    def test_breaking_is_not_monotone_in_the_side_set(self):
        assert break_check(DELTA, {0, 2}).witness is not None
        assert break_check(DELTA, {0, 1, 2}).witness is not None
        assert break_check(DELTA, {0, 1}).witness is None
