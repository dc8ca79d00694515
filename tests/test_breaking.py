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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adicgaps.breaking as breaking_module
from adicgaps.breaking import (
    AUDIT_CAVEAT,
    BROKEN_WITNESSED,
    DEFAULT_BREAK_BUDGET,
    NOT_BROKEN_BOUNDED,
    BreakQuery,
    break_check,
    candidate_pool,
    eight_type_gap,
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
from adicgaps.search import RANGE, SearchBudget, admit, probe
from adicgaps.tree import ScaleLimit
from adicgaps.types import enumerate_types, j_count, parse_type, print_type

from helpers import RETIRED_POOL_VARIABLE, critical_strong_gap

DELTA = record_three_gap()


def query(gap, sides, budget=DEFAULT_BREAK_BUDGET):
    return BreakQuery(gap, frozenset(sides), budget)


def record_gap(*sides):
    return GapSpec.from_json({"layer": RECORD, "n": len(sides), "m": 2, "sides": list(sides)})


class TestBreakQuery:
    def test_rejects_first_move_layer(self):
        with pytest.raises(ValueError, match="record-layer"):
            query(critical_strong_gap(2), {0})

    def test_rejects_empty_side_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            query(DELTA, set())

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="subset"):
            query(DELTA, {0, 3})

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(substitution_blocks=0)
        with pytest.raises(ValueError):
            SearchBudget(efamily_letters=-1)

    def test_budget_json_echo(self):
        data = DEFAULT_BREAK_BUDGET.as_json()
        assert data["substitution_blocks"] == 3
        assert data["efamily_letters"] == 12
        assert data["probe"]["domain_depth"] == 40


class TestBreakCheckOnThreeGap:
    """The canonical partial-breaking instance, side by side with its table."""

    def test_single_side_witnesses(self):
        for side, kind, label in [
            (0, "subalphabet", "iota=0"),
            (1, "subalphabet", "iota=1"),
            (2, "substitution", "blocks=01"),
        ]:
            report = break_check(query(DELTA, {side}))
            assert report.verdict == BROKEN_WITNESSED
            assert (report.witness.kind, report.witness.label) == (kind, label)
            assert revalidate_break(report)

    def test_pair_with_two_record_side_breaks(self):
        report = break_check(query(DELTA, {0, 2}))
        assert report.verdict == BROKEN_WITNESSED
        assert report.witness.kind == "substitution"
        assert report.witness.label == "blocks=00,010"
        assert revalidate_break(report)

    def test_other_pair_with_two_record_side_breaks(self):
        report = break_check(query(DELTA, {1, 2}))
        assert report.verdict == BROKEN_WITNESSED
        assert report.witness.label == "blocks=01,10"
        assert revalidate_break(report)

    def test_chain_pair_is_not_broken_within_budget(self):
        report = break_check(query(DELTA, {0, 1}))
        assert report.verdict == NOT_BROKEN_BOUNDED
        assert report.witness is None
        assert report.searched == 86  # the full dyadic candidate pool
        assert not report
        assert not revalidate_break(report)

    def test_all_sides_break_via_identity_inclusion(self):
        report = break_check(query(DELTA, {0, 1, 2}))
        assert report.witness.kind == "subalphabet"
        assert report.witness.label == "iota=0,1"

    def test_witness_range_meets_exactly_the_requested_sides(self):
        report = break_check(query(DELTA, {0, 2}))
        rng = report.witness.range_types
        for i in range(DELTA.n):
            assert bool(rng & DELTA.sides[i]) == (i in {0, 2})

    def test_pair_witness_action_table(self):
        report = break_check(query(DELTA, {1, 2}))
        action = {print_type(a): print_type(b) for a, b in report.witness.action}
        assert action["[l0]"] == "[l0 l1]"
        assert action["[l1]"] == "[l1]"

    def test_report_json_shape(self):
        report = break_check(query(DELTA, {0, 2}))
        data = report.as_dict()
        assert data["verdict"] == BROKEN_WITNESSED
        assert data["broken_sides"] == [0, 2]
        assert data["witness"]["action"]["[l0]"] == "[l0]"
        assert "embedding" in data["witness"]
        assert data["budget"]["probe"]["domain_depth"] == 40
        assert data["gap"] == DELTA.to_json()

    def test_determinism_byte_identical(self):
        first = break_check(query(DELTA, {0, 2})).as_dict()
        second = break_check(query(DELTA, {0, 2})).as_dict()
        assert canonical_json(first) == canonical_json(second)


class TestRevalidation:
    def test_tampered_witness_fails(self):
        report = break_check(query(DELTA, {0, 2}))
        witness = report.witness
        flipped = tuple((a, b) for a, b in reversed(witness.action))
        tampered = type(report)(
            gap=report.gap,
            broken_sides=report.broken_sides,
            verdict=report.verdict,
            witness=type(witness)(
                kind=witness.kind,
                label=witness.label,
                domain_alphabet=witness.domain_alphabet,
                action=flipped,
                payload=witness.payload,
            ),
            searched=report.searched,
            budget=report.budget,
        )
        assert not revalidate_break(tampered)

    def test_efamily_witness_revalidates_after_a_full_sweep(self):
        # a full sweep fills the per-candidate memo; an e-family witness
        # served from it must still rebuild from its payload alone
        sweep = record_gap(
            ["[u1 l0 l1]"],
            ["[l1]", "[l0 l1]", "[u0 l1]", "[u1 l0]", "[l0 u1 l1]"],
            ["[l0]", "[u0 u1 l1]"],
        )
        assert break_check(query(sweep, {0})).verdict == NOT_BROKEN_BOUNDED
        gap = record_gap(
            ["[l0 l1]", "[u1 l0]", "[u0 u1 l1]"],
            ["[u0 l1]"],
            ["[l0]", "[l1]", "[l0 u1 l1]", "[u1 l0 l1]"],
        )
        report = break_check(query(gap, {1}))
        assert (report.witness.kind, report.witness.label) == ("efamily", "e_inf=0;e=10")
        assert revalidate_break(report)

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
            report = break_check(query(gap, rng.choice([{0, 1}, {0, 2}, {1, 2}])))
            if report.verdict == BROKEN_WITNESSED:
                assert revalidate_break(report), report.witness.label
                kind = report.witness.kind
                if kind == "domination" and "u" in report.witness.payload["tau0"]:
                    kind = "upper-row domination"
                witnesses[kind] += 1
        assert witnesses["upper-row domination"] > 0, witnesses

    def test_every_broken_verdict_in_the_audit_revalidates(self):
        audit = jigsaw_audit(DELTA)
        for _, report in audit.entries:
            if report:
                assert revalidate_break(report)


class TestJigsawAudit:
    def test_three_gap_table(self):
        audit = jigsaw_audit(DELTA)
        assert tuple(b for b, report in audit.entries if report) == (
            (0,),
            (1,),
            (2,),
            (0, 2),
            (1, 2),
            (0, 1, 2),
        )
        assert not audit.fully_broken
        assert audit.note == AUDIT_CAVEAT

    def test_queries_run_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setenv(RETIRED_POOL_VARIABLE, "4")
        threads = []
        real = breaking_module.break_check

        def recorded(query):
            threads.append(threading.get_ident())
            return real(query)

        monkeypatch.setattr(breaking_module, "break_check", recorded)
        audit = jigsaw_audit(max_partition_gap(3))
        assert len(threads) == len(audit.entries) == 7
        assert set(threads) == {threading.get_ident()}

    def test_critical_gap_breaks_everywhere_by_subalphabets(self):
        audit = jigsaw_audit(critical_record_gap(3))
        assert audit.fully_broken
        assert len(audit.entries) == 7
        for b, report in audit.entries:
            assert report.witness.kind == "subalphabet"
            assert report.witness.label == "iota=" + ",".join(map(str, b))

    def test_max_partition_gap_breaks_everywhere(self):
        audit = jigsaw_audit(max_partition_gap(3))
        assert audit.fully_broken
        assert all(r.witness.kind == "subalphabet" for _, r in audit.entries)

    def test_audit_json_carries_note_and_reports(self):
        data = jigsaw_audit(DELTA).as_dict()
        assert data["note"] == AUDIT_CAVEAT
        assert len(data["entries"]) == 7
        assert data["entries"][3]["broken_sides"] == [0, 1]
        assert data["entries"][3]["report"]["verdict"] == NOT_BROKEN_BOUNDED


class TestPreservationLemma:
    """Over every generated dyadic embedding with a two-letter domain, an
    action fixing both chain types also fixes ``[l0 l1]``."""

    def test_no_violations_and_known_premise_holders(self):
        chain0, chain1 = enumerate_types(2)[:2]
        two_record = parse_type("[l0 l1]", 2)
        checked = 0
        premise_holders = []
        for cand in candidate_pool(2, DEFAULT_BREAK_BUDGET):
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
        assert eight_type_gap().n == j_count(2)

    def test_scale_guard(self):
        with pytest.raises(ScaleLimit):
            j_count(5)
        with pytest.raises(ValueError):
            j_count(0)


class TestOptimality:
    def test_no_counterexamples(self):
        report = jbreak_optimality_check()
        assert report.counterexamples == ()
        assert report.checked == 86
        assert len(report.qualifying) == 11
        assert "subalphabet:iota=0,1" in report.qualifying

    def test_gap_is_the_eight_type_gap(self):
        report = jbreak_optimality_check()
        assert report.gap.n == 8
        assert report.gap == eight_type_gap()
        sides = [next(iter(side)) for side in report.gap.sides]
        assert sides == list(enumerate_types(2))

    def test_note_flags_the_bounded_quantifier(self):
        assert jbreak_optimality_check().note == AUDIT_CAVEAT


def broken_pairs(gap):
    return tuple(
        pair
        for pair in itertools.combinations(range(gap.n), 2)
        if break_check(query(gap, pair))
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
        report = break_check(query(gap, {0, 1}))
        assert report.verdict == BROKEN_WITNESSED
        # The full-alphabet inclusion realises every type, so it always
        # validates a query with no avoid sides; nothing earlier can meet
        # two disjoint sides with a single-type range.
        assert report.witness.label == "iota=0,1"
        assert revalidate_break(report)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]))
    def test_broken_verdicts_meet_exactly_the_requested_sides(self, sides):
        report = break_check(query(DELTA, set(sides)))
        assert report.verdict == BROKEN_WITNESSED
        rng = report.witness.range_types
        for i in range(DELTA.n):
            assert bool(rng & DELTA.sides[i]) == (i in sides)

    def test_breaking_is_not_monotone_in_the_side_set(self):
        assert break_check(query(DELTA, {0, 2}))
        assert break_check(query(DELTA, {0, 1, 2}))
        assert not break_check(query(DELTA, {0, 1}))
