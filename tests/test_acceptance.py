"""Acceptance gate: every primary criterion, one pass/fail line each.

The full audit runs once per module through the real command surface; each
test then pins its criterion's entry: the status must be PASS and the frozen
desk values must be present.  A genuine regression in any layer therefore
fails exactly the criterion that owns it.
"""

import json
import time

import pytest

from adicgaps.cli import DISCREPANCY_KNOWN, EXIT_OK, PASS, main


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    out = tmp / "report.json"
    started = time.monotonic()
    code = main(
        [
            "audit",
            "paper-tables",
            "--json-out",
            str(out),
            "--cache-dir",
            str(tmp / "cache"),
        ]
    )
    elapsed = time.monotonic() - started
    report = json.loads(out.read_text())
    return code, report, elapsed


@pytest.fixture(scope="module")
def entries(audit):
    _, report, _ = audit
    return {e["check"]: e for e in report["entries"]}


def _line(entry) -> None:
    print(f"ACCEPTANCE {entry['check']}: {entry['status']} — {entry['anchor']}")


class TestAcceptance:
    def test_criterion_1_type_catalogue(self, entries):
        e = entries["type-catalogue"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["counts"] == {"1": 1, "2": 8, "3": 61}
        assert e["computed"]["dyadic_types"] == [
            "[l0]",
            "[l1]",
            "[l0 l1]",
            "[u0 l1]",
            "[u1 l0]",
            "[l0 u1 l1]",
            "[u0 u1 l1]",
            "[u1 l0 l1]",
        ]

    def test_criterion_2_strong_dyadic_table(self, entries):
        e = entries["strong-two-gap-table"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["candidates"] == 9
        assert e["computed"]["classes"] == 6
        assert e["computed"]["representatives"] == ["1", "2", "3", "3*", "4", "4*"]
        assert e["computed"]["mode"] == "exact"

    def test_criterion_3_strong_triadic_classes(self, entries):
        e = entries["strong-three-gap-classes"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["candidates"] == 4096
        assert e["computed"]["classes"] == 31
        assert e["computed"]["upto_permutation"] == 9
        # the audit names which quotient convention reaches the published count
        assert e["computed"]["convention"] == "alphabet"
        # side permutations alone identify no class
        assert e["computed"]["other_convention"] == {"sides_only": 31}

    def test_criterion_4_worked_order_examples(self, entries):
        e = entries["worked-order-examples"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["four_star_below_stilde"] == "LE_witnessed"
        assert e["computed"]["worked_family_witnesses"] is True
        assert e["computed"]["revalidated"] is True
        assert e["computed"]["three_below_four"] == "NOT_LE_refuted_exact"

    def test_criterion_5_rule_oracle_agreement(self, entries):
        e = entries["rule-oracle-agreement"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["checked"] == 531
        assert e["computed"]["exhaustive_small_scales"] == 31
        assert e["computed"]["sampled_triadic"] == 500
        assert e["computed"]["failures"] == []

    def test_criterion_6_record_self_tests(self, entries):
        e = entries["record-self-tests"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["identity_checks"] == 207
        assert e["computed"]["identity_failures"] == []
        assert e["computed"]["transfer_pairs"] == 200
        assert e["computed"]["transfer_failures"] == []
        assert e["computed"]["monotonicity_violations"] == []
        assert "interleave-2" in e["computed"]["monotonicity_pool"]
        assert "domination" in e["computed"]["monotonicity_pool"]

    def test_criterion_7_domination_and_prune(self, entries):
        e = entries["domination-and-prune"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["teeth_dominate_all_eight"] is True
        assert e["computed"]["prune"] == {"before": 1458, "after": 162}
        assert e["computed"]["embedding_action_ok"] is True
        assert e["computed"]["probed_action"]["[l0]"] == "[l0]"

    def test_criterion_8_breaking_desk_instances(self, entries):
        e = entries["breaking-desk-instances"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["critical_three"] == {
            "0,1": "BROKEN_witnessed:iota=0,1",
            "0,2": "BROKEN_witnessed:iota=0,2",
            "1,2": "BROKEN_witnessed:iota=1,2",
            "0,1,2": "BROKEN_witnessed:iota=0,1,2",
        }
        assert e["computed"]["three_gap_pairs"] == {
            "0,1": "NOT_BROKEN_bounded",
            "0,2": "BROKEN_witnessed:blocks=00,010",
            "1,2": "BROKEN_witnessed:blocks=01,10",
        }
        assert e["computed"]["max_partition_fully_broken"] is True
        assert e["computed"]["optimality_counterexamples"] == 0
        assert e["computed"]["revalidated_witnesses"] == 6

    def test_criterion_9_property_suites(self, entries):
        e = entries["property-suites"]
        _line(e)
        assert e["status"] == PASS
        assert e["computed"]["random_sets"] == 300
        assert e["computed"]["law_failures"] == []
        assert e["computed"]["revalidation_failures"] == []
        assert e["computed"]["parallel_rerun_identical"] is True
        assert e["computed"]["cache_roundtrip_equal"] is True

    def test_known_discrepancies_are_flagged_not_failed(self, entries):
        worked = entries["known-discrepancy-worked-family-print"]
        teeth = entries["known-discrepancy-dominating-teeth"]
        _line(worked)
        _line(teeth)
        assert worked["status"] == DISCREPANCY_KNOWN
        assert worked["computed"]["rule_values"] == {"0>1": "1>0", "1>0": "0>1"}
        assert worked["computed"]["classification_oracle_agrees_with_rule"] is True
        assert teeth["status"] == DISCREPANCY_KNOWN
        assert teeth["computed"]["literal_extra_dominates_all"] is True
        assert teeth["computed"]["classes_after"] == 162

    def test_audit_exit_and_budget(self, audit):
        code, report, elapsed = audit
        print(
            f"ACCEPTANCE audit-overall: exit={code} "
            f"fail={report['summary']['fail']} elapsed={elapsed:.1f}s"
        )
        assert code == EXIT_OK
        assert report["summary"]["fail"] == 0
        assert report["summary"]["pass"] == 9
        assert report["summary"]["discrepancy_known"] == 2
        assert report["partial"] is False
        assert report["content_hash"] == (
            "799aa1e1257343f766d39ddb45dd4ac7050e07d56de4871b2c2ad3b3f8e97a73"
        )
        # the loosest stated budget across all criteria is thirty minutes
        assert elapsed < 1800
