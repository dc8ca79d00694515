"""Command-line surface: catalogue listing, enumeration, order and breaking
queries, and the reference-table audit.

``adicgaps audit paper-tables`` re-derives every desk-scale value this
package reproduces from its published reference tables and emits an audit
report: one entry per acceptance check with an expected/computed pair and a
``PASS``/``FAIL`` status, plus two ``DISCREPANCY_KNOWN`` entries for the two
places where the published text is internally inconsistent and this package
follows the stated rules instead of the printed values.  The report JSON is
deterministic apart from its timestamp: reruns with the same seed produce
byte-identical content after the ``generated_at`` field is excluded.  Every
command runs on one thread.

Exit codes: 0 on success, 1 when the audit contains a ``FAIL`` entry, and 2
for usage errors (out-of-range scales, malformed input files, unusable cache
or report paths, an empty ``--only``) and for a standard output closed before
the command finished writing to it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import sys
import tempfile
from datetime import datetime, timezone
from typing import Callable, Optional

from . import __version__
from .breaking import (
    BROKEN_WITNESSED,
    NOT_BROKEN_BOUNDED,
    break_check,
    jbreak_optimality_check,
    jigsaw_audit,
    record_three_gap,
    revalidate_break,
)
from .combs import (
    CombKind,
    EFamily,
    concretize,
    efamily_induced_map,
    efamily_shapes,
    enumerate_efamilies,
)
from .embeddings import (
    DOMAIN_DEPTH,
    ValidationFailure,
    apply,
    comb_action,
    domination_embedding,
    max_monotone,
    probe_json,
    psi_map,
    realize_efamily,
    relabel_embedding,
    type_action,
)
from .gaps import (
    FIRST_MOVE,
    GapSpec,
    LE_WITNESSED,
    NOT_LE_REFUTED_EXACT,
    PRUNED_TYPE_TEXTS,
    critical_record_gap,
    domination_prune,
    enumerate_candidates_record,
    enumerate_candidates_strong,
    is_classes_dict,
    max_partition_gap,
    minimal_classes,
    order_le,
    revalidate_order,
)
from .runtime import (
    SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    content_key,
)
from .search import ORDER, RANGE, Answer, budget_json
from .tree import (
    Node,
    NodeSet,
    ScaleLimit,
    empty_node,
    first_move_equivalent,
    meet_closure,
    random_node_set,
    record_closure,
    record_equivalent,
)
from .types import (
    catalogue_json,
    classify_type,
    dominates,
    enumerate_types,
    j_count,
    parse_type,
    print_type,
    type_witness,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

PASS = "PASS"
FAIL = "FAIL"
DISCREPANCY_KNOWN = "DISCREPANCY_KNOWN"


class UsageError(Exception):
    """Bad input at the command surface: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# reference fixtures shared by the audit checks


def _strong2(s0, s1) -> GapSpec:
    return GapSpec(
        FIRST_MOVE,
        2,
        2,
        (
            frozenset(CombKind.parse(t) for t in s0),
            frozenset(CombKind.parse(t) for t in s1),
        ),
    )


# the six minimal dyadic representatives of the strong reference table
REFERENCE_STRONG_TABLE = {
    "1": _strong2(["0>0", "0>1"], ["1>1", "1>0"]),
    "2": _strong2(["0>0"], ["1>1"]),
    "3": _strong2(["0>0"], ["1>1", "0>1", "1>0"]),
    "3*": _strong2(["0>0", "0>1", "1>0"], ["1>1"]),
    "4": _strong2(["0>0"], ["1>1", "1>0"]),
    "4*": _strong2(["0>0", "0>1"], ["1>1"]),
}

# the worked order example: 4* lies below the one-sided-tooth variant of 2
GAP_STILDE = _strong2(["0>0", "1>0"], ["1>1"])

# two-branch family whose induced map witnesses that relation
WORKED_FAMILY = EFamily.of(2, "0", ["11", "01"])

# expected dyadic type catalogue, in enumeration order
DYADIC_TYPE_TEXTS = (
    "[l0]",
    "[l1]",
    "[l0 l1]",
    "[u0 l1]",
    "[u1 l0]",
    "[l0 u1 l1]",
    "[u0 u1 l1]",
    "[u1 l0 l1]",
)


# ---------------------------------------------------------------------------
# audit report plumbing


#: What an audit check returns: the anchor (which reference table or stated
#: fact is being reproduced), the expected and computed values, and the status.
CheckResult = tuple[str, dict, dict, str]


# ---------------------------------------------------------------------------
# check 1: type catalogue


def check_type_catalogue(seed: int) -> CheckResult:
    expected = {
        "counts": {"1": 1, "2": 8, "3": 61},
        "dyadic_types": list(DYADIC_TYPE_TEXTS),
    }
    counts = {str(n): j_count(n) for n in (1, 2, 3)}
    dyadic = [print_type(tau) for tau in enumerate_types(2)]
    computed = {"counts": counts, "dyadic_types": dyadic}
    anchor = "record type counts and the eight dyadic types"
    return anchor, expected, computed, PASS if computed == expected else FAIL


# ---------------------------------------------------------------------------
# check 2: strong dyadic table


def check_strong_two(seed: int) -> CheckResult:
    report = minimal_classes(2)
    candidates = enumerate_candidates_strong(2)
    classes = {
        frozenset(candidates[i] for i in cls) for cls in report.classes
    }
    table_match = classes == {frozenset({g}) for g in REFERENCE_STRONG_TABLE.values()}
    by_spec = {g: name for name, g in REFERENCE_STRONG_TABLE.items()}
    representatives = sorted(
        by_spec.get(rep, str(rep)) for rep in report.class_representatives
    )
    expected = {
        "candidates": 9,
        "classes": 6,
        "representatives": sorted(REFERENCE_STRONG_TABLE),
        "mode": "exact",
    }
    computed = {
        "candidates": len(candidates),
        "classes": len(report.classes),
        "representatives": representatives if table_match else sorted(
            str(rep) for rep in report.class_representatives
        ),
        "mode": "exact",
    }
    anchor = "minimal two-sided strong gaps on the binary tree"
    return anchor, expected, computed, PASS if computed == expected and table_match else FAIL


# ---------------------------------------------------------------------------
# check 3: strong triadic classes


def _strong_classes(n: int, cache: Optional[ResultCache]) -> dict:
    """``minimal_classes(n).as_dict()``, through the cache when one is
    given; only ``gaps enum-strong --cache-dir`` gives one, and the audit
    never does.  The key names what :func:`minimal_classes` takes: the
    arity, with the layer and the order it decides them by.  A cached value
    not of that form for this arity (:func:`is_classes_dict`) counts as a
    miss, and is recomputed and overwritten; one of that form is trusted."""
    if cache is None:
        return minimal_classes(n).as_dict()
    key = content_key(
        {
            "computation": "minimal-classes",
            "layer": FIRST_MOVE,
            "order": "exact-pullback",
            "n": n,
        }
    )
    hit = cache.get(key)
    if is_classes_dict(hit, n):
        return hit
    report = minimal_classes(n).as_dict()
    cache.put(key, report)
    return report


def check_strong_three(seed: int) -> CheckResult:
    report = minimal_classes(3).as_dict()
    expected = {
        "candidates": 4096,
        "classes": 31,
        "upto_permutation": 9,
        "convention": "alphabet",
    }
    computed = {
        "candidates": report["candidates"],
        "classes": len(report["classes"]),
        "upto_permutation": report["quotients"].get("alphabet"),
        "convention": "alphabet",
        # permuting the sides alone fixes no candidate (it moves the pinned
        # chain kind i>i off side i), so every class is its own orbit; the
        # field stays because content_hash covers it
        "other_convention": {"sides_only": len(report["classes"])},
    }
    ok = all(computed[k] == expected[k] for k in expected)
    anchor = "three-sided strong gaps on the ternary tree"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 4: worked order examples


def check_worked_order(seed: int) -> CheckResult:
    g4s = REFERENCE_STRONG_TABLE["4*"]
    below = order_le(g4s, GAP_STILDE)
    eps = efamily_induced_map(WORKED_FAMILY)  # every kind of g4s, with its image
    worked_witnesses = all(g4s.side_of(c) == GAP_STILDE.side_of(image) for c, image in eps)
    refuted = order_le(REFERENCE_STRONG_TABLE["3"], REFERENCE_STRONG_TABLE["4"])
    expected = {
        "four_star_below_stilde": LE_WITNESSED,
        "worked_family_witnesses": True,
        "revalidated": True,
        "three_below_four": NOT_LE_REFUTED_EXACT,
    }
    computed = {
        "four_star_below_stilde": below.verdict,
        "worked_family_witnesses": worked_witnesses,
        "revalidated": revalidate_order(g4s, GAP_STILDE, below),
        "three_below_four": refuted.verdict,
        "searched": below.searched,
        "worked_family_map": {str(kind): str(image) for kind, image in eps},
    }
    ok = all(computed[k] == expected[k] for k in expected)
    anchor = "order witnesses among the reference strong gaps"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 5: rule/oracle agreement on induced comb maps


def check_rule_oracle(seed: int) -> CheckResult:
    exhaustive = [
        fam
        for n, m in ((1, 1), (1, 2), (2, 1), (2, 2))
        for fam in enumerate_efamilies(n, m)
    ]
    # sampling shapes picks the same indices as sampling their families would
    rng = random.Random(seed)
    sampled = [concretize(shape, 3) for shape in rng.sample(list(efamily_shapes(3, 3)), 500)]
    failures = []
    for fam in itertools.chain(exhaustive, sampled):
        try:
            realize_efamily(fam)  # compares the probed comb action with the rule
        except (ValidationFailure, ScaleLimit) as ex:
            failures.append(f"{fam}: {type(ex).__name__}: {ex}")
    expected = {"checked": len(exhaustive) + 500, "failures": []}
    computed = {
        "checked": len(exhaustive) + len(sampled),
        "exhaustive_small_scales": len(exhaustive),
        "sampled_triadic": len(sampled),
        "failures": failures[:5],
    }
    anchor = "induced comb maps: stated rule versus classified images"
    ok = not failures and computed["checked"] == expected["checked"]
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 6: record-layer self-tests


def _relabel_inside_branches(a: NodeSet, rng: random.Random) -> NodeSet:
    """A tree automorphism that is the identity at every meet-closure node of
    ``a``: it scrambles letters strictly inside branches, preserving lengths,
    meets, and first moves, so the image stays first-move equivalent to ``a``
    while everything invisible to that structure changes."""
    protected = set(a.meet_closure_nodes)
    n = a.alphabet
    identity = tuple(range(n))
    perms: dict[Node, tuple[int, ...]] = {}

    def perm_at(s: Node) -> tuple[int, ...]:
        if s in protected:
            return identity
        p = perms.get(s)
        if p is None:
            shuffled = list(identity)
            rng.shuffle(shuffled)
            p = tuple(shuffled)
            perms[s] = p
        return p

    out = []
    for w in a.sorted_nodes:
        prefix = empty_node(n)
        image = empty_node(n)
        for k in range(w.length):
            letter = w.letter_at(k)
            image = image.extend(perm_at(prefix)[letter])
            prefix = prefix.extend(letter)
        out.append(image)
    return NodeSet(n, frozenset(out))


def _monotonicity_pool():
    """The letter-monotone reduction embeddings: relabelings along increasing
    iotas, the interleaving maps, the worked family, and the domination
    construction.  Max-monotonicity is a claim about these, not about every
    realizable branch family: a family that routes letter 0 through blocks
    starting with 1 (say e(0)=10, e(1)=00) realizes a perfectly valid,
    order-preserving embedding whose action swaps the two chain types, and
    swapped chains swap maxima."""
    return [
        ("identity-2", relabel_embedding((0, 1), 2)),
        ("identity-3", relabel_embedding((0, 1, 2), 3)),
        ("subalphabet-2-in-3", relabel_embedding((0, 1), 3)),
        ("interleave-2", psi_map(2)),
        ("interleave-3", psi_map(3)),
        ("worked-family", realize_efamily(WORKED_FAMILY)),
        (
            "domination",
            domination_embedding(parse_type("[l0]", 2), parse_type("[l0 u1 l1]", 2)),
        ),
    ]


def check_record_self(seed: int) -> CheckResult:
    identity_failures = []
    identity_checks = 0
    for alphabet in (2, 3):
        for tau in enumerate_types(alphabet):
            for blocks in (3, 4, 5):
                identity_checks += 1
                if classify_type(type_witness(tau, blocks)) != tau:
                    identity_failures.append(f"{print_type(tau)}@{blocks}")

    transfer_failures = []
    transfer_pairs = 0
    for alphabet in (2, 3):
        rng = random.Random(1000 * seed + 20260816 + alphabet)
        psi = psi_map(alphabet)
        for _ in range(100):
            transfer_pairs += 1
            a = random_node_set(rng, alphabet, rng.randint(2, 5), max_len=6)
            b = _relabel_inside_branches(a, rng)
            if not first_move_equivalent(a, b):
                transfer_failures.append("pair not first-move equivalent")
                continue
            if not record_equivalent(apply(psi, a), apply(psi, b)):
                transfer_failures.append("interleaved images not record equivalent")

    violations = []
    pool = _monotonicity_pool()
    embeddings_checked = 0
    for label, phi in pool:
        embeddings_checked += 1
        if not max_monotone(type_action(phi).as_dict()):
            violations.append(label)

    expected = {
        "identity_failures": [],
        "transfer_failures": [],
        "monotonicity_violations": [],
    }
    computed = {
        "identity_checks": identity_checks,
        "identity_failures": identity_failures[:5],
        "transfer_pairs": transfer_pairs,
        "transfer_failures": transfer_failures[:5],
        "embeddings_checked": embeddings_checked,
        "monotonicity_violations": violations,
        "monotonicity_pool": [label for label, _ in pool],
    }
    ok = (
        not (identity_failures or transfer_failures or violations)
        and identity_checks == 207
        and transfer_pairs == 200
    )
    anchor = "type classification, interleaving transfer, max-monotonicity"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 7: domination facts and the pruned refinement


def check_domination(seed: int) -> CheckResult:
    catalogue = enumerate_types(2)
    teeth = [parse_type(t, 2) for t in PRUNED_TYPE_TEXTS]
    teeth_dominate = all(
        dominates(tooth, sigma) for tooth in teeth for sigma in catalogue
    )
    candidates = enumerate_candidates_record(2)
    pruned = domination_prune(candidates)
    chain0 = parse_type("[l0]", 2)
    tension = parse_type("[l0 u1 l1]", 2)
    phi = domination_embedding(chain0, tension)
    probed = type_action(phi).probed()
    action_ok = (
        probed.get(chain0) == chain0
        and len(probed) >= 3
        and all(v == tension for k, v in probed.items() if k != chain0)
    )
    expected = {
        "teeth_dominate_all_eight": True,
        "prune": {"before": 1458, "after": 162},
        "embedding_action_ok": True,
    }
    computed = {
        "teeth_dominate_all_eight": teeth_dominate,
        "prune": {"before": len(candidates), "after": len(pruned)},
        "embedding_action_ok": action_ok,
        "probed_action": {
            print_type(k): print_type(v)
            for k, v in sorted(probed.items(), key=lambda kv: print_type(kv[0]))
        },
    }
    ok = all(computed[k] == expected[k] for k in expected)
    anchor = "dominating tooth types and the 162-candidate refinement"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 8: breaking desk instances


def check_breaking(seed: int) -> CheckResult:
    critical = critical_record_gap(3)
    critical_results = {}
    revalidated = 0
    for b in ((0, 1), (0, 2), (1, 2), (0, 1, 2)):
        answer = break_check(critical, b)
        label = answer.witness.label if answer.witness else ""
        critical_results[",".join(map(str, b))] = f"{answer.verdict}:{label}"
        if answer.witness and revalidate_break(critical, b, answer):
            revalidated += 1

    three = record_three_gap()
    three_results = {}
    for b, answer in jigsaw_audit(three):
        if len(b) != 2:
            continue
        three_results[",".join(map(str, b))] = (
            f"{answer.verdict}:{answer.witness.label}" if answer.witness else answer.verdict
        )
        if answer.witness and revalidate_break(three, b, answer):
            revalidated += 1

    partition = jigsaw_audit(max_partition_gap(3))
    checked, counterexamples = jbreak_optimality_check()

    expected = {
        "critical_three": {
            "0,1": f"{BROKEN_WITNESSED}:iota=0,1",
            "0,2": f"{BROKEN_WITNESSED}:iota=0,2",
            "1,2": f"{BROKEN_WITNESSED}:iota=1,2",
            "0,1,2": f"{BROKEN_WITNESSED}:iota=0,1,2",
        },
        "three_gap_pairs": {
            "0,1": NOT_BROKEN_BOUNDED,
            "0,2": f"{BROKEN_WITNESSED}:blocks=00,010",
            "1,2": f"{BROKEN_WITNESSED}:blocks=01,10",
        },
        "max_partition_fully_broken": True,
        "optimality_counterexamples": 0,
    }
    computed = {
        "critical_three": critical_results,
        "three_gap_pairs": three_results,
        "max_partition_fully_broken": all(answer.witness is not None for _, answer in partition),
        "optimality_counterexamples": len(counterexamples),
        "optimality_checked": checked,
        "revalidated_witnesses": revalidated,
    }
    ok = all(computed[k] == expected[k] for k in expected) and revalidated == 6
    anchor = "restriction behavior of the named desk gaps"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# check 9: property suites


def _equivalence_laws(seed: int) -> dict:
    rng = random.Random(seed + 9)
    sets = []
    for k in range(300):
        alphabet = 2 if k % 2 == 0 else 3
        sets.append(random_node_set(rng, alphabet, rng.randint(2, 6), max_len=5))

    failures = []
    for decider in (first_move_equivalent, record_equivalent):
        name = decider.__name__
        for a in sets:
            if not decider(a, a):
                failures.append(f"{name} not reflexive")
        for _ in range(150):
            a, b = rng.choice(sets), rng.choice(sets)
            if a.alphabet != b.alphabet:
                continue
            if bool(decider(a, b)) != bool(decider(b, a)):
                failures.append(f"{name} not symmetric")

    # transitivity with true premises: branch scrambles give first-move
    # equivalent triples, and their interleaved images give record ones
    for k in range(100):
        a = sets[k]
        b = _relabel_inside_branches(a, rng)
        c = _relabel_inside_branches(b, rng)
        if first_move_equivalent(a, b) and first_move_equivalent(b, c):
            if not first_move_equivalent(a, c):
                failures.append("first_move_equivalent not transitive")
        else:
            failures.append("scramble should preserve first moves")
        psi = psi_map(a.alphabet)
        x, y, z = apply(psi, a), apply(psi, b), apply(psi, c)
        if record_equivalent(x, y) and record_equivalent(y, z):
            if not record_equivalent(x, z):
                failures.append("record_equivalent not transitive")
        else:
            failures.append("interleaving should transfer equivalence")

    for a in sets:
        for closure in (meet_closure, record_closure):
            once = closure(a)
            if closure(once) != once:
                failures.append(f"{closure.__name__} not idempotent")
    return {"sets": len(sets), "failures": failures}


def _revalidation_sweep() -> dict:
    checked = 0
    failures = []
    below = order_le(REFERENCE_STRONG_TABLE["4*"], GAP_STILDE)
    checked += 1
    if not (below.verdict == LE_WITNESSED and revalidate_order(
        REFERENCE_STRONG_TABLE["4*"], GAP_STILDE, below
    )):
        failures.append("order witness")
    three = record_three_gap()
    for b in ((0, 2), (1, 2)):
        answer = break_check(three, b)
        checked += 1
        if not (answer.witness and revalidate_break(three, b, answer)):
            failures.append(f"break witness {b}")
    return {"verdicts": checked, "failures": failures}


def _determinism_probe() -> bool:
    """Whether two runs of the same jigsaw table and strong classes agree
    byte for byte."""

    def snapshot() -> bytes:
        partition = [[b, answer.as_dict()] for b, answer in jigsaw_audit(max_partition_gap(3))]
        classes = minimal_classes(2).as_dict()
        return canonical_json({"partition": partition, "classes": classes}).encode()

    return snapshot() == snapshot()


def _cache_spot_check() -> dict:
    report = minimal_classes(2).as_dict()
    key = content_key({"computation": "minimal-classes", "n": 2})
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.put(key, report)
        roundtrip = cache.get(key)
    return {"roundtrip_equal": roundtrip == report}


def check_properties(seed: int) -> CheckResult:
    laws = _equivalence_laws(seed)
    revalidation = _revalidation_sweep()
    determinism = _determinism_probe()
    cache = _cache_spot_check()
    expected = {
        "law_failures": [],
        "revalidation_failures": [],
        "parallel_rerun_identical": True,
        "cache_roundtrip_equal": True,
    }
    computed = {
        "random_sets": laws["sets"],
        "law_failures": laws["failures"][:5],
        "revalidated_verdicts": revalidation["verdicts"],
        "revalidation_failures": revalidation["failures"],
        # named for the retired thread pool; kept because content_hash covers it
        "parallel_rerun_identical": determinism,
        "cache_roundtrip_equal": cache["roundtrip_equal"],
    }
    ok = (
        not laws["failures"]
        and not revalidation["failures"]
        and determinism
        and cache["roundtrip_equal"]
        and laws["sets"] == 300
    )
    anchor = "equivalence laws, closure idempotence, revalidation, determinism"
    return anchor, expected, computed, PASS if ok else FAIL


# ---------------------------------------------------------------------------
# known discrepancies (verified, then reported as such — never as failures)


def check_discrepancy_worked_family(seed: int) -> CheckResult:
    """The reference table's worked two-branch family is printed with induced
    values that contradict its own displayed substitution rule; this package
    follows the rule, and the classification oracle corroborates it."""
    eps = efamily_induced_map(WORKED_FAMILY)
    table = {str(kind): str(image) for kind, image in eps}
    oracle_agrees = comb_action(realize_efamily(WORKED_FAMILY)) == eps
    expected = {
        "printed_values": {"0>1": "0>1", "1>0": "1>0"},
        "note": "printed values are internally inconsistent with the displayed rule",
    }
    computed = {
        "rule_values": {"0>1": table["0>1"], "1>0": table["1>0"]},
        "full_rule_map": table,
        "classification_oracle_agrees_with_rule": oracle_agrees,
    }
    # the discrepancy is only "known" while the engine reproduces its side of it
    reproduced = (
        oracle_agrees
        and table["0>1"] == "1>0"
        and table["1>0"] == "0>1"
        and table["0>0"] == "1>0"
        and table["1>1"] == "1>1"
    )
    anchor = "worked two-branch family: printed induced map values"
    return anchor, expected, computed, DISCREPANCY_KNOWN if reproduced else FAIL


def check_discrepancy_dominating_teeth(seed: int) -> CheckResult:
    """The stated domination rules make a third type dominate every dyadic
    type, yet the published refinement removes only two; this package follows
    the explicit two-type list and reports the tension instead of resolving
    it."""
    catalogue = enumerate_types(2)
    extra = parse_type("[l0 u1 l1]", 2)
    extra_dominates = all(dominates(extra, sigma) for sigma in catalogue)
    after = len(domination_prune(enumerate_candidates_record(2)))
    expected = {
        "removed_types": ["[u0 u1 l1]", "[u1 l0]"],
        "classes_after": 162,
    }
    computed = {
        "removed_types": list(PRUNED_TYPE_TEXTS),
        "classes_after": after,
        "literal_extra_dominator": "[l0 u1 l1]",
        "literal_extra_dominates_all": extra_dominates,
        "literal_prune_would_give": 54,
    }
    reproduced = (
        extra_dominates
        and after == 162
        and list(PRUNED_TYPE_TEXTS) == expected["removed_types"]
    )
    anchor = "dominating tooth types versus the 162-class refinement"
    return anchor, expected, computed, DISCREPANCY_KNOWN if reproduced else FAIL


AUDIT_CHECKS: tuple[tuple[str, Callable[[int], CheckResult]], ...] = (
    ("type-catalogue", check_type_catalogue),
    ("strong-two-gap-table", check_strong_two),
    ("strong-three-gap-classes", check_strong_three),
    ("worked-order-examples", check_worked_order),
    ("rule-oracle-agreement", check_rule_oracle),
    ("record-self-tests", check_record_self),
    ("domination-and-prune", check_domination),
    ("breaking-desk-instances", check_breaking),
    ("property-suites", check_properties),
    ("known-discrepancy-worked-family-print", check_discrepancy_worked_family),
    ("known-discrepancy-dominating-teeth", check_discrepancy_dominating_teeth),
)


def run_audit(
    seed: int = 0,
    only: Optional[set] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the audit checks and assemble the report dictionary.

    The report is deterministic apart from ``generated_at``: entries depend
    only on the seed.  No check reads a cache; the property suite's round
    trip writes one only in a temporary directory."""
    names = [name for name, _ in AUDIT_CHECKS]
    if only is not None:
        unknown = only - set(names)
        if unknown:
            raise UsageError(
                f"unknown audit check(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(names)}"
            )
    entries = []
    for name, fn in AUDIT_CHECKS:
        if only is not None and name not in only:
            continue
        anchor, expected, computed, status = fn(seed)
        entries.append(
            {"check": name, "anchor": anchor, "expected": expected, "computed": computed,
             "status": status}
        )
        if progress is not None:
            progress(f"[{status}] {name} — {anchor}")
    statuses = [e["status"] for e in entries]
    summary = {
        "pass": statuses.count(PASS),
        "fail": statuses.count(FAIL),
        "discrepancy_known": statuses.count(DISCREPANCY_KNOWN),
    }
    return {
        "schema": SCHEMA_VERSION,
        "package": f"adicgaps {__version__}",
        "toolchain": {
            "python": platform.python_version(),
            "platform": platform.system().lower(),
        },
        "seed": seed,
        "budgets": {
            "order": budget_json(ORDER),
            "breaking": budget_json(RANGE),
            "probe": probe_json(DOMAIN_DEPTH),
        },
        "partial": only is not None,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "entries": entries,
        "summary": summary,
        "content_hash": content_key(entries),
    }


# ---------------------------------------------------------------------------
# command handlers


def _require_writable_dir(path, what: str) -> None:
    if not os.path.isdir(path):
        raise UsageError(f"{what} {path} does not exist or is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise UsageError(f"{what} {path} is not writable")


def _resolve_cache(args) -> Optional[ResultCache]:
    """The cache under ``--cache-dir``, or ``None`` when none is named."""
    if not args.cache_dir:
        return None
    cache = ResultCache(args.cache_dir)
    # entries are written under the versioned directory, which can be
    # unusable (a file, say) where the root is not
    try:
        cache.entry_dir.mkdir(parents=True, exist_ok=True)
    except OSError as ex:
        raise UsageError(
            f"cannot create cache directory {cache.entry_dir}: {ex.strerror or ex}"
        ) from ex
    for path in (cache.root, cache.entry_dir):
        _require_writable_dir(path, "cache directory")
    return cache


def _load_gap_file(path: str) -> GapSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as ex:
        raise UsageError(f"cannot read gap file {path}: {ex}") from ex
    except (ValueError, RecursionError) as ex:  # bad JSON or UTF-8, or nested too deep
        raise UsageError(f"gap file {path} is not valid JSON: {ex}") from ex
    try:
        return GapSpec.from_json(obj)
    except (KeyError, TypeError, ValueError) as ex:
        raise UsageError(f"gap file {path} is malformed: {ex}") from ex


def _parse_side_set(text: str) -> frozenset:
    try:
        parts = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as ex:
        raise UsageError(f"--set expects comma-separated side indices: {ex}") from ex
    if not parts:
        raise UsageError("--set must name at least one side index")
    return frozenset(parts)


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def cmd_types_enum(args) -> int:
    try:
        rows = catalogue_json(args.n)
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    if args.json:
        _emit_json({"alphabet": args.n, "count": len(rows), "types": rows})
        return EXIT_OK
    print(f"record types over the {args.n}-letter alphabet: {len(rows)}")
    for row in rows:
        flags = " top-comb" if row["top_comb"] else ""
        print(f"  {row['id']:3d}  {row['text']}  (max {row['max']}{flags})")
    return EXIT_OK


def cmd_gaps_enum_strong(args) -> int:
    if args.n not in (2, 3):
        raise UsageError(
            "strong enumeration is desk-scale for --n 2 or 3 "
            f"(got {args.n})"
        )
    payload = _strong_classes(args.n, _resolve_cache(args))
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(f"strong {args.n}-gap candidates: {payload['candidates']}")
    print(f"minimal classes (mutual order): {len(payload['classes'])}")
    if args.upto_perm:
        print(
            "up to letter-and-side permutation (alphabet convention): "
            f"{payload['quotients']['alphabet']}"
        )
    else:
        for idx, cls in enumerate(payload["classes"], start=1):
            rep = " | ".join(",".join(side) for side in cls[0])
            extra = f" (+{len(cls) - 1} mutually ordered)" if len(cls) > 1 else ""
            print(f"  class {idx:2d}: {rep}{extra}")
    return EXIT_OK


def _emit_answer(args, answer: Answer, revalidated: Optional[bool], searched: str, **extra) -> int:
    """Print a search's answer: with ``--json`` its JSON form, ``extra``
    and ``revalidated``; else the verdict, the witness and ``searched``."""
    if args.json:
        _emit_json({**answer.as_dict(), **extra, "revalidated": revalidated})
        return EXIT_OK
    print(f"verdict: {answer.verdict}")
    if answer.witness is not None:
        print(f"witness: {answer.witness.kind} {answer.witness.label}")
        print(f"revalidated: {revalidated}")
    print(f"searched: {searched}")
    return EXIT_OK


def cmd_gaps_order(args) -> int:
    left = _load_gap_file(args.left)
    right = _load_gap_file(args.right)
    try:
        answer = order_le(left, right)
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    revalidated = revalidate_order(left, right, answer) if answer.witness else None
    extent = "exact" if left.layer == FIRST_MOVE else "bounded"
    return _emit_answer(args, answer, revalidated, f"{answer.searched} ({extent})")


def cmd_breaking_check(args) -> int:
    gap = _load_gap_file(args.gap)
    broken = _parse_side_set(args.set)
    try:
        answer = break_check(gap, broken)
    except ValueError as ex:
        raise UsageError(str(ex)) from ex
    revalidated = revalidate_break(gap, broken, answer) if answer.witness else None
    return _emit_answer(
        args,
        answer,
        revalidated,
        f"{answer.searched} candidate embeddings",
        gap=gap.to_json(),
        broken_sides=sorted(broken),
    )


def cmd_audit_paper_tables(args) -> int:
    only = None
    if args.only is not None:
        only = {name.strip() for name in args.only.split(",") if name.strip()}
        if not only:
            raise UsageError("--only must name at least one check")
    out_path = args.json_out or "adicgaps-audit.json"
    if os.path.isdir(out_path):
        raise UsageError(f"report path {out_path} is a directory")
    _require_writable_dir(os.path.dirname(out_path) or ".", "report directory")
    report = run_audit(
        seed=args.seed,
        only=only,
        progress=lambda line: print(line),
    )
    summary = report["summary"]
    print(
        f"audit: {summary['pass']} pass, {summary['fail']} fail, "
        f"{summary['discrepancy_known']} known discrepancies"
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"report written to {out_path}")
    return EXIT_FAIL if summary["fail"] else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adicgaps",
        description="finite combinatorics of multiple gaps on n-adic trees",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    types_group = groups.add_parser("types", help="record type catalogue")
    types_cmds = types_group.add_subparsers(dest="command", required=True)
    types_enum = types_cmds.add_parser(
        "enum", help="list every record type over an alphabet"
    )
    types_enum.add_argument("--n", type=int, required=True, help="alphabet size")
    types_enum.add_argument("--json", action="store_true", help="emit JSON")
    types_enum.set_defaults(func=cmd_types_enum)

    gaps_group = groups.add_parser("gaps", help="gap candidates and their order")
    gaps_cmds = gaps_group.add_subparsers(dest="command", required=True)
    enum_strong = gaps_cmds.add_parser(
        "enum-strong", help="enumerate strong gap candidates and minimal classes"
    )
    enum_strong.add_argument("--n", type=int, required=True, help="number of sides")
    enum_strong.add_argument(
        "--upto-perm",
        action="store_true",
        help="report the class count up to letter-and-side permutation",
    )
    enum_strong.add_argument("--json", action="store_true", help="emit JSON")
    enum_strong.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="read and write the classes in a result cache under DIR "
        "(created if missing); any entry of the right form found there is "
        "trusted as is.  Without it nothing is cached",
    )
    enum_strong.set_defaults(func=cmd_gaps_enum_strong)

    order = gaps_cmds.add_parser(
        "order", help="decide whether one gap lies below another"
    )
    order.add_argument("--left", required=True, metavar="FILE", help="gap JSON file")
    order.add_argument("--right", required=True, metavar="FILE", help="gap JSON file")
    order.add_argument("--json", action="store_true", help="emit JSON")
    order.set_defaults(func=cmd_gaps_order)

    breaking_group = groups.add_parser("breaking", help="restriction analysis")
    breaking_cmds = breaking_group.add_subparsers(dest="command", required=True)
    check = breaking_cmds.add_parser(
        "check", help="test whether a side set breaks on some subtree"
    )
    check.add_argument("--gap", required=True, metavar="FILE", help="gap JSON file")
    check.add_argument(
        "--set",
        required=True,
        metavar="LIST",
        help="comma-separated side indices that must keep meeting the subtree",
    )
    check.add_argument("--json", action="store_true", help="emit JSON")
    check.set_defaults(func=cmd_breaking_check)

    audit_group = groups.add_parser("audit", help="reference-table audits")
    audit_cmds = audit_group.add_subparsers(dest="command", required=True)
    paper_tables = audit_cmds.add_parser(
        "paper-tables",
        help="re-derive every desk-scale reference value and write a report",
    )
    paper_tables.add_argument(
        "--seed", type=int, default=0, help="seed for the sampled checks"
    )
    paper_tables.add_argument(
        "--json-out",
        metavar="FILE",
        help="report path (default: adicgaps-audit.json)",
    )
    paper_tables.add_argument(
        "--only",
        metavar="CHECKS",
        help="comma-separated subset of checks to run (marks the report partial)",
    )
    paper_tables.add_argument(
        "--no-cache",
        action="store_true",
        help="ignored: the audit reads and writes no cache.  Accepted only "
        "because the benchmark's audit argv passes it, and retired with that "
        "argv",
    )
    paper_tables.set_defaults(func=cmd_audit_paper_tables)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed standard output (``| head``); send what is still
        # buffered to the null device so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
