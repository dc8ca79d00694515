"""Tests for substitution and tabulated embeddings and their actions."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

from adicgaps import embeddings
from adicgaps.combs import (
    CombKind,
    EFamily,
    classify_comb,
    comb_witness,
    efamily_induced_map,
    enumerate_efamilies,
)
from adicgaps.embeddings import (
    PROBE_BLOCKS,
    SKIPPED,
    STABLE,
    UNSTABLE,
    UNVERIFIED,
    OutOfDomain,
    SubstitutionEmbedding,
    TabulatedEmbedding,
    ValidationFailure,
    _stem_index,
    apply,
    comb_action,
    domination_embedding,
    max_monotone,
    psi_map,
    read,
    realize_efamily,
    relabel_embedding,
    replay_fixture,
    structural_replay,
    type_action,
)
from adicgaps.tree import (
    Node,
    NodeSet,
    ScaleLimit,
    empty_node,
    first_move_equivalent,
    format_node,
    node,
    node_from_runs,
    parse_node,
    prec_compare,
    prec_sorted,
    random_node_set,
    record_equivalent,
    reembed,
    words_upto,
)
from adicgaps.types import (
    classify_type,
    enumerate_types,
    parse_type,
    print_type,
    relabel,
    type_witness,
)

from helpers import (
    identity_map,
    map_json,
    parse_node_set,
    reembed_record,
    table_witness,
    tower_reps,
)


def _n(text, alphabet=2):
    return parse_node(alphabet, text)


def _random_replay_fixture(rng, alphabet):
    """Twenty random samples and their re-embeddings, all drawn from ``rng``."""
    samples = [
        random_node_set(rng, alphabet, rng.randint(2, 5), max_len=6) for _ in range(20)
    ]
    return replay_fixture(samples, rng)


def _assert_replayed_in_full(monkeypatch, phi, fixture):
    """The replay raises on a violation, so a return means none was found;
    what is left to check is that it compared every pair of every sample."""
    compared = []

    def counted(s, t):
        compared.append((s, t))
        return prec_compare(s, t)

    monkeypatch.setattr(embeddings, "prec_compare", counted)
    assert structural_replay(phi, fixture) is None
    assert len(compared) == sum(math.comb(len(s.nodes), 2) for s in fixture)


def _statuses(phi):
    """Each domain type's status under ``phi``, as :func:`read` reads it."""
    return {
        print_type(tau): read(phi, tau)[0] for tau in enumerate_types(phi.domain_alphabet)
    }


def _types(*texts, alphabet=2):
    return tuple(parse_type(t, alphabet) for t in texts)


# ---------------------------------------------------------------------------
# substitution embeddings


class TestSubstitution:
    def test_psi_word_images(self):
        psi = psi_map(2)
        assert format_node(psi.map_node(_n("0"))) == "01"
        assert format_node(psi.map_node(_n("00"))) == "0101"
        assert format_node(psi.map_node(_n("e"))) == "e"
        assert format_node(psi.map_node(_n("10"))) == "1101"

    def test_root_prefixes_every_image(self):
        phi = SubstitutionEmbedding(_n("10"), (_n("0"), _n("1")))
        assert format_node(phi.map_node(_n("01"))) == "1001"

    def test_injectivity_decided_exactly(self):
        # suffix code, not a prefix code: still injective
        assert SubstitutionEmbedding(empty_node(2), (_n("0"), _n("001"))).injective
        # genuinely ambiguous concatenations
        assert not SubstitutionEmbedding(empty_node(2), (_n("0"), _n("00"))).injective
        assert psi_map(3).injective

    def test_injectivity_of_blocks_too_long_to_spell_is_not_guessed(self):
        # 01 and 10 both map to 0^5,000,000: distinct blocks are not enough
        blocks = (node_from_runs(1, [(0, 2_000_000)]), node_from_runs(1, [(0, 3_000_000)]))
        phi = SubstitutionEmbedding(empty_node(1), blocks)
        assert phi.map_node(_n("01")) == phi.map_node(_n("10"))
        with pytest.raises(ScaleLimit):
            phi.injective

    def test_rle_blocks_stay_cheap_but_guarded(self):
        phi = psi_map(2)
        big = node(2, ()).extend(0, 2**70)  # a 0-run of astronomical length
        with pytest.raises(ScaleLimit):
            phi.map_node(big)  # the (0,1) block would need 2**71 runs
        single = SubstitutionEmbedding(empty_node(2), (_n("0"), _n("1")))
        assert single.map_node(big).length == 2**70  # single-run blocks are O(1)

    def test_json_roundtrip(self):
        phi = psi_map(2)
        data = json.loads(json.dumps(phi.to_json()))
        again = SubstitutionEmbedding.from_json(data)
        assert again == phi


# ---------------------------------------------------------------------------
# comb actions


class TestCombAction:
    def test_identity_and_psi_induce_identity(self):
        assert comb_action(relabel_embedding([0, 1], 2)) == identity_map(2)
        assert comb_action(psi_map(2)) == identity_map(2)
        assert comb_action(relabel_embedding([0, 1, 2], 3)) == identity_map(3)

    def test_block_formula_substitution_action(self):
        # blocks w_i = (0, 1-i).  Both blocks start with 0, so both chain
        # kinds land on 0-chains; the claimed fixed points (0,0)->(1,0) and
        # (1,1)->(1,1) of the formula's source are inconsistent with the
        # formula itself, and the oracle sides with the formula.
        phi = SubstitutionEmbedding(empty_node(2), (_n("01"), _n("00")))
        act = comb_action(phi)
        assert map_json(act) == {
            "0>0": "0>0",
            "0>1": "1>0",
            "1>0": "0>1",
            "1>1": "0>0",
        }
        # ...whereas the worked branch-word family induces a different map.
        fam = EFamily.of(2, "0", ["11", "01"])
        assert map_json(efamily_induced_map(fam)) == {
            "0>0": "1>0",
            "0>1": "1>0",
            "1>0": "0>1",
            "1>1": "1>1",
        }

    def test_chains_always_map_to_chains(self):
        words = [
            node(2, tup)
            for L in (1, 2, 3)
            for tup in itertools.product(range(2), repeat=L)
        ]
        checked = 0
        for w0, w1 in itertools.product(words, repeat=2):
            try:
                phi = SubstitutionEmbedding(empty_node(2), (w0, w1))
            except ValueError:
                continue
            if not phi.injective:
                continue
            for i in (0, 1):
                first_letter = (w0, w1)[i].letter_at(0)
                for count in (PROBE_BLOCKS, PROBE_BLOCKS + 1):
                    image = apply(phi, comb_witness(CombKind(i, i), count, 2))
                    assert classify_comb(image) == CombKind(first_letter, first_letter)
                checked += 1
        assert checked >= 300

    def test_some_injective_substitutions_have_partial_actions(self):
        # w1 three times longer than w0: teeth of a (0,1)-comb image pass
        # the next branch point, and no comb witness is shaped like that.
        phi = SubstitutionEmbedding(empty_node(2), (_n("0"), _n("110")))
        assert read(phi, CombKind(0, 1)) == (UNSTABLE, None)
        with pytest.raises(ValidationFailure, match="^comb action: 0>1 reads unstable$"):
            comb_action(phi)

    @pytest.mark.parametrize("depth, status", [(6, SKIPPED), (8, UNVERIFIED)])
    def test_a_kind_out_of_reach_is_reported(self, depth, status):
        # the longest word of the 0>0 witness has 7 letters at PROBE_BLOCKS
        # and 9 at one block more
        assert max(s.length for s in comb_witness(CombKind(0, 0), PROBE_BLOCKS, 2).nodes) == 7
        shallow = TabulatedEmbedding(2, 2, depth, fn=lambda s: s)
        with pytest.raises(ValidationFailure, match=f"^comb action: 0>0 reads {status}$"):
            comb_action(shallow)

    def test_a_family_realized_too_shallow_is_reported(self):
        fam = EFamily.of(2, "0", ["11", "01"])
        assert comb_action(realize_efamily(fam, depth=9)) == efamily_induced_map(fam)
        with pytest.raises(ValidationFailure, match="^comb action: 0>0 reads unverified$"):
            realize_efamily(fam, depth=8)

    def test_collapsing_map_is_reported(self):
        squash = TabulatedEmbedding(2, 2, 16, fn=lambda s: _n("0"))
        with pytest.raises(ValidationFailure, match="^witness of 0>0 collapsed$"):
            comb_action(squash)


# ---------------------------------------------------------------------------
# type actions


PSI_ACTION = {
    "[l0]": "[l0 l1]",
    "[l1]": "[l1]",
    "[l0 l1]": "[l0 l1]",
    "[u0 l1]": "[u0 u1 l1]",
    "[u1 l0]": "[l0 u1 l1]",
    "[l0 u1 l1]": "[l0 u1 l1]",
    "[u0 u1 l1]": "[u0 u1 l1]",
    "[u1 l0 l1]": "[l0 u1 l1]",
}


class TestTypeAction:
    def test_psi_action_frozen(self):
        report = type_action(psi_map(2))
        got = {print_type(a): print_type(b) for a, b in report.mapping}
        assert got == PSI_ACTION  # all eight types stable

    def test_psi_chain_images_directly(self):
        # the [l0]-chain maps onto {01, 0101, ...}, whose record pattern
        # alternates a fresh 0 with a fresh maximum 1
        img = apply(psi_map(2), parse_node_set(2, "{0,00,000,0000}"))
        assert print_type(classify_type(img)) == "[l0 l1]"

    def test_triadic_psi_counts(self):
        mapping = dict(type_action(psi_map(3)).mapping)
        assert len(mapping) == 61
        assert Counter(_statuses(psi_map(3)).values()) == {STABLE: 61}
        # each value read independently: a type of up to four tokens as the
        # images of its tower witness (the former schedule), and a five-token
        # type, whose tower witness cannot be mapped, as the images of record
        # re-embeddings of its witness
        rng = random.Random(0)
        for tau, sigma in mapping.items():
            if len(tau.tokens) < 5:
                sizes = (PROBE_BLOCKS, PROBE_BLOCKS + 1)
                sets = [table_witness(tau, tower_reps(tau), b) for b in sizes]
            else:
                sets = [reembed_record(type_witness(tau, PROBE_BLOCKS), rng) for _ in range(3)]
            for a in sets:
                assert classify_type(apply(psi_map(3), a)) == sigma, print_type(tau)

    def test_relabel_embedding_agrees_with_token_relabel(self):
        iota = (0, 2)
        phi = relabel_embedding(iota, 3)
        report = type_action(phi)
        expected = {tau: relabel(tau, iota, 3) for tau in enumerate_types(2)}
        assert report.as_dict() == expected  # all eight types stable

    def test_honest_readout_of_a_flattening_map(self):
        # an injective map that flattens everything onto one chain
        flat = TabulatedEmbedding(
            2, 2, 10, fn=lambda s: empty_node(2).extend(0, 1 + s.length * 100 + weight_key(s))
        )
        report = type_action(flat)
        got = report.as_dict()
        for tau, out in got.items():
            assert print_type(out) == "[l0]"


def weight_key(s):
    from adicgaps.tree import weight

    return weight(s)


# ---------------------------------------------------------------------------
# psi transfer


def _fm_preserving_relabeling(a: NodeSet, rng: random.Random) -> NodeSet:
    """Apply a random tree automorphism that uses the identity permutation at
    every meet-closure node of ``a``.  Such a map rewrites letters strictly
    inside branches, so it keeps lengths, meets, and first moves intact while
    scrambling everything the first-move structure does not see."""
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

    out: list[Node] = []
    for w in a.sorted_nodes:
        prefix = empty_node(n)
        image = empty_node(n)
        for k in range(w.length):
            letter = w.letter_at(k)
            image = image.extend(perm_at(prefix)[letter])
            prefix = prefix.extend(letter)
        out.append(image)
    return NodeSet(n, frozenset(out))


class TestPsiTransfer:
    @pytest.mark.parametrize("alphabet", [2, 3])
    def test_psi_turns_first_move_equivalence_into_record_equivalence(self, alphabet):
        rng = random.Random(20260816 + alphabet)
        psi = psi_map(alphabet)
        for _ in range(200):
            a = random_node_set(rng, alphabet, rng.randint(2, 5), max_len=6)
            b = _fm_preserving_relabeling(a, rng)
            assert first_move_equivalent(a, b)
            assert record_equivalent(apply(psi, a), apply(psi, b))

    def test_reembedded_pairs_can_defeat_the_transfer(self):
        # The transfer needs length-preserving pairs.  Re-embedding with fresh
        # padding keeps first-move structure but shifts the record interiors
        # of the psi images relative to other closure nodes, so the record
        # tables may disagree.  This pins the boundary of the property.
        psi = psi_map(2)
        a = NodeSet.of(2, ["1", "110", "111", "00011", "001010"])
        rng = random.Random(20260816)
        while True:
            b = reembed(a, rng)
            assert first_move_equivalent(a, b)
            if not record_equivalent(apply(psi, a), apply(psi, b)):
                break


# ---------------------------------------------------------------------------
# realized branch-word families


WORKED_FAMILY_TYPE_ACTION = {
    "[l0]": "[u0 l1]",
    "[l1]": "[l1]",
    "[l0 l1]": "[u0 l1]",
    "[u0 l1]": "[l0 u1 l1]",
    "[u1 l0]": "[u0 u1 l1]",
    "[l0 u1 l1]": "[u0 u1 l1]",
    "[u0 u1 l1]": "[l0 u1 l1]",
    "[u1 l0 l1]": "[u0 u1 l1]",
}


class TestRealizeEFamily:
    def test_worked_family_validates_and_matches_rule(self):
        fam = EFamily.of(2, "0", ["11", "01"])
        phi = realize_efamily(fam)  # validation happens inside
        assert comb_action(phi) == efamily_induced_map(fam)
        assert format_node(phi.map_node(_n("e"))) == "0"

    def test_worked_family_type_action_frozen(self):
        phi = realize_efamily(EFamily.of(2, "0", ["11", "01"]))
        report = type_action(phi)
        got = {print_type(a): print_type(b) for a, b in report.mapping}
        assert got == WORKED_FAMILY_TYPE_ACTION  # all eight types stable

    def test_every_2_2_family_realizes(self):
        count = 0
        for fam in enumerate_efamilies(2, 2):
            realize_efamily(fam)
            count += 1
        assert count == 26

    def test_triadic_sample_realizes(self):
        fam = EFamily.of(3, "e", ["00", "11", "22"])
        phi = realize_efamily(fam)
        assert comb_action(phi) == efamily_induced_map(fam)

    def test_degenerate_diagonal_gives_chain_images(self):
        # e(inf) below e(0): images of 0-chains are genuine chains
        fam = EFamily.of(2, "1", ["10", "01"])
        phi = realize_efamily(fam)
        img = apply(phi, parse_node_set(2, "{0,00,000}"))
        nodes = img.sorted_nodes
        assert all(nodes[k].is_prefix_of(nodes[k + 1]) for k in range(len(nodes) - 1))

    def test_structural_replay(self, monkeypatch):
        phi = realize_efamily(EFamily.of(2, "0", ["11", "01"]))
        fixture = _random_replay_fixture(random.Random(5), 2)
        _assert_replayed_in_full(monkeypatch, phi, fixture)
        fixture = _random_replay_fixture(random.Random(6), 2)
        _assert_replayed_in_full(monkeypatch, psi_map(2), fixture)

    def test_domain_bounds(self):
        phi = realize_efamily(EFamily.of(2, "0", ["11", "01"]), depth=9)
        with pytest.raises(OutOfDomain):
            phi.map_node(_n("0000000000"))
        with pytest.raises(OutOfDomain):
            phi.map_node(parse_node(3, "012"))

    def test_witnesses_past_the_depth_read_as_out_of_reach(self):
        # the longest witness words of [u0 l1] and [u1 l0] have length 10 at
        # PROBE_BLOCKS and 13 at one block more, so at depth 12 only the first
        # reading fits; the witnesses of the other two-letter types reach 16
        # and more at PROBE_BLOCKS, and are skipped
        phi = realize_efamily(EFamily.of(2, "e", ["00", "10"]), depth=12)
        assert _statuses(phi) == {
            "[l0]": STABLE,
            "[l1]": STABLE,
            "[l0 l1]": SKIPPED,
            "[u0 l1]": UNVERIFIED,
            "[u1 l0]": UNVERIFIED,
            "[l0 u1 l1]": SKIPPED,
            "[u0 u1 l1]": SKIPPED,
            "[u1 l0 l1]": SKIPPED,
        }
        u0l1 = parse_type("[u0 l1]", 2)
        assert read(phi, u0l1) == (UNVERIFIED, u0l1)


# ---------------------------------------------------------------------------
# domination embeddings


class TestDomination:
    def test_dominating_top_comb_pulls_every_probe_up(self):
        tau0, tau1 = _types("[l0]", "[l0 u1 l1]")
        phi = domination_embedding(tau0, tau1)
        report = type_action(phi)
        probed = {print_type(a): print_type(b) for a, b in report.probed().items()}
        assert probed["[l0]"] == "[l0]"
        others = {k: v for k, v in probed.items() if k != "[l0]"}
        assert others == {
            "[l1]": "[l0 u1 l1]",
            "[u0 l1]": "[l0 u1 l1]",
            "[u1 l0]": "[l0 u1 l1]",
        }
        statuses = _statuses(phi)
        assert UNSTABLE not in statuses.values()
        # deep witnesses need teeth beyond the run budget: honestly skipped
        assert {t for t, status in statuses.items() if status == SKIPPED} == {
            "[l0 l1]", "[l0 u1 l1]", "[u0 u1 l1]", "[u1 l0 l1]",
        }

    def test_non_top_comb_mixes_outputs(self):
        tau0, tau1 = _types("[l0]", "[u1 l0 l1]")
        phi = domination_embedding(tau0, tau1)
        probed = {
            print_type(a): print_type(b)
            for a, b in type_action(phi).probed().items()
            if print_type(a) != "[l0]"
        }
        assert set(probed.values()) == {"[u1 l0 l1]", "[l0 u1 l1]"}
        assert probed["[l1]"] == "[u1 l0 l1]"      # teeth end away from 0
        assert probed["[u0 l1]"] == "[l0 u1 l1]"   # trailing-0 teeth pad past

    def test_alphabet_one_identity_like_chain_map(self):
        one = parse_type("[l0]", 1)
        phi = domination_embedding(one, one)
        words = [parse_node(1, "e"), parse_node(1, "0"), parse_node(1, "00")]
        images = [phi.map_node(w) for w in words]
        assert [w.length for w in images] == [2, 3, 4]
        report = type_action(phi)
        assert {print_type(a): print_type(b) for a, b in report.mapping} == {"[l0]": "[l0]"}

    def test_zero_chains_climb_one_tooth(self):
        tau0, tau1 = _types("[l0]", "[l0 u1 l1]")
        phi = domination_embedding(tau0, tau1)
        img = apply(phi, parse_node_set(2, "{0,00,000,0000}"))
        assert print_type(classify_type(img)) == "[l0]"

    def test_replay_on_witness_shaped_samples(self, monkeypatch):
        tau0, tau1 = _types("[l0]", "[l0 u1 l1]")
        phi = domination_embedding(tau0, tau1)
        samples = [
            type_witness(parse_type(t, 2), 4)
            for t in ("[l0]", "[l1]", "[u1 l0]", "[u0 l1]")
        ]
        fixture = replay_fixture(samples, None)
        _assert_replayed_in_full(monkeypatch, phi, fixture)

    def test_deep_teeth_are_guarded(self):
        tau0, tau1 = _types("[l0]", "[l0 u1 l1]")
        phi = domination_embedding(tau0, tau1)
        deep = type_witness(parse_type("[u1 l0 l1]", 2), 4)
        with pytest.raises(ScaleLimit):
            for s in deep.sorted_nodes:
                phi.map_node(s)

    def test_stem_index_is_the_position_among_stems(self):
        # stems: the empty word and every word not ending in 0, well ordered
        for alphabet in (2, 3, 4):
            words = prec_sorted([empty_node(alphabet), *words_upto(alphabet, 6)])
            stems = [w for w in words if not w.runs or w.runs[-1][0] != 0]
            assert [_stem_index(s) for s in stems] == list(range(len(stems)))

    def test_preconditions(self):
        tau1 = parse_type("[l0 u1 l1]", 2)
        with pytest.raises(ValueError):
            domination_embedding(parse_type("[l0]", 3), tau1)


# ---------------------------------------------------------------------------
# max monotonicity


class TestMaxMonotonicity:
    @pytest.mark.parametrize(
        "name,make",
        [
            ("psi2", lambda: psi_map(2)),
            ("psi3", lambda: psi_map(3)),
            ("identity", lambda: relabel_embedding([0, 1], 2)),
            ("worked-family", lambda: realize_efamily(EFamily.of(2, "0", ["11", "01"]))),
            (
                "domination",
                lambda: domination_embedding(*_types("[l0]", "[l0 u1 l1]")),
            ),
        ],
    )
    def test_no_violations(self, name, make):
        assert max_monotone(type_action(make()).as_dict())

    def test_swapped_maxima_violate(self):
        chain0, chain1 = _types("[l0]", "[l1]")
        assert max_monotone({chain0: chain0, chain1: chain1})
        assert not max_monotone({chain0: chain1, chain1: chain0})
