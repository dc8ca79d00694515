"""Candidate embeddings: generation, admission, memo and revalidation.

Both record-layer searches -- the witnessed gap order (:mod:`adicgaps.gaps`)
and breaking (:mod:`adicgaps.breaking`) -- draw their witnesses from one
pool here, :func:`candidate_pool`.  A candidate is an embedding described
by a JSON payload, together with its total action on symbols (record types
here; comb kinds for the first-move order's witnesses, e-family payloads
built by :mod:`adicgaps.gaps`).  The pool yields four kinds, in this
order, the substitutions in the one order of :func:`block_tuples`:

* ``subalphabet`` -- increasing letter injections; the action is the
  relabelling rule;
* ``substitution`` -- injective block maps; the action is probed;
* ``efamily`` -- realizations of branch-word families of at most
  ``EFAMILY_LETTERS`` letters; the action is probed;
* ``domination`` -- the dyadic two-type construction; the action is the
  construction's defining rule.

Each probed embedding is probed once per process: its payload JSON keys a
memo of its policy-free probed action -- the type action when it is total
and every pooled same-type sample maps and corroborates it, else ``None``.
The probe takes one domain type at a time: the witness image, then the
type's samples from the frozen same-type pool
(:func:`~adicgaps.types.same_type_probes`), then the larger witness image,
and it stops at the first failure.  Most rejected maps are refuted by an
early type's sample, so they never pay for the later witnesses.  A sample
that cannot be mapped refutes like one that disagrees; none does in the
searches, whose samples have at most 4 letters and whose tabulated domains
are at least 40 deep.  The memo keeps actions, never embeddings.  Both
policies read the same action:

* ``RANGE`` (breaking): the action is total and stable, and pooled same-type
  samples corroborate it.
* ``ORDER`` (the gap order): the same, plus maximum-letter monotonicity and
  a structural replay.  Only the replay needs the embedding, which is
  rebuilt from the payload for it.  The replay's samples and re-embeddings
  are drawn once per domain alphabet (and kind of map), so each candidate
  only maps them and compares the images.

Both searches walk the same order; they differ only in the domain
alphabets they ask for (breaking all up to its gap's, the order its left
gap's) and in the policy.  Both answer in one :class:`Answer`: the
verdict, the witness candidate, the number of candidates walked and the
search's extent.  The extent of each search is fixed here --
block length, e-family letters and the policy's domain depth -- and
:func:`budget_json` reports it.  :func:`revalidate` rebuilds a candidate's
embedding from its payload alone and probes it afresh under the
consumer's policy, never reading the memo; a witness stands only when the
two actions agree.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

from .combs import EFamily, enumerate_efamilies
from .embeddings import (
    DOMAIN_DEPTH,
    REPLAY_DEPTH,
    REPLAY_SAMPLES,
    STABLE,
    Embedding,
    SubstitutionEmbedding,
    TabulatedEmbedding,
    ValidationFailure,
    apply,
    domination_embedding,
    max_monotone,
    probe_json,
    read,
    realize_efamily,
    replay_fixture,
    structural_replay,
    type_action,
)
from .tree import Node, empty_node, format_node, random_node_set, words_upto
from .types import (
    TypeDescriptor,
    classify_type,
    dominates,
    enumerate_types,
    parse_type,
    print_type,
    relabel,
    same_type_probes,
)

RANGE = "range"
ORDER = "order"


#: The extent of every record search, fixed: the longest substitution block,
#: the most letters in an e-family's words, and the depth of the tabulated
#: domains (e-family realizations, domination constructions) each policy
#: builds.  Breaking tabulates to 40: at 64 its pool grows from 86 to 95
#: candidates and the audit's pinned values move.  The other probe bounds
#: are the constants of :mod:`adicgaps.embeddings`.  Subalphabet inclusions
#: and domination constructions are finite families, always enumerated in
#: full.
SUBSTITUTION_BLOCKS = 3
EFAMILY_LETTERS = 12
DOMAIN_DEPTHS = {ORDER: DOMAIN_DEPTH, RANGE: 40}


def budget_json(policy: str) -> dict:
    """The extent of a search under ``policy``, for reports."""
    return {
        "substitution_blocks": SUBSTITUTION_BLOCKS,
        "efamily_letters": EFAMILY_LETTERS,
        "probe": probe_json(DOMAIN_DEPTHS[policy]),
    }


@dataclass(frozen=True)
class Candidate:
    """A witness embedding: its total action on symbols (record types, or
    comb kinds for a first-move witness) and the JSON payload that rebuilds
    it."""

    kind: str  # "subalphabet" | "substitution" | "efamily" | "domination"
    label: str
    domain_alphabet: int
    action: tuple  # ((symbol, image), ...) in the domain catalogue order
    payload: dict

    @property
    def range_types(self) -> frozenset:
        return frozenset(sigma for _, sigma in self.action)

    def lookup(self) -> dict:
        return dict(self.action)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "domain_alphabet": self.domain_alphabet,
            "action": {str(symbol): str(image) for symbol, image in self.action},
            "embedding": self.payload,
        }


@dataclass(frozen=True)
class Answer:
    """A search's answer to either question, the gap order (g <= h) or
    breaking (does side set B break?): the verdict, the witness when there
    is one, the number of candidates walked, and the search's extent
    (:func:`budget_json`), ``None`` where the search is exact."""

    verdict: str
    witness: Optional[Candidate]
    searched: int
    budget: Optional[dict]

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None if self.witness is None else self.witness.as_dict(),
            "searched": self.searched,
            "budget": self.budget,
        }


def _digits(word: Node) -> str:
    return "".join(str(letter) * count for letter, count in word.runs)


def efamily_label(fam: EFamily) -> str:
    return f"e_inf={_digits(fam.e_inf)};e={','.join(_digits(w) for w in fam.e)}"


def efamily_payload(fam: EFamily) -> dict:
    """The words of a branch-word family, as an e-family witness carries them."""
    words = [format_node(w) for w in (fam.e_inf,) + fam.e]
    return {"kind": "efamily", "alphabet_out": fam.alphabet_out, "e_inf": words[0], "e": words[1:]}


def efamily_of(payload: dict) -> EFamily:
    """The family an e-family payload names; ValueError when it names none."""
    try:
        return EFamily.of(payload["alphabet_out"], payload["e_inf"], payload["e"])
    except (AttributeError, KeyError, TypeError) as ex:
        raise ValueError(f"malformed e-family payload: {ex!r}") from ex


# --------------------------------------------------------------------------
# probing and admission


def probe(phi: Embedding) -> Optional[tuple]:
    """Probe ``phi`` once, one domain type at a time, in catalogue order.

    For each type the witness image is classified, then the type's pooled
    same-type samples, then the larger witness image (:func:`read`).
    The result is the type action, in catalogue order, when every domain
    type classifies stably (nothing unstable, unverified or skipped) and
    every sample maps and classifies as its type's witness, else ``None``.
    The probe stops at the first failure, so a map that a sample of an early
    type refutes classifies no witness of a later type.  Over a domain
    alphabet with no pool (4) the pool's :class:`~adicgaps.tree.ScaleLimit`
    propagates.
    """

    def corroborated(tau: TypeDescriptor, first: TypeDescriptor) -> bool:
        # outside the try: over an alphabet with no pool the ScaleLimit
        # propagates, and the probe refuses rather than refutes
        samples = same_type_probes(phi.domain_alphabet)[tau]
        try:
            return all(classify_type(apply(phi, sample)) == first for sample in samples)
        except ValueError:  # out of the domain or scale, or not classifiable
            return False

    mapping = {}
    for tau in enumerate_types(phi.domain_alphabet):
        status, sigma = read(phi, tau, corroborated)
        if status != STABLE:
            return None
        mapping[tau] = sigma
    return tuple(mapping.items())


@lru_cache(maxsize=None)
def _replay_fixture(alphabet: int, tabulated: bool) -> tuple:
    """The replay samples of every candidate over ``alphabet``, drawn once.

    Tabulated maps are replayed on the random samples alone: re-embedded
    samples can leave their finite domain.
    """
    rng = random.Random(0)
    samples = [
        random_node_set(rng, alphabet, rng.randint(2, 5), max_len=REPLAY_DEPTH)
        for _ in range(REPLAY_SAMPLES)
    ]
    return replay_fixture(samples, None if tabulated else rng)


def _survives_replay(phi: Embedding) -> bool:
    """Structural replay: injectivity, the well order and first-move
    equivalence on sampled sets.  A letter swap, say, reverses the well
    order on same-length words, so its would-be action on types is not well
    defined."""
    fixture = _replay_fixture(phi.domain_alphabet, isinstance(phi, TabulatedEmbedding))
    try:
        structural_replay(phi, fixture)
    except ValueError:
        return False
    return True


def admit(
    action: Optional[tuple], policy: str, embedding: Callable[[], Embedding]
) -> Optional[tuple]:
    """The probed type action when admissible under ``policy``, else ``None``.

    Both policies need a total action that every pooled same-type sample
    corroborates, which is what :func:`probe` returns.  ``ORDER`` adds
    maximum-letter monotonicity and the structural replay.  Breaking
    quantifies over the range *set* only, and demanding monotonicity there
    would empty the witness families it searches.  ``embedding()`` is
    called only for the replay.
    """
    if policy not in (RANGE, ORDER):
        raise ValueError(f"unknown admissibility policy {policy!r}")
    if action is None:
        return None
    if policy == ORDER and (
        not max_monotone(dict(action)) or not _survives_replay(embedding())
    ):
        return None
    return action


# --------------------------------------------------------------------------
# payloads: rules, rebuilding and the memo


def _rule_action(payload: dict) -> tuple:
    """The defining action of a rule-level kind."""
    if payload["kind"] == "subalphabet":
        iota, m_out = tuple(payload["iota"]), payload["alphabet_out"]
        return tuple((tau, relabel(tau, iota, m_out)) for tau in enumerate_types(len(iota)))
    tau0, tau1 = _domination_types(payload)
    catalogue = enumerate_types(2)
    return tuple((tau, tau0 if tau == catalogue[0] else tau1) for tau in catalogue)


def _domination_types(payload: dict) -> tuple:
    return parse_type(payload["tau0"], 2), parse_type(payload["tau1"], 2)


def _build(payload: dict) -> Embedding:
    """The embedding a probed kind's payload describes; ValueError when it
    cannot be built.  The payload carries everything the build reads."""
    kind = payload["kind"]
    if kind == "substitution":
        phi = SubstitutionEmbedding.from_json(payload)
        if not phi.injective:
            raise ValidationFailure("blocks are not uniquely decodable")
        return phi
    if kind == "efamily":
        return realize_efamily(efamily_of(payload), depth=payload["depth"])
    raise ValueError(f"no probed embedding to build for kind {kind!r}")


def _derive_action(payload: dict, policy: str) -> Optional[tuple]:
    """Recompute a candidate's action from its payload alone, or ``None``.

    Subalphabet inclusions recompute the relabelling rule.  Probed kinds are
    rebuilt, probed and admitted under ``policy``.  A domination payload must
    name a dominating top-comb, and the construction, built at the policy's
    domain depth, must have probed values that agree with the defining rule.
    A payload that is missing a field or holds a malformed one gives
    ``None``.
    """
    kind = payload["kind"]
    try:
        if kind == "subalphabet":
            return _rule_action(payload)
        if kind == "domination":
            tau0, tau1 = _domination_types(payload)
        else:
            phi = _build(payload)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    if kind != "domination":
        return admit(probe(phi), policy, lambda: phi)
    if not dominates(tau1, tau0):
        return None
    phi = domination_embedding(tau0, tau1, DOMAIN_DEPTHS[policy])
    rule = _rule_action(payload)
    expected = dict(rule)
    if any(expected[tau] != sigma for tau, sigma in type_action(phi).mapping):
        return None
    return rule


@lru_cache(maxsize=None)
def _memoized_probe(payload_json: str) -> Optional[tuple]:
    """One probe per payload per process, read by both policies.  Only the
    action is kept; the embedding is dropped once probed."""
    try:
        phi = _build(json.loads(payload_json))
    except ValueError:
        return None
    return probe(phi)


def _probed(label: str, payload: dict, policy: str) -> Iterator[Candidate]:
    """The candidate, when its memoized probed action is admitted."""
    probed = _memoized_probe(json.dumps(payload, sort_keys=True))
    action = admit(probed, policy, lambda: _build(payload))
    if action is not None:
        yield Candidate(payload["kind"], label, action[0][0].alphabet, action, payload)


def revalidate(candidate: Candidate, policy: str) -> bool:
    """Recheck a candidate from its payload alone: the action is recomputed
    (never read from the memo) and must equal the stored one."""
    payload = candidate.payload
    return (
        payload.get("kind") == candidate.kind
        and _derive_action(payload, policy) == candidate.action
    )


# --------------------------------------------------------------------------
# generators


def subalphabets(m_in: int, m_out: int) -> Iterator[Candidate]:
    """Increasing letter injections, with their exact relabelling actions."""
    for iota in itertools.combinations(range(m_out), m_in):
        payload = {"kind": "subalphabet", "iota": list(iota), "alphabet_out": m_out}
        label = f"iota={','.join(map(str, iota))}"
        yield Candidate("subalphabet", label, m_in, _rule_action(payload), payload)


def block_tuples(m_in: int, m_out: int) -> Iterator[tuple]:
    """Every ``m_in``-tuple of words of at most ``SUBSTITUTION_BLOCKS``
    letters over ``m_out``, lazily, in the one substitution order: by
    longest block, then total length, then letters.

    Tuples of single letters are left out: their ranges are subalphabet
    subtrees, which the inclusions cover exactly.  Within one (longest,
    total) group each length profile's product of letter-ordered words is
    already in order, so one merge per group orders the group and nothing is
    materialized."""
    words = words_upto(m_out, SUBSTITUTION_BLOCKS)  # shortest first
    by_length = {
        n: list(group) for n, group in itertools.groupby(words, key=lambda w: w.length)
    }
    profiles = list(itertools.product(by_length, repeat=m_in))
    for longest in range(2, SUBSTITUTION_BLOCKS + 1):
        for total in range(longest + m_in - 1, longest * m_in + 1):
            group = [
                itertools.product(*(by_length[n] for n in profile))
                for profile in profiles
                if max(profile) == longest and sum(profile) == total
            ]
            yield from heapq.merge(*group, key=lambda blocks: tuple(b.letters for b in blocks))


def substitutions(m_in: int, m_out: int, policy: str) -> Iterator[Candidate]:
    """Injective block maps, in :func:`block_tuples` order."""
    for blocks in block_tuples(m_in, m_out):
        phi = SubstitutionEmbedding(empty_node(m_out), blocks)
        if phi.injective:
            label = "blocks=" + ",".join(_digits(b) for b in blocks)
            yield from _probed(label, phi.to_json(), policy)


def efamilies(m_in: int, m_out: int, policy: str) -> Iterator[Candidate]:
    """Realizations of the branch-word families of at most
    ``EFAMILY_LETTERS`` letters, tabulated at the policy's domain depth."""
    for fam in enumerate_efamilies(m_in, m_out):
        if fam.e_inf.length + sum(w.length for w in fam.e) > EFAMILY_LETTERS:
            continue
        payload = {**efamily_payload(fam), "depth": DOMAIN_DEPTHS[policy]}
        yield from _probed(efamily_label(fam), payload, policy)


def dominations(m_in: int, m_out: int) -> Iterator[Candidate]:
    """Two-type actions of the dyadic domination construction: the first
    chain type lands on the dominated type, everything else on the
    dominating top-comb.  The action is the construction's defining rule;
    the embedding itself is built only on revalidation."""
    if (m_in, m_out) != (2, 2):
        return
    catalogue = enumerate_types(2)
    for tau1 in catalogue:
        for tau0 in catalogue:
            if not dominates(tau1, tau0):  # tau1 must be a top-comb
                continue
            payload = {"kind": "domination", "tau0": print_type(tau0), "tau1": print_type(tau1)}
            label = f"tau0={payload['tau0']},tau1={payload['tau1']}"
            yield Candidate("domination", label, 2, _rule_action(payload), payload)


def candidate_pool(domains: Sequence[int], m_out: int, policy: str) -> Iterator[Candidate]:
    """Every candidate into ``m_out`` from the given domain alphabets, kind
    by kind: all inclusions, then the substitutions, the e-family
    realizations and the domination constructions, each over the domains in
    turn.

    The inclusions are built in full before anything is yielded, so an
    alphabet beyond the tabulated type catalogues raises ScaleLimit before
    any search.  Everything else is generated as it is drawn: a domain
    alphabet with no same-type pool (4) raises it at its first probed
    candidate."""
    yield from [cand for m_in in domains for cand in subalphabets(m_in, m_out)]
    for m_in in domains:
        yield from substitutions(m_in, m_out, policy)
    for m_in in domains:
        yield from efamilies(m_in, m_out, policy)
    for m_in in domains:
        yield from dominations(m_in, m_out)
