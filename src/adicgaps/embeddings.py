"""Injective tree maps and their oracle-computed actions on combs and types.

Two families of maps are built here.  Substitution embeddings replace each
letter with a fixed block (the letter-doubling map psi is the canonical one).
Tabulated embeddings are lazily-filled tables over all words up to a domain
depth, produced by two constructions: the anchored realization of an e-family
(each tree edge routes through the corresponding branch word, with a 0-pad
after each block whose length follows a strictly order-increasing schedule,
so images are injective and order-monotone by length alone), and the
domination construction (route every word through a tooth of a fixed witness
family of the dominating type, indexed by the word's stem, again with padding
lengths from the same kind of schedule).

Actions on comb kinds and types are never derived symbolically: one reader,
:func:`read`, maps a symbol's canonical witness through the embedding and
classifies the image at two sizes, and a disagreement is reported as
instability rather than guessed away.  Module constants bound the witness
size, the default domain depth, the replay sample and the run count of
materialized teeth; :func:`probe_json` reports them.  Skipped probes are
reported by :func:`read`, not silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

from .combs import (
    CombKind,
    EFamily,
    classify_comb,
    comb_kinds,
    comb_witness,
    efamily_induced_map,
)
from .tree import (
    AmbiguousTruncation,
    Node,
    NodeSet,
    NotHomogeneous,
    ScaleLimit,
    empty_node,
    first_move_equivalent,
    node_from_runs,
    prec_compare,
    reembed,
    weight,
)
from .types import (
    TypeDescriptor,
    classify_type,
    enumerate_types,
    max_of,
    type_witness,
    witness_spec,
)


class ValidationFailure(ValueError):
    """An embedding failed its structural or oracle validation."""


class OutOfDomain(ValueError):
    """A node beyond the embedding's domain capability."""


PROBE_BLOCKS = 4  # witnesses are probed at this many blocks and one more
DOMAIN_DEPTH = 64  # default depth of a tabulated domain
REPLAY_SAMPLES = 20
REPLAY_DEPTH = 6  # longest word of a random replay sample
RUN_LIMIT = 20_000  # largest materialized tooth, in RLE runs


def probe_json(domain_depth: int) -> dict:
    """The probe bounds, for reports; only the domain depth varies."""
    return {
        "comb_blocks": PROBE_BLOCKS,
        "type_blocks": PROBE_BLOCKS,
        "domain_depth": domain_depth,
        "replay_samples": REPLAY_SAMPLES,
        "replay_depth": REPLAY_DEPTH,
        "run_limit": RUN_LIMIT,
    }


def _node_json(nd: Node) -> list:
    return [[letter, count] for letter, count in nd.runs]


def _node_from_json(alphabet: int, data: list) -> Node:
    return node_from_runs(alphabet, [(l, c) for l, c in data])


# ---------------------------------------------------------------------------
# substitution embeddings


def _uniquely_decodable(blocks: tuple[tuple[int, ...], ...]) -> bool:
    """Sardinas-Patterson: block concatenation is injective on sequences."""
    code = set(blocks)
    if len(code) != len(blocks) or any(not b for b in blocks):
        return False

    def suffixes(a, b):  # dangling suffix of b after a, if a is a prefix
        if len(a) <= len(b) and b[: len(a)] == a:
            return b[len(a):]
        return None

    pending = set()
    for a in code:
        for b in code:
            if a != b:
                s = suffixes(a, b)
                if s == ():
                    return False
                if s is not None:
                    pending.add(s)
    seen = set(pending)
    while pending:
        nxt = set()
        for d in pending:
            for c in code:
                for s in (suffixes(d, c), suffixes(c, d)):
                    if s == ():
                        return False
                    if s is not None and s not in seen:
                        nxt.add(s)
        seen |= nxt
        pending = nxt
    return True


@dataclass(frozen=True)
class SubstitutionEmbedding:
    """phi(empty) = root, phi(s + i) = phi(s) + blocks[i]."""

    root: Node
    blocks: tuple[Node, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        m = self.root.alphabet
        for b in self.blocks:
            if b.alphabet != m:
                raise ValueError("blocks and root must share an alphabet")
            if b.is_empty:
                raise ValueError("blocks must be nonempty")

    @property
    def domain_alphabet(self) -> int:
        return len(self.blocks)

    @property
    def codomain_alphabet(self) -> int:
        return self.root.alphabet

    @cached_property
    def injective(self) -> bool:
        """Whether block concatenation is injective; ScaleLimit when a block
        is too long to spell out."""
        return _uniquely_decodable(tuple(b.letters for b in self.blocks))

    def map_node(self, s: Node) -> Node:
        if s.alphabet != self.domain_alphabet:
            raise OutOfDomain(f"word over {s.alphabet} fed to arity {self.domain_alphabet}")
        out = self.root
        for letter, count in s.runs:
            out = out.concat(self.blocks[letter].repeat(count))
        return out

    def to_json(self) -> dict:
        return {
            "kind": "substitution",
            "alphabet": self.codomain_alphabet,
            "root": _node_json(self.root),
            "blocks": [_node_json(b) for b in self.blocks],
        }

    @staticmethod
    def from_json(data: dict) -> "SubstitutionEmbedding":
        m = data["alphabet"]
        return SubstitutionEmbedding(
            _node_from_json(m, data["root"]),
            tuple(_node_from_json(m, b) for b in data["blocks"]),
        )


def relabel_embedding(iota: Iterable[int], alphabet_out: int) -> SubstitutionEmbedding:
    """Single-letter blocks: the word map of a letter injection."""
    blocks = tuple(
        node_from_runs(alphabet_out, [(letter, 1)]) for letter in iota
    )
    return SubstitutionEmbedding(empty_node(alphabet_out), blocks)


def psi_map(n: int) -> SubstitutionEmbedding:
    """(s0, s1, ..., sk) -> (s0, n-1, s1, n-1, ..., sk, n-1)."""
    blocks = tuple(
        node_from_runs(n, [(i, 1), (n - 1, 1)]) if i != n - 1 else node_from_runs(n, [(n - 1, 2)])
        for i in range(n)
    )
    return SubstitutionEmbedding(empty_node(n), blocks)


# ---------------------------------------------------------------------------
# tabulated embeddings


class TabulatedEmbedding:
    """An explicit injective map on words up to a domain depth.

    The table is filled on demand from a generator function, so astronomical
    domains stay cheap: only probed words are materialized.  Witnesses
    serialize the construction that produced the map, never the table.
    """

    def __init__(
        self,
        domain_alphabet: int,
        codomain_alphabet: int,
        depth: int,
        fn: Callable[[Node], Node],
    ) -> None:
        self.domain_alphabet = domain_alphabet
        self.codomain_alphabet = codomain_alphabet
        self.depth = depth
        self._fn = fn
        self._table: dict[Node, Node] = {}

    def map_node(self, s: Node) -> Node:
        if s.alphabet != self.domain_alphabet:
            raise OutOfDomain(f"word over {s.alphabet} fed to arity {self.domain_alphabet}")
        if s.length > self.depth:
            raise OutOfDomain(f"word of length {s.length} beyond depth {self.depth}")
        hit = self._table.get(s)
        if hit is None:
            hit = self._fn(s)
            self._table[s] = hit
        return hit


Embedding = SubstitutionEmbedding | TabulatedEmbedding


def apply(phi: Embedding, a: NodeSet) -> NodeSet:
    """Elementwise image of a node set."""
    return NodeSet(
        phi.codomain_alphabet, frozenset(phi.map_node(s) for s in a.sorted_nodes)
    )


# ---------------------------------------------------------------------------
# oracle actions


STABLE, UNVERIFIED, UNSTABLE, SKIPPED, REFUTED = (
    "stable", "unverified", "unstable", "skipped", "refuted"
)


def read(phi: Embedding, symbol, between: Optional[Callable] = None) -> tuple[str, object]:
    """A domain comb kind's or record type's value under ``phi``, as
    ``(status, detail)``: its witness image classified at ``PROBE_BLOCKS``
    blocks, then, if ``between(symbol, first)`` accepts that reading when
    given, at one block more.  A witness or image that does not fit (scale
    or domain) is out of reach, an image that does not classify is
    unstable, and a witness whose image has fewer elements raises
    :class:`ValidationFailure`.  The outcomes:

    * ``(STABLE, sigma)``: both sizes classify as sigma;
    * ``(UNVERIFIED, sigma)``: the first does, the second is out of reach;
    * ``(UNSTABLE, None)``: an image does not classify, or the sizes differ;
    * ``(SKIPPED, None)``: the first is out of reach;
    * ``(REFUTED, None)``: ``between`` rejected the first reading.
    """
    comb = isinstance(symbol, CombKind)
    classify = classify_comb if comb else classify_type
    first = None
    for blocks in (PROBE_BLOCKS, PROBE_BLOCKS + 1):
        try:
            if comb:
                image = apply(phi, comb_witness(symbol, blocks, phi.domain_alphabet))
            else:
                image = apply(phi, type_witness(symbol, blocks))
            if len(image) != blocks:
                raise ValidationFailure(f"witness of {symbol} collapsed")
            sigma = classify(image)
        except (ScaleLimit, OutOfDomain):
            return (SKIPPED, None) if first is None else (UNVERIFIED, first)
        except (NotHomogeneous, AmbiguousTruncation):
            return UNSTABLE, None
        if first is None:
            if between is not None and not between(symbol, sigma):
                return REFUTED, None
            first = sigma
        elif sigma != first:
            return UNSTABLE, None
    return STABLE, first


def comb_action(phi: Embedding) -> tuple[tuple[CombKind, CombKind], ...]:
    """Each comb kind's :func:`read` value, as :func:`efamily_induced_map`
    pairs; a kind not ``STABLE`` raises :class:`ValidationFailure` naming its
    status.  Chain images always classify; comb images need not (a block
    longer than twice the spine block pushes teeth past the next branch
    point, and no comb witness looks like that)."""
    pairs = []
    for kind in comb_kinds(phi.domain_alphabet):
        status, image = read(phi, kind)
        if status != STABLE:
            raise ValidationFailure(f"comb action: {kind} reads {status}")
        pairs.append((kind, image))
    return tuple(pairs)


@dataclass(frozen=True)
class TypeActionReport:
    """Oracle action on types: the stable values and the unverified ones.
    Types that read as unstable or skipped have no value here; their
    statuses come from :func:`read`."""

    mapping: tuple[tuple[TypeDescriptor, TypeDescriptor], ...]
    unverified: tuple[tuple[TypeDescriptor, TypeDescriptor], ...]  # no second probe fit

    def as_dict(self) -> dict[TypeDescriptor, TypeDescriptor]:
        return dict(self.mapping)

    def probed(self) -> dict[TypeDescriptor, TypeDescriptor]:
        """Stable and unverified values together: everything with a reading."""
        out = dict(self.mapping)
        out.update(dict(self.unverified))
        return out


def type_action(phi: Embedding) -> TypeActionReport:
    """Every domain type's value, in catalogue order, where it has one."""
    readings = {STABLE: [], UNVERIFIED: []}
    for tau in enumerate_types(phi.domain_alphabet):
        status, detail = read(phi, tau)
        if status in readings:
            readings[status].append((tau, detail))
    return TypeActionReport(tuple(readings[STABLE]), tuple(readings[UNVERIFIED]))


# ---------------------------------------------------------------------------
# structural replay


@dataclass(frozen=True, slots=True)
class ReplaySample:
    """One replay sample with everything that does not depend on the map:
    its words in the well order, which is the domain-side order of every
    pair, and a re-embedding first-move equivalent to it (``None`` when
    none is compared)."""

    nodes: tuple[Node, ...]
    reembedded: Optional[NodeSet]


def replay_fixture(
    sample_sets: Iterable[NodeSet], rng: Optional[random.Random]
) -> tuple[ReplaySample, ...]:
    """The map-independent half of a structural replay.

    With ``rng``, each sample in turn gets one re-embedding drawn from it,
    kept only when it is first-move equivalent to its sample.  Without one,
    nothing is re-embedded: stem-routed and tabulated maps are replayed on
    their samples alone, since re-embedded samples can leave a finite
    domain.
    """
    fixture = []
    for a in sample_sets:
        b = reembed(a, rng) if rng is not None else None
        if b is not None and not first_move_equivalent(a, b):
            b = None
        fixture.append(ReplaySample(a.sorted_nodes, b))
    return tuple(fixture)


def structural_replay(phi: Embedding, fixture: tuple[ReplaySample, ...]) -> None:
    """Replay the structural conditions on a fixture's samples: injectivity,
    order monotonicity, and preservation of first-move equivalence.  Return
    when every sample passes; raise ValidationFailure naming the first
    violations otherwise.

    Images of meets are not compared with meets of images: that pointwise law
    fails even for correct constructions (anchors extend past the image of
    the shorter word).  What the equivalence layer actually needs is exactly
    what is replayed here.  Stem-routed maps preserve length order only on
    sets whose stems follow the word order, so they are replayed on
    witness-shaped samples rather than arbitrary ones.
    """
    violations = []
    for k, sample in enumerate(fixture):
        images = {s: phi.map_node(s) for s in sample.nodes}
        for i, s in enumerate(sample.nodes):
            for t in sample.nodes[:i]:  # t comes before s
                if images[s] == images[t]:
                    violations.append(f"collision: {s!r} and {t!r}")
                if prec_compare(images[s], images[t]) != 1:
                    violations.append(f"order flip: {s!r} vs {t!r}")
        if sample.reembedded is not None:
            image = NodeSet(phi.codomain_alphabet, frozenset(images.values()))
            if not first_move_equivalent(image, apply(phi, sample.reembedded)):
                violations.append(f"equivalence lost on sample {k}")
    if violations:
        raise ValidationFailure("; ".join(violations[:3]))


# ---------------------------------------------------------------------------
# anchored realization of an e-family


def realize_efamily(fam: EFamily, depth: int = DOMAIN_DEPTH) -> TabulatedEmbedding:
    """The tree map a branch-word family encodes, validated: its probed comb
    action must equal the family's induced map, or ValidationFailure names
    the first kind where they differ.

    Each edge s -> s+i appends e(i) and then a 0-pad; each word's image is
    its anchor followed by e(inf).  Pad lengths follow the schedule
    T(s) = K * ((n+1)**(2|s|+2) + weight(s)), which is strictly increasing in
    the well order, so images have strictly increasing lengths: injectivity
    and order monotonicity come from lengths alone.  When e(inf) lies below
    e(i) the image of s sits on the path into s's subtree images, which is
    what makes chain images chains in the degenerate case.
    """
    n, m = fam.n, fam.alphabet_out
    block_len = fam.e[0].length
    K = max(block_len, fam.e_inf.length, 1)

    def T(s: Node) -> int:
        return K * ((n + 1) ** (2 * s.length + 2) + weight(s))

    anchors: dict[Node, Node] = {empty_node(n): empty_node(m)}

    def anchor(s: Node) -> Node:
        hit = anchors.get(s)
        if hit is not None:
            return hit
        parent = s.prefix(s.length - 1)
        letter = s.letter_at(s.length - 1)
        # T grows by at least 3K per level and K >= block_len, so the pad is
        # positive; extend refuses a negative count
        out = anchor(parent).concat(fam.e[letter]).extend(0, T(s) - T(parent) - block_len)
        anchors[s] = out
        return out

    def fn(s: Node) -> Node:
        return anchor(s).concat(fam.e_inf)

    phi = TabulatedEmbedding(n, m, depth, fn=fn)
    for (kind, want), (_, have) in zip(efamily_induced_map(fam), comb_action(phi)):
        if want != have:
            raise ValidationFailure(
                f"comb action mismatch at {kind}: rule says {want}, oracle says {have}"
            )
    return phi


# ---------------------------------------------------------------------------
# the domination construction


def _stem(t: Node) -> Node:
    """t without its trailing 0-run."""
    runs = t.runs
    if runs and runs[-1][0] == 0:
        runs = runs[:-1]
    return node_from_runs(t.alphabet, runs)


def _stem_index(stem: Node) -> int:
    """Position of the stem in the well-ordered list of all stems.

    Stems are words not ending in 0 (plus the empty word); for length p >= 1
    there are (n-1) * n**(p-1) of them, ordered by length, then by the head
    (the stem without its last letter) read as a base-n numeral, which is
    ``weight(head) // n``, then by the last letter, 1 to n-1.
    """
    if stem.is_empty:
        return 0
    n = stem.alphabet
    p = stem.length
    before = 1 + sum((n - 1) * n ** (q - 1) for q in range(1, p))
    head_value = weight(stem.prefix(p - 1)) // n
    last = stem.letter_at(p - 1)
    return before + head_value * (n - 1) + (last - 1)


def domination_embedding(
    tau0: TypeDescriptor,
    tau1: TypeDescriptor,
    depth: int = DOMAIN_DEPTH,
) -> TabulatedEmbedding:
    """Route every word through a tooth of tau1's witness family.

    phi(t) = u1**(N * step) + v1 + u0**z + v0, where N is the index of t's
    stem (t minus its trailing 0-run) among all stems in the well order, z is
    the length of that trailing 0-run, and u0, v0 are the repeated and
    closing blocks of tau0's witness.  Words differing only in trailing 0s
    share a tooth, so a 0-chain climbs a single tooth by u0-blocks and each
    image closes with v0: the images of a 0-chain are a shifted copy of
    tau0's own witness {v0, u0+v0, u0+u0+v0, ...} and land in tau0's class,
    whatever its upper row.  For a pure lower-row tau0 the closing block is
    u0 itself, so the map is u1**(N * step) + v1 + u0**(z + 1).  Sets with
    distinct stems spread over distinct teeth and inherit tau1's record
    pattern.

    The spacing ``step`` is sized so each tooth's whole pad range, closing
    block included, fits strictly before the next tooth's branch point.
    That keeps every image of a canonical witness interleaved with the spine
    exactly the way the target type's own witness is, which is what the
    positional table comparison needs; images are injective outright
    because image lengths determine the stem window and the pad count.
    Length order is preserved on every set whose stem order agrees with its
    word order -- canonical witnesses and chains all do.  It cannot be
    preserved everywhere: 01 comes before 10 in the well order, but their
    stems 01 and 1 compare the other way, and any stem-routed map inherits
    that flip.

    tau1 is arbitrary: the interesting cases are dominating top-combs, but
    the construction itself does not require domination, and running it
    with a non-top-comb is how the mixed-output behavior is observed.

    Teeth for deep stems need index-many repetitions of u1; a tooth whose
    run count would exceed ``RUN_LIMIT`` raises ScaleLimit, which probing
    reports as a skip.
    """
    if tau0.alphabet != tau1.alphabet:
        raise ValueError("types must share an alphabet")
    n = tau0.alphabet
    spec0, spec1 = witness_spec(tau0), witness_spec(tau1)
    u0, v0 = spec0.u, spec0.v
    u1, v1 = spec1.u, spec1.v
    step = (v1.length + depth * u0.length + v0.length) // u1.length + 2

    def tooth(index: int) -> Node:
        if index * step * len(u1.runs) + len(v1.runs) > RUN_LIMIT:
            raise ScaleLimit(f"tooth {index} exceeds {RUN_LIMIT} runs")
        return u1.repeat(index * step).concat(v1)

    def fn(t: Node) -> Node:
        x = tooth(_stem_index(_stem(t)))
        z = t.runs[-1][1] if t.runs and t.runs[-1][0] == 0 else 0
        return x.concat(u0.repeat(z)).concat(v0)

    return TabulatedEmbedding(n, n, depth, fn=fn)


# ---------------------------------------------------------------------------
# max-monotonicity


def max_monotone(mapping: dict[TypeDescriptor, TypeDescriptor]) -> bool:
    """Whether a type action pushes max(tau) <= max(sigma) through to the
    images, over every pair of the mapping's domain types."""
    return all(
        max_of(mapping[tau]) <= max_of(mapping[sigma])
        for tau in mapping
        for sigma in mapping
        if max_of(tau) <= max_of(sigma)
    )
