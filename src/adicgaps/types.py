"""Record-layer type descriptors over a finite alphabet.

A type is a pair of letter sets, a lower row and an upper row, merged into a
single left-to-right token order.  Within each row the letters increase, the
lower row is nonempty, the two rows do not share their minimum, and the
rightmost token is the largest lower letter.  Tokens are written ``l<k>``
(lower) and ``u<k>`` (upper) inside brackets, e.g. ``"[u2 u3 l1 u4 l2]"``.

A type describes how records accumulate along a homogeneous set: the witness
of a type repeats each token's letter on a growing schedule so that,
climbing through the witness, lower-row letters set records inside the
repeated block u and upper-row letters inside the closing block v.  Every
witness over the supported alphabets builds, and classification inverts it:
the witness of each type classifies as that type, by the tree's one
classifier (:func:`~adicgaps.tree.classify`) on record tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .tree import (
    Node,
    NodeSet,
    ScaleLimit,
    classify,
    empty_node,
    node_from_runs,
    record_table,
    witness_classes,
)

Token = tuple[int, int]  # (letter, row); row 0 = lower, 1 = upper

TYPE_ALPHABET_LIMIT = 4


@dataclass(frozen=True)
class TypeDescriptor:
    alphabet: int
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("empty token list")
        lower = [k for k, row in self.tokens if row == 0]
        upper = [k for k, row in self.tokens if row == 1]
        for k, row in self.tokens:
            if row not in (0, 1):
                raise ValueError(f"bad row {row}")
            if not 0 <= k < self.alphabet:
                raise ValueError(f"letter {k} outside alphabet {self.alphabet}")
        if not lower:
            raise ValueError("lower row must be nonempty")
        if lower != sorted(lower) or len(set(lower)) != len(lower):
            raise ValueError("lower row must strictly increase left to right")
        if upper != sorted(upper) or len(set(upper)) != len(upper):
            raise ValueError("upper row must strictly increase left to right")
        if upper and min(lower) == min(upper):
            raise ValueError("rows must not share their minimum letter")
        if self.tokens[-1] != (max(lower), 0):
            raise ValueError("rightmost token must be the largest lower letter")

    @property
    def tau0(self) -> frozenset[int]:
        return frozenset(k for k, row in self.tokens if row == 0)

    @property
    def tau1(self) -> frozenset[int]:
        return frozenset(k for k, row in self.tokens if row == 1)

    def __str__(self) -> str:
        return print_type(self)

    def __repr__(self) -> str:
        return f"TypeDescriptor({self.alphabet}, {print_type(self)})"


def parse_type(text: str, alphabet: int | None = None) -> TypeDescriptor:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"type literal must be bracketed, got {text!r}")
    tokens: list[Token] = []
    for part in body[1:-1].split():
        if len(part) < 2 or part[0] not in "lu":
            raise ValueError(f"malformed token {part!r}")
        try:
            letter = int(part[1:])
        except ValueError:
            raise ValueError(f"malformed token {part!r}") from None
        tokens.append((letter, 0 if part[0] == "l" else 1))
    if alphabet is None:
        alphabet = max((k for k, _ in tokens), default=0) + 1
    return TypeDescriptor(alphabet, tuple(tokens))


def print_type(tau: TypeDescriptor) -> str:
    return "[" + " ".join(("l" if row == 0 else "u") + str(k) for k, row in tau.tokens) + "]"


def max_of(tau: TypeDescriptor) -> int:
    return max(k for k, _ in tau.tokens)


def is_top_comb(tau: TypeDescriptor) -> bool:
    """The second token from the right sits in the upper row."""
    return len(tau.tokens) >= 2 and tau.tokens[-2][1] == 1


def dominates(tau: TypeDescriptor, sigma: TypeDescriptor) -> bool:
    if tau.alphabet != sigma.alphabet:
        raise ValueError("domination compares types over one alphabet")
    return is_top_comb(tau) and max_of(sigma) <= max(tau.tau1)


def relabel(tau: TypeDescriptor, iota: Sequence[int], alphabet_out: int) -> TypeDescriptor:
    """Push the type through a strictly increasing letter injection."""
    iota = tuple(iota)
    if len(iota) < tau.alphabet:
        raise ValueError(f"injection must cover all {tau.alphabet} letters")
    if any(a >= b for a, b in zip(iota, iota[1:])):
        raise ValueError("injection must be strictly increasing")
    return TypeDescriptor(alphabet_out, tuple((iota[k], row) for k, row in tau.tokens))


# ---------------------------------------------------------------------------
# enumeration


def _shuffles(lower: tuple, upper: tuple) -> Iterator[tuple]:
    if not lower:
        yield upper
        return
    if not upper:
        yield lower
        return
    for rest in _shuffles(lower[1:], upper):
        yield (lower[0],) + rest
    for rest in _shuffles(lower, upper[1:]):
        yield (upper[0],) + rest


@lru_cache(maxsize=None)
def enumerate_types(n: int) -> tuple[TypeDescriptor, ...]:
    """All types over alphabet n, canonically ordered (id = list position)."""
    if n < 1:
        raise ValueError("alphabet must be positive")
    if n > TYPE_ALPHABET_LIMIT:
        raise ScaleLimit(f"type enumeration supported up to alphabet {TYPE_ALPHABET_LIMIT}")
    letters = range(n)
    out = []
    for size0 in range(1, n + 1):
        for tau0 in itertools.combinations(letters, size0):
            for size1 in range(0, n + 1):
                for tau1 in itertools.combinations(letters, size1):
                    if tau1 and min(tau0) == min(tau1):
                        continue
                    last = (max(tau0), 0)
                    lower = tuple((k, 0) for k in tau0 if (k, 0) != last)
                    upper = tuple((k, 1) for k in tau1)
                    for body in _shuffles(lower, upper):
                        out.append(TypeDescriptor(n, body + (last,)))
    out.sort(key=lambda t: (len(t.tokens), print_type(t)))
    return tuple(out)


def j_count(n: int) -> int:
    """The number of types over alphabet n."""
    return len(enumerate_types(n))


def type_id(tau: TypeDescriptor) -> int:
    return enumerate_types(tau.alphabet).index(tau)


def catalogue_json(n: int) -> list[dict]:
    return [
        {"id": k, "text": print_type(tau), "max": max_of(tau), "top_comb": is_top_comb(tau)}
        for k, tau in enumerate(enumerate_types(n))
    ]


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class TypeWitnessSpec:
    """The two building blocks of a type's canonical witness: u repeats the
    lower-row letters in increasing order, v the upper-row letters, each as
    many times as :func:`witness_spec` counts."""

    u: Node
    v: Node


def witness_spec(tau: TypeDescriptor) -> TypeWitnessSpec:
    """The blocks of ``tau``'s witness.  The k-th token from the left (from
    0) repeats its letter 2**(k + 1) - 1 times: 1, 3, 7, 15, ..., each count
    2r + 1 for the previous count r and so larger than the sum of all
    earlier ones, which is the one property the record structure reads.

    Each record-closure node of a witness is u**k plus a prefix of u or of v
    that ends at a token boundary: the elements are u**k v, and the rows
    never share their first letter, so elements meet at some u**k.  Its
    length is k * |u| plus a sum of token counts.  The rightmost token lies
    in u alone, so |v| < |u| (or v is u) and k compares first; at equal k,
    two such sums compare as their largest differing tokens do and never
    tie.  Prefix relations and the letters after each node read only the
    token order, so every schedule with the property gives the same record
    table at every block count.  The former tower r -> 2**r + 1 is one:
    its growth rule r' > 2**r gives r' > 2r, which implies this one, and
    beyond it the tower bought only size (its six-token witnesses could not
    be stored).  ``tests/test_types.py`` keeps the tower as an oracle and
    compares both schedules' record tables at alphabets 1-3, 1-9 blocks.
    """
    reps = {token: 2 ** (k + 1) - 1 for k, token in enumerate(tau.tokens)}
    u = node_from_runs(tau.alphabet, [(k, reps[(k, 0)]) for k in sorted(tau.tau0)])
    if tau.tau1:
        v = node_from_runs(tau.alphabet, [(k, reps[(k, 1)]) for k in sorted(tau.tau1)])
    else:
        v = u  # a pure lower-row type witnesses as a chain of u-blocks
    return TypeWitnessSpec(u, v)


def type_witness(tau: TypeDescriptor, blocks: int) -> NodeSet:
    """{v, u+v, u+u+v, ...}: ``blocks`` elements."""
    if blocks < 1:
        raise ValueError(f"blocks must be positive, got {blocks}")
    spec = witness_spec(tau)
    elems = []
    word = empty_node(tau.alphabet)
    for _ in range(blocks):
        elems.append(word.concat(spec.v))
        word = word.concat(spec.u)
    return NodeSet(tau.alphabet, frozenset(elems))


# ---------------------------------------------------------------------------
# classification


@lru_cache(maxsize=None)
def _type_classes(alphabet: int, count: int) -> dict:
    """The types whose ``count``-block witness has each record table."""
    witness = lambda tau: type_witness(tau, count)  # noqa: E731
    return witness_classes(enumerate_types(alphabet), witness, record_table)


def classify_type(a: NodeSet, *, whole_first: bool = False) -> TypeDescriptor:
    """The record type of ``a``, read by :func:`~adicgaps.tree.classify`."""
    return classify(a, _type_classes, record_table, whole_first=whole_first)


# Each bucket's sets in scan order, a set's words separated by commas; a type
# missing here has an empty bucket.
_SAME_TYPE_POOL = {
    1: {
        "[l0]": "0,00,000 0,00,0000 0,000,0000 00,000,0000",
    },
    2: {
        "[l0]": "0,00,01 0,00,10 0,00,11 0,00,000 0,00,001 0,00,010",
        "[l1]": "0,01,10 0,01,11 0,01,000 0,01,001 0,01,010 0,01,011",
        "[l0 l1]": "0,001,010 0,001,011 0,001,100 0,001,101 0,001,110 0,001,111",
        "[u0 l1]": "0,1,00 0,1,01 0,1,10 0,1,11 0,1,000 0,1,001",
        "[l0 u1 l1]": "1,01,10 1,01,11 1,01,000 1,01,001 1,01,010 1,01,011",
        "[u0 u1 l1]": "01,10,11 01,10,000 01,10,001 01,10,010 01,10,011 01,10,100",
    },
    3: {
        "[l0]": "0,00,01 0,00,02 0,00,10 0,00,11 0,00,12 0,00,20",
        "[l1]": "0,01,02 0,01,10 0,01,11 0,01,12 0,01,20 0,01,21",
        "[l2]": "0,02,10 0,02,11 0,02,12 0,02,20 0,02,21 0,02,22",
        "[l0 l1]": "0,001,002 0,001,010 0,001,011 0,001,012 0,001,020 0,001,021",
        "[l0 l2]": "0,002,010 0,002,011 0,002,012 0,002,020 0,002,021 0,002,022",
        "[l1 l2]": "0,012,020 0,012,021 0,012,022 0,012,100 0,012,101 0,012,102",
        "[u0 l1]": "0,1,2 0,1,00 0,1,01 0,1,02 0,1,10 0,1,11",
        "[u0 l2]": "0,2,00 0,2,01 0,2,02 0,2,10 0,2,11 0,2,12",
        "[u1 l2]": "1,2,00 1,2,01 1,2,02 1,2,10 1,2,11 1,2,12",
        "[l0 u1 l1]": "1,01,02 1,01,10 1,01,11 1,01,12 1,01,20 1,01,21",
        "[l0 u1 l2]": "1,02,10 1,02,11 1,02,12 1,02,20 1,02,21 1,02,22",
        "[l0 u2 l2]": "2,02,10 2,02,11 2,02,12 2,02,20 2,02,21 2,02,22",
        "[l1 u0 l2]": "00,12,20 00,12,21 00,12,22 00,12,000 00,12,001 00,12,002",
        "[l1 u2 l2]": "2,12,20 2,12,21 2,12,22 2,12,000 2,12,001 2,12,002",
        "[u0 l1 l2]": "0,12,20 0,12,21 0,12,22 0,12,000 0,12,001 0,12,002",
        "[u0 u1 l1]": "01,10,11 01,10,12 01,10,20 01,10,21 01,10,22 01,10,000",
        "[u0 u1 l2]": "01,20,21 01,20,22 01,20,000 01,20,001 01,20,002 01,20,010",
        "[u0 u2 l2]": "02,20,21 02,20,22 02,20,000 02,20,001 02,20,002 02,20,010",
        "[u1 l0 l2]": "1,002,010 1,002,011 1,002,012 1,002,020 1,002,021 1,002,022",
        "[u1 u2 l2]": "12,20,21 12,20,22 12,20,000 12,20,001 12,20,002 12,20,010",
        "[l0 l1 u1 l2]": "10,012,020 10,012,021 10,012,022 10,012,100 10,012,101 10,012,102",
        "[l0 l1 u2 l2]": "20,012,020 20,012,021 20,012,022 20,012,100 20,012,101 20,012,102",
        "[l0 u1 l1 l2]": "1,012,020 1,012,021 1,012,022 1,012,100 1,012,101 1,012,102",
        "[l0 u1 u2 l2]": "12,020,021 12,020,022 12,020,100 12,020,101 12,020,102 12,020,110",
        "[l1 u0 u1 l2]": "001,120,121 001,120,122 001,120,200 001,120,201 001,120,202 001,120,210",
        "[l1 u0 u2 l2]": "002,120,121 002,120,122 002,120,200 002,120,201 002,120,202 002,120,210",
        "[u0 l1 u1 l2]": "01,12,20 01,12,21 01,12,22 01,12,000 01,12,001 01,12,002",
        "[u0 l1 u2 l2]": "02,12,20 02,12,21 02,12,22 02,12,000 02,12,001 02,12,002",
        "[u0 u1 l1 l2]": "01,102,110 01,102,111 01,102,112 01,102,120 01,102,121 01,102,122",
        "[u0 u1 u2 l2]": "012,200,201 012,200,202 012,200,210 012,200,211 012,200,212 012,200,220",
        "[u1 l0 u2 l2]": "12,002,010 12,002,011 12,002,012 12,002,020 12,002,021 12,002,022",
        "[l0 u1 l1 u2 l2]": "12,012,020 12,012,021 12,012,022 12,012,100 12,012,101 12,012,102",
        "[u0 l1 u1 u2 l2]": "012,120,121 012,120,122 012,120,200 012,120,201 012,120,202 012,120,210",
        "[u0 u1 l1 u2 l2]": "012,102,110 012,102,111 012,102,112 012,102,120 012,102,121 012,102,122",
    },
}


@lru_cache(maxsize=None)
def same_type_probes(alphabet: int) -> dict[TypeDescriptor, tuple[NodeSet, ...]]:
    """Deterministic pool of classified sets, bucketed by type.

    A map whose action is well defined must send every pooled set of one
    type to sets of a single image type, so differently realized inputs of
    the same type expose maps that only look consistent on canonical
    witnesses.  The pool is frozen data, parsed on the first call: for each
    type, the first 6 three-element sets that classify as it, in a scan of
    every 3-element set of words up to 4 letters (3 letters over alphabet
    3) in a fixed order.  ``tests/test_types.py::test_frozen_pool_equals_scan``
    keeps that scan and regenerates the data.  Alphabet 4 has no pool (its
    scan ran past 300 s on a 2-vCPU VM), so it raises :class:`ScaleLimit`.
    Treat the result as read-only; it is cached.

    Not every type gets a sample: over alphabet 2 no 3-element set of these
    words classifies as ``[u1 l0]`` or ``[u1 l0 l1]``, so those two buckets
    stay empty and their types get no same-type corroboration.
    """
    if alphabet not in _SAME_TYPE_POOL:
        raise ScaleLimit(f"no same-type pool over alphabet {alphabet}")
    buckets = _SAME_TYPE_POOL[alphabet]
    return {
        tau: tuple(
            NodeSet.of(alphabet, text.split(","))
            for text in buckets.get(print_type(tau), "").split()
        )
        for tau in enumerate_types(alphabet)
    }
