"""Finite words over a fixed alphabet: the n-adic tree and its structure.

A node is a finite sequence of letters drawn from ``range(alphabet)``.  Nodes
are stored run-length encoded, as a tuple of ``(letter, count)`` runs with
arbitrary-precision counts.  The canonical witnesses used elsewhere repeat
letters on a doubly-exponential schedule, so run counts routinely exceed
anything a flat tuple could hold; every operation here works on runs and never
materialises letters unless explicitly asked.

The runs of a ``Node`` are always normal: no zero counts, no two adjacent
runs with the same letter.  Joining two normal words can only merge the two
runs at the seam, so ``concat``, ``extend`` and ``repeat`` touch the seam
alone, and slicing (``prefix``) keeps runs normal as it cuts.  Full normalisation is for untrusted input (``node_from_runs``).

Provided on top of the raw words:

* the prefix (extension) order and longest-common-prefix meets,
* the level-then-value well order ``prec`` (shorter words first, lexicographic
  within a level), with an RLE sort key for lexicographic order,
* meet- and record-closures of finite node sets,
* two structural equivalence deciders (first-move and record equivalence)
  together with their witness bijections,
* a re-embedding helper that rebuilds a node set with fresh padding while
  preserving its structure, used for randomised property tests.

A meet-closed set is a tree: each element's longest proper prefix in the set
is its parent.  The closures are built and compared as such trees.  The meet
closure adds only the meets of lexicographic neighbours, the record closure
adds the record nodes of each climb from a parent to its child, and a
structure table reads every pairwise meet and first move off the parent
links.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

Run = tuple[int, int]

# Guard for Node.letters: beyond this, materialising is a bug, not a need.
_MATERIALIZE_LIMIT = 1_000_000


class AlphabetMismatch(ValueError):
    """Operands live over different alphabets."""


class ScaleLimit(ValueError):
    """A computation would leave the supported finite scale."""


def _normalize_runs(runs: Iterable[Run]) -> tuple[Run, ...]:
    out: list[list[int]] = []
    for letter, count in runs:
        if count < 0:
            raise ValueError(f"negative run count {count}")
        if count == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1][1] += count
        else:
            out.append([letter, count])
    return tuple((l, c) for l, c in out)


def _join(a: tuple[Run, ...], b: tuple[Run, ...]) -> tuple[Run, ...]:
    """Normal runs of the word a + b, for normal a and b."""
    if a and b and a[-1][0] == b[0][0]:
        return a[:-1] + ((b[0][0], a[-1][1] + b[0][1]),) + b[1:]
    return a + b


@dataclass(frozen=True)
class Node:
    """One node of the tree: an RLE word over ``range(alphabet)``."""

    alphabet: int
    runs: tuple[Run, ...]
    length: int

    def __repr__(self) -> str:  # digits when small, runs otherwise
        if self.length == 0:
            return f"Node({self.alphabet}, e)"
        if self.length <= 40 and self.alphabet <= 10:
            return f"Node({self.alphabet}, {format_node(self)})"
        body = " ".join(f"{l}^{c}" for l, c in self.runs)
        return f"Node({self.alphabet}, {body})"

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def letters(self) -> tuple[int, ...]:
        if self.length > _MATERIALIZE_LIMIT:
            raise ScaleLimit(f"refusing to materialise {self.length} letters")
        out: list[int] = []
        for letter, count in self.runs:
            out.extend([letter] * count)
        return tuple(out)

    def letter_at(self, pos: int) -> int:
        if pos < 0 or pos >= self.length:
            raise IndexError(pos)
        seen = 0
        for letter, count in self.runs:
            seen += count
            if pos < seen:
                return letter
        raise IndexError(pos)  # unreachable

    def prefix(self, length: int) -> "Node":
        if length < 0 or length > self.length:
            raise ValueError(f"prefix length {length} out of range")
        if length == self.length:
            return self
        out: list[Run] = []
        left = length
        for letter, count in self.runs:
            if left <= 0:
                break
            take = min(count, left)
            out.append((letter, take))
            left -= take
        return Node(self.alphabet, tuple(out), length)

    def concat(self, other: "Node") -> "Node":
        _check_alphabet(self, other)
        return Node(self.alphabet, _join(self.runs, other.runs), self.length + other.length)

    def extend(self, letter: int, count: int = 1) -> "Node":
        if not 0 <= letter < self.alphabet:
            raise ValueError(f"letter {letter} outside alphabet {self.alphabet}")
        if count < 0:
            raise ValueError(f"negative run count {count}")
        if count == 0:
            return self
        return Node(self.alphabet, _join(self.runs, ((letter, count),)), self.length + count)

    def repeat(self, times: int) -> "Node":
        """The word self + self + ... (``times`` copies)."""
        if times < 0:
            raise ValueError(times)
        if times == 0 or self.length == 0:
            return Node(self.alphabet, (), 0)
        runs = self.runs
        if len(runs) == 1:
            letter, count = runs[0]
            return Node(self.alphabet, ((letter, count * times),), self.length * times)
        if times * len(runs) > 4_000_000:
            raise ScaleLimit(f"repeat would create {times * len(runs)} runs")
        if runs[0][0] == runs[-1][0]:
            # copies meet at a seam of one letter: first run, then
            # (middle + merged seam) per further copy, then the tail
            seam = ((runs[0][0], runs[-1][1] + runs[0][1]),)
            runs = runs[:1] + (runs[1:-1] + seam) * (times - 1) + runs[1:]
        else:
            runs = runs * times
        return Node(self.alphabet, runs, self.length * times)

    def is_prefix_of(self, other: "Node") -> bool:
        _check_alphabet(self, other)
        if self.length > other.length:
            return False
        k = len(self.runs)
        if k == 0:
            return True
        if k > len(other.runs):
            return False
        if self.runs[: k - 1] != other.runs[: k - 1]:
            return False
        letter, count = self.runs[k - 1]
        oletter, ocount = other.runs[k - 1]
        return letter == oletter and count <= ocount


def _check_alphabet(a: Node, b: Node) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"alphabet {a.alphabet} vs {b.alphabet}")


def node(alphabet: int, letters: Iterable[int] = ()) -> Node:
    """Build a node from an iterable of letters."""
    if alphabet < 1:
        raise ValueError(f"alphabet must be positive, got {alphabet}")
    runs: list[Run] = []
    n = 0
    for letter in letters:
        if not 0 <= letter < alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + 1)
        else:
            runs.append((letter, 1))
        n += 1
    return Node(alphabet, tuple(runs), n)


def node_from_runs(alphabet: int, runs: Iterable[Run]) -> Node:
    if alphabet < 1:
        raise ValueError(f"alphabet must be positive, got {alphabet}")
    normal = _normalize_runs(runs)
    for letter, _ in normal:
        if not 0 <= letter < alphabet:
            raise ValueError(f"letter {letter} outside alphabet {alphabet}")
    return Node(alphabet, normal, sum(c for _, c in normal))


def empty_node(alphabet: int) -> Node:
    return node(alphabet, ())


def words_upto(alphabet: int, length: int) -> list[Node]:
    """Every nonempty word of at most ``length`` letters, shortest first."""
    out = []
    for k in range(1, length + 1):
        for letters in itertools.product(range(alphabet), repeat=k):
            word = empty_node(alphabet)
            for letter in letters:
                word = word.extend(letter)
            out.append(word)
    return out


def parse_node(alphabet: int, text: str) -> Node:
    """Parse a digit-string literal; "" and "e" denote the empty word."""
    text = text.strip()
    if text in ("", "e"):
        return empty_node(alphabet)
    if alphabet > 10:
        raise ValueError("digit literals only supported for alphabets up to 10")
    try:
        letters = [int(ch) for ch in text]
    except ValueError:
        raise ValueError(f"bad node literal {text!r}") from None
    return node(alphabet, letters)


def format_node(nd: Node) -> str:
    if nd.alphabet > 10:
        raise ValueError("digit literals only supported for alphabets up to 10")
    if nd.is_empty:
        return "e"
    if nd.length > _MATERIALIZE_LIMIT:
        raise ScaleLimit("node too long for a digit literal")
    return "".join(str(l) * c for l, c in nd.runs)


def meet(s: Node, t: Node) -> Node:
    """Longest common prefix."""
    _check_alphabet(s, t)
    out: list[Run] = []
    length = 0
    for (al, ac), (bl, bc) in zip(s.runs, t.runs):
        if al != bl:
            break
        take = min(ac, bc)
        out.append((al, take))
        length += take
        if ac != bc:
            break
    return Node(s.alphabet, tuple(out), length)


def prec_compare(s: Node, t: Node) -> int:
    """The well order: by length, then lexicographically.  -1, 0, or 1."""
    _check_alphabet(s, t)
    if s.length != t.length:
        return -1 if s.length < t.length else 1
    i = j = 0
    ioff = joff = 0
    while i < len(s.runs) and j < len(t.runs):
        al, ac = s.runs[i]
        bl, bc = t.runs[j]
        if al != bl:
            return -1 if al < bl else 1
        step = min(ac - ioff, bc - joff)
        ioff += step
        joff += step
        if ioff == ac:
            i += 1
            ioff = 0
        if joff == bc:
            j += 1
            joff = 0
    return 0


def lex_key(s: Node) -> tuple:
    """A sort key for lexicographic order (a prefix before its extensions).

    Two words that agree up to a run of letter l first differ at the end of
    the shorter of their two l-runs, where that word goes on with its next
    letter (or ends).  A run whose next letter is lower (or that ends the
    word) therefore sorts before every l-run that goes on higher, shorter
    ones first among the former and longer ones first among the latter: the
    key holds ``2l, count`` for the former and ``2l + 1, -count`` for the
    latter, run by run.
    """
    key: list[int] = []
    after = -1
    for letter, count in reversed(s.runs):
        key += (-count, 2 * letter + 1) if after > letter else (count, 2 * letter)
        after = letter
    key.reverse()
    return tuple(key)


_length = operator.attrgetter("length")


def prec_sorted(nodes: Iterable[Node]) -> list[Node]:
    """Sorted by the well order: by length, lexicographic within a length."""
    out = sorted(nodes, key=_length)
    if len(set(map(_length, out))) < len(out):
        out.sort(key=lambda s: (s.length, lex_key(s)))
    return out


def weight(s: Node) -> int:
    """Level value sum(n**(p-k) * s_k); equivalent tie-break to lexicographic."""
    n = s.alphabet
    total = 0
    pos = 0
    p = s.length
    for letter, count in s.runs:
        if letter:
            # letter * (n**(p-pos) + ... + n**(p-pos-count+1))
            lo = p - pos - count + 1
            total += letter * ((n ** (lo + count) - n**lo) // (n - 1) if n > 1 else count)
        pos += count
    return total


@dataclass(frozen=True)
class NodeSet:
    """A finite set of nodes over one alphabet, with cached closures."""

    alphabet: int
    nodes: frozenset[Node]

    @staticmethod
    def of(alphabet: int, items: Iterable[Node | str]) -> "NodeSet":
        out = []
        for item in items:
            nd = parse_node(alphabet, item) if isinstance(item, str) else item
            if nd.alphabet != alphabet:
                raise AlphabetMismatch(f"node over {nd.alphabet} in set over {alphabet}")
            out.append(nd)
        return NodeSet(alphabet, frozenset(out))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.sorted_nodes)

    def __contains__(self, nd: Node) -> bool:
        return nd in self.nodes

    @cached_property
    def sorted_nodes(self) -> tuple[Node, ...]:
        return tuple(prec_sorted(self.nodes))

    @cached_property
    def meet_closure_nodes(self) -> tuple[Node, ...]:
        # In lexicographic order the meet of two words is the shortest meet
        # of the neighbours between them, so neighbours' meets already close.
        items = sorted(self.nodes, key=lex_key)
        out = set(items)
        out.update(meet(a, b) for a, b in zip(items, items[1:]))
        return tuple(prec_sorted(out))

    @cached_property
    def record_closure_nodes(self) -> tuple[Node, ...]:
        # One pass closes: the meet closure M plus the interior record nodes
        # of the climbs between comparable pairs of M.  A new node r, met on
        # the climb t -> s of M, is a prefix of s.  A climb from r is a
        # suffix of the climb from t toward the same end (r sets a running
        # maximum, so the later maxima agree), and a climb ending at r is a
        # prefix of one ending at s; either way its records are present.
        # The meet of r with a present node x below s' in M is the shortest
        # of r, x and meet(s, s'), all present.
        #
        # The comparable pairs are the ancestor/descendant pairs of M's tree,
        # and the climbs along its edges already give every record: for
        # t < p < s with p the parent of s, a record of t -> s before p is
        # one of t -> p (the letters agree up to p), and a record after p is
        # one of p -> s (its letter beats every letter since t, hence every
        # letter since p).  Records of a climb sit at run starts of the
        # upper node: scan its runs from the one holding the parent's end up
        # to the first run of the top letter, after which none can follow.
        items = self.meet_closure_nodes
        parent, _ = _parent_links(items)
        top = self.alphabet - 1
        out = set(items)
        for j, hi in enumerate(items):
            if parent[j] < 0:
                continue
            runs = hi.runs
            lo_length = items[parent[j]].length
            k, end = 0, runs[0][1]  # end: the position just past run k
            while end <= lo_length:
                k += 1
                end += runs[k][1]
            best = runs[k][0]
            for k in range(k + 1, len(runs)):
                if best == top:
                    break
                letter, count = runs[k]
                if letter > best:
                    best = letter
                    out.add(Node(hi.alphabet, runs[:k], end))
                end += count
        return tuple(prec_sorted(out))


def meet_closure(a: NodeSet) -> NodeSet:
    return NodeSet(a.alphabet, frozenset(a.meet_closure_nodes))


def record_closure(a: NodeSet) -> NodeSet:
    return NodeSet(a.alphabet, frozenset(a.record_closure_nodes))


# ---------------------------------------------------------------------------
# Structural equivalence
#
# A witness bijection between closures must preserve the well order, so it can
# only be the positional map between the prec-sorted closures.  Equivalence is
# therefore equality of structure tables: for every sorted pair, the closure
# index of the meet plus the first-move letters away from it, and for every
# closure element the flag saying whether it belongs to the underlying set.

StructureTable = tuple[int, tuple[tuple[int, int, int], ...], tuple[bool, ...]]


def _parent_links(closure: tuple[Node, ...]) -> tuple[list[int], list[int]]:
    """Each node's parent (its longest proper prefix in the prec-sorted
    ``closure``, as an index, -1 for none) and the letter on the edge down
    from the parent.  Shorter words sort first, so the parent is the last
    earlier word that is a proper prefix."""
    parent = [-1] * len(closure)
    letter = [-1] * len(closure)
    for k, nd in enumerate(closure):
        for p in range(k - 1, -1, -1):
            above = closure[p]
            if above.length < nd.length and above.is_prefix_of(nd):
                parent[k] = p
                letter[k] = nd.letter_at(above.length)
                break
    return parent, letter


def _structure_table(closure: tuple[Node, ...], members: frozenset[Node]) -> StructureTable:
    """The table of a prec-sorted meet-closed tuple, read off its tree.

    For the pair (i, j), i before j, the meet is the lowest common ancestor
    and the first moves away from it are the edge letters of the children of
    the meet on the two paths (-1 when the meet is i itself).  Parents sort
    before their children, so one pass over i per j finds every i's lowest
    ancestor on j's root path.
    """
    parent, letter = _parent_links(closure)
    rows: list[tuple[int, int, int]] = []
    for j in range(len(closure)):
        toward_j = {}  # ancestor of j -> edge letter of its child toward j
        x = j
        while parent[x] >= 0:
            toward_j[parent[x]] = letter[x]
            x = parent[x]
        lca = [0] * j
        away = [-1] * j  # edge letter of the lca's child toward i
        for i in range(j):
            if i in toward_j:
                lca[i] = i
            else:
                p = parent[i]
                lca[i] = lca[p]
                away[i] = letter[i] if lca[p] == p else away[p]
            rows.append((lca[i], away[i], toward_j[lca[i]]))
    flags = tuple(nd in members for nd in closure)
    return (len(closure), tuple(rows), flags)


def first_move_table(a: NodeSet) -> StructureTable:
    """Structure table over the meet-closure; equal tables mean equivalent sets."""
    return _structure_table(a.meet_closure_nodes, a.nodes)


def record_table(a: NodeSet) -> StructureTable:
    """Structure table over the record-closure."""
    return _structure_table(a.record_closure_nodes, a.nodes)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    mapping: Optional[tuple[tuple[Node, Node], ...]]  # closure bijection, sorted

    def __bool__(self) -> bool:
        return self.equivalent

    def as_dict(self) -> dict[Node, Node]:
        if self.mapping is None:
            raise ValueError("no witness: sets are not equivalent")
        return dict(self.mapping)


def _equivalent(a: NodeSet, b: NodeSet, closure_attr: str) -> EquivalenceResult:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"alphabet {a.alphabet} vs {b.alphabet}")
    ca: tuple[Node, ...] = getattr(a, closure_attr)
    cb: tuple[Node, ...] = getattr(b, closure_attr)
    if len(ca) != len(cb):
        return EquivalenceResult(False, None)
    ta = _structure_table(ca, a.nodes)
    tb = _structure_table(cb, b.nodes)
    if ta != tb:
        return EquivalenceResult(False, None)
    return EquivalenceResult(True, tuple(zip(ca, cb)))


def first_move_equivalent(a: NodeSet, b: NodeSet) -> EquivalenceResult:
    """Decide equivalence over meet-closures (meets, order, first moves)."""
    return _equivalent(a, b, "meet_closure_nodes")


def record_equivalent(a: NodeSet, b: NodeSet) -> EquivalenceResult:
    """Decide equivalence over record-closures."""
    return _equivalent(a, b, "record_closure_nodes")


# ---------------------------------------------------------------------------
# Structure-preserving re-embedding (test support)


def reembed(a: NodeSet, rng: random.Random, record: bool = False, pad_max: int = 3) -> NodeSet:
    """Rebuild ``a`` with fresh padding, preserving its structure.

    The closure tree is replayed node by node in prec order: each node keeps
    its first-move letter away from its closure parent, gets random padding
    after it, and total lengths increase strictly so the well order survives.
    With ``record=True`` padding uses letter 0 only, which never creates a new
    running-maximum record, so record structure survives as well.
    """
    closure = a.record_closure_nodes if record else a.meet_closure_nodes
    parent, letter = _parent_links(closure)
    images: list[Node] = []
    prev_len = -1
    for j in range(len(closure)):
        if parent[j] < 0:
            base = empty_node(a.alphabet)
            grow = rng.randint(0, pad_max)
            img = base
            for _ in range(grow):
                img = img.extend(0 if record else rng.randrange(a.alphabet))
        else:
            img = images[parent[j]].extend(letter[j])
        target = max(prev_len + 1, img.length) + rng.randint(0, pad_max)
        while img.length < target:
            img = img.extend(0 if record else rng.randrange(a.alphabet))
        images.append(img)
        prev_len = img.length
    return NodeSet(a.alphabet, frozenset(img for nd, img in zip(closure, images) if nd in a.nodes))


def random_node_set(
    rng: random.Random, alphabet: int, size: int, max_len: int = 6
) -> NodeSet:
    """A random finite node set (for property tests)."""
    available = (
        max_len + 1
        if alphabet == 1
        else (alphabet ** (max_len + 1) - 1) // (alphabet - 1)
    )
    if size > available:
        raise ValueError(f"only {available} nodes of length <= {max_len} exist")
    out: set[Node] = set()
    while len(out) < size:
        length = rng.randint(0, max_len)
        out.add(node(alphabet, [rng.randrange(alphabet) for _ in range(length)]))
    return NodeSet(alphabet, frozenset(out))
