"""Finite words over a fixed alphabet: the n-adic tree and its structure.

A node is a finite sequence of letters drawn from ``range(alphabet)``.  Nodes
are stored run-length encoded, as a tuple of ``(letter, count)`` runs with
arbitrary-precision counts.  Words grow far longer than their run lists: the
tabulated embeddings pad with 0-runs of length ``T(s)``, exponential in the
word's length, and domination teeth repeat a block ``N * step`` times.  Every
operation here works on runs and never materialises letters unless explicitly
asked.

The runs of a ``Node`` are always normal: no zero counts, no two adjacent
runs with the same letter.  Joining two normal words can only merge the two
runs at the seam, so ``concat``, ``extend`` and ``repeat`` touch the seam
alone, and slicing (``prefix``) keeps runs normal as it cuts.  Full
normalisation is for untrusted input (``node_from_runs``).

A ``Node`` is a value built by the hundred thousand per query: a plain
slotted class whose fields nothing writes after construction, so it hashes
its fields once and keeps the result for every later set or dict lookup.

Provided on top of the raw words:

* the prefix (extension) order and longest-common-prefix meets,
* the level-then-value well order ``prec`` (shorter words first, lexicographic
  within a level), with an RLE sort key for lexicographic order,
* meet- and record-closures of finite node sets,
* two structural equivalence deciders (first-move and record equivalence),
  each a yes/no answer: the only bijection that could witness equivalence
  pairs the two prec-sorted closures by position,
* one classifier for both layers: a set's comb kind or record type is the
  symbol whose canonical witness has its tree code, looked up through one
  bounded memo, since the searches classify the same images again and again,
* random node sets, and a re-embedding that keeps first-move structure under
  fresh padding: the order search's replay samples and the audit's probes.

A meet-closed set is a tree: each element's longest proper prefix in the set
is its parent.  The closures are built and compared as such trees.  The meet
closure adds only the meets of lexicographic neighbours, the record closure
adds the record nodes of each climb from a parent to its child, and a
closure's tree code lists each element's parent, the letter on the edge down
from it and the element's membership: k entries for a closure of k nodes,
where every pairwise meet and first move can be read back off.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

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


class Node:
    """One node of the tree: an RLE word over ``range(alphabet)``.

    A value: nothing assigns a field after ``__init__`` (a test keeps it
    so), which is what lets ``__hash__`` cache its result.
    """

    __slots__ = ("alphabet", "runs", "length", "_hash")

    def __init__(self, alphabet: int, runs: tuple[Run, ...], length: int) -> None:
        self.alphabet = alphabet
        self.runs = runs
        self.length = length
        self._hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.alphabet, self.runs, self.length))
        return h

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Node:
            return NotImplemented
        return (
            self.length == other.length
            and self.alphabet == other.alphabet
            and self.runs == other.runs
        )

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


def _check_alphabet(a: Node | NodeSet, b: Node | NodeSet) -> None:
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
        parent = self.meet_code[0]
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

    @cached_property
    def meet_code(self) -> TreeCode:
        return _tree_code(self.meet_closure_nodes, self.nodes)

    @cached_property
    def record_code(self) -> TreeCode:
        return _tree_code(self.record_closure_nodes, self.nodes)


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
#
# Equal tables are equal tree codes, which list for each element the index of
# its parent, the letter on the edge down from it and the member flag: k
# entries instead of k(k - 1)/2 rows.  The table is read off the code: the
# meet of i and j is their lowest common ancestor, and the first moves away
# from it are the edge letters of its children on the two root paths (-1 when
# the meet is i itself).  The code is read off the table: prefixes sort before
# their extensions, so the parent of j is the last i < j whose row (i, j) has
# the meet i, and the edge letter is that row's letter toward j.

TreeCode = tuple[tuple[int, ...], tuple[int, ...], tuple[bool, ...]]


def _tree_code(closure: tuple[Node, ...], members: frozenset[Node]) -> TreeCode:
    """The tree code of a prec-sorted closure: each node's parent (its
    longest proper prefix in ``closure``, as an index, -1 for none), the
    letter on the edge down from the parent (-1 for none) and whether the
    node is one of ``members``.

    The parent is the last earlier prefix, found on the runs: a word of m
    runs is a prefix of another exactly when their first m - 1 runs agree
    and the other's run m has the same letter and at least the count, and a
    proper prefix when the two differ.  The edge letter goes on with run m
    if the prefix stops inside it, and starts run m + 1 otherwise.
    """
    parent = [-1] * len(closure)
    letter = [-1] * len(closure)
    for k, nd in enumerate(closure):
        runs = nd.runs
        for p in range(k - 1, -1, -1):
            head = closure[p].runs
            m = len(head)
            if m == 0:
                parent[k], letter[k] = p, runs[0][0]
                break
            if m > len(runs):
                continue
            last, count = head[-1]
            here, length = runs[m - 1]
            if last == here and count <= length and head[:-1] == runs[: m - 1]:
                parent[k] = p
                letter[k] = here if count < length else runs[m][0]
                break
    return tuple(parent), tuple(letter), tuple(nd in members for nd in closure)


def first_move_table(a: NodeSet) -> TreeCode:
    """Tree code of the meet-closure; equal codes mean equivalent sets."""
    return a.meet_code


def record_table(a: NodeSet) -> TreeCode:
    """Tree code of the record-closure."""
    return a.record_code


def first_move_equivalent(a: NodeSet, b: NodeSet) -> bool:
    """Decide equivalence over meet-closures (meets, order, first moves)."""
    _check_alphabet(a, b)
    return a.meet_code == b.meet_code


def record_equivalent(a: NodeSet, b: NodeSet) -> bool:
    """Decide equivalence over record-closures."""
    _check_alphabet(a, b)
    return a.record_code == b.record_code


# ---------------------------------------------------------------------------
# Classification against witness patterns


class NotHomogeneous(ValueError):
    """The node set follows no single witness pattern."""


class AmbiguousTruncation(ValueError):
    """Too few elements survive trimming to pin down a single symbol: the
    two-block witnesses of distinct types can be equivalent, the token
    interleaving showing only once the repeated block occurs twice."""


def witness_classes(symbols: Iterable, witness: Callable, table: Callable) -> dict:
    """Each tree code ``table(witness(symbol))`` over ``symbols``, mapped to
    the symbols that have it, in ``symbols`` order."""
    classes: dict[TreeCode, list] = {}
    for symbol in symbols:
        classes.setdefault(table(witness(symbol)), []).append(symbol)
    return {key: tuple(matches) for key, matches in classes.items()}


def classify(a: NodeSet, classes: Callable[[int, int], dict], table: Callable):
    """The one symbol whose witness pattern ``a`` follows, where
    ``classes(alphabet, count)`` is :func:`witness_classes` of the
    ``count``-element witnesses under ``table``.  The last element of ``a``
    in the well order is a truncation artifact, not structure, so ``a``
    without it is matched first, and the whole set only to settle a tie.

    That never changes an answer.  A witness minus its last element is the
    next smaller witness, and the bijection that makes ``a`` equivalent to
    a witness keeps the well order and the members, so it restricts to the
    trimmed sets: every symbol matching ``a`` matches ``a`` trimmed.  A
    unique trimmed match is thus the whole match whenever there is one, and
    a set with no trimmed match has no whole match.

    Both lookups go through one bounded memo, :func:`_matches`, keyed by
    ``classes``, ``table``, the alphabet and the prec-sorted tuple of the
    matched nodes: ``a.sorted_nodes[:-1]`` for the trimmed match and
    ``a.sorted_nodes`` for the tie-break.  The well order is total, so two
    node sets are equal exactly when their sorted tuples are, and the tuple
    is there to hash at no further cost.  The memo stores the matching
    symbols or ``None``, never an exception; the refusals are raised here
    on every call.  An entry is a pure function of its key (the class maps
    are fixed per alphabet and count, and a tree code depends on the set
    alone), so a hit returns what a miss would compute, and the memo can
    never change an answer, only skip building a code.
    """
    if len(a) < 3:
        raise ValueError(f"need at least 3 elements to classify, got {len(a)}")
    nodes = a.sorted_nodes
    matches = _matches(classes, table, a.alphabet, nodes[:-1])
    if matches is None:
        raise NotHomogeneous(f"not homogeneous: {a}")
    if len(matches) == 1:
        return matches[0]
    whole = _matches(classes, table, a.alphabet, nodes) or ()
    if len(whole) == 1:
        return whole[0]
    names = ", ".join(map(str, matches))
    raise AmbiguousTruncation(f"{len(matches)} symbols match after trimming: {names}")


# Hit rates of the record-table lookups at maxsize 64 / 256 / 1024 /
# unbounded: 61 / 64 / 71 / 72% in a bench record-queries child (seed 0),
# 55 / 62 / 63 / 64% in a cold audit, 79 / 83 / 85 / 91% in the first 30 s
# of the ternary breaking check ([l0]|[l1]|[l0 l1], --set 0,1).  Unbounded,
# that query's peak RSS reached 110 MB in those 30 s against 33 MB at 256,
# and it grows for as long as the query runs; 256 keeps most of the hits.
# Comb images rarely repeat (2% hits in a cold audit) and cost one entry.
@lru_cache(maxsize=256)
def _matches(classes: Callable, table: Callable, alphabet: int, nodes: tuple[Node, ...]):
    """The symbols whose witness has the tree code of the set of prec-sorted
    ``nodes``, or ``None``: :func:`classify`'s one lookup."""
    return classes(alphabet, len(nodes)).get(table(NodeSet(alphabet, frozenset(nodes))))


# ---------------------------------------------------------------------------
# Random node sets and structure-preserving re-embedding


_REEMBED_PAD = 3  # most random letters of padding a re-embedded node gets


def reembed(a: NodeSet, rng: random.Random) -> NodeSet:
    """Rebuild ``a`` with fresh padding, preserving its first-move structure.

    The meet-closure tree is replayed node by node in prec order: each node
    keeps its first-move letter away from its closure parent, gets random
    padding after it, and total lengths increase strictly so the well order
    survives.
    """
    closure = a.meet_closure_nodes
    parent, letter, _ = a.meet_code
    images: list[Node] = []
    prev_len = -1
    for j in range(len(closure)):
        if parent[j] < 0:
            img = empty_node(a.alphabet)
            for _ in range(rng.randint(0, _REEMBED_PAD)):
                img = img.extend(rng.randrange(a.alphabet))
        else:
            img = images[parent[j]].extend(letter[j])
        target = max(prev_len + 1, img.length) + rng.randint(0, _REEMBED_PAD)
        while img.length < target:
            img = img.extend(rng.randrange(a.alphabet))
        images.append(img)
        prev_len = img.length
    return NodeSet(a.alphabet, frozenset(img for nd, img in zip(closure, images) if nd in a.nodes))


def random_node_set(
    rng: random.Random, alphabet: int, size: int, max_len: int = 6
) -> NodeSet:
    """A random finite node set: a replay sample or an audit probe."""
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
