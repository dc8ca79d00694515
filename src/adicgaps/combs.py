"""Comb configurations and the maps a node relabeling induces on them.

An (i,j)-comb over alphabet n is any node set equivalent (in the first-move
sense) to a prefix of the pattern {(j), (i,i,j), (i,i,i,i,j), ...}: a spine
climbing by i with teeth hanging off by j.  The diagonal kind (i,i) is the
i-chain.  Comb kinds are written ``"i>j"``.  A set's kind is read by the
tree's one classifier (:func:`~adicgaps.tree.classify`) on first-move tables.

A family e(inf), e(0), ..., e(n-1) of words over an output alphabet m, with
e(inf) shorter than the equally long and pairwise distinct e(i), determines a
block substitution on words and hence a map of comb kinds: each kind (i,j)
goes to the kind of the image of one of its witnesses.  That induced map is
computed here directly from first moves at meets, with a degenerate rule for
e(inf) lying below e(i).  The finite catalogue of induced maps for given n, m
is enumerated by walking every branching shape such a family can take and
reading each shape's map off it, without building words: a shape is a
lettered tree of the branch words with e(inf) placed in it, the tree alone
fixes the off-diagonal images, and each placement yields the chain images
it fixes alongside the shape (:func:`efamily_placements`).

A comb map is one value throughout: its ``(kind, image kind)`` pairs in
:func:`comb_kinds` order, the action a first-move order witness carries.
Only the order kernel flattens maps into int rows (:func:`shape_induced_row`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .tree import (
    Node,
    NodeSet,
    ScaleLimit,
    classify,
    empty_node,
    first_move_table,
    meet,
    node_from_runs,
    parse_node,
    witness_classes,
)


@dataclass(frozen=True, order=True)
class CombKind:
    """Spine letter and teeth letter; (i,i) is the i-chain."""

    spine: int
    teeth: int

    def __post_init__(self) -> None:
        if self.spine < 0 or self.teeth < 0:
            raise ValueError(f"negative comb letters {self.spine},{self.teeth}")

    def __str__(self) -> str:
        return f"{self.spine}>{self.teeth}"

    @staticmethod
    def parse(text: str) -> "CombKind":
        left, sep, right = text.partition(">")
        if not sep:
            raise ValueError(f"bad comb kind literal {text!r}")
        return CombKind(int(left), int(right))

    def check_alphabet(self, alphabet: int) -> None:
        if self.spine >= alphabet or self.teeth >= alphabet:
            raise ValueError(f"kind {self} has letters outside alphabet {alphabet}")


def comb_kinds(alphabet: int) -> tuple[CombKind, ...]:
    """Every comb kind over ``alphabet``, in sorted (spine, teeth) order."""
    return tuple(CombKind(i, j) for i in range(alphabet) for j in range(alphabet))


@lru_cache(maxsize=None)
def comb_witness(kind: CombKind, count: int, alphabet: int) -> NodeSet:
    """The first ``count`` elements {(j), (iij), (iiiij), ...}; element k is
    i repeated 2k times followed by j.  Witnesses are immutable, so each is
    built once per process and shared."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    kind.check_alphabet(alphabet)
    i, j = kind.spine, kind.teeth
    elems = [
        node_from_runs(alphabet, [(i, 2 * k), (j, 1)]) for k in range(count)
    ]
    return NodeSet(alphabet, frozenset(elems))


@lru_cache(maxsize=None)
def _comb_classes(alphabet: int, count: int) -> dict:
    """The kinds whose ``count``-element witness has each first-move table."""
    witness = lambda kind: comb_witness(kind, count, alphabet)  # noqa: E731
    return witness_classes(comb_kinds(alphabet), witness, first_move_table)


def classify_comb(a: NodeSet, *, whole_first: bool = False) -> CombKind:
    """The comb kind of ``a``, read by :func:`~adicgaps.tree.classify`."""
    return classify(a, _comb_classes, first_move_table, whole_first=whole_first)


# ---------------------------------------------------------------------------
# e-families and their induced maps


@dataclass(frozen=True)
class EFamily:
    """Words e(inf), e(0), ..., e(n-1) over the output alphabet.

    e(inf) is strictly shorter than the e(i), which all share one length and
    are pairwise distinct (hence pairwise prefix-incomparable).
    """

    alphabet_out: int
    e_inf: Node
    e: tuple[Node, ...]

    def __post_init__(self) -> None:
        if not self.e:
            raise ValueError("family needs at least one branch word")
        words = (self.e_inf,) + self.e
        for w in words:
            if w.alphabet != self.alphabet_out:
                raise ValueError(f"word {w!r} not over alphabet {self.alphabet_out}")
        length = self.e[0].length
        if any(w.length != length for w in self.e):
            raise ValueError("branch words must share one length")
        if self.e_inf.length >= length:
            raise ValueError("e(inf) must be shorter than the branch words")
        if len(set(self.e)) != len(self.e):
            raise ValueError("branch words must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.e)

    @staticmethod
    def of(alphabet_out: int, e_inf: str | Node, e: Iterable[str | Node]) -> "EFamily":
        def conv(w: str | Node) -> Node:
            return parse_node(alphabet_out, w) if isinstance(w, str) else w

        return EFamily(alphabet_out, conv(e_inf), tuple(conv(w) for w in e))


def efamily_induced_map(fam: EFamily) -> tuple[tuple[CombKind, CombKind], ...]:
    """The comb-kind map the family induces, as ``(kind, image)`` pairs in
    :func:`comb_kinds` order.

    Off the diagonal, (i,j) maps to the first moves from e(i) meet e(j) toward
    e(i) and e(j).  On the diagonal the roles are played by e(i) and e(inf),
    except that when e(inf) lies below e(i) the image of an i-chain is itself
    a chain: both output letters are the first move from e(inf) toward e(i).
    """

    def image(i: int, j: int) -> CombKind:
        if i != j:
            t = meet(fam.e[i], fam.e[j])
            return CombKind(fam.e[i].letter_at(t.length), fam.e[j].letter_at(t.length))
        if fam.e_inf.is_prefix_of(fam.e[i]):
            u = fam.e[i].letter_at(fam.e_inf.length)
            return CombKind(u, u)
        t = meet(fam.e_inf, fam.e[i])
        return CombKind(fam.e[i].letter_at(t.length), fam.e_inf.letter_at(t.length))

    return tuple((kind, image(kind.spine, kind.teeth)) for kind in comb_kinds(fam.n))


# ---------------------------------------------------------------------------
# enumeration of realizable maps
#
# Only the branching shape of {e(inf), e(0..n-1)} matters for the induced map:
# the meet tree of the branch words, the first letters on its edges, and where
# e(inf) sits relative to it.  The shapes are enumerated abstractly and each
# shape's map is read off it directly; that rule restates the family rule
# above, and the tests compare the two on every shape at small alphabets.

_SCALE_LIMIT = 4


@dataclass(frozen=True)
class _Leaf:
    label: object  # branch index or "inf"


@dataclass(frozen=True)
class _Branch:
    children: tuple[tuple[int, object], ...]  # (edge letter, subtree)
    inf_here: bool = False


@dataclass(frozen=True)
class _PathStop:
    """e(inf) sitting on an edge, with the single continuation letter."""

    cont_letter: int
    child: object


def _all_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _all_partitions(rest):
        yield ((first,),) + sub
        for k in range(len(sub)):
            yield tuple(
                ((first,) + blk if idx == k else blk) for idx, blk in enumerate(sub)
            )


def _hierarchies(labels: tuple) -> Iterator[object]:
    """Rooted meet trees with the given leaves; internal nodes branch."""
    if len(labels) == 1:
        yield _Leaf(labels[0])
        return
    for blocks in _all_partitions(labels):
        if len(blocks) < 2:  # a meet tree node branches
            continue
        for subtrees in itertools.product(*(_hierarchies(b) for b in blocks)):
            yield ("node", subtrees)


def _assign_letters(shape: object, m: int) -> Iterator[object]:
    if isinstance(shape, _Leaf):
        yield shape
        return
    _, subtrees = shape
    if len(subtrees) > m:
        return
    lettered_subs = [list(_assign_letters(s, m)) for s in subtrees]
    for letters in itertools.permutations(range(m), len(subtrees)):
        for combo in itertools.product(*lettered_subs):
            yield _Branch(tuple(zip(letters, combo)))


def _leaf_labels(tree: object) -> list:
    """The branch indices at the leaves of a lettered branch-word tree."""
    if isinstance(tree, _Leaf):
        return [tree.label]
    return [i for _, sub in tree.children for i in _leaf_labels(sub)]


def _placements(tree: object, m: int) -> Iterator[tuple[object, dict]]:
    """All ways to add e(inf) to a lettered branch-word tree, each with the
    diagonal it fixes: ``{i: image}`` with the flat image (as in
    :func:`shape_induced_row`) of the i-chain kind i>i for each leaf i.

    Placing e(inf) leaves the images of the off-diagonal kinds as the tree
    alone fixes them.  The i-chain goes to x>x when e(inf) sits on the path
    to leaf i, with x the next letter toward i, and else to the letters
    toward i and toward e(inf) where the two paths part."""
    yield from _place_within(tree, m)
    # above the root: on the path, or branching away from it
    leaves = _leaf_labels(tree)
    for c in range(m):
        yield _PathStop(c, tree), dict.fromkeys(leaves, c * (m + 1))
    for a, b in itertools.permutations(range(m), 2):
        yield _Branch(((a, tree), (b, _Leaf("inf")))), dict.fromkeys(leaves, a * m + b)


def _place_within(tree: object, m: int) -> Iterator[tuple[object, dict]]:
    if isinstance(tree, _Leaf):
        return
    assert isinstance(tree, _Branch)
    groups = [(letter, _leaf_labels(sub)) for letter, sub in tree.children]
    # at this branch node itself
    yield _Branch(tree.children, inf_here=True), {
        i: x * (m + 1) for x, xs in groups for i in xs
    }
    # as a fresh leaf under it
    used = {letter for letter, _ in tree.children}
    for d in range(m):
        if d not in used:
            yield _Branch(tree.children + ((d, _Leaf("inf")),)), {
                i: x * m + d for x, xs in groups for i in xs
            }
    # on or beside one of its edges, or deeper down; the leaves under the
    # other edges part from e(inf) here, toward it by the edge's letter
    for k, (letter, sub) in enumerate(tree.children):
        def rebuilt(new_sub, k=k, letter=letter):
            kids = list(tree.children)
            kids[k] = (letter, new_sub)
            return _Branch(tuple(kids))

        outside = {i: y * m + letter for q, (y, ys) in enumerate(groups) if q != k for i in ys}
        inside = groups[k][1]
        for c in range(m):
            yield rebuilt(_PathStop(c, sub)), {**outside, **dict.fromkeys(inside, c * (m + 1))}
        for c, d in itertools.permutations(range(m), 2):
            yield rebuilt(_Branch(((c, sub), (d, _Leaf("inf"))))), {
                **outside,
                **dict.fromkeys(inside, c * m + d),
            }
        for deeper, diagonal in _place_within(sub, m):
            yield rebuilt(deeper), {**outside, **diagonal}


def concretize(shape: object, m: int) -> EFamily:
    """The family a shape describes: each word spells the edge letters on its
    path from the root, and the branch words are padded with letter 0 to one
    common length, one letter past the deepest leaf."""
    words: dict[object, Node] = {}

    def walk(node: object, prefix: Node) -> None:
        if isinstance(node, _Leaf):
            words[node.label] = prefix
        elif isinstance(node, _PathStop):
            words["inf"] = prefix
            walk(node.child, prefix.extend(node.cont_letter))
        else:
            if node.inf_here:
                words["inf"] = prefix
            for letter, sub in node.children:
                walk(sub, prefix.extend(letter))

    walk(shape, empty_node(m))
    e_inf = words.pop("inf")
    depth = max(w.length for w in words.values()) + 1
    branch = tuple(words[i].extend(0, depth - words[i].length) for i in sorted(words))
    return EFamily(m, e_inf, branch)


def efamily_placements(n: int, m: int) -> Iterator[tuple[object, object, dict]]:
    """Every lettered branching shape of an arity-n family over alphabet m,
    in one fixed order (shapes may repeat maps), as ``(tree, shape,
    diagonal)``: the lettered branch-word tree the shape places e(inf) in,
    and the chain images that placement fixes (:func:`_placements`).  The
    arity n is the input alphabet of the induced comb map, m its output
    alphabet.  Consecutive shapes share one tree object until it changes."""
    if n < 1 or m < 1:
        raise ValueError("alphabets must be positive")
    if n > _SCALE_LIMIT or m > _SCALE_LIMIT:
        raise ScaleLimit(
            f"e-family enumeration supported over alphabets up to {_SCALE_LIMIT}, "
            f"got input alphabet {n} and output alphabet {m}"
        )
    for hierarchy in _hierarchies(tuple(range(n))):
        for tree in _assign_letters(hierarchy, m):
            for shape, diagonal in _placements(tree, m):
                yield tree, shape, diagonal


def efamily_shapes(n: int, m: int) -> Iterator[object]:
    """The shapes of :func:`efamily_placements`, in its order."""
    for _tree, shape, _diagonal in efamily_placements(n, m):
        yield shape


def enumerate_efamilies(n: int, m: int) -> Iterator[EFamily]:
    """One concrete family per branching shape (shapes may repeat maps)."""
    for shape in efamily_shapes(n, m):
        yield concretize(shape, m)


def shape_induced_row(shape: object, n: int, m: int) -> tuple[int, ...]:
    """The comb map ``concretize(shape, m)`` induces, read off the shape:
    entry ``i * n + j`` is ``u * m + v`` for the image u>v of kind i>j, so
    rows sort as the maps' pairs do.

    Children hang off distinct letters, so two words part where their paths
    do.  No leaf has children or e(inf) at or below it, so the family rule
    reads edge letters only, never the padding letter 0: i>j (i != j) goes
    to the letters toward i and j below the leaves' lowest common ancestor;
    i>i to the next letter toward i, doubled, when e(inf) sits on the path
    to leaf i, else to the letters toward i and e(inf) where those paths part.
    """
    row: list = [None] * (n * n)

    def walk(node: object) -> list:  # the labels below node, "inf" included
        if isinstance(node, _Leaf):
            return [node.label]
        if isinstance(node, _PathStop):  # one child, e(inf) at the node
            groups, inf_here = [(node.cont_letter, walk(node.child))], True
        else:
            groups = [(letter, walk(sub)) for letter, sub in node.children]
            inf_here = node.inf_here
        for (x, xs), (y, ys) in itertools.permutations(groups, 2):
            for i, j in itertools.product(xs, ys):
                if i != "inf":
                    row[i * (n + 1) if j == "inf" else i * n + j] = x * m + y
        if inf_here:
            for x, xs in groups:
                for i in xs:
                    row[i * (n + 1)] = x * (m + 1)
        return [i for _, xs in groups for i in xs] + ["inf"] * inf_here

    walk(shape)
    return tuple(row)
