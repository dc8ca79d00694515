"""Literals and fixtures shared by the test modules."""

from adicgaps.combs import CombKind
from adicgaps.gaps import FIRST_MOVE, GapSpec
from adicgaps.tree import NodeSet, format_node


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
