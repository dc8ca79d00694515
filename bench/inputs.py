"""Seeded benchmark inputs, built without importing the package under test.

The gap sets are written out here rather than taken from the package's own
enumerations so that one seed names the same inputs at every commit, even
after a change reorders or rewrites those enumerations.  ``test_bench.py``
checks that the sets equal the package's.
"""

from __future__ import annotations

import itertools
import random

# the eight dyadic record types, in catalogue order
DYADIC_TYPES = (
    "[l0]",
    "[l1]",
    "[l0 l1]",
    "[u0 l1]",
    "[u1 l0]",
    "[l0 u1 l1]",
    "[u0 u1 l1]",
    "[u1 l0 l1]",
)

# the canonical three-sided dyadic record gap and its pinned breaking verdicts
RECORD_THREE_GAP = {"layer": "record", "n": 3, "m": 2, "sides": [["[l0]"], ["[l1]"], ["[l0 l1]"]]}
RECORD_THREE_PINNED = {
    (0, 1): ("NOT_BROKEN_bounded", None),
    (0, 2): ("BROKEN_witnessed", "blocks=00,010"),
    (1, 2): ("BROKEN_witnessed", "blocks=01,10"),
}


def _strong2(s0, s1) -> dict:
    return {"layer": "first_move", "n": 2, "m": 2, "sides": [list(s0), list(s1)]}


# the worked order examples of the strong reference table, with the verdicts
# the paper states: 4* lies below S-tilde, 3 does not lie below 4
PINNED_GAPS = {
    "four_star": _strong2(["0>0", "0>1"], ["1>1"]),
    "stilde": _strong2(["0>0", "1>0"], ["1>1"]),
    "three": _strong2(["0>0"], ["1>1", "0>1", "1>0"]),
    "four": _strong2(["0>0"], ["1>1", "1>0"]),
}
PINNED_ORDER_PAIRS = (
    ("four_star", "stilde", "LE_witnessed"),
    ("three", "four", "NOT_LE_refuted_exact"),
)

RECORD_TWO_GAPS = 4
RECORD_THREE_GAPS = 3
RECORD_ORDER_PAIRS = (4, 2)  # ordered pairs among two-sided, three-sided gaps
STRONG_ORDER_PAIRS = 8


def record_candidates() -> list[dict]:
    """The 1458 dyadic two-sided record candidates: both chain pinnings, and
    each of the six free types on side 0, side 1 or neither."""
    chains = (DYADIC_TYPES[0], DYADIC_TYPES[1])
    free = DYADIC_TYPES[2:]
    out = []
    for pinning in (chains, chains[::-1]):
        for digits in itertools.product((0, 1, 2), repeat=len(free)):
            sides = [[pinning[0]], [pinning[1]]]
            for tau, d in zip(free, digits):
                if d < 2:
                    sides[d].append(tau)
            out.append({"layer": "record", "n": 2, "m": 2, "sides": sides})
    return out


def strong_candidates() -> list[dict]:
    """The 4096 strong three-sided candidates: kind i>i pinned to side i, and
    each off-diagonal kind on one of the three sides or on none."""
    off = [(i, j) for i, j in itertools.product(range(3), repeat=2) if i != j]
    out = []
    for digits in itertools.product(range(4), repeat=len(off)):
        sides = [[f"{i}>{i}"] for i in range(3)]
        for (i, j), d in zip(off, digits):
            if d < 3:
                sides[d].append(f"{i}>{j}")
        out.append({"layer": "first_move", "n": 3, "m": 3, "sides": sides})
    return out


def _three_sided_partition(rng: random.Random) -> dict:
    while True:
        sides = [[], [], []]
        for tau in DYADIC_TYPES:
            sides[rng.randrange(3)].append(tau)
        if all(sides):
            return {"layer": "record", "n": 3, "m": 2, "sides": sides}


def _ordered_pairs(rng: random.Random, count: int, pool: list) -> list:
    pairs = [(a, b) for a in range(len(pool)) for b in range(len(pool)) if a != b]
    return rng.sample(pairs, count)


def record_queries(seed: int) -> dict:
    """Named gaps plus breaking and order queries for the record workload.

    Every gap gets a breaking check for each nonempty side set; seeded
    ordered pairs of equal arity, and two gaps against themselves, get a
    record order query.  The canonical three-sided gap
    is always present, under the name ``three``."""
    rng = random.Random(seed)
    two = rng.sample(record_candidates(), RECORD_TWO_GAPS)
    three = [_three_sided_partition(rng) for _ in range(RECORD_THREE_GAPS)]
    gaps = {f"two{k}": g for k, g in enumerate(two)}
    gaps.update({f"tri{k}": g for k, g in enumerate(three)})
    gaps["three"] = RECORD_THREE_GAP
    breaking = [
        (name, combo)
        for name, g in gaps.items()
        for size in range(1, g["n"] + 1)
        for combo in itertools.combinations(range(g["n"]), size)
    ]
    two_names = [f"two{k}" for k in range(len(two))]
    three_names = [f"tri{k}" for k in range(len(three))] + ["three"]
    order = [
        (pool[a], pool[b])
        for pool, count in zip((two_names, three_names), RECORD_ORDER_PAIRS)
        for a, b in _ordered_pairs(rng, count, pool)
    ]
    # random pairs are seldom ordered; a gap against itself always is, so
    # every batch has witnessed record orders to revalidate
    order += [(two_names[0], two_names[0]), (three_names[0], three_names[0])]
    return {"gaps": gaps, "breaking": breaking, "order": order}


def strong_queries(seed: int) -> dict:
    """Seeded first-move order pairs over the strong three-sided candidates,
    followed by the pinned dyadic pairs."""
    rng = random.Random(seed)
    candidates = strong_candidates()
    gaps = {}
    order = []
    for k in range(STRONG_ORDER_PAIRS):
        left, right = rng.sample(range(len(candidates)), 2)
        gaps[f"s{left}"] = candidates[left]
        gaps[f"s{right}"] = candidates[right]
        order.append((f"s{left}", f"s{right}", None))
    gaps.update(PINNED_GAPS)
    order.extend(PINNED_ORDER_PAIRS)
    return {"gaps": gaps, "order": order}
