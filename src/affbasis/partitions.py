"""Colored partitions over the eight-color mode alphabet.

A part is a pair ``(color, degree)`` standing for the mode X_color(degree).
Parts are ordered by degree first and, at equal degree, by *descending*
color index (X1 is the greatest color, X8 the least).  A colored partition
is a multiset of parts, stored as the plain tuple of its parts sorted in
that part order (`sort_parts`); every builder in the package sorts, so
equal multisets are equal tuples.  Degree, weight and shape are read off the
tuple (`parts_degree`, `parts_weight`, `parts_shape`), and multiplicities,
unions and intersections are those of `collections.Counter`, whose keys
keep part order.

The module also owns the strict total order on partitions, written once as
the tuple key ``order_key`` and used everywhere for leading terms and
pivots; the forbidden-factor set (54 quadratic families plus two cubic
families per degree); the difference-condition enumeration of the spanning
ideal; and the embedding counts behind the coloring totals.

Each forbidden factor is one piece of data: its colors and, fixed by its
kind, their degree offsets from an anchor j.  The layer rule, the embeddings
and the difference conditions are all derived from that table.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache
from operator import neg
from typing import NamedTuple

from .algebra import COLORS, WEIGHT, Weight

Part = tuple[int, int]  # (color, degree)


def part_key(p: Part) -> tuple[int, int]:
    return (p[1], -p[0])


def sort_parts(parts) -> tuple[Part, ...]:
    return tuple(sorted(parts, key=part_key))


def parts_degree(parts: tuple[Part, ...]) -> int:
    return sum(d for _, d in parts)


def parts_weight(parts: tuple[Part, ...]) -> Weight:
    a1 = sum(WEIGHT[c].a1 for c, _ in parts)
    a2 = sum(WEIGHT[c].a2 for c, _ in parts)
    return Weight(a1, a2)


def parts_shape(parts: tuple[Part, ...]) -> tuple[int, ...]:
    return tuple(d for _, d in parts)


def shape_key(shape: tuple[int, ...]) -> tuple:
    """Sort key of the order on plain partitions: longer first; then smaller
    total; then the positional scan from the top part downward, smaller
    degree first."""
    return (-len(shape), sum(shape), shape[::-1])


def order_key(parts: tuple[Part, ...]) -> tuple:
    """Sort key of the strict monomial order on sorted part tuples: `shape_key`
    (inlined in C-level calls), then at equal shape the reverse positional
    scan on colors, greater color index first.  The one definition of the order."""
    colors, shape = zip(*parts) if parts else ((), ())
    return (-len(shape), sum(shape), shape[::-1], tuple(map(neg, colors[::-1])))


# --- plain-text format ------------------------------------------------------
#
# One partition per line, parts as color:degree, e.g. "3:-2 4:-1 1:-1".
# The empty partition is written as "-".


def format_partition(p: tuple[Part, ...]) -> str:
    if not p:
        return "-"
    return " ".join(f"{c}:{d}" for c, d in p)


def parse_partition(text: str) -> tuple[Part, ...]:
    """The partition written in `text`, its parts in any order, sorted."""
    text = text.strip()
    if not text or text == "-":
        return ()
    parts = []
    for token in text.split():
        c, d = token.split(":")
        parts.append((int(c), int(d)))
    return sort_parts(parts)


# --- the forbidden-factor set ------------------------------------------------
#
# Two 27-element color lists, one for equal-degree pairs X_a(j)X_b(j) and one
# for adjacent-degree pairs X_a(j-1)X_b(j), plus two cubic families.

SAME_DEGREE_COLOR_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4),
    (5, 1), (5, 2), (5, 3), (5, 4), (5, 5), (6, 2), (6, 4), (6, 5), (6, 6),
    (7, 3), (7, 4), (7, 5), (7, 6), (7, 7), (8, 5), (8, 6), (8, 7), (8, 8),
)

ADJACENT_COLOR_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8),
    (2, 2), (2, 4), (2, 6), (2, 7), (2, 8),
    (3, 3), (3, 5), (3, 6), (3, 7), (3, 8),
    (4, 7), (4, 8),
    (5, 6), (5, 8),
    (6, 6), (6, 8),
    (7, 7), (7, 8),
    (8, 8),
)

QUAD_SAME = "quad_same"
QUAD_ADJACENT = "quad_adjacent"
CUBIC_A = "cubic_a"
CUBIC_B = "cubic_b"

# Degree offsets of each kind's parts from the anchor j, in color order.
# Every kind has a part at offset 0 and none above it.
_OFFSETS = {
    QUAD_SAME: (0, 0),
    QUAD_ADJACENT: (-1, 0),
    CUBIC_A: (-1, 0, 0),
    CUBIC_B: (-1, -1, 0),
}


class RelationLabel(NamedTuple):
    """A forbidden factor anchored at degree j: the modes
    X_colors[i](j + offsets[i]), with the offsets fixed by the kind.  A plain
    tuple, so hashing and the order (kind, colors, j) run in C."""

    kind: str
    colors: tuple[int, ...]
    j: int

    def partition(self) -> tuple[Part, ...]:
        return sort_parts(
            (c, self.j + o) for c, o in zip(self.colors, _OFFSETS[self.kind])
        )

    def degree(self) -> int:
        """The degree of `partition()`, without building it."""
        offsets = _OFFSETS[self.kind]
        return len(offsets) * self.j + sum(offsets)

    def translate(self, t: int) -> "RelationLabel":
        return RelationLabel(self.kind, self.colors, self.j + t)


def quad_same_label(c1: int, c2: int, j: int) -> RelationLabel:
    return RelationLabel(QUAD_SAME, (c1, c2), j)


def quad_adjacent_label(c1: int, c2: int, j: int) -> RelationLabel:
    return RelationLabel(QUAD_ADJACENT, (c1, c2), j)


def cubic_a_label(j: int) -> RelationLabel:
    return RelationLabel(CUBIC_A, (3, 4, 1), j)


def cubic_b_label(j: int) -> RelationLabel:
    return RelationLabel(CUBIC_B, (8, 4, 6), j)


def relation_set(j_min: int, j_max: int) -> list[RelationLabel]:
    """All forbidden factors anchored at j_min <= j <= j_max (56 per j)."""
    if j_min > j_max:
        raise ValueError("empty anchor range")
    out = []
    for j in range(j_min, j_max + 1):
        out.extend(quad_same_label(c1, c2, j) for c1, c2 in SAME_DEGREE_COLOR_PAIRS)
        out.extend(quad_adjacent_label(c1, c2, j) for c1, c2 in ADJACENT_COLOR_PAIRS)
        out.append(cubic_a_label(j))
        out.append(cubic_b_label(j))
    return out


def quadratic_leading_labels(n: int) -> list[RelationLabel]:
    """The 27 quadratic leading-term labels whose partitions have degree n:
    the equal-degree pairs for even n, the adjacent-degree pairs for odd n."""
    j = (n + 1) // 2
    return [lab for lab in relation_set(j, j) if len(lab.colors) == 2 and lab.degree() == n]


# The forbidden factors anchored at 0, each with the multiplicities of its
# parts (color, offset); the factors anchored at j are these translated by j.
_FACTORS = tuple(
    (lab, tuple(Counter(lab.partition()).items())) for lab in relation_set(0, 0)
)

# The same factors indexed by the color of their first part at offset 0: a
# factor anchored at j divides p only if p has the part (that color, j).
_FACTORS_BY_ANCHOR_COLOR = {
    c: tuple(f for f in _FACTORS if f[0].colors[_OFFSETS[f[0].kind].index(0)] == c)
    for c in COLORS
}


def embeddings(p: tuple[Part, ...]):
    """The forbidden factors dividing p, listed by anchor, and the excess
    count max(#embeddings - 1, 0).  Every factor has a part at its anchor,
    so each distinct part (c, j) of p tries only the factors anchored on
    color c, translated to j."""
    mult = Counter(p)  # keys in part order, so degrees ascend
    found = []
    for c, j in mult:
        for lab, parts in _FACTORS_BY_ANCHOR_COLOR[c]:
            for (c2, o), m in parts:
                if mult.get((c2, o + j), 0) < m:
                    break
            else:
                found.append(lab.translate(j))
    return found, max(len(found) - 1, 0)


def quadratic_embeddings(p: tuple[Part, ...]) -> list[RelationLabel]:
    """All quadratic leading-term labels whose partition divides p."""
    return [lab for lab in embeddings(p)[0] if len(lab.colors) == 2]


def embedding_excess(p: tuple[Part, ...]) -> int:
    """Quadratic-only excess count used by the coloring totals."""
    return max(len(quadratic_embeddings(p)) - 1, 0)


# --- enumeration of the spanning ideal ---------------------------------------
#
# Subsets of colors sharing one degree are constrained by the equal-degree
# list alone (repeats are excluded by its diagonal), so the per-degree states
# are the independent sets of the 19-edge conflict graph.  Consecutive
# degrees are coupled by the factors that span two degrees.

_SAME_EDGES = frozenset(
    (c1, c2) for c1, c2 in SAME_DEGREE_COLOR_PAIRS if c1 != c2
)

INDEPENDENT_COLOR_SETS = tuple(
    frozenset(combo)
    for r in range(9)
    for combo in itertools.combinations(COLORS, r)
    if not any((b, a) in _SAME_EDGES for a, b in itertools.combinations(combo, 2))
)

# (colors at offset -1, colors at offset 0) of each factor spanning two degrees
_LAYER_FACTORS = tuple(
    tuple(frozenset(c for (c, o), _ in parts if o == k) for k in (-1, 0))
    for lab, parts in _FACTORS
    if -1 in _OFFSETS[lab.kind]
)


@cache
def _lows_below(shallower: frozenset[int]) -> tuple[frozenset[int], ...]:
    """The offset -1 colors of the two-degree factors with offset 0 colors in `shallower`."""
    return tuple(low for low, high in _LAYER_FACTORS if high <= shallower)


def compatible_layers(deeper: frozenset[int], shallower: frozenset[int]) -> bool:
    """May colors `deeper` sit at degree j-1 below colors `shallower` at j?"""
    return not any(low <= deeper for low in _lows_below(shallower))


def enumerate_ideal(n: int, weight: Weight | None = None) -> list[tuple[Part, ...]]:
    """All difference-condition partitions of total degree -n, sorted."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    results: list[tuple[Part, ...]] = []
    layers = INDEPENDENT_COLOR_SETS

    def rec(depth: int, budget: int, shallower: frozenset[int], acc: list[Part]):
        if budget == 0:
            p = sort_parts(acc)
            if weight is None or parts_weight(p) == weight:
                results.append(p)
            return
        if depth > budget:
            return
        for layer in layers:
            cost = depth * len(layer)
            if cost > budget:
                continue
            if not compatible_layers(layer, shallower):
                continue
            rec(
                depth + 1,
                budget - cost,
                layer,
                acc + [(c, -depth) for c in layer],
            )

    rec(1, n, frozenset(), [])
    results.sort(key=order_key)
    return results


# --- candidate enumeration below a bound -------------------------------------


def shapes_at_most(top_shape: tuple[int, ...], length: int, degree: int):
    """Nondecreasing degree tuples of the given length and total that are
    <= top_shape in the shape order."""
    cap = top_shape[-1] if top_shape else 0
    top_key = shape_key(top_shape)
    out = []

    def rec(slots: int, remaining: int, current_cap: int, acc: list[int]):
        if slots == 0:
            if remaining == 0:
                shape = tuple(reversed(acc))
                if shape_key(shape) <= top_key:
                    out.append(shape)
            return
        lo = -(-remaining // slots)  # ceil division
        for d in range(current_cap, lo - 1, -1):
            rec(slots - 1, remaining - d, d, acc + [d])

    rec(length, degree, cap, [])
    return out


def colorings_of_shape(shape: tuple[int, ...]):
    """All colored partitions with the given (sorted) degree shape; each
    block of equal degrees takes its colors in descending index, which is
    the part order."""
    runs: list[tuple[int, int]] = []
    for d in shape:
        if runs and runs[-1][0] == d:
            runs[-1] = (d, runs[-1][1] + 1)
        else:
            runs.append((d, 1))
    choices = []
    for d, k in runs:
        choices.append(
            [
                tuple((c, d) for c in combo)
                for combo in itertools.combinations_with_replacement(
                    sorted(COLORS, reverse=True), k
                )
            ]
        )
    for picks in itertools.product(*choices):
        yield tuple(itertools.chain.from_iterable(picks))


def partitions_at_most(
    bound: tuple[Part, ...], length: int, degree: int
) -> list[tuple[Part, ...]]:
    """All partitions q with ell(q) = length, |q| = degree and q <= bound.
    Requires ell(bound) = length (shorter partitions are strictly greater,
    longer ones strictly smaller and unbounded)."""
    if len(bound) != length:
        raise ValueError("bound must have the requested length")
    out = []
    top_shape = parts_shape(bound)
    top_key, bound_key = shape_key(top_shape), order_key(bound)
    for shape in shapes_at_most(top_shape, length, degree):
        strictly_lower = shape_key(shape) < top_key
        for q in colorings_of_shape(shape):
            if strictly_lower or order_key(q) <= bound_key:
                out.append(q)
    return out


# --- coloring totals over shape classes --------------------------------------

# Degree offsets of each class's three parts from j, in part order.
SHAPE_CLASSES = {
    "j^3": (0, 0, 0),
    "(j-1)j(j+1)": (-1, 0, 1),
    "(j-1)j^2": (-1, 0, 0),
    "(j-1)^2j": (-1, -1, 0),
}


def shape_of_class(shape_class: str, j: int) -> tuple[int, ...]:
    if shape_class not in SHAPE_CLASSES:
        raise ValueError(f"unknown shape class {shape_class!r}")
    return tuple(j + o for o in SHAPE_CLASSES[shape_class])


def shape_class_embedding_total(shape_class: str, j: int = -3) -> int:
    """Sum of the quadratic-only excess counts over all colorings of the
    shape; independent of j."""
    shape = shape_of_class(shape_class, j)
    return sum(embedding_excess(p) for p in colorings_of_shape(shape))


EXCEPTIONAL_CASES = {
    "a": (Weight(1, 2), "(j-1)j^2"),
    "b": (Weight(-1, -2), "(j-1)^2j"),
}


def exceptional_class(weight: Weight, shape_class: str):
    """The length-3 partitions of the given weight and shape at j = -1,
    with the sum of their quadratic-only excess counts.  Only the two
    exceptional weight/shape combinations are supported."""
    if (weight, shape_class) not in EXCEPTIONAL_CASES.values():
        raise ValueError(
            "supported cases: weight alpha1+2alpha2 with shape (j-1)j^2, "
            "or its negative with shape (j-1)^2j"
        )
    shape = shape_of_class(shape_class, -1)
    found = sorted(
        (p for p in colorings_of_shape(shape) if parts_weight(p) == weight), key=order_key
    )
    total = sum(embedding_excess(p) for p in found)
    return found, total


# --- overlap catalogue of the cubic families ---------------------------------


def overlap_catalogue(j: int) -> list[tuple[tuple[Part, ...], tuple[Part, ...]]]:
    """All pairs (pi, rho1) with rho1 a forbidden factor, rho2 one of the two
    cubics anchored at j, pi = rho1 union rho2, rho1 and rho2 intersecting,
    and ell(pi) >= 4.  When rho1 is itself cubic the pair is recorded once,
    marked at its first-kind instance."""
    found: set[tuple[tuple[Part, ...], tuple[Part, ...]]] = set()
    for rho2 in (cubic_a_label(j), cubic_b_label(j)):
        m2 = Counter(rho2.partition())
        for t in range(j - 3, j + 4):
            for rho1 in relation_set(t, t):
                if rho1 == rho2:
                    continue
                if rho1.kind == CUBIC_B:
                    continue  # mirror of a first-kind marking
                p1 = rho1.partition()
                m1 = Counter(p1)
                if not m1 & m2:
                    continue
                pi = sort_parts((m1 | m2).elements())
                if len(pi) >= 4:
                    found.add((pi, p1))
    return sorted(found, key=lambda pair: (order_key(pair[0]), order_key(pair[1])))
