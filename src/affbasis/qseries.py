"""Integer power series engine and the three sides of the counting identity.

Everything here is exact: coefficients are Python ints, truncation order is
explicit, and the three series being compared (the bounded-multiplicity
product, the constrained three-color count, and the specialized ideal
count) are produced by independent machinery.
"""

from __future__ import annotations

import math

from .partitions import (
    INDEPENDENT_COLOR_SETS,
    ColoredPartition,
    compatible_layers,
)


class Series:
    """Truncated power series with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [int(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("a series needs at least the constant term")

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def _common(self, other: "Series") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "Series") -> "Series":
        n = self._common(other)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        n = self._common(other)
        return Series([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "Series") -> "Series":
        n = self._common(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(out)

    def inverse(self) -> "Series":
        if self.coeffs[0] not in (1, -1):
            raise ValueError("invertible series need constant term +-1")
        n = self.order
        inv = [0] * (n + 1)
        inv[0] = self.coeffs[0]
        for k in range(1, n + 1):
            s = sum(self.coeffs[i] * inv[k - i] for i in range(1, k + 1))
            inv[k] = -self.coeffs[0] * s
        return Series(inv)

    def truncated(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[: order + 1])

    def first_difference(self, other: "Series") -> int | None:
        n = self._common(other)
        for k in range(n + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"Series([{head}{', ...' if self.order > 7 else ''}], order={self.order})"


def _multiply_geometric(coeffs: list[int], r: int) -> None:
    """In-place multiplication by 1/(1 - q^r)."""
    for k in range(r, len(coeffs)):
        coeffs[k] += coeffs[k - r]


def colored_part_count_series(order: int, colors: int) -> Series:
    """Partitions with parts of `colors` kinds: prod (1-q^k)^(-colors)."""
    coeffs = [1] + [0] * order
    for _ in range(colors):
        for r in range(1, order + 1):
            _multiply_geometric(coeffs, r)
    return Series(coeffs)


def product_side(order: int) -> Series:
    """prod_{r>=1} (1 + q^r + q^{2r}): parts repeat at most twice."""
    coeffs = [1] + [0] * order
    for r in range(1, order + 1):
        new = coeffs[:]
        for k in range(r, order + 1):
            new[k] += coeffs[k - r]
        for k in range(2 * r, order + 1):
            new[k] += coeffs[k - 2 * r]
        coeffs = new
    return Series(coeffs)


def nontriple_product_side(order: int) -> Series:
    """prod_{r not= 0 mod 3} (1 - q^r)^(-1)."""
    coeffs = [1] + [0] * order
    for r in range(1, order + 1):
        if r % 3 != 0:
            _multiply_geometric(coeffs, r)
    return Series(coeffs)


# --- three-color constrained partitions --------------------------------------
#
# Tricolor parts are pairs (degree, color) with color 1 = plain,
# 2 = underlined, 3 = doubly underlined; each part appears at most once.

PLAIN, UNDER, DUNDER = 1, 2, 3
TRICOLOR_NAMES = {PLAIN: "", UNDER: "u", DUNDER: "uu"}


def _local_part_ok(degree: int, color: int) -> bool:
    if color == DUNDER:
        if degree % 3 == 0:
            return False  # doubly underlined degrees are +-1 mod 3
        if degree == 2:
            return False
        return True
    return degree > 1  # no plain or underlined 1


# Window families: (guard residue of the top degree d, minimal d, bound,
# required (offset, color) slots).  Offsets count back from the top degree.
_QUAD_FAMILIES = (
    # top degree d = 3i+5, i >= 0
    (2, 5, 1, ((3, PLAIN), (2, PLAIN), (1, UNDER), (0, PLAIN))),
    (2, 5, 1, ((3, UNDER), (2, UNDER), (1, DUNDER), (0, UNDER))),
    (2, 5, 1, ((3, DUNDER), (2, UNDER), (1, PLAIN), (0, DUNDER))),
    # top degree d = 3i+4, i >= 0
    (1, 4, 1, ((3, PLAIN), (2, UNDER), (1, PLAIN), (0, PLAIN))),
    (1, 4, 1, ((3, UNDER), (2, DUNDER), (1, UNDER), (0, UNDER))),
    (1, 4, 1, ((3, DUNDER), (2, PLAIN), (1, UNDER), (0, DUNDER))),
    # triple families, top degree d = 3i+5, i >= 0
    (2, 5, 2, ((4, UNDER), (2, PLAIN), (0, DUNDER))),
    (2, 5, 2, ((4, DUNDER), (2, PLAIN), (0, UNDER))),
)


def _window_violation(d: int, window: tuple[int, ...]) -> bool:
    """window holds the color choices at degrees d-4, d-3, d-2, d-1, d
    (0 = absent).  Tests every constraint whose top degree is d."""
    if window[3] and window[4]:
        return True  # adjacent degrees both occupied
    for residue, d_min, bound, slots in _QUAD_FAMILIES:
        if d % 3 != residue or d < d_min:
            continue
        count = sum(1 for off, color in slots if window[4 - off] == color)
        if count > bound:
            return True
    return False


def tricolor_admissible(parts) -> bool:
    """Full condition check on a collection of (degree, color) parts."""
    parts = set(parts)
    degrees: dict[int, int] = {}
    for degree, color in parts:
        if degree < 1 or color not in (PLAIN, UNDER, DUNDER):
            raise ValueError(f"bad tricolor part {(degree, color)}")
        if not _local_part_ok(degree, color):
            return False
        if degree in degrees:
            return False  # same or unit-distance degrees may hold one part
        degrees[degree] = color
    if not degrees:
        return True
    # a violated family can have its top slot up to two above the largest
    # present part, so scan that far
    top = max(degrees) + 2
    for d in range(1, top + 1):
        window = tuple(degrees.get(d - off, 0) for off in range(4, -1, -1))
        if _window_violation(d, window):
            return False
    return True


def tricolor_count_series(order: int) -> Series:
    """Count of admissible three-color partitions by total degree, via a
    sliding-window transfer over the compiled constraint table."""
    start = (0, 0, 0, 0)
    states: dict[tuple[int, int, int, int], list[int]] = {
        start: [1] + [0] * order
    }
    for d in range(1, order + 1):
        new: dict[tuple[int, int, int, int], list[int]] = {}
        for state, series in states.items():
            for choice in (0, PLAIN, UNDER, DUNDER):
                if choice and not _local_part_ok(d, choice):
                    continue
                if _window_violation(d, state + (choice,)):
                    continue
                ns = state[1:] + (choice,)
                target = new.get(ns)
                if target is None:
                    target = [0] * (order + 1)
                    new[ns] = target
                if choice == 0:
                    for k, v in enumerate(series):
                        if v:
                            target[k] += v
                else:
                    for k in range(order - d + 1):
                        v = series[k]
                        if v:
                            target[k + d] += v
        states = new
    total = [0] * (order + 1)
    for series in states.values():
        for k, v in enumerate(series):
            total[k] += v
    return Series(total)


def tricolor_partitions_bruteforce(order: int) -> list[frozenset]:
    """All admissible three-color partitions of total degree <= order,
    by direct search.  Exponential; meant for desk-scale cross-checks."""
    found: list[frozenset] = []

    def rec(d: int, budget: int, acc: list):
        found.append(frozenset(acc))
        for degree in range(d, budget + 1):
            for color in (PLAIN, UNDER, DUNDER):
                cand = acc + [(degree, color)]
                if tricolor_admissible(cand):
                    rec(degree + 1, budget - degree, cand)

    rec(1, order, [])
    return found


def tricolor_count_bruteforce(order: int) -> Series:
    counts = [0] * (order + 1)
    for f in tricolor_partitions_bruteforce(order):
        counts[sum(d for d, _ in f)] += 1
    return Series(counts)


# --- the specialization map ---------------------------------------------------

_PHI_COLOR = {1: DUNDER, 2: PLAIN, 3: UNDER, 4: PLAIN, 5: UNDER, 6: UNDER, 7: PLAIN, 8: DUNDER}
_PHI_OFFSET = {1: -2, 2: -1, 3: -1, 4: 0, 5: 0, 6: 1, 7: 1, 8: 2}


def phi_part(color: int, i: int) -> tuple[int, int]:
    """Image of the mode X_color(-i), i >= 1, as a (degree, color) part."""
    if i < 1:
        raise ValueError("only strictly negative modes specialize")
    return (3 * i + _PHI_OFFSET[color], _PHI_COLOR[color])


def phi_image(p: ColoredPartition) -> frozenset:
    return frozenset(phi_part(c, -d) for c, d in p.parts)


def phi_degree(p: ColoredPartition) -> int:
    return sum(3 * (-d) + _PHI_OFFSET[c] for c, d in p.parts)


def specialized_count_series(order: int) -> Series:
    """Count of difference-condition partitions graded by specialized
    degree, via a layer-transfer over per-degree color sets."""
    depth_max = (order + 2) // 3
    states: dict[frozenset, list[int]] = {frozenset(): [1] + [0] * order}
    for i in range(1, depth_max + 1):
        new: dict[frozenset, list[int]] = {}
        for layer in INDEPENDENT_COLOR_SETS:
            cost = sum(3 * i + _PHI_OFFSET[c] for c in layer)
            if cost > order:
                continue
            for prev, series in states.items():
                if not compatible_layers(layer, prev):
                    continue
                target = new.get(layer)
                if target is None:
                    target = [0] * (order + 1)
                    new[layer] = target
                if cost == 0:
                    for k, v in enumerate(series):
                        if v:
                            target[k] += v
                else:
                    for k in range(order - cost + 1):
                        v = series[k]
                        if v:
                            target[k + cost] += v
        states = new
    total = [0] * (order + 1)
    for series in states.values():
        for k, v in enumerate(series):
            total[k] += v
    return Series(total)


def specialized_ideal_partitions(order: int) -> list[ColoredPartition]:
    """Difference-condition partitions of specialized degree <= order, by
    direct search over internal degrees."""
    found: list[ColoredPartition] = []

    def rec(i: int, budget: int, prev: frozenset, acc: list):
        found.append(ColoredPartition(acc))
        for depth in range(i, (budget + 2) // 3 + 1):
            shallow = prev if depth == i else frozenset()
            for layer in INDEPENDENT_COLOR_SETS:
                if not layer:
                    continue
                cost = sum(3 * depth + _PHI_OFFSET[c] for c in layer)
                if cost > budget:
                    continue
                if not compatible_layers(layer, shallow):
                    continue
                rec(
                    depth + 1,
                    budget - cost,
                    layer,
                    acc + [(c, -depth) for c in layer],
                )

    rec(1, order, frozenset(), [])
    return found


def specialized_count_bruteforce(order: int) -> Series:
    counts = [0] * (order + 1)
    for p in specialized_ideal_partitions(order):
        counts[phi_degree(p)] += 1
    return Series(counts)


# --- the independent character oracle ----------------------------------------


def a2_theta_series(order: int, sign: int = -1) -> Series:
    """Theta series of the hexagonal root lattice, Gram matrix
    [[2, sign], [sign, 2]] with sign = +-1."""
    if sign not in (1, -1):
        raise ValueError("off-diagonal sign must be +1 or -1")
    coeffs = [0] * (order + 1)
    # the norm form is at least (3/4) x^2 over integer points
    bound = math.isqrt(4 * order // 3) + 2
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            norm = x * x + sign * x * y + y * y
            if norm <= order:
                coeffs[norm] += 1
    return Series(coeffs)


def character_oracle(order: int) -> Series:
    """Homogeneous-grading dimension series of the vacuum module quotient:
    the root-lattice theta series times two free boson partitions."""
    return a2_theta_series(order) * colored_part_count_series(order, 2)


# --- the triple comparison ----------------------------------------------------


def verify_identity(order: int, sum_order: int | None = None) -> dict:
    """Compare the product side, the constrained-count side and the
    specialized ideal count coefficientwise."""
    sum_order = order if sum_order is None else min(sum_order, order)
    product = product_side(order)
    specialized = specialized_count_series(order)
    constrained = tricolor_count_series(sum_order)
    d1 = product.first_difference(specialized)
    d2 = product.truncated(sum_order).first_difference(constrained)
    report = {
        "order": order,
        "sum_order": sum_order,
        "product_vs_specialized": d1,
        "product_vs_constrained": d2,
        "ok": d1 is None and d2 is None,
        "product": product,
        "specialized": specialized,
        "constrained": constrained,
    }
    return report
