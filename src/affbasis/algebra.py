"""Exact arithmetic for sl(3) over the ordered eight-element basis.

The basis vectors X1..X8 are realized once as traceless 3x3 integer
matrices and every structure constant used anywhere in the package
(bracket table, trace form, root-space weights) is generated from that
realization at import time.  Nothing is transcribed by hand, so the
Jacobi identity and form invariance certify the tables themselves.

Color indices follow the fixed ordering X1 > X2 > ... > X8, i.e. a
*smaller* index is *greater* in the color order.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .linalg import add_scaled

COLORS = (1, 2, 3, 4, 5, 6, 7, 8)


class Weight(NamedTuple):
    """h-weight written in the simple-root basis (a1*alpha1 + a2*alpha2), a
    plain tuple like `partitions.RelationLabel`: `Weight(2, 2) == (2, 2)`,
    but `+` adds weights."""

    a1: int
    a2: int

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a1 + other.a1, self.a2 + other.a2)


# --- defining 3x3 realization -------------------------------------------
#
# Matrices are 9-tuples in row-major order, exact integers throughout.


def _unit(i: int, j: int) -> tuple[int, ...]:
    return tuple(1 if (r, c) == (i, j) else 0 for r in range(3) for c in range(3))


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(a[3 * r + k] * b[3 * k + c] for k in range(3))
        for r in range(3)
        for c in range(3)
    )


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _commutator(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return _sub(_mul(a, b), _mul(b, a))


def _trace(a: tuple[int, ...]) -> int:
    return a[0] + a[4] + a[8]


_E1, _E2 = _unit(0, 1), _unit(1, 2)
_F1, _F2 = _unit(1, 0), _unit(2, 1)
_H1 = _sub(_unit(0, 0), _unit(1, 1))
_H2 = _sub(_unit(1, 1), _unit(2, 2))

_MATRIX = {
    1: _commutator(_E1, _E2),
    2: _E1,
    3: _E2,
    4: _H1,
    5: _H2,
    6: _F2,
    7: _F1,
    8: _commutator(_F2, _F1),
}


def _decompose(m: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Write a traceless 3x3 integer matrix over the X-basis."""
    coeffs = {}
    off = {(0, 2): 1, (0, 1): 2, (1, 2): 3, (2, 1): 6, (1, 0): 7, (2, 0): 8}
    for (r, c), color in off.items():
        v = m[3 * r + c]
        if v:
            coeffs[color] = v
    # diagonal part diag(d0,d1,d2) with d0+d1+d2 = 0 is d0*H1 - d2*H2
    d0, d2 = m[0], m[8]
    if d0:
        coeffs[4] = d0
    if d2:
        coeffs[5] = -d2
    check = [0] * 9
    for color, v in coeffs.items():
        check = [x + v * y for x, y in zip(check, _MATRIX[color])]
    if tuple(check) != m:
        raise AssertionError("matrix does not lie in the span of the basis")
    return tuple(sorted(coeffs.items()))


# BRACKET[(a, b)] lists (color, coefficient) pairs of [X_a, X_b];
# FORM[(a, b)] is the trace form tr(X_a X_b).
BRACKET: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
FORM: dict[tuple[int, int], int] = {}
for _a in COLORS:
    for _b in COLORS:
        BRACKET[(_a, _b)] = _decompose(_commutator(_MATRIX[_a], _MATRIX[_b]))
        FORM[(_a, _b)] = _trace(_mul(_MATRIX[_a], _MATRIX[_b]))


def _eigenvalue(h: tuple[int, ...], m: tuple[int, ...]) -> int:
    """The integer l with [h, m] = l * m, for a root vector or Cartan m."""
    image = _commutator(h, m)
    i = next(k for k, x in enumerate(m) if x)
    value, rest = divmod(image[i], m[i])
    if rest or image != tuple(value * x for x in m):
        raise AssertionError("basis vector is not an eigenvector of ad h")
    return value


def _simple_root_weight(m: tuple[int, ...]) -> Weight:
    """Write the ad(H1), ad(H2) eigenvalues (l1, l2) of m in the simple-root
    basis by the inverse Cartan matrix: a1 = (2 l1 + l2)/3, a2 = (l1 + 2 l2)/3."""
    l1, l2 = _eigenvalue(_H1, m), _eigenvalue(_H2, m)
    a1, r1 = divmod(2 * l1 + l2, 3)
    a2, r2 = divmod(l1 + 2 * l2, 3)
    if r1 or r2:
        raise AssertionError("eigenvalues do not lie in the root lattice")
    return Weight(a1, a2)


WEIGHT: dict[int, Weight] = {c: _simple_root_weight(_MATRIX[c]) for c in COLORS}

# Chevalley generators by color index.
E1_COLOR, E2_COLOR, H1_COLOR, H2_COLOR, F2_COLOR, F1_COLOR = 2, 3, 4, 5, 6, 7


def bracket(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """[x, y] for sparse vectors {color: int} over X1..X8."""
    out: dict[int, int] = {}
    for a, xa in x.items():
        for b, yb in y.items():
            add_scaled(out, BRACKET[(a, b)], xa * yb)
    return out


def invariant_form(x: dict[int, int], y: dict[int, int]) -> int:
    """The trace form of two sparse vectors {color: int}."""
    return sum(xa * yb * FORM[(a, b)] for a, xa in x.items() for b, yb in y.items())


def structure_witness() -> str | None:
    """Check the identities that certify the tables, over all basis pairs
    and triples: antisymmetry and Jacobi for BRACKET, symmetry and
    invariance for FORM.  Returns the first failure, naming the identity
    and the colors, or None when all hold."""
    x = {c: {c: 1} for c in COLORS}
    for a, b in itertools.product(COLORS, repeat=2):
        if add_scaled(bracket(x[a], x[b]), bracket(x[b], x[a]).items()):
            return f"antisymmetry fails at [X{a}, X{b}]"
        if FORM[(a, b)] != FORM[(b, a)]:
            return f"form symmetry fails at (X{a}, X{b})"
    for a, b, c in itertools.product(COLORS, repeat=3):
        # [a, [b, c]] - [[a, b], c] - [b, [a, c]]
        jacobi = bracket(x[a], bracket(x[b], x[c]))
        add_scaled(jacobi, bracket(bracket(x[a], x[b]), x[c]).items(), -1)
        add_scaled(jacobi, bracket(x[b], bracket(x[a], x[c])).items(), -1)
        if jacobi:
            return f"Jacobi fails at X{a}, X{b}, X{c}"
        left = invariant_form(bracket(x[a], x[b]), x[c])
        if left != -invariant_form(x[b], bracket(x[a], x[c])):
            return f"form invariance fails at X{a}, X{b}, X{c}"
    return None
