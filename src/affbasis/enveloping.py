"""Truncated exact computation in the level-one enveloping algebra.

Elements are finite integer combinations of normal-ordered monomials: a
monomial is a mode word sorted in the part order, which automatically puts
creation modes (degree < 0) to the left of annihilation modes (degree >= 0).
Infinite sums from the completed algebra are represented through windows: a
window certifies that every monomial whose annihilation degree total is at
most the bound carries its exact coefficient, while heavier monomials may
be absent.  Since a monomial of annihilation weight s kills every vector of
depth < s in the induced module, a window of bound D determines the action
on the graded piece down to depth D exactly.

Straightening uses the level-one commutator: swapping X_a(m) past X_b(n)
emits [X_a, X_b](m+n) plus the central term m * delta_{m+n,0} * <X_a, X_b>.

An element keeps only what a verdict reads: its terms and window, sums,
scalings, and its action on the module.  No leading term is read off an
element.  The leading terms are the pivots of one labelled echelon
(`relations._labelled_rows`), which serves R, R on the vacuum per parity
and each windowed relation space.  A product with one mode is
straightened term by term into its caller's sum (`relations.collapse`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .algebra import BRACKET, FORM
from .linalg import Scalar, add_scaled
from .partitions import Part, order_key, parts_degree, sort_parts


class WindowError(RuntimeError):
    """The requested computation exceeds the certified truncation window."""


@dataclass(frozen=True)
class Window:
    """Truncation descriptor.  `annihilation_bound` is the certified exact
    region."""

    annihilation_bound: int

    def admits(self, parts: tuple[Part, ...]) -> bool:
        return annihilation_weight(parts) <= self.annihilation_bound

    def narrowed(self, bound: int) -> "Window":
        return Window(min(self.annihilation_bound, bound))


def annihilation_weight(parts: tuple[Part, ...]) -> int:
    return sum(d for _, d in parts if d > 0)


# --- straightening ------------------------------------------------------------


def _rewrite_once(word: tuple[Part, ...], i: int):
    """Terms replacing `word` when positions i, i+1 are transposed."""
    (a, m), (b, n) = word[i], word[i + 1]
    yield word[:i] + ((b, n), (a, m)) + word[i + 2 :], 1
    for color, coef in BRACKET[(a, b)]:
        yield word[:i] + ((color, m + n),) + word[i + 2 :], coef
    if m + n == 0:
        f = FORM[(a, b)]
        if f:
            yield word[:i] + word[i + 2 :], m * f


def _first_inversion(w: tuple[Part, ...]) -> int | None:
    """The first i with part_key(w[i]) > part_key(w[i + 1]), compared
    inline: a greater degree, or the same degree and a smaller color."""
    for i in range(len(w) - 1):
        (a, m), (b, n) = w[i], w[i + 1]
        if m > n or (m == n and a < b):
            return i
    return None


def straighten_word(word, on_vacuum: bool = False) -> dict[tuple[Part, ...], int]:
    """Expand a mode word over sorted monomials; exact, integer output.
    The first inversion is rewritten first.  With `on_vacuum` the word acts
    on the vacuum: a word whose rightmost mode has degree >= 0 is dropped
    as soon as it appears.  A sorted word, which callers often hand in,
    comes back at once as a fresh {word: 1}."""
    w = tuple(word)
    if _first_inversion(w) is None:
        return {} if on_vacuum and w and w[-1][1] >= 0 else {w: 1}
    out: dict[tuple[Part, ...], int] = {}
    stack: list[tuple[tuple[Part, ...], int]] = [(w, 1)]
    while stack:
        w, c = stack.pop()
        if on_vacuum and w and w[-1][1] >= 0:
            continue  # the rightmost mode annihilates the vacuum
        i = _first_inversion(w)
        if i is None:
            out[w] = out.get(w, 0) + c
            continue
        for term, coef in _rewrite_once(w, i):
            stack.append((term, c * coef))
    return {w: c for w, c in out.items() if c}


# --- windowed elements ---------------------------------------------------------


class EnvElement:
    """Finite exact combination of sorted monomials inside a window.  The
    coefficients are ints; a Fraction enters only through a Fraction
    scale."""

    __slots__ = ("terms", "window")

    def __init__(self, terms: dict[tuple[Part, ...], Scalar], window: Window):
        admits = window.admits
        self.terms = {w: c for w, c in terms.items() if c and admits(w)}
        self.window = window

    def is_zero(self) -> bool:
        return not self.terms

    def _plus(self, other: "EnvElement", s) -> "EnvElement":
        if self.window != other.window:
            raise WindowError("cannot combine elements with different windows")
        return EnvElement(
            add_scaled(dict(self.terms), other.terms.items(), s), self.window
        )

    def __add__(self, other: "EnvElement") -> "EnvElement":
        return self._plus(other, 1)

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self._plus(other, -1)

    def scale(self, s: Scalar) -> "EnvElement":
        return EnvElement({w: s * c for w, c in self.terms.items()}, self.window)

    def __repr__(self) -> str:
        return f"EnvElement({len(self.terms)} terms, window={self.window})"


# --- the induced vacuum module -------------------------------------------------
#
# Module vectors are plain sparse dicts, {strictly-negative parts: nonzero
# int}, combined through `add_scaled` like every other vector: the vacuum is
# {(): 1} and u(p).vac is {p: 1}.  A single mode acts by straightening
# the word (mode,) + parts on the vacuum, which drops every word whose
# rightmost mode annihilates it; the pure integer result is memoized with
# `functools.cache`.


@cache
def mode_on_partition(mode: Part, parts: tuple[Part, ...]):
    """X_mode applied to the basis vector u(parts) . vacuum, as a tuple of
    (partition, integer coefficient) pairs."""
    return tuple(straighten_word((mode,) + parts, on_vacuum=True).items())


def apply_mode(mode: Part, v: dict) -> dict:
    """X_mode . v, as a fresh dict; v is not changed."""
    out: dict[tuple[Part, ...], Scalar] = {}
    for parts, c in v.items():
        add_scaled(out, mode_on_partition(mode, parts), c)
    return out


def apply_word(word, v: dict) -> dict:
    """The mode word applied to v, rightmost mode first, as a fresh dict;
    v is not changed."""
    out = dict(v)
    for mode in reversed(tuple(word)):
        out = apply_mode(mode, out)
    return out


def act(e: EnvElement, v: dict) -> dict:
    """e . v, as a fresh dict; v is not changed.  The window of e must reach
    the depth of v, or a heavier monomial it does not hold could act."""
    depth = max((-parts_degree(parts) for parts in v), default=0)
    if e.window.annihilation_bound < depth:
        raise WindowError(
            f"window bound {e.window.annihilation_bound} is too shallow "
            f"for a vector of depth {depth}"
        )
    out: dict[tuple[Part, ...], Scalar] = {}
    for parts, c in e.terms.items():
        add_scaled(out, apply_word(parts, v).items(), c)
    return out


def graded_basis(n: int) -> list[tuple[Part, ...]]:
    """All strictly-negative colored partitions of total degree -n, the
    monomial basis of the induced module at depth n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    import itertools

    results: list[tuple[Part, ...]] = []
    colors_desc = tuple(range(8, 0, -1))

    def rec(depth: int, budget: int, acc: list[Part]):
        if budget == 0:
            results.append(sort_parts(acc))
            return
        if depth > budget:
            return
        for count in range(0, budget // depth + 1):
            if count == 0:
                rec(depth + 1, budget, acc)
                continue
            for combo in itertools.combinations_with_replacement(colors_desc, count):
                rec(
                    depth + 1,
                    budget - count * depth,
                    acc + [(c, -depth) for c in combo],
                )

    rec(1, n, [])
    results.sort(key=order_key)
    return results
