"""Readers of ``affbasis.enveloping.EnvElement`` for the tests, kept as
they were as methods of the class: the certified coefficient of one
monomial, the common weight and the total degree of an element's terms,
the adjoint action of one mode, the products with one mode from either
side, the narrowing to a smaller window, and the certified leading term.
No verdict reads any of them: the library builds its relation spaces from
the vertex operators of R and reads their leading terms off the pivots of
one labelled echelon, and its collapse straightens each slot product into
one sum.  The tests compare both with the closure under the adjoint zero
modes, the per-product collapse and the candidate scan here."""

from affbasis.algebra import BRACKET, FORM, Weight
from affbasis.enveloping import EnvElement, Window, WindowError, straighten_word
from affbasis.linalg import Scalar, add_scaled
from affbasis.partitions import (
    Part,
    order_key,
    parts_degree,
    parts_shape,
    parts_weight,
    shapes_at_most,
    sort_parts,
)


def coefficient(e: EnvElement, parts) -> Scalar:
    """The coefficient of the monomial with these parts; raises if the
    window does not certify it."""
    key = sort_parts(parts)
    if not e.window.admits(key):
        raise WindowError(f"monomial {key} lies outside the window")
    return e.terms.get(key, 0)


def element_weight(e: EnvElement) -> Weight | None:
    """The common weight of the element's terms, or None if they differ."""
    weights = {parts_weight(w) for w in e.terms}
    return weights.pop() if len(weights) == 1 else None


def adjoint_mode(e: EnvElement, x: int, k: int) -> EnvElement:
    """Commutator [X_x(k), e] for the color x, applied termwise and
    re-straightened.  Shifting by k costs |k| of the certified bound."""
    out: dict[tuple[Part, ...], Scalar] = {}
    for w, c in e.terms.items():
        for idx, (b, d) in enumerate(w):
            for color, coef in BRACKET[(x, b)]:
                word = w[:idx] + ((color, d + k),) + w[idx + 1 :]
                add_scaled(out, straighten_word(word).items(), c * coef)
            f = FORM[(x, b)] if k + d == 0 else 0
            if f:
                word = w[:idx] + w[idx + 1 :]
                add_scaled(out, straighten_word(word).items(), c * k * f)
    if k == 0:
        # Nothing leaves the window, so no term is filtered: a zero mode
        # keeps every mode degree (the central term needs d = 0, where
        # its factor k vanishes), and straightening never raises the
        # annihilation weight (a swap keeps the degrees, a bracket
        # X(m + n) weighs at most max(m, 0) + max(n, 0), a central term
        # drops both modes).  `add_scaled` leaves no zero in `out`.
        image = EnvElement.__new__(EnvElement)
        image.terms, image.window = out, e.window
        return image
    return EnvElement(out, Window(e.window.annihilation_bound - abs(k)))


def narrowed(e: EnvElement, bound: int) -> EnvElement:
    return EnvElement(e.terms, e.window.narrowed(bound))


def total_degree(e: EnvElement) -> int | None:
    degs = {parts_degree(w) for w in e.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def mul_mode_left(e: EnvElement, mode: Part) -> EnvElement:
    """X_mode * e.  Multiplying by a creation mode keeps the window;
    an annihilation mode costs its degree in certified bound."""
    color, degree = mode
    window = Window(e.window.annihilation_bound - max(degree, 0))
    out: dict[tuple[Part, ...], Scalar] = {}
    for w, c in e.terms.items():
        add_scaled(out, straighten_word((mode,) + w).items(), c)
    return EnvElement(out, window)


def mul_mode_right(e: EnvElement, mode: Part) -> EnvElement:
    """e * X_mode.  Multiplying by an annihilation mode keeps (indeed
    extends) the window; a creation mode costs its absolute degree."""
    color, degree = mode
    # an annihilation mode shifts every term's weight up by its degree,
    # so the certified region moves with it; a creation mode can merge
    # into the annihilation side and costs its absolute degree.
    window = Window(e.window.annihilation_bound + degree)
    out: dict[tuple[Part, ...], Scalar] = {}
    for w, c in e.terms.items():
        add_scaled(out, straighten_word(w + (mode,)).items(), c)
    return EnvElement(out, window)


def leading_term(e: EnvElement, max_length: int) -> tuple[Part, ...]:
    """The minimal monomial, certified: every candidate partition at or
    below it (same degree, at most `max_length` parts) must lie in the
    window."""
    if not e.terms:
        raise ValueError("zero element has no leading term")
    degree = total_degree(e)
    if degree is None:
        raise ValueError("leading terms are defined for homogeneous elements")
    best = min(e.terms, key=order_key)
    if len(best) < max_length:
        raise WindowError(
            "window minimum is shorter than the possible maximal length; "
            "longer monomials may hide outside the window"
        )
    # the window reads only degrees, so one check per shape covers all its
    # colorings; the top shape is that of the stored, admitted minimum
    for shape in shapes_at_most(parts_shape(best), len(best), degree):
        if sum(d for d in shape if d > 0) > e.window.annihilation_bound:
            raise WindowError(f"shape {shape} below the minimum is outside the window")
    return best
