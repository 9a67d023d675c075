"""Three readers of ``affbasis.enveloping.EnvElement`` for the tests, kept as
they were as methods of the class: the certified coefficient of one
monomial, the common weight of an element's terms, and the adjoint action
of one mode.  No verdict reads any of them: the library builds its relation
spaces from the vertex operators of R, and the tests compare them against
the closure under the adjoint zero modes."""

from affbasis.algebra import BRACKET, FORM, Weight
from affbasis.enveloping import EnvElement, Window, WindowError, straighten_word
from affbasis.linalg import Scalar, add_scaled
from affbasis.partitions import Part, parts_weight, sort_parts


def coefficient(e: EnvElement, parts) -> Scalar:
    """The coefficient of the monomial with these parts; raises if the
    window does not certify it."""
    key = sort_parts(parts)
    if not e.window.admits(key):
        raise WindowError(f"monomial {key} lies outside the window")
    return e.terms.get(key, 0)


def element_weight(e: EnvElement) -> Weight | None:
    """The common weight of the element's terms, or None if they differ."""
    weights = {parts_weight(w).key() for w in e.terms}
    if len(weights) == 1:
        a1, a2 = weights.pop()
        return Weight(a1, a2)
    return None


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
