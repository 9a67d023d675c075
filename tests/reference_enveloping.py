"""Two readers of ``affbasis.enveloping.EnvElement`` for the tests, kept as
they were as methods of the class: the certified coefficient of one
monomial, and the common weight of an element's terms.  No verdict reads
either."""

from affbasis.algebra import Weight
from affbasis.enveloping import EnvElement, WindowError
from affbasis.linalg import Scalar
from affbasis.partitions import parts_weight, sort_parts


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
