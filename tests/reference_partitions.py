"""Two partition predicates and a translation for the tests, kept as they
were in ``affbasis.partitions``, and multiset divisibility (``contains``)
and division (``quotient``), which only the tests read.  A partition is
the tuple of its parts sorted by ``part_key``.  Neither predicate is
independent of the library: ``compare`` is the three-way form of
``order_key`` (the order's independent check is ``parts_compare`` in
``test_partitions.py``), and ``satisfies_difference_conditions`` asks
``embeddings``.  What they are independent of is the layer rule
``compatible_layers`` and the layer search ``enumerate_ideal``, which the
tests check against them."""

from affbasis.partitions import Part, embeddings, order_key


def compare(p: tuple[Part, ...], q: tuple[Part, ...]) -> int:
    """-1, 0 or 1 as p is below, equal to or above q in the monomial order."""
    a, b = order_key(p), order_key(q)
    return (a > b) - (a < b)


def satisfies_difference_conditions(p: tuple[Part, ...]) -> bool:
    """True iff no forbidden factor divides p as a multiset."""
    if any(d >= 0 for _, d in p):
        raise ValueError("difference conditions apply to strictly negative modes")
    return not embeddings(p)[0]


def translate(p: tuple[Part, ...], t: int) -> tuple[Part, ...]:
    """p with every mode degree shifted by t."""
    return tuple((c, d + t) for c, d in p)


def contains(p: tuple[Part, ...], q: tuple[Part, ...]) -> bool:
    """True iff q divides p as a multiset."""
    return all(p.count(part) >= q.count(part) for part in set(q))


def quotient(p: tuple[Part, ...], q: tuple[Part, ...]) -> tuple[Part, ...]:
    """p with the parts of q removed; q must divide p.  Removing parts
    keeps the rest sorted."""
    if not contains(p, q):
        raise ValueError(f"{q} is not contained in {p}")
    rest = list(p)
    for part in q:
        rest.remove(part)
    return tuple(rest)
