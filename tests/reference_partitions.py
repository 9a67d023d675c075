"""Two partition predicates and a translation for the tests, kept as they
were in ``affbasis.partitions``.  Neither is independent of the library: ``compare``
is the three-way form of ``order_key`` (the order's independent check is
``parts_compare`` in ``test_partitions.py``), and
``satisfies_difference_conditions`` asks ``embeddings``.  What they are
independent of is the layer rule ``compatible_layers`` and the layer
search ``enumerate_ideal``, which the tests check against them."""

from affbasis.partitions import ColoredPartition, embeddings, order_key


def compare(p: ColoredPartition, q: ColoredPartition) -> int:
    """-1, 0 or 1 as p is below, equal to or above q in the monomial order."""
    a, b = order_key(p.parts), order_key(q.parts)
    return (a > b) - (a < b)


def satisfies_difference_conditions(p: ColoredPartition) -> bool:
    """True iff no forbidden factor divides p as a multiset."""
    if any(d >= 0 for _, d in p.parts):
        raise ValueError("difference conditions apply to strictly negative modes")
    return not embeddings(p)[0]


def translate(p: ColoredPartition, t: int) -> ColoredPartition:
    """p with every mode degree shifted by t."""
    return ColoredPartition((c, d + t) for c, d in p.parts)
