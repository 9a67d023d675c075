"""The forbidden-factor scan for the tests: the form ``affbasis.partitions``
used before it indexed its factor table by anchor color, kept as it was.
For every degree of p it tries all 56 factors anchored there, so it shares
the table but not the index with the library's ``embeddings``."""

from collections import Counter

from affbasis.partitions import _FACTORS, Part


def embeddings_by_full_scan(p: tuple[Part, ...]):
    """The forbidden factors dividing p, listed by anchor, and the excess
    count max(#embeddings - 1, 0)."""
    mult = Counter(p)
    found = [
        lab.translate(j)
        for j in sorted({d for _, d in p})
        for lab, parts in _FACTORS
        if all(mult.get((c, o + j), 0) >= m for (c, o), m in parts)
    ]
    return found, max(len(found) - 1, 0)
