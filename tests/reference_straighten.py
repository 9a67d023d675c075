"""A random-order straightener for the confluence tests.  It rewrites the
same one-step commutators as ``affbasis.enveloping.straighten_word``
(``_rewrite_once``), but at an inversion drawn by ``rng`` instead of the
first one, so equal results show that normal ordering does not depend on
the order of the rewrites.

It draws ``rng.choice`` over the full list of inversions, and only when
there is one: a test that goes on drawing from the same ``rng`` sees the
same sequence as before this straightener left the library."""

from affbasis.enveloping import _rewrite_once
from affbasis.partitions import part_key


def straighten_word_randomly(word, rng) -> dict:
    """The mode word expanded over sorted monomials, rewriting a random
    inversion at every step."""
    out = {}
    stack = [(tuple(word), 1)]
    while stack:
        w, c = stack.pop()
        inversions = [
            i for i in range(len(w) - 1) if part_key(w[i]) > part_key(w[i + 1])
        ]
        if not inversions:
            out[w] = out.get(w, 0) + c
            continue
        for term, coef in _rewrite_once(w, rng.choice(inversions)):
            stack.append((term, c * coef))
    return {w: c for w, c in out.items() if c}
