"""Exact verification toolkit for the level-one vacuum module of affine sl(3).

Subpackages:

- ``algebra``     structure constants, weights and trace form for sl(3)
- ``partitions``  colored partitions, the monomial order, the forbidden-factor
                  set and all pure-combinatorics checks
- ``enveloping``  windowed normal-ordered elements, straightening, and the
                  action on the induced vacuum module
- ``relations``   annihilator relation spaces, syzygies among them, and the
                  leading-term certificate of the basis theorem
- ``qseries``     integer power series: the product side, the constrained
                  and specialized counts, and the lattice character oracle
- ``cli``         batch command line front end
"""

from . import (  # noqa: F401
    algebra,
    enveloping,
    fixture_io,
    linalg,
    partitions,
    qseries,
    relations,
)

__all__ = [
    "algebra",
    "enveloping",
    "fixture_io",
    "linalg",
    "partitions",
    "qseries",
    "relations",
]
__version__ = "0.1.0"
