#!/usr/bin/env python3
"""Collapse the four syzygy families over a degree range and report the
proportionality scalars of the 27-dimensional family.

Usage: python scripts/run_syzygy_check.py [n_min] [n_max] [window]
"""

import sys
import time

from affbasis.enveloping import Window, WindowError
from affbasis.relations import collapse_report, syzygy_dimensions


def _zero_cell(rep: dict, name: str) -> str:
    """A collapse column: 0, BAD for a nonzero residual, or zero tensor for
    a family that has no terms, whose collapse vanishes with nothing read."""
    if name in rep["zero_tensors"]:
        return "zero tensor"
    return "0" if rep[f"psi_{name}_zero"] else "BAD"


def main() -> int:
    try:
        if len(sys.argv) > 4:
            raise ValueError(f"takes at most three arguments, got {len(sys.argv) - 1}")
        n_min = int(sys.argv[1]) if len(sys.argv) > 1 else -6
        n_max = int(sys.argv[2]) if len(sys.argv) > 2 else 0
        bound = int(sys.argv[3]) if len(sys.argv) > 3 else 6
        if bound < 0:
            raise ValueError(f"window must be nonnegative, got {bound}")
        if n_min > n_max:
            # an empty range would pass with no check made
            raise ValueError(f"n_min ({n_min}) must be at most n_max ({n_max})")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    window = Window(bound)
    ok = True
    started = time.monotonic()
    print(f"{'n':>4} {'dims':>18} {'psi64':>6} {'psi35':>6} {'psi35u':>7} {'c(n)':>6}")
    for n in range(n_min, n_max + 1):
        try:
            dims = syzygy_dimensions(n, window)
            rep = collapse_report(n, window)
        except WindowError as exc:
            print(f"window insufficiency: {exc}", file=sys.stderr)
            return 3
        ok &= all(rep[k] for k in ("psi_64_zero", "psi_35_zero", "psi_35u_zero", "psi_27_match"))
        ok &= dims == {"64": 64, "35": 35, "35u": 35, "27": 27}
        print(
            f"{n:>4} {str(sorted(dims.values())):>18} {_zero_cell(rep, '64'):>6} "
            f"{_zero_cell(rep, '35'):>6} {_zero_cell(rep, '35u'):>7} {str(rep['c']):>6}"
        )
    print(f"elapsed: {time.monotonic() - started:.1f}s")
    print("verdict:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
