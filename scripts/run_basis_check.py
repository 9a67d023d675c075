#!/usr/bin/env python3
"""Degreewise verification of the monomial basis: for each depth n the
spanning-ideal count, the induced-module dimension minus the rank of the
maximal submodule, and the lattice character oracle must agree.  The rank
is pbw - ideal, proven by one leading-term check per forbidden factor: each
factor's relation vector must lead with the factor, and then every
non-ideal partition leads a vector of the submodule.  The window bounds
only those factor vectors; depth 20 at window 22 takes about 1 s.

Usage: python scripts/run_basis_check.py [max_depth] [window]
"""

import sys
import time

from affbasis.enveloping import Window, WindowError
from affbasis.relations import basis_counts_report


def main() -> int:
    started = time.monotonic()
    try:
        max_depth = int(sys.argv[1]) if len(sys.argv) > 1 else 5
        bound = int(sys.argv[2]) if len(sys.argv) > 2 else max(8, max_depth + 2)
        if bound < 0:
            raise ValueError(f"window must be nonnegative, got {bound}")
        rows = basis_counts_report(max_depth, Window(bound))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WindowError as exc:
        print(f"window insufficiency: {exc}", file=sys.stderr)
        return 3
    print(f"{'n':>3} {'ideal':>8} {'dim':>8} {'rank':>8} {'quotient':>8} {'oracle':>8}  verdict")
    ok = True
    for row in rows:
        verdict = "ok" if row["ok"] else "MISMATCH"
        ok &= row["ok"]
        print(
            f"{row['n']:>3} {row['ideal']:>8} {row['module_dim']:>8} "
            f"{row['rank']:>8} {row['quotient']:>8} {row['oracle']:>8}  {verdict}"
        )
    print(f"elapsed: {time.monotonic() - started:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
