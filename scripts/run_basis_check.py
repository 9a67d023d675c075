#!/usr/bin/env python3
"""Degreewise verification of the monomial basis: at each depth n the
spanning-ideal count, the induced-module dimension minus the rank of the
maximal submodule, and the lattice character oracle must agree
(`relations.basis_counts_report`).  No window enters; depth 50 takes
about 0.6 s (0.54-0.86 s over five cold runs on a 2-core x86_64 host).

Usage: python scripts/run_basis_check.py [max_depth]
"""

import sys
import time

from affbasis.relations import basis_counts_report


def main() -> int:
    started = time.monotonic()
    try:
        if len(sys.argv) > 2:
            raise ValueError(f"takes at most one argument, got {len(sys.argv) - 1}")
        max_depth = int(sys.argv[1]) if len(sys.argv) > 1 else 5
        rows = basis_counts_report(max_depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
