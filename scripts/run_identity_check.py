#!/usr/bin/env python3
"""Compare the three sides of the colored-partition counting identity
coefficient by coefficient, printing the first rows of the table.

Usage: python scripts/run_identity_check.py [order]
"""

import sys
import time

from affbasis.qseries import verify_identity


def main() -> int:
    started = time.monotonic()
    try:
        if len(sys.argv) > 2:
            raise ValueError(f"takes at most one argument, got {len(sys.argv) - 1}")
        order = int(sys.argv[1]) if len(sys.argv) > 1 else 200
        rep = verify_identity(order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    product, constrained, specialized = (
        rep["product"],
        rep["constrained"],
        rep["specialized"],
    )
    print(f"{'n':>4} {'product':>14} {'constrained':>14} {'specialized':>14}")
    shown = list(range(0, min(order, 12) + 1)) + (
        [order // 2, order] if order > 12 else []
    )
    for n in shown:
        print(f"{n:>4} {product[n]:>14} {constrained[n]:>14} {specialized[n]:>14}")
    print(
        "verdict:",
        "all three sides agree" if rep["ok"] else
        f"MISMATCH (product/specialized at {rep['product_vs_specialized']}, "
        f"product/constrained at {rep['product_vs_constrained']})",
    )
    print(f"elapsed: {time.monotonic() - started:.1f}s")
    return 0 if rep["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
