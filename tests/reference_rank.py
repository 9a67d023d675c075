"""An independent exact rank for the tests: fraction-free elimination with
a Markowitz-style pivot choice (shortest row, then the column the fewest
other rows use).  It shares no code with ``affbasis.linalg``, whose
``sparse_rank`` runs the library's span reducer, so the two check each
other."""

from math import gcd


def _strip_gcd(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def integer_rows(rows) -> list[dict]:
    """Scale sparse rows of ints and Fractions to coprime integer rows,
    without Fraction arithmetic (an int's denominator is 1)."""
    out = []
    for row in rows:
        lcm = 1
        for v in row.values():
            d = v.denominator
            lcm = lcm // gcd(lcm, d) * d
        row = {k: v.numerator * (lcm // v.denominator) for k, v in row.items() if v}
        if row:
            out.append(_strip_gcd(row))
    return out


def markowitz_rank(rows) -> int:
    """Exact rank of a list of sparse rows (Fraction or int values), by
    fraction-free elimination with a sparsity-guided pivot choice."""
    work = integer_rows(rows)
    rank = 0
    while work:
        # shortest row first keeps fill-in down
        idx = min(range(len(work)), key=lambda i: len(work[i]))
        pivot_row = work.pop(idx)
        if not pivot_row:
            continue
        col_use: dict = {}
        for r in work:
            for k in r:
                col_use[k] = col_use.get(k, 0) + 1
        pivot_col = min(
            pivot_row, key=lambda k: (col_use.get(k, 0), abs(pivot_row[k]))
        )
        a = pivot_row[pivot_col]
        rank += 1
        next_work = []
        for r in work:
            b = r.get(pivot_col)
            if b is None:
                next_work.append(r)
                continue
            new = {}
            for k, v in r.items():
                nv = a * v - b * pivot_row.get(k, 0)
                if nv:
                    new[k] = nv
            for k, v in pivot_row.items():
                if k not in r:
                    nv = -b * v
                    if nv:
                        new[k] = nv
            new.pop(pivot_col, None)
            if new:
                next_work.append(_strip_gcd(new))
        work = next_work
    return rank
