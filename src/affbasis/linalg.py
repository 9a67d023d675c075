"""Exact sparse linear algebra with integer coefficients.

Sparse vectors are plain dicts from a key to a nonzero coefficient, and
``add_scaled`` is the one way they are combined: every layer (monomials,
module vectors, tensors, reducer rows) accumulates through it.
Coefficients are Python ints; a ``Fraction`` appears only where a true
division happens, through ``exact_quotient``: reducer normalization, the
q27 solve and the scalar c(n) of the collapse.  Ints and Fractions mix
exactly, and ``Fraction(2) == 2`` with equal hashes.

Two engines: an incremental span reducer over a totally ordered column set,
and a fraction-free integer rank for the large graded elimination.  The
reducer has three uses.  It echelonizes relation spaces and orbit spans,
where pivots must sit at the minimal column under a key built from
``partitions.order_key``.  It does the small exact solves (the transport map
and the q27 nullspace): each column carries a tag, and the tags sort the
columns to be eliminated before the columns that hold the answer.  And its
``close`` is the one closure loop: the span of a seed under a few zero-mode
operators, which gives the relation spaces, the transport identification
and the syzygy orbits.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd

Scalar = int | Fraction  # an exact coefficient


def exact_quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an int when b divides a, else a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def add_scaled(acc: dict, pairs, scale=1) -> dict:
    """acc += scale * pairs, in place, over (key, value) pairs.  A key whose
    sum is zero is removed, so acc never holds a zero.  Returns acc."""
    for k, v in pairs:
        s = acc.get(k, 0) + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


class SpanReducer:
    """Maintains a reduced basis of sparse exact vectors.  `column_key`
    maps a column identifier to a sortable key, computed once per column
    and reducer; pivots sit at the minimal column of each vector."""

    def __init__(self, column_key):
        self.column_key = column_key
        self.keys: dict = {}  # column -> column_key(column)
        self.rows: dict = {}  # pivot column -> {column: int or Fraction}, pivot coeff 1

    def _pivot(self, vec: dict):
        return min(vec, key=self.keys.__getitem__)

    def reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if v}
        # rows only hold columns of reduced vectors, so these are all it meets
        for col in vec.keys() - self.keys.keys():
            self.keys[col] = self.column_key(col)
        while vec:
            p = self._pivot(vec)
            row = self.rows.get(p)
            if row is None:
                return vec
            add_scaled(vec, row.items(), -vec[p])
        return vec

    def insert(self, vec: dict) -> dict:
        """Add vec to the span.  Returns its reduction, which is empty when
        vec already lies in the span."""
        red = self.reduce(vec)
        if red:
            p = self._pivot(red)
            c = red[p]
            self.rows[p] = {k: exact_quotient(v, c) for k, v in red.items()}
        return red

    def close(self, seed: dict, images) -> None:
        """Span seed and everything `images` reaches from it.  `images(vec)`
        yields the images of vec under the operators; breadth first, every
        vector that enlarges the span is inserted in its reduced form and
        its images are inserted in turn, until the span stops growing."""
        queue = deque([self.insert(seed)])
        while queue:
            vec = queue.popleft()
            if vec:
                queue.extend(self.insert(image) for image in images(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list:
        return list(self.rows.keys())

    def back_eliminate(self) -> None:
        """Fully reduce: clear every pivot column from the other rows."""
        for p in list(self.rows):
            row = self.rows[p]
            for q, other in self.rows.items():
                if q == p or p not in other:
                    continue
                add_scaled(other, row.items(), -other[p])

    def row_for(self, pivot) -> dict:
        return self.rows[pivot]


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


def sparse_triplets(rows, column_order=None) -> str:
    """Serialize sparse rows as audit-friendly triplet text: a header line
    `rows cols entries`, then one `row col value` line per entry (0-based,
    values exact decimal strings), ordered by row then column."""
    rows = [dict(r) for r in rows]
    if column_order is None:
        seen = set()
        for r in rows:
            seen.update(r)
        column_order = sorted(seen, key=str)
    index = {c: k for k, c in enumerate(column_order)}
    entries = []
    for i, r in enumerate(rows):
        for c, v in r.items():
            entries.append((i, index[c], v))
    entries.sort(key=lambda e: (e[0], e[1]))
    lines = [f"{len(rows)} {len(column_order)} {len(entries)}"]
    lines.extend(f"{i} {j} {v}" for i, j, v in entries)
    return "\n".join(lines)


def sparse_rank(rows) -> int:
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
