"""Exact linear algebra over the integers: rank and row-space equality.

Entries are `int`s.  Scaling a row by a nonzero rational changes neither
the rank nor the row space over Q, so both are computed exactly by
fraction-free elimination (integer-preserving, as in Bareiss, Math.
Comp. 22, 1968), with each row divided by its content after every
step rather than by Bareiss's previous pivot.  Every rank feeds the
matrix's rows, in order, to one `RowSpan`.  `RowSpan.reduce` is where entries are
checked: every row that is ranked, spanned or reduced goes through it,
and an entry that is not an `int` raises `TypeError` there, before any of
its arithmetic.  A `QMatrix` checks only its shape.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence


def _check_ints(entries: Sequence) -> None:
    for x in entries:
        if type(x) is not int:
            raise TypeError(f"entries are int, not {type(x).__name__}")


def _primitive_int_row(row: Sequence[int]) -> list[int] | None:
    """Divide a row of ints (checked by the caller) by its content, with positive leading entry.

    Returns None for the zero row.
    """
    g = gcd(*row)
    if g == 0:
        return None
    ints = list(row)
    lead_negative = next(v for v in ints if v) < 0
    if g > 1 or lead_negative:
        if lead_negative:
            g = -g
        ints = [v // g for v in ints]
    return ints


class QMatrix:
    """Integer rows of one width, ranked over Q.  0 x n and n x 0 shapes are legal.

    Only the shape is checked here: `RowSpan.reduce` refuses an entry that
    is not an `int` when its row is ranked.
    """

    __slots__ = ("rows", "cols", "_row_lists")

    def __init__(self, rows: Iterable[Sequence[int]], cols: int) -> None:
        if cols < 0:
            raise ValueError("a column count must be non-negative")
        self._row_lists = [list(r) for r in rows]
        if any(len(r) != cols for r in self._row_lists):
            raise ValueError(f"every row of a matrix with {cols} columns needs {cols} entries")
        self.rows = len(self._row_lists)
        self.cols = cols

    def row(self, i: int) -> list[int]:
        return self._row_lists[i]


class RowSpan:
    """Incrementally maintained echelon basis of a row space over Q.

    Integer rows are scaled to primitive form and reduced against the
    current basis by exact cross-multiplication; pivots are the first
    nonzero column.  A row's scaling never matters to the span, so the
    rank and the spanned space are identical to plain rational
    elimination, only faster.  Feeding rows in a fixed order gives
    identical state on every run.
    """

    __slots__ = ("cols", "pivot_rows")

    def __init__(self, cols: int) -> None:
        self.cols = cols
        self.pivot_rows: list[tuple[int, list[int]]] = []  # sorted by pivot column

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Reduction of the row against the basis, up to a nonzero scalar.

        Each step v <- p*v - c*prow first divides p and c by their gcd and
        then v by its content, so a row's entries do not grow with the
        number of pivots it meets.
        """
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        _check_ints(vec)
        v = _primitive_int_row(vec)
        if v is None:
            return [0] * self.cols
        for pcol, prow in self.pivot_rows:
            c = v[pcol]
            if c:
                p = prow[pcol]
                g = gcd(p, c)
                p, c = p // g, c // g
                v = [p * a - c * b for a, b in zip(v, prow)]
                g = gcd(*v)
                if g > 1:
                    v = [a // g for a in v]
        return v

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a row; returns True when it enlarged the span."""
        v = self.reduce(vec)
        if any(v):
            v = _primitive_int_row(v)
            assert v is not None
            pivot = next(j for j, c in enumerate(v) if c)
            self.pivot_rows.append((pivot, v))
            self.pivot_rows.sort(key=lambda t: t[0])
            return True
        return False


def rank(m: QMatrix) -> int:
    """Exact rank over the rationals: each row goes to `RowSpan.add` in order.

    A zero row returns from the reduction at once, and a repeated row
    reduces to zero; neither is filtered out first.
    """
    span = RowSpan(m.cols)
    for i in range(m.rows):
        span.add(m.row(i))
    return span.rank


def row_space_equal(a: QMatrix, b: QMatrix) -> bool:
    """True iff a and b span the same row space (requires equal cols)."""
    if a.cols != b.cols:
        raise ValueError("row_space_equal requires matrices with equal column counts")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank(QMatrix(a._row_lists + b._row_lists, a.cols)) == ra
