"""Exact linear algebra over the integers: rank and row-space equality.

Entries are `int`s.  Scaling a row by a nonzero rational changes neither
the rank nor the row space over Q, so both are computed exactly by
fraction-free elimination (integer-preserving, as in Bareiss, Math.
Comp. 22, 1968), with each row divided by its content rather than by
Bareiss's previous pivot.  Every rank feeds the matrix's rows, in
order, to one `RowSpan`.
Matrices are dense; everything in this package is small enough that
sparse storage would only add complexity.
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
    """Dense integer matrix, ranked over Q.  0 x n and n x 0 shapes are legal."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = list(entries)
        _check_ints(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "QMatrix":
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if cols is not None and cols != ncols:
                raise ValueError("cols argument disagrees with row length")
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("cols is required for a matrix with no rows")
            ncols = cols
        flat = [e for r in rows for e in r]
        return cls(len(rows), ncols, flat)

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def stack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise ValueError("cannot stack matrices with different column counts")
        return QMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


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
        """Reduction of the row against the basis, up to a nonzero scalar."""
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
                v = [p * a - c * b for a, b in zip(v, prow)]
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
    return rank(a.stack(b)) == ra
