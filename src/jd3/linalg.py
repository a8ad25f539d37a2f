"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary-precision, always reduced,
positive denominator), so ranks, echelon forms and nullspaces are exact.
Matrices are dense; everything in this package is small enough that
sparse storage would only add complexity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _primitive_int_row(row: Sequence) -> list[int] | None:
    """Scale a rational row to coprime integers with positive leading entry.

    Returns None for the zero row.  Rows that are rational multiples of
    each other map to the same primitive row, so this doubles as a
    canonical form for duplicate detection.
    """
    nums = []
    dens = []
    for x in row:
        if isinstance(x, int):
            nums.append(x)
            dens.append(1)
        else:
            f = Fraction(x)
            nums.append(f.numerator)
            dens.append(f.denominator)
    common = 1
    for d in dens:
        common = lcm(common, d)
    ints = [n * (common // d) for n, d in zip(nums, dens)]
    g = 0
    for v in ints:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g == 0:
        return None
    lead_negative = next(v for v in ints if v) < 0
    if g > 1 or lead_negative:
        if lead_negative:
            g = -g
        ints = [v // g for v in ints]
    return ints


class QMatrix:
    """Dense rational matrix.  0 x n and n x 0 shapes are legal."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        entries = [Fraction(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "QMatrix":
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

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        flat = [self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)]
        return QMatrix(self.cols, self.rows, flat)

    def stack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise ValueError("cannot stack matrices with different column counts")
        return QMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


class RowSpan:
    """Incrementally maintained echelon basis of a row space.

    Rows are scaled to primitive integer form and reduced against the
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

    def reduce(self, vec: Sequence) -> list[int]:
        """Reduction of the row against the basis, up to a nonzero scalar."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        v = _primitive_int_row(vec)
        if v is None:
            return [0] * self.cols
        for pcol, prow in self.pivot_rows:
            c = v[pcol]
            if c:
                p = prow[pcol]
                v = [p * a - c * b for a, b in zip(v, prow)]
        return v

    def add(self, vec: Sequence) -> bool:
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
    """Exact rank over the rationals.

    Rows are brought to primitive integer form first; duplicate rows (up
    to scaling) are skipped before elimination, since they cannot change
    the rank and the spanning-set matrices built elsewhere in this
    package repeat rows heavily.
    """
    span = RowSpan(m.cols)
    seen: set[tuple[int, ...]] = set()
    for i in range(m.rows):
        prim = _primitive_int_row(m.row(i))
        if prim is None:
            continue
        key = tuple(prim)
        if key in seen:
            continue
        seen.add(key)
        span.add(prim)
    return span.rank


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    rows = m.row_lists()
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    flat = [e for row in rows for e in row]
    return QMatrix(m.rows, m.cols, flat), pivots


def row_space_equal(a: QMatrix, b: QMatrix) -> bool:
    """True iff a and b span the same row space (requires equal cols)."""
    if a.cols != b.cols:
        raise ValueError("row_space_equal requires matrices with equal column counts")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    return rank(a.stack(b)) == ra


def nullspace_basis(m: QMatrix) -> list[list[Fraction]]:
    """Basis of the right nullspace, itself in reduced echelon form.

    Basis vectors are ordered by pivot column and have leading entry 1,
    so the output is deterministic.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    vectors: list[list[Fraction]] = []
    for f in free_cols:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced.entries[i * m.cols + f]
        vectors.append(v)
    if not vectors:
        return []
    normalized, _ = rref(QMatrix.from_rows(vectors, cols=m.cols))
    return [normalized.row(i) for i in range(len(vectors))]
