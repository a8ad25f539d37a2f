"""Exact linear algebra over the integers: rank and row-space equality."""

from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jd3.linalg import QMatrix, RowSpan, rank, row_space_equal


def brute_force_det(rows):
    """Permutation-expansion determinant; the independent oracle."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        prod = -1 if inversions % 2 else 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def test_rank_identity():
    assert rank(QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)) == 3


def test_rank_proportional_rows():
    assert rank(QMatrix([[1, 2], [2, 4]], 2)) == 1


def test_rank_vandermonde_nodes_1234():
    rows = [[n**k for k in range(4)] for n in (1, 2, 3, 4)]
    # oracle: nonzero determinant forces full rank; frozen value 12
    det = brute_force_det(rows)
    assert det == 12
    assert rank(QMatrix(rows, 4)) == 4


def test_rank_degenerate_shapes():
    assert rank(QMatrix([], 5)) == 0
    assert rank(QMatrix([[]] * 5, 0)) == 0
    assert rank(QMatrix([[0, 0], [0, 0]], 2)) == 0


def test_qmatrix_validation():
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3]], 2)  # ragged
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [3, 4]], 3)  # every row is shorter than cols
    with pytest.raises(ValueError):
        QMatrix([], -1)
    m = QMatrix([[1, 2], [3, 4], [5, 6]], 2)
    assert (m.rows, m.cols, m.row(1)) == (3, 2, [3, 4])


def test_row_space_equal_scalar_multiple():
    a = QMatrix([[1, 0]], 2)
    b = QMatrix([[2, 0]], 2)
    assert row_space_equal(a, b)


def test_row_space_equal_different_lines():
    a = QMatrix([[1, 0]], 2)
    b = QMatrix([[0, 1]], 2)
    assert not row_space_equal(a, b)


def test_row_space_equal_requires_matching_cols():
    with pytest.raises(ValueError):
        row_space_equal(QMatrix([[1, 0]], 2), QMatrix([[1, 0, 0]], 3))


def test_row_space_equal_subspace_not_equal():
    a = QMatrix([[1, 0, 0], [0, 1, 0]], 3)
    b = QMatrix([[1, 1, 0]], 3)
    assert not row_space_equal(a, b)
    assert row_space_equal(a, QMatrix([[1, 1, 0], [1, -1, 0]], 3))


def test_nullspace_zero_matrix():
    # every vector is a relation: rank 0, and sympy's nullspace is the standard basis
    zero = QMatrix([[0, 0], [0, 0]], 2)
    null = sympy.Matrix(2, 2, [0, 0, 0, 0]).nullspace()
    assert rank(zero) == 0 == zero.cols - len(null)
    assert [list(v) for v in null] == [[1, 0], [0, 1]]


def test_nullspace_single_relation():
    # [1, -1] spans the kernel of [1, 1]: rank 1, and adding it to the row raises the rank
    row = QMatrix([[1, 1]], 2)
    null = sympy.Matrix([[1, 1]]).nullspace()
    assert [list(v) for v in null] == [[-1, 1]]
    assert rank(row) == 1 == row.cols - len(null)
    assert rank(QMatrix([[1, 1], [1, -1]], 2)) == 2


def test_edge_relations_rank_matches_sympy():
    # x1-x2-x6, x1-x3+x5, x4+x5+x6 in the six edge variables
    rows = [
        [1, -1, 0, 0, 0, -1],
        [1, 0, -1, 0, 1, 0],
        [0, 0, 0, 1, 1, 1],
    ]
    relations = QMatrix(rows, 6)
    null = sympy.Matrix(rows).nullspace()
    assert rank(relations) == 3 == relations.cols - len(null)
    # each relation is independent of the others: dropping one lowers the rank
    for i in range(3):
        assert rank(QMatrix(rows[:i] + rows[i + 1 :], 6)) == 2


def test_non_int_entries_raise_type_error():
    # the rational route is gone: a Fraction, even an integral one, a float
    # or a bool is refused rather than converted, where its row is ranked
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.5, True):
        with pytest.raises(TypeError):
            rank(QMatrix([[1, bad], [2, 3]], 2))
        with pytest.raises(TypeError):
            row_space_equal(QMatrix([[1, 0]], 2), QMatrix([[1, bad]], 2))
        with pytest.raises(TypeError):
            RowSpan(2).add([1, bad])
    span = RowSpan(2)
    assert span.add([2, 4]) and span.pivot_rows == [(0, [1, 2])]


def test_rowspan_reduce_checks_its_input_once_and_its_own_rows_never(monkeypatch):
    from jd3 import linalg

    with pytest.raises(TypeError):
        RowSpan(2).reduce([0, 0.0])  # a zero row is checked too
    checked = []
    check_ints = linalg._check_ints

    def recording(row):
        checked.append(list(row))
        check_ints(row)

    monkeypatch.setattr(linalg, "_check_ints", recording)
    span = RowSpan(3)
    span.add([2, 4, 0])
    span.add([1, 1, 1])
    assert span.reduce([3, 3, 3]) == [0, 0, 0]
    assert checked == [[2, 4, 0], [1, 1, 1], [3, 3, 3]]
    checked.clear()
    m = QMatrix([[0, 0], [1, 2], [2, 4], [0, 1], [1, 2]], 2)
    assert checked == []  # QMatrix checks only its shape
    assert rank(m) == 2
    # rank hands RowSpan every row once, zero and repeated ones included
    assert checked == [[0, 0], [1, 2], [2, 4], [0, 1], [1, 2]]


def cross_multiplied_pivot_rows(rows, cols):
    """RowSpan's pivot rows with no content taken out between steps: the reference."""
    pivots = []
    for row in rows:
        v = list(row)
        for pcol, prow in pivots:
            if v[pcol]:
                v = [prow[pcol] * a - v[pcol] * b for a, b in zip(v, prow)]
        if any(v):
            g = gcd(*v) * (1 if next(a for a in v if a) > 0 else -1)
            pivots.append((next(j for j, a in enumerate(v) if a), [a // g for a in v]))
            pivots.sort(key=lambda t: t[0])
    return pivots


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-40, 40), min_size=c, max_size=c), min_size=1, max_size=7
        )
    )
)
def test_rowspan_reduction_stays_primitive_with_the_same_pivot_rows(rows):
    # the content gcd between steps rescales each reduction, never its span
    cols = len(rows[0])
    span = RowSpan(cols)
    for i, row in enumerate(rows):
        reduced = span.reduce(row)
        assert gcd(*reduced) in (0, 1)
        span.add(row)
        assert span.pivot_rows == cross_multiplied_pivot_rows(rows[: i + 1], cols)


small_matrix = st.integers(1, 4).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=4
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_transpose_invariant(rows):
    transposed = [list(column) for column in zip(*rows)]
    assert rank(QMatrix(rows, len(rows[0]))) == rank(QMatrix(transposed, len(rows)))


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_matches_sympy(rows):
    assert rank(QMatrix(rows, len(rows[0]))) == sympy.Matrix(rows).rank()


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_nullity(rows):
    m = QMatrix(rows, len(rows[0]))
    assert rank(m) + len(sympy.Matrix(rows).nullspace()) == m.cols


@st.composite
def matrix_pairs(draw):
    """Two matrices of one width; the second is often integer combinations of the first's rows."""
    a = draw(small_matrix)

    def rows_of(width):
        row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
        return draw(st.lists(row, min_size=1, max_size=4))

    if draw(st.booleans()):
        columns = list(zip(*a))
        b = [[sum(map(mul, weights, col)) for col in columns] for weights in rows_of(len(a))]
    else:
        b = rows_of(len(a[0]))
    return a, b


@settings(max_examples=60, deadline=None)
@given(matrix_pairs())
def test_row_space_equal_matches_sympy(pair):
    a, b = pair
    ra, rb, stacked = (sympy.Matrix(m).rank() for m in (a, b, a + b))
    expected = ra == rb == stacked
    assert row_space_equal(QMatrix(a, len(a[0])), QMatrix(b, len(b[0]))) == expected


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(rows, rng):
    m = QMatrix(rows, len(rows[0]))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scaled = []
    for row in shuffled:
        factor = rng.choice([1, 2, 3, -1, -5])
        scaled.append([factor * x for x in row])
    assert rank(QMatrix(scaled, m.cols)) == rank(m)


@settings(max_examples=100, deadline=None)
@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_fraction_invariants():
    f = Fraction(-6, -4)
    assert f.denominator > 0
    assert f == Fraction(3, 2)
    assert Fraction(0, 7) == Fraction(0, 1)
