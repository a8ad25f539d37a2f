"""Exact linear algebra: rank, row spaces, nullspaces."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jd3.linalg import QMatrix, nullspace_basis, rank, row_space_equal, rref


def brute_force_det(rows):
    """Permutation-expansion determinant; the independent oracle."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        prod = Fraction(sign)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def test_rank_identity():
    assert rank(QMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_proportional_rows():
    assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_vandermonde_nodes_1234():
    rows = [[Fraction(n) ** k for k in range(4)] for n in (1, 2, 3, 4)]
    # oracle: nonzero determinant forces full rank; frozen value 12
    det = brute_force_det(rows)
    assert det == 12
    assert rank(QMatrix.from_rows(rows)) == 4


def test_rank_degenerate_shapes():
    assert rank(QMatrix(0, 5, [])) == 0
    assert rank(QMatrix(5, 0, [])) == 0
    assert rank(QMatrix(2, 2, [0, 0, 0, 0])) == 0


def test_qmatrix_validation():
    with pytest.raises(ValueError):
        QMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        QMatrix.from_rows([])  # needs explicit cols


def test_row_space_equal_scalar_multiple():
    a = QMatrix.from_rows([[1, 0]])
    b = QMatrix.from_rows([[2, 0]])
    assert row_space_equal(a, b)


def test_row_space_equal_different_lines():
    a = QMatrix.from_rows([[1, 0]])
    b = QMatrix.from_rows([[0, 1]])
    assert not row_space_equal(a, b)


def test_row_space_equal_requires_matching_cols():
    with pytest.raises(ValueError):
        row_space_equal(QMatrix.from_rows([[1, 0]]), QMatrix.from_rows([[1, 0, 0]]))


def test_row_space_equal_subspace_not_equal():
    a = QMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    b = QMatrix.from_rows([[1, 1, 0]])
    assert not row_space_equal(a, b)
    assert row_space_equal(a, QMatrix.from_rows([[1, 1, 0], [1, -1, 0]]))


def test_nullspace_zero_matrix():
    basis = nullspace_basis(QMatrix(2, 2, [0, 0, 0, 0]))
    assert basis == [[1, 0], [0, 1]]


def test_nullspace_single_relation():
    assert nullspace_basis(QMatrix.from_rows([[1, 1]])) == [[1, -1]]


def test_nullspace_edge_relations():
    # x1-x2-x6, x1-x3+x5, x4+x5+x6 in the six edge variables
    relations = QMatrix.from_rows(
        [
            [1, -1, 0, 0, 0, -1],
            [1, 0, -1, 0, 1, 0],
            [0, 0, 0, 1, 1, 1],
        ]
    )
    basis = nullspace_basis(relations)
    assert len(basis) == 3
    for vec in basis:
        for i in range(relations.rows):
            assert sum(a * b for a, b in zip(relations.row(i), vec)) == 0


def test_rref_pivots():
    reduced, pivots = rref(QMatrix.from_rows([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced.row(0)[0] == 1 and reduced.row(1)[1] == 1

    # integral entries are kept as int, whatever type they arrive in; a
    # mixed int/Fraction matrix reduces exactly like its all-Fraction twin
    mixed = QMatrix.from_rows([[1, Fraction(1, 2), Fraction(6, 3)], [Fraction(4, 2), 3, 1]])
    assert [type(e) for e in mixed.entries] == [int, Fraction, int, int, int, int]
    twin = QMatrix(2, 3, [Fraction(e) for e in mixed.entries])
    assert twin == mixed and all(type(e) is not Fraction or e.denominator > 1 for e in twin.entries)
    assert rref(mixed) == rref(twin)
    assert rref(mixed)[0].entries == [1, 0, Fraction(11, 4), 0, 1, Fraction(-3, 2)]
    expected_null = [[1, Fraction(-6, 11), Fraction(-4, 11)]]
    assert nullspace_basis(mixed) == nullspace_basis(twin) == expected_null
    assert rank(mixed) == rank(twin) == 2


small_matrix = st.integers(1, 4).flatmap(
    lambda c: st.lists(
        st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=4
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_transpose_invariant(rows):
    m = QMatrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_nullity(rows):
    m = QMatrix.from_rows(rows)
    assert rank(m) + len(nullspace_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(rows, rng):
    m = QMatrix.from_rows(rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    scaled = []
    for row in shuffled:
        factor = Fraction(rng.choice([1, 2, 3, -1, -5]))
        scaled.append([factor * x for x in row])
    assert rank(QMatrix.from_rows(scaled)) == rank(m)


@settings(max_examples=100, deadline=None)
@given(st.fractions(), st.fractions())
def test_fraction_arithmetic_exact(a, b):
    assert (a + b) - b == a


def test_fraction_invariants():
    f = Fraction(-6, -4)
    assert f.denominator > 0
    assert f == Fraction(3, 2)
    assert Fraction(0, 7) == Fraction(0, 1)
