"""Graded slices, changes of variables, spanning families, closed forms."""

from fractions import Fraction

import pytest
import sympy

from jd3.diagram_spaces import (
    CATALOG,
    DegreeInfo,
    eliminate_y4,
    subring_family_slice,
    even_closed_form,
    hilbert_coefficients,
    middle_family_slice,
    odd_target_dim,
    ihx_image_slice,
    tet_slice,
    tsq_odd_dim,
    x_from_y,
    x_from_y_map,
    y_from_x,
)
from jd3.linalg import QMatrix, row_space_equal
from jd3.multipoly import (
    Poly,
    XVARS,
    YVARS,
    Y3VARS,
    signed_s4,
    symmetrize,
)

X = {n: Poly.variable(XVARS, n) for n in XVARS.names}
Y = {n: Poly.variable(YVARS, n) for n in YVARS.names}


def count_even_partitions(n):
    """Brute-force count of 2a + 4b + 6c = n; the independent oracle."""
    return sum(
        1
        for c in range(n // 6 + 1)
        for b in range((n - 6 * c) // 4 + 1)
        if (n - 6 * c - 4 * b) % 2 == 0
    )


def count_odd_targets(legs):
    """Brute-force count of 2n + 6m + 4k = legs - 9."""
    rest = legs - 9
    if rest < 0:
        return 0
    return sum(
        1
        for m in range(rest // 6 + 1)
        for k in range((rest - 6 * m) // 4 + 1)
        if (rest - 6 * m - 4 * k) % 2 == 0
    )


# --- catalog -----------------------------------------------------------------


def test_catalog_shape():
    assert len(CATALOG) == 5
    assert [g.id for g in CATALOG] == ["wtr", "bbl", "mdl", "tsq", "tet"]
    assert sum(g.computable for g in CATALOG) == 2
    for g in CATALOG:
        assert g.vertex_count - g.edge_count == -2
        assert g.betti == 3


def test_degree_info():
    info = DegreeInfo.from_legs(9)
    assert info.jacobi_degree == 11 and info.parity == "odd"
    info = DegreeInfo.from_legs(12)
    assert info.jacobi_degree == 14 and info.parity == "even"
    for legs in range(20):
        info = DegreeInfo.from_legs(legs)
        assert info.jacobi_degree - info.legs == 2
        assert (info.parity == "odd") == (legs % 2 == 1)


# --- changes of variables ----------------------------------------------------


def test_edge_relations_map_to_zero():
    for relation in (
        X["x1"] - X["x2"] - X["x6"],
        X["x1"] - X["x3"] + X["x5"],
        X["x4"] + X["x5"] + X["x6"],
    ):
        assert y_from_x(relation).is_zero()


def test_y_from_x_constant():
    assert y_from_x(Poly.constant(XVARS, 1)) == Poly.constant(YVARS, 1)


def test_y_from_x_face_variable():
    image = y_from_x(-X["x1"] - X["x2"] - X["x3"])
    assert eliminate_y4(image) == eliminate_y4(Y["y4"])


def test_x_from_y_images():
    quarter = Fraction(1, 4)
    assert x_from_y("x1") == (Y["y1"] - Y["y4"]).scale(quarter)
    assert x_from_y("x3") == (Y["y3"] - Y["y4"]).scale(quarter)
    assert x_from_y("x6") == (Y["y1"] - Y["y2"]).scale(quarter)
    with pytest.raises(ValueError):
        x_from_y("x7")


def test_x1_plus_x5_equals_x3_equals_x2_minus_x4():
    a = x_from_y("x1") + x_from_y("x5")
    b = x_from_y("x3")
    c = x_from_y("x2") - x_from_y("x4")
    assert a == b == c == (Y["y3"] - Y["y4"]).scale(Fraction(1, 4))


def test_x4_x5_x6_sum_identically_zero():
    total = x_from_y("x4") + x_from_y("x5") + x_from_y("x6")
    assert total.is_zero()


def test_round_trip_y_x_y():
    y_in_x = {
        "y1": X["x1"] - X["x5"] + X["x6"],
        "y2": X["x2"] + X["x4"] - X["x6"],
        "y3": X["x3"] - X["x4"] + X["x5"],
        "y4": -X["x1"] - X["x2"] - X["x3"],
    }
    for name, expr in y_in_x.items():
        assert eliminate_y4(y_from_x(expr)) == eliminate_y4(Y[name])


# --- tetrahedron slices ------------------------------------------------------


def test_tet_slice_trivial_degrees():
    assert tet_slice(0, "even").dim == 1
    assert tet_slice(1, "odd").dim == 0
    assert tet_slice(2, "even").dim == 1


def test_tet_slice_degree_nine():
    space = tet_slice(9, "odd")
    assert space.dim == 1
    assert space.span_matrix.rows == len(space.basis) == 55


def test_tet_slice_parity_enforced():
    with pytest.raises(ValueError):
        tet_slice(4, "odd")
    with pytest.raises(ValueError):
        tet_slice(9, "even")
    with pytest.raises(ValueError):
        tet_slice(3, "other")


def test_tet_slice_even_dims_match_partition_oracle():
    for n in range(0, 17, 2):
        assert tet_slice(n, "even").dim == count_even_partitions(n)


def test_tet_slice_odd_dims_match_target_oracle():
    for legs in range(1, 18, 2):
        assert tet_slice(legs, "odd").dim == count_odd_targets(legs) == odd_target_dim(legs)


def test_tet_slice_rows_are_symmetrizer_images():
    # spot check: each row equals the reduced signed average of its monomial
    space = tet_slice(5, "odd")
    group = signed_s4(YVARS, "sign")
    for row_index in (0, 7, 20):
        mono = space.basis[row_index]
        image = eliminate_y4(symmetrize(Poly.monomial(YVARS, mono + (0,)), group))
        row = space.span_matrix.row(row_index)
        expected = {space.basis[j]: c for j, c in enumerate(row) if c}
        assert Poly(Y3VARS, expected) == image


def test_odd_target_dim_values():
    assert odd_target_dim(9) == 1
    assert odd_target_dim(15) == 3
    assert odd_target_dim(21) == 7
    assert odd_target_dim(7) == 0
    with pytest.raises(ValueError):
        odd_target_dim(8)


# --- spanning families -------------------------------------------------------


def test_ihx_image_small_degrees():
    assert ihx_image_slice(7).dim == 0
    assert ihx_image_slice(9).dim == 1
    assert ihx_image_slice(11).dim == 1


def test_ihx_image_requires_odd():
    with pytest.raises(ValueError):
        ihx_image_slice(8)


def test_subring_family_small_degrees():
    assert subring_family_slice(9).dim == 1
    assert subring_family_slice(11).dim == 1 == odd_target_dim(11)


def test_degree9_span_equals_target_basis_sympy_oracle():
    # the subring-family rows at degree 9 span the same line as delta*sigma3,
    # expanded independently with sympy and reduced mod y4
    ys = sympy.symbols("y1 y2 y3 y4")
    delta = sympy.prod(
        [ys[i] - ys[j] for i in range(4) for j in range(i + 1, 4)]
    )
    sigma3 = sum(
        ys[i] * ys[j] * ys[k]
        for i in range(4)
        for j in range(i + 1, 4)
        for k in range(j + 1, 4)
    )
    reduced = sympy.expand(
        (delta * sigma3).subs(ys[3], -(ys[0] + ys[1] + ys[2]))
    )
    target = subring_family_slice(9)
    row = []
    poly = sympy.Poly(reduced, ys[0], ys[1], ys[2])
    coeffs = {m: c for m, c in zip(poly.monoms(), poly.coeffs())}
    for mono in target.basis:
        c = coeffs.get(mono, 0)
        row.append(Fraction(int(sympy.numer(c)), int(sympy.denom(c))))
    oracle_matrix = QMatrix.from_rows([row])
    assert row_space_equal(target.span_matrix, oracle_matrix)


@pytest.mark.parametrize("legs", [9, 11, 13, 15])
def test_span_family_chain_equalities(legs):
    image = ihx_image_slice(legs).span_matrix
    middle = middle_family_slice(legs).span_matrix
    subring = subring_family_slice(legs).span_matrix
    assert row_space_equal(image, middle)
    assert row_space_equal(middle, subring)


def test_early_stop_spans_match_full_construction():
    for family in (ihx_image_slice, subring_family_slice, middle_family_slice):
        for legs in (9, 11):
            stopped = family(legs)
            full = family(legs, stop_at_ambient=False)
            assert stopped.dim == full.dim
            assert row_space_equal(stopped.span_matrix, full.span_matrix)


def test_image_dim_equals_ambient_through_15():
    for legs in range(1, 16, 2):
        assert ihx_image_slice(legs).dim == tet_slice(legs, "odd").dim


# --- the four-arc graph ------------------------------------------------------


def test_tsq_odd_dims_vanish():
    for legs in (1, 3, 9, 15):
        assert tsq_odd_dim(legs) == 0
    with pytest.raises(ValueError):
        tsq_odd_dim(4)


# --- closed forms ------------------------------------------------------------


def test_even_closed_form_values():
    assert even_closed_form(0) == 1
    assert even_closed_form(6) == 3
    assert even_closed_form(12) == 7
    with pytest.raises(ValueError):
        even_closed_form(7)
    with pytest.raises(ValueError):
        even_closed_form(-2)


def test_even_closed_form_matches_partition_count():
    for n in range(0, 31, 2):
        assert even_closed_form(n) == count_even_partitions(n)


def test_hilbert_coefficients_even_series():
    coeffs = hilbert_coefficients(12)
    assert [coeffs[n] for n in range(0, 13, 2)] == [1, 1, 2, 3, 4, 5, 7]
    assert all(coeffs[n] == 0 for n in range(1, 13, 2))


def test_hilbert_coefficients_match_partition_oracle():
    coeffs = hilbert_coefficients(30)
    for n in range(0, 31, 2):
        assert coeffs[n] == count_even_partitions(n)


def test_hilbert_shifted_series():
    shifted = hilbert_coefficients(21, shift=9)
    assert shifted[9] == 1
    assert shifted[21] == 7 == odd_target_dim(21)
    assert all(shifted[n] == 0 for n in range(0, 9))


def test_hilbert_rejects_negative():
    with pytest.raises(ValueError):
        hilbert_coefficients(-1)


def test_three_way_dimension_agreement_small():
    series = hilbert_coefficients(12)
    for n in range(0, 13, 2):
        assert tet_slice(n, "even").dim == even_closed_form(n) == series[n]
