"""Graded slices, changes of variables, spanning families, closed forms."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jd3.diagram_spaces import (
    CATALOG,
    DegreeInfo,
    _FAMILIES,
    _GENERATOR_SHUFFLE_SEED,
    _neg_sum_power,
    _skew_context,
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
from jd3.linalg import QMatrix, RowSpan, row_space_equal
from jd3.multipoly import (
    Poly,
    XVARS,
    YVARS,
    Y3VARS,
    degree_slice_monomials,
    elementary_symmetric,
    signed_s4,
    symmetrize,
)

X = {n: Poly.variable(XVARS, n) for n in XVARS.names}
Y = {n: Poly.variable(YVARS, n) for n in YVARS.names}
E1 = elementary_symmetric(1, YVARS)


def orbit_reps_oracle(degree, strict):
    """Brute force: sorted exponent 4-tuples of a degree, lexicographically descending."""
    reps = {
        tuple(sorted(e, reverse=True))
        for e in itertools.product(range(degree + 1), repeat=4)
        if sum(e) == degree and (not strict or len(set(e)) == 4)
    }
    return sorted(reps, reverse=True)


def group_for(degree):
    return signed_s4(YVARS, "sign" if degree % 2 else "trivial")


def oracle_image(p, degree):
    """The Fraction route: (signed) symmetrizer, then y4-elimination."""
    return eliminate_y4(symmetrize(p, group_for(degree)))


def expand_row(row, basis, degree):
    """A row of orbit-basis coordinates, expanded through the Fraction route."""
    total = Poly.zero(Y3VARS)
    for c, rep in zip(row, basis):
        if c:
            total = total + oracle_image(Poly.monomial(YVARS, rep), degree).scale(c)
    return total


def oracle_rank(polys, basis_index, stop_at=None):
    """Rank of the y4-eliminated images in y1..y3 monomial coordinates."""
    span = RowSpan(len(basis_index))
    for image in polys:
        if stop_at is not None and span.rank == stop_at:
            break
        row = [0] * len(basis_index)
        for exps, c in image.terms.items():
            row[basis_index[exps]] = c
        span.add(row)
    return span.rank


def oracle_tet_dim(legs):
    basis = degree_slice_monomials(Y3VARS, legs)
    index = {m: i for i, m in enumerate(basis)}
    return oracle_rank(
        (oracle_image(Poly.monomial(YVARS, m + (0,)), legs) for m in basis), index
    )


def oracle_family_dim(family, legs, ambient):
    """A spanning family built from the 1/4-scaled x-images, through the Fraction route.

    Generators stop once their rank reaches the oracle's ambient dimension.
    """
    generators, build = _FAMILIES[family]
    x = x_from_y_map()
    bases = {
        **x,
        "x1*x2": x["x1"] * x["x2"],
        "x1+x5": x["x1"] + x["x5"],
        "x1*x5": x["x1"] * x["x5"],
    }
    order = list(generators(legs))
    random.Random(_GENERATOR_SHUFFLE_SEED).shuffle(order)
    basis = degree_slice_monomials(Y3VARS, legs)
    index = {m: i for i, m in enumerate(basis)}
    images = (oracle_image(build(lambda b, e: bases[b] ** e, gen), legs) for gen in order)
    return oracle_rank(images, index, stop_at=ambient)


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
    # strict tuples of 9; e1 times the alternants of (5,2,1,0) and (4,3,1,0)
    # stacked above one row per basis alternant
    assert space.basis == [(6, 2, 1, 0), (5, 3, 1, 0), (4, 3, 2, 0)]
    assert space.span_matrix.rows == 2 + len(space.basis) == 5
    assert space.span_matrix.row_lists() == [
        [1, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


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
    # each row, expanded through the symmetrized basis monomials, is the
    # symmetrizer image of its source: e1 * y^mu for the e1-rows (mu one
    # degree lower), then y^lam for each basis tuple lam
    for legs in (10, 11, 13):
        space = tet_slice(legs, "odd" if legs % 2 else "even")
        strict = legs % 2 == 1
        assert space.basis == orbit_reps_oracle(legs, strict)
        e1_sources = [E1 * Poly.monomial(YVARS, mu) for mu in orbit_reps_oracle(legs - 1, strict)]
        sources = e1_sources + [Poly.monomial(YVARS, lam) for lam in space.basis]
        assert space.span_matrix.rows == len(sources)
        group = group_for(legs)
        basis_images = [symmetrize(Poly.monomial(YVARS, lam), group) for lam in space.basis]
        for i, source in enumerate(sources):
            expanded = Poly.zero(YVARS)
            for c, image in zip(space.span_matrix.row(i), basis_images):
                if c:
                    expanded = expanded + image.scale(c)
            assert expanded == symmetrize(source, group)
            if i < len(e1_sources):
                assert eliminate_y4(expanded).is_zero()


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
    # modulo e1, the subring-family rows at degree 9 span the same line as
    # delta*sigma3.  sympy expands delta*sigma3 and e1 times each alternant
    # a_mu = det(y_i^mu_j) of degree 8; a skew polynomial's coordinate on
    # a_lam is its coefficient of y^lam for strict lam.
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
    target = subring_family_slice(9)
    assert target.basis == orbit_reps_oracle(9, strict=True)

    def strict_coefficients(expr):
        poly = sympy.Poly(sympy.expand(expr), *ys)
        coeffs = dict(zip(poly.monoms(), poly.coeffs()))
        return [
            Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
            for c in (coeffs.get(lam, 0) for lam in target.basis)
        ]

    e1 = sum(ys)
    e1_rows = [
        strict_coefficients(e1 * sympy.Matrix(4, 4, lambda i, j: ys[i] ** mu[j]).det())
        for mu in orbit_reps_oracle(8, strict=True)
    ]
    oracle_matrix = QMatrix.from_rows(e1_rows + [strict_coefficients(delta * sigma3)])
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


# --- the integer orbit-basis route against the Fraction route -----------------


@st.composite
def homogeneous_integer_polys(draw, max_degree):
    degree = draw(st.integers(0, max_degree))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.integers(0, degree)) for _ in range(3))
        exps = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
        terms[exps] = terms.get(exps, 0) + draw(st.integers(-9, 9))
    return degree, Poly(YVARS, terms)


@settings(max_examples=60, deadline=None)
@given(homogeneous_integer_polys(max_degree=11))
def test_skew_row_expands_to_symmetrizer_image(drawn):
    degree, p = drawn
    ctx = _skew_context(degree)
    row = ctx.skew_row(p)
    assert all(type(c) is int for c in row)
    assert expand_row(row, ctx.basis, degree) == oracle_image(p, degree)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 15))
def test_slice_dims_match_fraction_oracle(legs):
    parity = "odd" if legs % 2 else "even"
    ambient = oracle_tet_dim(legs)
    assert tet_slice(legs, parity).dim == ambient
    if legs % 2:
        for family, slice_of in (
            ("ihx_image", ihx_image_slice),
            ("subring_family", subring_family_slice),
        ):
            assert slice_of(legs).dim == oracle_family_dim(family, legs, ambient)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_neg_sum_power_needs_no_recursion():
    # a cold cache must not recurse once per degree
    _neg_sum_power.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        power = _neg_sum_power(60)
    finally:
        sys.setrecursionlimit(limit)
    assert power.degree() == 60 and len(power.terms) == 61 * 62 // 2
    assert power.coefficient((60, 0, 0)) == 1
    assert power.coefficient((20, 20, 20)) == sympy.factorial(60) / sympy.factorial(20) ** 3
