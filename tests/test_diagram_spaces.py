"""Graded slices, changes of variables, spanning families, closed forms."""

import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jd3 import diagram_spaces, multipoly
from jd3.diagram_spaces import (
    _GENERATOR_SHUFFLE_SEED,
    _SkewSliceContext,
    _x_from_y_map,
    eliminate_y4,
    subring_family_slice,
    even_closed_form,
    hilbert_coefficients,
    odd_target_dim,
    ihx_image_slice,
    q_alternant_row,
    tet_slice,
    tsq_odd_dim,
    x_from_y,
    y_from_x,
)
from jd3.linalg import QMatrix, RowSpan, rank, row_space_equal
from jd3.multipoly import (
    Poly,
    QFactorPowers,
    XVARS,
    YVARS,
    Y3VARS,
    elementary_symmetric,
    signed_s4,
    symmetrize,
    _Q_QUADS,
    _Q_TRIPLES,
)
from jd3.verifier import _lemma_triples

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
    """The group-sum route: (signed) group sum, then y4-elimination.

    The group sum is 24 times the orbit average, and `expand_row` scales with it.
    """
    return eliminate_y4(symmetrize(p, group_for(degree)))


def expand_row(row, basis, degree):
    """A row of orbit-basis coordinates, expanded through the group-sum route."""
    total = Poly(Y3VARS)
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
    basis = [(a, b, legs - a - b) for a in range(legs, -1, -1) for b in range(legs - a, -1, -1)]
    index = {m: i for i, m in enumerate(basis)}
    return oracle_rank(
        (oracle_image(Poly.monomial(YVARS, m + (0,)), legs) for m in basis), index
    )


def ihx_image_expanded(gen):
    """(x1^a x5^b + x1^b x5^a) x4^c (-x2)^d in y1..y4, multiplied out as a Poly."""
    a, b, c, d = gen
    x = _x_from_y_map()
    pair = x["x1"] ** a * x["x5"] ** b + x["x1"] ** b * x["x5"] ** a
    return (pair * x["x4"] ** c * x["x2"] ** d).scale((-1) ** d)


def subring_family_expanded(gen):
    """(x1 x2)^n x4^a x5^b in y1..y4, multiplied out as a Poly."""
    n, a, b = gen
    x = _x_from_y_map()
    return (x["x1"] * x["x2"]) ** n * x["x4"] ** a * x["x5"] ** b


# family name -> (generator enumeration at a leg count, generator -> its two
# packed factors, generator -> its expanded Poly, the family's slice)
FAMILIES = {
    "ihx_image": (
        diagram_spaces._ihx_image_generators,
        diagram_spaces._ihx_image_build,
        ihx_image_expanded,
        ihx_image_slice,
    ),
    "subring_family": (
        diagram_spaces._subring_family_generators,
        diagram_spaces._subring_family_build,
        subring_family_expanded,
        subring_family_slice,
    ),
}


def suite_order(family, legs):
    """A family's generators in the order its slice consumes them."""
    order = list(FAMILIES[family][0](legs))
    random.Random(_GENERATOR_SHUFFLE_SEED).shuffle(order)
    return order


def family_images(family, legs):
    """A family's generators in the order its slice consumes them, expanded from the edge images."""
    expanded = FAMILIES[family][2]
    return (expanded(gen) for gen in suite_order(family, legs))


def oracle_family_dim(family, legs, ambient):
    """A spanning family built from the x-images, through the group-sum route.

    Generators stop once their rank reaches the oracle's ambient dimension.
    """
    basis = [(a, b, legs - a - b) for a in range(legs, -1, -1) for b in range(legs - a, -1, -1)]
    index = {m: i for i, m in enumerate(basis)}
    images = (oracle_image(p, legs) for p in family_images(family, legs))
    return oracle_rank(images, index, stop_at=ambient)


def row_lists(matrix):
    """The rows of a QMatrix as lists."""
    return [matrix.row(i) for i in range(matrix.rows)]


def dense(ctx, entries):
    """A sparse row of (index, coefficient) pairs as a row on the whole orbit basis."""
    row = [0] * len(ctx.basis)
    for i, c in entries:
        row[i] = c
    return row


def lift(ctx, quotient):
    """A row on the standard orbits as a row on the whole orbit basis, zero at the pivots."""
    return dense(ctx, zip(ctx.standard, quotient))


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


def test_change_of_variables_refuses_a_constant_in_the_wrong_variables():
    # `Poly.substitute` tables a polynomial's own variables, so without these
    # guards both calls would return the constant 3
    with pytest.raises(ValueError, match="^y_from_x expects"):
        y_from_x(Poly.constant(YVARS, 3))
    with pytest.raises(ValueError, match="^eliminate_y4 expects"):
        eliminate_y4(Poly.constant(XVARS, 3))


def test_y_from_x_face_variable():
    # the paper's map followed by y -> 4y
    image = y_from_x(-X["x1"] - X["x2"] - X["x3"])
    assert eliminate_y4(image) == eliminate_y4(Y["y4"]).scale(4)


def test_x_from_y_images():
    # four times the paper's quarter-differences
    assert x_from_y("x1") == Y["y1"] - Y["y4"]
    assert x_from_y("x3") == Y["y3"] - Y["y4"]
    assert x_from_y("x6") == Y["y1"] - Y["y2"]
    with pytest.raises(ValueError):
        x_from_y("x7")


def test_x1_plus_x5_equals_x3_equals_x2_minus_x4():
    a = x_from_y("x1") + x_from_y("x5")
    b = x_from_y("x3")
    c = x_from_y("x2") - x_from_y("x4")
    assert a == b == c == Y["y3"] - Y["y4"]


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
        assert eliminate_y4(y_from_x(expr)) == eliminate_y4(Y[name]).scale(4)


# --- tetrahedron slices ------------------------------------------------------


def test_tet_slice_trivial_degrees():
    assert tet_slice(0).dim == 1
    assert tet_slice(1).dim == 0
    assert tet_slice(2).dim == 1


def test_tet_slice_degree_nine():
    space = tet_slice(9)
    assert space.dim == 1
    # strict tuples of 9; e1 times the alternants of (5,2,1,0) and (4,3,1,0)
    # lead at (6,2,1,0) and (5,3,1,0), leaving one standard orbit
    assert space.basis == [(6, 2, 1, 0), (5, 3, 1, 0), (4, 3, 2, 0)]
    ctx = _SkewSliceContext(9)
    assert ctx.e1_rows == [[(0, 1), (1, 1)], [(1, 1), (2, 1)]]
    assert ctx.pivots == [(0, [(1, 1)]), (1, [(2, 1)])]
    assert [space.basis[i] for i in ctx.standard] == [(4, 3, 2, 0)]
    assert row_lists(space.span_matrix) == [[1]]
    # modulo e1, a_(6,2,1,0) = -a_(5,3,1,0) = a_(4,3,2,0)
    assert [ctx.quotient_row(r) for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1])] == [[1], [-1], [1]]


def test_tet_slice_parity_enforced():
    # the leg count alone fixes the parity: signed orbits (strict tuples) in
    # odd degree, plain orbits in even degree
    assert tet_slice(9).basis == orbit_reps_oracle(9, strict=True)
    assert tet_slice(8).basis == orbit_reps_oracle(8, strict=False)
    with pytest.raises(TypeError):
        tet_slice(9, "odd")
    with pytest.raises(ValueError):
        tet_slice(-1)


def test_tet_slice_even_dims_match_partition_oracle():
    for n in range(0, 17, 2):
        assert tet_slice(n).dim == count_even_partitions(n)


def test_tet_slice_odd_dims_match_target_oracle():
    for legs in range(1, 18, 2):
        assert tet_slice(legs).dim == count_odd_targets(legs) == odd_target_dim(legs)


def test_tet_slice_rows_are_symmetrizer_images():
    # each e1-row, expanded through the symmetrized basis monomials, is the
    # symmetrizer image of e1 * y^mu (mu one degree lower) and vanishes in
    # the quotient; the slice itself is the identity on the standard orbits
    for legs in (10, 11, 13):
        space = tet_slice(legs)
        ctx = _SkewSliceContext(legs)
        strict = legs % 2 == 1
        assert space.basis == ctx.basis == orbit_reps_oracle(legs, strict)
        sources = [E1 * Poly.monomial(YVARS, mu) for mu in orbit_reps_oracle(legs - 1, strict)]
        assert len(ctx.e1_rows) == len(sources)
        group = group_for(legs)
        basis_images = [symmetrize(Poly.monomial(YVARS, lam), group) for lam in space.basis]
        for row, source in zip(ctx.e1_rows, sources):
            expanded = Poly(YVARS)
            for i, c in row:
                expanded = expanded + basis_images[i].scale(c)
            assert expanded == symmetrize(source, group)
            assert eliminate_y4(expanded).is_zero()
        n = space.dim
        assert n == len(ctx.standard)
        assert row_lists(space.span_matrix) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_odd_target_dim_values():
    assert odd_target_dim(9) == 1
    assert odd_target_dim(15) == 3
    assert odd_target_dim(21) == 7
    assert odd_target_dim(7) == 0
    # even and negative leg counts raise, as in tet_slice(-1) and tsq_odd_dim(-1)
    for legs in (8, -1, -9):
        with pytest.raises(ValueError):
            odd_target_dim(legs)


# --- spanning families -------------------------------------------------------


@pytest.mark.parametrize("legs", [-1, -3, 8])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_slices_refuse_negative_and_even_leg_counts(family, legs):
    # a negative count used to reach Packing(4, legs) and raise OverflowError;
    # the degree's context refuses it, so no ambient slice exists to hand on
    if legs < 0:
        message = "legs must be non-negative"
        with pytest.raises(ValueError, match=message):
            _SkewSliceContext(legs)
    else:
        message = "a spanning family expects an odd ambient slice"
    with pytest.raises(ValueError, match=message):
        FAMILIES[family][3](tet_slice(legs))


def test_ihx_image_small_degrees():
    assert ihx_image_slice(tet_slice(7)).dim == 0
    assert ihx_image_slice(tet_slice(9)).dim == 1
    assert ihx_image_slice(tet_slice(11)).dim == 1


def test_ihx_image_requires_odd():
    with pytest.raises(ValueError):
        ihx_image_slice(tet_slice(8))


def test_subring_family_small_degrees():
    assert subring_family_slice(tet_slice(9)).dim == 1
    assert subring_family_slice(tet_slice(11)).dim == 1 == odd_target_dim(11)


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
    target = subring_family_slice(tet_slice(9))
    assert target.basis == orbit_reps_oracle(9, strict=True)

    def strict_coefficients(expr):
        poly = sympy.Poly(sympy.expand(expr), *ys)
        coeffs = dict(zip(poly.monoms(), poly.coeffs()))
        row = [sympy.S(coeffs.get(lam, 0)) for lam in target.basis]
        assert all(sympy.denom(c) == 1 for c in row)
        return [int(c) for c in row]

    e1 = sum(ys)
    e1_rows = [
        strict_coefficients(e1 * sympy.Matrix(4, 4, lambda i, j: ys[i] ** mu[j]).det())
        for mu in orbit_reps_oracle(8, strict=True)
    ]
    # the slice's rows live on the standard orbits; each generator's full row
    # differs from its lifted quotient row by sympy's e1-rows
    ctx = _SkewSliceContext(9)
    lifted = [lift(ctx, q) for q in row_lists(target.span_matrix)]
    generators = family_images("subring_family", 9)
    cols = len(target.basis)
    for full, lifted_row in zip(map(ctx.skew_row, generators), lifted):
        difference = [a - b for a, b in zip(full, lifted_row)]
        assert rank(QMatrix(e1_rows + [difference], cols)) == rank(QMatrix(e1_rows, cols)) == 2
    oracle_matrix = QMatrix(e1_rows + [strict_coefficients(delta * sigma3)], cols)
    assert row_space_equal(QMatrix(e1_rows + lifted, cols), oracle_matrix)


@pytest.mark.parametrize("legs", [9, 11, 13, 15])
def test_span_family_chain_equalities(legs):
    ambient = tet_slice(legs)
    image = ihx_image_slice(ambient).span_matrix
    subring = subring_family_slice(ambient).span_matrix
    assert row_space_equal(image, subring)


def test_early_stop_spans_match_full_construction():
    # the full span, built here from every generator of the family, against
    # the slice, which stops consuming generators at full rank
    families = (("ihx_image", ihx_image_slice), ("subring_family", subring_family_slice))
    for family, slice_of in families:
        for legs in (9, 11):
            stopped = slice_of(tet_slice(legs))
            ctx = _SkewSliceContext(legs)
            images = family_images(family, legs)
            rows = [ctx.quotient_row(ctx.skew_row(p)) for p in images]
            cols = len(ctx.standard)
            full = RowSpan(cols)
            for row in rows:
                full.add(row)
            assert stopped.dim == full.rank
            assert row_space_equal(stopped.span_matrix, QMatrix(rows, cols))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), True])
def test_span_refuses_a_non_int_entry(bad):
    # a bad entry is refused before quotient_row's arithmetic, on a standard
    # orbit and at a pivot, where that arithmetic would turn it into ints
    ctx = _SkewSliceContext(13)
    for index in (ctx.standard[0], ctx.pivots[0][0]):
        row = [0] * len(ctx.basis)
        row[index] = bad
        with pytest.raises(TypeError):
            ctx.span([row])


@pytest.mark.parametrize("extra", [2, -1])
def test_span_refuses_a_row_of_the_wrong_length(extra):
    # two entries too many were dropped silently, one too few read past the row's end
    ctx = _SkewSliceContext(13)
    n = len(ctx.basis)
    row = ([7, 8] * n)[: n + extra]
    with pytest.raises(ValueError, match=f"row has {n + extra} entries, the basis {n}"):
        ctx.span([row])


def test_span_builds_no_row_after_full_rank():
    # the lemma's Q rows of one degree span the slice; a row asked for after them raises
    d = 5
    ctx = _SkewSliceContext(2 * d + 9)
    powers = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)

    def rows():
        for n, m, k in _lemma_triples(d):
            yield q_alternant_row(n, m, k, ctx, powers)
        raise AssertionError("a row was built after full rank")

    space = ctx.span(rows())
    assert space.dim == len(ctx.standard) == odd_target_dim(2 * d + 9) == len(_lemma_triples(d))
    assert space.span_matrix.rows == space.dim


def _family_rows_match(family, legs, order):
    """Each generator's row from its packed factors against its expanded product's row."""
    _, build, expanded, _ = FAMILIES[family]
    ctx = _SkewSliceContext(legs)
    for gen in order:
        factors = build(ctx.edge_powers, gen)
        assert len(factors) == 2
        assert ctx.skew_row(*factors) == ctx.skew_row(expanded(gen))


@pytest.mark.parametrize("legs", range(1, 32, 2))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_rows_equal_the_expanded_products(family, legs):
    # every generator the slice consumes (every one of a zero slice, which
    # consumes none), in the suite's order and in a seeded shuffle, so each
    # power table fills in a different order
    order = suite_order(family, legs)
    consumed = order[: FAMILIES[family][3](tet_slice(legs)).span_matrix.rows or len(order)]
    _family_rows_match(family, legs, consumed)
    random.Random(legs).shuffle(consumed)
    _family_rows_match(family, legs, consumed)


def test_q_rows_equal_the_expanded_products():
    # every Q row of d <= 12 against skew_row of 24 * G+ * S multiplied out,
    # in the lemma's order and, from a fresh table, in a seeded shuffle
    rows = [(d, nmk) for d in range(13) for nmk in _lemma_triples(d)]
    expected = {}
    powers = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    for d, (n, m, k) in rows:
        ctx = _SkewSliceContext(2 * d + 9)
        g = powers.first(n, m)
        strict = Poly(YVARS, {e: c for e, c in g.terms.items() if e[0] > e[1] > e[2] > e[3]})
        expected[(n, m, k)] = ctx.skew_row((strict * powers.second(k)).scale(24))
        assert any(expected[(n, m, k)])
        assert q_alternant_row(n, m, k, ctx, powers) == expected[(n, m, k)]
    random.Random(12).shuffle(rows)
    shuffled = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    for d, (n, m, k) in rows:
        ctx = _SkewSliceContext(2 * d + 9)
        assert q_alternant_row(n, m, k, ctx, shuffled) == expected[(n, m, k)]


def test_ihx_image_slice_builds_no_poly_of_its_degree(monkeypatch):
    # the generators stay packed from the edge images to their rows: no
    # term of the slice's degree is ever keyed by an exponent tuple
    raw, init, unpack = Poly._raw.__func__, Poly.__init__, multipoly.Packing.unpack
    degrees = set()

    def recorded_raw(cls, vars, terms, top=None, packing=None):
        if packing is None:
            degrees.update(map(sum, terms))
        return raw(cls, vars, terms, top, packing)

    def recorded_init(self, vars, terms=None):
        init(self, vars, terms)
        degrees.update(map(sum, self.terms))

    def recorded_unpack(self, packed):
        terms = unpack(self, packed)
        degrees.update(map(sum, terms))
        return terms

    monkeypatch.setattr(Poly, "_raw", classmethod(recorded_raw))
    monkeypatch.setattr(Poly, "__init__", recorded_init)
    monkeypatch.setattr(multipoly.Packing, "unpack", recorded_unpack)
    _x_from_y_map.cache_clear()
    assert ihx_image_slice(tet_slice(29)).dim == odd_target_dim(29)
    assert degrees and max(degrees) < 29


def test_skew_row_takes_one_or_two_factors():
    ctx = _SkewSliceContext(9)
    factor = Y["y1"] ** 3 * Y["y2"]
    for count in (0, 3, 4):
        with pytest.raises(ValueError, match="one or two"):
            ctx.skew_row(*[factor] * count)


def test_two_factor_skew_row_forms_no_product(monkeypatch):
    gen = (10, 8, 6, 5)
    ctx = _SkewSliceContext(sum(gen))
    factors = diagram_spaces._ihx_image_build(ctx.edge_powers, gen)
    expected = ctx.skew_row(ihx_image_expanded(gen))

    def refused(*args):
        raise AssertionError("a product was formed")

    with monkeypatch.context() as patched:
        patched.setattr(Poly, "__mul__", refused)
        patched.setattr(multipoly, "_mul_packed", refused)
        row = ctx.skew_row(*factors)
    assert any(row) and row == expected


def test_tet_slice_builds_no_orbit_table(monkeypatch):
    def refused(name):
        def build(self):
            raise AssertionError(f"{name} was built")

        return property(build)

    monkeypatch.setattr(_SkewSliceContext, "_orbit_table", refused("an orbit table"))
    monkeypatch.setattr(_SkewSliceContext, "edge_powers", refused("an edge-power table"))
    assert tet_slice(101).dim == odd_target_dim(101)
    assert tet_slice(30).dim == even_closed_form(30)


def test_image_dim_equals_ambient_through_15():
    for legs in range(1, 16, 2):
        ambient = tet_slice(legs)
        assert ihx_image_slice(ambient).dim == ambient.dim == odd_target_dim(legs)


# --- the four-arc graph ------------------------------------------------------


def test_tsq_odd_dims_vanish():
    for legs in (1, 3, 9, 15, 29, 45):
        assert tsq_odd_dim(legs) == 0
    for legs in (4, -1):
        with pytest.raises(ValueError):
            tsq_odd_dim(legs)


def test_tsq_odd_dim_builds_no_row_for_a_zero_image(monkeypatch):
    ranked = []
    init = QMatrix.__init__

    def recording(self, rows, cols):
        ranked.append((list(rows), cols))
        init(self, ranked[-1][0], cols)

    monkeypatch.setattr(QMatrix, "__init__", recording)
    assert tsq_odd_dim(29) == 0
    assert ranked == [([], comb(29 + 2, 2))]  # no row, on 465 columns


def test_tsq_odd_dim_ranks_the_nonzero_images(monkeypatch):
    # negative control: with the reflection's sign dropped, each image is
    # twice its monomial, so every row is kept and the rank is the slice size
    action = diagram_spaces.SignedPermAction
    monkeypatch.setattr(
        diagram_spaces, "SignedPermAction", lambda vars, perm, character: action(vars, perm, 1)
    )
    assert tsq_odd_dim(9) == comb(9 + 2, 2) == 55


def test_tsq_odd_dim_memory_stays_small():
    # a dense matrix of the 1,081 zero images would take 36 MiB at L=45
    tracemalloc.start()
    try:
        assert tsq_odd_dim(45) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


@pytest.mark.parametrize("shift", [-1, -11])
def test_hilbert_rejects_negative_shift(shift):
    # a negative index used to wrap: -1 put the 1 at degree max_n, -11 gave the unshifted series
    with pytest.raises(ValueError):
        hilbert_coefficients(10, shift=shift)


def test_three_way_dimension_agreement_small():
    series = hilbert_coefficients(12)
    for n in range(0, 13, 2):
        assert tet_slice(n).dim == even_closed_form(n) == series[n]


# --- the orbit-basis route against the group-sum route ------------------------


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
    ctx = _SkewSliceContext(degree)
    row = ctx.skew_row(p)
    assert all(type(c) is int for c in row)
    assert expand_row(row, ctx.basis, degree) == oracle_image(p, degree)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 15))
def test_slice_dims_match_fraction_oracle(legs):
    ambient = oracle_tet_dim(legs)
    space = tet_slice(legs)
    assert space.dim == ambient
    if legs % 2:
        for family, slice_of in (
            ("ihx_image", ihx_image_slice),
            ("subring_family", subring_family_slice),
        ):
            assert slice_of(space).dim == oracle_family_dim(family, legs, ambient)


# --- the e1 certificate and the quotient coordinates ---------------------------


def sorted_slot(index, signed, exps):
    """Basis index and sign of a monomial's orbit average, by sorting; sign 0 when it is zero."""
    rep = tuple(sorted(exps, reverse=True))
    if not signed:
        return index[rep], 1
    if len(set(exps)) < 4:
        return 0, 0
    inversions = sum(exps[i] < exps[j] for i in range(4) for j in range(i + 1, 4))
    return index[rep], -1 if inversions & 1 else 1


def sorted_e1_rows(ctx, legs):
    """e1 times each basis vector one degree lower, each raised tuple sorted: the reference.

    The tuples mu one degree lower are the slice's own (`orbit_reps_oracle`
    checks them to degree 21); only the sorting is the reference's.
    """
    index = {rep: i for i, rep in enumerate(ctx.basis)}
    rows = []
    for mu in diagram_spaces._orbit_reps(legs - 1, ctx.signed):
        row = {}
        for k in range(4):
            i, sign = sorted_slot(index, ctx.signed, mu[:k] + (mu[k] + 1,) + mu[k + 1 :])
            row[i] = row.get(i, 0) + sign
        rows.append([(i, c) for i, c in sorted(row.items()) if c])
    return rows


@pytest.mark.parametrize("legs", range(41))
def test_closed_form_e1_rows_equal_the_sorted_reference(legs):
    ctx = _SkewSliceContext(legs)
    assert ctx.e1_rows == sorted_e1_rows(ctx, legs)


@pytest.mark.parametrize("legs", range(22))
def test_e1_rows_lead_at_mu_plus_e1(legs):
    ctx = _SkewSliceContext(legs)
    strict = legs % 2 == 1
    sources = orbit_reps_oracle(legs - 1, strict)
    leads = [next(i for i, c in enumerate(dense(ctx, row)) if c) for row in ctx.e1_rows]
    assert [ctx.basis[i] for i in leads] == [(mu[0] + 1,) + mu[1:] for mu in sources]
    assert [p for p, _ in ctx.pivots] == sorted(leads)
    assert len(ctx.standard) == len(ctx.basis) - len(sources) == oracle_tet_dim(legs)
    assert all(ctx.basis[i][0] == ctx.basis[i][1] + strict for i in ctx.standard)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_quotient_row_is_the_class_modulo_e1(data):
    ctx = _SkewSliceContext(data.draw(st.sampled_from(range(9, 22, 2))))
    n = len(ctx.basis)
    row = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    e1_rows = [dense(ctx, e1_row) for e1_row in ctx.e1_rows]
    assert all(not any(ctx.quotient_row(e1_row)) for e1_row in e1_rows)
    e1_span = RowSpan(n)
    for e1_row in e1_rows:
        e1_span.add(e1_row)
    assert e1_span.rank == len(ctx.e1_rows)
    assert not e1_span.add([a - b for a, b in zip(row, lift(ctx, ctx.quotient_row(row)))])


def test_quotient_row_is_odd_only():
    ctx = _SkewSliceContext(10)
    with pytest.raises(ValueError):
        ctx.quotient_row(dense(ctx, ctx.e1_rows[0]))


def test_slices_past_the_paper_caps():
    for legs in range(31, 42, 2):
        ambient = tet_slice(legs)
        assert ambient.dim == ihx_image_slice(ambient).dim == odd_target_dim(legs)
    for n in range(32, 49, 2):
        assert tet_slice(n).dim == even_closed_form(n)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_neg_sum_power_needs_no_recursion():
    # y4^60 -> (-(y1+y2+y3))^60 must not recurse once per degree
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        power = eliminate_y4(Y["y4"] ** 60)
    finally:
        sys.setrecursionlimit(limit)
    assert {sum(e) for e in power.terms} == {60} and len(power.terms) == 61 * 62 // 2
    assert power.terms[(60, 0, 0)] == 1
    assert power.terms[(20, 20, 20)] == sympy.factorial(60) / sympy.factorial(20) ** 3
