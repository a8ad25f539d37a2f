"""Polynomial ring, signed S4 actions, symmetrizers, named families."""

import random
import re
from fractions import Fraction
from functools import partial
from math import factorial, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jd3 import _coverage, asymptotics, diagram_spaces, multipoly, verifier
from jd3.diagram_spaces import _SkewSliceContext, eliminate_y4, q_alternant_row
from jd3.multipoly import (
    NotDivisibleError,
    NotInSubringError,
    Packing,
    Poly,
    Powers,
    QFactorPowers,
    SignedPermAction,
    SubstitutionTable,
    VarSet,
    XVARS,
    YVARS,
    Y3VARS,
    Z3VARS,
    discriminant,
    divide_exact,
    elementary_symmetric,
    express_product_in_uvw,
    p2,
    p3,
    p4,
    perm_sign,
    q_poly,
    signed_s4,
    symmetrize,
    UVWVARS,
    _Q_QUADS,
    _Q_TRIPLES,
    _UVRS,
    _uvw_from_uvrs,
    _uvw_from_y,
)
from jd3.verifier import _lemma_triples

Y = {n: Poly.variable(YVARS, n) for n in YVARS.names}

NEG_INF = float("-inf")  # total degree of the zero polynomial


def degree(p: Poly):
    """Total degree; -inf for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=NEG_INF)


def sympy_poly(p: Poly):
    """Independent rendering of a Poly as a sympy expression."""
    symbols = sympy.symbols(p.vars.names)
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Integer(coeff)
        for s, e in zip(symbols, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# --- ring operations -------------------------------------------------------


def test_product_difference_of_squares():
    assert (Y["y1"] + Y["y2"]) * (Y["y1"] - Y["y2"]) == Y["y1"] ** 2 - Y["y2"] ** 2


def test_multiply_by_zero():
    p = Y["y1"] * Y["y2"] + Y["y3"]
    assert (p * Poly(YVARS)).is_zero()


def test_p3_expansion_has_six_unit_terms():
    prod = p3(YVARS, ("y1", "y2", "y3"))
    assert len(prod.terms) == 6
    assert all(abs(c) == 1 for c in prod.terms.values())


def test_varset_mismatch_rejected():
    with pytest.raises(ValueError):
        Y["y1"] + Poly.variable(Y3VARS, "y1")


def test_varset_validates_and_is_read_only():
    with pytest.raises(ValueError, match="variable names must be unique"):
        VarSet(("y1", "y2", "y1"))
    assert repr(YVARS) == "VarSet('y1', 'y2', 'y3', 'y4')"
    assert (len(YVARS), YVARS.index("y3"), YVARS.names) == (4, 2, ("y1", "y2", "y3", "y4"))
    with pytest.raises(AttributeError):
        YVARS.names = ("y1",)


def test_zero_degree_sentinel():
    assert degree(Poly(YVARS)) == float("-inf")
    assert degree(Poly.constant(YVARS, 5)) == 0


# --- substitution ----------------------------------------------------------


def y_in_terms_of_x():
    x = {n: Poly.variable(XVARS, n) for n in XVARS.names}
    return {
        "y1": x["x1"] - x["x5"] + x["x6"],
        "y2": x["x2"] + x["x4"] - x["x6"],
        "y3": x["x3"] - x["x4"] + x["x5"],
        "y4": -x["x1"] - x["x2"] - x["x3"],
    }


def test_substitute_face_sum_vanishes():
    total = Y["y1"] + Y["y2"] + Y["y3"] + Y["y4"]
    assert total.substitute(y_in_terms_of_x()).is_zero()


def test_substitute_identity_map():
    p = Y["y1"]
    assert p.substitute({"y1": Y["y1"]}) == p


def test_substitute_x1_plus_x5():
    x_map = {"x1": Y["y1"] - Y["y4"], "x5": Y["y3"] - Y["y1"]}
    x = {n: Poly.variable(XVARS, n) for n in ("x1", "x5")}
    image = (x["x1"] + x["x5"]).substitute(x_map)
    assert image == Y["y3"] - Y["y4"]


def test_substitute_unmapped_variable_rejected():
    with pytest.raises(ValueError):
        (Y["y1"] + Y["y2"]).substitute({"y1": Y["y1"]})


# --- signed actions and symmetrizers ---------------------------------------


def test_act_swap_with_sign():
    # one element's action is the reference group sum over that element alone
    swap = SignedPermAction(YVARS, (1, 0, 2, 3), -1)
    assert ref_symmetrize(Y["y1"], [swap]) == -Y["y2"]


def test_act_identity():
    ident = SignedPermAction(YVARS, (0, 1, 2, 3), 1)
    p = Y["y1"] * Y["y2"] - (Y["y3"] ** 2).scale(3)
    assert symmetrize(p, [ident]) == p


def test_act_four_cycle():
    cyc = SignedPermAction(YVARS, (1, 2, 3, 0), -1)
    assert ref_symmetrize(Y["y1"] * Y["y2"], [cyc]) == -(Y["y2"] * Y["y3"])


def test_signed_action_validates_and_is_read_only():
    with pytest.raises(ValueError, match="perm is not a permutation of the variable indices"):
        SignedPermAction(YVARS, (0, 1, 2, 2), 1)
    with pytest.raises(ValueError, match="perm is not a permutation of the variable indices"):
        SignedPermAction(YVARS, (0, 1, 2), 1)
    with pytest.raises(ValueError, match="character must be \\+1 or -1"):
        SignedPermAction(YVARS, (0, 1, 2, 3), 0)
    swap = SignedPermAction(YVARS, (1, 0, 2, 3), -1)
    assert repr(swap) == (
        "SignedPermAction(vars=VarSet('y1', 'y2', 'y3', 'y4'), perm=(1, 0, 2, 3), character=-1)"
    )
    assert swap.relabel((5, 6, 7, 8)) == (6, 5, 7, 8)
    for field in ("vars", "perm", "character"):
        with pytest.raises(AttributeError):
            setattr(swap, field, getattr(swap, field))


def test_signed_action_replace_validates_and_derives():
    # _replace builds through _make, as the constructor does: it is
    # validated with the constructor's messages and derives relabel
    swap = SignedPermAction(YVARS, (1, 0, 2, 3), -1)
    with pytest.raises(ValueError, match="character must be \\+1 or -1"):
        swap._replace(character=5)
    with pytest.raises(ValueError, match="perm is not a permutation of the variable indices"):
        swap._replace(perm=(0, 0, 2, 3))
    cycle = swap._replace(perm=(1, 2, 3, 0))
    assert cycle == SignedPermAction(YVARS, (1, 2, 3, 0), -1)
    assert cycle.relabel((5, 6, 7, 8)) == (8, 5, 6, 7)


def test_skew_symmetrize_linear_vanishes():
    assert symmetrize(Y["y1"], signed_s4(YVARS, "sign")).is_zero()


def test_symmetrize_linear_average():
    # the group sum is 24 times the average (y1+y2+y3+y4)/4
    result = symmetrize(Y["y1"], signed_s4(YVARS, "trivial"))
    expected = (Y["y1"] + Y["y2"] + Y["y3"] + Y["y4"]).scale(6)
    assert result == expected


def test_skew_symmetrize_staircase_is_discriminant():
    # the signed sum of y^(3,2,1,0) is the Vandermonde determinant
    image = symmetrize(Poly.monomial(YVARS, (3, 2, 1, 0)), signed_s4(YVARS, "sign"))
    assert image == discriminant(YVARS)


def test_skew_symmetrize_matches_sympy_oracle():
    ys = sympy.symbols(YVARS.names)
    expr = ys[0] ** 5 * ys[1] ** 3 * ys[2]
    oracle = sympy.Integer(0)
    import itertools

    for perm in itertools.permutations(range(4)):
        sign = perm_sign(perm)
        oracle += sign * expr.subs(
            {ys[i]: ys[perm[i]] for i in range(4)}, simultaneous=True
        )
    oracle = sympy.expand(oracle)
    mine = symmetrize(Poly.monomial(YVARS, (5, 3, 1, 0)), signed_s4(YVARS, "sign"))
    assert sympy.expand(sympy_poly(mine) - oracle) == 0


def test_symmetrize_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        symmetrize(Y["y1"] + Y["y1"] * Y["y2"], signed_s4(YVARS, "sign"))


def test_symmetrize_rejects_a_list_without_the_identity():
    # the orbit pass reads a group; a list without the identity is not one
    swap = SignedPermAction(YVARS, (1, 0, 2, 3), -1)
    negated = SignedPermAction(YVARS, (0, 1, 2, 3), -1)
    for actions in ([swap], [negated], [swap, negated], signed_s4(YVARS, "sign")[1:]):
        with pytest.raises(ValueError, match="identity"):
            symmetrize(Y["y1"] * Y["y2"], actions)


def test_projector_idempotent_seeded():
    rng = random.Random(7)
    for _ in range(25):
        degree = rng.randint(0, 8)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            cuts = sorted(rng.randint(0, degree) for _ in range(3))
            exps = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
            terms[exps] = terms.get(exps, 0) + rng.randint(1, 9)
        p = Poly(YVARS, terms)
        for character in ("sign", "trivial"):
            group = signed_s4(YVARS, character)
            once = symmetrize(p, group)
            assert symmetrize(once, group) == once.scale(24)


def test_parity_grading_of_products():
    # products of skew elements are symmetric; symmetric times skew is skew
    rng = random.Random(11)
    skew_group = signed_s4(YVARS, "sign")
    plain_group = signed_s4(YVARS, "trivial")

    def is_invariant(p, group):
        return all(ref_symmetrize(p, [g]) == p for g in group)

    for _ in range(10):
        e1 = tuple(rng.sample(range(6), 4))
        e2 = tuple(rng.sample(range(7), 4))
        a = symmetrize(Poly.monomial(YVARS, e1), skew_group)
        b = symmetrize(Poly.monomial(YVARS, e2), skew_group)
        s = symmetrize(Poly.monomial(YVARS, e2), plain_group)
        assert is_invariant(a * b, plain_group)
        assert is_invariant(s * a, skew_group)


# --- named polynomial families ---------------------------------------------


def test_elementary_symmetric_shapes():
    s1 = elementary_symmetric(1, YVARS)
    assert s1 == Y["y1"] + Y["y2"] + Y["y3"] + Y["y4"]
    s2 = elementary_symmetric(2, YVARS)
    assert len(s2.terms) == 6 and all(c == 1 for c in s2.terms.values())
    s4 = elementary_symmetric(4, YVARS)
    assert s4 == Y["y1"] * Y["y2"] * Y["y3"] * Y["y4"]
    with pytest.raises(ValueError):
        elementary_symmetric(5, YVARS)


def test_vieta_expansion():
    tvars = VarSet(("t", "y1", "y2", "y3", "y4"))
    t = Poly.variable(tvars, "t")
    ys = [Poly.variable(tvars, n) for n in YVARS.names]
    product = Poly.constant(tvars, 1)
    for yi in ys:
        product = product * (t - yi)
    lift = {n: Poly.variable(tvars, n) for n in YVARS.names}
    sigma = [elementary_symmetric(i, YVARS).substitute(lift) for i in range(1, 5)]
    expected = (
        t**4
        - sigma[0] * t**3
        + sigma[1] * t**2
        - sigma[2] * t
        + sigma[3]
    )
    assert product == expected


def test_discriminant_skew_under_signed_transposition():
    delta = discriminant(YVARS)
    swap = SignedPermAction(YVARS, (1, 0, 2, 3), -1)
    assert ref_symmetrize(delta, [swap]) == delta


def test_discriminant_value_at_1234():
    # product of the six factors (y_i - y_j), i < j: six negative factors,
    # so the value at (1, 2, 3, 4) is +12
    delta = discriminant(YVARS)
    assert delta.evaluate({"y1": 1, "y2": 2, "y3": 3, "y4": 4}) == 12


def test_discriminant_vanishes_on_repeated_coordinate():
    delta = discriminant(YVARS)
    assert delta.evaluate({"y1": 5, "y2": 5, "y3": 2, "y4": 7}) == 0


def test_p2_vanishes_on_equal_arguments():
    poly = p2(YVARS, ("y1", "y2", "y3"))
    assert poly.evaluate({"y1": 1, "y2": 1, "y3": 1, "y4": 3}) == 0


def test_p3_cyclic_invariance():
    base = p3(YVARS, ("y1", "y2", "y3"))
    assert base == p3(YVARS, ("y2", "y3", "y1")) == p3(YVARS, ("y3", "y1", "y2"))


def test_p4_definitional_factorization():
    u = Y["y1"] - Y["y3"]
    v = Y["y2"] - Y["y3"]
    w = (Y["y1"] - Y["y4"]) * (Y["y2"] - Y["y4"])
    assert p4(YVARS, ("y1", "y2", "y3", "y4")) == u * v * w


def test_p_builders_arity():
    with pytest.raises(ValueError):
        p2(YVARS, ("y1", "y2"))
    with pytest.raises(ValueError):
        p4(YVARS, ("y1", "y2", "y3"))


def test_q_poly_degrees():
    assert degree(q_poly(0, 0, 0)) == 9
    assert degree(q_poly(0, 0, 1)) == 13
    assert degree(q_poly(1, 1, 1)) == 21


def test_q_poly_fixed_by_skew_symmetrizer():
    for nmk in ((0, 0, 0), (1, 0, 0), (0, 0, 1)):
        q = q_poly(*nmk)
        assert symmetrize(q, signed_s4(YVARS, "sign")) == q.scale(24)


def test_q_poly_rejects_negative():
    with pytest.raises(ValueError):
        q_poly(-1, 0, 0)


def _q_triples(d):
    return [(d - 3 * m - 2 * k, m, k) for m in range(d // 3 + 1) for k in range((d - 3 * m) // 2 + 1)]


def test_alternant_rows_equal_skew_rows_of_q_poly():
    # every (n, m, k) with n + 2k + 3m <= 9: one table in the lemma's order,
    # and a fresh table that fills its entries in the reverse order
    triples = [(d, t) for d in range(10) for t in _q_triples(d)]
    assert len(triples) == 53
    in_order = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    reversed_order = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    expected = {}
    for d, nmk in triples:
        ctx = _SkewSliceContext(2 * d + 9)
        expected[nmk] = ctx.skew_row(q_poly(*nmk))
        assert any(expected[nmk])
        assert q_alternant_row(*nmk, ctx, in_order) == expected[nmk]
    for d, nmk in reversed(triples):
        ctx = _SkewSliceContext(2 * d + 9)
        assert q_alternant_row(*nmk, ctx, reversed_order) == expected[nmk]


def test_alternant_row_rejects_negative():
    powers = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    with pytest.raises(ValueError):
        q_alternant_row(0, -1, 0, _SkewSliceContext(9), powers)


def _strict_part(p: Poly) -> Poly:
    """p's terms at exponent tuples l1 > l2 > l3 > l4."""
    return Poly(p.vars, {e: c for e, c in p.terms.items() if e[0] > e[1] > e[2] > e[3]})


def test_q_poly_is_the_signed_sum_of_the_strict_first_term_times_s():
    # Q = A(G+ * S), G the first factor's (y1, y2, y3) term and S the P4 sum;
    # the full G is skew in y1, y2, y3 and sums to six times Q, a scale rank cannot see
    sign = signed_s4(YVARS, "sign")
    args = _Q_TRIPLES[0]
    for d in range(5):
        for n, m, k in _q_triples(d):
            g = p2(YVARS, args) ** n * p3(YVARS, args) ** (2 * m + 3)
            s = sum((p4(YVARS, quad) ** k for quad in _Q_QUADS[1:]), p4(YVARS, _Q_QUADS[0]) ** k)
            q = q_poly(n, m, k)
            assert symmetrize(_strict_part(g) * s, sign) == q
            assert symmetrize(g * s, sign) == q.scale(6)


# Per term of the first factor: the y-indices its three arguments read, and
# the index of the variable it omits.
_Q_TRIPLE_SLOTS = tuple(
    (tuple(YVARS.index(v) for v in t), next(i for i, v in enumerate(YVARS.names) if v not in t))
    for t in _Q_TRIPLES
)


def _lookup_alternant_row(n, m, k, basis, powers):
    """Q's alternant coordinates as a sum over S's terms of lookups in G.

    Q = F * S, so Q's coefficient at a strict l is the sum over the terms
    c_nu y^nu of S of c_nu * F_(l - nu); each term of F is G relabelled and
    omits one variable i, so F_(l - nu) is a lookup in G over the terms with
    nu_i = l_i.  A negative exponent is no key of G and reads 0.
    """
    g = powers.first(n, m).terms
    # the terms of the sum of P4^k, indexed per variable i by their exponent of y_i
    second = [{} for _ in YVARS.names]
    for term in powers.second(k).terms.items():
        for i, e in enumerate(term[0]):
            second[i].setdefault(e, []).append(term)
    row = []
    for lam in basis:
        total = 0
        for (a, b, c), i in _Q_TRIPLE_SLOTS:
            for nu, coeff in second[i].get(lam[i], ()):
                total += coeff * g.get((lam[a] - nu[a], lam[b] - nu[b], lam[c] - nu[c], 0), 0)
        row.append(24 * total)
    return row


def test_alternant_rows_equal_the_lookup_convolution():
    # every (n, m, k) with n + 2k + 3m <= 12, in the suite's order and in a
    # seeded shuffle, each filling a fresh table
    triples = [(d, t) for d in range(13) for t in _q_triples(d)]
    shuffled = list(triples)
    random.Random(0).shuffle(shuffled)
    contexts = {d: _SkewSliceContext(2 * d + 9) for d in range(13)}
    reference = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    for order in (triples, shuffled):
        powers = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
        for d, nmk in order:
            ctx = contexts[d]
            expected = _lookup_alternant_row(*nmk, ctx.basis, reference)
            assert q_alternant_row(*nmk, ctx, powers) == expected


# --- exact division ---------------------------------------------------------


def test_divide_exact_recovers_sigma3():
    delta = discriminant(YVARS)
    sigma3 = elementary_symmetric(3, YVARS)
    assert divide_exact(delta * sigma3, delta) == sigma3


def test_divide_exact_rejects_non_divisor():
    with pytest.raises(NotDivisibleError):
        divide_exact(Y["y1"], Y["y2"])


def test_divide_exact_zero_dividend():
    assert divide_exact(Poly(YVARS), Y["y1"]).is_zero()


def test_divide_exact_by_zero_rejected():
    with pytest.raises(ValueError):
        divide_exact(Y["y1"], Poly(YVARS))


def test_skew_images_divisible_by_discriminant():
    delta = discriminant(YVARS)
    skew_group = signed_s4(YVARS, "sign")
    rng = random.Random(3)
    for _ in range(20):
        exps = tuple(rng.randint(0, 5) for _ in range(4))
        image = symmetrize(Poly.monomial(YVARS, exps), skew_group)
        quotient = divide_exact(image, delta)
        assert quotient * delta == image


def test_divide_exact_rejects_non_integer_quotient():
    # 2y1^2 = (2/3 y1) * 3y1 over Q, but no integer quotient exists
    with pytest.raises(NotDivisibleError):
        divide_exact(Y["y1"].scale(2) * Y["y1"], Y["y1"].scale(3))


def test_divide_exact_by_delta_reduced_matches_sympy():
    # quotients by the primitive divisor the properties suite uses, against sympy's div
    delta_reduced = eliminate_y4(discriminant(YVARS))
    divisor = sympy_poly(delta_reduced)
    symbols = sympy.symbols(Y3VARS.names)
    skew_group = signed_s4(YVARS, "sign")
    for exps in ((3, 2, 1, 0), (5, 3, 1, 0), (6, 4, 2, 1), (7, 2, 1, 0)):
        image = eliminate_y4(symmetrize(Poly.monomial(YVARS, exps), skew_group))
        quotient, remainder = sympy.div(sympy_poly(image), divisor, *symbols)
        assert remainder == 0
        assert sympy.expand(sympy_poly(divide_exact(image, delta_reduced)) - quotient) == 0


def assert_exact_coefficients(p):
    # the coefficient rule: every coefficient is an int
    for c in p.terms.values():
        assert type(c) is int, c


coefficients = st.integers(-6, 6)


@st.composite
def small_polys(draw):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 4), coefficients, min_size=1, max_size=4
        )
    )
    return Poly(YVARS, terms)


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys(), coefficients, st.integers(0, 3))
def test_ring_ops_keep_exact_coefficients(p, q, c, n):
    for result in (p + q, p - q, p * q, p**n, p.scale(c), -p):
        assert_exact_coefficients(result)
    if not q.is_zero():
        quotient = divide_exact(p * q, q)
        assert_exact_coefficients(quotient)
        assert quotient == p


def assert_product_matches_sympy(p, q):
    prod = p * q
    n = len(p.vars)
    assert all(type(e) is tuple and len(e) == n for e in prod.terms)
    assert all(c != 0 for c in prod.terms.values())
    assert_exact_coefficients(prod)
    assert sympy.expand(sympy_poly(prod) - sympy_poly(p) * sympy_poly(q)) == 0


VARSETS = {n: VarSet(tuple(f"v{i}" for i in range(n))) for n in (0, 1, 3, 4, 6)}


@st.composite
def poly_pairs(draw):
    """Two polynomials in 0, 1, 3, 4 or 6 variables, possibly zero or constant.

    Exponents reach 9, so the largest exponent sum of a product runs through
    the packing widths 0 to 5 bits, across every power of two up to 16.
    """
    vars = VARSETS[draw(st.sampled_from(sorted(VARSETS)))]
    terms = st.dictionaries(st.tuples(*[st.integers(0, 9)] * len(vars)), coefficients, max_size=5)
    return Poly(vars, draw(terms)), Poly(vars, draw(terms))


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
def test_packed_product_matches_sympy(pair):
    assert_product_matches_sympy(*pair)


XY = {n: Poly.variable(VarSet(("x", "y")), n) for n in ("x", "y")}


@pytest.mark.parametrize(
    "p, q",
    [
        # largest exponent sums 3+4 = 7 (3 bits) and 7+1 = 8 (4 bits)
        (XY["x"] ** 3 + XY["y"], XY["x"] ** 4 * XY["y"] ** 2 - XY["y"]),
        (XY["x"] ** 7 + XY["y"] ** 7, XY["x"] + XY["y"].scale(-3)),
        # a constant and the zero polynomial
        (Poly.constant(XY["x"].vars, -5), XY["x"] - XY["y"]),
        (Poly(XY["x"].vars), XY["x"] + XY["y"]),
        # no variables: the only monomial is the empty tuple
        (Poly(VarSet(()), {(): 4}), Poly(VarSet(()), {(): -7})),
        (Poly(VarSet(()), {(): 4}), Poly(VarSet(()))),
        # cancellation: the xy terms, with unit and with larger coefficients
        (XY["x"] + XY["y"], XY["x"] - XY["y"]),
        (
            XY["x"].scale(2) + XY["y"].scale(3),
            XY["x"].scale(2) - XY["y"].scale(3),
        ),
    ],
)
def test_packed_product_edge_cases(p, q):
    assert_product_matches_sympy(p, q)
    assert_product_matches_sympy(q, p)


def test_packed_product_cancelled_terms_are_dropped():
    x, y = XY["x"], XY["y"]
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    one_plus_x3 = (Poly.constant(x.vars, 1) + x) * (Poly.constant(x.vars, 1) - x + x * x)
    assert one_plus_x3.terms == {(0, 0): 1, (3, 0): 1}
    scaled = (x.scale(2) + y.scale(3)) * (x.scale(2) - y.scale(3))
    assert scaled.terms == {(2, 0): 4, (0, 2): -9}


# --- the packed kernel against the tuple-keyed reference ---------------------
#
# The reference works on exponent tuples only, with no packing: products add
# tuples coordinate by coordinate, powers square repeatedly, substitution goes
# term by term through powers of the images, and the signed group sum runs the
# relabelling loop that `symmetrize` used before `SignedPermAction.relabel`.


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            k = tuple(a + b for a, b in zip(e1, e2))
            out[k] = out.get(k, 0) + c1 * c2
    return Poly(p.vars, out)


def ref_pow(p, n):
    result, base = Poly.constant(p.vars, 1), p
    while n:
        if n & 1:
            result = ref_mul(result, base)
        n >>= 1
        if n:
            base = ref_mul(base, base)
    return result


def ref_substitute(p, mapping):
    target = next(iter(mapping.values())).vars
    acc = Poly(target)
    for exps, coeff in p.terms.items():
        factor = Poly.constant(target, coeff)
        for name, e in zip(p.vars.names, exps):
            if e:
                factor = ref_mul(factor, ref_pow(mapping[name], e))
        acc = acc + factor
    return acc


def ref_symmetrize(p, group):
    acc = {}
    for action in group:
        for exps, coeff in p.terms.items():
            new = [0] * len(exps)
            for i, e in enumerate(exps):
                new[action.perm[i]] = e
            k = tuple(new)
            acc[k] = acc.get(k, 0) + action.character * coeff
    return Poly(p.vars, acc)


def graded_lex(exps):
    """The sort key of graded-lex order: degree first, then lex on exponents."""
    return sum(exps), exps


def ref_divide_exact(p, d):
    """The tuple-keyed division loop that `divide_exact` ran before its keys were packed."""
    d_exp = max(d.terms, key=graded_lex)
    d_coeff = d.terms[d_exp]
    work = dict(p.terms)
    quotient = {}
    while work:
        exps = max(work, key=graded_lex)
        q_exp = tuple(a - b for a, b in zip(exps, d_exp))
        q_coeff, rest = divmod(work[exps], d_coeff)
        if rest or any(e < 0 for e in q_exp):
            raise NotDivisibleError("polynomial is not divisible by the given divisor")
        quotient[q_exp] = q_coeff
        for de, dc in d.terms.items():
            k = tuple(a + b for a, b in zip(q_exp, de))
            s = work.get(k, 0) - q_coeff * dc
            if s:
                work[k] = s
            elif k in work:
                del work[k]
    return Poly(p.vars, quotient)


def ref_substitute_per_call(p, mapping):
    """The substitution `Poly.substitute` ran before its table: power tables per call, no kept monomial."""
    target = next(iter(mapping.values())).vars
    tables = {name: Powers(image) for name, image in mapping.items()}
    acc = Poly(target)
    for exps, coeff in p.terms.items():
        factor = Poly.constant(target, coeff)
        for name, e in zip(p.vars.names, exps):
            if e:
                factor = factor * tables[name][e]
        acc = acc + factor
    return acc


KERNEL_VARSETS = [VARSETS[n] for n in (3, 4, 6)]


def kernel_polys(vars, max_exp=5, max_size=5):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * len(vars)), coefficients, max_size=max_size
    ).map(lambda terms: Poly(vars, terms))


def at_top(vars, top):
    """Two polynomials whose product has `top` as its largest exponent, in every slot."""
    n = len(vars)
    half = top // 2
    p = Poly(vars, {(half,) * n: 3, (0,) * (n - 1) + (1,): -1})
    q = Poly(vars, {(top - half,) * n: 2, (1,) + (0,) * (n - 1): 5, (0,) * n: -7})
    return p, q


@st.composite
def kernel_pairs(draw):
    vars = draw(st.sampled_from(KERNEL_VARSETS))
    return draw(kernel_polys(vars)), draw(kernel_polys(vars))


@settings(max_examples=100, deadline=None)
@given(kernel_pairs())
@example(at_top(VARSETS[3], 255))
@example(at_top(VARSETS[4], 256))
@example(at_top(VARSETS[6], 65535))
@example(at_top(VARSETS[3], 65536))
@example(at_top(VARSETS[4], 2**64 - 1))
def test_packed_product_matches_reference(pair):
    p, q = pair
    assert p * q == ref_mul(p, q)
    assert q * p == ref_mul(p, q)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(KERNEL_VARSETS).flatmap(lambda v: kernel_polys(v, max_exp=3, max_size=3)),
    st.integers(0, 6),
)
@example(Poly(VARSETS[3], {(5, 0, 1): 2, (0, 3, 0): -1}), 51)  # largest exponent 255
@example(Poly(VARSETS[4], {(4, 0, 0, 1): 1, (0, 1, 0, 0): 3}), 64)  # 256
@example(Poly(VARSETS[6], {(13107, 0, 0, 0, 0, 1): 1, (0,) * 6: -2}), 5)  # 65535
@example(Poly(VARSETS[3], {(0, 16384, 0): 1, (1, 0, 1): 1}), 4)  # 65536
def test_packed_power_matches_reference(p, n):
    assert p**n == ref_pow(p, n)


def counted_products(monkeypatch):
    """The list that gains one entry per `_mul_packed` call from here on."""
    calls, mul_packed = [], multipoly._mul_packed

    def counted(a, b):
        calls.append(None)
        return mul_packed(a, b)

    monkeypatch.setattr(multipoly, "_mul_packed", counted)
    return calls


def test_power_table_builds_each_power_once(monkeypatch):
    p = Poly(VARSETS[3], {(1, 0, 2): 3, (0, 1, 0): -1, (0, 0, 0): 2})
    table = Powers(p)
    expected = {e: ref_pow(p, e) for e in range(6)}
    calls = counted_products(monkeypatch)
    for e in (5, 3, 5):
        assert table[e] == expected[e]
    # p^2..p^5, each one product of the power below by p; the reads of 3 and 5 again are kept
    assert len(calls) == 4
    # the unit and p itself are the table's start, no product
    assert all(table[e] == expected[e] for e in range(6))
    assert len(calls) == 4
    assert table[1] is p
    with pytest.raises(ValueError, match="not -1"):
        table[-1]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(KERNEL_VARSETS).flatmap(lambda v: kernel_polys(v, max_exp=3, max_size=3)),
    st.permutations(range(7)),
)
def test_power_table_matches_reference(p, order):
    # every power 0..6, read in any order from one table, is ref_pow's
    table = Powers(p)
    for e in order:
        assert table[e] == ref_pow(p, e)


def test_power_table_widens_past_255():
    # p^e reaches y1^(100 e): p^2 is in one-byte fields, p^3 in two-byte
    # ones, and the table keeps going in them
    p = Poly(VARSETS[3], {(100, 0, 0): 1, (0, 1, 0): -2})
    table = Powers(p)
    assert [table[e].top for e in (2, 3, 5)] == [200, 300, 500]
    for e in range(6):
        assert table[e] == ref_pow(p, e)


@pytest.mark.parametrize("n", range(8))
def test_power_makes_n_minus_one_products(monkeypatch, n):
    p = Y["y1"] - Y["y2"].scale(2) + Poly.constant(YVARS, 3)
    expected = ref_pow(p, n)
    calls = counted_products(monkeypatch)
    assert p**n == expected
    assert len(calls) == max(n - 1, 0)


def test_packing_refuses_a_negative_bound():
    # a negative bound used to raise OverflowError, as if it were too large
    for top in (-1, -(2**70)):
        with pytest.raises(ValueError, match="negative"):
            Packing(4, top)


def test_packing_is_one_object_per_field_width():
    # so "the same layout" is an identity test
    assert Packing(4, 0) is Packing(4, 255) and Packing(4, 255).limit == 255
    assert Packing(4, 256) is Packing(4, 65535) is not Packing(4, 255)
    assert Packing(3, 255) is not Packing(4, 255)
    assert Packing(4, 2**64 - 1).limit == 2**64 - 1
    with pytest.raises(OverflowError):
        Packing(4, 2**64)


def test_packed_refuses_a_layout_below_its_top():
    # one-byte fields would carry y1^256 into y2's field; a layout that holds
    # the top packs once and keeps the result
    p = Poly.monomial(YVARS, (256, 0, 0, 1))
    with pytest.raises(OverflowError, match="256"):
        p.packed(Packing(4, 255))
    wide = Packing(4, 256)
    assert p.packed(wide) is p.packed(wide)
    assert wide.unpack(p.packed(wide)) == {(256, 0, 0, 1): 1}
    # a product's top is its factors' sum, a bound on its exponents
    q = Y["y1"] * Y["y2"] ** 200
    assert (q * q).top == 402
    with pytest.raises(OverflowError):
        (q * q).packed(Packing(4, 255))


@st.composite
def substitutions(draw):
    source = draw(st.sampled_from(KERNEL_VARSETS))
    target = draw(st.sampled_from(KERNEL_VARSETS))
    p = draw(kernel_polys(source, max_exp=3, max_size=4))
    images = {name: draw(kernel_polys(target, max_exp=2, max_size=3)) for name in source.names}
    return p, images


def top_substitution(source, target, e, top):
    """A degree-e monomial in two variables, every image x^(top / e): largest exponent `top`.

    Both variables feed the one target exponent, so its bound is a sum over them.
    """
    image = Poly.monomial(target, (top // e,) + (0,) * (len(target) - 1))
    images = {name: image for name in source.names}
    images[source.names[0]] = image + Poly.constant(target, 1)
    return Poly.monomial(source, (e - e // 2, e // 2) + (0,) * (len(source) - 2)), images


@settings(max_examples=80, deadline=None)
@given(substitutions())
@example(top_substitution(VARSETS[3], VARSETS[4], 5, 255))
@example(top_substitution(VARSETS[4], VARSETS[6], 2, 256))
@example(top_substitution(VARSETS[6], VARSETS[3], 3, 65535))
@example(top_substitution(VARSETS[3], VARSETS[3], 4, 65536))
@example((Poly.constant(VARSETS[3], 5), {"v0": Poly.variable(VARSETS[4], "v1")}))
@example((Poly.constant(VARSETS[0], 5), {"v0": Poly.variable(VARSETS[4], "v1")}))  # no variable
def test_packed_substitute_matches_reference(case):
    p, images = case
    assert p.substitute(images) == ref_substitute(p, images)


def generated_group(vars, generators):
    """Every signed permutation the generators compose to, the identity included, sorted."""
    elements = {(tuple(range(len(vars))), 1)}
    frontier = list(elements)
    while frontier:
        perm, character = frontier.pop()
        for g in generators:
            element = (tuple(g.perm[i] for i in perm), character * g.character)
            if element not in elements:
                elements.add(element)
                frontier.append(element)
    return [SignedPermAction(vars, perm, character) for perm, character in sorted(elements)]


def named_groups(vars):
    """The groups the package sums over: signed S4, the four-arc reflection pair, the identity."""
    identity = SignedPermAction(vars, tuple(range(len(vars))), 1)
    groups = [[identity], [identity, SignedPermAction(vars, identity.perm, -1)]]
    if len(vars) == 4:
        groups += [signed_s4(vars, "sign"), signed_s4(vars, "trivial")]
    return groups


def homogeneous_polys(vars, d, max_size=5):
    exps = st.lists(st.integers(0, d), min_size=len(vars) - 1, max_size=len(vars) - 1).map(
        lambda cuts: tuple(b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [d]))
    )
    return st.dictionaries(exps, coefficients, max_size=max_size).map(lambda t: Poly(vars, t))


@st.composite
def symmetrizations(draw):
    """A homogeneous polynomial, a group of signed permutations, and whether to pre-sum it.

    The group is one the package uses or the one generated by up to two
    random signed permutations, which may hold the identity permutation
    with character -1.  Pre-summed inputs are chi-symmetric: a first
    pass's output.
    """
    vars = draw(st.sampled_from(KERNEL_VARSETS))
    p = draw(homogeneous_polys(vars, draw(st.integers(0, 6))))
    perms = st.permutations(range(len(vars))).map(tuple)
    actions = st.builds(partial(SignedPermAction, vars), perms, st.sampled_from([1, -1]))
    group = draw(
        st.one_of(
            st.sampled_from(named_groups(vars)),
            # one generator in six variables keeps the group small: a cyclic one
            st.lists(actions, min_size=1, max_size=1 if len(vars) == 6 else 2).map(
                partial(generated_group, vars)
            ),
        )
    )
    return (ref_symmetrize(p, group) if draw(st.booleans()) else p), group


S4_SIGN, S4_PLAIN = signed_s4(YVARS, "sign"), signed_s4(YVARS, "trivial")
# repeated exponents: a transposition with character -1 fixes y^(2,2,1,0), so its orbit sums to 0
REPEATED = Poly(YVARS, {(2, 2, 1, 0): 3, (1, 2, 2, 0): -5, (0, 0, 5, 0): 2, (1, 1, 1, 2): 1})


@settings(max_examples=100, deadline=None)
@given(symmetrizations())
@example((REPEATED, S4_SIGN))
@example((REPEATED, S4_PLAIN))
@example((ref_symmetrize(REPEATED, S4_PLAIN), S4_PLAIN))
@example((ref_symmetrize(Poly.monomial(YVARS, (4, 2, 1, 0)), S4_SIGN), S4_SIGN))
@example((Poly.monomial(Z3VARS, (3, 1, 1)), named_groups(Z3VARS)[1]))  # the four-arc reflection pair
def test_relabelling_matches_reference(case):
    p, group = case
    assert symmetrize(p, group) == ref_symmetrize(p, group)
    # each element's relabelling is the reference's action of that element alone
    for action in group:
        image = {action.relabel(e): action.character * c for e, c in p.terms.items()}
        assert Poly(p.vars, image) == ref_symmetrize(p, [action])


def division_outcome(divide, p, d):
    try:
        return divide(p, d)
    except NotDivisibleError:
        return NotDivisibleError


@st.composite
def divisions(draw):
    """p = q*d, or that plus a remainder r, over 3, 4 or 6 variables."""
    vars = draw(st.sampled_from(KERNEL_VARSETS))
    q = draw(kernel_polys(vars, max_exp=3, max_size=4))
    d = draw(kernel_polys(vars, max_exp=3, max_size=4).filter(lambda d: not d.is_zero()))
    r = draw(kernel_polys(vars, max_exp=4, max_size=2)) if draw(st.booleans()) else Poly(vars)
    return q * d + r, d


def graded_pair(top):
    """A dividend with an exponent of `top` and a divisor whose leading coefficient is 3."""
    vars = VARSETS[4]
    d = Poly(vars, {(1, 1, 0, 0): 3, (0, 0, 2, 0): -2, (1, 0, 0, 0): 1})
    q = Poly(vars, {(top - 1, 0, 0, 1): -4, (0, 2, 0, 0): 7})
    return q * d, d


@settings(max_examples=150, deadline=None)
@given(divisions())
@example(graded_pair(255))
@example(graded_pair(256))  # an exponent of 256 needs the two-byte layout
@example(graded_pair(40000))
@example((graded_pair(300)[0] + Poly.monomial(VARSETS[4], (0, 0, 0, 300)), graded_pair(300)[1]))
@example((Poly.monomial(VARSETS[3], (2, 0, 0)).scale(6), Poly.monomial(VARSETS[3], (1, 0, 0)).scale(4)))
@example((Poly.monomial(VARSETS[3], (0, 2, 0)), Poly.monomial(VARSETS[3], (0, 0, 3))))
@example((Poly(VARSETS[3]), Poly.monomial(VARSETS[3], (1, 0, 0)).scale(-2)))
def test_divide_exact_matches_reference(case):
    p, d = case
    outcome = division_outcome(divide_exact, p, d)
    assert outcome == division_outcome(ref_divide_exact, p, d)
    if outcome is not NotDivisibleError:
        assert outcome * d == p


def test_divide_exact_on_the_reference_examples():
    # the leading coefficient 3 does not divide 2, and 256 needs two-byte fields
    p, d = graded_pair(256)
    assert divide_exact(p, d) == ref_divide_exact(p, d) == Poly(
        VARSETS[4], {(255, 0, 0, 1): -4, (0, 2, 0, 0): 7}
    )
    with pytest.raises(NotDivisibleError):
        divide_exact(p + Poly.monomial(VARSETS[4], (257, 1, 0, 0)).scale(2), d)
    with pytest.raises(NotDivisibleError):
        ref_divide_exact(p + Poly.monomial(VARSETS[4], (257, 1, 0, 0)).scale(2), d)


@pytest.mark.parametrize("seed, source, target", [(1, 4, 3), (2, 3, 4), (3, 6, 3)])
def test_one_table_serves_many_polynomials(seed, source, target):
    # 200 polynomials through one table, in a random order of sizes: some
    # images need the two-byte layout (x^100 to the third power and more),
    # and the one-byte images after them are still right
    rng = random.Random(seed)
    source, target = VARSETS[source], VARSETS[target]

    def random_poly(vars, max_exp, size):
        terms = {
            tuple(rng.randint(0, max_exp) for _ in vars.names): rng.choice([-3, -1, 1, 2, 5])
            for _ in range(size)
        }
        return Poly(vars, terms)

    images = {name: random_poly(target, 2, 3) for name in source.names}
    images[source.names[-1]] = Poly(target, {(100,) + (0,) * (len(target) - 1): 1, (0,) * len(target): -2})
    table = SubstitutionTable(source, images)
    tops = []
    for i in range(200):
        p = random_poly(source, 3 if i % 50 > 40 else 2, rng.randint(0, 4))
        image = table(p)
        assert image == ref_substitute_per_call(p, images)
        assert image.terms == ref_substitute_per_call(p, images).terms
        tops.append(image.top)
    assert max(tops[:41]) <= 255 < max(tops[41:50]) and max(tops[50:91]) <= 255
    assert table(Poly.constant(source, 7)) == Poly.constant(target, 7)


def test_packed_images_share_one_layout():
    # the image of `large` needs two-byte fields (x^100 to the third power),
    # the image of `small` one-byte ones; their product and sum pack the
    # small one into the wider layout too, once
    source, target = VARSETS[4], VARSETS[3]
    rng = random.Random(5)
    images = {
        name: Poly(target, {tuple(rng.randint(0, 2) for _ in range(3)): rng.choice([-2, 1, 3]) for _ in range(3)})
        for name in source.names
    }
    images["v3"] = Poly(target, {(100, 0, 0): 1, (0, 0, 0): -2})
    small = Poly(source, {(1, 1, 0, 0): 2, (0, 0, 2, 0): -1})
    large = Poly(source, {(0, 1, 0, 3): 1, (2, 0, 0, 0): 5})
    table = SubstitutionTable(source, images)
    s, l = table(small), table(large)
    assert s.top <= 255 < l.top
    for a, b in ((s, l), (l, s)):
        assert a * b == ref_substitute_per_call(small * large, images)
        assert a + b == ref_substitute_per_call(small + large, images)
    assert s.packed(Packing(3, l.top)) is s.packed(Packing(3, 256))
    assert table(Poly(source)).is_zero()


def test_the_homomorphism_law_holds_at_degree_130():
    # y3 and y4 go to binomials in regime two, so their degree-260 images
    # stay small; p*q needs two-byte fields, and its layout holds sp*sq
    def y34(terms):
        return Poly(YVARS, {(0, 0, a, 130 - a): c for a, c in terms.items()})

    p, q = y34({130: 1, 64: -3, 1: 2}), y34({129: 5, 66: 1, 0: -1})
    table = asymptotics.regime_table(asymptotics.REGIME_TWO)
    assert verifier._homomorphism({"two": table}, p, q) == "homomorphism"
    assert table(p * q).top == 260
    assert table(p * q) == table(p) * table(q) == ref_substitute(p * q, asymptotics._shared_images("two"))


def covered(op, reference):
    """`reference`, recording the coverage op of the function it stands in for."""

    def run(*args):
        _coverage.touch(op)
        return reference(*args)

    return run


def homogeneous_y(degree):
    """Homogeneous polynomials in y1..y4 of a degree, one to four terms."""
    exps = st.lists(st.integers(0, degree), min_size=3, max_size=3).map(sorted).map(
        lambda c: (c[0], c[1] - c[0], c[2] - c[1], degree - c[2])
    )
    nonzero = coefficients.filter(bool)
    return st.dictionaries(exps, nonzero, min_size=1, max_size=4).map(partial(Poly, YVARS))


slice_factor_pairs = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda degrees: st.tuples(*map(homogeneous_y, degrees))
)


def y(*exps):
    return Poly.monomial(YVARS, exps)


@settings(max_examples=80, deadline=None)
@given(slice_factor_pairs)
@example((y(3, 1, 0, 0) + y(0, 0, 2, 2), (y(3, 1, 0, 0) - y(0, 0, 2, 2)) * y(1, 0, 0, 0)))  # cross pairs cancel
@example((Y["y1"] + Y["y2"], y(2, 2, 4, 0)))  # symmetric in y1, y2: the odd row is 0
@example((y(1, 1, 1, 0), y(2, 2, 2, 0) + y(3, 3, 0, 0).scale(2) - y(0, 0, 0, 6) + y(5, 0, 1, 0)))  # repeated exponents
@example((Poly.constant(YVARS, 3), y(4, 2, 1, 0) - y(2, 4, 0, 1)))
def test_skew_rows_are_the_group_sum_of_the_expanded_product(pair):
    # the row's entry at basis tuple l is the group sum's coefficient at y^l
    # over l's stabilizer order, and the group sum lives on the basis orbits
    p, q = pair
    degree = sum(next(iter(p.terms))) + sum(next(iter(q.terms)))
    ctx = _SkewSliceContext(degree)
    group_sum = ref_symmetrize(ref_mul(p, q), signed_s4(YVARS, "sign" if degree % 2 else "trivial"))
    stabilizer = [prod(factorial(rep.count(e)) for e in set(rep)) for rep in ctx.basis]
    expected = []
    for rep, order in zip(ctx.basis, stabilizer):
        coeff, rest = divmod(group_sum.terms.get(rep, 0), order)
        assert rest == 0
        expected.append(coeff)
    orbits = set(ctx.basis)
    assert all(tuple(sorted(e, reverse=True)) in orbits for e in group_sum.terms)
    assert ctx.skew_row(p, q) == ctx.skew_row(q, p) == expected
    assert ctx.skew_row(ref_mul(p, q)) == expected


@pytest.mark.parametrize("seed", [1, 7, 2301])
def test_run_all_reports_the_same_checks_through_the_references(monkeypatch, seed):
    # one run as is, one with the group sum, the division and every
    # substitution (one-shot and regime tables) replaced by the references
    def checks():
        report = verifier.run_all(verifier.RunConfig(property_seed=seed))
        return [(c.id, c.params, c.expected, c.actual, c.passed) for c in report.checks]

    fast = checks()
    group_sum = covered("multipoly.symmetrize", ref_symmetrize)
    for module in (multipoly, verifier, diagram_spaces):
        monkeypatch.setattr(module, "symmetrize", group_sum)
    for module in (multipoly, verifier):
        monkeypatch.setattr(module, "divide_exact", covered("multipoly.divide_exact", ref_divide_exact))
    substitute = covered("multipoly.substitute", ref_substitute_per_call)
    monkeypatch.setattr(Poly, "substitute", substitute)

    def regime_table(regime):
        _coverage.touch("asymptotics.substitute_regime")
        images = asymptotics._shared_images(regime.id)
        return lambda p: substitute(p, images)

    for module in (asymptotics, verifier):
        monkeypatch.setattr(module, "regime_table", regime_table)
    assert checks() == fast


def test_exponents_past_64_bits_overflow():
    x = Poly.monomial(VARSETS[3], (2**63, 0, 0))
    almost = Poly.monomial(VARSETS[3], (2**63 - 1, 0, 0))
    assert (x * almost).terms == {(2**64 - 1, 0, 0): 1}
    with pytest.raises(OverflowError):
        x * x
    with pytest.raises(OverflowError):
        x**2
    with pytest.raises(OverflowError):
        Poly.monomial(VARSETS[3], (2, 0, 0)).substitute({"v0": x, "v1": x, "v2": x})
    # a Poly may hold such an exponent and add it; a product, power or
    # substitution whose result could hold it overflows
    big = Poly.monomial(VARSETS[3], (2**70, 0, 0))
    assert (big + big).terms == {(2**70, 0, 0): 2}
    with pytest.raises(OverflowError):
        big**1


def test_power_rejects_bool_and_float():
    for bad in (True, False, 1.0, -1):
        with pytest.raises(ValueError):
            Y["y1"] ** bad


def test_substitute_rejects_non_poly_images():
    with pytest.raises(TypeError):
        Y["y1"].substitute({"y1": 1})
    with pytest.raises(TypeError):
        Poly(YVARS).substitute({"y1": "y2"})


def test_substitute_checks_image_varsets_before_the_zero_shortcut():
    mixed = {"y1": Y["y1"], "y2": Poly.variable(XVARS, "x1")}
    with pytest.raises(ValueError):
        Poly(YVARS).substitute(mixed)
    assert Poly(YVARS).substitute({"y1": Poly.variable(XVARS, "x1")}) == Poly(XVARS)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
def test_exponents_are_int_only(bad):
    # a float exponent used to be stored, and a product with it then failed in bit_length
    with pytest.raises(TypeError):
        Poly(YVARS, {(bad, 0, 0, 0): 1})
    with pytest.raises(TypeError):
        Poly.monomial(YVARS, (0, 0, bad, 0))


def test_coefficients_are_int_only():
    # 0.1 used to be stored as 3602879701896397/36028797018963968; a
    # Fraction, even an integral one, is not an int either
    exps = (1, 0, 0, 0)
    for bad in (Fraction(1, 2), Fraction(4, 2), 0.1, 1.0, "1/2", True):
        with pytest.raises(TypeError):
            Poly(YVARS, {exps: bad})
        with pytest.raises(TypeError):
            Poly.constant(YVARS, bad)
        with pytest.raises(TypeError):
            Poly.monomial(YVARS, exps).scale(bad)
    p = Poly(YVARS, {exps: 2, (0, 1, 0, 0): 0})
    assert p.terms == {exps: 2} and type(p.terms[exps]) is int


def test_evaluate_takes_exact_values_only():
    # 0.1 used to evaluate y1 to 3602879701896397/36028797018963968
    y1 = Y["y1"]
    for bad in (0.1, 1.0):
        with pytest.raises(TypeError):
            y1.evaluate({"y1": bad, "y2": 0, "y3": 0, "y4": 0})
    assert y1.evaluate({"y1": Fraction(1, 10), "y2": 0, "y3": 0, "y4": 0}) == Fraction(1, 10)
    assert (y1 * y1).evaluate({"y1": 3, "y2": 0, "y3": 0, "y4": 0}) == 9


def test_divide_exact_specific_skew_image():
    delta = discriminant(YVARS)
    image = symmetrize(Poly.monomial(YVARS, (5, 3, 1, 0)), signed_s4(YVARS, "sign"))
    quotient = divide_exact(image, delta)
    assert quotient * delta == image
    assert degree(quotient) == 3


# --- u, v, w subring --------------------------------------------------------


def p2p3p4_product(n: int, m: int, k: int) -> Poly:
    """12 * P2(y1,y2,y3)^n * P3(y1,y2,y3)^(2m+3) * P4(y1,y2,y3,y4)^k."""
    return (
        p2(YVARS, ("y1", "y2", "y3")) ** n
        * p3(YVARS, ("y1", "y2", "y3")) ** (2 * m + 3)
        * p4(YVARS, ("y1", "y2", "y3", "y4")) ** k
    ).scale(12)


def uvw_images() -> dict[str, Poly]:
    """The y-polynomials that u, v, w stand for; inverse of _uvw_from_y."""
    return {
        "u": Y["y1"] - Y["y3"],
        "v": Y["y2"] - Y["y3"],
        "w": (Y["y1"] - Y["y4"]) * (Y["y2"] - Y["y4"]),
    }


def test_express_in_uvw_rejects_outsiders():
    with pytest.raises(NotInSubringError):
        _uvw_from_y(Y["y3"])
    with pytest.raises(NotInSubringError):
        _uvw_from_y(Y["y3"] - Y["y4"])


def test_express_in_uvw_basic_generators():
    images = uvw_images()
    for name in ("u", "v", "w"):
        g = _uvw_from_y(images[name])
        assert g.substitute(images) == images[name]


def uvw_powers() -> QFactorPowers:
    """The lemma's table of P2, P3 at (y1, y2, y3) and P4 at (y1..y4) in u, v, w."""
    return QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS[:1], _uvw_from_y)


def test_power_tables_refuse_negative_exponents():
    # a negative k once read the last entry built, and a negative n or m raised KeyError
    for filled in (False, True):
        powers = uvw_powers()
        if filled:
            assert powers.second(2).terms == {(2, 2, 2): 1} and powers.first(1, 1).terms
        for n, m, k in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                powers.first(n, m) if k == 0 else powers.second(k)


def test_q_readers_leave_the_exponent_check_to_the_table():
    # each reader reads first(n, m) and then second(k), so the table's own message names the value
    regime = asymptotics.REGIME_ONE
    ctx, powers, products = _SkewSliceContext(9), QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS), uvw_powers()
    images = QFactorPowers(_Q_TRIPLES, _Q_QUADS, partial(asymptotics.substitute_regime, regime=regime))
    readers = (
        lambda n, m, k: q_alternant_row(n, m, k, ctx, powers),
        lambda n, m, k: express_product_in_uvw(n, m, k, products),
        lambda n, m, k: asymptotics.verify_q_asymptotics(n, m, k, regime, images),
    )
    messages = {
        (-1, 0, 0): "exponents must be non-negative, not n=-1, m=0",
        (0, -1, 0): "exponents must be non-negative, not n=0, m=-1",
        (0, 0, -1): "exponent must be non-negative, not k=-1",
    }
    for read in readers:
        for nmk, message in messages.items():
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(*nmk)


def test_power_table_builds_its_factors_again_after_a_failure(monkeypatch):
    # a factor that fails to build leaves no half-built chain: the next read builds it again
    powers, failed = uvw_powers(), []
    original = multipoly.q_factor

    def fails_once(which, args):
        if which == "p3" and not failed:
            failed.append(which)
            raise ArithmeticError(which)
        return original(which, args)

    monkeypatch.setattr(multipoly, "q_factor", fails_once)
    with pytest.raises(ArithmeticError):
        powers.first(1, 1)
    assert failed and powers.first(1, 1) == uvw_powers().first(1, 1)


def test_power_table_moves_its_chains_to_wider_fields():
    # second(k) = (u v w)^k is one term, so second(300) needs two-byte fields:
    # the chain's products move to them there, and entries read before it,
    # entries the chains passed but not yet read, and chain steps in the wider
    # layout all equal a table that read in reverse order
    one_term = {k: Poly.monomial(UVWVARS, (k, k, k)) for k in range(301)}
    order = [("first", (2, 1)), ("second", (5,)), ("first", (0, 0)), ("second", (2,))]
    order += [("second", (300,)), ("second", (3,)), ("first", (1, 1)), ("first", (0, 1))]
    order += [("first", (3, 1)), ("first", (1, 2)), ("second", (301,))]
    powers, reversed_order = uvw_powers(), uvw_powers()
    entries = {}
    for method, args in order:
        entries[method, args] = getattr(powers, method)(*args)
        if method == "second" and args[0] <= 300:
            assert entries[method, args] == one_term[args[0]]
    for key in reversed(order):
        assert getattr(reversed_order, key[0])(*key[1]) == entries[key], key
    for key, entry in entries.items():
        assert getattr(powers, key[0])(*key[1]) is entry, key
    assert entries["second", (301,)].terms == {(301, 301, 301): 1}


def test_power_table_sizes_its_fields_from_the_carried_factors():
    # carrying y_i to y_i^5 makes P2^n exponents 5 times its degree; fields sized
    # from the y-degree alone would overflow silently past n = 24
    fifth = SubstitutionTable(YVARS, {y: Y[y] ** 5 for y in YVARS.names})
    carried = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS, fifth)
    plain = QFactorPowers(_Q_TRIPLES[:1], _Q_QUADS)
    for n, k in ((20, 10), (30, 13)):
        assert carried.first(n, 0) == fifth(plain.first(n, 0))
        assert carried.second(k) == fifth(plain.second(k))


def test_power_table_fields_hold_a_product_not_only_its_larger_factor():
    # P2^100 reaches u^200 and P3^43 u^86, each in one-byte fields; their
    # product reaches u^286, so the layout is sized by the sum, not the max
    p2u, p3u = (_uvw_from_y(factor(YVARS, _Q_TRIPLES[0])) for factor in (p2, p3))
    assert max(map(max, (p2u ** 100).terms)) == 200 and max(map(max, (p3u ** 43).terms)) == 86
    assert uvw_powers().first(100, 20) == p2u ** 100 * p3u ** 43


def test_express_in_uvw_reconstructs_products():
    # every lemma triple to d=8, the first spot checks among them, read from
    # one table in suite order and from a fresh one in a shuffled order: a
    # chain head extended past a smaller exponent would show in one of them
    triples = [t for d in range(9) for t in _lemma_triples(d)]
    assert {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)} <= set(triples)
    expected = {}
    suite_order = uvw_powers()
    for nmk in triples:
        product = p2p3p4_product(*nmk)
        expected[nmk] = _uvw_from_y(product)
        assert expected[nmk] == express_product_in_uvw(*nmk, suite_order)
        assert expected[nmk].substitute(uvw_images()) == product
    shuffled = uvw_powers()
    for nmk in random.Random(8).sample(triples, len(triples)):
        assert express_product_in_uvw(*nmk, shuffled) == expected[nmk], nmk


U, V, R = (Poly.variable(_UVRS, n) for n in ("u", "v", "r"))


def compose_w(g: Poly) -> Poly:
    """g(u, v, w) with w = (u+r)(v+r), in the change-of-coordinate variables."""
    return g.substitute({"u": U, "v": V, "w": (U + R) * (V + R)})


uvw_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=5
).map(partial(Poly, UVWVARS))


@settings(max_examples=60, deadline=None)
@given(uvw_polys)
@example(Poly.variable(UVWVARS, "w") ** 3)
def test_uvw_from_uvrs_inverts_composition_with_w(g):
    assert _uvw_from_uvrs(compose_w(g)) == g


@settings(max_examples=60, deadline=None)
@given(uvw_polys.map(compose_w), uvw_polys.filter(lambda h: h.terms).map(compose_w))
@example(Poly(_UVRS), R)
def test_uvw_from_uvrs_refuses_r_times_a_member(g, h):
    # r -> -(u+v)-r fixes u, v and w but turns r*h into -(u+v+r)*h, so
    # g + r*h is no member.  The example r*r = r^2 has an even top degree,
    # but its remainder r^2 - w = -(u+v)r - uv has an odd one.
    with pytest.raises(NotInSubringError):
        _uvw_from_uvrs(g + R * h)


def test_express_product_degree_is_odd():
    for nmk in ((0, 0, 0), (2, 1, 1)):
        assert degree(p2p3p4_product(*nmk)) % 2 == 1
