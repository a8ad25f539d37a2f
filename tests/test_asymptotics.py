"""Regime substitutions, exact leading terms, closed-form comparisons."""

import random
import sys
from fractions import Fraction
from functools import partial, reduce
from math import lcm
from operator import add, mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jd3 import asymptotics, cli
from jd3.asymptotics import (
    DEFAULT_REGIMES,
    TVARS,
    ExpVector,
    PuiseuxPoly,
    REGIME_ONE,
    REGIME_TWO,
    Regime,
    _shared_images,
    expected_q_leading,
    leading_term,
    substitute_regime,
    substituted_q,
    verify_q_asymptotics,
)
from jd3.multipoly import (
    _Q_QUADS,
    _Q_TRIPLES,
    Poly,
    QFactorPowers,
    XVARS,
    YVARS,
    p2,
    q_factor,
    q_poly,
)
from jd3.verifier import _lemma_triples, verify_asymptotics

Y = {n: Poly.variable(YVARS, n) for n in YVARS.names}


def regime_factor(regime_id, which, args):
    """P2/P3/P4 under four times the regime substitution, built apart from any table."""
    return q_factor(which, args).substitute(_shared_images(regime_id))


def image_powers(regime):
    """A table of Q's factor images under `regime`, as the asymptotics suite builds one."""
    return QFactorPowers(_Q_TRIPLES, _Q_QUADS, partial(substitute_regime, regime=regime))


def expanded(p: PuiseuxPoly) -> Poly:
    """The t-polynomial that p's factors multiply out to."""
    return reduce(mul, p.factors)


def quartered(poly):
    """The paper's t-polynomial of an integer 4x image, as {t-exponent: c/4^|e|}."""
    return {e: Fraction(c, 4 ** sum(e)) for e, c in poly.terms.items()}


def four_times(terms):
    """The 4x image of one of the paper's t-polynomials, {t-exponent: c}: c*4^|e| at each t^e."""
    scaled = {e: Fraction(c) * 4 ** sum(e) for e, c in terms.items()}
    assert all(c.denominator == 1 for c in scaled.values())
    return Poly(TVARS, {e: c.numerator for e, c in scaled.items()})


def value_at(vec: ExpVector, regime: Regime) -> Fraction:
    """The exact exponent value alpha*a + beta*b + gamma*c of a vector under a regime."""
    return vec.alpha * regime.a + vec.beta * regime.b + vec.gamma * regime.c


def descending_classes(poly: Poly, regime: Regime):
    """Every nonzero exponent class of a t-polynomial as (key, coefficient, vectors), top down.

    Each is the `top_class()` of what is left of `poly` once the members
    of the classes above it are removed; cancelled classes stay and are
    skipped, and the zero remainder ends the list.
    """
    classes = []
    while True:
        try:
            top = PuiseuxPoly(regime, poly).top_class()
        except ValueError:
            return classes
        classes.append(top)
        poly = Poly(TVARS, {e: c for e, c in poly.terms.items() if ExpVector(*e) not in top[2]})


def single_term(poly: Poly, regime: Regime):
    ((_, coeff, vecs),) = descending_classes(poly, regime)
    return coeff, vecs


# --- regimes -----------------------------------------------------------------


def test_default_regime_inequalities():
    for regime in (REGIME_ONE, REGIME_TWO):
        a, b, c = regime.a, regime.b, regime.c
        assert a > b > c > 0
    assert REGIME_ONE.a - REGIME_ONE.b < REGIME_ONE.b - REGIME_ONE.c
    assert REGIME_ONE.b - REGIME_ONE.c < 2 * (REGIME_ONE.a - REGIME_ONE.b)
    assert REGIME_TWO.b - REGIME_TWO.c < REGIME_TWO.a - REGIME_TWO.b
    assert REGIME_TWO.a - REGIME_TWO.b < 2 * (REGIME_TWO.b - REGIME_TWO.c)


def test_regime_validation():
    with pytest.raises(ValueError):
        Regime("one", 1, 2, 3)  # not decreasing
    with pytest.raises(ValueError):
        Regime("one", 2, Fraction(7, 5), 1)  # regime-two shape under id one
    with pytest.raises(ValueError):
        Regime("two", 2, Fraction(8, 5), 1)
    with pytest.raises(ValueError):
        Regime("three", 3, 2, 1)


def test_regime_exponents_are_exact():
    # b = 1.6 used to be stored as 3602879701896397/2251799813685248
    for a, b, c in ((2, 1.6, 1), (2.0, Fraction(8, 5), 1), (2, Fraction(8, 5), 1.0)):
        with pytest.raises(TypeError):
            Regime("one", a, b, c)
    assert Regime("one", 2, Fraction(8, 5), 1) == REGIME_ONE


@pytest.mark.parametrize("field", ["id", "a", "b", "c"])
def test_regime_fields_are_read_only(field):
    with pytest.raises(AttributeError):
        setattr(REGIME_ONE, field, getattr(REGIME_TWO, field))
    assert REGIME_ONE == ("one", 2, Fraction(8, 5), 1)


# --- substitution ------------------------------------------------------------


def test_y1_minus_y4_is_ta_in_regime_one():
    coeff, vecs = single_term(substitute_regime(Y["y1"] - Y["y4"], REGIME_ONE), REGIME_ONE)
    assert coeff == 1 and vecs == (ExpVector(1, 0, 0),)


def test_regime_one_defining_differences():
    for name, vec in (("y1", (1, 0, 0)), ("y2", (0, 1, 0)), ("y3", (0, 0, 1))):
        coeff, vecs = single_term(substitute_regime(Y[name] - Y["y4"], REGIME_ONE), REGIME_ONE)
        assert coeff == 1 and vecs == (ExpVector(*vec),)


def test_y1_minus_y2_is_tb_in_regime_two():
    coeff, vecs = single_term(substitute_regime(Y["y1"] - Y["y2"], REGIME_TWO), REGIME_TWO)
    assert coeff == 1 and vecs == (ExpVector(0, 1, 0),)


def test_face_sum_substitutes_to_zero():
    for regime in (REGIME_ONE, REGIME_TWO):
        image = substitute_regime(Y["y1"] + Y["y2"] + Y["y3"] + Y["y4"], regime)
        assert image.vars == TVARS and image.is_zero()


def test_substitute_requires_y_variables():
    # the regime table's own check refuses a constant too
    for p in (Poly.variable(XVARS, "x1"), Poly.constant(XVARS, 3)):
        with pytest.raises(ValueError, match="^variable sets differ"):
            substitute_regime(p, REGIME_ONE)


def test_regime_images_sum_to_zero():
    for regime_id in ("one", "two"):
        images = _shared_images(regime_id)
        total = images["y1"] + images["y2"] + images["y3"] + images["y4"]
        assert total.is_zero()


@pytest.fixture
def off_hyperplane(monkeypatch):
    """Replace one regime image by a form that moves the four images off e1 = 0."""

    def replace(regime_id: str, y: str, form: tuple[int, int, int]) -> None:
        record = asymptotics._REGIMES[regime_id]
        monkeypatch.setitem(asymptotics._REGIMES, regime_id, record._replace(images={**record.images, y: form}))
        _shared_images.cache_clear()

    yield replace
    _shared_images.cache_clear()


@pytest.mark.parametrize(
    "regime_id, y, form",
    [
        ("one", "y2", (-1, 3, 1)),  # 3tb - ta + tc for 3tb - ta - tc
        ("two", "y1", (2, -2, -1)),  # 2ta - 2tb - tc for 2ta + 2tb - tc
    ],
)
def test_off_hyperplane_images_fail_without_a_traceback(off_hyperplane, capsys, regime_id, y, form):
    off_hyperplane(regime_id, y, form)
    with pytest.raises(ValueError, match="do not sum to 0"):
        _shared_images(regime_id)
    report = verify_asymptotics(2)
    failed = {c.params["regime"] for c in report.checks if not c.passed}
    assert failed == {regime_id}
    assert all("do not sum to 0" in c.actual for c in report.checks if not c.passed)
    # the property suite builds its regime tables inside its law checks, so
    # the fault is theirs to report, and `jd3 all` prints the whole report
    assert cli.main(["all"]) == 1
    out, err = capsys.readouterr()
    laws = [line for line in out.splitlines() if " prop.regime_hom." in line]
    assert len(laws) == 50
    assert all(line.startswith("FAIL") and "do not sum to 0" in line for line in laws)
    assert "Traceback" not in out and "Traceback" not in err


def test_shared_regime_images_are_read_only():
    y1 = Poly.variable(YVARS, "y1")
    before = substitute_regime(y1, REGIME_ONE)
    image = _shared_images("one")["y1"]
    with pytest.raises(AttributeError):
        image.terms.clear()
    with pytest.raises(TypeError):
        image.terms[(0, 0, 0)] = 1
    assert substitute_regime(y1, REGIME_ONE) == before


CUSTOM_ONE = Regime("one", Fraction(3), Fraction(12, 5), Fraction(3, 2))

coefficients = st.integers(-9, 9)
# degrees 0 to 12 in one polynomial; the constant term is drawn on its own
mixed_degree_y_polys = st.builds(
    lambda terms, constant: Poly(YVARS, {**terms, (0, 0, 0, 0): constant}),
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), coefficients, min_size=1, max_size=6),
    coefficients,
)


@settings(max_examples=60, deadline=None)
@given(mixed_degree_y_polys, st.sampled_from([REGIME_ONE, REGIME_TWO, CUSTOM_ONE]))
def test_substitute_regime_matches_quarter_images(p, regime):
    # the integer images with 4^-|e| per output term against sympy's
    # substitution of the paper's images, a quarter of the integer ones
    ts = sympy.symbols(TVARS.names)
    ys = sympy.symbols(YVARS.names)

    def to_sympy(poly, symbols):
        terms = (c * sympy.prod([s**k for s, k in zip(symbols, e)]) for e, c in poly.terms.items())
        return sum(terms, sympy.Integer(0))

    quarter = {
        y: sympy.Rational(1, 4) * to_sympy(image, ts)
        for y, image in zip(ys, _shared_images(regime.id).values())
    }
    paper = sympy.Poly(sympy.expand(to_sympy(p, ys).subs(quarter, simultaneous=True)), *ts)
    expected = {
        e: Fraction(int(c.p), int(c.q)) for e, c in zip(paper.monoms(), paper.coeffs()) if c
    }
    image = substitute_regime(p, regime)
    assert quartered(image) == expected
    assert image == four_times(expected)


def test_regime_factors_have_int_coefficients():
    factors = [("p2", t) for t in _Q_TRIPLES] + [("p3", t) for t in _Q_TRIPLES]
    factors += [("p4", q) for q in _Q_QUADS]
    for regime_id in ("one", "two"):
        for which, args in factors:
            factor = regime_factor(regime_id, which, args)
            assert factor.terms and all(type(c) is int for c in factor.terms.values())


def test_top_class_keeps_the_exact_vectors():
    # t^(5b+4c) and t^(3a+6c) share the value 12 under regime one: equal merged
    # coefficients, different exponent vectors
    first = PuiseuxPoly(REGIME_ONE, Poly.monomial(TVARS, (0, 5, 4)))
    second = PuiseuxPoly(REGIME_ONE, Poly.monomial(TVARS, (3, 0, 6)))
    assert first.top_class()[:2] == second.top_class()[:2] == (60, Fraction(1, 4**9))
    assert first.top_class()[2] == (ExpVector(0, 5, 4),) != second.top_class()[2]


# --- integer exponent keys ---------------------------------------------------


def reference_classes(terms, regime):
    """A term map grouped by the exact value_at: value -> (coefficient, vectors)."""
    acc = {}
    for exps, coeff in terms.items():
        vec = ExpVector(*exps)
        acc.setdefault(value_at(vec, regime), []).append((vec, coeff))
    classes = {}
    for value, members in acc.items():
        total = sum(c for _, c in members)
        if total:
            classes[value] = (total, tuple(sorted(v for v, _ in members)))
    return classes


@st.composite
def drawn_regimes(draw):
    """(a, b, c) drawn inside a regime's inequalities, as the benchmark draws them.

    With x = a - b and y = b - c, regime one needs x < y < 2x and regime two
    y < x < 2y; c and the smaller difference have denominators 2 to 7, the
    ratio of the two differences one of 3 to 9.
    """
    small = st.builds(Fraction, st.integers(1, 12), st.integers(2, 7))
    ratio = st.integers(3, 9).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: 1 + Fraction(p, q))
    )
    c, low = draw(small), draw(small)
    high = low * draw(ratio)
    if draw(st.booleans()):
        return Regime("one", c + high + low, c + high, c)
    return Regime("two", c + high + low, c + low, c)


# t^(5b+4c) and t^(3a+6c) collide under regime one (value 12 at a, b, c = 2, 8/5, 1)
COLLISION = {(0, 5, 4): 1, (3, 0, 6): 2}

t_polys = st.builds(
    lambda terms, collide: Poly(TVARS, {**terms, **(COLLISION if collide else {})}),
    st.dictionaries(st.tuples(*[st.integers(0, 7)] * 3), coefficients, max_size=8),
    st.booleans(),
)


@settings(max_examples=120, deadline=None)
@given(t_polys, st.one_of(drawn_regimes(), st.sampled_from([REGIME_ONE, REGIME_TWO])))
def test_integer_keys_match_value_at_grouping(poly, regime):
    # poly is read as a 4x image; the oracle groups its quartered terms by value_at
    p = PuiseuxPoly(regime, poly)
    expected = reference_classes(quartered(poly), regime)
    d = lcm(regime.a.denominator, regime.b.denominator, regime.c.denominator)
    assert all(type(w) is int for w in regime.weights)
    assert regime.weights == (d * regime.a, d * regime.b, d * regime.c)
    classes = descending_classes(poly, regime)
    assert all(type(key) is int for key, _, _ in classes)
    assert [(Fraction(key, d), coeff, vecs) for key, coeff, vecs in classes] == [
        (value, *expected[value]) for value in sorted(expected, reverse=True)
    ]
    if expected:
        top = max(expected)
        coeff, vecs = expected[top]
        assert leading_term(p) == (coeff, vecs[0])
    else:
        with pytest.raises(ValueError):
            leading_term(p)


def test_collision_merges_under_integer_keys():
    # the weights are 5 * (a, b, c), so the key 60 is the exponent value 12
    assert REGIME_ONE.weights == (10, 8, 5)
    merged = (60, 3, (ExpVector(0, 5, 4), ExpVector(3, 0, 6)))
    assert descending_classes(four_times(COLLISION), REGIME_ONE) == [merged]
    assert value_at(ExpVector(0, 5, 4), REGIME_ONE) == Fraction(60, 5)
    cancelled = four_times({(0, 5, 4): 1, (3, 0, 6): -1})
    assert descending_classes(cancelled, REGIME_ONE) == [] and not cancelled.is_zero()
    with pytest.raises(ValueError):
        PuiseuxPoly(REGIME_ONE, cancelled).top_class()


def test_class_members_of_different_degrees_unscale_apart():
    # t^a and t^(2c) share the key 10 under regime one but come from y-degrees 1 and 2
    def classes(c_a, c_2c):
        return descending_classes(Poly(TVARS, {(1, 0, 0): c_a, (0, 0, 2): c_2c}), REGIME_ONE)

    vecs = (ExpVector(0, 0, 2), ExpVector(1, 0, 0))
    assert classes(4, 16) == [(10, 2, vecs)]
    assert classes(4, -16) == []
    assert classes(1, 1) == [(10, Fraction(5, 16), vecs)]
    lower = PuiseuxPoly(REGIME_ONE, Poly(TVARS, {(1, 0, 0): 4, (0, 0, 2): -16, (0, 1, 0): 8}))
    assert leading_term(lower) == (2, ExpVector(0, 1, 0))


def test_derived_weights_leave_regime_identity_unchanged():
    same = Regime("one", Fraction(4, 2), Fraction(16, 10), 1)
    assert same == REGIME_ONE and hash(same) == hash(REGIME_ONE)
    assert hash(REGIME_ONE) == hash(("one", Fraction(2), Fraction(8, 5), Fraction(1)))
    assert repr(REGIME_ONE) == (
        "Regime(id='one', a=Fraction(2, 1), b=Fraction(8, 5), c=Fraction(1, 1))"
    )
    # half of regime one has the same integer weights, over denominator 10, but
    # is another regime
    half = Regime("one", Fraction(1), Fraction(4, 5), Fraction(1, 2))
    assert half.weights == REGIME_ONE.weights == (10 * half.a, 10 * half.b, 10 * half.c)
    assert half != REGIME_ONE


def test_regime_replace_validates_and_derives_as_the_constructor_does():
    # _replace builds through _make, as the constructor does: it is
    # validated with the constructor's messages and derives weights
    with pytest.raises(ValueError, match="regime requires a > b > c > 0"):
        REGIME_ONE._replace(a=1)
    with pytest.raises(ValueError, match="regime one requires a-b < b-c < 2\\(a-b\\)"):
        REGIME_ONE._replace(c=Fraction(3, 2))
    with pytest.raises(ValueError, match="regime id must be 'one' or 'two'"):
        REGIME_ONE._replace(id="three")
    with pytest.raises(TypeError):
        REGIME_ONE._replace(b=1.6)
    moved = REGIME_ONE._replace(c=Fraction(11, 10))
    assert moved == Regime("one", 2, Fraction(8, 5), Fraction(11, 10))
    assert moved.weights == (20, 16, 11)


# --- leading terms -----------------------------------------------------------


def test_leading_term_simple_comparison():
    p = substitute_regime(Y["y1"] - Y["y4"] - (Y["y2"] - Y["y4"]), REGIME_ONE)
    coeff, exp = leading_term(PuiseuxPoly(REGIME_ONE, p))
    assert (coeff, exp) == (1, ExpVector(1, 0, 0))  # t^a - t^b leads with t^a


def test_leading_term_of_zero_rejected():
    zero = substitute_regime(Poly(YVARS), REGIME_ONE)
    with pytest.raises(ValueError):
        leading_term(PuiseuxPoly(REGIME_ONE, zero))


def test_mixed_regimes_rejected():
    # a PuiseuxPoly carries its regime, and * refuses two different ones
    one = PuiseuxPoly(REGIME_ONE, substitute_regime(Y["y1"], REGIME_ONE))
    two = PuiseuxPoly(REGIME_TWO, substitute_regime(Y["y1"], REGIME_TWO))
    with pytest.raises(ValueError):
        one * two


def test_product_keeps_both_operands_factors():
    # * never multiplies out: the product holds the operands' factors, and a
    # product of three factors is refused
    a, b, c = (PuiseuxPoly(REGIME_ONE, Poly.variable(TVARS, name)) for name in TVARS.names)
    product = a * b
    assert product.factors == a.factors + b.factors and product.regime == REGIME_ONE
    assert product.top_class() == (18, Fraction(1, 16), (ExpVector(1, 1, 0),))
    with pytest.raises(ValueError):
        product * c
    with pytest.raises(ValueError):
        c * product


def test_q000_leading_regime_one():
    p = substituted_q(0, 0, 0, REGIME_ONE, image_powers(REGIME_ONE))
    coeff, exp = leading_term(p)
    assert coeff == 9 and exp == ExpVector(6, 2, 1)


def test_q100_leading_regime_one():
    p = substituted_q(1, 0, 0, REGIME_ONE, image_powers(REGIME_ONE))
    coeff, exp = leading_term(p)
    assert coeff == 18 and exp == ExpVector(8, 2, 1)


def test_exp_vector_rendering():
    assert str(ExpVector(6, 2, 1)) == "6a+2b+c"
    assert str(ExpVector(9, 3, 1)) == "9a+3b+c"
    assert str(ExpVector(1, -1, 0)) == "a-b"
    assert str(ExpVector(0, 0, 0)) == "0"


def test_exp_vector_sorts_as_its_tuple():
    vectors = [ExpVector(1, 0, 0), ExpVector(0, 5, 1), ExpVector(1, -1, 2), ExpVector(0, 5, 0)]
    assert sorted(vectors) == [(0, 5, 0), (0, 5, 1), (1, -1, 2), (1, 0, 0)]
    assert ExpVector(2, 0, 0) > ExpVector(1, 9, 9)
    with pytest.raises(AttributeError):
        ExpVector(1, 0, 0).alpha = 2


def test_p2_power_two_orders_regime_one():
    # leading 2^n t^(2an); next term -n 2^n t^(2an-(a-b))
    base = p2(YVARS, ("y1", "y2", "y3"))
    for n in (1, 2, 3, 4):
        terms = descending_classes(substitute_regime(base**n, REGIME_ONE), REGIME_ONE)
        _, coeff0, vecs0 = terms[0]
        _, coeff1, vecs1 = terms[1]
        assert coeff0 == 2**n and vecs0 == (ExpVector(2 * n, 0, 0),)
        assert coeff1 == -n * 2**n and vecs1 == (ExpVector(2 * n - 1, 1, 0),)


def test_value_collisions_merge():
    # (0,5,4) and (3,0,6) share the value 12 under regime one
    one = DEFAULT_REGIMES["one"]
    assert value_at(ExpVector(0, 5, 4), one) == value_at(ExpVector(3, 0, 6), one) == 12


# --- closed-form comparisons -------------------------------------------------


def test_expected_closed_forms_at_origin():
    assert expected_q_leading(0, 0, 0, "one") == (9, ExpVector(6, 2, 1))
    assert expected_q_leading(0, 0, 0, "two") == (18, ExpVector(5, 3, 1))
    assert expected_q_leading(0, 0, 1, "two") == (6, ExpVector(9, 3, 1))


def rendered_closed_form(n, m, k, regime):
    coeff, exp = expected_q_leading(n, m, k, regime.id)
    return f"{coeff}*t^({exp})"


def test_verify_q_asymptotics_examples():
    one, two = image_powers(REGIME_ONE), image_powers(REGIME_TWO)
    assert verify_q_asymptotics(0, 0, 0, REGIME_ONE, one) == "9*t^(6a+2b+c)"
    assert verify_q_asymptotics(0, 0, 1, REGIME_TWO, two) == "6*t^(9a+3b+c)"
    assert verify_q_asymptotics(0, 0, 0, REGIME_TWO, two) == "18*t^(5a+3b+c)"


def test_verify_q_asymptotics_all_small_degrees():
    tables = {regime: image_powers(regime) for regime in (REGIME_ONE, REGIME_TWO)}
    for d in range(4):
        for m in range(d // 3 + 1):
            for k in range((d - 3 * m) // 2 + 1):
                n = d - 3 * m - 2 * k
                for regime in (REGIME_ONE, REGIME_TWO):
                    actual = verify_q_asymptotics(n, m, k, regime, tables[regime])
                    assert actual == rendered_closed_form(n, m, k, regime), (n, m, k)


def test_leading_coefficients_positive():
    tables = {regime: image_powers(regime) for regime in (REGIME_ONE, REGIME_TWO)}
    for d in range(4):
        for m in range(d // 3 + 1):
            for k in range((d - 3 * m) // 2 + 1):
                n = d - 3 * m - 2 * k
                for regime in (REGIME_ONE, REGIME_TWO):
                    coeff, _ = leading_term(substituted_q(n, m, k, regime, tables[regime]))
                    assert coeff > 0


def test_custom_regime_still_passes():
    custom = Regime("one", Fraction(3), Fraction(12, 5), Fraction(3, 2))
    actual = verify_q_asymptotics(0, 0, 0, custom, image_powers(custom))
    assert actual == rendered_closed_form(0, 0, 0, custom)


def test_factored_substitution_matches_direct():
    powers = image_powers(REGIME_ONE)
    for nmk in ((0, 0, 0), (1, 0, 0), (0, 0, 1)):
        direct = substitute_regime(q_poly(*nmk), REGIME_ONE)
        assert expanded(substituted_q(*nmk, REGIME_ONE, powers)) == direct
        assert all(type(c) is int for c in direct.terms.values())


def assembled_q(n, m, k, regime_id):
    """Q^{n,m,k}'s regime image multiplied out factor by factor, every power raised afresh."""
    factor = partial(regime_factor, regime_id)
    first = reduce(add, (factor("p2", t) ** n * factor("p3", t) ** (2 * m + 3) for t in _Q_TRIPLES))
    second = reduce(add, (factor("p4", q) ** k for q in _Q_QUADS))
    return first * second


def test_power_table_equals_the_factor_by_factor_product():
    # the CLI and the tests ask for entries out of suite order, so a chain
    # head extended past a smaller n would show in one of the two orders
    suite_order = [t for d in range(13) for t in _lemma_triples(d)]
    shuffled = random.Random(17).sample(suite_order, len(suite_order))
    for regime in (REGIME_ONE, REGIME_TWO):
        expected = {nmk: assembled_q(*nmk, regime.id).terms for nmk in suite_order}
        for order in (suite_order, shuffled):
            powers = image_powers(regime)
            for nmk in order:
                product = expanded(substituted_q(*nmk, regime, powers))
                assert product.terms == expected[nmk], (regime.id, nmk)


def test_leading_term_reads_only_the_top_class(monkeypatch):
    # one Fraction is built for the top class, none for the classes below it
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    p = substituted_q(2, 1, 1, REGIME_TWO, image_powers(REGIME_TWO))
    assert len(descending_classes(expanded(p), REGIME_TWO)) > 50
    monkeypatch.setattr(asymptotics, "Fraction", counting_fraction)
    assert leading_term(p) == expected_q_leading(2, 1, 1, "two")
    assert len(made) == 2  # the class read and the expected coefficient
    made.clear()
    p.top_class()
    assert made == []  # the top class is read once and kept


# --- the class walk over two factors ------------------------------------------


def grouped_top_class(poly, regime):
    """The top class of an expanded t-polynomial: every term grouped by key, read top down."""
    wa, wb, wc = regime.weights
    classes = {}
    for e in poly.terms:
        classes.setdefault(e[0] * wa + e[1] * wb + e[2] * wc, []).append(e)
    for key in sorted(classes, reverse=True):
        members = classes[key]
        degree = max(map(sum, members))
        s = sum(poly.terms[e] * 4 ** (degree - sum(e)) for e in members)
        if s:
            return key, Fraction(s, 4**degree), tuple(ExpVector(*e) for e in sorted(members))
    raise ValueError("zero polynomial has no leading term")


# exact regimes over large common denominators, as the benchmark draws them
WIDE_ONE = Regime("one", Fraction(286, 45), Fraction(251, 45), Fraction(196, 45))
WIDE_TWO = Regime("two", Fraction(300, 143), Fraction(239, 143), Fraction(197, 143))


def test_factor_walk_equals_the_expanded_top_class():
    assert WIDE_ONE.weights == (286, 251, 196) and WIDE_TWO.weights == (300, 239, 197)
    triples = [t for d in range(13) for t in _lemma_triples(d)]
    tables = {regime_id: image_powers(DEFAULT_REGIMES[regime_id]) for regime_id in ("one", "two")}
    for regime in (REGIME_ONE, REGIME_TWO, WIDE_ONE, WIDE_TWO):
        powers = tables[regime.id]
        for nmk in triples:
            walked = substituted_q(*nmk, regime, powers)
            product = powers.first(*nmk[:2]) * powers.second(nmk[2])
            expected = PuiseuxPoly(regime, product).top_class()
            assert walked.top_class() == expected == grouped_top_class(product, regime), nmk


def walked_and_expanded(first, second, regime=REGIME_ONE):
    """The walk's top class of first*second, checked against the expanded product's."""
    first, second = Poly(TVARS, first), Poly(TVARS, second)
    top = PuiseuxPoly(regime, first, second).top_class()
    assert top == grouped_top_class(first * second, regime)
    return top


# t^(5b+4c) - t^(3a+6c): one key (60 under regime one), one degree, merged sum 0
CANCELLING = {(0, 5, 4): 1, (3, 0, 6): -1}


def times(terms, exps):
    return {tuple(x + y for x, y in zip(e, exps)): c for e, c in terms.items()}


def test_walk_descends_past_cancelled_classes():
    # F = A t^a + A t^b + t^c and S = t^a - t^b with A cancelling: the classes
    # at keys 80 and 76 merge to 0, the two pair products at key 78 cancel
    # term by term, and the first surviving class, t^(a+c), has key 15
    first = {**times(CANCELLING, (1, 0, 0)), **times(CANCELLING, (0, 1, 0)), (0, 0, 1): 1}
    second = {(1, 0, 0): 1, (0, 1, 0): -1}
    product = Poly(TVARS, first) * Poly(TVARS, second)
    assert len(product.terms) == 6
    assert walked_and_expanded(first, second) == (15, Fraction(1, 16), (ExpVector(1, 0, 1),))


def test_walk_skips_a_top_class_of_different_degrees_merging_to_zero():
    # 4t^a - 16t^(2c) merges to 0 (degrees 1 and 2 at key 10), and so does
    # its product with t^a at key 20 and with t^c at key 15
    first = {(1, 0, 0): 4, (0, 0, 2): -16, (0, 1, 0): 8}
    second = {(1, 0, 0): 1, (0, 0, 1): 1}
    assert walked_and_expanded(first, second) == (18, Fraction(1, 2), (ExpVector(1, 1, 0),))


def test_two_class_pairs_on_one_key_render_as_merged(monkeypatch):
    # F's classes at keys 10 and 8 times S's at 10 and 8: the top pair merges
    # to 0, and (10, 8) and (8, 10) both land on key 18
    first = {(1, 0, 0): 4, (0, 0, 2): -16, (0, 1, 0): 1}
    second = {(1, 0, 0): 1, (0, 1, 0): 1}
    vecs = (ExpVector(0, 1, 2), ExpVector(1, 1, 0))
    assert walked_and_expanded(first, second) == (18, Fraction(4, 4**3), vecs)
    walked = PuiseuxPoly(REGIME_ONE, Poly(TVARS, first), Poly(TVARS, second))
    monkeypatch.setattr(asymptotics, "substituted_q", lambda n, m, k, regime, powers: walked)
    assert verify_q_asymptotics(0, 0, 0, REGIME_ONE, None) == "1/16*t^(b+2c) (merged exponent class)"


def test_zero_factor_has_no_top_class():
    factor = Poly(TVARS, {(1, 0, 0): 1})
    for factors in ((factor, Poly(TVARS)), (Poly(TVARS), factor), (Poly(TVARS),)):
        with pytest.raises(ValueError):
            PuiseuxPoly(REGIME_ONE, *factors).top_class()


def test_puiseux_poly_takes_one_or_two_t_factors():
    factor = Poly(TVARS, {(1, 0, 0): 1})
    for factors in ((), (factor,) * 3, (Poly.variable(YVARS, "y1"),), (factor, Poly(XVARS))):
        with pytest.raises(ValueError):
            PuiseuxPoly(REGIME_ONE, *factors)


def in_a_factor_table(frame) -> bool:
    """Whether a frame runs inside a method of a QFactorPowers table."""
    while frame is not None:
        if isinstance(frame.f_locals.get("self"), QFactorPowers):
            return True
        frame = frame.f_back
    return False


def test_verify_asymptotics_never_expands_q(monkeypatch):
    # the walk reads Q's leading class from its two factors: outside the
    # factor table a product multiplies two classes, never a whole factor,
    # so a fall-back to first * second fails this test
    returned, products = [], []
    original_q, original_mul = asymptotics.substituted_q, Poly.__mul__

    def kept(*args):
        returned.append(original_q(*args))
        return returned[-1]

    def watched(a, b):
        if not in_a_factor_table(sys._getframe(1)):
            products.append((a, b))
        return original_mul(a, b)

    monkeypatch.setattr(asymptotics, "substituted_q", kept)
    monkeypatch.setattr(Poly, "__mul__", watched)
    report = verify_asymptotics(12)
    assert report.summary["total"] == report.summary["passed"] == len(returned) == 204
    assert all(len(p.factors) == 2 for p in returned)
    factors = {id(f) for p in returned for f in p.factors}
    assert products and not any(id(a) in factors or id(b) in factors for a, b in products)
    # to d = 12 each leading class is one term of F times one term of S
    assert sum(len(a.terms) * len(b.terms) for a, b in products) == len(products) == 204


# --- homomorphism property ----------------------------------------------------


def test_substitute_regime_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        terms_p = {
            tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 3))
        }
        terms_q = {
            tuple(rng.randint(0, 2) for _ in range(4)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 3))
        }
        p = Poly(YVARS, terms_p)
        q = Poly(YVARS, terms_q)
        for regime in (REGIME_ONE, REGIME_TWO):
            sp, sq = substitute_regime(p, regime), substitute_regime(q, regime)
            assert substitute_regime(p * q, regime) == sp * sq
            assert substitute_regime(p + q, regime) == sp + sq
