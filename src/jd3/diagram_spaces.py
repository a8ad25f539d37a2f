"""Polynomial presentations of the 3-loop Jacobi diagram spaces.

The tetrahedron space is the S4-invariant part of Q[y1..y4]/(y1+y2+y3+y4),
with the action plain in even degrees and signed in odd degrees.  y4 is
eliminated by substitution, so every graded statement becomes plain linear
algebra over Q in the monomials of y1, y2, y3.  This module builds the
graded slices, the spanning families coming from the IHX relation between
the two computable internal graphs, and the closed-form dimension counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import _coverage
from .linalg import QMatrix, RowSpan, rank
from .multipoly import (
    Poly,
    SignedPermAction,
    XVARS,
    YVARS,
    Y3VARS,
    Z3VARS,
    act,
    degree_slice_monomials,
    perm_sign,
    signed_s4,
    symmetrize,
)

_ZERO = Fraction(0)
_QUARTER = Fraction(1, 4)


# ---------------------------------------------------------------------------
# Internal-graph catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InternalGraph:
    """One of the five trivalent graphs with first Betti number 3.

    All five have 4 vertices and 6 edges.  Only the two graphs carrying a
    polynomial presentation are computable here; the other three are
    eliminated by diagram-level arguments (reflection symmetry kills their
    odd parts, and IHX maps absorb their even parts), which this package
    records but does not re-derive.
    """

    id: str
    computable: bool
    note: str
    vertex_count: int = 4
    edge_count: int = 6
    betti: int = 3


CATALOG: tuple[InternalGraph, ...] = (
    InternalGraph("wtr", False, "odd part vanishes by reflection; even part absorbed by IHX maps"),
    InternalGraph("bbl", False, "odd part vanishes by reflection; even part absorbed by IHX maps"),
    InternalGraph("mdl", False, "odd part vanishes by reflection; even part absorbed by IHX maps"),
    InternalGraph("tsq", True, "legs on four arcs; reflection acts as -1 on odd degrees"),
    InternalGraph("tet", True, "legs on six edges; S4 acts through the four faces"),
)


@dataclass(frozen=True)
class DegreeInfo:
    """Leg count with the induced grading data of a 3-loop diagram."""

    legs: int
    jacobi_degree: int
    parity: str

    @classmethod
    def from_legs(cls, legs: int) -> "DegreeInfo":
        if legs < 0:
            raise ValueError("leg count must be non-negative")
        return cls(legs=legs, jacobi_degree=legs + 2, parity="odd" if legs % 2 else "even")


@dataclass
class SliceSpace:
    """A graded slice: monomial basis, spanning-set coordinates, rank."""

    legs: int
    parity: str
    basis: list[tuple[int, ...]]
    span_matrix: QMatrix
    dim: int


def _check_parity(legs: int, parity: str) -> None:
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if (legs % 2 == 1) != (parity == "odd"):
        raise ValueError(f"parity {parity!r} does not match legs={legs}")


# ---------------------------------------------------------------------------
# Changes of variables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def x_from_y_map() -> dict[str, Poly]:
    """Images of the six edge variables as y-polynomials.

    x3 and x6 are forced by the three linear edge relations
    (x1 - x2 - x6, x1 - x3 + x5, x4 + x5 + x6), which all map to 0
    identically under these images.
    """
    y = {n: Poly.variable(YVARS, n) for n in YVARS.names}
    return {
        "x1": (y["y1"] - y["y4"]).scale(_QUARTER),
        "x2": (y["y2"] - y["y4"]).scale(_QUARTER),
        "x3": (y["y3"] - y["y4"]).scale(_QUARTER),
        "x4": (y["y2"] - y["y3"]).scale(_QUARTER),
        "x5": (y["y3"] - y["y1"]).scale(_QUARTER),
        "x6": (y["y1"] - y["y2"]).scale(_QUARTER),
    }


def x_from_y(var: str) -> Poly:
    """Image of one edge variable x1..x6 in the face variables y1..y4."""
    _coverage.touch("diagram_spaces.x_from_y")
    images = x_from_y_map()
    if var not in images:
        raise ValueError(f"unknown edge variable {var!r}")
    return images[var]


def y_from_x(p: Poly) -> Poly:
    """Rewrite a polynomial in x1..x6 as a polynomial in y1..y4.

    Polynomials congruent modulo the edge relations land on y-polynomials
    congruent modulo (y1+y2+y3+y4); compare after eliminate_y4 when
    working in the quotient.
    """
    _coverage.touch("diagram_spaces.y_from_x")
    if p.vars != XVARS:
        raise ValueError("y_from_x expects a polynomial in x1..x6")
    return p.substitute(x_from_y_map())


@lru_cache(maxsize=None)
def _y4_elimination_map() -> dict[str, Poly]:
    y1 = Poly.variable(Y3VARS, "y1")
    y2 = Poly.variable(Y3VARS, "y2")
    y3 = Poly.variable(Y3VARS, "y3")
    return {"y1": y1, "y2": y2, "y3": y3, "y4": (y1 + y2 + y3).scale(-1)}


@lru_cache(maxsize=None)
def _neg_sum_power(e: int) -> Poly:
    """(-(y1+y2+y3))^e, cached for reuse across all slice computations."""
    if e == 0:
        return Poly.constant(Y3VARS, 1)
    return _neg_sum_power(e - 1) * _y4_elimination_map()["y4"]


def eliminate_y4(p: Poly) -> Poly:
    """Substitute y4 = -(y1+y2+y3); the quotient by the face relation."""
    if p.vars != YVARS:
        raise ValueError("eliminate_y4 expects a polynomial in y1..y4")
    acc: dict[tuple[int, int, int], Fraction] = {}
    for (e1, e2, e3, e4), coeff in p.terms.items():
        if e4 == 0:
            key = (e1, e2, e3)
            s = acc.get(key, _ZERO) + coeff
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
            continue
        for (f1, f2, f3), c in _neg_sum_power(e4).terms.items():
            key = (e1 + f1, e2 + f2, e3 + f3)
            s = acc.get(key, _ZERO) + coeff * c
            if s:
                acc[key] = s
            elif key in acc:
                del acc[key]
    return Poly._raw(Y3VARS, acc)


# ---------------------------------------------------------------------------
# Graded slices
# ---------------------------------------------------------------------------


def _coords(p: Poly, basis_index: dict[tuple[int, ...], int]) -> list[Fraction]:
    row = [_ZERO] * len(basis_index)
    for exps, coeff in p.terms.items():
        row[basis_index[exps]] = coeff
    return row


def _sort_parity(exps: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Descending-sorted exponents and the sign of the sorting permutation."""
    order = sorted(range(len(exps)), key=lambda i: (-exps[i], i))
    return tuple(exps[i] for i in order), perm_sign(order)


class _SkewSliceContext:
    """Shared per-degree data for skew-symmetrized slice computations.

    The signed symmetrizer is linear and sends a monomial to (a sign
    times) the image of its sorted representative, so each S4-orbit is
    symmetrized and y4-eliminated exactly once; the resulting coordinate
    vectors are reused by the ambient slice and by every spanning-family
    builder at the same degree.
    """

    def __init__(self, legs: int) -> None:
        self.legs = legs
        self.basis = degree_slice_monomials(Y3VARS, legs)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.group = signed_s4(YVARS, "sign")
        self._vectors: dict[tuple[int, ...], list[Fraction]] = {}

    def orbit_vector(self, rep: tuple[int, ...]) -> list[Fraction]:
        v = self._vectors.get(rep)
        if v is None:
            sym = symmetrize(Poly.monomial(YVARS, rep), self.group)
            v = _coords(eliminate_y4(sym), self.index)
            self._vectors[rep] = v
        return v

    def skew_row(self, p: Poly) -> list[Fraction]:
        """Coordinates of eliminate_y4(skew-symmetrize(p)) in the slice basis."""
        orbit_coeff: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in p.terms.items():
            if len(set(exps)) < 4:
                continue  # a repeated exponent dies under the signed average
            rep, sign = _sort_parity(exps)
            s = orbit_coeff.get(rep, _ZERO) + (coeff if sign > 0 else -coeff)
            if s:
                orbit_coeff[rep] = s
            elif rep in orbit_coeff:
                del orbit_coeff[rep]
        row = [_ZERO] * len(self.basis)
        for rep, coeff in orbit_coeff.items():
            vec = self.orbit_vector(rep)
            for i, x in enumerate(vec):
                if x:
                    row[i] += coeff * x
        return row


@lru_cache(maxsize=None)
def _skew_context(legs: int) -> _SkewSliceContext:
    return _SkewSliceContext(legs)


def tet_slice(legs: int, parity: str) -> SliceSpace:
    """Graded slice of the tetrahedron space at the given leg count.

    Every degree-`legs` monomial in y1, y2, y3 is pushed through the
    parity-appropriate symmetrizer (plain for even, signed for odd) and
    the images span the slice; the dimension is the exact rank of their
    coordinate matrix.  Monomials in one S4-orbit symmetrize to the same
    polynomial up to sign, so each orbit is expanded once and reused.
    """
    _coverage.touch("diagram_spaces.tet_slice")
    if legs < 0:
        raise ValueError("legs must be non-negative")
    _check_parity(legs, parity)
    return _tet_slice_cached(legs, parity)


@lru_cache(maxsize=None)
def _tet_slice_cached(legs: int, parity: str) -> SliceSpace:
    basis = degree_slice_monomials(Y3VARS, legs)
    basis_index = {m: i for i, m in enumerate(basis)}
    rows: list[list[Fraction]]
    if parity == "odd":
        ctx = _skew_context(legs)
        rows = [ctx.skew_row(Poly.monomial(YVARS, mono + (0,))) for mono in basis]
    else:
        group = signed_s4(YVARS, "trivial")
        orbit_cache: dict[tuple[int, ...], list[Fraction]] = {}
        rows = []
        for mono in basis:
            key, _ = _sort_parity(mono + (0,))
            if key not in orbit_cache:
                sym = symmetrize(Poly.monomial(YVARS, key), group)
                orbit_cache[key] = _coords(eliminate_y4(sym), basis_index)
            rows.append(orbit_cache[key])
    matrix = QMatrix.from_rows(rows, cols=len(basis))
    return SliceSpace(legs=legs, parity=parity, basis=basis, span_matrix=matrix, dim=rank(matrix))


def odd_target_dim(legs: int) -> int:
    """Number of (n, m, k) >= 0 with 2n + 6m + 4k = legs - 9 (0 below 9).

    This is the graded dimension of the discriminant-times-sigma3 module
    over Q[sigma2, sigma3^2, sigma4].
    """
    _coverage.touch("diagram_spaces.odd_target_dim")
    if legs % 2 == 0:
        raise ValueError("odd_target_dim expects an odd leg count")
    rest = legs - 9
    if rest < 0:
        return 0
    count = 0
    for m in range(rest // 6 + 1):
        for k in range((rest - 6 * m) // 4 + 1):
            if (rest - 6 * m - 4 * k) % 2 == 0:
                count += 1
    return count


# Fixed shuffle seed for generator processing order.  Generators in index
# order are highly correlated (nearby exponent tuples symmetrize into
# nearby subspaces), which makes the running span saturate very slowly; a
# deterministic shuffle puts the family in general position so the span
# reaches full rank after roughly `dim` generators.  The computed span is
# order-independent; only the work needed to reach it changes.
_GENERATOR_SHUFFLE_SEED = 0


def _ihx_image_generators(legs: int):
    for a in range(legs, -1, -1):
        for b in range(min(a, legs - a), -1, -1):
            for c in range(legs - a - b, -1, -1):
                yield (a, b, c, legs - a - b - c)


def _ihx_image_build(power, gen: tuple[int, int, int, int]) -> Poly:
    a, b, c, d = gen
    sym_pair = power("x1", a) * power("x5", b)
    if a != b:
        sym_pair = sym_pair + power("x1", b) * power("x5", a)
    else:
        sym_pair = sym_pair.scale(2)
    tail = power("x4", c) * power("x2", d).scale((-1) ** d)
    return sym_pair * tail


def _subring_family_generators(legs: int):
    for n in range(legs // 2, -1, -1):
        for a in range(legs - 2 * n, -1, -1):
            yield (n, a, legs - 2 * n - a)


def _subring_family_build(power, gen: tuple[int, int, int]) -> Poly:
    n, a, b = gen
    return power("x1*x2", n) * power("x4", a) * power("x5", b)


def _middle_family_generators(legs: int):
    for m in range(legs, -1, -1):
        for n in range((legs - m) // 2, -1, -1):
            for a in range(legs - m - 2 * n, -1, -1):
                yield (m, n, a, legs - m - 2 * n - a)


def _middle_family_build(power, gen: tuple[int, int, int, int]) -> Poly:
    m, n, a, b = gen
    return (
        power("x1+x5", m)
        * power("x1*x5", n)
        * power("x4", a)
        * power("x2", b).scale((-1) ** b)
    )


# family name -> (generator enumeration at a leg count, generator -> polynomial)
_FAMILIES = {
    "ihx_image": (_ihx_image_generators, _ihx_image_build),
    "subring_family": (_subring_family_generators, _subring_family_build),
    "middle_family": (_middle_family_generators, _middle_family_build),
}


@lru_cache(maxsize=None)
def _family_slice(family: str, legs: int, stop_at_ambient: bool) -> SliceSpace:
    """Span of one skew-symmetrized generator family at an odd leg count.

    All generators lie in the signed-isotypic part of the slice, whose
    dimension is the ambient slice rank, so the construction stops once
    the running span reaches that rank: the remaining generators are
    contained in what is already spanned and cannot enlarge it.
    """
    if legs % 2 == 0:
        raise ValueError(f"{family}_slice expects an odd leg count")
    generators, build = _FAMILIES[family]
    x = x_from_y_map()
    bases = {
        **x,
        "x1*x2": x["x1"] * x["x2"],
        "x1+x5": x["x1"] + x["x5"],
        "x1*x5": x["x1"] * x["x5"],
    }
    powers: dict[tuple[str, int], Poly] = {}

    def power(base: str, e: int) -> Poly:
        hit = powers.get((base, e))
        if hit is None:
            hit = powers[(base, e)] = bases[base] ** e
        return hit

    ctx = _skew_context(legs)
    order = list(generators(legs))
    random.Random(_GENERATOR_SHUFFLE_SEED).shuffle(order)
    ambient = tet_slice(legs, "odd").dim if stop_at_ambient else None
    span = RowSpan(len(ctx.basis))
    rows: list[list[Fraction]] = []
    for gen in order:
        if ambient is not None and span.rank == ambient:
            break
        row = ctx.skew_row(build(power, gen))
        rows.append(row)
        span.add(row)
    matrix = QMatrix.from_rows(rows, cols=len(ctx.basis))
    return SliceSpace(legs=legs, parity="odd", basis=ctx.basis, span_matrix=matrix, dim=span.rank)


def ihx_image_slice(legs: int, stop_at_ambient: bool = True) -> SliceSpace:
    """Span of the skew-symmetrized IHX-image generators at odd leg count.

    Generators are (x1^a x5^b + x1^b x5^a) x4^c (-x2)^d over all
    (a, b, c, d) with a+b+c+d = legs, a >= b (the generator is symmetric
    in the first two exponents, so the other half repeats rows).
    """
    _coverage.touch("diagram_spaces.ihx_image_slice")
    return _family_slice("ihx_image", legs, stop_at_ambient)


def subring_family_slice(legs: int, stop_at_ambient: bool = True) -> SliceSpace:
    """Span of skew-symmetrized (x1 x2)^n x4^a x5^b with 2n + a + b = legs.

    In y-coordinates the generators generate the odd part of the subring
    in y1-y3, y2-y3 and (y1-y4)(y2-y4) (up to scale factors of 4).
    """
    _coverage.touch("diagram_spaces.subring_family_slice")
    return _family_slice("subring_family", legs, stop_at_ambient)


def middle_family_slice(legs: int, stop_at_ambient: bool = True) -> SliceSpace:
    """Span of skew-symmetrized (x1+x5)^m (x1 x5)^n x4^a (-x2)^b.

    The intermediate spanning family sitting between the IHX-image
    generators and the (x1 x2)-power family; all three span the same
    subspace degree by degree.
    """
    return _family_slice("middle_family", legs, stop_at_ambient)


def tsq_odd_dim(legs: int) -> int:
    """Dimension of the odd slice of the four-arc graph's space: always 0.

    The reflection automorphism fixes each arc variable and acts as -1 on
    odd degrees, so the averaging projector (identity + reflection)/2 is
    applied to every slice monomial and the rank of the image is taken;
    the projector annihilates everything, giving rank 0 rather than a
    hard-coded constant.
    """
    _coverage.touch("diagram_spaces.tsq_odd_dim")
    if legs % 2 == 0:
        raise ValueError("tsq_odd_dim expects an odd leg count")
    basis = degree_slice_monomials(Z3VARS, legs)
    basis_index = {m: i for i, m in enumerate(basis)}
    identity = SignedPermAction(Z3VARS, (0, 1, 2), 1)
    reflection = SignedPermAction(Z3VARS, (0, 1, 2), -1)
    rows = []
    for mono in basis:
        p = Poly.monomial(Z3VARS, mono)
        image = (act(identity, p) + act(reflection, p)).scale(Fraction(1, 2))
        rows.append(_coords(image, basis_index))
    return rank(QMatrix.from_rows(rows, cols=len(basis)))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def even_closed_form(legs: int) -> int:
    """floor((n^2 + 12n)/48) + 1, the even-degree dimension at n legs."""
    _coverage.touch("diagram_spaces.even_closed_form")
    if legs < 0 or legs % 2 == 1:
        raise ValueError("even_closed_form expects an even, non-negative leg count")
    return (legs * legs + 12 * legs) // 48 + 1


def hilbert_coefficients(max_n: int, shift: int = 0) -> list[int]:
    """Series coefficients of x^shift / ((1-x^2)(1-x^4)(1-x^6)).

    Returns the coefficients at degrees 0..max_n, computed by exact
    integer series multiplication.  shift=9 gives the odd-degree target
    series.
    """
    _coverage.touch("diagram_spaces.hilbert_coefficients")
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    coeffs = [0] * (max_n + 1)
    if shift <= max_n:
        coeffs[shift] = 1
    for part in (2, 4, 6):
        for i in range(part, max_n + 1):
            coeffs[i] += coeffs[i - part]
    return coeffs
