"""Polynomial presentations of the 3-loop Jacobi diagram spaces.

The tetrahedron space is the S4-invariant part of Q[y1..y4]/(e1), where
e1 = y1+y2+y3+y4, with the action plain in even degrees and signed in odd
degrees.  Every graded slice is computed in an orbit basis of the
invariants (Macdonald, Symmetric Functions and Hall Polynomials, ch. I),
with integer coordinates:

- odd degree: one basis vector per strict exponent tuple
  l1 > l2 > l3 > l4 >= 0, the signed orbit average of y^l (the alternant
  a_l over 24).  Skew-symmetrizing a monomial sorts its exponents and
  multiplies by the sign of the sort; a repeated exponent gives zero.
- even degree: one basis vector per partition l1 >= l2 >= l3 >= l4 >= 0,
  the plain orbit average of y^l (m_l over its orbit size).
  Symmetrizing a monomial sorts its exponents.

A row is read from one or two polynomials packed in the degree's layout
(`multipoly.Poly.packed`): each term pair's key is looked up in one
table per degree, the key of every monomial on a basis orbit with its
signed slot, and the pair's product coefficient added there, so no
product is formed and no term is unpacked or sorted.  The family
generators are products and sums of the edge images' powers, which run
packed in that same layout, so they reach their rows as built.

The quotient by e1 is presented by a triangularity certificate, not by
elimination.  The e1-rows, e1 times each basis vector b_mu one degree
lower, span the invariant part of the ideal (e1) in the slice's degree.
The first nonzero entry of e1*b_mu sits at mu+e1; it is 1 in odd degree
(e1*a_mu = sum_i a_{mu+e_i}, every term +1 or 0) and 1, 2 or 3 in even
degree.  These pivots are distinct, so the e1-rows are independent and
the other basis tuples, the *standard* orbits (l1 = l2+1 in odd degree,
l1 = l2 in even degree), are a basis of the quotient.  In odd degree a
row's class is its integer reduction against the unitriangular e1-rows,
read on the standard orbits.  y4-elimination, the substitution
y4 = -(y1+y2+y3) into Q[y1, y2, y3], stays as the quotient's reference
presentation.

Of the five trivalent graphs with first Betti number 3 (4 vertices, 6
edges), only the tetrahedron (legs on six edges, S4 acting through the
faces) and the four-arc graph carry a polynomial presentation here; in
the other three, reflection kills the odd part and IHX maps absorb the
even part, which this package does not re-derive.  This module builds
the graded slices, the IHX spanning families, the rows of the lemma's
Q family and the closed forms.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import permutations
from operator import itemgetter
from typing import NamedTuple

from . import _coverage
from .linalg import QMatrix, RowSpan, _check_ints, rank
from .multipoly import (
    Packing,
    Poly,
    Powers,
    QFactorPowers,
    SignedPermAction,
    XVARS,
    YVARS,
    Y3VARS,
    Z3VARS,
    perm_sign,
    symmetrize,
)


class SliceSpace(NamedTuple):
    """A graded slice: its degree's context, the rows it consumed on the standard orbits, rank."""

    context: _SkewSliceContext
    span_matrix: QMatrix
    dim: int

    @property
    def basis(self) -> list[tuple[int, ...]]:
        return self.context.basis


# ---------------------------------------------------------------------------
# Changes of variables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _x_from_y_map() -> dict[str, Poly]:
    """Images of the six edge variables as integer differences y_i - y_j.

    Each is four times the paper's image, a quarter of that difference, as
    the regime images of `jd3.asymptotics` are.  x3 and x6 are
    forced by the three linear edge relations (x1 - x2 - x6,
    x1 - x3 + x5, x4 + x5 + x6), which all map to 0 identically under
    these images.
    """
    y = {n: Poly.variable(YVARS, n) for n in YVARS.names}
    return {
        "x1": y["y1"] - y["y4"],
        "x2": y["y2"] - y["y4"],
        "x3": y["y3"] - y["y4"],
        "x4": y["y2"] - y["y3"],
        "x5": y["y3"] - y["y1"],
        "x6": y["y1"] - y["y2"],
    }


def x_from_y(var: str) -> Poly:
    """Image of one edge variable x1..x6: four times the paper's, a difference y_i - y_j."""
    _coverage.touch("diagram_spaces.x_from_y")
    images = _x_from_y_map()
    if var not in images:
        raise ValueError(f"unknown edge variable {var!r}")
    return images[var]


def y_from_x(p: Poly) -> Poly:
    """Rewrite a polynomial in x1..x6 as a polynomial in y1..y4, through `_x_from_y_map`.

    This is the paper's change of variables followed by y -> 4y: the part
    of degree d comes out 4^d times the paper's image.  Polynomials
    congruent modulo the edge relations land on y-polynomials congruent
    modulo (y1+y2+y3+y4); compare after eliminate_y4 when working in the
    quotient.
    """
    _coverage.touch("diagram_spaces.y_from_x")
    if p.vars != XVARS:
        raise ValueError("y_from_x expects a polynomial in x1..x6")
    return p.substitute(_x_from_y_map())


# y1, y2, y3 fixed and y4 -> -(y1+y2+y3), as images in Q[y1, y2, y3]
_Y4_ELIMINATION = {
    **{n: Poly.variable(Y3VARS, n) for n in Y3VARS.names},
    "y4": Poly(Y3VARS, {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1}),
}


def eliminate_y4(p: Poly) -> Poly:
    """Substitute y4 = -(y1+y2+y3); the quotient by the face relation."""
    if p.vars != YVARS:
        raise ValueError("eliminate_y4 expects a polynomial in y1..y4")
    return p.substitute(_Y4_ELIMINATION)


# ---------------------------------------------------------------------------
# Graded slices
# ---------------------------------------------------------------------------


def _orbit_reps(degree: int, strict: bool) -> list[tuple[int, int, int, int]]:
    """Exponent tuples l1 >= l2 >= l3 >= l4 >= 0 of a degree, lexicographically descending.

    strict keeps only the tuples with four distinct entries.
    """
    reps = []
    for a in range(degree, -1, -1):
        for b in range(min(a, degree - a), -1, -1):
            for c in range(min(b, degree - a - b), -1, -1):
                d = degree - a - b - c
                if d > c:
                    break
                if not strict or a > b > c > d:
                    reps.append((a, b, c, d))
    return reps


class _SkewSliceContext:
    """Orbit basis, projection and e1 certificate of one degree, `legs`, for all its slices.

    Odd degrees use the signed orbit basis, even degrees the plain one (see
    the module docstring).  `skew_row` projects a product of
    y-polynomials, read packed in `packing`, onto the slice in that basis; `e1_rows` holds the
    e1-rows as sparse (index, coefficient) lists, `pivots`, in basis
    order, each one's leading index with the rest of the row, and
    `standard` the indices that are not pivots.

    e1*b_mu = sum_k b_(mu+e_k), and mu+e_k sorts to mu+e_j with j the
    first index of mu_k's run of equal entries, so each row is read from
    mu without a sort.  In odd degree mu is strict, j = k, and the term is
    zero exactly when mu_k+1 = mu_(k-1), a repeated entry.  There the
    certificate holds in every degree, not only in those built:
    mu+e_1 is strict because mu1 > mu2, is the lex-largest of the four
    tuples (each other one is lex-smaller or vanishes) and enters with
    +1, so it is the row's pivot; mu -> mu+e_1 is injective, so no two
    rows share a pivot.
    The constructor still checks the certificate in each degree it builds.
    """

    def __init__(self, legs: int) -> None:
        if legs < 0:
            raise ValueError("legs must be non-negative")
        self.legs = legs
        self.signed = legs % 2 == 1
        self.basis = _orbit_reps(legs, self.signed)
        self.packing = Packing(4, legs)
        index = {rep: i for i, rep in enumerate(self.basis)}
        self.e1_rows: list[list[tuple[int, int]]] = []
        pivots: dict[int, list[tuple[int, int]]] = {}
        for mu in _orbit_reps(legs - 1, self.signed):
            row: dict[int, int] = {}
            for k in range(4):
                if self.signed and k and mu[k] + 1 == mu[k - 1]:
                    continue
                j = mu.index(mu[k])
                i = index[mu[:j] + (mu[j] + 1,) + mu[j + 1 :]]
                row[i] = row.get(i, 0) + 1
            self.e1_rows.append(sorted(row.items()))
            (lead, c), *rest = self.e1_rows[-1] or [(None, 0)]
            if lead in pivots or c == 0 or (self.signed and c != 1):
                raise ArithmeticError(
                    f"e1-rows not unitriangular at legs={legs}: leading index {lead}, coefficient {c}"
                )
            pivots[lead] = rest
        self.pivots = sorted(pivots.items())
        self.standard = [i for i in range(len(self.basis)) if i not in pivots]

    @cached_property
    def _orbit_table(self) -> dict[int, int]:
        """The packed key of every monomial on every basis orbit -> its signed slot.

        The slot is i for a member of basis orbit i with sign +1 and n + i
        for one with sign -1, n the basis size.  A basis tuple is sorted
        descending, so a permutation of its entries has the sign of the
        permutation's own inversions; in odd degree the 24 permutations of
        a strict tuple are distinct monomials, and in even degree every
        sign is +1 and a repeated monomial writes its slot again.
        """
        n = len(self.basis)
        table: dict[int, int] = {}
        for perm in permutations(range(4)):
            offset = n if self.signed and perm_sign(perm) < 0 else 0
            keys = self.packing.keys(map(itemgetter(*perm), self.basis))
            table.update(zip(keys, range(offset, offset + n)))
        return table

    @cached_property
    def edge_powers(self) -> dict[str, Powers]:
        """One `Powers` table per base, each power built on its first read and kept.

        The bases are the images of x1..x6 under `_x_from_y_map`, -x2 and
        x1*x2.  A power of degree at most `legs` is packed in `packing`.
        """
        x = _x_from_y_map()
        images = {**x, "-x2": -x["x2"], "x1*x2": x["x1"] * x["x2"]}
        return {name: Powers(image) for name, image in images.items()}

    def skew_row(self, *factors: Poly) -> list[int]:
        """Coordinates of the (signed, in odd degree) orbit average of the factors' product.

        The one or two factors are y-polynomials whose degrees sum to the
        slice's, read packed in `packing`; any other count raises ValueError.
        Each term pair's c1*c2 is added straight into the signed slot of
        its key in the orbit table, built on the first read, and the row is
        the + half minus the - half: no product is formed.  A key that is
        not in the table, in odd degree a monomial with a repeated exponent,
        counts 0 and its pair is not multiplied.
        """
        if not 1 <= len(factors) <= 2:
            raise ValueError(f"skew_row takes one or two factors, not {len(factors)}")
        slot_of = self._orbit_table.get
        n = len(self.basis)
        slots = [0] * (2 * n)
        # one factor is its product with the unit, whose key is 0
        a, b = sorted((*(f.packed(self.packing) for f in factors), {0: 1})[:2], key=len)
        b_items = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in b_items:
                slot = slot_of(k1 + k2)
                if slot is not None:
                    slots[slot] += c1 * c2
        return [p - m for p, m in zip(slots, slots[n:])]

    def quotient_row(self, row: list[int]) -> list[int]:
        """Coordinates on the standard orbits of an odd-degree row's class modulo e1.

        Subtracting c times each unitriangular pivot row, in basis order,
        clears every pivot in integers.  An entry that is not an `int` raises
        `TypeError`, and a row whose length is not the basis size `ValueError`,
        before any of that arithmetic.
        """
        if not self.signed:
            raise ValueError("quotient_row expects an odd leg count")
        if len(row) != len(self.basis):
            raise ValueError(f"row has {len(row)} entries, the basis {len(self.basis)}")
        _check_ints(row)
        r = list(row)
        for p, rest in self.pivots:
            c = r[p]
            if c:
                for j, v in rest:
                    r[j] -= c * v
        return [r[s] for s in self.standard]

    def span(self, rows) -> SliceSpace:
        """The slice spanned by odd-degree rows in the quotient by e1.

        Rows are consumed lazily, and consumption stops once the rows span
        the whole quotient: a rank cannot exceed the column count, so no
        later row is built.
        """
        cols = len(self.standard)
        span = RowSpan(cols)
        kept = []
        rows = iter(rows)
        while span.rank < cols and (row := next(rows, None)) is not None:
            kept.append(self.quotient_row(row))
            span.add(kept[-1])
        return SliceSpace(self, QMatrix(kept, cols), span.rank)


def q_alternant_row(
    n: int, m: int, k: int, ctx: _SkewSliceContext, powers: QFactorPowers
) -> list[int]:
    """Coordinates of Q^{n,m,k} on the alternants a_l/24 of `ctx`'s odd slice.

    `powers` tables G = P2^n * P3^(2m+3) at (y1, y2, y3), its one triple,
    and S, the sum of P4^k over the three pairings, so that Q = F * S with
    F the four-term sum of G relabelled.  Let A be the signed S4 group sum.
    Q is skew and S symmetric and nonzero, so F is skew, and F = A(G+),
    where G+ keeps G's terms at strict tuples l1 > l2 > l3 > l4 = 0: each
    term of F omits one variable, so at a strict tuple F's coefficient is
    G's when l4 = 0 and 0 otherwise.  A commutes with multiplying by the
    symmetric S, so Q = A(G+ * S), and Q's coordinate, 24 times its
    coefficient at y^l, is `ctx.skew_row` of the two factors 24 * G+ and
    S (Macdonald, Symmetric Functions and Hall Polynomials, ch. I.3);
    their product is never formed.  S reaches the row as the table
    built it, and only G+ is packed.
    """
    _coverage.touch("multipoly.q_poly")  # the suites' one reach of the Q family
    g = powers.first(n, m)
    strict = {e: 24 * c for e, c in g.terms.items() if e[0] > e[1] > e[2] > e[3]}
    return ctx.skew_row(Poly._raw(YVARS, strict, g.top), powers.second(k))


def tet_slice(legs: int) -> SliceSpace:
    """Graded slice of the tetrahedron space at the given leg count.

    The leg count's parity picks the action: signed in odd degree, plain
    in even degree.  The certified e1-rows are independent, so the
    standard orbits are a basis of the quotient: the slice is the identity
    on them and its dimension is their count.
    """
    _coverage.touch("diagram_spaces.tet_slice")
    ctx = _SkewSliceContext(legs)
    n = len(ctx.standard)
    identity = QMatrix([[int(i == j) for j in range(n)] for i in range(n)], n)
    return SliceSpace(ctx, identity, n)


def odd_target_dim(legs: int) -> int:
    """Number of (n, m, k) >= 0 with 2n + 6m + 4k = legs - 9 (0 below 9).

    By definition this is the coefficient of t^legs in
    t^9/((1-t^2)(1-t^4)(1-t^6)), the graded dimension of the
    discriminant-times-sigma3 module over Q[sigma2, sigma3^2, sigma4].
    """
    _coverage.touch("diagram_spaces.odd_target_dim")
    if legs < 0 or legs % 2 == 0:
        raise ValueError("odd_target_dim expects an odd, non-negative leg count")
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


def _ihx_image_build(powers, gen: tuple[int, int, int, int]) -> tuple[Poly, Poly]:
    a, b, c, d = gen
    x1, x5 = powers["x1"], powers["x5"]
    return x1[a] * x5[b] + x1[b] * x5[a], powers["x4"][c] * powers["-x2"][d]


def _subring_family_generators(legs: int):
    for n in range(legs // 2, -1, -1):
        for a in range(legs - 2 * n, -1, -1):
            yield (n, a, legs - 2 * n - a)


def _subring_family_build(powers, gen: tuple[int, int, int]) -> tuple[Poly, Poly]:
    n, a, b = gen
    return powers["x1*x2"][n] * powers["x4"][a], powers["x5"][b]


def _family_slice(ambient: SliceSpace, generators, build) -> SliceSpace:
    """Span of one skew-symmetrized generator family in an odd ambient slice.

    `generators(legs)` enumerates the family, and `build(powers, gen)`
    turns one generator into its two factors, from the edge powers of
    the context that `tet_slice` built for `ambient`; `skew_row`
    projects their product, which is never formed.  All generators lie in the
    signed-isotypic part of the slice, so the construction stops once
    the running span is the whole ambient slice.  The x-variables enter
    through `_x_from_y_map`, four times the paper's images: every
    generator is homogeneous of degree `legs` in them, so each row is
    4^legs times the paper's and the span is the same.
    """
    ctx = ambient.context
    if not ctx.signed:
        raise ValueError("a spanning family expects an odd ambient slice")
    order = list(generators(ctx.legs))
    random.Random(_GENERATOR_SHUFFLE_SEED).shuffle(order)
    return ctx.span(ctx.skew_row(*build(ctx.edge_powers, gen)) for gen in order)


def ihx_image_slice(ambient: SliceSpace) -> SliceSpace:
    """Span of the skew-symmetrized IHX-image generators in an odd ambient slice.

    Generators are (x1^a x5^b + x1^b x5^a) x4^c (-x2)^d over all
    (a, b, c, d) with a+b+c+d = legs, a >= b (the generator is symmetric
    in the first two exponents, so the other half repeats rows).
    """
    _coverage.touch("diagram_spaces.ihx_image_slice")
    return _family_slice(ambient, _ihx_image_generators, _ihx_image_build)


def subring_family_slice(ambient: SliceSpace) -> SliceSpace:
    """Span of skew-symmetrized (x1 x2)^n x4^a x5^b with 2n + a + b = legs, in an odd ambient slice.

    In y-coordinates the generators generate the odd part of the subring
    in y1-y3, y2-y3 and (y1-y4)(y2-y4) (up to scale factors of 4).
    """
    _coverage.touch("diagram_spaces.subring_family_slice")
    return _family_slice(ambient, _subring_family_generators, _subring_family_build)


def tsq_odd_dim(legs: int) -> int:
    """Dimension of the odd slice of the four-arc graph's space: always 0.

    The reflection automorphism fixes each arc variable and acts as -1 on
    odd degrees, so the group sum over identity and reflection, twice the
    averaging projector, is applied to every slice monomial and the rank
    of the images is taken.  It annihilates everything, so no image is
    nonzero, no row is built, and the rank is 0 rather than a hard-coded
    constant.
    """
    _coverage.touch("diagram_spaces.tsq_odd_dim")
    if legs < 0 or legs % 2 == 0:
        raise ValueError("tsq_odd_dim expects a positive odd leg count")
    # the exponent tuples of z1, z2, z3 of degree `legs`, lexicographically descending
    basis = [(a, b, legs - a - b) for a in range(legs, -1, -1) for b in range(legs - a, -1, -1)]
    group = [SignedPermAction(Z3VARS, (0, 1, 2), 1), SignedPermAction(Z3VARS, (0, 1, 2), -1)]
    rows = []
    for mono in basis:
        image = symmetrize(Poly.monomial(Z3VARS, mono), group)
        if not image.is_zero():
            rows.append([image.terms.get(m, 0) for m in basis])
    return rank(QMatrix(rows, len(basis)))


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
    if shift < 0:
        raise ValueError("shift must be non-negative")
    coeffs = [0] * (max_n + 1)
    if shift <= max_n:
        coeffs[shift] = 1
    for part in (2, 4, 6):
        for i in range(part, max_n + 1):
            coeffs[i] += coeffs[i - part]
    return coeffs
