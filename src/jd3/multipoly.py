"""Multivariate polynomials over the rationals with signed group actions.

Polynomials are sparse maps from exponent tuples to `Fraction`
coefficients, over a fixed ordered variable set.  On top of the ring
operations this module provides the signed permutation actions of S4,
the (skew) symmetrizer, elementary symmetric polynomials, the
discriminant, the P2/P3/P4 building blocks and the Q^{n,m,k} family
used by the verification suites, exact division, and graded monomial
enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, inf
from operator import add

from . import _coverage

_ZERO = Fraction(0)
_ONE = Fraction(1)

NEG_INF = -inf  # total degree of the zero polynomial


class NotDivisibleError(ArithmeticError):
    """Raised by divide_exact when the divisor does not divide exactly."""


class NotInSubringError(ArithmeticError):
    """Raised when a polynomial is not in the u, v, w subring."""


@dataclass(frozen=True)
class VarSet:
    """Ordered tuple of distinct variable names; the order is canonical."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __repr__(self) -> str:
        return f"VarSet{self.names}"


# The variable sets used throughout the package.
XVARS = VarSet(("x1", "x2", "x3", "x4", "x5", "x6"))
YVARS = VarSet(("y1", "y2", "y3", "y4"))
Y3VARS = VarSet(("y1", "y2", "y3"))
Z3VARS = VarSet(("z1", "z2", "z3"))


class Poly:
    """Sparse polynomial: map from exponent tuple to nonzero Fraction."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: dict | None = None) -> None:
        self.vars = vars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            n = len(vars)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError("exponent tuple length does not match variable count")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                c = Fraction(coeff)
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, vars: VarSet, terms: dict) -> "Poly":
        # internal: terms already normalized (no zeros, valid tuples)
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars: VarSet) -> "Poly":
        return cls._raw(vars, {})

    @classmethod
    def constant(cls, vars: VarSet, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return cls.zero(vars)
        return cls._raw(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Poly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._raw(vars, {exps: _ONE})

    @classmethod
    def monomial(cls, vars: VarSet, exps, coeff=1) -> "Poly":
        return cls(vars, {tuple(exps): coeff})

    def _check_same_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __neg__(self) -> "Poly":
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        self._check_same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly._raw(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        self._check_same_vars(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.vars)
        out: dict[tuple[int, ...], Fraction] = {}
        a_items = list(self.terms.items())
        b_items = list(other.terms.items())
        if len(a_items) > len(b_items):
            a_items, b_items = b_items, a_items
        for e1, c1 in a_items:
            for e2, c2 in b_items:
                k = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(k, _ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return Poly._raw(self.vars, out)

    def scale(self, c) -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        c = Fraction(c)
        if not c:
            return Poly.zero(self.vars)
        return Poly._raw(self.vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace every variable by its image polynomial.

        All variables that actually occur must be mapped, and every image
        must live in one common target variable set.
        """
        _coverage.touch("multipoly.substitute")
        if not self.terms:
            if mapping:
                target = next(iter(mapping.values())).vars
                return Poly.zero(target)
            return Poly.zero(self.vars)
        target: VarSet | None = None
        for img in mapping.values():
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise ValueError("substitution images use different variable sets")
        if target is None:
            raise ValueError("empty substitution map")
        images: list[Poly | None] = []
        for name in self.vars.names:
            images.append(mapping.get(name))
        power_cache: list[dict[int, Poly]] = [dict() for _ in self.vars.names]

        def img_power(i: int, e: int) -> Poly:
            cache = power_cache[i]
            hit = cache.get(e)
            if hit is None:
                hit = images[i] ** e  # type: ignore[operator]
                cache[e] = hit
            return hit

        acc: dict[tuple[int, ...], Fraction] = {}
        one = Poly.constant(target, 1)
        for exps, coeff in self.terms.items():
            factor = one
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if images[i] is None:
                    raise ValueError(f"variable {self.vars.names[i]} is not mapped")
                factor = factor * img_power(i, e)
            for k, c in factor.terms.items():
                s = acc.get(k, _ZERO) + coeff * c
                if s:
                    acc[k] = s
                elif k in acc:
                    del acc[k]
        return Poly._raw(target, acc)

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        vals = [Fraction(point[name]) for name in self.vars.names]
        total = _ZERO
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Graded-lex leading term (degree first, then lex on exponents)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.vars.names, exps)
                if e
            ]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)


@dataclass(frozen=True)
class SignedPermAction:
    """A permutation of the variables together with a +-1 character value.

    perm[i] = j means variable i is relabeled to variable j.
    """

    vars: VarSet
    perm: tuple[int, ...]
    character: int

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.vars))):
            raise ValueError("perm is not a permutation of the variable indices")
        if self.character not in (1, -1):
            raise ValueError("character must be +1 or -1")


def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions & 1 else 1


def _relabel(exps: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent tuple after variable i is relabeled to variable perm[i]."""
    new = [0] * len(perm)
    for i, e in enumerate(exps):
        new[perm[i]] = e
    return tuple(new)


def act(action: SignedPermAction, p: Poly) -> Poly:
    """Relabel variables by the permutation and multiply by the character."""
    _coverage.touch("multipoly.act")
    if action.vars != p.vars:
        raise ValueError("action and polynomial use different variable sets")
    perm = action.perm
    sign = action.character
    out = {_relabel(exps, perm): -coeff if sign < 0 else coeff for exps, coeff in p.terms.items()}
    return Poly._raw(p.vars, out)


def signed_s4(vars: VarSet, character: str) -> list[SignedPermAction]:
    """All 24 permutation actions of a 4-variable set.

    character "trivial" gives the plain action, "sign" the parity-signed
    one used for skew symmetrization.
    """
    if len(vars) != 4:
        raise ValueError("signed_s4 needs exactly four variables")
    if character not in ("trivial", "sign"):
        raise ValueError("character must be 'trivial' or 'sign'")
    actions = []
    for perm in itertools.permutations(range(4)):
        ch = perm_sign(perm) if character == "sign" else 1
        actions.append(SignedPermAction(vars, perm, ch))
    return actions


def symmetrize(p: Poly, group: list[SignedPermAction]) -> Poly:
    """Group average (1/|G|) sum of the signed actions; a linear projector.

    The input must be homogeneous: the character choice is per-degree, so
    mixing degrees under one character would be meaningless.
    """
    _coverage.touch("multipoly.symmetrize")
    if not group:
        raise ValueError("empty group")
    if not p.is_homogeneous():
        raise ValueError("symmetrize requires a homogeneous polynomial")
    acc: dict[tuple[int, ...], Fraction] = {}
    for action in group:
        if action.vars != p.vars:
            raise ValueError("group action on a different variable set")
        perm = action.perm
        ch = action.character
        for exps, coeff in p.terms.items():
            k = _relabel(exps, perm)
            s = acc.get(k, _ZERO) + (coeff if ch > 0 else -coeff)
            if s:
                acc[k] = s
            elif k in acc:
                del acc[k]
    inv = Fraction(1, len(group))
    return Poly._raw(p.vars, {e: c * inv for e, c in acc.items()})


def elementary_symmetric(i: int, vars: VarSet) -> Poly:
    """i-th elementary symmetric polynomial: sum of squarefree i-fold products."""
    _coverage.touch("multipoly.elementary_symmetric")
    n = len(vars)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for {n} variables")
    terms: dict[tuple[int, ...], Fraction] = {}
    for combo in itertools.combinations(range(n), i):
        exps = tuple(1 if j in combo else 0 for j in range(n))
        terms[exps] = _ONE
    return Poly._raw(vars, terms)


def discriminant(vars: VarSet) -> Poly:
    """Product of (v_i - v_j) over pairs i < j of a 4-variable set."""
    _coverage.touch("multipoly.discriminant")
    if len(vars) != 4:
        raise ValueError("discriminant is defined here for exactly four variables")
    result = Poly.constant(vars, 1)
    gens = [Poly.variable(vars, n) for n in vars.names]
    for i in range(4):
        for j in range(i + 1, 4):
            result = result * (gens[i] - gens[j])
    return result


def _difference(vars: VarSet, a: str, b: str) -> Poly:
    return Poly.variable(vars, a) - Poly.variable(vars, b)


def p2(vars: VarSet, args: tuple[str, str, str]) -> Poly:
    """(a-b)^2 + (b-c)^2 + (c-a)^2 for the three given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 3:
        raise ValueError("p2 takes exactly three argument variables")
    a, b, c = args
    return (
        _difference(vars, a, b) ** 2
        + _difference(vars, b, c) ** 2
        + _difference(vars, c, a) ** 2
    )


def p3(vars: VarSet, args: tuple[str, str, str]) -> Poly:
    """(a-b)(b-c)(c-a) for the three given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 3:
        raise ValueError("p3 takes exactly three argument variables")
    a, b, c = args
    return _difference(vars, a, b) * _difference(vars, b, c) * _difference(vars, c, a)


def p4(vars: VarSet, args: tuple[str, str, str, str]) -> Poly:
    """(a-c)(b-c)(a-d)(b-d) for the four given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 4:
        raise ValueError("p4 takes exactly four argument variables")
    a, b, c, d = args
    return (
        _difference(vars, a, c)
        * _difference(vars, b, c)
        * _difference(vars, a, d)
        * _difference(vars, b, d)
    )


# Argument tuples of the four P2/P3 terms and the three P4 pairings of Q^{n,m,k}.
_Q_TRIPLES = (("y1", "y2", "y3"), ("y4", "y3", "y2"), ("y3", "y4", "y1"), ("y2", "y1", "y4"))
_Q_QUADS = (("y1", "y2", "y3", "y4"), ("y1", "y3", "y2", "y4"), ("y1", "y4", "y2", "y3"))


def q_factor(which: str, args: tuple[str, ...]) -> Poly:
    """P2, P3 or P4 ("p2", "p3", "p4") at the given y-variables."""
    return {"p2": p2, "p3": p3, "p4": p4}[which](YVARS, args)


def assemble_q(n: int, m: int, k: int, factor) -> Poly:
    """Q^{n,m,k} multiplied out from factor(which, args) for P2/P3/P4.

    Any ring homomorphism applied to the factors first (a substitution)
    gives the image of Q^{n,m,k} under it.
    """
    first = reduce(add, (factor("p2", t) ** n * factor("p3", t) ** (2 * m + 3) for t in _Q_TRIPLES))
    second = reduce(add, (factor("p4", q) ** k for q in _Q_QUADS))
    return first * second


def q_poly(n: int, m: int, k: int) -> Poly:
    """The degree 2n+6m+4k+9 skew-invariant family in y1..y4.

    First factor: the four-term sum of P2(..)^n * P3(..)^{2m+3} over the
    argument triples (y1,y2,y3), (y4,y3,y2), (y3,y4,y1), (y2,y1,y4).
    Second factor: P4 summed over the three pairings of {y1..y4}, each
    raised to the k-th power.
    """
    _coverage.touch("multipoly.q_poly")
    if n < 0 or m < 0 or k < 0:
        raise ValueError("q_poly parameters must be non-negative")
    return _q_poly_cached(n, m, k)


@lru_cache(maxsize=None)
def _q_poly_cached(n: int, m: int, k: int) -> Poly:
    return assemble_q(n, m, k, q_factor)


def divide_exact(p: Poly, d: Poly) -> Poly:
    """Quotient q with p = q*d, or NotDivisibleError if none exists.

    Single-divisor multivariate division in graded-lex order: leading
    terms that the divisor's leading term does not divide go to the
    remainder, and a nonzero remainder certifies non-divisibility.
    """
    _coverage.touch("multipoly.divide_exact")
    p._check_same_vars(d)
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    d_exp, d_coeff = d.leading()
    work = dict(p.terms)
    quotient: dict[tuple[int, ...], Fraction] = {}
    remainder_seen = False
    while work:
        exps = max(work, key=lambda t: (sum(t), t))
        q_exp = tuple(a - b for a, b in zip(exps, d_exp))
        if any(e < 0 for e in q_exp):
            # leading term not divisible: it belongs to the remainder
            del work[exps]
            remainder_seen = True
            continue
        q_coeff = work[exps] / d_coeff
        quotient[q_exp] = quotient.get(q_exp, _ZERO) + q_coeff
        # subtract q_coeff * x^q_exp * d; the leading term cancels exactly
        for de, dc in d.terms.items():
            k = tuple(a + b for a, b in zip(q_exp, de))
            s = work.get(k, _ZERO) - q_coeff * dc
            if s:
                work[k] = s
            elif k in work:
                del work[k]
    if remainder_seen:
        raise NotDivisibleError("polynomial is not divisible by the given divisor")
    return Poly._raw(p.vars, {e: c for e, c in quotient.items() if c})


UVWVARS = VarSet(("u", "v", "w"))
_UVRS = VarSet(("u", "v", "r", "s"))


@lru_cache(maxsize=None)
def _uvrs_images() -> dict[str, Poly]:
    # Linear change of coordinates: u = y1-y3, v = y2-y3, r = y3-y4, s = y3.
    u = Poly.variable(_UVRS, "u")
    v = Poly.variable(_UVRS, "v")
    r = Poly.variable(_UVRS, "r")
    s = Poly.variable(_UVRS, "s")
    return {"y1": u + s, "y2": v + s, "y3": s, "y4": s - r}


@lru_cache(maxsize=None)
def _w_in_uvr_power(k: int) -> Poly:
    # w = (y1-y4)(y2-y4) = (u+r)(v+r) = uv + (u+v)r + r^2, with s dropped.
    u = Poly.variable(_UVRS, "u")
    v = Poly.variable(_UVRS, "v")
    r = Poly.variable(_UVRS, "r")
    return ((u + r) * (v + r)) ** k


def _uvw_from_uvrs(q: Poly) -> Poly:
    """w-adic division: rewrite a (u, v, r)-polynomial in u, v, w.

    w = uv + (u+v)r + r^2 has r-leading coefficient 1, so the top
    r-degree must be even with its coefficient a (u, v)-polynomial g;
    subtracting g*w^(top/2) strictly lowers the r-degree.  Remainder zero
    is exactly membership in the subring.
    """
    if q.vars != _UVRS:
        raise ValueError("expected a polynomial in the change-of-coordinate variables")
    if any(e[3] for e in q.terms):
        raise NotInSubringError("polynomial depends on y3 beyond differences")
    work: dict[tuple[int, int, int], Fraction] = {
        (e[0], e[1], e[2]): c for e, c in q.terms.items()
    }
    result: dict[tuple[int, int, int], Fraction] = {}
    while work:
        top_r = max(e[2] for e in work)
        if top_r == 0:
            for (a, b, _), c in work.items():
                result[(a, b, 0)] = result.get((a, b, 0), _ZERO) + c
            break
        if top_r % 2 == 1:
            raise NotInSubringError("odd power of y3-y4 cannot come from w")
        half = top_r // 2
        lead = {(a, b): c for (a, b, r_exp), c in work.items() if r_exp == top_r}
        for (a, b), c in lead.items():
            key = (a, b, half)
            result[key] = result.get(key, _ZERO) + c
        w_power = _w_in_uvr_power(half)
        for (a, b), c in lead.items():
            for (wa, wb, wr, _), wc in w_power.terms.items():
                key = (a + wa, b + wb, wr)
                s = work.get(key, _ZERO) - c * wc
                if s:
                    work[key] = s
                elif key in work:
                    del work[key]
        if work and max(e[2] for e in work) >= top_r:
            raise NotInSubringError("w-adic reduction failed to make progress")
    return Poly(UVWVARS, {e: c for e, c in result.items() if c})


def express_in_uvw(p: Poly) -> Poly:
    """Rewrite p as a polynomial in u = y1-y3, v = y2-y3, w = (y1-y4)(y2-y4).

    The change of coordinates (u, v, r, s) = (y1-y3, y2-y3, y3-y4, y3) is
    applied first; membership requires no s-dependence and a zero
    remainder under w-adic division.  Raises NotInSubringError otherwise;
    the returned polynomial reconstructs p exactly when u, v, w are
    substituted back.
    """
    if p.vars != YVARS:
        raise ValueError("express_in_uvw expects a polynomial in y1..y4")
    return _uvw_from_uvrs(p.substitute(_uvrs_images()))


def p2p3p4_product(n: int, m: int, k: int) -> Poly:
    """12 * P2(y1,y2,y3)^n * P3(y1,y2,y3)^(2m+3) * P4(y1,y2,y3,y4)^k."""
    return (
        p2(YVARS, ("y1", "y2", "y3")) ** n
        * p3(YVARS, ("y1", "y2", "y3")) ** (2 * m + 3)
        * p4(YVARS, ("y1", "y2", "y3", "y4")) ** k
    ).scale(12)


@lru_cache(maxsize=None)
def _uvrs_factor(which: str) -> Poly:
    args = ("y1", "y2", "y3", "y4") if which == "p4" else ("y1", "y2", "y3")
    return q_factor(which, args).substitute(_uvrs_images())


def express_product_in_uvw(n: int, m: int, k: int) -> Poly:
    """The u, v, w expression of 12 * P2^n * P3^(2m+3) * P4^k.

    The change of coordinates is applied to the three small factors and
    the product is assembled in the new coordinates (substitution is a
    ring homomorphism), which avoids expanding the product twice; the
    w-adic division then certifies membership exactly as express_in_uvw
    does.
    """
    if n < 0 or m < 0 or k < 0:
        raise ValueError("parameters must be non-negative")
    q = (
        _uvrs_factor("p2") ** n
        * _uvrs_factor("p3") ** (2 * m + 3)
        * _uvrs_factor("p4") ** k
    ).scale(12)
    return _uvw_from_uvrs(q)


@lru_cache(maxsize=None)
def uvw_images() -> dict[str, Poly]:
    """The y-polynomials that u, v, w stand for; inverse of express_in_uvw."""
    y = {n: Poly.variable(YVARS, n) for n in YVARS.names}
    return {
        "u": y["y1"] - y["y3"],
        "v": y["y2"] - y["y3"],
        "w": (y["y1"] - y["y4"]) * (y["y2"] - y["y4"]),
    }


def degree_slice_monomials(vars: VarSet, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d, lexicographically descending.

    The count is C(d + len(vars) - 1, len(vars) - 1).
    """
    _coverage.touch("multipoly.degree_slice_monomials")
    if d < 0:
        raise ValueError("degree must be non-negative")
    n = len(vars)

    def gen(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for e in range(remaining, -1, -1):
            for rest in gen(remaining - e, slots - 1):
                yield (e,) + rest

    monomials = list(gen(d, n))
    assert len(monomials) == comb(d + n - 1, n - 1)
    return monomials
