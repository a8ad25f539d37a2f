"""Exact leading-term analysis in a formal variable t.

Polynomials in y1..y4 are pushed through one of two substitutions whose
images are combinations of t^a, t^b, t^c, giving finite sums of terms
q * t^(alpha*a + beta*b + gamma*c) with integer (alpha, beta, gamma).
A regime fixes exact rational values of (a, b, c); exponents are compared
by evaluating the linear form at those values, which is the t -> infinity
ordering.  Terms whose exponents evaluate equal are merged.  Everything is
exact: there is no truncation, so little-o statements become statements
about which terms exist below the leading exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from . import _coverage
from .multipoly import Poly, VarSet, YVARS, assemble_q, q_factor

_ZERO = Fraction(0)

TVARS = VarSet(("ta", "tb", "tc"))


@dataclass(frozen=True, order=True)
class ExpVector:
    """Integer coefficients of the exponent alpha*a + beta*b + gamma*c."""

    alpha: int
    beta: int
    gamma: int

    def value_at(self, regime: "Regime") -> Fraction:
        return self.alpha * regime.a + self.beta * regime.b + self.gamma * regime.c

    def __add__(self, other: "ExpVector") -> "ExpVector":
        return ExpVector(self.alpha + other.alpha, self.beta + other.beta, self.gamma + other.gamma)

    def __str__(self) -> str:
        parts = []
        for coeff, sym in ((self.alpha, "a"), (self.beta, "b"), (self.gamma, "c")):
            if coeff == 0:
                continue
            if coeff == 1:
                term = sym
            elif coeff == -1:
                term = f"-{sym}"
            else:
                term = f"{coeff}{sym}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"


@dataclass(frozen=True)
class Regime:
    """An exact rational choice of (a, b, c) for one of the two substitutions.

    Regime "one" requires a > b > c > 0 and a-b < b-c < 2(a-b);
    regime "two" requires a > b > c > 0 and b-c < a-b < 2(b-c).
    """

    id: str
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        if self.id not in ("one", "two"):
            raise ValueError("regime id must be 'one' or 'two'")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        a, b, c = self.a, self.b, self.c
        if not (a > b > c > 0):
            raise ValueError("regime requires a > b > c > 0")
        if self.id == "one":
            if not (a - b < b - c < 2 * (a - b)):
                raise ValueError("regime one requires a-b < b-c < 2(a-b)")
        else:
            if not (b - c < a - b < 2 * (b - c)):
                raise ValueError("regime two requires b-c < a-b < 2(b-c)")


REGIME_ONE = Regime("one", Fraction(2), Fraction(8, 5), Fraction(1))
REGIME_TWO = Regime("two", Fraction(2), Fraction(7, 5), Fraction(1))

DEFAULT_REGIMES = {"one": REGIME_ONE, "two": REGIME_TWO}


def _t(name: str) -> Poly:
    return Poly.variable(TVARS, name)


def regime_images(regime_id: str) -> dict[str, Poly]:
    """The y1..y4 images as polynomials in t^a, t^b, t^c."""
    ta, tb, tc = _t("ta"), _t("tb"), _t("tc")
    quarter = Fraction(1, 4)
    if regime_id == "one":
        return {
            "y1": (ta.scale(3) - tb - tc).scale(quarter),
            "y2": (tb.scale(3) - ta - tc).scale(quarter),
            "y3": (tc.scale(3) - ta - tb).scale(quarter),
            "y4": (ta + tb + tc).scale(-quarter),
        }
    if regime_id == "two":
        return {
            "y1": (ta.scale(2) + tb.scale(2) - tc).scale(quarter),
            "y2": (ta.scale(2) - tb.scale(2) - tc).scale(quarter),
            "y3": (tc.scale(3) - ta.scale(2)).scale(quarter),
            "y4": (ta.scale(2) + tc).scale(-quarter),
        }
    raise ValueError("regime id must be 'one' or 'two'")


class PuiseuxPoly:
    """Finite sum of terms q * t^(alpha*a + beta*b + gamma*c) under a regime.

    Terms are keyed by the exact exponent value; each value class keeps
    its merged coefficient together with the sorted tuple of symbolic
    exponent vectors that contributed to it.
    """

    __slots__ = ("regime", "terms")

    def __init__(
        self,
        regime: Regime,
        terms: dict[Fraction, tuple[Fraction, tuple[ExpVector, ...]]] | None = None,
    ) -> None:
        self.regime = regime
        self.terms = dict(terms) if terms else {}

    @classmethod
    def from_poly(cls, p: Poly, regime: Regime) -> "PuiseuxPoly":
        if p.vars != TVARS:
            raise ValueError("expected a polynomial in the t-exponent variables")
        acc: dict[Fraction, tuple[Fraction, set[ExpVector]]] = {}
        for (alpha, beta, gamma), coeff in p.terms.items():
            vec = ExpVector(alpha, beta, gamma)
            val = vec.value_at(regime)
            if val in acc:
                c, vs = acc[val]
                vs.add(vec)
                acc[val] = (c + coeff, vs)
            else:
                acc[val] = (coeff, {vec})
        terms = {
            val: (c, tuple(sorted(vs)))
            for val, (c, vs) in acc.items()
            if c
        }
        return cls(regime, terms)

    def _check_regime(self, other: "PuiseuxPoly") -> None:
        if self.regime != other.regime:
            raise ValueError("mixed regimes")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        """Equality of merged coefficients; contributor bookkeeping is ignored."""
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        if self.regime != other.regime:
            return False
        mine = {v: c for v, (c, _) in self.terms.items()}
        theirs = {v: c for v, (c, _) in other.terms.items()}
        return mine == theirs

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        self._check_regime(other)
        out = dict(self.terms)
        for val, (c, vecs) in other.terms.items():
            if val in out:
                c0, v0 = out[val]
                s = c0 + c
                if s:
                    out[val] = (s, tuple(sorted(set(v0) | set(vecs))))
                else:
                    del out[val]
            else:
                out[val] = (c, vecs)
        return PuiseuxPoly(self.regime, out)

    def __mul__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        self._check_regime(other)
        out: dict[Fraction, tuple[Fraction, set[ExpVector]]] = {}
        for v1, (c1, vecs1) in self.terms.items():
            for v2, (c2, vecs2) in other.terms.items():
                val = v1 + v2
                prod_vecs = {a + b for a in vecs1 for b in vecs2}
                if val in out:
                    c0, vs = out[val]
                    vs |= prod_vecs
                    out[val] = (c0 + c1 * c2, vs)
                else:
                    out[val] = (c1 * c2, set(prod_vecs))
        terms = {val: (c, tuple(sorted(vs))) for val, (c, vs) in out.items() if c}
        return PuiseuxPoly(self.regime, terms)

    def sorted_terms(self) -> list[tuple[Fraction, Fraction, tuple[ExpVector, ...]]]:
        """(exponent value, coefficient, contributing vectors), descending."""
        return [
            (val, c, vecs)
            for val, (c, vecs) in sorted(self.terms.items(), key=lambda t: t[0], reverse=True)
        ]

    def __repr__(self) -> str:
        parts = [f"({c})*t^({'|'.join(map(str, vecs))})" for _, c, vecs in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"


def substitute_regime(p: Poly, regime: Regime) -> PuiseuxPoly:
    """Exact substitution of y1..y4 by their regime images, fully expanded."""
    _coverage.touch("asymptotics.substitute_regime")
    if p.vars != YVARS:
        raise ValueError("substitute_regime expects a polynomial in exactly y1..y4")
    images = regime_images(regime.id)
    return PuiseuxPoly.from_poly(p.substitute(images), regime)


def leading_term(p: PuiseuxPoly, regime: Regime) -> tuple[Fraction, ExpVector]:
    """Coefficient and exponent vector of the largest-exponent term.

    The exponent vector returned is the smallest contributor of the top
    value class; for the verified families the class is a single vector.
    """
    _coverage.touch("asymptotics.leading_term")
    if regime != p.regime:
        raise ValueError("regime does not match the polynomial's regime")
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    top = max(p.terms)
    coeff, vecs = p.terms[top]
    return coeff, vecs[0]


def expected_q_leading(n: int, m: int, k: int, regime_id: str) -> tuple[Fraction, ExpVector]:
    """Closed-form leading coefficient and exponent of Q^{n,m,k}.

    Regime one:  eps * 2^n * (2m+3)      at 2(n+2m+k+3)a + 2(m+k+1)b + c.
    Regime two:  eps * 2^(n+1) * (n+2m+3) at (2(n+2m+2k)+5)a + (2m+3)b + c.
    eps is 1 for k > 0 and 3 for k = 0.
    """
    eps = 1 if k > 0 else 3
    if regime_id == "one":
        coeff = Fraction(eps * 2**n * (2 * m + 3))
        vec = ExpVector(2 * (n + 2 * m + k + 3), 2 * (m + k + 1), 1)
    elif regime_id == "two":
        coeff = Fraction(eps * 2 ** (n + 1) * (n + 2 * m + 3))
        vec = ExpVector(2 * (n + 2 * m + 2 * k) + 5, 2 * m + 3, 1)
    else:
        raise ValueError("regime id must be 'one' or 'two'")
    return coeff, vec


@dataclass(frozen=True)
class QAsymptoticsCheck:
    """Outcome of one leading-term comparison, with the exact values seen."""

    n: int
    m: int
    k: int
    regime_id: str
    expected_coeff: Fraction
    expected_exp: ExpVector
    actual_coeff: Fraction
    actual_exp: ExpVector
    top_class_vectors: tuple[ExpVector, ...]
    passed: bool = field(default=False)

    def __bool__(self) -> bool:
        return self.passed


@lru_cache(maxsize=None)
def _regime_factor(regime_id: str, which: str, args: tuple[str, ...]) -> Poly:
    """P2/P3/P4 with the regime substitution applied, as a t-polynomial."""
    return q_factor(which, args).substitute(regime_images(regime_id))


def substituted_q(n: int, m: int, k: int, regime: Regime) -> PuiseuxPoly:
    """The regime image of Q^{n,m,k}, assembled factor by factor.

    Substitution is a ring homomorphism (property-tested elsewhere), so
    substituting P2/P3/P4 first and multiplying the small t-polynomials
    gives the same exact result as expanding Q and substituting, without
    the intermediate blow-up.
    """
    return PuiseuxPoly.from_poly(assemble_q(n, m, k, partial(_regime_factor, regime.id)), regime)


@lru_cache(maxsize=None)
def _substituted_q(n: int, m: int, k: int, regime_id: str) -> PuiseuxPoly:
    return substituted_q(n, m, k, DEFAULT_REGIMES[regime_id])


def verify_q_asymptotics(n: int, m: int, k: int, regime: Regime) -> QAsymptoticsCheck:
    """Exact comparison of the computed leading term against the closed form.

    Passes only when the top exponent class consists of the single
    expected vector and the merged coefficient equals the expected one,
    so an accidental exponent collision at the top is reported as a
    failure rather than silently absorbed.
    """
    _coverage.touch("asymptotics.verify_q_asymptotics")
    if n < 0 or m < 0 or k < 0:
        raise ValueError("q parameters must be non-negative")
    if regime == DEFAULT_REGIMES.get(regime.id):
        substituted = _substituted_q(n, m, k, regime.id)
    else:
        substituted = substituted_q(n, m, k, regime)
    actual_coeff, actual_exp = leading_term(substituted, regime)
    top_val = max(substituted.terms)
    _, top_vecs = substituted.terms[top_val]
    expected_coeff, expected_exp = expected_q_leading(n, m, k, regime.id)
    passed = (
        actual_coeff == expected_coeff
        and actual_exp == expected_exp
        and top_vecs == (expected_exp,)
    )
    return QAsymptoticsCheck(
        n=n,
        m=m,
        k=k,
        regime_id=regime.id,
        expected_coeff=expected_coeff,
        expected_exp=expected_exp,
        actual_coeff=actual_coeff,
        actual_exp=actual_exp,
        top_class_vectors=top_vecs,
        passed=passed,
    )
