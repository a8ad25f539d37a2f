"""Exact leading-term analysis in a formal variable t.

Polynomials in y1..y4 are pushed through one of two substitutions whose
images are combinations of t^a, t^b, t^c, giving finite sums of terms
q * t^(alpha*a + beta*b + gamma*c) with integer (alpha, beta, gamma).
The images are kept as integer linear forms, four times the paper's, so
sums, products and equality stay in ints; the factor 4^(alpha+beta+gamma)
is divided out only where a coefficient is read, once per exponent class.
A regime fixes exact rational values of (a, b, c); exponents are compared
by evaluating the linear form at those values, which is the t -> infinity
ordering.  Terms whose exponents evaluate equal are merged.  The grouping
key is the integer alpha*A + beta*B + gamma*C, where (A, B, C) = D*(a, b, c)
for the least common denominator D > 0 of a, b and c: it is D times the
exact value, so it orders and merges exactly as the value does, with int
arithmetic only.  Everything is exact: there is no truncation, so little-o
statements become statements about which terms exist below the leading
exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import lcm

from . import _coverage
from .multipoly import Poly, VarSet, YVARS, _exact, assemble_q, q_factor

TVARS = VarSet(("ta", "tb", "tc"))


@dataclass(frozen=True, order=True)
class ExpVector:
    """Integer coefficients of the exponent alpha*a + beta*b + gamma*c."""

    alpha: int
    beta: int
    gamma: int

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
    a, b and c are int or Fraction; a float is not exact and raises TypeError.
    `denominator` is the least common denominator D of a, b and c, and
    `weights` the integer triple D*(a, b, c); both are derived, so they take
    no part in equality, hashing or the repr.
    """

    id: str
    a: Fraction
    b: Fraction
    c: Fraction
    denominator: int = field(init=False, repr=False, compare=False)
    weights: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.id not in ("one", "two"):
            raise ValueError("regime id must be 'one' or 'two'")
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, Fraction(_exact(getattr(self, name))))
        a, b, c = self.a, self.b, self.c
        if not (a > b > c > 0):
            raise ValueError("regime requires a > b > c > 0")
        if self.id == "one":
            if not (a - b < b - c < 2 * (a - b)):
                raise ValueError("regime one requires a-b < b-c < 2(a-b)")
        else:
            if not (b - c < a - b < 2 * (b - c)):
                raise ValueError("regime two requires b-c < a-b < 2(b-c)")
        d = lcm(a.denominator, b.denominator, c.denominator)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "weights", (int(a * d), int(b * d), int(c * d)))


REGIME_ONE = Regime("one", Fraction(2), Fraction(8, 5), Fraction(1))
REGIME_TWO = Regime("two", Fraction(2), Fraction(7, 5), Fraction(1))

DEFAULT_REGIMES = {"one": REGIME_ONE, "two": REGIME_TWO}


def _t(name: str) -> Poly:
    return Poly.variable(TVARS, name)


def regime_images(regime_id: str) -> dict[str, Poly]:
    """Four times the y1..y4 images, as integer linear forms in t^a, t^b, t^c.

    A copy each call: the images substitution reads are built once and shared.
    """
    return {y: Poly(TVARS, image.terms) for y, image in _shared_images(regime_id).items()}


@lru_cache(maxsize=2)
def _shared_images(regime_id: str) -> dict[str, Poly]:
    ta, tb, tc = _t("ta"), _t("tb"), _t("tc")
    if regime_id == "one":
        return {
            "y1": ta.scale(3) - tb - tc,
            "y2": tb.scale(3) - ta - tc,
            "y3": tc.scale(3) - ta - tb,
            "y4": -(ta + tb + tc),
        }
    if regime_id == "two":
        return {
            "y1": ta.scale(2) + tb.scale(2) - tc,
            "y2": ta.scale(2) - tb.scale(2) - tc,
            "y3": tc.scale(3) - ta.scale(2),
            "y4": -(ta.scale(2) + tc),
        }
    raise ValueError("regime id must be 'one' or 'two'")


class PuiseuxPoly:
    """Finite sum of terms q * t^(alpha*a + beta*b + gamma*c) under a regime.

    A view of `poly`, the t-polynomial of the four-times images: its term
    t^e stands for the term of coefficient c/4^|e| in the paper's images.
    `==`, `+` and `*` act on `poly`.  `terms` keys the nonzero exponent
    classes by the int alpha*A + beta*B + gamma*C, with (A, B, C) the
    regime's `weights`, that is, the exact exponent value times the
    regime's `denominator`; each class holds its merged coefficient and
    the sorted tuple of the exponent vectors that contributed to it.
    """

    __slots__ = ("regime", "poly", "_top")

    def __init__(self, regime: Regime, poly: Poly) -> None:
        if poly.vars != TVARS:
            raise ValueError("expected a polynomial in the t-exponent variables")
        self.regime = regime
        self.poly = poly
        self._top: tuple[int, Fraction, tuple[ExpVector, ...]] | None = None

    def _classes(self) -> dict[int, list[tuple[int, int, int]]]:
        """The exponents of `poly` grouped by integer key."""
        wa, wb, wc = self.regime.weights
        classes: dict[int, list[tuple[int, int, int]]] = {}
        for exps in self.poly.terms:
            alpha, beta, gamma = exps
            classes.setdefault(alpha * wa + beta * wb + gamma * wc, []).append(exps)
        return classes

    def _merged(self, members: list[tuple[int, int, int]]) -> tuple[int, int]:
        """(s, D) with s/4^D the merged coefficient of a class; D is its largest degree."""
        terms = self.poly.terms
        if len(members) == 1:
            return terms[members[0]], sum(members[0])
        top = max(map(sum, members))
        return sum(terms[e] * 4 ** (top - sum(e)) for e in members), top

    def _read(self, members) -> tuple[Fraction, tuple[ExpVector, ...]] | None:
        """Merged coefficient and contributing vectors of a class; None when it cancels."""
        s, degree = self._merged(members)
        if not s:
            return None
        return Fraction(s, 4**degree), tuple(ExpVector(*e) for e in sorted(members))

    @property
    def terms(self) -> dict[int, tuple[Fraction, tuple[ExpVector, ...]]]:
        classes = self._classes().items()
        return {key: cls for key, members in classes if (cls := self._read(members))}

    def top_class(self) -> tuple[int, Fraction, tuple[ExpVector, ...]]:
        """Key, merged coefficient and vectors of the largest nonzero class.

        Classes are read from the top down, so only the cancelled classes
        above it are summed and no class below it is read.
        """
        if self._top is None:
            classes = self._classes()
            for key in sorted(classes, reverse=True):
                if cls := self._read(classes[key]):
                    self._top = (key, *cls)
                    break
            else:
                raise ValueError("zero polynomial has no leading term")
        return self._top

    def _check_regime(self, other: "PuiseuxPoly") -> None:
        if self.regime != other.regime:
            raise ValueError("mixed regimes")

    def is_zero(self) -> bool:
        return not any(self._merged(members)[0] for members in self._classes().values())

    def __eq__(self, other: object) -> bool:
        """Equality of the exact t-polynomials, finer than equal merged coefficients."""
        if not isinstance(other, PuiseuxPoly):
            return NotImplemented
        return self.regime == other.regime and self.poly == other.poly

    def __add__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        self._check_regime(other)
        return PuiseuxPoly(self.regime, self.poly + other.poly)

    def __mul__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        self._check_regime(other)
        return PuiseuxPoly(self.regime, self.poly * other.poly)

    def sorted_terms(self) -> list[tuple[Fraction, Fraction, tuple[ExpVector, ...]]]:
        """(exact exponent value, coefficient, contributing vectors), descending."""
        d = self.regime.denominator
        return [(Fraction(key, d), *cls) for key, cls in sorted(self.terms.items(), reverse=True)]

    def __repr__(self) -> str:
        parts = [f"({c})*t^({'|'.join(map(str, vecs))})" for _, c, vecs in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"


def substitute_regime(p: Poly, regime: Regime) -> PuiseuxPoly:
    """Exact substitution of y1..y4 by their regime images, fully expanded."""
    _coverage.touch("asymptotics.substitute_regime")
    if p.vars != YVARS:
        raise ValueError("substitute_regime expects a polynomial in exactly y1..y4")
    return PuiseuxPoly(regime, p.substitute(_shared_images(regime.id)))


def leading_term(p: PuiseuxPoly, regime: Regime) -> tuple[Fraction, ExpVector]:
    """Coefficient and exponent vector of the largest-exponent term.

    The exponent vector returned is the smallest contributor of the top
    value class; for the verified families the class is a single vector.
    """
    _coverage.touch("asymptotics.leading_term")
    if regime != p.regime:
        raise ValueError("regime does not match the polynomial's regime")
    _, coeff, vecs = p.top_class()
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


@lru_cache(maxsize=None)
def _regime_factor(regime_id: str, which: str, args: tuple[str, ...]) -> Poly:
    """P2/P3/P4 under four times the regime substitution: an integer t-polynomial."""
    return q_factor(which, args).substitute(_shared_images(regime_id))


def substituted_q(n: int, m: int, k: int, regime: Regime) -> PuiseuxPoly:
    """The regime image of Q^{n,m,k}, assembled factor by factor.

    Substitution is a ring homomorphism (property-tested elsewhere), so
    substituting P2/P3/P4 first and multiplying the small integer
    t-polynomials gives the same exact result as expanding Q and
    substituting, without the intermediate blow-up.
    """
    return PuiseuxPoly(regime, assemble_q(n, m, k, partial(_regime_factor, regime.id)))


def verify_q_asymptotics(
    n: int, m: int, k: int, regime: Regime
) -> tuple[Fraction, ExpVector, bool]:
    """The computed leading coefficient and exponent, and whether they match the closed form.

    Passes only when the top exponent class consists of the single
    expected vector and the merged coefficient equals the expected one,
    so an accidental exponent collision at the top is reported as a
    failure rather than silently absorbed.
    """
    _coverage.touch("asymptotics.verify_q_asymptotics")
    if n < 0 or m < 0 or k < 0:
        raise ValueError("q parameters must be non-negative")
    substituted = substituted_q(n, m, k, regime)
    actual_coeff, actual_exp = leading_term(substituted, regime)
    _, _, top_vecs = substituted.top_class()
    expected_coeff, expected_exp = expected_q_leading(n, m, k, regime.id)
    passed = (
        actual_coeff == expected_coeff
        and actual_exp == expected_exp
        and top_vecs == (expected_exp,)
    )
    return actual_coeff, actual_exp, passed
