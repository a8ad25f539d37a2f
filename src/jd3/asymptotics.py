"""Exact leading-term analysis in a formal variable t.

Polynomials in y1..y4 are pushed through one of two substitutions whose
images are combinations of t^a, t^b, t^c, giving finite sums of terms
q * t^(alpha*a + beta*b + gamma*c) with integer (alpha, beta, gamma).
The images are kept as integer linear forms, four times the paper's, so
sums, products and equality stay in ints; the factor 4^(alpha+beta+gamma)
is divided out only in the leading exponent class, the one class read.
A regime fixes exact rational values of (a, b, c); exponents are compared
by evaluating the linear form at those values, which is the t -> infinity
ordering.  Terms whose exponents evaluate equal are merged.  The grouping
key is the integer alpha*A + beta*B + gamma*C, where (A, B, C) = D*(a, b, c)
for the least common denominator D > 0 of a, b and c: it is D times the
exact value, so it orders and merges exactly as the value does, with int
arithmetic only.  Q^{n,m,k}'s image is held as its two factors' images,
read from a `multipoly.QFactorPowers` table of the regime's images, and
never multiplied out: the key of a product term is the sum of its
factors' keys, so the leading class is read from the factors' classes,
from the top down, multiplying only the class pairs that land on the
classes read.  Everything is exact: there is no truncation, so little-o
statements become statements about which terms exist below the leading
exponent.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from math import lcm
from operator import add
from typing import NamedTuple

from . import _coverage
from .multipoly import Poly, QFactorPowers, SubstitutionTable, VarSet, YVARS, _exact

TVARS = VarSet(("ta", "tb", "tc"))


class ExpVector(NamedTuple):
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


# What one regime id fixes: the inequality on a-b and b-c, the ValueError of a
# choice that breaks it, four times the paper's y1..y4 images as coefficients of
# (t^a, t^b, t^c), Q^{n,m,k}'s closed-form leading term up to eps, and the check-id tag
_RegimeForm = namedtuple("_RegimeForm", "holds message images leading tag")


# The one record per regime id; every other place that depends on the id reads it here
_REGIMES = {
    "one": _RegimeForm(
        lambda x, y: x < y < 2 * x,
        "regime one requires a-b < b-c < 2(a-b)",
        {"y1": (3, -1, -1), "y2": (-1, 3, -1), "y3": (-1, -1, 3), "y4": (-1, -1, -1)},
        lambda n, m, k: (2**n * (2 * m + 3), ExpVector(2 * (n + 2 * m + k + 3), 2 * (m + k + 1), 1)),
        "regime1",
    ),
    "two": _RegimeForm(
        lambda x, y: y < x < 2 * y,
        "regime two requires b-c < a-b < 2(b-c)",
        {"y1": (2, 2, -1), "y2": (2, -2, -1), "y3": (-2, 0, 3), "y4": (-2, 0, -1)},
        lambda n, m, k: (2 ** (n + 1) * (n + 2 * m + 3), ExpVector(2 * (n + 2 * m + 2 * k) + 5, 2 * m + 3, 1)),
        "regime2",
    ),
}


def _regime_form(regime_id: str) -> _RegimeForm:
    """The record of a regime id; an unknown id raises ValueError."""
    if regime_id not in _REGIMES:
        raise ValueError(f"regime id must be {' or '.join(map(repr, _REGIMES))}")
    return _REGIMES[regime_id]


class Regime(
    NamedTuple("Regime", [("id", str), ("a", Fraction), ("b", Fraction), ("c", Fraction)])
):
    """An exact rational choice of (a, b, c) for one of the two substitutions.

    Regime "one" requires a > b > c > 0 and a-b < b-c < 2(a-b);
    regime "two" requires a > b > c > 0 and b-c < a-b < 2(b-c).
    a, b and c are int or Fraction; a float is not exact and raises TypeError.
    `tag` names the regime in check ids.
    `weights` is the integer triple D*(a, b, c), where D is the least common
    denominator of a, b and c; it is derived, so it takes no part in
    equality, hashing or the repr.  `_replace` builds through `_make`, as
    the constructor does, so it validates and derives `weights` too.
    """

    def __new__(cls, id: str, a: Fraction, b: Fraction, c: Fraction) -> Regime:
        return cls._make((id, a, b, c))

    @classmethod
    def _make(cls, fields) -> Regime:
        id, a, b, c = fields
        form = _regime_form(id)
        a, b, c = (Fraction(_exact(x)) for x in (a, b, c))
        if not (a > b > c > 0):
            raise ValueError("regime requires a > b > c > 0")
        if not form.holds(a - b, b - c):
            raise ValueError(form.message)
        self = super()._make((id, a, b, c))
        d = lcm(a.denominator, b.denominator, c.denominator)
        self.weights = (int(a * d), int(b * d), int(c * d))
        self.tag = form.tag
        return self


REGIME_ONE = Regime("one", Fraction(2), Fraction(8, 5), Fraction(1))
REGIME_TWO = Regime("two", Fraction(2), Fraction(7, 5), Fraction(1))

DEFAULT_REGIMES = {"one": REGIME_ONE, "two": REGIME_TWO}



@lru_cache(maxsize=2)
def _shared_images(regime_id: str) -> dict[str, Poly]:
    """Four times the paper's y1..y4 images, integer linear forms in t^a, t^b, t^c.

    `regime_id` is the id of a `Regime`, which has validated it.  The images
    lie on the hyperplane e1 = 0, so forms that do not sum to 0 raise ValueError.
    """
    forms = _REGIMES[regime_id].images
    if any(map(sum, zip(*forms.values()))):
        raise ValueError(f"regime {regime_id} images do not sum to 0: they leave e1 = 0")
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return {y: Poly(TVARS, dict(zip(units, form))) for y, form in forms.items()}


class PuiseuxPoly:
    """Finite sum of terms q * t^(alpha*a + beta*b + gamma*c) under a regime.

    Held as `factors`, one or two t-polynomials of the four-times images
    whose product it is: a term t^e of that product stands for the term of
    coefficient c/4^|e| in the paper's images.  The product is never
    multiplied out: `top_class()` reads the leading exponent class from
    the factors, and `*` keeps the factors of both operands.
    """

    __slots__ = ("regime", "factors", "_top")

    def __init__(self, regime: Regime, *factors: Poly) -> None:
        if not 1 <= len(factors) <= 2:
            raise ValueError("expected one or two factor polynomials")
        if any(f.vars != TVARS for f in factors):
            raise ValueError("expected a polynomial in the t-exponent variables")
        self.regime = regime
        self.factors = factors
        self._top: tuple[int, Fraction, tuple[ExpVector, ...]] | None = None

    def _classes(self, factor: Poly) -> tuple[list[int], list[dict]]:
        """A factor's integer keys in descending order, each with its class's terms."""
        wa, wb, wc = self.regime.weights
        classes: dict[int, dict[tuple[int, int, int], int]] = {}
        for exps, coeff in factor.terms.items():
            alpha, beta, gamma = exps
            classes.setdefault(alpha * wa + beta * wb + gamma * wc, {})[exps] = coeff
        keys = sorted(classes, reverse=True)
        return keys, [classes[key] for key in keys]

    def top_class(self) -> tuple[int, Fraction, tuple[ExpVector, ...]]:
        """Key, merged coefficient and sorted vectors of the largest nonzero class.

        A class merges to s/4^D, where D is its largest degree and s sums each
        member's coefficient times 4^(D - |e|).  The key is additive under
        multiplication, so the product's class at key K is the sum of
        F_kf * S_kg over the factors' classes with kf + kg = K; one factor is
        the case S = 1.  Candidate keys are popped from a heap over the two
        descending key lists, largest first, as in Johnson's heap
        multiplication (S. C. Johnson, "Sparse polynomial arithmetic", SIGSAM
        Bull. 1974), each class is multiplied out from its pairs alone, and
        the walk stops at the first class whose s is nonzero.  No pair of a
        class is skipped, so the class is the expanded product's own, exact;
        the classes above it cancelled, and when every class cancels the
        walk has multiplied each pair once, no more than the full product.
        """
        if self._top is None:
            first, second = (*self.factors, Poly.constant(TVARS, 1))[:2]
            (fkeys, fclasses), (skeys, sclasses) = self._classes(first), self._classes(second)
            heap = [(-fkeys[0] - skeys[0], 0, 0)] if fkeys and skeys else []
            while heap:
                key = -heap[0][0]
                pairs = []
                while heap and -heap[0][0] == key:
                    _, i, j = heappop(heap)
                    pairs.append(Poly._raw(TVARS, fclasses[i]) * Poly._raw(TVARS, sclasses[j]))
                    if j + 1 < len(skeys):
                        heappush(heap, (-fkeys[i] - skeys[j + 1], i, j + 1))
                    if j == 0 and i + 1 < len(fkeys):
                        heappush(heap, (-fkeys[i + 1] - skeys[0], i + 1, 0))
                terms = reduce(add, pairs).terms
                degree = max(map(sum, terms), default=0)
                s = sum(c * 4 ** (degree - sum(e)) for e, c in terms.items())
                if s:
                    vecs = tuple(ExpVector(*e) for e in sorted(terms))
                    self._top = (key, Fraction(s, 4**degree), vecs)
                    break
            else:
                raise ValueError("zero polynomial has no leading term")
        return self._top

    def __mul__(self, other: "PuiseuxPoly") -> "PuiseuxPoly":
        """The product held as both operands' factors, not multiplied out."""
        if self.regime != other.regime:
            raise ValueError("mixed regimes")
        return PuiseuxPoly(self.regime, *self.factors, *other.factors)


def regime_table(regime: Regime) -> SubstitutionTable:
    """A substitution table of y1..y4 by four times their regime images, for a caller to hold.

    The images depend on `regime.id` only.  The table keeps its image
    powers and monomial images for as long as the caller holds it.
    """
    _coverage.touch("asymptotics.substitute_regime")
    return SubstitutionTable(YVARS, _shared_images(regime.id))


def substitute_regime(p: Poly, regime: Regime) -> Poly:
    """Exact substitution of y1..y4 by four times their regime images, a t-polynomial.

    One use of one `regime_table(regime)`, which refuses any other variable set.
    """
    return regime_table(regime)(p)


def leading_term(p: PuiseuxPoly) -> tuple[Fraction, ExpVector]:
    """Coefficient and exponent vector of the largest-exponent term.

    The exponent vector returned is the smallest contributor of the top
    value class; for the verified families the class is a single vector.
    """
    _coverage.touch("asymptotics.leading_term")
    _, coeff, vecs = p.top_class()
    return coeff, vecs[0]


def expected_q_leading(n: int, m: int, k: int, regime_id: str) -> tuple[Fraction, ExpVector]:
    """Closed-form leading coefficient and exponent of Q^{n,m,k}.

    Regime one:  eps * 2^n * (2m+3)      at 2(n+2m+k+3)a + 2(m+k+1)b + c.
    Regime two:  eps * 2^(n+1) * (n+2m+3) at (2(n+2m+2k)+5)a + (2m+3)b + c.
    eps is 1 for k > 0 and 3 for k = 0.
    """
    coeff, vec = _regime_form(regime_id).leading(n, m, k)
    return Fraction((1 if k > 0 else 3) * coeff), vec


def substituted_q(n: int, m: int, k: int, regime: Regime, powers: QFactorPowers) -> PuiseuxPoly:
    """The regime image of Q^{n,m,k}, held as its two factors' images.

    `powers` tables the factors under the regime's images, which depend on
    `regime.id` only.  Substitution is a ring homomorphism
    (property-tested elsewhere), so the product of the substituted factors
    `first(n, m)` and `second(k)` is the exact image of Q, with no
    expansion of Q in y1..y4.  The product itself is never formed:
    `top_class()` reads the leading class from the factors' classes.
    """
    return PuiseuxPoly(regime, powers.first(n, m)) * PuiseuxPoly(regime, powers.second(k))


def verify_q_asymptotics(n: int, m: int, k: int, regime: Regime, powers: QFactorPowers) -> str:
    """The computed leading term of Q^{n,m,k} under `regime`, rendered as `coeff*t^(vec)`.

    `powers` tables Q's factors under the images of `regime.id`.

    When the top exponent class holds more than one vector, the rendering
    ends in " (merged exponent class)", so an accidental exponent collision
    at the top never reads as the closed form.
    """
    _coverage.touch("asymptotics.verify_q_asymptotics")
    substituted = substituted_q(n, m, k, regime, powers)
    coeff, exp = leading_term(substituted)
    rendered = f"{coeff}*t^({exp})"
    if len(substituted.top_class()[2]) > 1:
        rendered += " (merged exponent class)"
    return rendered
