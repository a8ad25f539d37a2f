"""Multivariate polynomials over the integers with signed group actions.

Polynomials are sparse maps from exponent tuples to nonzero `int`
coefficients, over a fixed ordered variable set; a coefficient that is
not an `int` raises `TypeError`, so ring operations never leave integer
arithmetic.  A rational number appears only in `evaluate`.  Multiply,
power and substitute each build one `Packing`, a layout that packs each
exponent tuple into one int, one byte-aligned field of 1, 2, 4 or 8
bytes per coordinate, wide enough for the largest exponent of the
result, so adding two packed keys multiplies the monomials (packed
exponent vectors, as in Monagan and Pearce, CASC 2007).  They pack once
on the way in, run every intermediate product through the one packed
kernel, read every power from one lazy table (`Packing.powers`), and
unpack once; the term maps of a Poly stay keyed by tuples.  Callers that
keep polynomials packed from factor to product (`packed_product`,
`packed_sum`), as the slice rows do, use the same layout.  A result
exponent of 2^64 or more raises OverflowError.  On top of the ring operations this
module provides the signed permutation actions of S4 and their group
sums, elementary symmetric polynomials, the discriminant, the
P2/P3/P4 building blocks and the Q^{n,m,k} family used by the
verification suites, with `QFactorPowers`, the one table of Q's factor
powers in a caller's coordinates, exact division, and membership in the
subring Z[u, v, w] by w-adic division of P2, P3 and P4, closed under products.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from operator import add, itemgetter, methodcaller, mul, neg
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from . import _coverage


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


def _exact(x) -> int | Fraction:
    """An int or Fraction as an int when integral, else as a Fraction.

    Anything else, a float or a string, raises TypeError: a float is not exact.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact numbers are int or Fraction, not {type(x).__name__}")


def _int(c) -> int:
    """c if it is an int; anything else, an integral rational too, raises TypeError."""
    if type(c) is not int:
        raise TypeError(f"coefficients are int, not {type(c).__name__}")
    return c


def _max_exponent(terms: dict) -> int:
    """Largest single exponent in a term map; 0 when there are no variables."""
    return max(itertools.chain.from_iterable(terms), default=0)


def _mul_packed(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two term maps keyed by packed exponents, cancelled terms dropped."""
    if len(a) > len(b):
        a, b = b, a
    b_items = list(b.items())
    out: dict[int, int] = {}
    get = out.get  # a plain dict read this way beats a defaultdict's +=
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


class _Powers(dict):
    """Lazy powers of one packed polynomial: e -> base^e, from {0: 1, 1: base}.

    A missing power is built from the largest one below it, one
    `_mul_packed` by the base per step, and every step is kept.
    """

    def __missing__(self, e: int) -> dict[int, int]:
        for i in range(len(self), e + 1):
            self[i] = _mul_packed(self[i - 1], self[1])
        return self[e]


class Packing:
    """One packed layout: n exponents of at most `top`, one int key per exponent tuple.

    Each exponent takes a byte-aligned field of 1, 2, 4 or 8 bytes, the
    fewest that hold `top`, packed and unpacked lazily and in C through
    `struct`.  A packed polynomial is a plain dict from key to nonzero
    int coefficient.  Adding two keys multiplies their monomials while
    every exponent of the product stays at most `top`, so `_mul_packed`
    and `packed_product` multiply within one layout and `packed_sum`
    adds; a caller keeps the degrees of its products at most `top` and
    never reads a key's fields.  A negative `top` raises ValueError, one
    of 2^64 or more OverflowError.
    """

    __slots__ = ("_fields",)

    def __init__(self, n: int, top: int) -> None:
        if top < 0:
            raise ValueError(f"exponent bound {top} is negative")
        width = next((w for w in (1, 2, 4, 8) if top >> (8 * w) == 0), None)
        if width is None:
            raise OverflowError(f"exponent {top} does not fit in 64 bits")
        self._fields = struct.Struct(f">{n}{'BHIQ'[width.bit_length() - 1]}")

    def keys(self, tuples) -> Iterator[int]:
        """The key of each exponent tuple, lazily and in order."""
        from_bytes = partial(int.from_bytes, byteorder="big")
        return map(from_bytes, itertools.starmap(self._fields.pack, tuples))

    def pack(self, terms: Mapping[tuple[int, ...], int]) -> dict[int, int]:
        """A term map keyed by exponent tuples, for example a Poly's `terms`, keyed packed."""
        return dict(zip(self.keys(terms), terms.values()))

    def unpack(self, packed: dict[int, int]) -> dict[tuple[int, ...], int]:
        """A packed polynomial's term map keyed by exponent tuples again."""
        to_bytes = methodcaller("to_bytes", self._fields.size, "big")
        return dict(zip(map(self._fields.unpack, map(to_bytes, packed)), packed.values()))

    def powers(self, base: dict[int, int]) -> Mapping[int, dict[int, int]]:
        """The powers of a packed polynomial, read as `table[e]` and each built once.

        The table starts at the unit and `base`, the zero tuple's key being
        0; a further power is built on its first read, one `_mul_packed`
        of the power below it by `base`, and kept with the table.
        """
        return _Powers({0: {0: 1}, 1: base})


def packed_product(*factors: dict[int, int]) -> dict[int, int]:
    """Product of one or more packed polynomials of one `Packing`."""
    return reduce(_mul_packed, factors)


def packed_sum(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Sum of two packed polynomials of one `Packing`, cancelled terms dropped."""
    out = dict(a)
    get = out.get
    for k, c in b.items():
        out[k] = get(k, 0) + c
    return {k: c for k, c in out.items() if c}


class Poly:
    """Sparse polynomial: a read-only map `terms` from exponent tuple to nonzero int."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms: dict | None = None) -> None:
        self.vars = vars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            n = len(vars)
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError("exponent tuple length does not match variable count")
                for e in exps:
                    if type(e) is not int:
                        raise TypeError(f"exponents are int, not {type(e).__name__}")
                    if e < 0:
                        raise ValueError("negative exponent")
                if _int(coeff):
                    clean[exps] = coeff
        self.terms = MappingProxyType(clean)

    @classmethod
    def _raw(cls, vars: VarSet, terms: dict) -> "Poly":
        # internal: terms already normalized (no zeros, valid tuples)
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = MappingProxyType(terms)
        return p

    @classmethod
    def constant(cls, vars: VarSet, c) -> "Poly":
        if not _int(c):
            return cls._raw(vars, {})
        return cls._raw(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Poly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._raw(vars, {exps: 1})

    @classmethod
    def monomial(cls, vars: VarSet, exps) -> "Poly":
        return cls(vars, {tuple(exps): 1})

    def _check_same_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

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
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly._raw(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product through `_mul_packed`, packing and unpacking once."""
        _coverage.touch("multipoly.ring_ops")
        self._check_same_vars(other)
        a, b = self.terms, other.terms
        packing = Packing(len(self.vars), _max_exponent(a) + _max_exponent(b))
        return Poly._raw(self.vars, packing.unpack(_mul_packed(packing.pack(a), packing.pack(b))))

    def scale(self, c) -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        if not _int(c):
            return Poly._raw(self.vars, {})
        return Poly._raw(self.vars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        """Power by repeated multiplication, read from one `Packing.powers` table.

        p ** n runs n - 1 packed products for n >= 2 and none for n <= 1.
        """
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if not n:
            return Poly.constant(self.vars, 1)
        packing = Packing(len(self.vars), n * _max_exponent(self.terms))
        return Poly._raw(self.vars, packing.unpack(packing.powers(packing.pack(self.terms))[n]))

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace every variable by its image polynomial.

        All variables that actually occur must be mapped, and every image
        must be a Poly in one common target variable set.  Each image's
        powers are read from one `Packing.powers` table, so each is built
        once; each term is multiplied out and summed packed.
        """
        _coverage.touch("multipoly.substitute")
        target: VarSet | None = None
        for img in mapping.values():
            if not isinstance(img, Poly):
                raise TypeError(f"substitution images are Poly, not {type(img).__name__}")
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise ValueError("substitution images use different variable sets")
        if not self.terms:
            return Poly._raw(self.vars if target is None else target, {})
        if target is None:
            raise ValueError("empty substitution map")
        images = [mapping.get(name) for name in self.vars.names]
        degrees = [max(column) for column in zip(*self.terms)]
        for name, img, d in zip(self.vars.names, images, degrees):
            if d and img is None:
                raise ValueError(f"variable {name} is not mapped")
        tops = [_max_exponent(img.terms) if d else 0 for img, d in zip(images, degrees)]
        packing = Packing(len(target), max(sum(map(mul, e, tops)) for e in self.terms))
        tables = [
            packing.powers(packing.pack(img.terms)) if d else None
            for img, d in zip(images, degrees)
        ]
        unit = packing.powers({})[0]  # the zeroth power, for a term that has no variable
        acc: dict[int, int] = {}
        get = acc.get
        for exps, coeff in self.terms.items():
            factor = None
            for table, e in zip(tables, exps):
                if e:
                    factor = table[e] if factor is None else _mul_packed(factor, table[e])
            for k, c in (unit if factor is None else factor).items():
                acc[k] = get(k, 0) + coeff * c
        return Poly._raw(target, packing.unpack({k: c for k, c in acc.items() if c}))

    def evaluate(self, point: dict[str, int | Fraction]) -> Fraction:
        """Exact value at a point; a float value raises TypeError."""
        vals = [_exact(point[name]) for name in self.vars.names]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(vals, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Graded-lex leading term (degree first, then lex on exponents)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        by_degree = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for exps, coeff in by_degree:
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
    relabel: Callable[[tuple[int, ...]], tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if sorted(self.perm) != list(range(len(self.vars))):
            raise ValueError("perm is not a permutation of the variable indices")
        if self.character not in (1, -1):
            raise ValueError("character must be +1 or -1")
        # an exponent tuple relabelled reads its new slot j from old slot perm^-1(j)
        inverse = sorted(range(len(self.perm)), key=self.perm.__getitem__)
        object.__setattr__(self, "relabel", itemgetter(*inverse) if len(inverse) > 1 else tuple)


def perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions & 1 else 1


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
    """The signed group sum, the sum over g of chi(g) g.p.

    This is |G| times the projector onto the chi-isotypic part, so it stays
    integral, and applying it twice multiplies by |G|.  The input must be
    homogeneous: the character choice is per-degree, so mixing degrees
    under one character would be meaningless.
    """
    _coverage.touch("multipoly.symmetrize")
    if not group:
        raise ValueError("empty group")
    if not p.is_homogeneous():
        raise ValueError("symmetrize requires a homogeneous polynomial")
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for action in group:
        if action.vars != p.vars:
            raise ValueError("group action on a different variable set")
        coeffs = p.terms.values() if action.character > 0 else map(neg, p.terms.values())
        for k, c in zip(map(action.relabel, p.terms), coeffs):
            acc[k] = get(k, 0) + c
    return Poly._raw(p.vars, {k: c for k, c in acc.items() if c})


def elementary_symmetric(i: int, vars: VarSet) -> Poly:
    """i-th elementary symmetric polynomial: sum of squarefree i-fold products."""
    _coverage.touch("multipoly.elementary_symmetric")
    n = len(vars)
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for {n} variables")
    terms: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations(range(n), i):
        exps = tuple(1 if j in combo else 0 for j in range(n))
        terms[exps] = 1
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
    first = reduce(
        add, (q_factor("p2", t) ** n * q_factor("p3", t) ** (2 * m + 3) for t in _Q_TRIPLES)
    )
    second = reduce(add, (q_factor("p4", q) ** k for q in _Q_QUADS))
    return first * second


class QFactorPowers:
    """Powers of the factors of Q^{n,m,k}, each built once, for one caller's lifetime.

    `first(n, m)` is the sum over `triples` of P2^n * P3^(2m+3) and
    `second(k)` the sum over `quads` of P4^k, each factor taken at its
    argument y-variables and carried by `carry`, a ring homomorphism given
    as a map of polynomials, into the caller's coordinates; with no
    `carry` they stay in y1..y4.
    The factors are built on the first read, P3 once per triple and then
    squared and cubed, and P4 only once some k >= 1 is read: `second(0)`
    is the number of pairings, carried.  Each new entry is one product per
    term by P2, P3^2 or P4, extended from a kept chain head: column m
    keeps its per-triple terms at its largest n, one more chain keeps them
    at n = 0 for the largest m, and the pairings keep theirs at the
    largest k.  Every sum
    below a head is kept, so a head is never extended past a smaller
    exponent; no other product is kept.
    """

    def __init__(
        self,
        triples: tuple[tuple[str, ...], ...],
        quads: tuple[tuple[str, ...], ...],
        carry: Callable[[Poly], Poly] | None = None,
    ) -> None:
        self._triples, self._quads, self._carry = triples, quads, carry
        self._first: dict[tuple[int, int], Poly] = {}
        self._second: list[Poly] = []

    def _factors(self, which: str, arguments: tuple[tuple[str, ...], ...]) -> list[Poly]:
        """P2, P3 or P4 at each argument tuple, in the table's coordinates."""
        factors = [q_factor(which, args) for args in arguments]
        return factors if self._carry is None else list(map(self._carry, factors))

    def first(self, n: int, m: int) -> Poly:
        if not self._first:
            self._p2 = self._factors("p2", self._triples)
            p3s = self._factors("p3", self._triples)
            self._p3_squared = [p * p for p in p3s]
            cubes = [s * p for s, p in zip(self._p3_squared, p3s)]
            self._m_head = (0, cubes)
            self._columns = {0: (0, cubes)}  # m -> (its largest n, the terms there)
            self._first[(0, 0)] = reduce(add, cubes)
        while self._m_head[0] < m:
            top, terms = self._m_head
            terms = [t * s for t, s in zip(terms, self._p3_squared)]
            self._m_head = (top + 1, terms)
            self._columns[top + 1] = (0, terms)
            self._first[(0, top + 1)] = reduce(add, terms)
        top, terms = self._columns[m]
        while top < n:
            terms = [t * p for t, p in zip(terms, self._p2)]
            top += 1
            self._first[(top, m)] = reduce(add, terms)
        self._columns[m] = (top, terms)
        return self._first[(n, m)]

    def second(self, k: int) -> Poly:
        if not self._second:
            constant = Poly.constant(YVARS, len(self._quads))
            self._second.append(constant if self._carry is None else self._carry(constant))
        while len(self._second) <= k:
            if len(self._second) == 1:
                self._p4 = self._p4_powers = self._factors("p4", self._quads)
            else:
                self._p4_powers = [p * f for p, f in zip(self._p4_powers, self._p4)]
            self._second.append(reduce(add, self._p4_powers))
        return self._second[k]


def divide_exact(p: Poly, d: Poly) -> Poly:
    """Integer quotient q with p = q*d, or NotDivisibleError if none exists.

    Single-divisor multivariate division over Z in graded-lex order: a
    leading term that the divisor's leading term does not divide, or whose
    coefficient its coefficient does not divide, certifies that no integer
    quotient exists.  By Gauss's lemma this agrees with division over Q
    when d is primitive (the gcd of its coefficients is 1).
    """
    _coverage.touch("multipoly.divide_exact")
    p._check_same_vars(d)
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    d_exp, d_coeff = d.leading()
    work = dict(p.terms)
    quotient: dict[tuple[int, ...], int] = {}
    while work:
        exps = max(work, key=lambda t: (sum(t), t))
        q_exp = tuple(a - b for a, b in zip(exps, d_exp))
        q_coeff, rest = divmod(work[exps], d_coeff)
        if rest or any(e < 0 for e in q_exp):
            raise NotDivisibleError("polynomial is not divisible by the given divisor")
        quotient[q_exp] = q_coeff
        # subtract q_coeff * x^q_exp * d; the leading term cancels exactly
        for de, dc in d.terms.items():
            k = tuple(a + b for a, b in zip(q_exp, de))
            s = work.get(k, 0) - q_coeff * dc
            if s:
                work[k] = s
            elif k in work:
                del work[k]
    return Poly._raw(p.vars, quotient)


UVWVARS = VarSet(("u", "v", "w"))
_UVRS = VarSet(("u", "v", "r", "s"))


def _uvw_from_uvrs(q: Poly) -> Poly:
    """w-adic division: rewrite a (u, v, r)-polynomial in u, v, w.

    w = uv + (u+v)r + r^2 is monic of degree 2 in r, so the top r-degree
    must be even, and its (u, v)-coefficient g is the coefficient of
    w^(top/2): q - g*w^(top/2) has a lower r-degree.  The r-degree-0
    remainder is the coefficient of w^0, so q reduces to zero exactly
    when it is in the subring.
    """
    if q.vars != _UVRS:
        raise ValueError("expected a polynomial in the change-of-coordinate variables")
    if any(e[3] for e in q.terms):
        raise NotInSubringError("polynomial depends on y3 beyond differences")
    # w = (y1-y4)(y2-y4) = (u+r)(v+r) = uv + (u+v)r + r^2, with s dropped
    u, v, r = (Poly.variable(_UVRS, n) for n in ("u", "v", "r"))
    w = (u + r) * (v + r)
    result: dict[tuple[int, int, int], int] = {}
    while q.terms:
        top = max(e[2] for e in q.terms)
        if top % 2:
            raise NotInSubringError("odd power of y3-y4 cannot come from w")
        g = Poly._raw(_UVRS, {(a, b, 0, 0): c for (a, b, e, _), c in q.terms.items() if e == top})
        result.update({(a, b, top // 2): c for (a, b, _, _), c in g.terms.items()})
        q = q - g * w ** (top // 2)
        if q.terms and max(e[2] for e in q.terms) >= top:
            raise NotInSubringError("w-adic reduction failed to make progress")
    return Poly._raw(UVWVARS, result)


def _uvw_from_y(p: Poly) -> Poly:
    """p in u = y1-y3, v = y2-y3, w = (y1-y4)(y2-y4), or NotInSubringError.

    p is rewritten in u, v, r = y3-y4 and s = y3, a linear change of
    coordinates, and then divided w-adically by `_uvw_from_uvrs`.
    """
    u, v, r, s = (Poly.variable(_UVRS, name) for name in _UVRS.names)
    return _uvw_from_uvrs(p.substitute({"y1": u + s, "y2": v + s, "y3": s, "y4": s - r}))


def express_product_in_uvw(n: int, m: int, k: int, powers: QFactorPowers) -> Poly:
    """The u, v, w expression of 12 * P2^n * P3^(2m+3) * P4^k.

    `powers` tables P2 and P3 at (y1, y2, y3) and P4 at (y1, y2, y3, y4),
    each carried into Z[u, v, w] by `_uvw_from_y`, which raises
    NotInSubringError for a factor outside it.  Z[u, v, w] is a ring, so
    it is closed under products: once the three factors are members, so
    is the product, and substituting u, v, w by their y-polynomials is a
    ring homomorphism, so the product of the factors' expressions is the
    product's expression.  The product is therefore multiplied inside
    Z[u, v, w] and never divided w-adically itself.
    """
    if n < 0 or m < 0 or k < 0:
        raise ValueError("parameters must be non-negative")
    return (powers.first(n, m) * powers.second(k)).scale(12)
