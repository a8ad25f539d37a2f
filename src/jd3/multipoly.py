"""Multivariate polynomials over the integers with signed group actions.

Polynomials are sparse maps from exponent tuples to nonzero `int`
coefficients, over a fixed ordered variable set; a coefficient that is
not an `int` raises `TypeError`, so ring operations never leave integer
arithmetic.  A rational number appears only in `evaluate`.  A `Packing`
packs each exponent tuple into one int, one byte-aligned field of 1, 2,
4 or 8 bytes per coordinate, so adding two packed keys multiplies the
monomials (packed exponent vectors, as in Monagan and Pearce, CASC
2007).  A `Poly` is the one packed type: it holds its terms once,
keyed by tuples or packed in one `Packing`, with `top`, a bound on its
largest exponent.  Product and power choose the layout that holds the
result's `top`, re-key each operand into it in place (`Poly.packed`),
run the one packed kernel and return the result packed; a sum stays in
the layout its operands share, else in the one that holds both tops.
Reading `terms` re-keys a Poly to tuples in place.  `Powers` is the one
lazy table of a polynomial's powers, and a substitution is one
`SubstitutionTable`, which sums its monomial images packed.  A result
exponent of 2^64 or more raises OverflowError.
On top of the ring operations this module provides the signed
permutation actions of S4 and their group sums, taken once per orbit,
elementary symmetric polynomials, the discriminant, the P2/P3/P4
building blocks and the Q^{n,m,k} family used by the verification
suites, with `QFactorPowers`, the one table of Q's factor powers in a
caller's coordinates, exact division on graded packed keys, and
membership in the subring Z[u, v, w] by w-adic division of P2, P3 and
P4, closed under products.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction
from functools import partial, reduce
from operator import add, itemgetter, methodcaller, mul
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from . import _coverage


class NotDivisibleError(ArithmeticError):
    """Raised by divide_exact when the divisor does not divide exactly."""


class NotInSubringError(ArithmeticError):
    """Raised when a polynomial is not in the u, v, w subring."""


class VarSet(tuple):
    """Ordered tuple of distinct variable names; the order is canonical."""

    __slots__ = ()

    def __new__(cls, names: tuple[str, ...]) -> VarSet:
        self = super().__new__(cls, names)
        if len(set(self)) != len(self):
            raise ValueError("variable names must be unique")
        return self

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"VarSet{tuple(self)}"


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


class Packing:
    """One packed layout: n exponents of at most `limit`, one int key per exponent tuple.

    `Packing(n, top)` is the layout of n byte-aligned fields of 1, 2, 4
    or 8 bytes, the fewest that hold `top`, packed and unpacked lazily
    and in C through `struct`.  There is one object per n and field
    width, so two polynomials share a layout exactly when they share the
    object.  `limit`, at least `top`, is the largest exponent a field
    holds.  Adding two keys multiplies their monomials while every
    exponent of the product stays at most `limit`; `Poly` sizes each
    layout from its `top`, so no caller reads a key's fields.  A
    negative `top` raises ValueError, one of 2^64 or more OverflowError.
    """

    __slots__ = ("_fields", "limit")
    _shared: dict[tuple[int, int], Packing] = {}  # (n, top's bit length) -> its layout

    def __new__(cls, n: int, top: int) -> Packing:
        if top < 0:
            raise ValueError(f"exponent bound {top} is negative")
        self = cls._shared.get((n, top.bit_length()))
        if self is None:
            width = next((w for w in (1, 2, 4, 8) if top >> (8 * w) == 0), None)
            if width is None:
                raise OverflowError(f"exponent {top} does not fit in 64 bits")
            self = cls._shared.get((n, 8 * width)) or super().__new__(cls)
            self._fields = struct.Struct(f">{n}{'BHIQ'[width.bit_length() - 1]}")
            self.limit = (1 << 8 * width) - 1
            cls._shared[n, top.bit_length()] = cls._shared[n, 8 * width] = self
        return self

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


def packed_sum(a: Mapping, b: Mapping) -> dict:
    """Sum of two term maps keyed alike, by one `Packing` or by exponent tuples; no zero kept."""
    out = dict(a)
    get = out.get
    for k, c in b.items():
        out[k] = get(k, 0) + c
    return {k: c for k, c in out.items() if c}


class Poly:
    """Sparse polynomial: a read-only map `terms` from exponent tuple to nonzero int.

    A Poly holds its terms once: keyed by exponent tuples, or packed in
    one `Packing`, its layout, with `top`, a bound on its largest
    exponent.  Reading `terms` re-keys it to tuples and `packed(packing)`
    into `packing`, each in place of the map it held; no map is changed,
    so a map or view read earlier stays valid.  Product, power and sum
    run packed in the layout that holds the result's `top`; a sum of two
    Polys in one layout stays there, on tuples with the top of its terms.
    """

    __slots__ = ("vars", "top", "_terms", "_layout")

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
        self.top = _max_exponent(clean)
        self._terms, self._layout = clean, None

    @classmethod
    def _raw(cls, vars: VarSet, terms: dict, top: int | None = None, packing: Packing | None = None) -> "Poly":
        # internal: terms already normalized (no zeros, valid keys), keyed by
        # tuples or, with `top` given, packed in `packing`
        p = cls.__new__(cls)
        p.vars = vars
        p.top = _max_exponent(terms) if top is None else top
        p._terms, p._layout = terms, packing
        return p

    @classmethod
    def constant(cls, vars: VarSet, c) -> "Poly":
        return cls._raw(vars, {(0,) * len(vars): c} if _int(c) else {}, 0)

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "Poly":
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._raw(vars, {exps: 1}, 1)

    @classmethod
    def monomial(cls, vars: VarSet, exps) -> "Poly":
        return cls(vars, {tuple(exps): 1})

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        if self._layout is not None:
            self._terms, self._layout = self._layout.unpack(self._terms), None
        return MappingProxyType(self._terms)

    def packed(self, packing: Packing) -> dict[int, int]:
        """The terms keyed in `packing`, held from now on in place of the old map; read, never change.

        A layout whose `limit` is below `top` raises OverflowError: its
        fields would carry an exponent into the next one.
        """
        if self._layout is not packing:
            if self.top > packing.limit:
                raise OverflowError(f"exponent bound {self.top} does not fit in fields of {packing.limit}")
            self._terms, self._layout = packing.pack(self.terms), packing
        return self._terms

    def _check_same_vars(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def _alike(self, other: "Poly") -> tuple[Packing | None, Mapping, Mapping]:
        """The layout both hold, else the one that holds both tops, else tuples, and both term maps in it."""
        if self._layout is other._layout:
            return self._layout, self._terms, other._terms
        try:
            packing = Packing(len(self.vars), max(self.top, other.top))
        except OverflowError:
            return None, self.terms, other.terms
        return packing, self.packed(packing), other.packed(packing)

    def __eq__(self, other: object) -> bool:
        """Equal terms, compared keyed alike by `_alike`."""
        if not isinstance(other, Poly):
            return NotImplemented
        if self.vars != other.vars:
            return False
        _, a, b = self._alike(other)
        return a == b

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __add__(self, other: "Poly") -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        self._check_same_vars(other)
        layout, a, b = self._alike(other)
        top = None if layout is None else max(self.top, other.top)
        return Poly._raw(self.vars, packed_sum(a, b), top, layout)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product through `_mul_packed`, in the layout that holds the sum of the tops."""
        _coverage.touch("multipoly.ring_ops")
        self._check_same_vars(other)
        top = self.top + other.top
        packing = Packing(len(self.vars), top)
        return Poly._raw(self.vars, _mul_packed(self.packed(packing), other.packed(packing)), top, packing)

    def scale(self, c) -> "Poly":
        _coverage.touch("multipoly.ring_ops")
        if not _int(c):
            return Poly._raw(self.vars, {})
        return Poly._raw(self.vars, {e: c * v for e, v in self._terms.items()}, self.top, self._layout)

    def __pow__(self, n: int) -> "Poly":
        """Power read from a fresh `Powers` table: n - 1 products for n >= 2, none for n <= 1.

        The result's layout is sized first, so a power whose exponents
        could reach 2^64 raises OverflowError, p ** 1 too.
        """
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        Packing(len(self.vars), n * self.top)
        return Powers(self)[n]

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace every variable by its image polynomial: one use of one `SubstitutionTable`.

        All variables that actually occur must be mapped, and every image
        must be a Poly in one common target variable set.
        """
        return SubstitutionTable(self.vars, mapping)(self)

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

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        by_degree = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for exps, coeff in by_degree:
            factors = [f"{n}^{e}" if e > 1 else n for n, e in zip(self.vars.names, exps) if e]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)


class Powers(dict):
    """The powers of one Poly, read as `table[e]`, each built on its first read and kept.

    The table starts at the base, `table[1]`.  The unit `table[0]` is
    built on its first read, and a further power as one product of the
    largest power below it by the base, every step kept.  A negative
    exponent raises ValueError.
    """

    def __init__(self, base: Poly) -> None:
        super().__init__({1: base})

    def __missing__(self, e: int) -> Poly:
        if e < 0:
            raise ValueError(f"exponent must be non-negative, not {e}")
        if e == 0:
            self[0] = Poly.constant(self[1].vars, 1)
        for i in range(len(self) - (0 in self) + 1, e + 1):
            self[i] = self[i - 1] * self[1]
        return self[e]


class SubstitutionTable:
    """One substitution, variables of `source` to image polynomials, applied to many polynomials.

    Calling the table on a Poly in `source` replaces every variable by its
    image.  All variables that occur must be mapped, and every image must
    be a Poly in one common target variable set.  The table keeps, for its
    own lifetime, one `Powers` table per image and each monomial's image,
    built on its first use as the product of its variables' image powers.
    Each term's coefficient times its monomial's image is summed packed,
    in the layout of the largest image, and the image of a polynomial is
    returned packed there.
    """

    __slots__ = ("source", "target", "_powers", "_unmapped", "_monomials")

    def __init__(self, source: VarSet, mapping: Mapping[str, Poly]) -> None:
        _coverage.touch("multipoly.substitute")
        target: VarSet | None = None
        for img in mapping.values():
            if not isinstance(img, Poly):
                raise TypeError(f"substitution images are Poly, not {type(img).__name__}")
            if target is None:
                target = img.vars
            elif img.vars != target:
                raise ValueError("substitution images use different variable sets")
        self.source, self.target = source, target
        self._powers = [None if name not in mapping else Powers(mapping[name]) for name in source.names]
        self._unmapped = [i for i, powers in enumerate(self._powers) if powers is None]
        self._monomials: dict[tuple[int, ...], Poly] = {}

    def _monomial(self, exps: tuple[int, ...]) -> Poly:
        """The image of a monomial, the product of its variables' image powers, built once."""
        if exps not in self._monomials:
            factors = [self._powers[i][e] for i, e in enumerate(exps) if e]
            self._monomials[exps] = reduce(mul, factors) if factors else Poly.constant(self.target, 1)
        return self._monomials[exps]

    def __call__(self, p: Poly) -> Poly:
        """The image of p.  A polynomial in another variable set, or one using an unmapped variable, raises ValueError."""
        if p.vars != self.source:
            raise ValueError(f"variable sets differ: {p.vars} vs {self.source}")
        if p.is_zero():
            return Poly._raw(self.source if self.target is None else self.target, {})
        if self.target is None:
            raise ValueError("empty substitution map")
        for i in self._unmapped:
            if any(e[i] for e in p.terms):
                raise ValueError(f"variable {self.source.names[i]} is not mapped")
        images = [(coeff, self._monomial(exps)) for exps, coeff in p.terms.items()]
        top = max(image.top for _, image in images)
        packing = Packing(len(self.target), top)
        acc: dict[int, int] = {}
        get = acc.get
        for coeff, image in images:
            for k, c in image.packed(packing).items():
                acc[k] = get(k, 0) + coeff * c
        return Poly._raw(self.target, {k: c for k, c in acc.items() if c}, top, packing)


class SignedPermAction(
    NamedTuple("SignedPermAction", [("vars", VarSet), ("perm", tuple), ("character", int)])
):
    """A permutation of the variables together with a +-1 character value.

    perm[i] = j means variable i is relabeled to variable j.  `relabel`
    maps an exponent tuple to its image; it is derived, so it takes no
    part in equality, hashing or the repr.  `_replace` builds through
    `_make`, as the constructor does, so it validates and derives too.
    """

    def __new__(cls, vars: VarSet, perm: tuple[int, ...], character: int) -> SignedPermAction:
        return cls._make((vars, perm, character))

    @classmethod
    def _make(cls, fields) -> SignedPermAction:
        vars, perm, character = fields
        if sorted(perm) != list(range(len(vars))):
            raise ValueError("perm is not a permutation of the variable indices")
        if character not in (1, -1):
            raise ValueError("character must be +1 or -1")
        self = super()._make((vars, perm, character))
        # an exponent tuple relabelled reads its new slot j from old slot perm^-1(j)
        inverse = sorted(range(len(perm)), key=perm.__getitem__)
        self.relabel = itemgetter(*inverse) if len(inverse) > 1 else tuple
        return self


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
    integral, and applying it twice multiplies by |G|.  `group` must be a
    group of signed permutations (characters multiply under composition);
    a list without the identity with character +1 raises ValueError.  The
    sum is taken once per orbit of p's terms (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. I): a representative e is
    relabelled by every element, and each other term f = h.e of its orbit
    is read from e's images, as f's group sum is chi(h) times e's (both
    are 0 when a stabilizer element of e has character -1).  The input
    must be homogeneous: the character choice is per-degree, so mixing
    degrees under one character would be meaningless.
    """
    _coverage.touch("multipoly.symmetrize")
    if not group:
        raise ValueError("empty group")
    if not p.is_homogeneous():
        raise ValueError("symmetrize requires a homogeneous polynomial")
    if any(action.vars is not p.vars and action.vars != p.vars for action in group):
        raise ValueError("group action on a different variable set")
    identity = tuple(range(len(p.vars)))
    if not any(action.perm == identity and action.character == 1 for action in group):
        raise ValueError("group without the identity")
    relabels = [action.relabel for action in group]
    characters = [action.character for action in group]
    rest = dict(p.terms)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    while rest:
        e, weight = rest.popitem()
        images = [relabel(e) for relabel in relabels]
        for f, chi in zip(images, characters):
            weight += chi * rest.pop(f, 0)
        if weight:
            for f, chi in zip(images, characters):
                acc[f] = get(f, 0) + chi * weight
    return Poly._raw(p.vars, {k: c for k, c in acc.items() if c}, p.top)


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
    return _differences(vars, tuple(itertools.combinations(vars.names, 2)))


def _differences(vars: VarSet, pairs: tuple[tuple[str, str], ...]) -> Poly:
    """The product of a - b over the pairs (a, b)."""
    x = {name: Poly.variable(vars, name) for name in vars.names}
    return reduce(mul, (x[a] - x[b] for a, b in pairs))


def p2(vars: VarSet, args: tuple[str, str, str]) -> Poly:
    """(a-b)^2 + (b-c)^2 + (c-a)^2 for the three given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 3:
        raise ValueError("p2 takes exactly three argument variables")
    a, b, c = args
    pairs = ((a, b), (b, c), (c, a))
    return reduce(add, (_differences(vars, (pair, pair)) for pair in pairs))


def p3(vars: VarSet, args: tuple[str, str, str]) -> Poly:
    """(a-b)(b-c)(c-a) for the three given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 3:
        raise ValueError("p3 takes exactly three argument variables")
    a, b, c = args
    return _differences(vars, ((a, b), (b, c), (c, a)))


def p4(vars: VarSet, args: tuple[str, str, str, str]) -> Poly:
    """(a-c)(b-c)(a-d)(b-d) for the four given variables."""
    _coverage.touch("multipoly.p2p3p4")
    if len(args) != 4:
        raise ValueError("p4 takes exactly four argument variables")
    a, b, c, d = args
    return _differences(vars, ((a, c), (b, c), (a, d), (b, d)))


# Argument tuples of the four P2/P3 terms and the three P4 pairings of Q^{n,m,k}.
_Q_TRIPLES = (("y1", "y2", "y3"), ("y4", "y3", "y2"), ("y3", "y4", "y1"), ("y2", "y1", "y4"))
_Q_QUADS = (("y1", "y2", "y3", "y4"), ("y1", "y3", "y2", "y4"), ("y1", "y4", "y2", "y3"))
_Arguments = tuple[tuple[str, ...], ...]


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
    `carry` they stay in y1..y4.  A negative exponent raises ValueError.
    The factors are built and carried once, on the first read, each with
    its `Powers` table, and P4 only once some k >= 1 is read: `second(0)`
    is the number of pairings, carried.  Column m of `first` is a chain of
    per-triple terms from P3^(2m+3) that steps by P2, and `second` one
    from P4 that steps by P4; each entry a chain passes is summed once and
    kept.  Every step and sum is a `Poly` product or sum, so it runs
    packed in the layout that holds its exponents.
    """

    def __init__(
        self, triples: _Arguments, quads: _Arguments, carry: Callable[[Poly], Poly] | None = None
    ) -> None:
        self._triples, self._quads = triples, quads
        self._carry = (lambda p: p) if carry is None else carry
        self._tables: dict[str, list[Powers]] = {}  # "p2", ... -> one table per argument tuple
        self._entries: dict[tuple, Poly] = {}  # (m, n): first(n, m), (None, k): second(k)
        self._chains: dict[int | None, tuple[int, list[Poly]]] = {}  # chain -> its head

    def _powers(self, which: str) -> list[Powers]:
        """The power tables of P2, P3 or P4 at each argument tuple, in the table's coordinates."""
        if which not in self._tables:  # set last, so a factor that fails is built again
            arguments = self._quads if which == "p4" else self._triples
            self._tables[which] = [Powers(self._carry(q_factor(which, args))) for args in arguments]
        return self._tables[which]

    def _walk(self, chain: int | None, exponent: int, head: tuple[int, list[Poly]], step: list[Poly]) -> None:
        """Extend chain m of `first`, or None of `second`, to `exponent`; keep each entry passed."""
        e, terms = self._chains.get(chain, head)
        while True:
            if (chain, e) not in self._entries:
                # each entry is its own Poly on the sum's map, since a one-term sum is the
                # chain's term itself: a reader that re-keys the entry leaves the term packed
                entry = reduce(add, terms)
                self._entries[chain, e] = Poly._raw(entry.vars, entry._terms, entry.top, entry._layout)
            if e >= exponent:
                break
            e, terms = e + 1, list(map(mul, terms, step))
        self._chains[chain] = (e, terms)

    def first(self, n: int, m: int) -> Poly:
        if n < 0 or m < 0:
            raise ValueError(f"exponents must be non-negative, not n={n}, m={m}")
        if (m, n) not in self._entries:
            p2s, p3s = self._powers("p2"), self._powers("p3")
            self._walk(m, n, (0, [p[2 * m + 3] for p in p3s]), [p[1] for p in p2s])
        return self._entries[m, n]

    def second(self, k: int) -> Poly:
        if k < 0:
            raise ValueError(f"exponent must be non-negative, not k={k}")
        if (None, 0) not in self._entries:
            self._entries[None, 0] = self._carry(Poly.constant(YVARS, len(self._quads)))
        if (None, k) not in self._entries:
            p4s = [p[1] for p in self._powers("p4")]
            self._walk(None, k, (1, p4s), p4s)
        return self._entries[None, k]


def divide_exact(p: Poly, d: Poly) -> Poly:
    """Integer quotient q with p = q*d, or NotDivisibleError if none exists.

    Single-divisor multivariate division over Z in graded-lex order: a
    leading term that the divisor's leading term does not divide, or whose
    coefficient its coefficient does not divide, certifies that no integer
    quotient exists.  By Gauss's lemma this agrees with division over Q
    when d is primitive (the gcd of its coefficients is 1).

    The division runs on graded packed keys (Monagan and Pearce, CASC
    2007): one `Packing` of n + 1 fields whose top field is the total
    degree, so graded-lex order is integer order, the leading term is the
    largest key, and each step adds keys.  Every field has a spare high
    bit, a guard: the divisor's leading key divides a key exactly when
    their difference plus the guards keeps every guard set.  No exponent
    of a step exceeds the dividend's degree, so no field ever reaches its
    guard bit.
    """
    _coverage.touch("multipoly.divide_exact")
    p._check_same_vars(d)
    if d.is_zero():
        raise ValueError("division by the zero polynomial")
    top = max(map(sum, itertools.chain(p.terms, d.terms)))
    packing = Packing(len(p.vars) + 1, 2 * top + 1)
    (guards,) = packing.keys([((packing.limit + 1) // 2,) * (len(p.vars) + 1)])

    def graded(terms: Mapping[tuple[int, ...], int]) -> dict[int, int]:
        return dict(zip(packing.keys((sum(e), *e) for e in terms), terms.values()))

    work, divisor = graded(p.terms), graded(d.terms)
    d_key = max(divisor)
    d_coeff = divisor.pop(d_key)
    d_rest = list(divisor.items())
    quotient: dict[int, int] = {}
    get = work.get
    while work:
        lead = max(work)
        q_key = lead - d_key
        q_coeff, rest = divmod(work.pop(lead), d_coeff)
        if rest or (q_key + guards) & guards != guards:
            raise NotDivisibleError("polynomial is not divisible by the given divisor")
        quotient[q_key] = q_coeff
        # subtract q_coeff * x^q * d; its leading term cancels `lead`, popped above
        for k, c in d_rest:
            k += q_key
            s = get(k, 0) - q_coeff * c
            if s:
                work[k] = s
            else:
                del work[k]
    return Poly._raw(p.vars, {e[1:]: c for e, c in packing.unpack(quotient).items()})


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
    return (powers.first(n, m) * powers.second(k)).scale(12)
