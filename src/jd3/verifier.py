"""Verification suites with machine-readable reports.

Each suite runs a family of exact checks and returns a Report whose
records render expected and actual values as exact integers or reduced
fractions.  Reports are deterministic: two runs differ only in the
elapsed_ms fields.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _coverage
from .asymptotics import (
    DEFAULT_REGIMES,
    Regime,
    expected_q_leading,
    substitute_regime,
    verify_q_asymptotics,
)
from .diagram_spaces import (
    eliminate_y4,
    subring_family_slice,
    even_closed_form,
    hilbert_coefficients,
    odd_target_dim,
    ihx_image_slice,
    tet_slice,
    tsq_odd_dim,
    x_from_y,
    y_from_x,
    _skew_context,
)
from .linalg import QMatrix, rank, row_space_equal
from .multipoly import (
    Poly,
    XVARS,
    YVARS,
    Y3VARS,
    discriminant,
    divide_exact,
    elementary_symmetric,
    express_product_in_uvw,
    p2,
    p3,
    p4,
    q_poly,
    signed_s4,
    symmetrize,
)

DEFAULT_PROPERTY_SEED = 20060808


@dataclass
class CheckRecord:
    """One verified statement: exact expected vs actual rendering."""

    id: str
    params: dict[str, str]
    expected: str
    actual: str
    passed: bool
    elapsed_ms: int

    def params_string(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))


@dataclass
class Report:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)

    def finalize(self) -> "Report":
        self.checks.sort(key=lambda c: (c.id, c.params_string()))
        return self

    @property
    def summary(self) -> dict[str, int]:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [
                {
                    "id": c.id,
                    "params": dict(sorted(c.params.items())),
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                    "elapsed_ms": c.elapsed_ms,
                }
                for c in self.checks
            ],
            "summary": self.summary,
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["id", "params", "expected", "actual", "pass"]]
        for c in self.checks:
            rows.append([c.id, c.params_string(), c.expected, c.actual, str(c.passed).lower()])
        return rows

    def to_text(self) -> str:
        lines = []
        width = max([len(c.id) for c in self.checks], default=10)
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.id:<{width}}  expected={c.expected}  actual={c.actual}  ({c.elapsed_ms} ms)"
            )
        s = self.summary
        lines.append(
            f"suite={self.suite} total={s['total']} passed={s['passed']} failed={s['failed']}"
        )
        return "\n".join(lines)

    @classmethod
    def merge(cls, suite: str, reports: list["Report"]) -> "Report":
        merged = cls(suite=suite)
        for r in reports:
            merged.checks.extend(r.checks)
        return merged.finalize()


def _timed_check(check_id: str, params: dict[str, str], expected: str, compute) -> CheckRecord:
    t0 = time.perf_counter_ns()
    try:
        actual = compute()
    except Exception as exc:  # any internal error becomes this check's FAIL record
        actual = f"error: {type(exc).__name__}: {exc}"
    elapsed = (time.perf_counter_ns() - t0) // 1_000_000
    return CheckRecord(
        id=check_id,
        params=params,
        expected=expected,
        actual=actual,
        passed=(expected == actual),
        elapsed_ms=elapsed,
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def verify_odd_vanishing(max_legs: int) -> Report:
    """Per odd degree: ambient dimension, image dimension, quotient zero.

    Also compares the row spaces of the two spanning families for odd
    leg counts up to 15, where the full families stay small.
    """
    if max_legs < 0:
        raise ValueError("max_legs must be non-negative")
    report = Report(suite="odd")
    for legs in range(1, max_legs + 1, 2):
        params = {"L": str(legs)}
        ambient = _timed_check(
            f"odd.ambient_dim.L={legs}",
            params,
            str(odd_target_dim(legs)),
            lambda: str(tet_slice(legs, "odd").dim),
        )
        report.checks.append(ambient)
        report.checks.append(
            _timed_check(
                f"odd.image_dim.L={legs}",
                params,
                ambient.actual,
                lambda: str(ihx_image_slice(legs).dim),
            )
        )
        report.checks.append(
            _timed_check(
                f"odd.quotient_dim.L={legs}",
                params,
                "0",
                lambda: str(tet_slice(legs, "odd").dim - ihx_image_slice(legs).dim),
            )
        )
        if legs <= 15:
            report.checks.append(
                _timed_check(
                    f"odd.span_eq.L={legs}",
                    params,
                    "equal",
                    lambda: "equal"
                    if row_space_equal(
                        subring_family_slice(legs).span_matrix, ihx_image_slice(legs).span_matrix
                    )
                    else "different",
                )
            )
    return report.finalize()


def verify_even_dims(max_legs: int, corrupt_closed_form: bool = False) -> Report:
    """Three-way agreement: symmetrizer rank, closed form, series coefficient.

    corrupt_closed_form is a test hook that shifts the closed form by one
    so the failure path of the harness can be exercised end to end.
    """
    if max_legs < 0:
        raise ValueError("max_legs must be non-negative")
    series = hilbert_coefficients(max_legs)
    report = Report(suite="even")
    for n in range(0, max_legs + 1, 2):
        closed = even_closed_form(n) + (1 if corrupt_closed_form else 0)

        def compute() -> str:
            direct = tet_slice(n, "even").dim
            coeff = series[n]
            if direct == closed == coeff:
                return str(direct)
            return f"rank={direct},closed_form={closed},series={coeff}"

        report.checks.append(_timed_check(f"even.threeway.n={n}", {"n": str(n)}, str(closed), compute))
    return report.finalize()


def _lemma_triples(d: int) -> list[tuple[int, int, int]]:
    # all (n, m, k) >= 0 with n + 2k + 3m = d, deterministic order
    out = []
    for m in range(d // 3 + 1):
        for k in range((d - 3 * m) // 2 + 1):
            out.append((d - 3 * m - 2 * k, m, k))
    return out


def verify_lemma(max_d: int) -> Report:
    """Linear independence and span of the Q family, plus membership.

    For each d: the #{(n,m,k) : n+2k+3m=d} polynomials Q^{n,m,k} of degree
    2d+9 must have exact rank equal to their count (independence) and to
    the target slice dimension (surjectivity); and each un-symmetrized
    product 12 P2^n P3^(2m+3) P4^k must rewrite exactly in u, v, w.
    """
    if max_d < 0:
        raise ValueError("max_d must be non-negative")
    report = Report(suite="lemma")
    for d in range(max_d + 1):
        legs = 2 * d + 9
        triples = _lemma_triples(d)
        params = {"d": str(d)}

        def q_rank() -> str:
            ctx = _skew_context(legs)
            rows = [ctx.skew_row(q_poly(n, m, k)) for (n, m, k) in triples]
            return str(rank(QMatrix.from_rows(rows, cols=len(ctx.basis))))

        independence = _timed_check(f"lemma.rank.d={d}", params, str(len(triples)), q_rank)
        report.checks.append(independence)
        report.checks.append(
            _timed_check(
                f"lemma.span.d={d}",
                params,
                str(odd_target_dim(legs)),
                lambda: independence.actual,
            )
        )
        for (n, m, k) in triples:
            report.checks.append(
                _timed_check(
                    f"lemma.membership.d={d}.n={n}.m={m}.k={k}",
                    {"d": str(d), "n": str(n), "m": str(m), "k": str(k)},
                    "member",
                    lambda n=n, m=m, k=k: (express_product_in_uvw(n, m, k), "member")[1],
                )
            )
    return report.finalize()


def verify_asymptotics(max_d: int, regimes: tuple[Regime, ...] | None = None) -> Report:
    """Exact leading terms of Q^{n,m,k} against the closed forms."""
    if max_d < 0:
        raise ValueError("max_d must be non-negative")
    if regimes is None:
        regimes = (DEFAULT_REGIMES["one"], DEFAULT_REGIMES["two"])
    triples = [t for d in range(max_d + 1) for t in _lemma_triples(d)]
    report = Report(suite="asymptotics")
    for regime in regimes:
        regime_tag = "regime1" if regime.id == "one" else "regime2"
        for (n, m, k) in triples:
            params = {"n": str(n), "m": str(m), "k": str(k), "regime": regime.id}
            coeff, exp = expected_q_leading(n, m, k, regime.id)
            expected = f"{coeff}*t^({exp})"

            def compute() -> str:
                result = verify_q_asymptotics(n, m, k, regime)
                actual = f"{result.actual_coeff}*t^({result.actual_exp})"
                if actual == expected and not result.passed:
                    return actual + " (merged exponent class)"
                return actual

            report.checks.append(
                _timed_check(f"asym.{regime_tag}.n={n}.m={m}.k={k}", params, expected, compute)
            )
    return report.finalize()


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


def _random_homogeneous(rng: random.Random, degree: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        cuts = sorted(rng.randint(0, degree) for _ in range(3))
        exps = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
        coeff = rng.choice([c for c in range(-9, 10) if c])
        terms[exps] = terms.get(exps, 0) + coeff
    return Poly(YVARS, terms)


def _random_poly(rng: random.Random, max_exponent: int) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, max_exponent) for _ in range(4))
        coeff = rng.choice([c for c in range(-9, 10) if c])
        terms[exps] = terms.get(exps, 0) + coeff
    return Poly(YVARS, terms)


def verify_properties(seed: int = DEFAULT_PROPERTY_SEED) -> Report:
    """Seeded structural properties tying the algebra modules together.

    Covers symmetrizer idempotence, discriminant divisibility of skew
    images, the x/y changes of variables, the regime substitution
    homomorphism law, the odd-degree series identities, the vanishing of
    the four-arc graph's odd slices, and the discriminant-times-sigma3
    structure of the odd ambient slices.
    """
    rng = random.Random(seed)
    report = Report(suite="properties")
    checks = report.checks
    skew = signed_s4(YVARS, "sign")
    plain = signed_s4(YVARS, "trivial")

    for i in range(100):
        p = _random_homogeneous(rng, rng.randint(0, 8))
        checks.append(
            _timed_check(
                f"prop.projector.i={i:03d}",
                {"i": str(i)},
                "idempotent",
                lambda p=p: "idempotent"
                if all(
                    symmetrize(symmetrize(p, g), g) == symmetrize(p, g) for g in (skew, plain)
                )
                else "not idempotent",
            )
        )

    delta = discriminant(YVARS)
    for i in range(50):
        degree = rng.randint(6, 12)
        cuts = sorted(rng.randint(0, degree) for _ in range(3))
        exps = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], degree - cuts[2])
        mono = Poly.monomial(YVARS, exps)
        checks.append(
            _timed_check(
                f"prop.delta_divides.i={i:02d}",
                {"i": str(i), "monomial": "y^" + ",".join(map(str, exps))},
                "divisible",
                lambda mono=mono: (divide_exact(symmetrize(mono, skew), delta), "divisible")[1],
            )
        )

    # x <-> y changes of variables
    x = {n: Poly.variable(XVARS, n) for n in XVARS.names}
    relations = {
        "rel1": x["x1"] - x["x2"] - x["x6"],
        "rel2": x["x1"] - x["x3"] + x["x5"],
        "rel3": x["x4"] + x["x5"] + x["x6"],
    }
    for name, rel in relations.items():
        checks.append(
            _timed_check(
                f"prop.xy_relation.{name}",
                {"relation": name},
                "0",
                lambda rel=rel: "0" if y_from_x(rel).is_zero() else repr(y_from_x(rel)),
            )
        )
    y4_image = eliminate_y4(Poly.variable(YVARS, "y4"))
    checks.append(
        _timed_check(
            "prop.xy_y4_image",
            {},
            "y4",
            lambda: "y4"
            if eliminate_y4(y_from_x(-x["x1"] - x["x2"] - x["x3"])) == y4_image
            else "mismatch",
        )
    )

    def roundtrip_ok() -> str:
        # y images of the x-variable expressions reproduce y1..y4 mod the face relation
        y_in_x = {
            "y1": x["x1"] - x["x5"] + x["x6"],
            "y2": x["x2"] + x["x4"] - x["x6"],
            "y3": x["x3"] - x["x4"] + x["x5"],
            "y4": -x["x1"] - x["x2"] - x["x3"],
        }
        for name, expr in y_in_x.items():
            target = eliminate_y4(Poly.variable(YVARS, name))
            if eliminate_y4(y_from_x(expr)) != target:
                return f"mismatch at {name}"
        return "identity"

    checks.append(_timed_check("prop.xy_roundtrip", {}, "identity", roundtrip_ok))

    def middle_identity() -> str:
        a = x_from_y("x1") + x_from_y("x5")
        b = x_from_y("x3")
        c = x_from_y("x2") - x_from_y("x4")
        return "equal" if a == b == c else "different"

    checks.append(_timed_check("prop.x1_plus_x5_identity", {}, "equal", middle_identity))

    def p_builder_facts() -> str:
        base = p3(YVARS, ("y1", "y2", "y3"))
        if not (base == p3(YVARS, ("y2", "y3", "y1")) == p3(YVARS, ("y3", "y1", "y2"))):
            return "P3 not cyclic"
        y = {n: Poly.variable(YVARS, n) for n in YVARS.names}
        factored = (y["y1"] - y["y3"]) * (y["y2"] - y["y3"]) * (
            (y["y1"] - y["y4"]) * (y["y2"] - y["y4"])
        )
        if p4(YVARS, ("y1", "y2", "y3", "y4")) != factored:
            return "P4 does not factor as u*v*w"
        if p2(YVARS, ("y1", "y2", "y3")).evaluate({"y1": 1, "y2": 1, "y3": 1, "y4": 0}) != 0:
            return "P2 nonzero on the diagonal"
        return "P2/P3/P4 structure"

    checks.append(_timed_check("prop.p_builders", {}, "P2/P3/P4 structure", p_builder_facts))

    regimes = (DEFAULT_REGIMES["one"], DEFAULT_REGIMES["two"])
    for i in range(50):
        p = _random_poly(rng, 2)
        q = _random_poly(rng, 2)
        checks.append(
            _timed_check(
                f"prop.regime_hom.i={i:02d}",
                {"i": str(i)},
                "homomorphism",
                lambda p=p, q=q: "homomorphism"
                if all(
                    substitute_regime(p * q, r) == substitute_regime(p, r) * substitute_regime(q, r)
                    and substitute_regime(p + q, r)
                    == substitute_regime(p, r) + substitute_regime(q, r)
                    for r in regimes
                )
                else "not a homomorphism",
            )
        )

    shifted = hilbert_coefficients(29, shift=9)
    for legs in range(1, 30, 2):
        checks.append(
            _timed_check(
                f"prop.odd_series.L={legs}",
                {"L": str(legs)},
                str(odd_target_dim(legs)),
                lambda legs=legs: str(shifted[legs]),
            )
        )

    for legs in (1, 3, 9, 29):
        checks.append(
            _timed_check(
                f"prop.tsq_dim.L={legs}",
                {"L": str(legs)},
                "0",
                lambda legs=legs: str(tsq_odd_dim(legs)),
            )
        )

    delta_reduced = eliminate_y4(delta)
    sigma3_reduced = eliminate_y4(elementary_symmetric(3, YVARS))

    def slice_structure(legs: int) -> str:
        space = tet_slice(legs, "odd")
        for i in range(space.span_matrix.rows):
            row = space.span_matrix.row(i)
            terms = {space.basis[j]: c for j, c in enumerate(row) if c}
            if not terms:
                continue
            quotient = divide_exact(Poly(Y3VARS, terms), delta_reduced)
            divide_exact(quotient, sigma3_reduced)
        return "delta*sigma3 structure"

    for legs in (9, 11):
        checks.append(
            _timed_check(
                f"prop.slice_structure.L={legs}",
                {"L": str(legs)},
                "delta*sigma3 structure",
                lambda legs=legs: slice_structure(legs),
            )
        )

    return report.finalize()


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    odd_max_legs: int = 29
    even_max_legs: int = 30
    lemma_max_d: int = 8
    asym_max_d: int = 6
    property_seed: int = DEFAULT_PROPERTY_SEED
    corrupt_even_closed_form: bool = False  # test hook for the failure path


def run_all(config: RunConfig | None = None) -> Report:
    """Run the four theorem suites plus the property suite, merged.

    Operation coverage is recorded during the run and reported as its own
    check: a run of the default suites must exercise every public
    operation of the algebra modules.
    """
    config = config or RunConfig()
    _coverage.reset()
    reports = [
        verify_odd_vanishing(config.odd_max_legs),
        verify_even_dims(config.even_max_legs, corrupt_closed_form=config.corrupt_even_closed_form),
        verify_lemma(config.lemma_max_d),
        verify_asymptotics(config.asym_max_d),
        verify_properties(seed=config.property_seed),
    ]
    merged = Report.merge("all", reports)
    untouched = sorted(_coverage.untouched())
    merged.checks.append(
        _timed_check(
            "all.op_coverage",
            {},
            "every operation exercised",
            lambda: "every operation exercised" if not untouched else "untouched: " + ",".join(untouched),
        )
    )
    return merged.finalize()
