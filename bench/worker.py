"""One iteration of a jd3 benchmark workload, run in a fresh interpreter.

`run.py` starts this file once per iteration, so every iteration begins
with cold caches, as a `jd3` command-line run does.  The import of `jd3`
comes first: the moment it returns ends the set-up time.  With
`--import-only` the worker reports that moment and exits.

The last line of standard output is one JSON object: the workload's wall
and CPU time, peak RSS, every check with its verdict, and, with
`--trace`, per-layer spans and exact counts (see spans.py).
"""

import time

import jd3  # noqa: E402  -- set-up time ends when this returns

IMPORTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import spans  # noqa: E402

PAPER_CHECKS = 403
ASYM_MAX_D = 12


def asym_checks(max_d: int) -> int:
    """Checks of verify_asymptotics: two regimes times #{n+2k+3m = d <= max_d}."""
    triples = sum((d - 3 * m) // 2 + 1 for d in range(max_d + 1) for m in range(d // 3 + 1))
    return 2 * triples


def _report_units(report) -> list[tuple[str, bool, str]]:
    return [(f"{c.id}[{c.params_string()}]", c.passed, c.actual) for c in report.checks]


def paper_all(seed: int):
    """`jd3 all` at the paper's caps; the seed drives the property suite."""
    verifier = jd3.verifier
    return _report_units(verifier.run_all(verifier.RunConfig(property_seed=seed)))


def _between_one_and_two(rng: random.Random) -> Fraction:
    """A rational strictly between 1 and 2 with a small denominator."""
    q = rng.randint(3, 9)
    return 1 + Fraction(rng.randint(1, q - 1), q)


def _small_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(2, 7))


def asym_regimes(seed: int):
    """Exact (a, b, c) per regime, drawn inside that regime's inequalities.

    With x = a - b and y = b - c, regime one needs x < y < 2x and regime two
    y < x < 2y; both need c > 0.
    """
    rng = random.Random(seed)
    Regime = jd3.asymptotics.Regime
    c1, x1 = _small_positive(rng), _small_positive(rng)
    y1 = x1 * _between_one_and_two(rng)
    c2, y2 = _small_positive(rng), _small_positive(rng)
    x2 = y2 * _between_one_and_two(rng)
    return (
        Regime("one", c1 + y1 + x1, c1 + y1, c1),
        Regime("two", c2 + y2 + x2, c2 + y2, c2),
    )


def q_asymptotics(seed: int):
    """`jd3 verify asymptotics --abc` for both regimes at d <= ASYM_MAX_D."""
    regimes = asym_regimes(seed)
    return _report_units(jd3.verifier.verify_asymptotics(ASYM_MAX_D, regimes=regimes))


WORKLOADS = {
    "paper_all": (paper_all, PAPER_CHECKS),
    "q_asymptotics": (q_asymptotics, asym_checks(ASYM_MAX_D)),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _trace_summary(tracer: spans.Tracer) -> dict:
    facts = spans.slice_facts(tracer)
    layers = tracer.layer_stats()
    exact = {
        "calls": {name: s["calls"] for name, s in layers.items()},
        "counts": dict(sorted(tracer.counts.items())),
        "slices": facts,
        "lru_entries": spans.lru_entries(),
    }
    return {
        "layers": layers,
        "exact": exact,
        "exact_sha": _sha(exact),
        "missing": sorted(tracer.missing),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", metavar="PATH")
    args = parser.parse_args()
    if args.import_only:
        print(json.dumps({"imported_ns": IMPORTED_NS, "jd3_file": jd3.__file__}))
        return 0

    run, expected_units = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    units = run(args.seed)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    problems = []
    if len(units) != expected_units:
        problems.append(f"expected {expected_units} checks, got {len(units)}")
    out = {
        "imported_ns": IMPORTED_NS,
        "jd3_file": jd3.__file__,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": rss_kib / 1024,
        "units": units,
        "expected_units": expected_units,
        "checks": len(units),
        "problems": problems,
        "result_sha": _sha(sorted(units)),
    }
    if tracer is not None:
        out["trace"] = _trace_summary(tracer)
        if args.spans_out:
            doc = {"workload": args.workload, "seed": args.seed, "spans": tracer.spans_json()}
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
