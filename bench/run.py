"""jd3 benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload paper_all --seed 1 --seconds 55 --trace 0

The load is one closed-loop client: each iteration is a fresh interpreter
(bench/worker.py) that runs the workload once with cold caches, and the
next one starts only after it has exited.  Iterations repeat while another
one still fits in `--seconds`; at least one always runs.  Set-up time is
taken from every interpreter the run starts: the workload's iterations and
extra interpreters that only import `jd3`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced iterations and reports the per-layer metrics; the
traced iterations' spans go to `.bench_out/` as JSON.  Every check is
verified, and the exact results (and, traced, the exact counts)
must repeat across iterations and across runs of the same seed in this
checkout.  The last line of standard output is the result as JSON; the
lines before it list every metric with its unit and the run's stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("paper_all", "q_asymptotics")
SETUP_SAMPLES = 8  # before and again after the workload
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s, whatever --seconds says

SUITE_LAYERS = [name for name in LAYERS if name.startswith("verifier.")]
TIMED_LAYERS = [name for name in LAYERS if not name.startswith("verifier.")]
SPAN_FAMILIES = ("ihx_image_slice", "subring_family_slice")


class RunError(Exception):
    """The benchmark cannot run in this directory."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # bytecode is cached, as for an installed package: set-up time is import, not compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run the worker; returns (its JSON or None, error).

    The JSON gains `setup_s`: from just before the child is spawned until
    its `import jd3` returned.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        return None, "no time left in the run"
    spawned_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, f"worker printed no result: {lines[-1][:200]!r}"
    expected = ROOT / "src" / "jd3"
    if Path(result["jd3_file"]).resolve().parent != expected.resolve():
        return None, f"worker imported jd3 from {result['jd3_file']}, not {expected}"
    result["setup_s"] = (result["imported_ns"] - spawned_ns) / 1e9
    return result, ""


REFERENCE_TERMS = [Fraction(k % 7 + 1, k) for k in range(1, 60)]
REFERENCE_SUM = sum(REFERENCE_TERMS, Fraction(0))


def reference_loop() -> float:
    """Seconds for a fixed loop of Fraction arithmetic that is not jd3 code."""
    t0 = time.perf_counter()
    for _ in range(600):
        total = Fraction(0)
        for term in REFERENCE_TERMS:
            total += term
        if total != REFERENCE_SUM:
            raise RunError("reference loop computed a wrong sum")
    return time.perf_counter() - t0


def stamp() -> dict:
    """What ran where: interpreter, CPUs, commit and a hash of the jd3 sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jd3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        git_sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(count: int, deadline: float) -> tuple[list[float], list[str]]:
    """Set-up samples from interpreters that only import `jd3`."""
    samples, errors = [], []
    for _ in range(count):
        result, error = run_child(["--import-only"], deadline)
        if result is None:
            errors.append(error)
        else:
            samples.append(result["setup_s"])
    return samples, errors


def run_iterations(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Closed loop: one iteration (untraced, then traced with --trace) at a time."""
    base = ["--workload", workload, "--seed", str(seed)]
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    kinds = (False, True) if trace else (False,)
    iterations, errors = [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            argv = base + (["--trace", "--spans-out", str(spans_path)] if traced else [])
            result, error = run_child(argv, deadline)
            if result is None:
                errors.append(error)
                return iterations, errors
            result["traced"] = traced
            iterations.append(result)
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            return iterations, errors


def failed_units(it: dict) -> int:
    failed = sum(1 for _, ok, _ in it["units"] if not ok)
    return failed + max(0, it["expected_units"] - len(it["units"]))


def check_fingerprints(key: str, iterations: list[dict]) -> list[str]:
    """Exact results must agree across iterations and with earlier runs of the seed.

    `key` names the workload, the seed and the hash of the jd3 sources, so
    only runs of identical code are compared: a change to the program may
    change the exact counts without being nondeterministic.
    """
    problems = []
    results = {it["result_sha"] for it in iterations}
    exact = {it["trace"]["exact_sha"] for it in iterations if it["traced"]}
    if len(results) > 1:
        problems.append("nondeterminism: check results differ between iterations")
    if len(exact) > 1:
        problems.append("nondeterminism: exact counts differ between traced iterations")
    state_path = OUT_DIR / "fingerprints.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    seen = state.setdefault(key, {})
    for field, values in (("result_sha", results), ("exact_sha", exact)):
        if len(values) != 1:
            continue
        (value,) = values
        if seen.setdefault(field, value) != value:
            problems.append(f"nondeterminism: {field} differs from an earlier run of {key}")
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(state_path)
    return problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean_wall(iterations: list[dict]) -> float:
    """The run's workload time divided by its iterations.

    The host slows whole iterations by up to about 1.8 times, in phases as
    long as an iteration; the median of a few iterations then jumps from
    one phase to the other, while the mean, like one longer measurement,
    averages the phases the run saw.
    """
    return statistics.fmean(it["wall_s"] for it in iterations) if iterations else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians of traced timings, exact counts of the first."""
    first = traced[0]["trace"]
    calls = first["exact"]["calls"]
    counts = first["exact"]["counts"]
    facts = first["exact"]["slices"]

    def med(layer: str, key: str) -> float:
        return _median([it["trace"]["layers"][layer][key] for it in traced])

    m: dict[str, tuple[float, str]] = {}
    for suite in SUITE_LAYERS:
        m[f"{suite}_s"] = (med(suite, "total_s"), "s")
    m["verifier.checks"] = (traced[0]["checks"], "count")
    m["verifier.cpu_s"] = (_median([it["cpu_s"] for it in untraced]), "s")
    for layer in TIMED_LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (med(layer, "self_s"), "s")
    families = [f for f in facts if f["builder"] in SPAN_FAMILIES]
    used = sum(f["generators_used"] for f in families)
    m["diagram_spaces.generators_used"] = (used, "count")
    m["diagram_spaces.generator_yield"] = (_ratio(sum(f["dim"] for f in families), used), "ratio")
    for fact, unit in (("basis_cols", "count"), ("coeff_bits", "bits")):
        m[f"diagram_spaces.{fact}_max"] = (max((f[fact] for f in facts), default=0), unit)
    rows_in = counts.get("linalg.rank.rows_in", 0)
    m["linalg.rank.rows_in"] = (rows_in, "count")
    m["linalg.rank.yield"] = (_ratio(counts.get("linalg.rank.rank_out", 0), rows_in), "ratio")
    enlarged = counts.get("linalg.rowspan_add.enlarged", 0)
    m["linalg.rowspan_add.yield"] = (_ratio(enlarged, calls["linalg.rowspan_add"]), "ratio")
    m["multipoly.mul.term_pairs"] = (counts.get("multipoly.mul.term_pairs", 0), "count")
    m["cache.lru_entries"] = (first["exact"]["lru_entries"], "count")
    m["trace.overhead_s"] = (_mean_wall(traced) - _mean_wall(untraced), "s")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    if not (ROOT / "src" / "jd3" / "__init__.py").is_file():
        raise RunError(f"no jd3 sources under {ROOT / 'src'}; run from a jd3 source checkout")
    OUT_DIR.mkdir(exist_ok=True)

    info = stamp()
    info["loadavg_before"] = os.getloadavg()
    info["reference_loop_s_before"] = reference_loop()
    # a warm-up import fills the bytecode cache; set-up is then sampled before
    # and after the workload, so that the median spans the whole run
    _, errors = measure_setup(1, deadline)
    setup, setup_errors = measure_setup(SETUP_SAMPLES, deadline)
    iterations, run_errors = run_iterations(
        args.workload, args.seed, args.seconds, bool(args.trace), deadline
    )
    setup_after, setup_errors_after = measure_setup(SETUP_SAMPLES, deadline)
    setup += setup_after + [it["setup_s"] for it in iterations]
    errors += setup_errors + run_errors + setup_errors_after
    info["reference_loop_s_after"] = reference_loop()
    info["loadavg_after"] = os.getloadavg()

    problems = list(errors)
    for it in iterations:
        problems += it["problems"]
    problems += check_fingerprints(
        f"{args.workload}/seed{args.seed}/src{info['src_sha256']}", iterations
    )
    failed = sum(failed_units(it) for it in iterations)
    per_iteration = iterations[0]["expected_units"] if iterations else 1
    # an iteration that crashed or timed out still counts as attempted, all failed
    attempted = sum(it["expected_units"] for it in iterations) + per_iteration * len(run_errors)
    failed += per_iteration * len(run_errors)
    ok = [it for it in iterations if failed_units(it) == 0 and not it["problems"]]
    timed = ok or iterations  # failures are never timed as a success; correct is false then
    untraced = [it for it in timed if not it["traced"]] or timed
    traced = [it for it in timed if it["traced"]]
    correct = bool(ok) and not problems and failed == 0 and bool(setup)

    if args.trace:
        if not traced:
            raise RunError("no traced iteration completed: " + "; ".join(errors))
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": (_mean_wall(untraced), "s"),
            "peak_rss_mib": (_median([it["peak_rss_mib"] for it in untraced]), "MiB"),
            "setup_s": (_median(setup), "s"),
        }

    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        iterations=len(iterations),
        setup_samples_s=setup,
        wall_samples_s=[it["wall_s"] for it in iterations if not it["traced"]],
        traced_wall_samples_s=[it["wall_s"] for it in iterations if it["traced"]],
        fail_ratio=_ratio(failed, attempted),
        problems=problems,
        missing_layers=sorted({m for it in traced for m in it["trace"]["missing"]}),
        units=iterations[0]["units"] if iterations else [],
        exact=traced[0]["trace"]["exact"] if traced else None,
    )
    record = dict(info, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for key in ("python", "nproc", "git_sha", "src_sha256", "loadavg_before", "loadavg_after",
                "reference_loop_s_before", "reference_loop_s_after", "iterations"):
        print(f"# {key} = {info[key]}")
    for problem in problems:
        print(f"# problem: {problem}")
    failing = {(unit, detail) for it in iterations for unit, ok, detail in it["units"] if not ok}
    for unit, detail in sorted(failing):
        print(f"# failed: {unit} -> {detail}")
    for gap in info["missing_layers"]:
        print(f"# not measured: {gap}")
    print(f"{'fail_ratio':<44} {info['fail_ratio']:<14.6g} ratio  ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<44} {shown:<14} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        sys.exit(2)
