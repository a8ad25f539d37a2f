"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  All comparisons are exact integer/rational equality.
"""

import hashlib
import json
import re
import subprocess
import sys

import pytest

from jd3.verifier import (
    verify_asymptotics,
    verify_even_dims,
    verify_lemma,
    verify_odd_vanishing,
    verify_properties,
)


def _report_line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def odd_report():
    return verify_odd_vanishing(29)


@pytest.fixture(scope="module")
def even_report():
    return verify_even_dims(30)


def test_criterion_1_odd_vanishing(odd_report):
    quotients = [c for c in odd_report.checks if c.id.startswith("odd.quotient_dim")]
    degrees = sorted(int(c.params["L"]) for c in quotients)
    ok = (
        odd_report.all_passed
        and degrees == list(range(1, 30, 2))
        and all(c.actual == "0" for c in quotients)
    )
    _report_line(1, "odd vanishing, L <= 29, exact", ok, f"{len(quotients)} degrees")
    assert ok


def test_criterion_2_even_dimensions(even_report):
    spot = {c.params["n"]: c.actual for c in even_report.checks}
    expected_spot = {"0": "1", "2": "1", "4": "2", "6": "3", "8": "4", "10": "5", "12": "7"}
    ok = (
        even_report.all_passed
        and even_report.summary["total"] == 16
        and all(spot[n] == v for n, v in expected_spot.items())
    )
    _report_line(2, "even dimensions three-way, n <= 30, exact", ok)
    assert ok


def test_criterion_3_lemma_independence_and_span():
    report = verify_lemma(8)
    ranks = [c for c in report.checks if c.id.startswith("lemma.rank")]
    spans = [c for c in report.checks if c.id.startswith("lemma.span")]
    ok = report.all_passed and len(ranks) == 9 and len(spans) == 9
    _report_line(3, "Q family independence and span, d <= 8, exact", ok)
    assert ok


def test_criterion_4_asymptotics():
    report = verify_asymptotics(6)
    # 23 triples with n + 2k + 3m <= 6, in both regimes
    ok = report.all_passed and report.summary["total"] == 46
    _report_line(4, "leading terms, d <= 6, both regimes, exact", ok)
    assert ok


def test_criterion_5_property_suite():
    report = verify_properties()
    projector = sum(1 for c in report.checks if c.id.startswith("prop.projector"))
    divides = sum(1 for c in report.checks if c.id.startswith("prop.delta_divides"))
    hom = sum(1 for c in report.checks if c.id.startswith("prop.regime_hom"))
    roundtrip = sum(1 for c in report.checks if c.id.startswith("prop.xy"))
    identity = sum(1 for c in report.checks if c.id == "prop.x1_plus_x5_identity")
    ok = (
        report.all_passed
        and projector == 100
        and divides == 50
        and hom == 50
        and roundtrip >= 4
        and identity == 1
    )
    _report_line(
        5,
        "property suite (100 projector / 50 divisibility / 50 homomorphism)",
        ok,
    )
    assert ok


# SHA-256 of the `jd3 all --json` report with every "elapsed_ms" zeroed
REPORT_SHA256 = "2ccfd08de1e9f995f398e37efcf7f12843199732ff3af4e8449198c68bc05a0c"


@pytest.fixture(scope="module")
def all_json_runs(tmp_path_factory, child_env):
    """Two consecutive `jd3 all --json` reports, with elapsed_ms zeroed, and the first summary."""
    paths = [tmp_path_factory.mktemp("all") / f"run{i}.json" for i in (1, 2)]
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "jd3", "all", "--json", str(path)],
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
    blobs = [
        re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', p.read_text()) for p in paths
    ]
    return blobs, json.loads(paths[0].read_text())["summary"]


def test_criterion_6_determinism(all_json_runs):
    blobs, summary = all_json_runs
    ok = blobs[0] == blobs[1]
    _report_line(
        6,
        "two consecutive `jd3 all --json` runs byte-identical modulo elapsed_ms",
        ok,
        f"summary={summary}",
    )
    assert ok


def test_report_bytes_are_pinned(all_json_runs):
    blobs, summary = all_json_runs
    digest = hashlib.sha256(blobs[0].encode()).hexdigest()
    assert summary["total"] == summary["passed"] == 403
    assert digest == REPORT_SHA256
