"""Report structure, suite behavior, determinism, coverage."""

import json

import pytest

from jd3 import _coverage, verifier
from jd3.verifier import (
    Report,
    RunConfig,
    _timed_check,
    run_all,
    verify_asymptotics,
    verify_even_dims,
    verify_lemma,
    verify_odd_vanishing,
    verify_properties,
)


def test_odd_suite_small():
    report = verify_odd_vanishing(9)
    assert report.all_passed
    quotients = [c for c in report.checks if c.id.startswith("odd.quotient_dim")]
    assert [c.actual for c in quotients] == ["0"] * 5  # L = 1, 3, 5, 7, 9
    per_degree = [c for c in report.checks if c.id.endswith("L=9")]
    assert {c.id.rsplit(".", 1)[0] for c in per_degree} == {
        "odd.ambient_dim",
        "odd.image_dim",
        "odd.quotient_dim",
        "odd.span_eq",
    }


def test_odd_suite_empty():
    report = verify_odd_vanishing(0)
    assert report.summary == {"total": 0, "passed": 0, "failed": 0}


def test_even_suite_values():
    report = verify_even_dims(12)
    assert report.all_passed
    expected = {"0": "1", "2": "1", "4": "2", "6": "3", "8": "4", "10": "5", "12": "7"}
    for check in report.checks:
        assert check.actual == expected[check.params["n"]]


def test_even_suite_single_check_at_zero():
    report = verify_even_dims(0)
    assert report.summary["total"] == 1
    assert report.checks[0].actual == "1"


def test_even_suite_corrupt_hook_fails():
    report = verify_even_dims(4, corrupt_closed_form=True)
    assert not report.all_passed
    assert report.summary["failed"] == report.summary["total"]


def test_lemma_suite_small():
    report = verify_lemma(3)
    assert report.all_passed
    ranks = {c.params["d"]: c.actual for c in report.checks if c.id.startswith("lemma.rank")}
    assert ranks == {"0": "1", "1": "1", "2": "2", "3": "3"}
    memberships = [c for c in report.checks if c.id.startswith("lemma.membership")]
    assert len(memberships) == 1 + 1 + 2 + 3
    assert all(c.actual == "member" for c in memberships)


def test_asymptotics_suite_counts():
    report = verify_asymptotics(3)
    # 7 triples with n + 2k + 3m <= 3, once per regime
    assert report.summary["total"] == 14
    assert report.all_passed
    report0 = verify_asymptotics(0)
    assert report0.summary["total"] == 2
    actuals = {c.id: c.actual for c in report0.checks}
    assert actuals["asym.regime1.n=0.m=0.k=0"] == "9*t^(6a+2b+c)"
    assert actuals["asym.regime2.n=0.m=0.k=0"] == "18*t^(5a+3b+c)"


def test_property_suite_counts_and_passes():
    report = verify_properties()
    assert report.all_passed
    projector = [c for c in report.checks if c.id.startswith("prop.projector")]
    divides = [c for c in report.checks if c.id.startswith("prop.delta_divides")]
    hom = [c for c in report.checks if c.id.startswith("prop.regime_hom")]
    assert len(projector) == 100
    assert len(divides) == 50
    assert len(hom) == 50


def test_report_sorted_and_summary_consistent():
    report = verify_asymptotics(2)
    keys = [(c.id, c.params_string()) for c in report.checks]
    assert keys == sorted(keys)
    summary = report.summary
    assert summary["total"] == len(report.checks)
    assert summary["passed"] + summary["failed"] == summary["total"]


def test_report_json_schema():
    report = verify_even_dims(4)
    data = report.to_json_dict()
    assert set(data) == {"suite", "checks", "summary"}
    assert set(data["summary"]) == {"total", "passed", "failed"}
    for check in data["checks"]:
        assert set(check) == {"id", "params", "expected", "actual", "pass", "elapsed_ms"}
        assert isinstance(check["pass"], bool)
        assert isinstance(check["elapsed_ms"], int)
    json.dumps(data)  # serializable


def test_report_csv_rows():
    report = verify_even_dims(2)
    rows = report.to_csv_rows()
    assert rows[0] == ["id", "params", "expected", "actual", "pass"]
    assert rows[1] == ["even.threeway.n=0", "n=0", "1", "1", "true"]


def test_exact_value_rendering_never_decimal():
    report = verify_asymptotics(1)
    for check in report.checks:
        assert "." not in check.expected.replace("*t^(", "").replace(")", "")


def test_reports_deterministic_modulo_elapsed():
    def stripped(r: Report):
        data = r.to_json_dict()
        for check in data["checks"]:
            check["elapsed_ms"] = 0
        return json.dumps(data, sort_keys=True)

    assert stripped(verify_lemma(2)) == stripped(verify_lemma(2))
    assert stripped(verify_properties()) == stripped(verify_properties())


def test_internal_error_becomes_failed_record():
    def compute():
        raise KeyError((1, 2, 3))

    record = _timed_check("internal", {}, "0", compute)
    assert not record.passed
    assert record.actual == "error: KeyError: (1, 2, 3)"


def test_suite_work_errors_are_charged_to_their_checks(monkeypatch):
    def broken(*args):
        raise KeyError("boom")

    monkeypatch.setattr(verifier, "q_poly", broken)
    lemma = verify_lemma(0)
    failed = {c.id for c in lemma.checks if not c.passed}
    assert failed == {"lemma.rank.d=0", "lemma.span.d=0"}

    monkeypatch.setattr(verifier, "tet_slice", broken)
    odd = verify_odd_vanishing(1)
    failed = {c.id for c in odd.checks if not c.passed}
    assert failed == {"odd.ambient_dim.L=1", "odd.image_dim.L=1", "odd.quotient_dim.L=1"}


def test_run_all_small_config_passes_and_covers_everything():
    config = RunConfig(
        odd_max_legs=9, even_max_legs=6, lemma_max_d=1, asym_max_d=1
    )
    report = run_all(config)
    assert report.all_passed
    assert _coverage.untouched() == frozenset()
    coverage_checks = [c for c in report.checks if c.id == "all.op_coverage"]
    assert len(coverage_checks) == 1
    assert coverage_checks[0].actual == "every operation exercised"


def test_run_all_corrupt_hook_reports_failures():
    config = RunConfig(
        odd_max_legs=1,
        even_max_legs=2,
        lemma_max_d=0,
        asym_max_d=0,
        corrupt_even_closed_form=True,
    )
    report = run_all(config)
    assert not report.all_passed
    failing = [c for c in report.checks if not c.passed]
    assert all(c.id.startswith("even.threeway") for c in failing)


def test_suites_reject_negative_caps():
    with pytest.raises(ValueError):
        verify_odd_vanishing(-1)
    with pytest.raises(ValueError):
        verify_even_dims(-2)
    with pytest.raises(ValueError):
        verify_lemma(-1)
    with pytest.raises(ValueError):
        verify_asymptotics(-1)
