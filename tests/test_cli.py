"""Command-line behavior: exit codes, outputs, report files."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import jd3
from jd3.cli import main


def test_verify_even_exit_zero(capsys):
    assert main(["verify", "even", "--max-legs", "4"]) == 0
    out = capsys.readouterr().out
    assert "even.threeway.n=4" in out
    assert "failed=0" in out


def test_verify_odd_small(capsys):
    assert main(["verify", "odd", "--max-legs", "9"]) == 0
    out = capsys.readouterr().out
    assert "odd.quotient_dim.L=9" in out


def test_verify_lemma_small(capsys):
    assert main(["verify", "lemma", "--max-d", "1"]) == 0


def test_verify_asymptotics_small(capsys):
    assert main(["verify", "asymptotics", "--max-d", "0"]) == 0
    out = capsys.readouterr().out
    assert "9*t^(6a+2b+c)" in out


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "even", "--no-such-flag"]) == 2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_abc_requires_single_regime(capsys):
    code = main(["verify", "asymptotics", "--max-d", "0", "--abc", "2", "8/5", "1"])
    assert code == 2
    assert "requires --regime" in capsys.readouterr().err


def test_abc_with_explicit_regime(capsys):
    code = main(
        [
            "verify",
            "asymptotics",
            "--max-d",
            "0",
            "--regime",
            "one",
            "--abc",
            "3",
            "12/5",
            "3/2",
        ]
    )
    assert code == 0


def test_abc_violating_inequalities_exits_2(capsys):
    code = main(
        ["verify", "asymptotics", "--max-d", "0", "--regime", "one", "--abc", "3", "2", "1"]
    )
    assert code == 2


def test_abc_malformed_exits_2(capsys):
    code = main(
        ["verify", "asymptotics", "--max-d", "0", "--regime", "one", "--abc", "x", "2", "1"]
    )
    assert code == 2


def test_dims_even(capsys):
    assert main(["dims", "--parity", "even", "--legs", "12"]) == 0
    out = capsys.readouterr().out
    assert "dim=7" in out and "closed_form=7" in out


def test_dims_odd(capsys):
    assert main(["dims", "--parity", "odd", "--legs", "9"]) == 0
    out = capsys.readouterr().out
    assert "dim=1" in out and "quotient_dim=0" in out


def test_dims_parity_mismatch_exits_2(capsys):
    assert main(["dims", "--parity", "odd", "--legs", "8"]) == 2


def test_json_and_csv_outputs(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "verify",
            "even",
            "--max-legs",
            "6",
            "--json",
            str(json_path),
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["suite"] == "even"
    assert data["summary"] == {"total": 4, "passed": 4, "failed": 0}
    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "params", "expected", "actual", "pass"]
    assert len(rows) == 5


def test_all_with_self_test_fail_exits_1(capsys):
    code = main(
        [
            "all",
            "--max-legs-odd",
            "1",
            "--max-legs-even",
            "2",
            "--max-d-lemma",
            "0",
            "--max-d-asym",
            "0",
            "--self-test-fail",
        ]
    )
    assert code == 1


def test_all_small_passes(capsys, tmp_path):
    json_path = tmp_path / "all.json"
    code = main(
        [
            "all",
            "--max-legs-odd",
            "9",
            "--max-legs-even",
            "6",
            "--max-d-lemma",
            "1",
            "--max-d-asym",
            "1",
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["suite"] == "all"
    ids = {c["id"] for c in data["checks"]}
    assert "all.op_coverage" in ids


def test_module_entry_point_subprocess():
    # the child interpreter imports the same jd3 as this test, however it was found
    src = str(Path(jd3.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "jd3", "verify", "asymptotics", "--max-d", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "failed=0" in proc.stdout


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
