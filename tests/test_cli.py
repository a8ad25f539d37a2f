"""Command-line behavior: exit codes, outputs, report files."""

import ast
import csv
import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import jd3
from jd3 import diagram_spaces, verifier
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


@pytest.mark.parametrize("flag", ["--max-legs-odd", "--max-legs-even", "--max-d-lemma", "--max-d-asym"])
def test_all_negative_cap_exits_2_before_any_suite(monkeypatch, capsys, flag):
    # `jd3 all` runs the paper's caps only: a cap flag, negative or not, is an unrecognized argument
    called = []
    for suite in (
        "verify_odd_vanishing",
        "verify_even_dims",
        "verify_lemma",
        "verify_asymptotics",
        "verify_properties",
    ):
        monkeypatch.setattr(verifier, suite, lambda *a, suite=suite, **kw: called.append(suite))
    for value in ("-1", "9"):
        assert main(["all", flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert called == []


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


def test_regime_without_abc_runs_that_regimes_default(capsys):
    def printed_ids(*regime):
        assert main(["verify", "asymptotics", "--max-d", "1", *regime]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        return [line.split()[1] for line in lines]

    two = printed_ids("--regime", "two")
    assert two and all(check_id.startswith("asym.regime2.") for check_id in two)
    assert two == [i for i in printed_ids("--regime", "both") if i.startswith("asym.regime2.")]


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
    assert main(["dims", "--legs", "12"]) == 0
    out = capsys.readouterr().out
    assert "dim=7" in out and "closed_form=7" in out


def test_dims_odd(capsys):
    assert main(["dims", "--legs", "9"]) == 0
    out = capsys.readouterr().out
    assert "dim=1" in out and "quotient_dim=0" in out


def test_dims_parity_mismatch_exits_2(capsys):
    # the leg count fixes the parity, so --parity is no option at all
    assert main(["dims", "--parity", "odd", "--legs", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --parity odd" in captured.err


def test_dims_with_a_broken_e1_certificate_exits_2(monkeypatch, capsys):
    # e1 times the alternant of (5,2,1,0) twice: two e1-rows share a pivot
    orbit_reps = diagram_spaces._orbit_reps

    def duplicated(degree, strict):
        reps = orbit_reps(degree, strict)
        return reps + reps[:1] if degree == 8 else reps

    monkeypatch.setattr(diagram_spaces, "_orbit_reps", duplicated)
    assert main(["dims", "--legs", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("jd3: error: e1-rows not unitriangular at legs=9")


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


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_unwritable_report_path_exits_2(tmp_path, capsys, flag):
    # the paths are checked before any suite runs: no report, and no file left behind
    path = tmp_path / "missing-dir" / "report"
    other_flag, other = ("--csv" if flag == "--json" else "--json"), tmp_path / "other-report"
    assert main(["verify", "odd", "--max-legs", "29", other_flag, str(other), flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("jd3: error: ") and str(path) in err
    assert not path.exists() and not other.exists()


def test_all_with_a_wrong_closed_form_exits_1(capsys, wrong_closed_form, caps):
    caps(1, 2, 0, 0)
    assert main(["all"]) == 1


@pytest.mark.parametrize(
    "name, argv",
    [("discriminant", ["all"]), ("odd_target_dim", ["verify", "odd", "--max-legs", "3"])],
)
def test_a_failure_outside_every_check_exits_2(monkeypatch, capsys, caps, name, argv):
    # a suite computes its expected values, and the property suite a few of
    # its inputs, outside any check: a fault there is one error line, not a traceback
    def broken(*args):
        raise KeyError(name)

    monkeypatch.setattr(verifier, name, broken)
    caps(1, 2, 0, 0)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"jd3: error: KeyError: '{name}'\n"


def test_all_self_test_fail_is_an_unrecognized_argument(capsys):
    assert main(["all", "--self-test-fail"]) == 2
    assert "unrecognized arguments: --self-test-fail" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [False, True])
def test_json_and_csv_naming_one_file_exits_2(monkeypatch, tmp_path, capsys, existing):
    # two spellings of one path; the CSV would overwrite the JSON
    (tmp_path / "sub").mkdir()
    path = tmp_path / "report"
    if existing:
        path.write_text("kept\n")
    monkeypatch.setattr("jd3.cli.verify_even_dims", lambda *a: pytest.fail("a suite ran"))
    other_spelling = tmp_path / "sub" / ".." / "report"
    code = main(
        ["verify", "even", "--max-legs", "4", "--json", str(path), "--csv", str(other_spelling)]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("jd3: error: --json and --csv name the same file")
    if existing:
        assert path.read_text() == "kept\n"
    else:
        assert not path.exists()


def test_all_small_passes(capsys, tmp_path, caps):
    json_path = tmp_path / "all.json"
    caps(9, 6, 1, 1)
    assert main(["all", "--json", str(json_path)]) == 0
    data = json.loads(json_path.read_text())
    assert data["suite"] == "all"
    ids = {c["id"] for c in data["checks"]}
    assert "all.op_coverage" in ids


def test_module_entry_point_subprocess(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "jd3", "verify", "asymptotics", "--max-d", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env,
    )
    assert proc.returncode == 0
    assert "failed=0" in proc.stdout


def test_import_loads_neither_dataclasses_nor_inspect(child_env):
    # against the modules loaded before the import, so the host's site hooks do not count
    probe = "import sys; before = set(sys.modules); import jd3; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "jd3.verifier" in added
    assert not added & {"dataclasses", "inspect"}


def test_public_names_are_the_package_imports():
    # jd3.__all__ is every name that jd3/__init__.py imports from its submodules
    tree = ast.parse(Path(jd3.__file__).read_text(encoding="utf-8"))
    aliases = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert jd3.__all__ == sorted(aliases)
    assert not any(isinstance(getattr(jd3, name), ModuleType) for name in jd3.__all__)
    namespace = {}
    exec("from jd3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(aliases)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_readme_examples_print_what_they_show(capsys):
    # each `$ jd3 ...` line of the README, followed by the exact output it shows
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = [(i, line) for i, line in enumerate(lines) if line.startswith("$ jd3 ")]
    assert [line for _, line in examples] == ["$ jd3 dims --legs 9"]
    for i, line in examples:
        shown = list(itertools.takewhile(lambda out: out != "```", lines[i + 1 :]))
        assert main(line.split()[2:]) == 0
        assert capsys.readouterr().out.splitlines() == shown
    assert shown == ["legs=9 parity=odd dim=1 target=1 image_dim=1 quotient_dim=0"]
