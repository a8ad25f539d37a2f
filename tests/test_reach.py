"""Every function the package defines runs in a small run of every command.

A function that no suite, command or workload reaches is either test-only
API or dead code; it belongs in the tests or nowhere.  The guard profiles
each `jd3` subcommand in process (`jd3 all` runs `run_all`) and compares
the code objects that ran with every function and method in the sources.
"""

import contextlib
import io
import sys
from inspect import CO_OPTIMIZED  # set on function code, not on module or class bodies
from pathlib import Path

import jd3
from jd3.cli import main

PACKAGE = Path(jd3.__file__).resolve().parent

# (module file, qualified name) -> why no command runs it
NEVER_RUN = {
    ("multipoly.py", "q_poly"): "Q expanded in y1..y4: the tests' reference; suites read Q's alternant row",
    ("multipoly.py", "Poly.__repr__"): "read in failure messages and by people, not by a passing run",
    ("multipoly.py", "VarSet.__repr__"): "read in failure messages and by people, not by a passing run",
    ("multipoly.py", "VarSet.__new__"): "runs at import, when the module-level variable sets are built",
}

COMMANDS = (
    ["verify", "odd", "--max-legs", "9"],
    ["verify", "even", "--max-legs", "4"],
    ["verify", "lemma", "--max-d", "0"],
    ["verify", "asymptotics", "--max-d", "0", "--regime", "one", "--abc", "2", "8/5", "1"],
    ["dims", "--legs", "9"],
    ["dims", "--legs", "4"],
    ["all"],  # at the small caps the test sets
)


def defined_functions() -> dict[tuple[str, int, str], tuple[str, str]]:
    """Every def of the package's sources, nested ones included.

    Keyed by (file, first line, name), which a running code object also
    has, to (file, qualified name).  The qualified names are built while
    walking the nested code objects, as Python 3.10 has no `co_qualname`.
    """
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    qualname = prefix + const.co_name
                    function = const.co_flags & CO_OPTIMIZED
                    stack.append((const, qualname + (".<locals>." if function else ".")))
                    if function and not const.co_name.startswith("<"):
                        key = (path.name, const.co_firstlineno, const.co_name)
                        found[key] = (path.name, qualname)
    return found


def clear_package_caches() -> None:
    """Empty every lru_cache of the package, so a cached function runs again."""
    modules = [m for name, m in sys.modules.items() if name == "jd3" or name.startswith("jd3.")]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_every_function_runs_in_some_command(tmp_path, caps):
    caps(9, 4, 0, 0)
    clear_package_caches()  # earlier tests may have filled them
    codes = {}

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    reports = ["--json", str(tmp_path / "r.json"), "--csv", str(tmp_path / "r.csv")]
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exits = [main(argv + reports if argv[0] == "all" else argv) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert exits == [0] * len(COMMANDS)
    index = defined_functions()
    ran = {
        index.get((Path(code.co_filename).name, code.co_firstlineno, code.co_name))
        for code in codes.values()
        if Path(code.co_filename).resolve().parent == PACKAGE
    }
    defined = set(index.values())
    assert set(NEVER_RUN) <= defined
    assert sorted(NEVER_RUN) == [
        ("multipoly.py", "Poly.__repr__"),
        ("multipoly.py", "VarSet.__new__"),
        ("multipoly.py", "VarSet.__repr__"),
        ("multipoly.py", "q_poly"),
    ]
    assert sorted(defined - ran - set(NEVER_RUN)) == []
