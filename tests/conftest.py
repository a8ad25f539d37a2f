"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import jd3


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports the same jd3 as the tests.

    pytest's own `pythonpath` setting reaches only this process, so the
    directory jd3 was imported from goes first on the child's PYTHONPATH.
    """
    src = str(Path(jd3.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def wrong_closed_form(monkeypatch):
    """The verifier's even closed form, one more than the true one: the suites' failure path."""
    from jd3 import verifier

    closed_form = verifier.even_closed_form
    monkeypatch.setattr(verifier, "even_closed_form", lambda legs: closed_form(legs) + 1)


@pytest.fixture
def caps(monkeypatch):
    """Set the caps `run_all` reads, `caps(odd, even, lemma, asym)`, for a small run of `jd3 all`."""
    from jd3 import verifier

    def set_caps(odd: int, even: int, lemma: int, asym: int) -> None:
        names = ("ODD_MAX_LEGS", "EVEN_MAX_LEGS", "LEMMA_MAX_D", "ASYM_MAX_D")
        for name, value in zip(names, (odd, even, lemma, asym)):
            monkeypatch.setattr(verifier, name, value)

    return set_caps
