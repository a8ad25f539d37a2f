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
