"""Shared helpers: loading the bundled worked problems, the square of a
packed quadrature table, and a private table store for the whole session."""

import os
import pathlib
import shutil

import numpy as np
import pytest

from fracstab import fraccalc
from fracstab.cli import ProblemFile, load_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def load_example(index: int) -> ProblemFile:
    return load_problem(str(PROBLEMS / f"example{index}.json"))


def square_table(packed: np.ndarray, n: int) -> np.ndarray:
    """The ``(n+1)**2`` square whose row blocks ``packed`` holds back to back."""
    W = np.zeros((n + 1, n + 1))
    for (r0, r1), block in zip(fraccalc._block_bounds(n), fraccalc._blocks(packed, n)):
        W[r0:r1, :r1] = block
    return W


@pytest.fixture(scope="session", autouse=True)
def table_store(tmp_path_factory) -> pathlib.Path:
    """The tests' on-disk table store, never the user's: ``XDG_CACHE_HOME``
    is set in ``os.environ``, so subprocesses use it too.  It is deleted
    at the end of the session."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(cache)
    yield cache / "fracstab" / "tables"
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved
    shutil.rmtree(cache, ignore_errors=True)


@pytest.fixture(scope="session")
def problems_dir() -> pathlib.Path:
    return PROBLEMS
