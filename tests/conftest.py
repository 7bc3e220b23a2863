"""Shared helpers: loading the bundled worked problems, and a private table
store for the whole session."""

import os
import pathlib
import shutil

import pytest

from fracstab.cli import ProblemFile, load_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def load_example(index: int) -> ProblemFile:
    return load_problem(str(PROBLEMS / f"example{index}.json"))


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
