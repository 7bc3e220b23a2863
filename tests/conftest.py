"""Shared helpers: loading the bundled worked problems, the square of a
packed quadrature table, the environment of a subprocess that runs this
tree's package, a private table store for the whole session, and one child
process whose requests the import guards read."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fracstab import fraccalc
from fracstab.cli import ProblemFile, load_problem

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def load_example(index: int) -> ProblemFile:
    return load_problem(str(PROBLEMS / f"example{index}.json"))


def cli_env(**extra) -> dict:
    """``os.environ`` with ``extra`` added and ``src`` first on
    ``PYTHONPATH``, so a subprocess imports this tree's ``fracstab``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


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


# The requests of the import guards, in one process: a certify without
# constants, a certify --json, a solve with --out below the store's n >= 127
# floor, and two n = 128 solves, the first of which stores its table and
# the second reads it back.  Each request starts with an empty in-process
# cache.
REQUESTS = """
import contextlib, io, json, sys
import numpy
numpy_loads_tempfile = "tempfile" in sys.modules
from fracstab import fraccalc
from fracstab.cli import main
estimated, example1, example5, csv = sys.argv[1:]
def run(*argv):
    fraccalc._cache.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(list(argv)), out.getvalue()
runs = [run("certify", estimated), run("certify", example5, "--json"),
        run("solve", example1, "--n", "64", "--out", csv)]
runs += [run("solve", example1, "--n", "128") for _ in range(2)]
(stored, _), = fraccalc._cache.values()
print(json.dumps({
    "codes": [code for code, _ in runs],
    "estimated": "(estimated)" in runs[0][1],
    "stored": type(stored).__name__,
    "imported": [m for m in ("numpy.ma", "dataclasses", "mmap", "hashlib") if m in sys.modules],
    "tempfile_from_numpy_only": ("tempfile" in sys.modules) == numpy_loads_tempfile,
}))
"""


@pytest.fixture(scope="session")
def guarded_requests(tmp_path_factory) -> dict:
    """Runs ``REQUESTS`` once, with a store of its own, for every import
    guard: ``report`` is the child's JSON line and ``store_files`` the names
    of the files it left in its store."""
    tmp = tmp_path_factory.mktemp("guarded-requests")
    doc = json.loads((PROBLEMS / "example1.json").read_text())
    del doc["lipschitz"]
    estimated = tmp / "estimated.json"
    estimated.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", REQUESTS, str(estimated),
         str(PROBLEMS / "example1.json"), str(PROBLEMS / "example5.json"),
         str(tmp / "out.csv")],
        capture_output=True, text=True, env=cli_env(XDG_CACHE_HOME=str(tmp)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "report": json.loads(proc.stdout.splitlines()[-1]),
        "store_files": sorted(path.name for path in (tmp / "fracstab" / "tables").iterdir()),
    }
