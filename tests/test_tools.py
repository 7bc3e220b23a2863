"""The comparison script behind `make outputs-diff`, and the table
benchmark's child environment."""

import importlib.util
import subprocess
import sys

import pytest

from conftest import ROOT

SCRIPT = ROOT / "tools" / "outputs_diff.py"
BASE = {
    "solve.out": "t,y\n0,1.25\n0.5,2.5e-3\n",
    "solve.err": "iterations: 12\nverdict: pass\n",
    "solve.exit": "0\n",
}


def _outputs(tmp_path, name, **changes):
    out = tmp_path / name
    out.mkdir()
    for file, text in {**BASE, **changes}.items():
        if text is not None:
            (out / file).write_text(text)
    return out


def _diff(a, b):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)],
        capture_output=True, text=True, timeout=60,
    )


def test_identical_outputs_print_nothing(tmp_path):
    proc = _diff(_outputs(tmp_path, "a"), _outputs(tmp_path, "b"))
    assert (proc.returncode, proc.stdout) == (0, "")


def test_moved_float_is_reported_and_passes(tmp_path):
    a = _outputs(tmp_path, "a")
    b = _outputs(tmp_path, "b", **{"solve.out": "t,y\n0,1.25\n0.5,2.6e-3\n"})
    proc = _diff(a, b)
    assert proc.returncode == 0
    assert proc.stdout == (
        "solve.out: 1 numbers moved, max rel 3.846e-02, max abs 1.000e-04\n"
    )


@pytest.mark.parametrize(
    "changes,line",
    [
        ({"solve.err": "iterations: 12\nverdict: fail\n"},
         "solve.err: changed token 'verdict: pass' != 'verdict: fail'"),
        ({"solve.err": "iterations: 13\nverdict: pass\n"},
         "solve.err: changed token '12' != '13'"),
        ({"solve.exit": None}, "solve.exit: only in {a}"),
    ],
    ids=["label", "integer", "missing"],
)
def test_other_changes_fail(tmp_path, changes, line):
    a = _outputs(tmp_path, "a")
    proc = _diff(a, _outputs(tmp_path, "b", **changes))
    assert proc.returncode == 1
    assert proc.stdout == line.format(a=a) + "\n"


def test_bench_tables_children_read_cached_bytecode(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "bench_tables", ROOT / "tools" / "bench_tables.py"
    )
    bench_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tables)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_tables._env(ROOT, tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["XDG_CACHE_HOME"] == str(tmp_path)
