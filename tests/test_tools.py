"""The comparison script behind `make outputs-diff`, the table
benchmark's child environment and pairwise summary, and the line tracer."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from conftest import ROOT, cli_env

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


def _bench_tables():
    spec = importlib.util.spec_from_file_location(
        "bench_tables", ROOT / "tools" / "bench_tables.py"
    )
    bench_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tables)
    return bench_tables


def test_bench_tables_children_read_cached_bytecode(monkeypatch, tmp_path):
    bench_tables = _bench_tables()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_tables._env(ROOT, tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["XDG_CACHE_HOME"] == str(tmp_path)


def test_bench_tables_compares_peaks_pair_by_pair():
    bench_tables = _bench_tables()
    base = bench_tables._summary([0.30, 0.20, 0.25], [47.2, 47.0, 47.1])
    change = bench_tables._summary([0.25, 0.25, 0.20], [46.3, 47.1, 46.2])
    assert base["runs_rss_mb"] == [47.2, 47.0, 47.1] and base["peak_rss_mb"] == 47.2
    ratios = bench_tables._ratios({"solve": base}, {"solve": change})["solve"]
    assert ratios["change_won"] == "2/3"
    assert ratios["median_rss_mb"] == {"baseline": 47.1, "change": 46.3}
    assert ratios["change_rss_lower"] == "2/3"


def test_bench_tables_refuses_a_baseline_outside_git(monkeypatch, tmp_path):
    # its commit could not be recorded; nothing is measured or written
    bench_tables = _bench_tables()

    def measured(*args):
        raise AssertionError("measured a baseline without a commit")

    monkeypatch.setattr(bench_tables, "_run", measured)
    monkeypatch.setattr(bench_tables, "measure", measured)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    baseline = tmp_path / "parent"
    baseline.mkdir()
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_tables.py", "--out", str(out), "--baseline", str(baseline)])
    with pytest.raises(SystemExit) as info:
        bench_tables.main()
    assert info.value.code == (f"--baseline {baseline.resolve()} is not a git checkout; "
                               "make one with `git worktree add DIR COMMIT`")
    assert not out.exists()


def _line_trace(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), *args],
        capture_output=True, text=True, timeout=120, env=cli_env(), cwd=ROOT,
    )


def _line(module: str, statement: str) -> int:
    """The number of the line of ``module`` that holds just ``statement``."""
    lines = (ROOT / "src" / "fracstab" / module).read_text().splitlines()
    return next(k for k, line in enumerate(lines, 1) if line.strip() == statement)


def _numbers(ranges: str) -> set[int]:
    out = set()
    for part in ranges.split(", "):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def test_line_trace_merges_runs_and_reports_the_rest(tmp_path):
    hits = tmp_path / "hits.json"
    gamma = _line("specfun.py", 'return _on_positive_axis(math.gamma, "gamma_fn", x)')
    series = _line("specfun.py", "return float(mittag_leffler_many(mu, np.asarray(float(z))))")
    opened = _line("cli.py", 'with open(path, "r", encoding="utf-8") as handle:')

    proc = _line_trace("run", str(hits), "--", "specfun", "gamma", "0.5")
    # the CLI's own output and exit code, nothing added
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.77245385091\n", "")
    first = json.loads(hits.read_text())
    assert gamma in first["specfun.py"] and series not in first["specfun.py"]
    assert opened not in first["cli.py"]

    proc = _line_trace("run", str(hits), "--", "certify", str(tmp_path / "missing.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    merged = json.loads(hits.read_text())
    assert set(first["specfun.py"]) <= set(merged["specfun.py"])
    assert opened in merged["cli.py"]

    proc = _line_trace("report", str(hits))
    assert proc.returncode == 0
    report = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert set(report) == {p.name for p in (ROOT / "src" / "fracstab").glob("*.py")}
    never = _numbers(report["specfun.py"].split(" never ran: ")[1])
    assert series in never and gamma not in never


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_bench_tables_runner_peaks_below_any_request():
    # a child's ru_maxrss starts at its spawner's peak, so the runner must
    # stay under the ~28 MB of the lightest request it measures
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_tables', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module._jobs()\n"
        "status = open('/proc/self/status').read()\n"
        "print(next(l.split()[1] for l in status.splitlines() if l.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools" / "bench_tables.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert int(proc.stdout) / 1024 < 24.0


def test_bench_tables_times_the_import_and_the_small_requests():
    jobs = dict(_bench_tables()._jobs())
    assert jobs[("startup",)] == [[sys.executable, "-c", "import fracstab.cli"]]
    small = jobs[("cli_small_warm",)]
    assert len(small) == 14
    assert [argv[3:] for argv in small[:2]] == [
        ["certify", "problems/example1.json", "--json"],
        ["solve", "problems/example1.json", "--n", "256"],
    ]
