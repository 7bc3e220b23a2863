"""Time the quadrature table builds and the large CLI requests of source trees.

Every number is the median wall time of fresh Python processes:

* ``builds``: one plain and one weighted table build on example 5's mesh
  (psi = log, alpha = 1/2, default grading) at n = 256, 1024 and 2048;
  the import and the mesh are not timed.
* ``cli_large``: the four requests of the ``cli-large`` workload
  (``solve --n 2048`` on examples 5 and 7, ``solve --n 1024`` on example
  1, ``verify-ops``), timed from process start to exit.

Each entry also records the peak RSS of its processes.  With
``--baseline DIR`` (a checkout of another commit) both trees are measured
on the same host, back to back per number and in alternating order, and
the JSON gains the baseline/change ratios of every number.  Children run
with one BLAS and OpenMP thread.

    python tools/bench_tables.py --out BENCH.json [--baseline DIR] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (256, 1024, 2048)

BUILD = """
import sys, time
from fracstab import fraccalc
from fracstab.cli import load_problem
from fracstab.psi_space import build_mesh, default_grading
kind, n = sys.argv[1], int(sys.argv[2])
p = load_problem("problems/example5.json").problem
mesh = build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))
start = time.perf_counter()
if kind == "plain":
    fraccalc._build_plain_table(mesh, p.order.alpha)
else:
    fraccalc._build_weighted_table(mesh, p.order.alpha, p.order.gamma)
print(time.perf_counter() - start)
"""

REQUESTS = {
    "solve example5 --n 2048": ("solve", "problems/example5.json", "--n", "2048"),
    "solve example7 --n 2048": ("solve", "problems/example7.json", "--n", "2048"),
    "solve example1 --n 1024": ("solve", "problems/example1.json", "--n", "1024"),
    "verify-ops": ("verify-ops",),
}

SIMD = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
import numpy
print(json.dumps({
    "numpy": numpy.__version__,
    "simd_baseline": list(__cpu_baseline__),
    "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
    "simd_not_found": [f for f in __cpu_dispatch__ if not __cpu_features__[f]],
}))
"""


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def _run(tree: Path, argv: list[str]) -> tuple[float, str, float]:
    """Wall seconds, stdout and peak RSS in MB of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tree, env=_env(tree),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {tree}")
    return wall, out, usage.ru_maxrss / 1024.0


def _sha(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+dirty" if dirty else "")


def _summary(runs: list[float], rss: list[float]) -> dict:
    return {"median_s": statistics.median(runs), "runs_s": runs, "peak_rss_mb": max(rss)}


def _jobs() -> list[tuple[tuple[str, ...], list[str]]]:
    jobs = [(("builds", kind, str(n)), [sys.executable, "-c", BUILD, kind, str(n)])
            for kind in ("plain", "weighted") for n in SIZES]
    jobs += [(("cli_large", name), [sys.executable, "-m", "fracstab", *args])
             for name, args in REQUESTS.items()]
    return jobs


def measure(trees: dict[str, Path], repeats: int) -> dict:
    """Per tree, the summary of every job; the trees of one job run back to
    back, each repeat in the other order, so host drift hits both alike."""
    labels = list(trees)
    samples = {label: {} for label in labels}
    for rep in range(repeats):
        for key, argv in _jobs():
            for label in labels if rep % 2 == 0 else labels[::-1]:
                wall, out, rss = _run(trees[label], argv)
                took = float(out) if key[0] == "builds" else wall
                samples[label].setdefault(key, []).append((took, rss))
    result = {}
    for label, got in samples.items():
        entry = {"git_sha": _sha(trees[label]), "builds": {}, "cli_large": {}}
        for key, pairs in got.items():
            node = entry
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = _summary([w for w, _ in pairs], [r for _, r in pairs])
        result[label] = entry
    return result


def _ratios(base: dict, change: dict) -> dict:
    """Baseline over change per job: the ratio of the medians, the median of
    the per-repeat ratios and how many repeats the change won."""
    if "median_s" in base:
        pairs = [b / c for b, c in zip(base["runs_s"], change["runs_s"])]
        return {
            "of_medians": round(base["median_s"] / change["median_s"], 3),
            "median_of_pairs": round(statistics.median(pairs), 3),
            "change_won": f"{sum(r > 1.0 for r in pairs)}/{len(pairs)}",
        }
    return {k: _ratios(base[k], change[k]) for k in base}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", type=Path, help="checkout of the commit to compare with")
    parser.add_argument("--repeats", type=int, default=5, help="fresh processes per number")
    args = parser.parse_args()
    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), "change": ROOT}
    _, host, _ = _run(ROOT, [sys.executable, "-c", SIMD])
    doc = {
        "what": "median wall time of fresh processes: table builds on example 5's mesh "
                "and the four cli-large requests",
        "repeats": args.repeats,
        "host": {
            **json.loads(host),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1",
        },
        "trees": measure(trees, args.repeats),
    }
    if args.baseline is not None:
        base, change = doc["trees"]["baseline"], doc["trees"]["change"]
        doc["speedup_baseline_over_change"] = {
            part: _ratios(base[part], change[part]) for part in ("builds", "cli_large")
        }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
