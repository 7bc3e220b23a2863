"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("cli-small", "perturb-campaign", "cli-large")
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
}
EXTRA_LAYER = {"trace.overhead_ratio": "1", "check.golden_byte_mismatches": "count"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict[str, tuple[str, str]], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(": ")
        if sep and " " in rest and not line.startswith(("failed:", "{")):
            value, unit = rest.rsplit(" ", 1)
            printed[name] = (value, unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    printed, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = dict(END_TO_END)
    if workload == "perturb-campaign":
        want["trials_per_s"] = "1/s"
    else:
        assert "trials_per_s" not in printed
    for name, unit in want.items():
        assert printed[name][1] == unit, name
        float(printed[name][0])
    assert printed["failed_ratio"][0] == "0.0"
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_layer_metrics_are_printed(workload):
    first, result = _run(workload, 1)
    second, _ = _run(workload, 1)
    assert result["correct"]
    want = {name: unit for name, (unit, _) in layers.CATALOGUE.items()}
    want.update(EXTRA_LAYER)
    for name, unit in want.items():
        assert first[name][1] == unit, name
    for name in layers.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert int(first["fraccalc.table_builds"][0]) >= 1
    assert int(first["rhs_expr.evaluations"][0]) >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_counts_as_failed(workload):
    report = run.measure(workload, 3, 0.0, trace=False, tiny=True, corrupt=True)
    assert not report["correct"]
    assert report["failed"] >= 1
    assert report["metrics"]["failed_ratio"]["value"] == report["failed"] / report["attempted"]


def test_latency_percentiles_are_samples_and_tail_is_above_median():
    # two clusters, as cli-large has: the median is a sample, not the gap
    xs = sorted([1.0] * 8 + [3.0] * 8)
    assert run.percentile(xs, 50.0) == 1.0
    assert run.tail(xs) == (100.0, 3.0, 0)
    xs = sorted(float(i) for i in range(1, 141))
    assert run.tail(xs) == (90.0, 126.0, 14)
