"""fracstab benchmark: one closed-loop client, one request in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every request runs in a fresh
process with the source tree on PYTHONPATH and BLAS/OpenMP pinned to one
thread.  Whole cycles of the workload's jobs run, as many as come closest
to S seconds; the seed orders each cycle and seeds the campaign's trials.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` each cycle runs once untraced and once with every layer's
public callables wrapped (see layertrace.py), and the per-layer metrics
come from the traced cycles' spans.  Every output is checked either way.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists for the mode; the lines
before it print every metric with its unit and the full report, which
is also written under perfbench/out/.  Exits 2 when the checkout holds
no fracstab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import (
    CHECKS,
    TINY,
    WORKLOADS,
    CampaignJob,
    CliJob,
    check_campaign_record,
    golden_bytes_match,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)

CLI_ENTRY = "import sys; from fracstab.cli import main; sys.exit(main())"
TRACED_CLI_ENTRY = (
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import layertrace; "
    "sys.exit(layertrace.run_cli())"
)
SETUP_PROBE = (
    "import sys; import fracstab; from fracstab.cli import load_problem\n"
    "for path in sys.argv[1:]: load_problem(path)"
)
ENV_PROBE = """
import json, platform, numpy, fracstab
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except (TypeError, KeyError):
    blas = None
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""


@dataclass(frozen=True)
class Process:
    """What one finished child process left behind."""

    start: float  # time.perf_counter() just before the spawn
    wall: float
    returncode: int
    stdout: bytes
    stderr: str


class Runner:
    """Runs a workload's jobs, one process at a time, and checks them."""

    def __init__(self, workload, seed: int, seconds: float, corrupt: bool = False):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.corrupt = corrupt
        # a child still running this long after the start is hung: kill it
        self.deadline = time.perf_counter() + 1.5 * seconds + 60.0
        self.env = dict(os.environ, **PINNED)
        # imports read cached bytecode, as an installed CLI does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe_errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.golden_mismatches: set[str] = set()
        self.peak_rss_kb = 0
        self.samples: list[tuple[str, float]] = []
        self.trials = 0

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str]) -> Process:
        timeout = max(1.0, self.deadline - time.perf_counter())
        with tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return Process(start, wall, proc.returncode, out, stderr)

    def probe(self, code: str, *args: str) -> Process:
        proc = self.spawn([sys.executable, "-c", code, *args])
        if proc.returncode != 0:
            self.probe_errors.append(f"probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    def environment(self) -> dict:
        proc = self.probe(ENV_PROBE)
        try:
            env = json.loads(proc.stdout)
        except ValueError:
            env = {}
        env.update(
            git_sha=git_sha(),
            nproc=len(os.sched_getaffinity(0)),
            pinned=dict(PINNED),
            bytecode_cache=True,
            seed=self.seed,
        )
        return env

    def setup_s(self) -> float:
        files = [f"problems/example{i}.json" for i in self.workload.problems]
        return statistics.median(self.probe(SETUP_PROBE, *files).wall for _ in range(SETUP_REPEATS))

    # -- requests ------------------------------------------------------------

    def _fail(self, reason: str, requests: int = 1) -> None:
        self.failed += requests
        self.failures.append(reason)

    def _output(self, proc: Process) -> bytes:
        """The request's stdout; cut in half once when asked to corrupt."""
        if self.corrupt:
            self.corrupt = False
            return proc.stdout[: len(proc.stdout) // 2]
        return proc.stdout

    def _same_as_before(self, key: str, payload: bytes) -> bool:
        digest = hashlib.sha256(payload).hexdigest()
        return self.digests.setdefault(key, digest) == digest

    def run_cli(self, job: CliJob, spans: Path | None) -> Process:
        if spans is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *job.args]
        else:
            argv = [sys.executable, "-c", TRACED_CLI_ENTRY, str(spans), *job.args]
        proc = self.spawn(argv)
        self.attempted += 1
        out = self._output(proc)
        if proc.returncode != 0:
            reason = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            reason = CHECKS[job.kind](job, out)
        if reason is None and not self._same_as_before(job.key, out):
            reason = "output bytes differ from an earlier repetition"
        if reason is not None:
            self._fail(f"{job.key}: {reason}")
            return proc
        self.samples.append((job.key, proc.wall))
        if job.kind == "certify" and not golden_bytes_match(job, out):
            self.golden_mismatches.add(job.key)
        return proc

    def run_campaign(self, job: CampaignJob, spans: Path | None) -> Process:
        argv = [
            sys.executable, str(BENCH / "campaign.py"), str(self.seed),
            ",".join(map(str, job.problems)), ",".join(map(str, job.ns)),
            ",".join(repr(e) for e in job.epsilons), str(job.trials),
        ]
        if spans is not None:
            argv.append(str(spans))
        proc = self.spawn(argv)
        records = []
        for line in self._output(proc).decode("utf-8", "replace").splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                break
        records = records[: job.requests]
        self.attempted += job.requests
        for record in records:
            key = f"campaign {record.get('request')}"
            reason = check_campaign_record(job, record)
            if reason is None and not self._same_as_before(key, str(record.get("digest")).encode()):
                reason = f"{key}: report differs from an earlier repetition"
            if reason is not None:
                self._fail(reason)
                continue
            self.samples.append((key, record["latency_s"]))
            self.trials += record["trials"]
        missing = job.requests - len(records)
        if missing:
            self._fail(f"campaign: {missing} requests gave no readable result, exit code "
                       f"{proc.returncode}: {proc.stderr.strip()[-300:]}", missing)
        return proc

    def run_cycle(self, jobs: list, spans_dir: Path | None = None) -> tuple[float, list]:
        """Run the jobs in order; the cycle's wall time and, traced, its spans."""
        start = time.perf_counter()
        traced = []
        for index, job in enumerate(jobs):
            spans = None if spans_dir is None else spans_dir / f"job{index}.json"
            if isinstance(job, CliJob):
                proc = self.run_cli(job, spans)
                entry = "cli.main"
            else:
                proc = self.run_campaign(job, spans)
                entry = "bench.campaign"
            if spans is not None:
                traced.append((job.key, proc.start, entry, _read_spans(spans)))
        return time.perf_counter() - start, traced


def _read_spans(path: Path) -> list:
    try:
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
    except (OSError, ValueError, KeyError):
        return []
    path.unlink()
    return spans


def git_sha() -> str | None:
    # only the checkout's own repository, without user or system config
    env = dict(
        os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
        GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
    )
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples: always one of them.

    The latencies of a workload fall into a few clusters, one per kind of
    request, and an interpolated median can land in the empty gap between
    two of them; the nearest rank cannot.
    """
    return xs[math.ceil(p / 100.0 * len(xs)) - 1]


def tail(xs: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile of sorted samples with ten samples beyond it.

    Returns the percentile, its value and the number of samples beyond it;
    with fewer than forty samples, the maximum as percentile 100.
    """
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1], len(xs) - rank
    return 100.0, xs[-1], 0


def _enough(elapsed: float, cycles: int, seconds: float) -> bool:
    """Stop when one more cycle would end farther from `seconds` than now."""
    return elapsed + 0.5 * elapsed / cycles >= seconds


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    env = runner.environment()
    setup = runner.setup_s()
    start = time.perf_counter()
    cycles = 0
    while True:
        runner.run_cycle(runner.workload.cycle(runner.rng))
        cycles += 1
        if _enough(time.perf_counter() - start, cycles, seconds):
            break
    wall = time.perf_counter() - start
    metrics = {"setup_s": _metric(setup, "s")}
    lat = sorted(latency for _, latency in runner.samples) or [0.0]  # all failed: correct is false
    tail_percentile, tail_value, beyond = tail(lat)
    metrics["latency_p50_s"] = _metric(percentile(lat, 50.0), "s")
    metrics["latency_tail_s"] = _metric(tail_value, "s")
    metrics["requests_per_s"] = _metric((runner.attempted - runner.failed) / wall, "1/s")
    if runner.workload.name == "perturb-campaign":
        metrics["trials_per_s"] = _metric(runner.trials / wall, "1/s")
    metrics["peak_rss_mb"] = _metric(runner.peak_rss_kb / 1024.0, "MB")
    metrics["failed_ratio"] = _metric(runner.failed / max(runner.attempted, 1), "1")
    metrics["check.golden_byte_mismatches"] = _metric(len(runner.golden_mismatches), "count")
    details = {
        "latency_samples": len(runner.samples),
        "latency_tail_percentile": tail_percentile,
        "latency_tail_samples_beyond": beyond,
        "cycles": cycles,
        "wall_s": wall,
        "samples": runner.samples,
    }
    return {"environment": env, "metrics": metrics, "details": details}


def measure_layers(runner: Runner, seconds: float) -> dict:
    env = runner.environment()
    spans_dir = OUT / f"spans-{runner.workload.name}-seed{runner.seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    plain_wall = traced_wall = 0.0
    per_cycle, dumps = [], []
    while True:
        jobs = runner.workload.cycle(runner.rng)
        plain_wall += runner.run_cycle(jobs)[0]
        wall, traced = runner.run_cycle(jobs, spans_dir)
        traced_wall += wall
        per_cycle.append(layers.cycle_metrics([t[1:] for t in traced]))
        dumps.append(traced)
        if _enough(time.perf_counter() - start, len(dumps), seconds):
            break
    spans_dir.rmdir()
    spans_file = OUT / f"spans-{runner.workload.name}-seed{runner.seed}.json"
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(
            [{"cycle": c, "job": key, "spawned": spawned, "entry": entry, "spans": spans}
             for c, traced in enumerate(dumps) for key, spawned, entry, spans in traced],
            handle, separators=(",", ":"),
        )
    metrics = {}
    for name, (unit, _) in layers.CATALOGUE.items():
        values = [cycle[name] for cycle in per_cycle]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = _metric(value, unit)
    metrics["trace.overhead_ratio"] = _metric(traced_wall / plain_wall - 1.0, "1")
    metrics["check.golden_byte_mismatches"] = _metric(len(runner.golden_mismatches), "count")
    repeat = all(
        cycle[name] == per_cycle[0][name] for cycle in per_cycle for name in layers.EXACT_COUNTS
    )
    details = {
        "cycles": len(per_cycle),
        "counts_repeat_across_cycles": repeat,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "self_time": "span duration minus descendant spans in other layers",
    }
    return {"environment": env, "metrics": metrics, "details": details}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, corrupt: bool = False) -> dict:
    """One run; the full report, with pass/fail accounting."""
    OUT.mkdir(exist_ok=True)
    runner = Runner((TINY if tiny else WORKLOADS)[workload], seed, seconds, corrupt=corrupt)
    report = (measure_layers if trace else measure_end_to_end)(runner, seconds)
    report.update(
        workload=workload,
        trace=int(trace),
        correct=runner.failed == 0 and not runner.probe_errors,
        attempted=runner.attempted,
        failed=runner.failed,
        failures=(runner.probe_errors + runner.failures)[:20],
    )
    return report


def result_line(report: dict, spec: dict) -> dict:
    listed = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        got = report["metrics"][entry["name"]]
        if got["unit"] != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {got['unit']} is not {entry['unit']}")
        metrics[entry["name"]] = got
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="run the workload at smoke-test size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracstab" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: no fracstab sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    line = result_line(report, spec)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for key, metric in report["metrics"].items():
        print(f"{key}: {metric['value']!r} {metric['unit']}")
    for reason in report["failures"]:
        print(f"failed: {reason}")
    summary = {k: v for k, v in report.items() if k != "metrics"}
    summary["details"] = {k: v for k, v in report["details"].items() if k != "samples"}
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
