"""The benchmark's workloads and the checks on their outputs.

A workload is a list of jobs per cycle.  A job is one fresh process: a
`fracstab` command-line request, or one perturbation campaign that makes
many requests.  The seed decides the request order of each cycle and the
campaign's trial seeds; nothing else about the inputs varies.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "problems" / "golden"
FAMILIES = ("identity", "logarithm", "power")
OPS_CHECKS_PER_MESH = 7  # residual rows verify-ops prints per family and n


@dataclass(frozen=True)
class CliJob:
    """One `fracstab` invocation; `args` follow the program name."""

    kind: str  # certify | solve | verify-ops
    args: tuple[str, ...]
    example: int | None = None
    n: int | None = None
    n_list: tuple[int, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class CampaignJob:
    """One process running acceptance criterion 7's campaign."""

    problems: tuple[int, ...]
    ns: tuple[int, ...]
    epsilons: tuple[float, ...]
    trials: int

    @property
    def key(self) -> str:
        return "campaign"

    @property
    def requests(self) -> int:
        return len(self.problems) * len(self.ns) * len(self.epsilons)


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[int, ...]  # files the set-up probe loads and validates
    jobs: tuple = field(default=())

    def cycle(self, rng: random.Random) -> list:
        jobs = list(self.jobs)
        rng.shuffle(jobs)
        return jobs


def _problem(i: int) -> str:
    return f"problems/example{i}.json"


def certify(i: int) -> CliJob:
    return CliJob("certify", ("certify", _problem(i), "--json"), example=i)


def solve(i: int, n: int) -> CliJob:
    return CliJob("solve", ("solve", _problem(i), "--n", str(n)), example=i, n=n)


def verify_ops(n_list: tuple[int, ...] | None = None) -> CliJob:
    if n_list is None:
        return CliJob("verify-ops", ("verify-ops",), n_list=(64, 128, 256, 512))
    spelled = ",".join(str(n) for n in n_list)
    return CliJob("verify-ops", ("verify-ops", "--n-list", spelled), n_list=n_list)


ALL = tuple(range(1, 8))

WORKLOADS = {
    "cli-small": Workload(
        "cli-small", ALL,
        tuple(job for i in ALL for job in (certify(i), solve(i, 256))),
    ),
    "perturb-campaign": Workload(
        "perturb-campaign", ALL,
        (CampaignJob(ALL, (256, 512), (1e-3, 1e-2), 20),),
    ),
    "cli-large": Workload(
        "cli-large", (5, 7, 1),
        (solve(5, 2048), solve(7, 2048), solve(1, 1024), verify_ops()),
    ),
}

#: the same workloads at a size for the smoke test
TINY = {
    "cli-small": Workload("cli-small", (1, 5), (certify(1), certify(5), solve(1, 32), solve(5, 32))),
    "perturb-campaign": Workload(
        "perturb-campaign", (1, 5), (CampaignJob((1, 5), (64,), (1e-2,), 3),),
    ),
    "cli-large": Workload("cli-large", (5, 1), (solve(5, 128), solve(1, 64), verify_ops((32, 64)))),
}


# ---------------------------------------------------------------------------
# output checks: each returns the reason the output is wrong, or None

def _close(got, want) -> bool:
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= 1e-12 * max(abs(got), abs(want))


def check_certify(job: CliJob, out: bytes) -> str | None:
    try:
        got = json.loads(out)
    except ValueError:
        return "certify output is not JSON"
    want = json.loads((GOLDEN / f"example{job.example}.certificate.json").read_bytes())
    if not isinstance(got, dict) or set(got) != set(want):
        return "certify keys differ from the golden file"
    bad = sorted(k for k in want if not _close(got[k], want[k]))
    if bad:
        return f"certify values off the golden file by more than 1e-12: {bad}"
    return None


def golden_bytes_match(job: CliJob, out: bytes) -> bool:
    return out == (GOLDEN / f"example{job.example}.certificate.json").read_bytes()


def check_solve(job: CliJob, out: bytes) -> str | None:
    lines = out.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != "t,psi_t,g,y_weighted,y,limit_flag":
        return "solve CSV header missing"
    rows = lines[1:]
    if len(rows) != job.n + 1:
        return f"solve CSV has {len(rows)} rows, expected {job.n + 1}"
    for row in rows:
        fields = row.split(",")
        try:
            values = [float(v) for v in fields]
        except ValueError:
            return f"solve CSV row is not numeric: {row!r}"
        if len(values) != 6 or not all(math.isfinite(v) for v in values):
            return f"solve CSV row is not 6 finite numbers: {row!r}"
    return None


def check_verify_ops(job: CliJob, out: bytes) -> str | None:
    lines = out.decode("utf-8", "replace").splitlines()
    if any(line.startswith("FAIL:") for line in lines):
        return "verify-ops printed FAIL lines"
    rows = []
    for line in lines[1:]:
        if not line.strip():
            break
        rows.append(line.split())
    want = len(FAMILIES) * len(job.n_list) * OPS_CHECKS_PER_MESH
    if len(rows) != want:
        return f"verify-ops printed {len(rows)} residual rows, expected {want}"
    for fields in rows:
        try:
            ok = len(fields) == 4 and fields[0] in FAMILIES and math.isfinite(float(fields[3]))
        except ValueError:
            ok = False
        if not ok:
            return f"verify-ops residual row malformed: {' '.join(fields)!r}"
    return None


CHECKS = {"certify": check_certify, "solve": check_solve, "verify-ops": check_verify_ops}


def check_campaign_record(job: CampaignJob, record: dict) -> str | None:
    if record.get("trials") != job.trials or record.get("passed") != job.trials:
        return f"{record.get('request')}: {record.get('passed')} of {record.get('trials')} trials passed"
    if not record.get("report_pass"):
        return f"{record.get('request')}: report verdict is not pass"
    return None
