"""One perturbation campaign in one process, as acceptance criterion 7 runs it.

For each problem and mesh size one operator and one certificate are built;
then each epsilon gets one `perturb_and_check` call of `random_bounded`
trials.  Each call's spec seed is drawn from the campaign seed.  One JSON
line per call goes to stdout: its latency, its trial and pass counts, and
a digest of its `report_to_csv` rendering.

    python perfbench/campaign.py SEED PROBLEMS NS EPSILONS TRIALS [SPANS]

PROBLEMS, NS and EPSILONS are comma-separated; with SPANS the run is traced
and the spans are written there.  `src` must be on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path


def _numbers(text: str, kind):
    return [kind(part) for part in text.split(",")]


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    problems = _numbers(argv[1], int)
    ns = _numbers(argv[2], int)
    epsilons = _numbers(argv[3], float)
    trials = int(argv[4])
    spans_path = argv[5] if len(argv) > 5 else None

    tracer = None
    if spans_path is not None:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    # imported after the tracer is installed, so these names are the wrapped ones
    import numpy as np
    from fracstab import (
        FracIntegralOperator,
        PerturbationSpec,
        StabilityCertificate,
        build_mesh,
        default_grading,
        estimate_lambda_phi,
        load_problem,
        perturb_and_check,
        report_to_csv,
    )

    calls = len(problems) * len(ns) * len(epsilons)
    spec_seeds = iter(np.random.SeedSequence(seed).generate_state(calls).tolist())
    problem_dir = Path(__file__).resolve().parent.parent / "problems"

    def campaign():
        for i in problems:
            pf = load_problem(str(problem_dir / f"example{i}.json"))
            p = pf.problem
            for n in ns:
                mesh = build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))
                op = FracIntegralOperator(mesh, p.order.alpha)
                if pf.phi is None:
                    cert = StabilityCertificate.ulam_hyers(p)
                else:
                    # the declared coefficient only when it is sound
                    lam = estimate_lambda_phi(p, pf.phi, mesh, operator=op)
                    if pf.lambda_phi is not None and lam <= pf.lambda_phi + 1e-12:
                        lam = pf.lambda_phi
                    cert = StabilityCertificate.ulam_hyers_rassias(p, pf.phi, lam)
                for eps in epsilons:
                    spec = PerturbationSpec(
                        epsilon=eps, shape="random_bounded", trials=trials,
                        seed=next(spec_seeds),
                    )
                    start = time.perf_counter()
                    rep = perturb_and_check(p, cert, spec, mesh, operator=op)
                    latency = time.perf_counter() - start
                    csv = report_to_csv(rep)
                    verdicts = [line.rsplit(",", 1)[1] for line in csv.split("\n\n")[0].splitlines()[1:]]
                    record = {
                        "request": f"example{i} n={n} eps={eps:g}",
                        "latency_s": latency,
                        "trials": len(verdicts),
                        "passed": sum(v == "pass" for v in verdicts),
                        "report_pass": bool(rep.passed) and csv.endswith("verdict,pass\n"),
                        "digest": hashlib.sha256(csv.encode()).hexdigest(),
                    }
                    sys.stdout.write(json.dumps(record) + "\n")

    if tracer is None:
        campaign()
    else:
        try:
            with tracer.span("bench.campaign"):
                campaign()
        finally:
            tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
