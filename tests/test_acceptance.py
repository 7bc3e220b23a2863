"""End-to-end acceptance checks, one [PASS]/[FAIL] line per criterion.

Every criterion prints its verdict to the terminal before asserting, so a
red run still reports each line.  Two values printed in the paper are
errata and are checked against the correct values instead, with the
printed value still shown in the verdict line: the anchor E_{1/2}(1), printed
as 5.002 but equal to e * (1 + erf 1) = 5.00898..., and the power-map
family's comparison coefficient, printed as 2*sqrt(rho)/(sqrt(pi)*(rho+1))
but equal to sqrt(pi)/2 by the psi power rule.
"""

import json
import math
import time

import numpy as np
import pytest

from fracstab.errors import ContractError
from fracstab.fraccalc import (
    DESIGN_ORDERS,
    KERNEL_NULL_TOL,
    FracIntegralOperator,
    gronwall_bound,
    run_operator_checks,
)
from fracstab.cli import main, problem_from_dict
from fracstab.psi_space import FracOrder, GridFunction, PsiMap, build_mesh, default_grading
from fracstab.rhs_expr import parse_expression
from fracstab.solver import (
    CauchyProblem,
    certify_unique,
    picard_solve,
)
from fracstab.specfun import erf_fn, gamma_fn, mittag_leffler, mittag_leffler_many
from fracstab.stability import (
    PerturbationSpec,
    StabilityCertificate,
    estimate_lambda_phi,
    lambda_phi_in_force,
    perturb_and_check,
)

from conftest import PROBLEMS, load_example

SQRT_PI = math.sqrt(math.pi)


def report(capsys, ok: bool, label: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line)
    return line


def test_criterion_1_series_identity(capsys):
    zs = np.arange(0.0, 3.0 + 1e-12, 0.25)
    start = time.perf_counter()
    worst = 0.0
    for z in zs:
        series = mittag_leffler(0.5, float(z))
        closed = math.exp(z * z) * (1.0 + erf_fn(float(z)))
        worst = max(worst, abs(series - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    line = report(
        capsys, ok, "criterion 1 (series identity)",
        f"max relative gap {worst:.3e} over 13 points in {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_1_reference_anchor(capsys):
    # the paper prints E_{1/2}(1) = 5.002, an erratum: the function is
    # e * (1 + erf 1) = 5.008980..., so the series is checked against that
    # closed form, computed without fracstab, and the printed value is shown
    got = mittag_leffler(0.5, 1.0)
    ref = math.e * (1.0 + math.erf(1.0))
    rel = abs(got - ref) / ref
    ok = rel <= 1e-13
    line = report(
        capsys, ok, "criterion 1 (reference anchor)",
        f"series gives {got:.6f} against e*(1+erf 1) = {ref:.6f} "
        f"(relative {rel:.1e}; the paper prints 5.002, correct to three "
        f"decimals 5.009)",
    )
    assert ok, line


def test_criterion_2_integral_exactness(capsys):
    cases = [
        (PsiMap("identity"), 0.0, 1.0),
        (PsiMap("logarithm"), 1.0, math.e),
        (PsiMap("power", rho=2.0), 0.0, 1.0),
    ]
    start = time.perf_counter()
    worst = 0.0
    for psi, a, T in cases:
        for alpha in (0.3, 0.5, 0.9):
            mesh = build_mesh(psi, a, T, 128, max(1.0, 2.0 / alpha))
            ones = GridFunction(mesh, np.ones(129), 0.0)
            got = FracIntegralOperator(mesh, alpha).apply(ones).values[-1]
            span = mesh.psi_nodes[-1] - mesh.psi_nodes[0]
            exact = span ** alpha / gamma_fn(alpha + 1.0)
            worst = max(worst, abs(got - exact) / exact)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    line = report(
        capsys, ok, "criterion 2 (exactness on constants)",
        f"max relative error {worst:.3e} over 9 combinations in {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_3_operator_oracles(capsys):
    start = time.perf_counter()
    rep = run_operator_checks()
    elapsed = time.perf_counter() - start
    slope_ok = all(
        slope >= 0.8 * DESIGN_ORDERS[check.rsplit("_", 1)[0]]
        for (_, check), slope in rep.slopes.items()
    )
    kernel_worst = max(
        row.residual for row in rep.rows if row.check == "kernel_null"
    )
    ok = rep.passed and slope_ok and kernel_worst <= KERNEL_NULL_TOL and elapsed < 30.0
    min_slope = min(rep.slopes.values())
    line = report(
        capsys, ok, "criterion 3 (operator oracles)",
        f"min slope {min_slope:.2f}, kernel residual {kernel_worst:.1e}, "
        f"{elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_4_solver_oracle(capsys):
    p = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(0.5, 1.0),
        a=0.0, T=1.0, y_a=1.0,
        rhs=parse_expression("0.5*y"), lipschitz=(0.5, 0.0),
    )
    start = time.perf_counter()
    errs = []
    for n in (128, 256, 512):
        mesh = build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))
        sol = picard_solve(p, mesh)
        ref = mittag_leffler_many(0.5, 0.5 * np.sqrt(mesh.nodes))
        errs.append(float(np.max(np.abs(sol.y.values - ref))))
    elapsed = time.perf_counter() - start
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = errs[-1] <= 1e-3 and min(ratios) >= 1.7 and elapsed < 10.0
    line = report(
        capsys, ok, "criterion 4 (solver oracle)",
        f"error {errs[-1]:.2e} at n=512, halving ratios "
        f"{ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.1f} s",
    )
    assert ok, line


def _certified_for_lambda(lam: float, scale_arg) -> bool:
    k = lam / 20.0 * mittag_leffler(0.5, scale_arg(lam))
    p = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(0.5, 0.0),
        a=0.0, T=1.0, y_a=1.0,
        rhs=parse_expression("y"),  # placeholder; only the constants matter
        lipschitz=(k, lam / 10.0),
    )
    return certify_unique(p).certified


def test_criterion_5_certification_boundaries(capsys):
    start = time.perf_counter()
    lams = [round(0.1 * i, 1) for i in range(1, 31)]
    E_at_1 = mittag_leffler(0.5, 1.0)

    got1 = {lam: _certified_for_lambda(lam, lambda _: 1.0) for lam in lams}
    want1 = {lam: lam * E_at_1 / (SQRT_PI * (10.0 - lam)) < 1.0 for lam in lams}
    first_ok = got1 == want1 and got1[2.6] and not got1[2.7]

    got2 = {lam: _certified_for_lambda(lam, lambda v: v) for lam in lams}
    want2 = {
        lam: lam * mittag_leffler(0.5, lam) / (SQRT_PI * (10.0 - lam)) < 1.0
        for lam in lams
    }
    second_ok = got2 == want2 and got2[1.3] and not got2[1.4]
    elapsed = time.perf_counter() - start

    ok = first_ok and second_ok and elapsed < 5.0
    line = report(
        capsys, ok, "criterion 5 (certified coefficient sets)",
        f"boundaries in (2.6, 2.7) and (1.3, 1.4), {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_6_log_family_coefficient(capsys):
    pf = load_example(5)
    p = pf.problem
    mesh = build_mesh(p.psi, p.a, p.T, 256, default_grading(p.order))
    start = time.perf_counter()
    lam_hat = estimate_lambda_phi(p, pf.phi, mesh)
    elapsed = time.perf_counter() - start
    bound = 2.0 / SQRT_PI + 1e-6
    ok = lam_hat <= bound and elapsed < 5.0
    line = report(
        capsys, ok, "criterion 6 (log-family coefficient)",
        f"estimate {lam_hat:.6f} <= {bound:.6f}, {elapsed:.2f} s",
    )
    assert ok, line


def _power_family_doc(rho: float) -> dict:
    return {
        "psi": {"kind": "power", "rho": rho},
        "alpha": 0.5,
        "beta": 1.0,
        "a": 0.0,
        "T": 1.0,
        "y_a": 1.0,
        "rhs": "(lam/20)*t^(rho/2)*cos(t)*y + (lam/20)*d",
        "lipschitz": {"k": 0.05, "l": 0.05},
        "phi": "t^(rho/2)",
        "parameters": {"lam": 1.0, "rho": rho},
    }


def test_criterion_6_power_family_coefficient(capsys):
    # for psi = t**rho the comparison function is phi = psi**(1/2), so the
    # power rule gives I^{1/2;psi} phi = (sqrt(pi)/2) * psi**(1/2) * phi and
    # the sharp coefficient on [0, 1] is sqrt(pi)/2 for every rho; the
    # printed 2*sqrt(rho)/(sqrt(pi)*(rho+1)) is an erratum, below it, and is
    # shown for comparison
    exact = SQRT_PI / 2.0
    start = time.perf_counter()
    rows = []
    ok = True
    for rho in (0.5, 1.0, 2.0, 4.0):
        pf = problem_from_dict(_power_family_doc(rho))
        p = pf.problem
        mesh = build_mesh(p.psi, p.a, p.T, 256, default_grading(p.order))
        lam_hat = estimate_lambda_phi(p, pf.phi, mesh)
        printed = 2.0 * math.sqrt(rho) / (SQRT_PI * (rho + 1.0))
        rows.append(f"rho={rho:g}: {lam_hat:.6f} (printed {printed:.4f})")
        ok = ok and lam_hat <= exact and (exact - lam_hat) / exact <= 1e-5
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    line = report(
        capsys, ok, "criterion 6 (power-family coefficients)",
        f"sqrt(pi)/2 = {exact:.6f}; " + "; ".join(rows) + f", {elapsed:.2f} s",
    )
    assert ok, line


def _certificate_for(pf, mesh):
    """The command-line certificate: declared coefficient only if sound."""
    if pf.phi is None:
        return StabilityCertificate.ulam_hyers(pf.problem)
    _, lam, _ = lambda_phi_in_force(pf.problem, pf.phi, pf.lambda_phi, mesh)
    return StabilityCertificate.ulam_hyers_rassias(pf.problem, pf.phi, lam)


def test_criterion_7_stability_dominance(capsys):
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_tag = ""
    ok = True
    for i in range(1, 8):
        pf = load_example(i)
        p = pf.problem
        needed = {}
        for n in (256, 512):
            mesh = build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))
            op = FracIntegralOperator(mesh, p.order.alpha)
            cert = _certificate_for(pf, mesh)
            top = 0.0
            for eps in (1e-3, 1e-2):
                spec = PerturbationSpec(
                    epsilon=eps, shape="random_bounded", trials=20, seed=0
                )
                rep = perturb_and_check(p, cert, spec, mesh, operator=op)
                ok = ok and rep.passed
                top = max(top, rep.max_ratio)
                if rep.max_ratio > worst_ratio:
                    worst_ratio = rep.max_ratio
                    worst_tag = f"example {i}, eps {eps:g}, n {n}"
            needed[n] = max(0.0, top - 1.0)
        # the slack consumed out of the 5 percent allowance must not grow
        ok = ok and needed[512] <= needed[256] + 1e-3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    line = report(
        capsys, ok, "criterion 7 (stability dominance)",
        f"all 560 trials within allowance; worst ratio {worst_ratio:.4f} "
        f"({worst_tag}), {elapsed:.1f} s",
    )
    assert ok, line


def _random_premise_instance(rng, mesh, dxn):
    # decreasing draws of v route through the kernel series, whose term
    # cap needs g * gamma(alpha) modest at small alpha; these ranges keep
    # both branches live and the series comfortably convergent
    alpha = float(rng.uniform(0.4, 1.0))
    c0 = float(rng.uniform(0.1, 2.0))
    c1 = c0 * float(rng.uniform(-0.9, 2.0))
    p_exp = float(rng.uniform(0.3, 2.0))
    v = c0 + c1 * dxn ** p_exp
    g0 = float(rng.uniform(0.0, 0.5))
    g1 = float(rng.uniform(0.0, 0.5))
    q_exp = float(rng.uniform(0.5, 2.0))
    g = g0 + g1 * dxn ** q_exp
    return alpha, v, g


def _volterra_fixed_point(mesh, v, g, alpha):
    op = FracIntegralOperator(mesh, alpha)
    u = v.copy()
    for _ in range(400):
        nxt = v + g * op.apply(GridFunction(mesh, u, 0.0)).values
        if np.max(np.abs(nxt - u)) <= 1e-12 * max(1.0, float(np.max(np.abs(nxt)))):
            return nxt
        u = nxt
    raise AssertionError("fixed point did not settle")


def test_criterion_8_inequality_dominance(capsys):
    families = [
        (PsiMap("identity"), 0.0, 1.0),
        (PsiMap("logarithm"), 1.0, math.e),
        (PsiMap("power", rho=2.0), 0.0, 1.0),
    ]
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    checked = 0
    margin = 0.0
    for psi, a, T in families:
        mesh = build_mesh(psi, a, T, 24, grading=2.0)
        dx = mesh.psi_nodes - mesh.psi_nodes[0]
        dxn = dx / dx[-1]
        for _ in range(100):
            alpha, v, g = _random_premise_instance(rng, mesh, dxn)
            u = _volterra_fixed_point(mesh, v, g, alpha)
            bound = gronwall_bound(
                GridFunction(mesh, v, 0.0), GridFunction(mesh, g, 0.0), alpha
            ).values
            gap = float(np.max(u - bound))
            margin = max(margin, gap)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = margin <= 1e-7 and checked == 300 and elapsed < 10.0
    line = report(
        capsys, ok, "criterion 8 (inequality dominance)",
        f"{checked} instances, worst overshoot {margin:.1e}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "perturb", str(PROBLEMS / "example5.json"), "--n", "64",
        "--trials", "5", "--epsilon", "0.001",
    ]
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    capsys.readouterr()
    ok = code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    line = report(
        capsys, ok, "criterion 9 (deterministic reports)",
        f"{len(out1.read_bytes())} bytes, identical across runs",
    )
    assert ok, line
