"""Stability constants, comparison-function checks, and the harness."""

import json
import math

import mpmath
import numpy as np
import pytest

from fracstab import stability
from fracstab.cli import main
from fracstab.errors import (
    CertificationError,
    ContractError,
    DomainError,
)
from fracstab.psi_space import FracOrder, PsiMap, build_mesh, default_grading
from fracstab.rhs_expr import parse_expression
from fracstab.solver import CauchyProblem
from fracstab.stability import (
    PERTURBATION_SHAPES,
    PerturbationSpec,
    StabilityCertificate,
    estimate_lambda_phi,
    lambda_phi_in_force,
    perturb_and_check,
    report_to_csv,
)

from conftest import load_example

# frozen constants for the bundled problems
C_F_EX1 = 1.7693494064794517
C_F_UHR_EX5 = 1.2627608627618012
LAMBDA_HAT_EX5 = 0.8862213323756123
SQRT_PI_HALF = 0.8862269254527580


def _mesh_for(p, n):
    return build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))


def _simple(rhs, lipschitz, beta=1.0):
    return CauchyProblem(
        psi=PsiMap("identity"),
        order=FracOrder(0.5, beta),
        a=0.0, T=1.0, y_a=1.0,
        rhs=parse_expression(rhs),
        lipschitz=lipschitz,
    )


def test_uh_constant_frozen():
    cert = StabilityCertificate.ulam_hyers(load_example(1).problem)
    assert cert.c_f == pytest.approx(C_F_EX1, rel=1e-12)
    # k = 0 leaves the bare span factor 1/(gamma(alpha + 1) * (1 - l))
    p0 = _simple("0.05*d", (0.0, 0.05))
    assert StabilityCertificate.ulam_hyers(p0).c_f == pytest.approx(
        1.1283791670955126 / 0.95, rel=1e-12
    )
    # the classical first-order case collapses to exp(k) (E_1 = exp)
    classical = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(1.0, 1.0),
        a=0.0, T=1.0, y_a=1.0,
        rhs=parse_expression("0.5*y"), lipschitz=(0.5, 0.0),
    )
    assert StabilityCertificate.ulam_hyers(classical).c_f == pytest.approx(
        math.exp(0.5), rel=1e-12
    )


def test_uh_constant_requires_contraction():
    with pytest.raises(CertificationError) as info:
        StabilityCertificate.ulam_hyers(_simple("5*y", (5.0, 0.0)))
    assert info.value.ratio is not None and info.value.ratio > 1.0


def test_uhr_constant_frozen():
    pf = load_example(5)
    cert = StabilityCertificate.ulam_hyers_rassias(pf.problem, pf.phi, pf.lambda_phi)
    assert cert.c_f == pytest.approx(C_F_UHR_EX5, rel=1e-12)
    with pytest.raises(DomainError):
        StabilityCertificate.ulam_hyers_rassias(pf.problem, pf.phi, 0.0)


@pytest.mark.parametrize("index", [5, 6, 7])
def test_uhr_constant_within_a_quarter_ulp(index):
    # against the same double inputs in 200-bit arithmetic; the product
    # (1 - l) * (1 - ratio) erred by 0.92 to 1.12 ulp on these examples
    pf = load_example(index)
    p = pf.problem
    c_f = StabilityCertificate.ulam_hyers_rassias(p, pf.phi, pf.lambda_phi).c_f
    k, l = p.lipschitz
    span = p.psi.value(p.T) - p.psi.value(p.a)
    with mpmath.workprec(200):
        alpha = mpmath.mpf(p.order.alpha)
        base = k * mpmath.mpf(span) ** alpha / mpmath.gamma(alpha + 1)
        exact = pf.lambda_phi / ((1 - mpmath.mpf(l)) - base)
        assert abs(c_f - exact) <= 0.25 * math.ulp(c_f)


def test_estimate_lambda_phi_frozen():
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 256)
    lam = estimate_lambda_phi(pf.problem, pf.phi, mesh)
    assert lam == pytest.approx(LAMBDA_HAT_EX5, rel=1e-9)
    # the mesh chord under-estimates the continuum coefficient sqrt(pi)/2
    assert lam <= SQRT_PI_HALF + 1e-6


def test_lambda_phi_in_force_without_a_declared_value():
    # nothing declared: the mesh estimate is used, and soundness is unknown
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 256)
    lam_hat = estimate_lambda_phi(pf.problem, pf.phi, mesh)
    assert lambda_phi_in_force(pf.problem, pf.phi, None, mesh) == (lam_hat, lam_hat, None)


def test_phi_validation():
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 32)
    with pytest.raises(DomainError):
        estimate_lambda_phi(pf.problem, parse_expression("0 - 1"), mesh)
    with pytest.raises(DomainError):
        estimate_lambda_phi(pf.problem, parse_expression("2 - t"), mesh)
    with pytest.raises(ContractError):
        estimate_lambda_phi(pf.problem, parse_expression("y + 1"), mesh)


def test_decreasing_phi_is_refused():
    # positive on example 5's [1, e], but decreasing
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 32)
    with pytest.raises(DomainError, match="must be nondecreasing"):
        estimate_lambda_phi(pf.problem, parse_expression("3 - t"), mesh)


def test_certificates_and_bounds():
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    assert cert.kind == "ulam_hyers"
    assert cert.c_f == pytest.approx(C_F_EX1, rel=1e-12)

    pf5 = load_example(5)
    cert5 = StabilityCertificate.ulam_hyers_rassias(
        pf5.problem, pf5.phi, pf5.lambda_phi
    )
    assert cert5.kind == "ulam_hyers_rassias"
    assert cert5.phi is pf5.phi


@pytest.mark.parametrize("l", [0.05, 0.5])
def test_constants_are_attained_when_only_the_derivative_slot_acts(l):
    # with k = 0 the forced solve is g = e/(1 - l) exactly, so the
    # deterministic shapes reach the certified bound at t = T: the 1/(1 - l)
    # in both constants is needed and enough
    p = _simple(f"{l}*d", (0.0, l))
    mesh = _mesh_for(p, 128)
    plain = perturb_and_check(
        p, StabilityCertificate.ulam_hyers(p),
        PerturbationSpec(epsilon=1e-2, shape="constant", trials=1), mesh,
    )
    assert 1.0 - 1e-6 <= plain.max_ratio <= 1.0
    # I^{1/2} t^{1/2} = (sqrt(pi)/2) t, so lambda_phi = sqrt(pi)/2 is sharp
    weighted = perturb_and_check(
        p,
        StabilityCertificate.ulam_hyers_rassias(
            p, parse_expression("t^0.5"), SQRT_PI_HALF
        ),
        PerturbationSpec(epsilon=1e-2, shape="phi_scaled", trials=1), mesh,
    )
    assert 0.9999 <= weighted.max_ratio <= 1.0


# one problem per psi kind with psi(T) - psi(a) = 2; every bundled problem
# has a span of 1, where span**alpha is 1 whichever way it enters
SPAN_TWO = {
    "identity": ({"kind": "identity"}, 0.0, 2.0),
    "logarithm": ({"kind": "logarithm"}, 1.0, math.exp(2.0)),
    "power": ({"kind": "power", "rho": 2.0}, 0.0, math.sqrt(2.0)),
}


@pytest.mark.parametrize("kind", SPAN_TWO)
def test_certificates_with_a_span_of_two_match_their_closed_forms(tmp_path, capsys, kind):
    psi, a, T = SPAN_TWO[kind]
    k, l, lam = 0.1, 0.05, 2.0
    path = tmp_path / "span2.json"
    path.write_text(json.dumps({
        "psi": psi, "alpha": 0.5, "beta": 1.0, "a": a, "T": T, "y_a": 1.0,
        "rhs": "0.1*y + 0.05*d", "lipschitz": {"k": k, "l": l},
        # I^{1/2} 1 = 2 sqrt(x / pi) <= 1.6 on the span, below the declared 2
        "phi": "1", "lambda_phi": lam,
    }))
    assert main(["certify", str(path), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["lambda_phi_sound"] is True and info["lambda_phi_used"] == lam
    with mpmath.workprec(200):
        alpha, span, k, l = mpmath.mpf(0.5), mpmath.mpf(2), mpmath.mpf(k), mpmath.mpf(l)
        lead = span**alpha / mpmath.gamma(alpha + 1)
        z = k / (1 - l) * span**alpha
        e_alpha = mpmath.nsum(lambda j: z**j / mpmath.gamma(alpha * j + 1), [0, mpmath.inf])
        want = {
            "ratio": k * lead / (1 - l),
            "factor": k * lead + l,
            "c_f_uh": lead / (1 - l) * e_alpha,
            "c_f_uhr": lam / ((1 - l) - k * lead),
        }
    for key, value in want.items():
        assert info[key] == pytest.approx(float(value), rel=1e-14), key


def test_trial_within_the_allowance_passes_on_its_own_mesh():
    # k = 0 on a span of 2: the constant forcing reaches the plain bound at
    # t = T, a ratio within rounding of 1, so the trial passes unrefined
    p = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(0.5, 1.0), a=0.0, T=2.0, y_a=1.0,
        rhs=parse_expression("0.5*d"), lipschitz=(0.0, 0.5),
    )
    report = perturb_and_check(
        p, StabilityCertificate.ulam_hyers(p),
        PerturbationSpec(epsilon=1e-2, shape="constant", trials=1), _mesh_for(p, 128),
    )
    (row,) = report.rows
    assert 1.0 - 1e-6 <= row.ratio <= 1.0
    assert row.verdict == "pass" and row.refined is False


def test_perturbation_spec_validation():
    with pytest.raises(DomainError):
        PerturbationSpec(epsilon=0.0)
    with pytest.raises(DomainError):
        PerturbationSpec(epsilon=1e-3, shape="sawtooth")
    with pytest.raises(DomainError):
        PerturbationSpec(epsilon=1e-3, trials=0)
    assert set(PERTURBATION_SHAPES) == {
        "constant", "phi_scaled", "random_bounded", "zero"
    }


def test_perturbation_spec_refuses_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        PerturbationSpec(epsilon=1e-3, seed=-1)
    assert PerturbationSpec(epsilon=1e-3, seed=0).seed == 0


def test_zero_shape_is_exact():
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    spec = PerturbationSpec(epsilon=1e-2, shape="zero", trials=1)
    report = perturb_and_check(pf.problem, cert, spec, _mesh_for(pf.problem, 32))
    assert report.passed
    assert report.max_deviation == 0.0
    assert report.max_ratio == 0.0


def test_constant_shape_rides_near_the_bound():
    # the worst deterministic forcing sits just under the certified ceiling
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    spec = PerturbationSpec(epsilon=1e-2, shape="constant", trials=1)
    report = perturb_and_check(pf.problem, cert, spec, _mesh_for(pf.problem, 64))
    assert report.passed
    assert report.max_ratio == pytest.approx(0.8670, abs=5e-3)


def test_epsilon_linearity_of_deviation():
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    mesh = _mesh_for(pf.problem, 64)
    devs = {}
    for eps in (1e-3, 1e-2):
        spec = PerturbationSpec(epsilon=eps, shape="constant", trials=1)
        devs[eps] = perturb_and_check(pf.problem, cert, spec, mesh).max_deviation
    assert devs[1e-2] / devs[1e-3] == pytest.approx(10.0, rel=1e-6)


def test_shape_certificate_mismatches():
    pf1 = load_example(1)
    cert1 = StabilityCertificate.ulam_hyers(pf1.problem)
    mesh1 = _mesh_for(pf1.problem, 16)
    with pytest.raises(ContractError):
        perturb_and_check(
            pf1.problem, cert1,
            PerturbationSpec(epsilon=1e-2, shape="phi_scaled", trials=1), mesh1,
        )
    pf5 = load_example(5)
    cert5 = StabilityCertificate.ulam_hyers_rassias(
        pf5.problem, pf5.phi, pf5.lambda_phi
    )
    mesh5 = _mesh_for(pf5.problem, 16)
    with pytest.raises(ContractError):
        perturb_and_check(
            pf5.problem, cert5,
            PerturbationSpec(epsilon=1e-2, shape="constant", trials=1), mesh5,
        )


def test_shape_is_checked_against_the_certificate_before_any_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before checking the shape")

    monkeypatch.setattr(stability, "picard_solve", refuse)
    pf1, pf5 = load_example(1), load_example(5)
    for p, cert, shape, message in (
        (pf1.problem, StabilityCertificate.ulam_hyers(pf1.problem), "phi_scaled",
         "phi_scaled shape needs a comparison function"),
        (pf5.problem, StabilityCertificate.ulam_hyers_rassias(pf5.problem, pf5.phi, pf5.lambda_phi),
         "constant", "constant shape breaks the weighted envelope near t = a; "
         "use phi_scaled or random_bounded"),
    ):
        with pytest.raises(ContractError) as info:
            perturb_and_check(
                p, cert, PerturbationSpec(epsilon=1e-2, shape=shape, trials=1), _mesh_for(p, 16)
            )
        assert str(info.value) == message


def test_random_trials_deterministic_and_seeded():
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    mesh = _mesh_for(pf.problem, 64)
    spec = PerturbationSpec(epsilon=1e-2, shape="random_bounded", trials=3, seed=0)
    r1 = perturb_and_check(pf.problem, cert, spec, mesh)
    r2 = perturb_and_check(pf.problem, cert, spec, mesh)
    assert report_to_csv(r1) == report_to_csv(r2)
    assert r1.passed
    # per-trial seeds derive from the master seed alone, frozen here
    assert [row.seed for row in r1.rows] == [3757552657, 673228719, 3241444873]
    other = perturb_and_check(
        pf.problem, cert,
        PerturbationSpec(epsilon=1e-2, shape="random_bounded", trials=3, seed=1),
        mesh,
    )
    assert report_to_csv(other) != report_to_csv(r1)


def test_uhr_harness_passes_for_example5():
    pf = load_example(5)
    cert = StabilityCertificate.ulam_hyers_rassias(
        pf.problem, pf.phi, pf.lambda_phi
    )
    mesh = _mesh_for(pf.problem, 64)
    spec = PerturbationSpec(epsilon=1e-2, shape="phi_scaled", trials=1)
    report = perturb_and_check(pf.problem, cert, spec, mesh)
    assert report.passed
    assert report.kind == "ulam_hyers_rassias"
    assert 0.5 < report.max_ratio < 1.0


def test_understated_constants_fail_and_refine():
    # a certificate built from constants below the true slopes must be
    # caught by the harness, and the refinement pass must confirm it
    pf = load_example(1)
    weak = StabilityCertificate.ulam_hyers(
        pf.problem.with_lipschitz((0.01, 0.0))
    )
    mesh = _mesh_for(pf.problem, 32)
    spec = PerturbationSpec(epsilon=1e-2, shape="constant", trials=1)
    report = perturb_and_check(pf.problem, weak, spec, mesh)
    assert not report.passed
    assert report.max_ratio > 1.05
    assert report.rows[0].verdict == "fail"
    assert report.rows[0].refined
    # the random draw is carried to the doubled mesh by interpolation and
    # clipping, not drawn afresh there; the ratio below is that draw's
    pf5 = load_example(5)
    weak5 = StabilityCertificate.ulam_hyers_rassias(
        pf5.problem, pf5.phi, pf5.lambda_phi / 50
    )
    spec5 = PerturbationSpec(epsilon=1e-2, shape="random_bounded", trials=3)
    report5 = perturb_and_check(
        pf5.problem, weak5, spec5, _mesh_for(pf5.problem, 32)
    )
    assert not report5.passed
    assert all(r.refined and r.verdict == "fail" for r in report5.rows)
    assert report5.rows[0].ratio == pytest.approx(6.6360000873816976, rel=1e-9)


def test_failed_refinement_gives_error_rows():
    # the rhs is singular at t = 1/16, a node of the doubled mesh (n = 16)
    # but not of the base one; every trial violates the understated bound,
    # and each refinement's unperturbed solve fails
    p = _simple("0.1*y + 1e-9/(t - 0.0625)", (0.1, 0.0))
    weak = StabilityCertificate.ulam_hyers(p.with_lipschitz((1e-4, 0.0)))
    mesh = build_mesh(p.psi, p.a, p.T, 8, 1.0)
    spec = PerturbationSpec(epsilon=1e-2, shape="constant", trials=2)
    report = perturb_and_check(p, weak, spec, mesh)
    assert [r.verdict for r in report.rows] == ["error", "error"]
    assert not report.passed


def test_unbuildable_doubled_level_is_tried_once(monkeypatch):
    # alpha = 0.01 grades with 200: n = 32 builds, the doubled n = 64 has
    # zero-width cells; every trial refines, and each is an error row
    built = []

    def counting_build_mesh(*args):
        built.append(args[3])
        return build_mesh(*args)

    monkeypatch.setattr(stability, "build_mesh", counting_build_mesh)
    p = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(0.01, 1.0), a=0.0, T=1.0,
        y_a=1.0, rhs=parse_expression("0.5*y"), lipschitz=(0.001, 0.0),
    )
    spec = PerturbationSpec(epsilon=1e-2, shape="constant", trials=3)
    report = perturb_and_check(p, StabilityCertificate.ulam_hyers(p), spec, _mesh_for(p, 32))
    assert [(r.verdict, r.refined) for r in report.rows] == [("error", True)] * 3
    assert built == [64]


def test_trial_error_rows():
    # the base problem sits exactly at the fixed point ln(2 - y) = 0, but a
    # large constant push drives y past 2 where the rhs stops evaluating
    p = _simple("0.2*ln(2 - y)", (0.3, 0.0))
    cert = StabilityCertificate.ulam_hyers(p)
    spec = PerturbationSpec(epsilon=5.0, shape="constant", trials=1)
    report = perturb_and_check(p, cert, spec, _mesh_for(p, 16))
    assert not report.passed
    assert report.rows[0].verdict == "error"
    assert math.isnan(report.rows[0].deviation)


def test_report_csv_layout():
    pf = load_example(1)
    cert = StabilityCertificate.ulam_hyers(pf.problem)
    spec = PerturbationSpec(epsilon=1e-3, shape="zero", trials=2)
    report = perturb_and_check(pf.problem, cert, spec, _mesh_for(pf.problem, 16))
    text = report_to_csv(report)
    lines = text.split("\n")
    assert lines[0] == "trial,seed,shape,epsilon,deviation,bound,ratio,verdict"
    assert lines[3] == ""
    assert lines[4] == "summary,value"
    assert text.endswith("verdict,pass\n")
    assert "\r" not in text
