"""Stability constants, comparison-function checks, and the harness."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fracstab.errors import (
    CertificationError,
    ContractError,
    DomainError,
)
from fracstab.psi_space import FracOrder, PsiMap, build_mesh
from fracstab.rhs_expr import parse_expression
from fracstab.solver import CauchyProblem, default_grading
from fracstab.stability import (
    PERTURBATION_SHAPES,
    PerturbationSpec,
    StabilityCertificate,
    estimate_lambda_phi,
    perturb_and_check,
    report_to_csv,
)

from conftest import load_example

# frozen constants for the bundled problems
C_F_EX1 = 1.5924144658315067
C_F_UHR_EX5 = 1.199622819623711
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
    # k = 0 leaves the bare span factor 1/gamma(alpha + 1)
    p0 = _simple("0.05*d", (0.0, 0.05))
    assert StabilityCertificate.ulam_hyers(p0).c_f == pytest.approx(
        1.1283791670955126, rel=1e-12
    )
    # the classical first-order case collapses to e
    classical = CauchyProblem(
        psi=PsiMap("identity"), order=FracOrder(1.0, 1.0),
        a=0.0, T=1.0, y_a=1.0,
        rhs=parse_expression("y"), lipschitz=(1.0, 0.0),
    )
    assert StabilityCertificate.ulam_hyers(classical).c_f == pytest.approx(
        math.e, rel=1e-12
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


def test_estimate_lambda_phi_frozen():
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 256)
    lam = estimate_lambda_phi(pf.problem, pf.phi, mesh)
    assert lam == pytest.approx(LAMBDA_HAT_EX5, rel=1e-9)
    # the mesh chord under-estimates the continuum coefficient sqrt(pi)/2
    assert lam <= SQRT_PI_HALF + 1e-6


def test_phi_validation():
    pf = load_example(5)
    mesh = _mesh_for(pf.problem, 32)
    with pytest.raises(DomainError):
        estimate_lambda_phi(pf.problem, parse_expression("0 - 1"), mesh)
    with pytest.raises(DomainError):
        estimate_lambda_phi(pf.problem, parse_expression("2 - t"), mesh)
    with pytest.raises(ContractError):
        estimate_lambda_phi(pf.problem, parse_expression("y + 1"), mesh)


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
    assert report.max_ratio == pytest.approx(0.9632, abs=5e-3)


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
        replace(pf.problem, lipschitz=(0.01, 0.0))
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
    assert report5.rows[0].ratio == pytest.approx(6.985263249875471, rel=1e-9)


def test_failed_refinement_gives_error_rows():
    # the rhs is singular at t = 1/16, a node of the doubled mesh (n = 16)
    # but not of the base one; every trial violates the understated bound,
    # and each refinement's unperturbed solve fails
    p = _simple("0.1*y + 1e-9/(t - 0.0625)", (0.1, 0.0))
    weak = StabilityCertificate.ulam_hyers(replace(p, lipschitz=(1e-4, 0.0)))
    mesh = build_mesh(p.psi, p.a, p.T, 8, 1.0)
    spec = PerturbationSpec(epsilon=1e-2, shape="constant", trials=2)
    report = perturb_and_check(p, weak, spec, mesh)
    assert [r.verdict for r in report.rows] == ["error", "error"]
    assert not report.passed


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
