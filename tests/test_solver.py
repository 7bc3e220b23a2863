"""Problem container, contraction bookkeeping, and the fixed-point solver."""

import math

import numpy as np
import pytest

from fracstab import fraccalc
from fracstab.errors import (
    ContractError,
    DomainError,
    EstimationError,
    NonConvergenceError,
)
from fracstab.fraccalc import FracIntegralOperator, hilfer_derivative
from fracstab.psi_space import FracOrder, PsiMap, build_mesh, default_grading
from fracstab.rhs_expr import parse_expression
from fracstab.solver import (
    CauchyProblem,
    Solution,
    certify_unique,
    estimate_lipschitz,
    picard_solve,
)
from fracstab.specfun import gamma_fn, mittag_leffler_many

from conftest import load_example

# frozen contraction numbers for the first bundled problem
L_EX1 = 0.38260143857642737
R_EX1 = 0.31400159841825265


def _problem(rhs, alpha=0.5, beta=1.0, psi=None, a=0.0, T=1.0, y_a=1.0,
             lipschitz=None, params=None):
    return CauchyProblem(
        psi=psi or PsiMap("identity"),
        order=FracOrder(alpha, beta),
        a=a, T=T, y_a=y_a,
        rhs=parse_expression(rhs, params),
        lipschitz=lipschitz,
    )


def _mesh(p, n):
    return build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))


def test_problem_validation():
    with pytest.raises(DomainError):
        _problem("y", T=0.0)  # T must exceed a
    with pytest.raises(DomainError):
        _problem("y", y_a=math.inf)
    with pytest.raises(DomainError):
        _problem("y", psi=PsiMap("logarithm"), a=0.5, T=2.0)
    with pytest.raises(DomainError):
        _problem("y", psi=PsiMap("power", rho=2.0), a=-1.0)
    for bad in ((-0.1, 0.5), (1.0, 1.0), (1.0, -0.2), (math.nan, 0.0)):
        with pytest.raises(DomainError):
            _problem("y", lipschitz=bad)


def test_default_grading():
    assert default_grading(FracOrder(0.5, 0.0)) == pytest.approx(4.0)
    assert default_grading(FracOrder(1.0, 0.0)) == pytest.approx(2.0)
    assert default_grading(FracOrder(0.25, 1.0)) == pytest.approx(8.0)


def test_contraction_factor_frozen():
    pf = load_example(1)
    fac = certify_unique(pf.problem)
    assert fac.factor == pytest.approx(L_EX1, rel=1e-13)
    assert fac.ratio == pytest.approx(R_EX1, rel=1e-13)
    # no damping on the derivative slot: ratio and factor coincide at l = 0
    fac0 = certify_unique(pf.problem.with_lipschitz((0.25, 0.0)))
    assert fac0.factor == pytest.approx(fac0.ratio, rel=1e-14)


def test_contraction_factor_needs_constants():
    p = _problem("0.5*y")
    with pytest.raises(ContractError):
        certify_unique(p)


def test_certify_unique_both_verdicts():
    good = certify_unique(load_example(1).problem)
    assert good.certified and good.ratio < 1.0
    bad = certify_unique(_problem("y", lipschitz=(5.0, 0.1)))
    assert not bad.certified and bad.ratio > 1.0


def test_zero_rhs_plain_is_exact():
    p = _problem("0", beta=1.0)  # gamma = 1, constant solution
    sol = picard_solve(p, _mesh(p, 32))
    np.testing.assert_allclose(sol.y.values, 1.0, rtol=1e-14)
    assert sol.iterations <= 2
    assert sol.update_norms[-1] <= 1e-14


def test_zero_rhs_weighted_is_prefactor():
    # beta = 0: the stored representation of the singular prefactor is flat
    p = _problem("0", beta=0.0)
    sol = picard_solve(p, _mesh(p, 32))
    assert sol.y.weight_exp == pytest.approx(0.5)
    np.testing.assert_allclose(
        sol.y.values, 1.0 / gamma_fn(0.5), rtol=1e-13
    )


def test_caputo_linear_against_series():
    # solution E(0.5 * sqrt(t)) at index 1/2, summed independently
    p = _problem("0.5*y", beta=1.0, lipschitz=(0.5, 0.0))
    errs = {}
    for n in (128, 256):
        mesh = _mesh(p, n)
        sol = picard_solve(p, mesh)
        ref = mittag_leffler_many(0.5, 0.5 * np.sqrt(mesh.nodes))
        errs[n] = float(np.max(np.abs(sol.y.values - ref)))
    assert errs[256] <= 5e-6
    assert errs[128] / errs[256] >= 1.7


def test_shallow_weight_returns_weighted_integral():
    # gamma + alpha = 1/2 < 1: the integral of g comes back weighted, and y
    # is stored as 1/gamma(gamma) + x**(alpha + 1 - gamma) / gamma(alpha + 1)
    p = _problem("1", alpha=0.25, beta=0.0)
    alpha, gamma = p.order.alpha, p.order.gamma
    errs = {}
    for n in (256, 1024):
        mesh = _mesh(p, n)
        op = FracIntegralOperator(mesh, alpha)
        sol = picard_solve(p, mesh, operator=op)
        assert op.apply(sol.g).weight_exp == pytest.approx(1.0 - gamma - alpha)
        x = mesh.offsets
        ref = 1.0 / gamma_fn(gamma) + x ** (alpha + 1.0 - gamma) / gamma_fn(alpha + 1.0)
        errs[n] = float(np.max(np.abs(sol.y.values - ref)))
    assert errs[1024] <= 2e-6
    assert math.log(errs[256] / errs[1024], 4.0) >= 1.8


def test_derivative_of_solution_matches_g():
    # feed the solved profile back through the composition derivative
    p = _problem("0.5*y", beta=1.0, lipschitz=(0.5, 0.0))
    mesh = _mesh(p, 256)
    sol = picard_solve(p, mesh)
    hd = hilfer_derivative(sol.y, p.order).values
    sel = mesh.nodes >= 0.1
    assert float(np.max(np.abs(hd[sel] - sol.g.values[sel]))) <= 1e-2


def test_weighted_solve_frozen_behavior():
    pf = load_example(1)
    sol = picard_solve(pf.problem, _mesh(pf.problem, 64))
    # stored value at a is y_a / gamma(gamma); here 1 / gamma(1/2)
    assert sol.y.values[0] == pytest.approx(0.5641895835477563, rel=1e-12)
    factor = certify_unique(pf.problem).factor
    assert factor == pytest.approx(L_EX1, rel=1e-13)
    assert sol.iterations <= 25
    update = sol.update_norms[-1]
    assert update <= 1e-10
    assert update * factor / (1.0 - factor) <= 1e-9
    # geometric decay of the update norms at rate <= factor (+ slack)
    norms = sol.update_norms
    for prev, cur in zip(norms[1:-1], norms[2:]):
        if prev > 1e-13:
            assert cur / prev <= L_EX1 + 0.05


def test_solve_reads_no_constants():
    # the Lipschitz pair certifies the iteration; it never steers it
    p = load_example(1).problem
    mesh = _mesh(p, 64)
    declared = picard_solve(p, mesh)
    bare = picard_solve(p.with_lipschitz(None), mesh)
    assert np.array_equal(declared.g.values, bare.g.values)
    assert np.array_equal(declared.y.values, bare.y.values)
    assert declared.update_norms == bare.update_norms
    assert list(Solution._fields) == [
        "g", "y", "iterations", "update_norms"
    ]


def test_solution_reconstruction_consistency():
    # weighted path: y equals prefactor + integral of g, independently applied
    pf = load_example(1)
    p = pf.problem
    mesh = _mesh(p, 64)
    sol = picard_solve(p, mesh)
    op = FracIntegralOperator(mesh, p.order.alpha)
    integral = op.apply(sol.g)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    pref = p.y_a / gamma_fn(p.order.gamma)
    recon = pref + dx[1:] ** p.order.alpha * integral.values[1:]
    np.testing.assert_allclose(sol.y.values[1:], recon, rtol=1e-10)


def test_weighted_solve_builds_only_the_weighted_table(monkeypatch):
    # example 1 has beta < 1, so every apply of the solve sees weighted
    # data; the plain table would be dead weight and is never requested
    weights = []

    def requested(mesh, alpha, weight_exp):
        weights.append(weight_exp)
        return shared(mesh, alpha, weight_exp)

    shared = fraccalc._shared_table
    monkeypatch.setattr(fraccalc, "_shared_table", requested)
    p = load_example(1).problem
    mesh = _mesh(p, 32)
    picard_solve(p, mesh, operator=FracIntegralOperator(mesh, p.order.alpha))
    assert weights and set(weights) == {p.order.weight}


def test_picard_validation():
    p = _problem("0.5*y")
    mesh = _mesh(p, 16)
    with pytest.raises(DomainError):
        picard_solve(p, mesh, tol=0.0)
    with pytest.raises(DomainError):
        picard_solve(p, mesh, max_iter=0)
    with pytest.raises(ContractError):
        picard_solve(p, mesh, forcing=np.zeros(5))
    other = build_mesh(p.psi, p.a, p.T, 16, 1.0)
    with pytest.raises(ContractError):
        picard_solve(p, mesh, operator=FracIntegralOperator(other, 0.5))
    with pytest.raises(ContractError):
        picard_solve(p, mesh, operator=FracIntegralOperator(mesh, 0.75))
    with pytest.raises(ContractError, match="does not cover"):
        picard_solve(p, build_mesh(p.psi, p.a, 2.0 * p.T, 16, 1.0))
    with pytest.raises(ContractError, match="must all be finite"):
        picard_solve(p, mesh, forcing=np.full(17, math.nan))


def test_forcing_shifts_solution():
    p = _problem("0.5*y", lipschitz=(0.5, 0.0))
    mesh = _mesh(p, 64)
    base = picard_solve(p, mesh)
    bumped = picard_solve(p, mesh, forcing=np.full(65, 1e-3))
    dev = float(np.max(np.abs(bumped.y.values - base.y.values)))
    assert 0.0 < dev < 1e-2


def test_non_convergence_raises():
    p = _problem("30*y")
    with pytest.raises(NonConvergenceError) as info:
        picard_solve(p, _mesh(p, 16), max_iter=5)
    assert info.value.iterations == 5
    assert info.value.last_update_norm > 0.0


def test_estimate_lipschitz_linear_cases():
    k_d, l_d = estimate_lipschitz(_problem("0.1*d"))
    assert k_d == pytest.approx(0.0, abs=1e-9)
    assert l_d == pytest.approx(0.1, abs=1e-6)
    k_t, l_t = estimate_lipschitz(_problem("cos(t)"))
    assert k_t == pytest.approx(0.0, abs=1e-9)
    assert l_t == pytest.approx(0.0, abs=1e-9)


def test_estimate_lipschitz_matches_declared_for_example1():
    pf = load_example(1)
    k, l = estimate_lipschitz(pf.problem)
    assert k == pytest.approx(pf.problem.lipschitz[0], abs=1e-3)
    assert l == pytest.approx(pf.problem.lipschitz[1], abs=1e-4)


def test_estimate_lipschitz_rejects_unevaluable_box():
    # rhs blows up inside any state box around the trial solution
    p = _problem("1/(y - y)")
    with pytest.raises((EstimationError, NonConvergenceError)):
        estimate_lipschitz(p)



# Metamorphic relations.  With alpha = 1/2 the default grading is 4, so at
# n = 256 every offset (j/256)**4 = j**4 / 2**32 is a dyadic rational with at
# most 32 fraction bits: s + x and its difference with s are exact for
# s <= 1e4, and so are sqrt(x) and its square.  The shifted and the t**2
# problems therefore evaluate the very same rhs values as [0, 1] does.
# If a relation fails, the program is at fault, not the relation.

def _metamorphic_y(beta, rhs, **where):
    p = _problem(rhs, alpha=0.5, beta=beta, **where)
    return picard_solve(p, _mesh(p, 256), tol=1e-13).y.values


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_shifting_the_interval_keeps_every_bit(beta):
    want = _metamorphic_y(beta, "0.5*y + 0.1*d + cos(3*t)")
    for s in (1.0, 100.0, 1e4):
        got = _metamorphic_y(beta, f"0.5*y + 0.1*d + cos(3*(t - {s!r}))", a=s, T=s + 1.0)
        assert np.array_equal(got, want), s


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_reparametrised_problems_match_the_identity(beta):
    want = _metamorphic_y(beta, "0.5*y + 0.1*d + cos(3*t)")
    squared = _metamorphic_y(beta, "0.5*y + 0.1*d + cos(3*t^2)", psi=PsiMap("power", rho=2.0))
    assert np.array_equal(squared, want)
    logged = _metamorphic_y(beta, "0.5*y + 0.1*d + cos(3*ln(t))", psi=PsiMap("logarithm"),
                            a=1.0, T=math.e)
    assert _relative(logged, want) <= 1e-15


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_scaling_the_initial_datum_scales_the_solution(beta):
    # linear and homogeneous: only the Picard stopping tolerance separates them
    want = 3.0 * _metamorphic_y(beta, "0.5*y + 0.1*d")
    assert _relative(_metamorphic_y(beta, "0.5*y + 0.1*d", y_a=3.0), want) <= 1e-12
