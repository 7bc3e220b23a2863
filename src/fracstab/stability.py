"""Stability constants and an empirical perturbation harness.

Two certified regimes.  Plain: every solution of the inclusion "residual
bounded by epsilon" stays within ``c_f * epsilon`` of the true solution,
with ``c_f`` in closed form through the one-parameter Mittag-Leffler
kernel.  Comparison-weighted: the tolerance and the distance are both
scaled by a nondecreasing positive function phi, and the constant trades
the Mittag-Leffler factor for the comparison coefficient ``lambda_phi``
bounding ``I^alpha phi <= lambda_phi * phi``.

The harness closes the loop empirically: it manufactures admissible
perturbations, solves the forced problem, and checks the certified bound
nodewise.  Violations are retried at doubled resolution first, so "mesh
too coarse" and "bound broken" stay distinguishable.  Each of the two
meshes is one level: the mesh, its operator, the unperturbed solve and
the envelope, built whole or not at all.  A trial that fails on either
mesh, or cannot build the doubled one, is an error row, not an abort.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificationError,
    ContractError,
    DomainError,
    EvaluationError,
    NonConvergenceError,
)
from .fraccalc import FracIntegralOperator
from .psi_space import GridFunction, Mesh, _Frozen, _is_count, build_mesh
from .rhs_expr import Expr, evaluate, free_variables, to_source
from .solver import CauchyProblem, Solution, UniquenessCertificate, certify_unique, picard_solve
from .specfun import gamma_fn, mittag_leffler

__all__ = [
    "StabilityCertificate",
    "PerturbationSpec",
    "TrialResult",
    "PerturbationReport",
    "estimate_lambda_phi",
    "lambda_phi_in_force",
    "perturb_and_check",
    "report_to_csv",
    "PERTURBATION_SHAPES",
]

PERTURBATION_SHAPES = ("constant", "phi_scaled", "random_bounded", "zero")


class StabilityCertificate(NamedTuple):
    """Certified constant ``c_f``; ``phi`` is the comparison function of a
    weighted (Ulam-Hyers-Rassias) certificate, ``None`` for a plain one."""

    c_f: float
    phi: Expr | None = None

    @property
    def kind(self) -> str:
        return "ulam_hyers" if self.phi is None else "ulam_hyers_rassias"

    @classmethod
    def ulam_hyers(cls, p: CauchyProblem) -> "StabilityCertificate":
        """Closed-form plain stability constant, evaluated at t = T.

        c_f = span**alpha / (Gamma(alpha+1) * (1-l)) * E_alpha(k/(1-l) * span**alpha)
        with span = psi(T) - psi(a) and (k, l) the problem's constants.  A
        residual e with |e| <= eps moves the derivative slot by at most
        (k*|dy| + eps)/(1-l), hence the 1/(1-l) in front of the
        psi-Gronwall closed form.  Requires the contraction ratio < 1.
        """
        _certified(p)
        k, l = p.lipschitz
        alpha = p.order.alpha
        lead = p.span**alpha / (gamma_fn(alpha + 1.0) * (1.0 - l))
        return cls(c_f=lead * mittag_leffler(alpha, k / (1.0 - l) * p.span**alpha))

    @classmethod
    def ulam_hyers_rassias(
        cls, p: CauchyProblem, phi: Expr, lambda_phi: float
    ) -> "StabilityCertificate":
        """Comparison-weighted constant c_f = lambda_phi / ((1-l) * (1-ratio)).

        ``ratio`` is the contraction ratio of :func:`certify_unique`, and the
        1/(1-l) carries the residual through the derivative slot, as in
        :meth:`ulam_hyers`.  With ``ratio = base / (1-l)`` the denominator
        is evaluated as ``(1-l) - base``, two roundings fewer than the
        product (``base`` is :func:`certify_unique`'s ``k * span**alpha /
        Gamma(alpha+1)``).
        """
        if not (math.isfinite(lambda_phi) and lambda_phi > 0.0):
            raise DomainError(
                f"comparison coefficient must be positive, got {lambda_phi!r}"
            )
        base = _certified(p).base
        _, l = p.lipschitz
        return cls(c_f=lambda_phi / ((1.0 - l) - base), phi=phi)


def _certified(p: CauchyProblem) -> UniquenessCertificate:
    cert = certify_unique(p)
    if not cert.certified:
        raise CertificationError(
            "combined contraction ratio is not below 1", cert.ratio
        )
    return cert


def _phi_values(phi: Expr, mesh: Mesh) -> np.ndarray:
    """Nodal samples of the comparison function, validated for the role.

    Positive past t = a (zero is allowed at a itself), nondecreasing up to
    a rounding-level slack.
    """
    extra = free_variables(phi) - {"t"}
    if extra:
        raise ContractError(
            f"comparison function may only depend on t, found {sorted(extra)}"
        )
    vals = evaluate(phi, mesh.nodes)
    if np.any(vals[1:] <= 0.0) or vals[0] < 0.0:
        raise DomainError(
            f"comparison function {to_source(phi)!r} must be positive past t = a"
        )
    slack = 1e-12 * float(np.max(vals))
    if np.any(np.diff(vals) < -slack):
        raise DomainError(
            f"comparison function {to_source(phi)!r} must be nondecreasing"
        )
    return vals


def estimate_lambda_phi(
    p: CauchyProblem,
    phi: Expr,
    mesh: Mesh,
    *,
    operator: FracIntegralOperator | None = None,
) -> float:
    """Smallest nodewise coefficient with I^alpha phi <= coeff * phi.

    The max of the integral-to-function ratio over the nodes past a.  That
    is a lower estimate of the true coefficient, which bounds the ratio
    between the nodes too, so a certificate built from it can be slightly
    too small.  ``operator`` is as in ``picard_solve``.
    """
    vals = _phi_values(phi, mesh)
    op = operator if operator is not None else FracIntegralOperator(mesh, p.order.alpha)
    integral = op.apply(GridFunction(mesh, vals, 0.0))
    return float(np.max(integral.values[1:] / vals[1:]))


def lambda_phi_in_force(
    p: CauchyProblem, phi: Expr, declared: float | None, mesh: Mesh
) -> tuple[float, float, bool | None]:
    """Mesh estimate, the coefficient to use, and declared-value soundness.

    A declared coefficient is used only when it dominates the mesh
    estimate; otherwise the estimate takes over, since a too-small
    coefficient would certify a bound the comparison test already
    disproves.  Soundness is ``None`` when nothing is declared.
    """
    lam_hat = estimate_lambda_phi(p, phi, mesh)
    if declared is None:
        return lam_hat, lam_hat, None
    if lam_hat <= declared + 1e-12:
        return lam_hat, declared, True
    return lam_hat, lam_hat, False


# ---------------------------------------------------------------------------
# perturbation harness

class PerturbationSpec(_Frozen):
    """How to manufacture admissible perturbations.

    Every generated forcing stays within epsilon (plain) or epsilon times
    the comparison function (weighted) at all nodes.  ``random_bounded``
    draws nodewise uniform values and applies one smoothing pass; the
    seed, a non-negative integer, makes each trial reproducible.
    Immutable; equal when all four fields are.
    """

    __slots__ = _args = ("epsilon", "shape", "trials", "seed")

    def __init__(
        self,
        epsilon: float,
        shape: str = "random_bounded",
        trials: int = 20,
        seed: int = 0,
    ):
        self._set(epsilon=epsilon, shape=shape, trials=trials, seed=seed)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise DomainError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.shape not in PERTURBATION_SHAPES:
            raise DomainError(
                f"unknown shape {self.shape!r}; expected one of {PERTURBATION_SHAPES}"
            )
        if not _is_count(self.trials):
            raise DomainError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise DomainError(f"need at least one trial, got {self.trials!r}")
        if not _is_count(self.seed):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed!r}")

    def check_shape(self, phi: Expr | None) -> None:
        """Refuse a shape that the certificate's comparison function
        ``phi`` (``None`` for a plain certificate) cannot bound."""
        if phi is not None and self.shape == "constant":
            raise ContractError(
                "constant shape breaks the weighted envelope near t = a; "
                "use phi_scaled or random_bounded"
            )
        if phi is None and self.shape == "phi_scaled":
            raise ContractError("phi_scaled shape needs a comparison function")


class TrialResult(NamedTuple):
    trial: int
    seed: int
    shape: str
    epsilon: float
    deviation: float  # max nodewise |z - y|
    bound: float  # certified ceiling at the binding node
    ratio: float  # max nodewise deviation-to-ceiling ratio
    verdict: str  # "pass" | "fail" | "error"
    refined: bool = False  # re-run on the doubled mesh (an error row too)


class PerturbationReport(NamedTuple):
    kind: str
    epsilon: float
    c_f: float
    allowance: float
    mesh_n: int
    rows: tuple[TrialResult, ...]
    max_ratio: float
    max_deviation: float
    passed: bool


def _smooth_noise(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform nodewise draw in [-1, 1] with one averaging pass."""
    raw = rng.uniform(-1.0, 1.0, count)
    out = np.empty(count)
    out[1:-1] = (raw[:-2] + raw[1:-1] + raw[2:]) / 3.0
    out[0] = (raw[0] + raw[1]) / 2.0
    out[-1] = (raw[-2] + raw[-1]) / 2.0
    return out


def _draw_perturbation(
    spec: PerturbationSpec, seq: np.random.SeedSequence, envelope: np.ndarray
) -> np.ndarray:
    """Forcing values at the nodes, inside the admissible envelope."""
    if spec.shape == "zero":
        return np.zeros(envelope.size)
    if spec.shape == "constant":
        return np.full(envelope.size, spec.epsilon)
    if spec.shape == "phi_scaled":
        return envelope.copy()
    return envelope * _smooth_noise(np.random.default_rng(seq), envelope.size)


#: Relative slack over the certified ceiling that a trial's ratio may take.
_ALLOWANCE = 0.05
#: What makes a trial an error row instead of ending the run.
_TRIAL_ERRORS = (NonConvergenceError, EvaluationError, DomainError)


class _Level(NamedTuple):
    """One mesh of the harness and what every trial on it is measured against.

    ``envelope`` holds epsilon, or epsilon times the comparison function,
    at the nodes.  A level is built whole or not at all.
    """

    mesh: Mesh
    op: FracIntegralOperator
    base: Solution
    envelope: np.ndarray


def perturb_and_check(
    p: CauchyProblem,
    cert: StabilityCertificate,
    spec: PerturbationSpec,
    mesh: Mesh,
    *,
    operator: FracIntegralOperator | None = None,
) -> PerturbationReport:
    """Run seeded perturbation trials against the certified bound.

    Each trial solves the additively forced problem with the unperturbed
    initial datum and records the max nodewise ratio of |z - y| to the
    certified ceiling.  A trial passes when that ratio stays within
    ``1 + _ALLOWANCE``; a violating trial is re-run once at doubled
    resolution before being declared a failure, with the same forcing:
    deterministic shapes are drawn again there, and the random draw is
    interpolated in the transformed coordinate and clipped back into the
    envelope.  A trial whose solve breaks down on either mesh, or whose
    doubled level (tried once per call) cannot be built, is marked "error"
    and fails the report.  ``operator`` is as in ``picard_solve``; it serves
    the given mesh only, and the doubled level builds its own.
    """
    spec.check_shape(cert.phi)

    def build_level(on: Mesh, op: FracIntegralOperator | None = None) -> _Level:
        op = op if op is not None else FracIntegralOperator(on, p.order.alpha)
        base = picard_solve(p, on, operator=op)
        envelope = (
            spec.epsilon * _phi_values(cert.phi, on)
            if cert.phi is not None
            else np.full(on.n + 1, spec.epsilon)
        )
        return _Level(on, op, base, envelope)

    def measure(level: _Level, pert: np.ndarray) -> tuple[float, float, float]:
        """Max plain |z - y| past a, the ceiling and the ratio at the worst node."""
        z = picard_solve(p, level.mesh, operator=level.op, forcing=pert)
        dev = np.abs(z.y.values[1:] - level.base.y.values[1:]) * np.power(
            level.mesh.offsets[1:], -p.order.weight
        )
        ceiling = cert.c_f * level.envelope[1:]
        ratios = dev / ceiling
        at = int(np.argmax(ratios))
        return float(np.max(dev)), float(ceiling[at]), float(ratios[at])

    coarse = build_level(mesh, operator)
    fine: _Level | Exception | None = None  # the doubled level, or why it failed
    rows: list[TrialResult] = []
    for trial in range(spec.trials):
        seq = np.random.SeedSequence(spec.seed, spawn_key=(trial,))
        pert = _draw_perturbation(spec, seq, coarse.envelope)
        refined = False
        try:
            deviation, bound, ratio = measure(coarse, pert)
            if ratio > 1.0 + _ALLOWANCE:
                refined = True
                if fine is None:
                    try:
                        fine = build_level(build_mesh(p.psi, p.a, p.T, 2 * mesh.n, mesh.grading))
                    except _TRIAL_ERRORS as err:
                        fine = err
                if isinstance(fine, Exception):
                    raise fine
                if spec.shape == "random_bounded":
                    pert = np.clip(
                        np.interp(fine.mesh.offsets, mesh.offsets, pert),
                        -fine.envelope, fine.envelope,
                    )
                else:
                    pert = _draw_perturbation(spec, seq, fine.envelope)
                deviation, bound, ratio = measure(fine, pert)
            verdict = "pass" if ratio <= 1.0 + _ALLOWANCE else "fail"
        except _TRIAL_ERRORS:
            deviation = bound = ratio = math.nan
            verdict = "error"
        rows.append(
            TrialResult(
                trial, int(seq.generate_state(1)[0]), spec.shape, spec.epsilon,
                deviation, bound, ratio, verdict, refined,
            )
        )
    ok_rows = [r for r in rows if r.verdict != "error"]
    max_ratio = max((r.ratio for r in ok_rows), default=math.nan)
    max_dev = max((r.deviation for r in ok_rows), default=math.nan)
    passed = bool(rows) and all(r.verdict == "pass" for r in rows)
    return PerturbationReport(
        kind=cert.kind,
        epsilon=spec.epsilon,
        c_f=cert.c_f,
        allowance=_ALLOWANCE,
        mesh_n=mesh.n,
        rows=tuple(rows),
        max_ratio=max_ratio,
        max_deviation=max_dev,
        passed=passed,
    )


def report_to_csv(report: PerturbationReport) -> str:
    """Deterministic CSV: one row per trial, then a key-value summary."""
    num = "{:.15g}".format
    summary = {
        "kind": report.kind,
        "trials": len(report.rows),
        "epsilon": num(report.epsilon),
        "c_f": num(report.c_f),
        "allowance": num(report.allowance),
        "mesh_n": report.mesh_n,
        "max_ratio": num(report.max_ratio),
        "max_deviation": num(report.max_deviation),
        "verdict": "pass" if report.passed else "fail",
    }
    lines = ["trial,seed,shape,epsilon,deviation,bound,ratio,verdict"]
    lines += [
        f"{r.trial},{r.seed},{r.shape},{num(r.epsilon)},"
        f"{num(r.deviation)},{num(r.bound)},{num(r.ratio)},{r.verdict}"
        for r in report.rows
    ]
    lines += ["", "summary,value", *(f"{name},{value}" for name, value in summary.items())]
    return "\n".join(lines) + "\n"
