"""Fixed-point solution and uniqueness certification of the Cauchy problem.

The implicit problem "weighted derivative of y equals f(t, y, that same
derivative), with the complementary integral of y prescribed at t = a" is
equivalent to the integral form

    y(t) = y_a * (psi(t) - psi(a))**(gamma - 1) / Gamma(gamma) + I^alpha g(t)

where g is a fixed point of g = f(t, y, g).  The iteration unknown is g,
not y: the singular prefactor is handled analytically, so the blow-up of y
at t = a never enters any difference quotient.  When gamma < 1 both g and
y are carried in weighted form (stored value = (psi(t)-psi(a))**(1-gamma)
times the function), which is also the norm the contraction argument and
the stopping test live in.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    DomainError,
    EstimationError,
    EvaluationError,
    NonConvergenceError,
)
from .fraccalc import FracIntegralOperator
from .psi_space import FracOrder, GridFunction, Mesh, PsiMap, _Frozen, build_mesh, default_grading
from .rhs_expr import Expr, evaluate, free_variables
from .specfun import gamma_fn

__all__ = [
    "CauchyProblem",
    "Solution",
    "UniquenessCertificate",
    "certify_unique",
    "picard_solve",
    "estimate_lipschitz",
]


class CauchyProblem(_Frozen):
    """One scalar Cauchy problem on [a, T].

    ``y_a`` is the prescribed value of the complementary integral of y at
    ``t = a`` (not y(a) itself, which may be infinite).  ``lipschitz`` is
    the optional pair (k, l): k bounds the sensitivity of the right-hand
    side in the y slot, l in the derivative slot; l < 1 because the
    implicit dependence is resolved through the same fixed point.  It is
    the only source of constants for the contraction verdict and the
    stability constants; try other constants on the copy that
    :meth:`with_lipschitz` makes.  Immutable; two problems are equal when
    their fields are.  ``span`` is psi(T) - psi(a), derived.
    """

    _args = ("psi", "order", "a", "T", "y_a", "rhs", "lipschitz")
    __slots__ = (*_args, "span")

    def __init__(
        self,
        psi: PsiMap,
        order: FracOrder,
        a: float,
        T: float,
        y_a: float,
        rhs: Expr,
        lipschitz: tuple[float, float] | None = None,
    ):
        self._set(psi=psi, order=order, a=a, T=T, y_a=y_a, rhs=rhs, lipschitz=lipschitz)
        if not (math.isfinite(self.a) and math.isfinite(self.T) and self.T > self.a):
            raise DomainError(
                f"need finite T > a, got a={self.a!r}, T={self.T!r}", key="T"
            )
        if self.psi.kind == "logarithm" and self.a < 1.0:
            # by convention the log reparametrisation starts no earlier than 1
            raise DomainError("logarithm reparametrisation requires a >= 1", key="a")
        if self.psi.kind == "power" and self.a < 0.0:
            raise DomainError("power reparametrisation requires a >= 0", key="a")
        try:
            span = self.psi.value(self.T) - self.psi.value(self.a)
        except DomainError as err:  # psi(T) itself overflows
            raise DomainError(str(err), key="T") from err
        if not math.isfinite(span):
            raise DomainError(
                f"psi(T) - psi(a) overflows double precision for a={self.a!r}, "
                f"T={self.T!r}", key="T"
            )
        self._set(span=span)
        if not math.isfinite(self.y_a):
            raise DomainError(
                f"initial datum must be finite, got {self.y_a!r}", key="y_a"
            )
        extra = free_variables(self.rhs) - {"t", "y", "d"}
        if extra:
            raise ContractError(
                f"right-hand side uses unknown variables {sorted(extra)}"
            )
        if self.lipschitz is not None:
            k, l = self.lipschitz
            if not (math.isfinite(k) and k >= 0.0):
                raise DomainError(
                    f"Lipschitz constant k must be >= 0, got {k!r}",
                    key="lipschitz.k",
                )
            if not (math.isfinite(l) and 0.0 <= l < 1.0):
                raise DomainError(
                    f"Lipschitz constant l must lie in [0, 1), got {l!r}",
                    key="lipschitz.l",
                )
            self._set(lipschitz=(float(k), float(l)))

    def with_lipschitz(self, lipschitz: tuple[float, float] | None) -> "CauchyProblem":
        """This problem with the constants ``lipschitz`` (or none), checked again."""
        return CauchyProblem(
            self.psi, self.order, self.a, self.T, self.y_a, self.rhs, lipschitz
        )


class Solution(NamedTuple):
    """Converged Picard iterate and the norms of its corrections.

    ``g`` is the auxiliary fixed-point function and ``y`` the reconstructed
    solution; both are stored weighted (exponent 1 - gamma) when gamma < 1,
    so the value of ``y`` at ``t = a`` reads ``y_a / Gamma(gamma)``.
    ``update_norms`` records the weighted norm of each of the
    ``iterations`` Picard corrections.  The contraction factor q belongs to
    the problem's constants (``certify_unique(p).factor``); with the last
    norm u, ``u * q / (1 - q)`` bounds the distance to the fixed point.
    """

    g: GridFunction
    y: GridFunction
    iterations: int
    update_norms: tuple[float, ...]


class UniquenessCertificate(NamedTuple):
    certified: bool
    ratio: float  # k * X**alpha / (Gamma(alpha + 1) * (1 - l))
    factor: float  # k * X**alpha / Gamma(alpha + 1) + l
    base: float  # k * X**alpha / Gamma(alpha + 1)


def certify_unique(p: CauchyProblem) -> UniquenessCertificate:
    """Contraction quantities of the fixed-point map at t = T, and the verdict.

    ``factor`` is the plain Lipschitz bound of one Picard step; ``ratio``
    folds the derivative-slot constant into the denominator and is the
    quantity the verdict tests: certified iff ``ratio < 1``.  ``base`` is
    the kernel term both are formed from.  Both are increasing in t, so
    the supremum over [a, T] is attained at T.  ``not certified`` never
    asserts nonexistence; it only means this bound does not close.
    """
    if p.lipschitz is None:
        raise ContractError("no Lipschitz constants: declare them on the problem")
    k, l = p.lipschitz
    base = k * p.span ** p.order.alpha / gamma_fn(p.order.alpha + 1.0)
    ratio = base / (1.0 - l)
    return UniquenessCertificate(
        certified=bool(ratio < 1.0), ratio=ratio, factor=base + l, base=base
    )


def _check_mesh(p: CauchyProblem, mesh: Mesh) -> None:
    if mesh.psi != p.psi or mesh.a != p.a or mesh.T != p.T:
        raise ContractError("mesh does not cover this problem's interval")


def _lift_weighted(
    plain_tail: np.ndarray, dxw: np.ndarray, mesh: Mesh
) -> np.ndarray:
    """Weight plain values at nodes 1..n and extrapolate the stored limit at a."""
    out = np.empty(mesh.n + 1)
    out[1:] = dxw[1:] * plain_tail
    if mesh.n >= 2:
        x = mesh.offsets
        slope = (out[2] - out[1]) / (x[2] - x[1])
        out[0] = out[1] + slope * (x[0] - x[1])
    else:
        out[0] = out[1]
    return out


def picard_solve(
    p: CauchyProblem,
    mesh: Mesh,
    tol: float = 1e-10,
    max_iter: int = 200,
    *,
    forcing: np.ndarray | None = None,
    operator: FracIntegralOperator | None = None,
) -> Solution:
    """Iterate g -> f(t, y[g], g) to a fixed point on the given mesh.

    ``forcing`` adds plain nodal values to the right-hand side (the
    stability harness perturbs problems this way).  ``operator`` lets the
    caller reuse a prebuilt quadrature table for the mesh.  The seed is one
    right-hand-side step from the prefactor-only y and g = 0.  Stops when
    the weighted norm of the correction drops to ``tol``; raises after
    ``max_iter`` sweeps, carrying the last norm.  The solve reads no
    Lipschitz constants: the same problem with or without them gives the
    same iterates.
    """
    _check_mesh(p, mesh)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter!r}")
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (mesh.n + 1,):
            raise ContractError(
                f"forcing shape {forcing.shape} does not match the mesh"
            )
        if not np.all(np.isfinite(forcing)):
            raise ContractError("forcing values must all be finite")
    op = operator if operator is not None else FracIntegralOperator(mesh, p.order.alpha)
    if op.mesh is not mesh and not op.mesh.same_as(mesh):
        raise ContractError("operator was built for a different mesh")
    if abs(op.alpha - p.order.alpha) > 1e-14:
        raise ContractError("operator order does not match the problem")

    gamma = p.order.gamma
    w = p.order.weight
    t = mesh.nodes
    dxw = np.power(mesh.offsets, w)  # 0**0 == 1 covers the gamma == 1 case
    dxg = np.power(mesh.offsets[1:], gamma - 1.0) if w > 0.0 else None
    pref = p.y_a / gamma_fn(gamma)

    def rhs_step(y_hat: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
        """g -> f(t, y, g) plus the forcing, in the stored weighting."""
        if w == 0.0:
            vals = evaluate(p.rhs, t, y_hat, g_hat)
            if forcing is not None:
                vals = vals + forcing
            return vals
        vals = evaluate(p.rhs, t[1:], y_hat[1:] * dxg, g_hat[1:] * dxg)
        if forcing is not None:
            vals = vals + forcing[1:]
        return _lift_weighted(vals, dxw, mesh)

    # evaluate reports what overflows in the rhs; a step or an integral that
    # overflows elsewhere ends the iteration
    with np.errstate(over="ignore", invalid="ignore"):
        g_hat = rhs_step(np.full(mesh.n + 1, pref), np.zeros(mesh.n + 1))
        if not np.all(np.isfinite(g_hat)):
            raise NonConvergenceError(0, math.inf)
        norms: list[float] = []
        for iteration in range(1, max_iter + 1):
            g_next = rhs_step(_reconstruct_y(op, mesh, g_hat, w, pref, iteration), g_hat)
            if not np.all(np.isfinite(g_next)):
                raise NonConvergenceError(iteration, math.inf)
            update = float(np.max(np.abs(g_next - g_hat)))
            norms.append(update)
            g_hat = g_next
            if update <= tol:
                y_hat = _reconstruct_y(op, mesh, g_hat, w, pref, iteration)
                return Solution(
                    g=GridFunction(mesh, g_hat, w),
                    y=GridFunction(mesh, y_hat, w),
                    iterations=iteration,
                    update_norms=tuple(norms),
                )
    raise NonConvergenceError(max_iter, norms[-1])


def _reconstruct_y(
    op: FracIntegralOperator,
    mesh: Mesh,
    g_hat: np.ndarray,
    w: float,
    pref: float,
    iteration: int,
) -> np.ndarray:
    """Stored values of y = prefactor + I^alpha g, in the problem's weighting.

    The integral of weighted g comes back plain, or weighted with a deeper
    exponent when alpha + gamma < 1; scaling by dx**(w - its exponent)
    brings it to weight w.  The stored value at t = a is the prefactor
    limit y_a / Gamma(gamma).  An integral or a y beyond double precision
    ends Picard sweep ``iteration`` without convergence.
    """
    try:
        integral = op.apply(GridFunction(mesh, g_hat, w))
    except ContractError:  # the only one here: apply refuses a non-finite integral
        raise NonConvergenceError(iteration, math.inf) from None
    out = pref + np.power(mesh.offsets, w - integral.weight_exp) * integral.values
    out[0] = pref
    if not np.all(np.isfinite(out)):
        raise NonConvergenceError(iteration, math.inf)
    return out


# estimate_lipschitz: grid points per axis, and the trial solve's mesh size
_LIPSCHITZ_SAMPLES = 9
_LIPSCHITZ_TRIAL_N = 64


def estimate_lipschitz(p: CauchyProblem) -> tuple[float, float]:
    """Sampled bounds (k, l) on the right-hand side's slopes in the y and d slots.

    Central differences over a deterministic (t, y, d) grid; the box for
    (y, d) is the padded range of a coarse trial solve.  These are
    estimates over the sampled box, not proofs: certification prefers
    declared constants and treats these as advisory.
    """
    samples = _LIPSCHITZ_SAMPLES
    (y_lo, y_hi), (d_lo, d_hi) = _default_box(p)
    mesh = build_mesh(p.psi, p.a, p.T, samples, default_grading(p.order))
    t_axis = mesh.nodes[1:] if p.order.weight > 0.0 else mesh.nodes
    # 9 or 10 nodes give 9 distinct indices
    t_axis = t_axis[np.linspace(0, t_axis.size - 1, samples).round().astype(int)]
    y_axis = np.linspace(y_lo, y_hi, samples)
    d_axis = np.linspace(d_lo, d_hi, samples)
    tg, yg, dg = (arr.ravel() for arr in np.meshgrid(t_axis, y_axis, d_axis))
    dy = 1e-6 * np.maximum(1.0, np.abs(yg))
    dd = 1e-6 * np.maximum(1.0, np.abs(dg))
    try:
        k_hat = np.max(
            np.abs(evaluate(p.rhs, tg, yg + dy, dg) - evaluate(p.rhs, tg, yg - dy, dg))
            / (2.0 * dy)
        )
        l_hat = np.max(
            np.abs(evaluate(p.rhs, tg, yg, dg + dd) - evaluate(p.rhs, tg, yg, dg - dd))
            / (2.0 * dd)
        )
    except (DomainError, EvaluationError, ValueError) as err:
        raise EstimationError(
            f"right-hand side not evaluable over the sampling box: {err}"
        ) from err
    return float(k_hat), float(l_hat)


def _default_box(p: CauchyProblem) -> tuple[tuple[float, float], tuple[float, float]]:
    """Padded (y, d) ranges of a coarse trial solve; falls back to the seed."""
    mesh = build_mesh(p.psi, p.a, p.T, _LIPSCHITZ_TRIAL_N, default_grading(p.order))
    try:
        sol = picard_solve(p, mesh, tol=1e-8, max_iter=80)
        y_vals, g_vals = _plain_tail(sol.y), _plain_tail(sol.g)
    except (NonConvergenceError, DomainError, EvaluationError):
        gamma = p.order.gamma
        with np.errstate(over="ignore"):
            y_vals = p.y_a / gamma_fn(gamma) * np.power(mesh.offsets[1:], gamma - 1.0)
        if not np.all(np.isfinite(y_vals)):
            raise EstimationError("the initial layer overflows double precision")
        g_vals = np.zeros_like(y_vals)
    return _pad_range(y_vals), _pad_range(g_vals)


def _plain_tail(u: GridFunction) -> np.ndarray:
    """Plain values at the nodes past t = a, whatever the stored form."""
    if u.weight_exp == 0.0:
        return u.values[1:]
    return u.values[1:] * np.power(u.mesh.offsets[1:], -u.weight_exp)


def _pad_range(vals: np.ndarray) -> tuple[float, float]:
    lo, hi = float(np.min(vals)), float(np.max(vals))
    pad = 1.0 + 0.5 * (hi - lo)
    return lo - pad, hi + pad
