"""Reparametrised time axis, fractional orders, meshes, weighted grid data.

Everything downstream works in the transformed coordinate ``x = psi(t)``:
kernels become classical power kernels there, so a single quadrature engine
covers the identity, logarithm, and power reparametrisations.  Grid data may
carry a weight exponent ``w``, in which case the stored numbers are
``(psi(t) - psi(a))**w * u(t)``; that representation keeps data finite at
``t = a`` even when ``u`` itself blows up like ``(psi(t) - psi(a))**(g-1)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "PsiMap",
    "FracOrder",
    "Mesh",
    "GridFunction",
    "build_mesh",
    "default_grading",
    "PSI_KINDS",
]

PSI_KINDS = ("identity", "logarithm", "power")

#: Largest dense quadrature table a mesh may need, in bytes: n <= 11584.
_TABLE_BYTES_MAX = 1 << 30


class _Frozen:
    """Immutable record whose constructor checks its arguments.

    ``_args`` names the constructor's arguments in order; equality, hash
    and repr read those fields, and copies and pickles call the
    constructor with them, so its checks run again.  ``__init__`` sets
    the fields with ``_set``; nothing can assign or delete them after.
    """

    __slots__ = ()
    _args: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._args])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{type(self).__name__}({fields})"


def _is_count(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class PsiMap(_Frozen):
    """Increasing reparametrisation of the time axis.

    ``identity`` maps t -> t, ``logarithm`` maps t -> ln t (t > 0), and
    ``power`` maps t -> t**rho (t >= 0, rho > 0).  ``rho`` is ignored by
    the other two kinds.  Immutable; equal when kind and rho are.
    """

    __slots__ = _args = ("kind", "rho")

    def __init__(self, kind: str, rho: float = 1.0):
        self._set(kind=kind, rho=rho)
        if self.kind not in PSI_KINDS:
            raise DomainError(
                f"unknown psi kind {self.kind!r}; expected one of {PSI_KINDS}",
                key="psi.kind",
            )
        if self.kind == "power" and not (
            math.isfinite(self.rho) and self.rho > 0.0
        ):
            raise DomainError(
                f"power map requires rho > 0, got {self.rho!r}", key="psi.rho"
            )

    def value(self, t: float) -> float:
        """psi(t) at one point, such as an end of the interval; it must be finite."""
        t = float(t)
        if self.kind == "identity":
            x = t
        elif self.kind == "logarithm":
            if t <= 0.0:
                raise DomainError("logarithm map requires t > 0")
            x = float(np.log(t))
        else:
            if t < 0.0:
                raise DomainError("power map requires t >= 0")
            with np.errstate(over="ignore"):
                x = float(np.power(t, self.rho))
        if not math.isfinite(x):
            raise DomainError(f"psi({t!r}) overflows double precision")
        return x

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse map x -> t over an array, such as a mesh's interior nodes."""
        if self.kind == "identity":
            return x
        if self.kind == "logarithm":
            return np.exp(x)
        return np.power(x, 1.0 / self.rho)


class FracOrder(_Frozen):
    """Differentiation order ``alpha`` and interpolation type ``beta``.

    The induced exponent ``gamma = alpha + beta * (1 - alpha)`` governs the
    weight of the solution space; ``beta = 0`` and ``beta = 1`` recover the
    two classical one-parameter constructions.  Immutable; equal when alpha
    and beta are.
    """

    __slots__ = _args = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        self._set(alpha=alpha, beta=beta)
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(
                f"alpha must lie in (0, 1], got {self.alpha!r}", key="alpha"
            )
        if not (0.0 <= self.beta <= 1.0):
            raise DomainError(f"beta must lie in [0, 1], got {self.beta!r}", key="beta")

    @property
    def gamma(self) -> float:
        return self.alpha + self.beta * (1.0 - self.alpha)

    @property
    def weight(self) -> float:
        """Exponent ``1 - gamma`` of the weighted solution space."""
        return 1.0 - self.gamma


def default_grading(order: FracOrder) -> float:
    """Mesh grading matched to the kernel: more clustering for smaller alpha."""
    return max(1.0, 2.0 / order.alpha)


class Mesh(_Frozen):
    """Graded mesh on ``[a, T]``, built in the transformed coordinate.

    ``offsets[j] = (psi(T) - psi(a)) * (j/n)**grading`` is the distance
    ``psi(t_j) - psi(a)`` that every kernel, weight and norm reads; it is
    stored directly because subtracting ``psi(a)`` back out of
    ``psi_nodes[j] = psi(a) + offsets[j]`` cancels catastrophically next to
    ``a`` when ``psi(a)`` is large.  The physical nodes are the pullbacks.
    ``grading = 1`` is uniform in the transformed coordinate; larger
    gradings cluster nodes near ``a``.  Immutable, with read-only arrays;
    equal when psi, a, T, n and grading are.
    """

    _args = ("psi", "a", "T", "n", "grading")
    __slots__ = _args + ("nodes", "psi_nodes", "offsets")

    def __init__(self, psi: PsiMap, a: float, T: float, n: int, grading: float = 1.0):
        a = float(a)
        T = float(T)
        if not T > a:
            raise DomainError(f"build_mesh needs T > a, got a={a!r}, T={T!r}")
        if not _is_count(n):
            raise DomainError(f"build_mesh needs an integer n, got {n!r}")
        n = int(n)
        if n < 1:
            raise DomainError(f"build_mesh needs n >= 1, got {n!r}")
        if not (math.isfinite(grading) and grading >= 1.0):
            raise DomainError(f"grading must be a finite number >= 1, got {grading!r}")
        nbytes = (n + 1) ** 2 * 8
        if nbytes > _TABLE_BYTES_MAX:
            raise DomainError(
                f"n = {n} needs {nbytes} bytes per quadrature table, "
                f"over the {_TABLE_BYTES_MAX} byte ceiling"
            )
        xa = psi.value(a)
        xT = psi.value(T)
        span = xT - xa
        if not math.isfinite(span):
            raise DomainError(f"psi(T) - psi(a) overflows double precision for a={a!r}, T={T!r}")
        offsets = span * np.power(np.arange(n + 1, dtype=float) / n, grading)
        offsets[-1] = span
        if not np.all(np.diff(offsets) > 0.0):
            raise DomainError(
                f"grading {grading:g} is too steep for n = {n}: "
                "the first cells have zero width"
            )
        psi_nodes = xa + offsets
        nodes = np.empty(n + 1, dtype=float)
        nodes[0] = a
        nodes[-1] = T
        if n > 1:
            nodes[1:-1] = psi.inverse(psi_nodes[1:-1])
        psi_nodes[0] = xa
        psi_nodes[-1] = xT
        for arr in (nodes, psi_nodes, offsets):
            arr.setflags(write=False)
        self._set(psi=psi, a=a, T=T, n=n, grading=float(grading),
                  nodes=nodes, psi_nodes=psi_nodes, offsets=offsets)


def build_mesh(psi: PsiMap, a: float, T: float, n: int, grading: float = 1.0) -> Mesh:
    """Construct a graded mesh of ``n`` intervals on ``[a, T]``.

    Endpoints are pinned exactly; interior nodes come from inverting the
    transformed-coordinate grading formula.  A weighted quadrature table
    is summed in a dense ``(n+1)**2`` square before it is packed, so ``n``
    whose square would exceed 1 GiB (n > 11584) is refused before anything
    is allocated.  A grading so steep that the first offsets underflow to
    zero-width cells is refused too.
    """
    return Mesh(psi, a, T, n, grading)


class GridFunction(_Frozen):
    """Nodal values on a mesh, possibly stored in weighted form.

    ``weight_exp = 0`` means plain samples ``u(t_j)``.  A positive weight
    ``w`` means the stored numbers are ``(psi(t_j) - psi(a))**w * u(t_j)``,
    with the value at ``t = a`` interpreted as the one-sided limit.
    Immutable: ``values`` is a read-only copy of the given values.  Equal
    only to itself, since it holds an array.
    """

    __slots__ = _args = ("mesh", "values", "weight_exp")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, mesh: Mesh, values: np.ndarray, weight_exp: float = 0.0):
        self._set(mesh=mesh, weight_exp=weight_exp)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.mesh.n + 1,):
            raise ContractError(
                f"values shape {vals.shape} does not match mesh with "
                f"{self.mesh.n + 1} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ContractError("grid function values must all be finite")
        if not (0.0 <= self.weight_exp < 1.0):
            raise ContractError(
                f"weight_exp must lie in [0, 1), got {self.weight_exp!r}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        self._set(values=vals)

    def __repr__(self):
        return f"GridFunction(mesh={self.mesh!r}, weight_exp={self.weight_exp!r})"
