"""Special functions: gamma, error function, one-parameter Mittag-Leffler.

* ``gamma_fn`` and ``log_gamma`` are ``math.gamma`` and ``math.lgamma``
  behind a check for a finite ``x > 0``; where the result overflows double
  precision they raise ``DomainError``.
* ``erf_fn`` is the C library's ``erf`` (``math.erf``) behind a finiteness
  check.
* ``mittag_leffler_many`` sums the defining power series over a whole array
  at once, with compensated (Kahan) accumulation and a
  two-consecutive-term truncation rule (relative tolerance 1e-14, at most
  1000 terms, ``|z| <= 50``).
  It refuses alternating sums that cancel below eight correct digits.
  ``mittag_leffler`` is the same series at a single argument.

``gamma_fn`` and ``erf_fn`` are scalar; expression evaluation maps them over
arrays entry by entry, so every caller gets the same ``math``-module bits.

A closed form worth knowing for testing: for index one half,
``E(z) = exp(z**2) * (1 + erf(z))``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError

__all__ = [
    "gamma_fn",
    "log_gamma",
    "erf_fn",
    "mittag_leffler",
    "mittag_leffler_many",
]


def _on_positive_axis(fn, name: str, x: float) -> float:
    """``fn(x)`` for finite ``x > 0``; ``DomainError`` otherwise or on overflow."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} requires a finite x > 0, got {x!r}")
    try:
        return fn(x)
    except OverflowError:
        raise DomainError(f"{name}({x!r}) overflows double precision") from None


def gamma_fn(x: float) -> float:
    """Gamma function on the positive real axis: ``math.gamma`` behind checks.

    Raises
    ------
    DomainError
        If ``x`` is not a finite number above 0, or ``gamma(x)`` overflows
        double precision (``x`` above 171.62 or below about 5.6e-309).
    """
    return _on_positive_axis(math.gamma, "gamma_fn", x)


def log_gamma(x: float) -> float:
    """Natural log of gamma for finite x > 0, far beyond gamma's overflow."""
    return _on_positive_axis(math.lgamma, "log_gamma", x)


def erf_fn(z: float) -> float:
    """Error function of a finite argument: ``math.erf``, but ``+0.0`` at ``-0.0``."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"erf_fn requires a finite argument, got {z!r}")
    return math.erf(z) + 0.0  # + 0.0 turns -0.0 into +0.0


# Mittag-Leffler series: relative truncation tolerance, term budget, and
# the largest admissible ``|z|``.
_ML_REL_TOL = 1e-14
_ML_MAX_TERMS = 1000
_ML_ARG_BOUND = 50.0

# The series switches from ``z**k / gamma(arg)`` to the overflow-safe
# ``exp(k * log|z| - log_gamma(arg))`` once ``max|z|**k`` reaches the guard
# or the gamma argument passes the threshold, whichever comes first.
_DIRECT_GAMMA_ARG = 170.0
_POWER_GUARD = 1e290

# Rounding leaves an error of about ``2**-52 * sum |term|`` in the sum; an
# alternating series (negative ``z``) whose error exceeds this fraction of
# the result has fewer than eight digits left and is refused.
_CANCELLATION_LIMIT = 1e-8


# overflow, log(0) and inf - inf are caught by the explicit finiteness checks
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def mittag_leffler_many(mu: float, z: np.ndarray) -> np.ndarray:
    """One-parameter Mittag-Leffler ``sum_k z**k / gamma(mu*k + 1)``, elementwise.

    Terms are accumulated with Kahan compensation.  Truncation happens at
    the first k where, at k and at k - 1 alike, every element's term
    magnitude is below 1e-14 times its partial sum before that term.

    Raises
    ------
    RangeError
        If some ``|z|`` exceeds 50.
    ConvergenceError
        If 1000 terms do not reach the truncation rule, the
        partial sums leave double range, or cancellation between the terms
        of an alternating sum leaves fewer than eight correct digits.
    """
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise DomainError(f"mittag_leffler requires mu > 0, got {mu!r}")
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("mittag_leffler requires finite arguments")
    z_max = float(np.max(np.abs(z))) if z.size else 0.0
    if z_max > _ML_ARG_BOUND:
        raise RangeError(
            f"max |z| = {z_max!r} exceeds the evaluation bound {_ML_ARG_BOUND!r}"
        )

    total = np.ones_like(z)  # k = 0 term
    comp = np.zeros_like(z)
    mass = np.ones_like(z)  # sum of |term|
    zpow = np.ones_like(z)
    power_bound = 1.0  # max|z| ** k
    log_az = None
    small = False  # every term was small at the last k
    for k in range(1, _ML_MAX_TERMS + 1):
        arg = mu * k + 1.0
        power_bound *= z_max
        if log_az is None and (power_bound >= _POWER_GUARD or arg > _DIRECT_GAMMA_ARG):
            log_az = np.log(np.abs(z))
        if log_az is None:
            zpow = zpow * z
            term = zpow * (1.0 / gamma_fn(arg))
        else:
            term = np.exp(k * log_az - log_gamma(arg))
            if k % 2 == 1:
                term = np.where(z < 0.0, -term, term)
        if not np.all(np.isfinite(term)):
            raise ConvergenceError(
                f"mittag_leffler overflowed double precision (max |z| = {z_max!r})"
            )
        size = np.abs(term)
        mass += size
        was_small, small = small, bool(np.all(size <= _ML_REL_TOL * np.abs(total)))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if small and was_small:
            if not np.all(np.isfinite(total)):
                raise ConvergenceError(
                    f"mittag_leffler overflowed double precision (max |z| = {z_max!r})"
                )
            if np.any(2.0**-52 * mass > _CANCELLATION_LIMIT * np.abs(total)):
                raise ConvergenceError(
                    f"mittag_leffler lost its digits to cancellation "
                    f"(mu = {mu!r}, max |z| = {z_max!r})"
                )
            return total
    raise ConvergenceError(
        f"mittag_leffler did not converge in {_ML_MAX_TERMS} terms "
        f"(max |z| = {z_max!r})"
    )


def mittag_leffler(mu: float, z: float) -> float:
    """:func:`mittag_leffler_many` at one argument ``z``."""
    return float(mittag_leffler_many(mu, np.asarray(float(z))))
