"""Special functions: gamma, error function, one-parameter Mittag-Leffler.

All three are evaluated from scratch in double precision:

* ``gamma_fn`` uses a 9-term Lanczos approximation valid on the positive
  axis, accurate to better than 1e-12 relative over ``(0, 170]``.
* ``erf_fn`` switches between the Maclaurin series (small arguments) and a
  Lentz-evaluated continued fraction for the complementary function; from
  ``|z| = 6`` on it is ``±1`` exactly.
* ``mittag_leffler_many`` sums the defining power series over a whole array
  at once, with compensated (Kahan) accumulation and a
  two-consecutive-term truncation rule (relative tolerance 1e-14, at most
  1000 terms, ``|z| <= 50``).
  It refuses alternating sums that cancel below eight correct digits.
  ``mittag_leffler`` is the same series at a single argument.

``gamma_fn`` and ``erf_fn`` are scalar; expression evaluation maps them over
arrays entry by entry, so every caller gets the same ``math``-library bits.

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

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)

# Lanczos coefficients, g = 7, nine terms.  Shifted form: the series is
# evaluated at x - 1, which keeps the whole positive axis pole-free.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Gamma overflows double precision just above this abscissa.
_GAMMA_OVERFLOW = 171.624

# Beyond this x, t**(x - 0.5) can overflow even though gamma(x) itself is
# representable; switch to the fused exp form there.
_GAMMA_DIRECT_LIMIT = 140.0


def _lanczos_sum(x):
    """Rational part of the Lanczos formula at x."""
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[k] / (x - 1.0 + k)
    return acc


def gamma_fn(x: float) -> float:
    """Gamma function on the positive real axis.

    Parameters
    ----------
    x : float
        Argument, must satisfy ``x > 0``.

    Returns
    -------
    float
        ``gamma(x)``, relative error below 1e-12 for ``x <= 170``.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_fn requires a finite x > 0, got {x!r}")
    if x > _GAMMA_OVERFLOW:
        raise DomainError(f"gamma_fn({x!r}) overflows double precision")
    if x < 0.5:
        # the rational part degrades next to the pole; recurse off it
        return gamma_fn(x + 1.0) / x
    t = x + _LANCZOS_G - 0.5
    a = _lanczos_sum(x)
    if x <= _GAMMA_DIRECT_LIMIT:
        return _SQRT_TWO_PI * math.pow(t, x - 0.5) * math.exp(-t) * a
    return _SQRT_TWO_PI * a * math.exp((x - 0.5) * math.log(t) - t)


def log_gamma(x: float) -> float:
    """Natural log of gamma for x > 0, usable far beyond the overflow point."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires a finite x > 0, got {x!r}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    t = x + _LANCZOS_G - 0.5
    return (
        math.log(_SQRT_TWO_PI)
        + (x - 0.5) * math.log(t)
        - t
        + math.log(_lanczos_sum(x))
    )


def _erf_series(z: float) -> float:
    # Maclaurin series; alternating, mild cancellation for |z| <= 2.
    zz = z * z
    total = 0.0
    comp = 0.0
    power = 1.0  # z^{2k} / k!
    k = 0
    while k < 200:
        term = power * z / (2 * k + 1)
        if k % 2 == 1:
            term = -term
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-17 * abs(total) and k > 2:
            break
        k += 1
        power *= zz / k
    return 2.0 / _SQRT_PI * total


def _erfc_cf(z: float) -> float:
    # Continued fraction for erfc, z > 0, via modified Lentz.
    #   erfc(z) = exp(-z^2)/sqrt(pi) * 1/(z + (1/2)/(z + 1/(z + (3/2)/(...))))
    tiny = 1e-300
    f = z if z != 0.0 else tiny
    c = f
    d = 0.0
    for n in range(1, 300):
        a = 0.5 * n
        d = z + a * d
        if d == 0.0:
            d = tiny
        c = z + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(-z * z) / (_SQRT_PI * f)
    raise ConvergenceError(f"erfc continued fraction stalled at z = {z!r}")


def erf_fn(z: float) -> float:
    """Error function, absolute error below 1e-12 on the whole real line."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"erf_fn requires a finite argument, got {z!r}")
    if z == 0.0:
        return 0.0
    az = abs(z)
    if az >= 6.0:  # erfc(6) = 2.2e-17 is below half an ulp of 1
        return math.copysign(1.0, z)
    if az <= 2.0:
        val = _erf_series(az)
    else:
        val = 1.0 - _erfc_cf(az)
    return val if z > 0.0 else -val


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


# overflow and log(0) are caught by the explicit finiteness checks
@np.errstate(over="ignore", divide="ignore")
def mittag_leffler_many(mu: float, z: np.ndarray) -> np.ndarray:
    """One-parameter Mittag-Leffler ``sum_k z**k / gamma(mu*k + 1)``, elementwise.

    Terms are accumulated with Kahan compensation.  Truncation happens once
    every element's next-term magnitude has stayed below 1e-14 times its
    running partial sum for two consecutive terms.

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
    streak = np.zeros(z.shape, dtype=int)
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
        streak = np.where(size <= _ML_REL_TOL * np.abs(total), streak + 1, 0)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.all(streak >= 2):
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
