"""Special-function unit tests against frozen reference values.

References were computed once with mpmath at 50 digits and pasted in;
the library itself never touches mpmath.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.errors import ConvergenceError, DomainError, RangeError
from fracstab.specfun import (
    erf_fn,
    gamma_fn,
    log_gamma,
    mittag_leffler,
    mittag_leffler_many,
)
from fracstab.rhs_expr import evaluate, parse_expression

# mpmath 50-digit references (mp.dps = 60; E_{1/2}(z) = exp(z**2) * erfc(-z))
GAMMA_REFS = {
    0.1: 9.5135076986687318362924871772654021925505786260884,
    0.5: 1.7724538509055160272981674833411451827975494561224,
    1.5: 0.88622692545275801364908374167057259139877472806119,
    4.1: 6.8126228630166788679690500676397545100854693541419,
    170.0: 4.2690680090047052749392518888995665380688186360567e304,
}
ERF_REFS = {
    0.5: 0.52049987781304653768274665389196452873645157575796,
    1.0: 0.84270079294971486934122063508260925929606699796630,
    2.0: 0.99532226501895273416206925636725292861089179704006,
    3.0: 0.99997790950300141455862722387041767962015229291260,
}
ML_HALF_REFS = {
    1.0: 5.0089800807622834663098245982148098146943346842357,
    2.0: 108.94090438997797241235543382481321404227887477197,
    -1.0: 0.42758357615580700441075034449051518082015950316425,
    -3.0: 0.17900115118138995041929481531362098722798536410685,
}


def test_gamma_frozen_values():
    for x, ref in GAMMA_REFS.items():
        assert gamma_fn(x) == pytest.approx(ref, rel=1e-12)


def test_gamma_integers_exact():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_fn(10.0) == pytest.approx(362880.0, rel=1e-13)


def test_gamma_domain():
    for bad in (0.0, -1.0, math.nan, math.inf, 172.0):
        with pytest.raises(DomainError):
            gamma_fn(bad)


@given(st.floats(min_value=0.05, max_value=80.0))
@settings(max_examples=200, deadline=None)
def test_gamma_recurrence(x):
    # gamma(x + 1) = x * gamma(x)
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=5e-13)


def test_log_gamma_matches_gamma():
    for x in (0.1, 0.5, 1.0, 7.3, 150.0):
        assert log_gamma(x) == pytest.approx(math.log(gamma_fn(x)), abs=1e-11)
    # past the overflow abscissa only the log form survives
    assert log_gamma(500.0) == pytest.approx(2605.1158503617335, rel=1e-12)


def test_gamma_many_matches_scalar():
    # array evaluation maps the scalar Lanczos code, bit for bit
    xs = np.array([0.1, 0.3, 0.5, 1.0, 2.5, 3.0, 150.0, 168.0])
    out = evaluate(parse_expression("gamma(t)"), xs)
    for x, v in zip(xs, out):
        assert v == gamma_fn(float(x))


def test_erf_frozen_values():
    for z, ref in ERF_REFS.items():
        assert erf_fn(z) == pytest.approx(ref, abs=1e-12)
    assert erf_fn(0.0) == 0.0


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=200, deadline=None)
def test_erf_odd_and_bounded(z):
    # |erf| reaches 1.0 in double precision around |z| = 6
    v = erf_fn(z)
    assert -1.0 <= v <= 1.0
    assert erf_fn(-z) == pytest.approx(-v, abs=1e-15)


def test_erf_is_one_far_out():
    # erfc(6) = 2.2e-17 is below half an ulp of 1; the continued fraction
    # is never asked to round its step to exactly 1 out there
    for z in np.geomspace(6.0, 1.79e308, 2000):
        assert erf_fn(z) == 1.0 and erf_fn(-z) == -1.0
    assert erf_fn(377907250.05459607) == 1.0
    t = np.linspace(0.0, 1.0, 5)
    assert evaluate(parse_expression("erf(1e300*t)"), t).tolist() == [0, 1, 1, 1, 1]


def test_erf_domain():
    with pytest.raises(DomainError):
        erf_fn(math.inf)


def test_ml_index_half_frozen():
    for z, ref in ML_HALF_REFS.items():
        # alternating sums cancel; compensation holds the loss near 1e-11
        tol = 1e-12 if z > 0 else 5e-11
        assert mittag_leffler(0.5, z) == pytest.approx(ref, rel=tol)


def test_ml_index_one_is_exp():
    for z in np.arange(0.0, 3.01, 0.25):
        assert mittag_leffler(1.0, float(z)) == pytest.approx(
            math.exp(z), rel=1e-12
        )


@given(st.floats(min_value=-2.0, max_value=2.5))
@settings(max_examples=150, deadline=None)
def test_ml_half_closed_form(z):
    # E(z) at index 1/2 equals exp(z^2) * (1 + erf(z)); two independent routes
    lhs = mittag_leffler(0.5, z)
    rhs = math.exp(z * z) * (1.0 + erf_fn(z))
    assert lhs == pytest.approx(rhs, rel=5e-11, abs=1e-13)


def test_ml_at_zero_and_small_order():
    assert mittag_leffler(0.5, 0.0) == 1.0
    # small index still sums cleanly inside the argument bound
    assert mittag_leffler(0.25, 0.5) > 1.0


def test_ml_errors():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(0.5, math.nan)
    with pytest.raises(RangeError):
        mittag_leffler(0.5, 51.0)
    with pytest.raises(ConvergenceError):
        # a small index inside the argument bound overflows the partial sums
        mittag_leffler(0.1, 40.0)


def test_ml_many_matches_scalar():
    zs = np.array([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    out = mittag_leffler_many(0.5, zs)
    for z, v in zip(zs, out):
        assert v == pytest.approx(mittag_leffler(0.5, float(z)), rel=1e-12)


def test_ml_refuses_cancelled_alternating_sums():
    # E_{1/2}(-6) = exp(36) * erfc(6) = 0.0928, but the terms reach 1e14
    # and cancel every digit; the series must raise, not return a number
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.5, -6.0)
    with pytest.raises(ConvergenceError):
        mittag_leffler_many(0.5, np.array([0.5, -8.0]))
    # at -3.8 more than eight digits survive the cancellation
    ref = math.exp(3.8**2) * math.erfc(3.8)
    assert mittag_leffler(0.5, -3.8) == pytest.approx(ref, rel=1e-8)


def test_ml_many_range_check():
    with pytest.raises(RangeError):
        mittag_leffler_many(0.5, np.array([0.0, 60.0]))
