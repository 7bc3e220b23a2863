"""Quadrature tables, composition residuals, and the integral-inequality bound.

The incomplete-beta cross-check runs against scipy, which the library
itself never imports.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from fracstab import fraccalc
from fracstab.errors import ContractError, ConvergenceError, DomainError
from fracstab.fraccalc import (
    DESIGN_ORDERS,
    KERNEL_NULL_TOL,
    FracIntegralOperator,
    _pow_diffs,
    differentiate_integral_residual,
    gronwall_bound,
    hilfer_derivative,
    integrate_derivative_residual,
    kernel_null_residual,
    run_operator_checks,
)
from fracstab.psi_space import FracOrder, GridFunction, PsiMap, build_mesh, default_grading
from fracstab.solver import picard_solve
from fracstab.specfun import gamma_fn, mittag_leffler_many

from conftest import ROOT, load_example, square_table

PSI_CASES = [
    (PsiMap("identity"), 0.0, 1.0),
    (PsiMap("logarithm"), 1.0, math.e),
    (PsiMap("power", rho=2.0), 0.0, 1.0),
]


@pytest.mark.parametrize("psi,a,T", PSI_CASES)
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_row_sums_exact_on_constants(psi, a, T, alpha):
    mesh = build_mesh(psi, a, T, 64, grading=max(1.0, 2.0 / alpha))
    op = FracIntegralOperator(mesh, alpha)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    exact = dx ** alpha / gamma_fn(alpha + 1.0)
    rs = op.apply(GridFunction(mesh, np.ones(65), 0.0)).values
    rel = np.abs(rs[1:] - exact[1:]) / exact[1:]
    assert float(np.max(rel)) <= 1e-12


@pytest.mark.parametrize(
    "psi,a,T",
    [(PsiMap("identity"), 100.0, 101.0), (PsiMap("power", rho=2.0), 3.0, 3.3)],
)
def test_row_sums_exact_on_shifted_interval(psi, a, T):
    # psi(a) far from 0: the first graded cells are 1e-11 wide next to it
    n, grading, alpha = 500, 4.0, 0.5
    mesh = build_mesh(psi, a, T, n, grading)
    span = psi.value(T) - psi.value(a)
    exact = (span * (np.arange(1, n + 1) / n) ** grading) ** alpha / gamma_fn(alpha + 1.0)
    rs = FracIntegralOperator(mesh, alpha).apply(GridFunction(mesh, np.ones(n + 1), 0.0)).values
    assert float(np.max(np.abs(rs[1:] - exact) / exact)) <= 1e-12


def test_inc_beta_against_scipy():
    thetas = np.array([1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.999, 1.0])
    for p in (0.05, 0.3, 0.5, 0.75, 1.0, 1.5, 2.7):
        for q in (0.3, 0.5, 0.9, 1.0):
            ref = sp.betainc(p, q, thetas) * sp.beta(p, q)
            got = fraccalc._lower_beta_many(p, q, thetas)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)


def test_pow_diff_thin_cell():
    # naive A**p - B**p at spacing 1e-11 keeps no leading digits
    B = np.array([1.0])
    A = B + 1e-11
    h = float(A[0] - B[0])  # the spacing as actually represented
    p = 0.3
    got = float(_pow_diffs(B, A, (p,))[0][0])
    lead = p * h  # B = 1, so the first-order term is p * h
    assert got == pytest.approx(lead, rel=1e-9)
    assert 0.0 < got < lead  # concave: the true difference sits just below


def test_pow_diff_matches_direct_when_far():
    B = np.array([0.0, 1.0, 2.0])
    A = np.array([4.0, 9.0, 16.0])
    for p, got in zip((0.5, 1.5), _pow_diffs(B, A, (0.5, 1.5))):
        np.testing.assert_allclose(got, A ** p - B ** p, rtol=1e-14)


def test_apply_plain_vanishes_at_a():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 32, grading=4.0)
    out = FracIntegralOperator(mesh, 0.5).apply(
        GridFunction(mesh, np.cos(mesh.nodes), 0.0)
    )
    assert out.weight_exp == 0.0
    assert out.values[0] == 0.0
    assert np.all(np.isfinite(out.values))


def test_apply_weighted_landing_on_gamma_one():
    # integrating the pure singular profile of exponent -1/2 with order 1/2
    # gives a constant: gamma(1/2) everywhere, including the limit at a
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 32, grading=4.0)
    op = FracIntegralOperator(mesh, 0.5)
    out = op.apply(GridFunction(mesh, np.ones(33), 0.5))
    assert out.weight_exp == 0.0
    np.testing.assert_allclose(out.values, gamma_fn(0.5), rtol=1e-12)


def test_apply_weighted_staying_weighted():
    # order 1/4 on the same profile keeps a singular result, stored with
    # weight 1/4; the stored factor is the constant gamma ratio
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 32, grading=4.0)
    op = FracIntegralOperator(mesh, 0.25)
    out = op.apply(GridFunction(mesh, np.ones(33), 0.5))
    assert out.weight_exp == pytest.approx(0.25, abs=1e-14)
    ratio = gamma_fn(0.5) / gamma_fn(0.75)
    np.testing.assert_allclose(out.values, ratio, rtol=1e-12)


def test_weighted_power_rule_gamma_ratios():
    # frozen gamma ratios for the two bundled order combinations
    assert gamma_fn(0.5) / gamma_fn(1.0) == pytest.approx(
        1.772453850905516, rel=1e-12
    )
    assert gamma_fn(0.75) / gamma_fn(1.25) == pytest.approx(
        1.3519564801345695, rel=1e-12
    )
    mesh = build_mesh(PsiMap("logarithm"), 1.0, math.e, 48, grading=4.0)
    op = FracIntegralOperator(mesh, 0.5)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    out = op.apply(GridFunction(mesh, np.ones(49), 0.25))  # gamma_u = 0.75
    ref = 1.3519564801345695 * dx[1:] ** 0.25
    np.testing.assert_allclose(out.values[1:], ref, rtol=1e-12)


def test_frac_integral_is_linear():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 40, grading=2.0)
    rng = np.random.default_rng(7)
    u = GridFunction(mesh, rng.normal(size=41), 0.0)
    v = GridFunction(mesh, rng.normal(size=41), 0.0)
    both = GridFunction(mesh, 2.5 * u.values + v.values, 0.0)
    op = FracIntegralOperator(mesh, 0.5)
    lhs = op.apply(both).values
    rhs = 2.5 * op.apply(u).values + op.apply(v).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


def test_apply_mesh_mismatch():
    m1 = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    m2 = build_mesh(PsiMap("identity"), 0.0, 1.0, 32)
    op = FracIntegralOperator(m1, 0.5)
    with pytest.raises(ContractError):
        op.apply(GridFunction(m2, np.zeros(33), 0.0))
    with pytest.raises(DomainError):
        FracIntegralOperator(m1, 0.0)


def _lentz_all_entries(a, b, x):
    """Reference continued fraction: every entry iterates until all converge."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < 1e-300, 1e-300, d)
    d = 1.0 / d
    h = d.copy()
    done = np.zeros(x.shape, dtype=bool)
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < 1e-300, 1e-300, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < 1e-300, 1e-300, c)
        d = 1.0 / d
        h = np.where(done, h, h * d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < 1e-300, 1e-300, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < 1e-300, 1e-300, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < 3e-16
        if np.all(done):
            return h
    raise AssertionError("reference fraction stalled")


@pytest.mark.parametrize("a,b", [(0.25, 0.5), (0.75, 0.5), (1.5, 0.1), (0.5, 1.25)])
def test_beta_fraction_matches_all_entries_reference(a, b):
    # retiring converged entries early must not change a single bit
    x = np.random.default_rng(3).uniform(0.0, (a + 1.0) / (a + b + 2.0), 500)
    assert np.array_equal(fraccalc._beta_fraction(a, b, x), _lentz_all_entries(a, b, x))


def test_beta_fraction_stall_raises():
    with pytest.raises(ConvergenceError):
        fraccalc._beta_fraction(0.5, 0.5, np.array([0.1, np.nan]))


@pytest.mark.parametrize(
    "psi,a,T", [(PsiMap("identity"), 0.0, 1.0), (PsiMap("identity"), 100.0, 101.0)]
)
@pytest.mark.parametrize("block_rows", [1, 7])
def test_table_builds_do_not_depend_on_block_size(monkeypatch, psi, a, T, block_rows):
    # n = 100: one default block, or blocks of 101 and 15 rows (the last one
    # short).  n = 1024 with grading 4 has every Gauss-Legendre rule, by the
    # distance from x0 and from the evaluation node, the plain table's far
    # band and several incomplete beta batches; its tiles shrink to 101 or
    # 707 entries on panels of 10 or 26 cells.
    for n in (100, 1024):
        mesh = build_mesh(psi, a, T, n, grading=4.0)
        with monkeypatch.context() as patch:
            plain = fraccalc._build_plain_table(mesh, 0.5)
            weighted = fraccalc._build_weighted_table(mesh, 0.5, 0.75)
            patch.setattr(fraccalc, "_BLOCK_BYTES", block_rows * 8 * 101)
            assert np.array_equal(fraccalc._build_plain_table(mesh, 0.5), plain)
            assert np.array_equal(fraccalc._build_weighted_table(mesh, 0.5, 0.75), weighted)


def test_table_builds_hold_their_blocks_only():
    # a plain build writes its blocks in place and never allocates the
    # square; a weighted build fills the square, then shrinks it to its blocks
    n = 2048
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=4.0)
    square = 8 * (n + 1) ** 2
    tracemalloc.start()
    try:
        fraccalc._build_plain_table(mesh, 0.5)
        plain_peak = tracemalloc.get_traced_memory()[1]
        packed = fraccalc._build_weighted_table(mesh, 0.5, 0.75)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert plain_peak < 0.7 * square
    assert packed.flags.owndata and packed.nbytes == 8 * fraccalc._packed_size(n)
    assert held < 0.6 * square


def test_gauss_legendre_constants():
    # each literal rule is the Gauss-Legendre rule of its size mapped to [0, 1]
    sizes = []
    for _, nodes, weights in fraccalc._GL_RULES:
        size = nodes.size
        sizes.append(size)
        with mp.workdps(40):
            exact_nodes, exact_weights = mp.gauss_quadrature(size, "legendre")
            exact_nodes = [float((1 + x) / 2) for x in exact_nodes]
            exact_weights = [float(w / 2) for w in exact_weights]
        for got, want in ((nodes, exact_nodes), (weights, exact_weights)):
            assert np.all(np.abs(got - want) <= np.spacing(np.asarray(want))), size
        assert math.fsum(weights) == pytest.approx(1.0, abs=2e-16)
        top = float(np.dot(weights, nodes ** (2 * size - 1)))
        assert top == pytest.approx(1.0 / (2 * size), rel=4e-16), size
    # fewer nodes as the separation grows
    assert sizes == sorted(sizes, reverse=True)
    separations = [sep for sep, _, _ in fraccalc._GL_RULES]
    assert separations == sorted(separations)


def _cell_moment(X, a, b, alpha, gamma_u, hat):
    """mpmath quad of ``(X-x)**(alpha-1) x**(gamma_u-1) hat(x)`` over ``[a, b]``.

    Each half of the cell is integrated separately; a half that ends on a
    singular point is first mapped to a smooth integrand by
    ``x = w**(1/gamma_u)`` or ``X - x = w**(1/alpha)``.
    """
    mid = (a + b) / 2
    inv_g, inv_a = 1 / mp.mpf(gamma_u), 1 / mp.mpf(alpha)
    if a == 0:
        lo = mp.quad(lambda w: (X - w ** inv_g) ** (alpha - 1) * hat(w ** inv_g) * inv_g,
                     [0, mid ** gamma_u])
    else:
        lo = mp.quad(lambda x: (X - x) ** (alpha - 1) * x ** (gamma_u - 1) * hat(x), [a, mid])
    if b == X:
        hi = mp.quad(lambda w: (X - w ** inv_a) ** (gamma_u - 1) * hat(X - w ** inv_a) * inv_a,
                     [0, (X - mid) ** alpha])
    else:
        hi = mp.quad(lambda x: (X - x) ** (alpha - 1) * x ** (gamma_u - 1) * hat(x), [mid, b])
    return lo + hi


def _weighted_entry(offsets, i, j, alpha, gamma_u):
    """Entry ``[i, j]`` of the weighted table to 30 digits: the hat function
    of node ``j`` against the singular kernel, on the exact float mesh."""
    X = mp.mpf(offsets[i])
    total = mp.mpf(0)
    if j >= 1:
        a, b = mp.mpf(offsets[j - 1]), mp.mpf(offsets[j])
        total += _cell_moment(X, a, b, alpha, gamma_u, lambda x: (x - a) / (b - a))
    if j < i:
        a, b = mp.mpf(offsets[j]), mp.mpf(offsets[j + 1])
        total += _cell_moment(X, a, b, alpha, gamma_u, lambda x: (b - x) / (b - a))
    return total / mp.gamma(alpha)


# Example 5's mesh and order, and a strongly graded mesh with a small order.
# Interior entries are summed by Gauss-Legendre and must be exact to
# rounding; "tiers" samples the reduced-node rules (4 and 3 nodes on
# example 5's mesh, 4 on the other) and both sides of each boundary between
# rules, by the distance from x0 (columns 134, 268 and 682) and from the
# evaluation node (down column 800), and the last Gauss-Legendre cells
# before the incomplete beta ones.  The others keep incomplete beta
# differences; their bounds are the worst sampled error of the build that
# took every cell that way, rounded up (interior entries reached 5.1e-11
# there).
_ACCURACY_CASES = [
    (PsiMap("logarithm"), 1.0, math.e, 4.0, 0.5, 0.5, {"zero": 9e-15, "end": 6e-12, "diagonal": 9e-13}),
    (PsiMap("identity"), 0.0, 1.0, 8.0, 0.25, 0.75, {"zero": 2e-14, "end": 2e-12, "diagonal": 5e-14}),
]
_ACCURACY_SAMPLES = {
    "interior": [(1024, 512), (1024, 64), (1024, 1016), (700, 350), (300, 150)],
    "zero": [(1024, 0), (1024, 1), (1024, 2), (1024, 5), (512, 1), (64, 0)],
    "end": [(1024, 1023), (1024, 1022), (512, 510), (64, 62)],
    "diagonal": [(1024, 1024), (512, 512), (1, 1), (2, 2), (10, 10)],
    "tiers": [
        (1024, 700), (1024, 800), (1024, 950), (1024, 200),
        (1024, 133), (1024, 134), (1024, 135), (1024, 267), (1024, 268), (1024, 269),
        (1024, 681), (1024, 682), (1024, 683),
        (829, 800), (830, 800), (831, 800), (832, 800), (833, 800), (834, 800),
        (933, 800), (934, 800), (935, 800), (1024, 1021), (1024, 22),
    ],
}


@pytest.mark.parametrize("psi,a,T,grading,alpha,gamma_u,bounds", _ACCURACY_CASES)
def test_weighted_table_entries_against_mpmath(psi, a, T, grading, alpha, gamma_u, bounds):
    mesh = build_mesh(psi, a, T, 1024, grading)
    V = square_table(fraccalc._build_weighted_table(mesh, alpha, gamma_u), 1024)
    bounds = dict(bounds, interior=1e-14, tiers=1e-15)
    with mp.workdps(30):
        for group, entries in _ACCURACY_SAMPLES.items():
            for i, j in entries:
                ref = _weighted_entry(mesh.offsets, i, j, alpha, gamma_u)
                err = float(abs((mp.mpf(V[i, j]) - ref) / ref))
                assert err <= bounds[group], (group, i, j, err)


@pytest.mark.parametrize("psi,a,T,grading,alpha,gamma_u,bounds", _ACCURACY_CASES)
def test_weighted_table_rule_boundaries_against_mpmath(psi, a, T, grading, alpha, gamma_u, bounds):
    # An entry sums the hat moments of two neighbouring cells, whose rule
    # errors cancel when they take the same rule.  Where the rules change,
    # wherever the separations put that, each side must be exact to rounding
    # on its own: down three columns (by the distance from the evaluation
    # node) and along the last row (by the distance from x0).
    n = 1024
    mesh = build_mesh(psi, a, T, n, grading)
    V = square_table(fraccalc._build_weighted_table(mesh, alpha, gamma_u), n)
    dx = mesh.offsets
    h = np.diff(dx)
    entries = set()
    for sep, _, _ in fraccalc._GL_RULES[1:]:
        reach = sep * h
        starts = fraccalc._first_rows(dx, reach)
        for j in (300, 700, 900):
            entries |= {(i, j) for i in range(starts[j] - 1, starts[j] + 2) if i <= n}
        first = int(np.argmax(dx[:-1] >= reach))
        if dx[first] >= reach[first]:
            entries |= {(n, first - 1), (n, first), (n, first + 1)}
    with mp.workdps(30):
        for i, j in sorted(entries):
            ref = _weighted_entry(dx, i, j, alpha, gamma_u)
            err = float(abs((mp.mpf(V[i, j]) - ref) / ref))
            assert err <= 1e-15, (i, j, err)


def test_weighted_table_large_order_against_mpmath():
    # a kernel exponent of 19 stretches the reduced rules' separations; at
    # 33 widths the 4-node rule would miss entry [161, 136] by 4e-11
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 256, 4.0)
    V = square_table(fraccalc._build_weighted_table(mesh, 20.0, 0.5), 256)
    with mp.workdps(30):
        for i, j in ((161, 136), (200, 150), (256, 200), (256, 128)):
            ref = _weighted_entry(mesh.offsets, i, j, 20.0, 0.5)
            err = float(abs((mp.mpf(V[i, j]) - ref) / ref))
            assert err <= 1e-14, (i, j, err)


def test_run_operator_checks_builds_each_table_once(monkeypatch, tmp_path):
    calls = {"requests": 0, "builds": 0}

    def counted(fn, kind):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(fraccalc, "_cache", type(fraccalc._cache)())
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # an empty table store
    monkeypatch.setattr(fraccalc, "_shared_table", counted(fraccalc._shared_table, "requests"))
    for name in ("_build_plain_table", "_build_weighted_table"):
        monkeypatch.setattr(fraccalc, name, counted(getattr(fraccalc, name), "builds"))
    assert run_operator_checks().passed
    # three families with span 1 share their meshes; four tables per n
    assert calls == {"requests": 192, "builds": 16}


def test_tables_are_shared_and_read_only():
    ident = build_mesh(PsiMap("identity"), 0.0, 1.0, 48, grading=4.0)
    power = build_mesh(PsiMap("power", rho=2.0), 0.0, 1.0, 48, grading=4.0)
    ops = FracIntegralOperator(ident, 0.5), FracIntegralOperator(power, 0.5)
    for weight in (0.0, 0.25):
        first, second = (op._table(weight) for op in ops)
        assert first is second
        assert all(block.flags.writeable is False for block in first)
        with pytest.raises(ValueError):
            first[0][1, 0] = 0.0


def _blocked(W: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(W[r0:r1, :r1] for r0, r1 in fraccalc._block_bounds(W.shape[0] - 1))


def _random_lower(rng, rows: int, cols: int, first_row: int = 0) -> np.ndarray:
    """Rows ``first_row ...`` of a random lower-triangular matrix.

    Each row is normal with its own scale between 1e-30 and 1e5: entries of
    one size, so that a change of summation order shows in the bits.
    """
    W = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-30.0, 5.0, (rows, 1))
    W[np.arange(cols) > np.arange(first_row, first_row + rows)[:, None]] = 0.0
    return W


def _random_vector(rng, n1: int) -> np.ndarray:
    return rng.standard_normal(n1) * 10.0 ** rng.uniform(-30.0, 5.0)


BLOCKED_PRODUCT = """
import numpy as np
from fracstab import fraccalc
rng = np.random.default_rng(20261018)
for n1 in (1, 31, 33, 64, 65, 300, 2049):
    W = np.tril(rng.standard_normal((n1, n1)) * 10.0 ** rng.uniform(-30.0, 5.0, (n1, 1)))
    u = rng.standard_normal(n1) * 10.0 ** rng.uniform(-30.0, 5.0)
    blocks = tuple(W[r0:r1, :r1] for r0, r1 in fraccalc._block_bounds(n1 - 1))
    assert np.array_equal(fraccalc._matvec(blocks, u), np.einsum("ij,j->i", W, u)), n1
print("same")
"""


@pytest.mark.parametrize("block_rows", [32, 64, 128])
def test_blocked_product_keeps_every_bit(monkeypatch, block_rows):
    monkeypatch.setattr(fraccalc, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    for n1 in (1, 2, 31, 32, 33, 65, 129, 300, 1000, 2049):
        W = _random_lower(rng, n1, n1)
        u = _random_vector(rng, n1)
        full = np.einsum("ij,j->i", W, u)
        # views of a square, as a build hands them out, and contiguous
        # blocks, as a load maps them
        blocks = _blocked(W)
        assert np.array_equal(fraccalc._matvec(blocks, u), full), n1
        assert np.array_equal(fraccalc._matvec(tuple(b.copy() for b in blocks), u), full), n1
    # skinny rows longer than numpy's 8192-element buffer: rows 8256 ...
    # of a lower-triangular matrix with 9000 columns, one block ending
    # at column 8320
    first, n1 = 8256, 9000
    W = _random_lower(rng, block_rows, n1, first)
    u = _random_vector(rng, n1)
    r1 = first + block_rows
    for block in (W[:, :r1], W[:, :r1].copy()):
        got = fraccalc._matvec((block,), u)[first:r1]
        assert np.array_equal(got, np.einsum("ij,j->i", W, u))


def test_blocked_product_keeps_every_bit_on_baseline_simd():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    wide = [f for f in ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)]
    if not wide:
        pytest.skip("numpy dispatches to none of the wide x86 features on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(wide))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLOCKED_PRODUCT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["same"]


@pytest.mark.parametrize("example", [1, 5, 7])
def test_picard_iterates_do_not_depend_on_block_rows(monkeypatch, tmp_path, example):
    # one block of n + 1 rows is the square product; every height builds
    # its own packed tables, and a stored table of another height is a miss
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    p = load_example(example).problem
    for n in (127, 300, 2048):
        mesh = build_mesh(p.psi, p.a, p.T, n, default_grading(p.order))
        solutions = []
        for block_rows in (10**9, 32, 64, 128):
            monkeypatch.setattr(fraccalc, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(fraccalc, "_cache", type(fraccalc._cache)())
            solutions.append(picard_solve(p, mesh))
        square = solutions[0]
        for sol in solutions[1:]:
            assert sol.iterations == square.iterations
            assert sol.update_norms == square.update_norms
            assert np.array_equal(sol.g.values, square.g.values)
            assert np.array_equal(sol.y.values, square.y.values)


def test_dense_table_memory_guard():
    # the mesh is refused before anything is allocated: one table of
    # 20001**2 doubles would be 3.2 GB
    with pytest.raises(DomainError, match=r"n = 20000 needs 3200320008 bytes"):
        build_mesh(PsiMap("identity"), 0.0, 1.0, 20000)
    build_mesh(PsiMap("identity"), 0.0, 1.0, 11584)  # the largest allowed


def test_caputo_derivative_of_linear_profile():
    # order (1/2, 1): the derivative of t on [0, 1] is sqrt(t/pi) * 2
    order = FracOrder(0.5, 1.0)
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 512, grading=4.0)
    u = GridFunction(mesh, mesh.nodes.copy(), 0.0)
    hd = hilfer_derivative(u, order).values
    ref = mesh.nodes ** 0.5 / gamma_fn(1.5)
    sel = mesh.nodes >= 0.1
    assert float(np.max(np.abs(hd[sel] - ref[sel]))) <= 2e-3


def test_caputo_derivative_of_constant_is_zero():
    order = FracOrder(0.5, 1.0)
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 64, grading=4.0)
    hd = hilfer_derivative(GridFunction(mesh, np.full(65, 3.0), 0.0), order)
    assert float(np.max(np.abs(hd.values))) <= 1e-10


def test_hilfer_weighted_input_contract():
    order = FracOrder(0.5, 0.5)  # gamma = 0.75
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    with pytest.raises(ContractError):
        hilfer_derivative(GridFunction(mesh, np.ones(17), 0.5), order)


def test_composition_residuals_shrink():
    order = FracOrder(0.5, 0.5)
    res = {}
    for n in (64, 256):
        mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, grading=4.0)
        u = GridFunction(mesh, np.cos(mesh.nodes), 0.0)
        res[n] = (
            integrate_derivative_residual(u, order),
            differentiate_integral_residual(u, order),
        )
    assert res[256][0] < res[64][0] / 1.5
    assert res[256][1] < res[64][1] / 1.5


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_composition_at_the_end_orders(beta):
    # beta = 0 leaves no outer integral, and gamma = 1 (beta = 1) keeps
    # u(a) as the initial layer; verify-ops runs neither
    order = FracOrder(0.5, beta)
    ns = (64, 128, 256, 512)
    res = {"cos": ([], []), "quadratic": ([], [])}
    for n in ns:
        mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, n, default_grading(order))
        x = mesh.offsets
        for tag, values in (("cos", np.cos(mesh.nodes)), ("quadratic", x * x)):
            u = GridFunction(mesh, values, 0.0)
            res[tag][0].append(integrate_derivative_residual(u, order))
            res[tag][1].append(differentiate_integral_residual(u, order))
        assert kernel_null_residual(mesh, order) <= 1e-12
    for pair in res.values():
        for residuals in pair:
            assert fraccalc._fit_slope(ns, residuals) >= 0.8
    weighted = GridFunction(mesh, np.ones(mesh.n + 1), 0.5)
    with pytest.raises(ContractError, match="expects plain samples"):
        integrate_derivative_residual(weighted, order)
    with pytest.raises(ContractError, match="expects plain samples"):
        differentiate_integral_residual(weighted, order)


@pytest.mark.parametrize("psi,a,T", PSI_CASES)
def test_kernel_annihilation(psi, a, T):
    for order in (FracOrder(0.5, 0.5), FracOrder(0.5, 1.0)):
        mesh = build_mesh(psi, a, T, 64, grading=4.0)
        assert kernel_null_residual(mesh, order) <= 1e-12


def test_run_operator_checks_green():
    report = run_operator_checks(families=("identity",), n_list=(32, 64, 128))
    assert report.passed
    assert not report.failures
    for (fam, check), slope in report.slopes.items():
        base = check.rsplit("_", 1)[0]
        assert slope >= 0.8 * DESIGN_ORDERS[base]
    assert KERNEL_NULL_TOL == 1e-9


def test_run_operator_checks_single_n_notes():
    report = run_operator_checks(families=("power",), n_list=(64,))
    assert report.passed
    assert not report.slopes
    assert any("single n" in note for note in report.notes)


def test_fit_slope_recovers_a_power_law():
    # residuals c * n**-p decay at rate p; two points already fix the line
    for ns in ((64, 128), (64, 128, 256, 512)):
        for p in (0.5, 1.0, 1.5, 2.0, 3.5):
            residuals = [3.0 * n**-p for n in ns]
            assert fraccalc._fit_slope(ns, residuals) == pytest.approx(p, rel=1e-14)


def test_run_operator_checks_validation():
    with pytest.raises(DomainError):
        run_operator_checks(families=("spiral",), n_list=(64,))
    with pytest.raises(DomainError):
        run_operator_checks(families=("identity",), n_list=(2,))


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(fraccalc, "_cache", type(fraccalc._cache)())


# each refusal below once came after the tables of the work before it


def test_unknown_family_is_refused_before_any_table(empty_cache):
    with pytest.raises(DomainError, match="unknown family 'bogus'"):
        run_operator_checks(families=("identity", "bogus"), n_list=(16, 32))
    assert not fraccalc._cache


def test_oversized_n_is_refused_before_any_table(empty_cache):
    with pytest.raises(DomainError, match="n = 20000 needs"):
        run_operator_checks(families=("identity",), n_list=(16, 32, 20000))
    assert not fraccalc._cache


def test_one_cell_derivative_is_refused_before_any_table(empty_cache):
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 1)
    with pytest.raises(ContractError, match="at least 3 nodes"):
        hilfer_derivative(GridFunction(mesh, np.ones(2), 0.0), FracOrder(0.5, 0.5))
    assert not fraccalc._cache


def test_too_few_nodes_fail_the_slope_grade():
    report = run_operator_checks(n_list=(4, 5))
    assert not report.passed
    assert any("below required" in failure for failure in report.failures), report.failures


def _first_rows_by_scan(dx, reach):
    first = []
    for j in range(dx.size - 1):
        rows = [i for i in range(dx.size) if dx[i] - dx[j + 1] >= reach[j]]
        first.append(rows[0] if rows else dx.size)
    return np.array(first)


def test_first_rows_match_a_scan():
    # 0.7 + 0.1 rounds to 0.7999999999999999, which the search places at
    # row 2; but 0.7999999999999999 - 0.7 < 0.1, so the first row is 3
    dx = np.array([0.0, 0.7, 0.7999999999999999, 0.9])
    reach = np.full(3, 0.1)
    assert np.searchsorted(dx, dx[1] + reach[0]) == 2
    assert fraccalc._first_rows(dx, reach)[0] == 3
    np.testing.assert_array_equal(fraccalc._first_rows(dx, reach), _first_rows_by_scan(dx, reach))
    rng = np.random.default_rng(7)
    for n in (4, 17, 64):
        dx = np.cumsum(np.concatenate([[0.0], rng.choice([0.1, 0.2, 0.3], n)]))
        reach = rng.choice([0.1, 0.2, 0.3, 0.5], n)
        np.testing.assert_array_equal(fraccalc._first_rows(dx, reach), _first_rows_by_scan(dx, reach))


def _discrete_fixed_point(mesh, v, g, alpha, sweeps=200):
    """Solve u = v + g * I[alpha] u on the mesh by plain iteration."""
    op = FracIntegralOperator(mesh, alpha)
    u = v.copy()
    for _ in range(sweeps):
        nxt = v + g * op.apply(GridFunction(mesh, u, 0.0)).values
        if np.max(np.abs(nxt - u)) <= 1e-13 * max(1.0, np.max(np.abs(nxt))):
            return nxt
        u = nxt
    return u


def test_gronwall_dominates_fixed_point_monotone():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 64, grading=2.0)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    v = 1.0 + dx  # nondecreasing: closed-form branch
    gval = 0.8
    bound = gronwall_bound(
        GridFunction(mesh, v, 0.0),
        GridFunction(mesh, np.full(65, gval), 0.0),
        0.5,
    )
    arg = gval * gamma_fn(0.5) * dx ** 0.5
    np.testing.assert_allclose(bound.values, v * mittag_leffler_many(0.5, arg), rtol=1e-12)
    u = _discrete_fixed_point(mesh, v, gval, 0.5)
    assert np.all(bound.values >= u - 1e-9)


def test_gronwall_dominates_fixed_point_series():
    # decreasing v forces the truncated kernel series
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 64, grading=2.0)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    v = 2.0 - dx
    gval = 0.6
    bound = gronwall_bound(
        GridFunction(mesh, v, 0.0),
        GridFunction(mesh, np.full(65, gval), 0.0),
        0.5,
    )
    u = _discrete_fixed_point(mesh, v, gval, 0.5)
    assert np.all(bound.values >= u - 1e-9)
    assert np.all(bound.values >= v)
    # gronwall_bound puts g on the raw kernel integral, g * gamma(1/2) *
    # I[1/2] u, while _discrete_fixed_point above solves with the smaller
    # coefficient g * I[1/2].  Under the bound's convention the series for
    # v = 2 - x is the exact solution 2 E_{1/2}(c sqrt x) - x E_{1/2,2}(c sqrt x)
    # with c = g * gamma(1/2), and product integration is exact on linear v
    def ml_half(b, z):  # two-parameter Mittag-Leffler E_{1/2,b}(z)
        return mp.nsum(lambda k: z**k / mp.gamma(0.5 * k + b), [0, mp.inf])

    with mp.workdps(30):
        c = gval * mp.gamma(0.5)
        exact = [
            float(2 * ml_half(1, c * mp.sqrt(x)) - x * ml_half(2, c * mp.sqrt(x)))
            for x in dx.tolist()
        ]
    np.testing.assert_allclose(bound.values, exact, rtol=1e-13, atol=0.0)


def test_gronwall_validation():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    ones = GridFunction(mesh, np.ones(17), 0.0)
    with pytest.raises(ContractError):
        gronwall_bound(GridFunction(mesh, np.ones(17), 0.5), ones, 0.5)
    other = build_mesh(PsiMap("identity"), 0.0, 1.0, 32)
    with pytest.raises(ContractError):
        gronwall_bound(ones, GridFunction(other, np.ones(33), 0.0), 0.5)
    with pytest.raises(DomainError):
        gronwall_bound(ones, ones, 1.5)
    with pytest.raises(DomainError):
        gronwall_bound(GridFunction(mesh, -np.ones(17), 0.0), ones, 0.5)
    decreasing = GridFunction(mesh, np.linspace(1.0, 0.0, 17), 0.0)
    with pytest.raises(DomainError):
        gronwall_bound(ones, decreasing, 0.5)


def test_gronwall_without_kernel_returns_v():
    # g = 0 leaves no series term, whatever the shape of v
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    v = GridFunction(mesh, np.linspace(2.0, 1.0, 17), 0.0)
    bound = gronwall_bound(v, GridFunction(mesh, np.zeros(17), 0.0), 0.5)
    np.testing.assert_array_equal(bound.values, v.values)


def test_gronwall_series_overflow_reports_convergence_error():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 16)
    dx = mesh.psi_nodes - mesh.psi_nodes[0]
    v = GridFunction(mesh, 2.0 - dx, 0.0)  # decreasing: series branch
    g = GridFunction(mesh, np.full(17, 1000.0), 0.0)
    with pytest.raises(ConvergenceError):
        gronwall_bound(v, g, 0.5)
