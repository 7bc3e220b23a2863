"""Reparametrisation maps, orders, meshes, and grid containers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab.errors import ContractError, DomainError
from fracstab.psi_space import (
    FracOrder,
    GridFunction,
    PsiMap,
    build_mesh,
)


def test_psi_identity():
    psi = PsiMap("identity")
    assert psi.value(2.5) == 2.5
    arr = np.array([0.0, 1.0, 4.0])
    np.testing.assert_array_equal(psi.inverse(arr), arr)
    assert psi.value(np.float64(4.0)) == 4.0


def test_psi_logarithm():
    psi = PsiMap("logarithm")
    assert psi.value(math.e) == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(psi.inverse(np.array([1.0])), [math.e], rtol=1e-15)
    with pytest.raises(DomainError):
        psi.value(0.0)


def test_psi_power():
    psi = PsiMap("power", rho=2.0)
    assert psi.value(3.0) == pytest.approx(9.0)
    np.testing.assert_allclose(psi.inverse(np.array([9.0])), [3.0])
    with pytest.raises(DomainError):
        psi.value(-0.5)


def test_psi_validation():
    with pytest.raises(DomainError):
        PsiMap("hyperbolic")
    with pytest.raises(DomainError):
        PsiMap("power", rho=0.0)
    with pytest.raises(DomainError):
        PsiMap("power", rho=math.inf)


@given(
    st.sampled_from(["identity", "logarithm", "power"]),
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_psi_inverse_round_trip(kind, rho, t):
    psi = PsiMap(kind, rho)
    assert psi.inverse(psi.value(t)) == pytest.approx(t, rel=1e-12)


def test_frac_order_gamma_table():
    # gamma = alpha + beta * (1 - alpha), weight = 1 - gamma
    cases = {
        (0.5, 0.0): 0.5,
        (0.5, 1.0): 1.0,
        (0.5, 0.5): 0.75,
        (0.3, 1.0): 1.0,
        (1.0, 0.0): 1.0,
    }
    for (alpha, beta), gamma in cases.items():
        order = FracOrder(alpha, beta)
        assert order.gamma == pytest.approx(gamma, abs=1e-15)
        assert order.weight == pytest.approx(1.0 - gamma, abs=1e-15)


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_frac_order_gamma_range(alpha, beta):
    order = FracOrder(alpha, beta)
    assert alpha - 1e-15 <= order.gamma <= 1.0 + 1e-15
    assert 0.0 - 1e-15 <= order.weight < 1.0


def test_frac_order_validation():
    for alpha, beta in ((0.0, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(DomainError):
            FracOrder(alpha, beta)


def test_build_mesh_uniform():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 4)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0


def test_build_mesh_graded_clusters_at_left():
    flat = build_mesh(PsiMap("identity"), 0.0, 1.0, 8, grading=1.0)
    hot = build_mesh(PsiMap("identity"), 0.0, 1.0, 8, grading=4.0)
    assert hot.psi_nodes[1] < flat.psi_nodes[1]
    assert hot.psi_nodes[1] == pytest.approx((1.0 / 8.0) ** 4)
    assert np.all(np.diff(hot.psi_nodes) > 0.0)


def test_build_mesh_log_and_power():
    mlog = build_mesh(PsiMap("logarithm"), 1.0, math.e, 16, grading=2.0)
    assert mlog.psi_nodes[0] == 0.0
    assert mlog.psi_nodes[-1] == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(np.log(mlog.nodes[1:]), mlog.psi_nodes[1:], rtol=1e-13)

    mpow = build_mesh(PsiMap("power", rho=2.0), 0.0, 3.0, 16)
    np.testing.assert_allclose(mpow.nodes ** 2, mpow.psi_nodes, rtol=1e-13, atol=1e-15)
    assert mpow.nodes[-1] == 3.0


def test_build_mesh_offsets_exact_on_shifted_interval():
    # psi(t_j) - psi(a) is stored, not recovered by cancelling psi(a) = 100
    mesh = build_mesh(PsiMap("identity"), 100.0, 101.0, 500, grading=4.0)
    ref = (np.arange(501) / 500.0) ** 4
    np.testing.assert_allclose(mesh.offsets, ref, rtol=1e-15, atol=0.0)
    assert mesh.offsets[0] == 0.0 and mesh.offsets[-1] == 1.0
    with pytest.raises(ValueError):
        mesh.offsets[1] = 0.0


def test_build_mesh_validation():
    with pytest.raises(DomainError):
        build_mesh(PsiMap("logarithm"), 0.0, 1.0, 8)
    with pytest.raises(DomainError):
        build_mesh(PsiMap("identity"), 1.0, 1.0, 8)
    with pytest.raises(DomainError):
        build_mesh(PsiMap("identity"), 0.0, 1.0, 0)
    with pytest.raises(DomainError):
        build_mesh(PsiMap("identity"), 0.0, 1.0, 8, grading=0.5)
    with pytest.raises(DomainError, match="overflows double precision"):
        build_mesh(PsiMap("identity"), -1e308, 1e308, 8)


@pytest.mark.parametrize("n", [2.5, 8.0, True, "8"])
def test_build_mesh_refuses_a_non_integer_n(n):
    with pytest.raises(DomainError, match=f"^build_mesh needs an integer n, got {n!r}$"):
        build_mesh(PsiMap("identity"), 0.0, 1.0, n)


def test_build_mesh_takes_a_numpy_integer_n():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, np.int32(8))
    assert type(mesh.n) is int and mesh == build_mesh(PsiMap("identity"), 0.0, 1.0, 8)


def test_build_mesh_refuses_zero_width_cells():
    # (1/256)**300 underflows: the first offsets would all be 0
    psi = PsiMap("logarithm")
    with pytest.raises(DomainError, match="grading 300 is too steep for n = 256"):
        build_mesh(psi, 1.0, math.e, 256, grading=300.0)
    mesh = build_mesh(psi, 1.0, math.e, 256, grading=130.0)
    assert np.all(np.diff(mesh.offsets) > 0.0)


def test_mesh_same_as():
    m1 = build_mesh(PsiMap("identity"), 0.0, 1.0, 8, grading=2.0)
    m2 = build_mesh(PsiMap("identity"), 0.0, 1.0, 8, grading=2.0)
    m3 = build_mesh(PsiMap("identity"), 0.0, 1.0, 16, grading=2.0)
    assert m1 == m2
    assert not m1 == m3 and m1 != m3


def test_grid_function_validation():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 4)
    with pytest.raises(ContractError):
        GridFunction(mesh, np.zeros(4), 0.0)
    with pytest.raises(ContractError):
        GridFunction(mesh, np.full(5, np.nan), 0.0)
    with pytest.raises(ContractError):
        GridFunction(mesh, np.zeros(5), 1.0)
    with pytest.raises(ContractError):
        GridFunction(mesh, np.zeros(5), -0.25)


def test_grid_function_values_frozen():
    mesh = build_mesh(PsiMap("identity"), 0.0, 1.0, 4)
    u = GridFunction(mesh, np.ones(5), 0.0)
    with pytest.raises(ValueError):
        u.values[2] = 7.0

