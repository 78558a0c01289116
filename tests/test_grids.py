"""Quadrature rules, stencils, grid containers, and the zonal volumes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_gegenbauer, gamma as gamma_fn

from cknlab import (
    CylinderField,
    DegenerateInput,
    DomainError,
    fv_zonal_grid,
    tensor_grid,
    zonal_gegenbauer_basis,
    zonal_laplacian,
    zonal_quadrature,
)
from cknlab.grids import (
    GridFunction1D,
    Weight,
    _workspace,
    derivative_matrix,
    fornberg_weights,
    half_line_grid,
    log_radial_quadrature,
)


def even_moment(sphere_dim, k):
    """E[z^(2k)] under the uniform probability measure on the sphere."""
    out = 1.0
    for j in range(k):
        out *= (2 * j + 1) / (sphere_dim + 1 + 2 * j)
    return out


@pytest.mark.parametrize("rule", ["jacobi", "legendre"])
@pytest.mark.parametrize("sphere_dim", [2, 4])
def test_zonal_quadrature_moments(sphere_dim, rule):
    z, w = zonal_quadrature(sphere_dim, 12, rule=rule)
    assert abs(np.sum(w) - 1.0) < 1e-14
    assert abs(np.sum(w * z)) < 1e-14
    for k in range(1, 7):
        got = float(np.sum(w * z ** (2 * k)))
        assert got == pytest.approx(even_moment(sphere_dim, k), rel=1e-13)
    with pytest.raises(DomainError):
        zonal_quadrature(sphere_dim, 12, rule="chebyshev")


def test_gegenbauer_basis_orthogonal_and_eigen():
    # columns are raw ultraspherical polynomials, so the gram matrix is
    # diagonal with the classical norms lam/(k+lam) * G_k(1) under the
    # normalized zonal measure
    sphere_dim = 4
    lam_idx = (sphere_dim - 1) / 2.0
    z, w = zonal_quadrature(sphere_dim, 24)
    basis = zonal_gegenbauer_basis(sphere_dim, z, 5)
    gram = basis.T @ (w[:, None] * basis)
    diag = [lam_idx / (k + lam_idx) * eval_gegenbauer(k, lam_idx, 1.0)
            for k in range(basis.shape[1])]
    np.testing.assert_allclose(gram, np.diag(diag), atol=1e-11)
    lap = zonal_laplacian(sphere_dim, z, w)
    for k in range(basis.shape[1]):
        gk = basis[:, k]
        resid = lap @ gk + k * (k + sphere_dim - 1) * gk
        scale = max(1.0, k * (k + sphere_dim - 1)) * np.max(np.abs(gk))
        assert np.max(np.abs(resid)) < 1e-9 * scale


def test_zonal_laplacian_self_adjoint():
    z, w = zonal_quadrature(3, 20)
    lap = zonal_laplacian(3, z, w)
    f = np.exp(0.4 * z)
    g = z ** 3 - 0.2 * z
    left = float(np.sum(w * f * (lap @ g)))
    right = float(np.sum(w * (lap @ f) * g))
    assert left == pytest.approx(right, rel=1e-10)


def test_log_radial_quadrature_gamma_integral():
    r, w = log_radial_quadrature(1e-8, 200.0, 160, 8)
    got = float(np.sum(w * r ** 2.5 * np.exp(-r)))
    assert got == pytest.approx(gamma_fn(3.5), rel=1e-13)


def test_fornberg_weights_differentiate_polynomials():
    x = np.array([-1.3, -0.4, 0.0, 0.7, 1.1, 2.0, 2.4])
    x0 = 0.45
    w = fornberg_weights(x0, x, 2)
    for degree in range(7):
        vals = x ** degree
        assert w[0] @ vals == pytest.approx(x0 ** degree, abs=1e-10)
        d1 = degree * x0 ** (degree - 1) if degree else 0.0
        assert w[1] @ vals == pytest.approx(d1, abs=1e-9)
        d2 = degree * (degree - 1) * x0 ** (degree - 2) if degree > 1 else 0.0
        assert w[2] @ vals == pytest.approx(d2, abs=1e-8)


def test_derivative_matrix_exact_on_quartics():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 2.0, 40))
    d1 = derivative_matrix(x, 1)
    np.testing.assert_allclose(d1 @ x ** 4, 4.0 * x ** 3,
                               rtol=0, atol=1e-9)
    assert np.max(np.abs(d1 @ np.ones_like(x))) < 1e-12
    d2 = derivative_matrix(x, 2)
    np.testing.assert_allclose(d2 @ x ** 3, 6.0 * x, rtol=0, atol=1e-8)


def test_grid_function_validation():
    w = Weight("flat_line", {"h": 0.5})
    with pytest.raises(DomainError):
        GridFunction1D(np.array([0.0, 1.0]), np.array([1.0]), w,
                       np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        GridFunction1D(np.array([1.0, 0.0]), np.array([1.0, 2.0]), w,
                       np.array([0.5, 0.5]))
    with pytest.raises(DegenerateInput):
        GridFunction1D(np.array([0.0, 1.0]), np.array([1.0, np.nan]), w,
                       np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        Weight("spiral", {})


def test_fv_zonal_grid_conservation_and_spectrum():
    grid = fv_zonal_grid(3, 80)
    assert abs(np.sum(grid.cell_mass) - 1.0) < 1e-13
    rng = np.random.default_rng(3)
    f = np.exp(rng.uniform(-1.0, 1.0, grid.n))
    assert abs(grid.integrate(grid.apply_laplacian(f))) < 1e-12 * np.max(f)
    # the flux form is symmetric: <f, L f> = -dirichlet_form(f)
    quad = grid.integrate(f * grid.apply_laplacian(f))
    assert quad == pytest.approx(-grid.dirichlet_form(f), rel=1e-12)
    # z is an exact discrete eigenvector with eigenvalue -sphere_dim
    resid = grid.apply_laplacian(grid.centroids) + 3.0 * grid.centroids
    assert np.max(np.abs(resid)) < 1e-10


@st.composite
def positive_stacks(draw):
    """A zonal grid size and a (k, n) stack of positive cell values."""
    sphere_dim = draw(st.integers(2, 6))
    n_cells = draw(st.integers(4, 200))
    k = draw(st.integers(1, 5))
    values = draw(arrays(np.float64, (k, n_cells),
                         elements=st.floats(1e-3, 1e3)))
    return sphere_dim, values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_stacks())
def test_fv_laplacian_has_zero_total_flux(case):
    sphere_dim, stack = case
    grid = fv_zonal_grid(sphere_dim, stack.shape[1])
    for f in stack:
        total = grid.integrate(grid.apply_laplacian(f))
        # every interface flux enters two cells with opposite signs
        scale = grid.integrate(np.abs(grid.lap_di) * f)
        assert abs(total) <= 1e-14 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_stacks())
def test_fv_operators_on_a_stack_match_row_by_row(case):
    sphere_dim, stack = case
    grid = fv_zonal_grid(sphere_dim, stack.shape[1])
    assert np.array_equal(grid.apply_laplacian(stack),
                          [grid.apply_laplacian(f) for f in stack])
    assert np.array_equal(grid.integrate(stack),
                          [grid.integrate(f) for f in stack])
    assert np.array_equal(grid.dirichlet_form(stack),
                          [grid.dirichlet_form(f) for f in stack])


def test_cached_fv_grid_is_shared_and_read_only():
    grid = _workspace(3, 48)
    assert _workspace(3, 48) is grid
    for arr in (grid.edges, grid.centroids, grid.cell_mass, grid.lap_di):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = fv_zonal_grid(3, 48)
    assert np.array_equal(grid.cell_mass, fresh.cell_mass)
    assert np.array_equal(grid.lap_di, fresh.lap_di)


def test_fv_symmetrized_modes():
    grid = fv_zonal_grid(4, 64)
    lam, vecs = grid.symmetrized_modes()
    gram = vecs.T @ vecs
    np.testing.assert_allclose(gram, np.eye(grid.n), atol=1e-10)
    # ascending order: the constant mode (eigenvalue 0) comes last,
    # preceded by the coordinate mode with eigenvalue -sphere_dim
    assert abs(lam[-1]) < 1e-10
    assert lam[-2] == pytest.approx(-4.0, rel=1e-10)
    gf = grid.as_grid_function(np.ones(grid.n))
    assert gf.weight.kind == "fv_zonal"
    assert gf.mass == pytest.approx(1.0, rel=1e-13)


def test_tensor_grid_stencils_and_weights():
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=24, n_nodes=6, nz=12)
    r, z = grid.r, grid.z
    np.testing.assert_allclose(grid.Dr @ r ** 3, 3.0 * r ** 2,
                               rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(grid.Drr @ r ** 3, 6.0 * r,
                               rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(grid.Dz @ z ** 2, 2.0 * z, rtol=0, atol=1e-11)
    np.testing.assert_allclose(grid.Dzz @ z ** 3, 6.0 * z, rtol=0, atol=1e-10)
    n = 3.125
    total = float(np.sum(grid.radial_weights(n)))
    assert total == pytest.approx((1e2 ** n - 1e-2 ** n) / n, rel=1e-12)
    field = grid.sample(lambda rr, zz: rr * zz)
    assert field.shape == (len(r), len(z))
    np.testing.assert_array_equal(field, r[:, None] * z[None, :])


def test_half_line_grid_cell_centers():
    s, h = half_line_grid(10.0, 100)
    assert h == pytest.approx(0.1)
    assert s[0] == pytest.approx(0.05)
    assert s[-1] == pytest.approx(10.0 - 0.05)
    np.testing.assert_allclose(np.diff(s), h, rtol=1e-12)


def test_cylinder_field_integration():
    s, h = half_line_grid(4.0, 40)
    z, wz = zonal_quadrature(4, 8)
    field = CylinderField(5, s, h, z, wz, np.ones((40, 8)))
    # both halves of the cylinder count
    assert field.integrate(field.values) == pytest.approx(8.0, rel=1e-13)
    assert field.lp_norm(2.8) == pytest.approx(8.0 ** (1.0 / 2.8), rel=1e-13)
    with pytest.raises(DomainError):
        CylinderField(5, s, h, z, wz, np.ones((40, 7)))
