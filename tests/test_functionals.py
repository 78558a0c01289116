"""Sphere entropies, curvature remainders, and quotients."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import (
    CylinderField,
    DegenerateInput,
    DomainError,
    PressureField,
    cylinder_quotient,
    cylinder_grid,
    derive_params,
    gaussian_h,
    k_functional,
    solve_symmetric,
    sphere_observables,
    symmetric_quotient,
    tensor_grid,
)
from cknlab.functionals import density_from_pressure
from cknlab.grids import GridFunction1D, fornberg_weights, fv_zonal_grid
from cknlab.params import CKNParams
from cknlab.sphere_flows import random_smooth_density, tilted_density


def subcritical_record():
    return derive_params(3, {"beta": 0.1, "gamma": 0.5, "p": 1.2},
                         "subcritical")


def quadratic_pressure(rec, grid, a=1.0, b=0.7):
    values = grid.sample(lambda r, z: a + b * r * r)
    return PressureField(grid, values, rec.m, rec.n, rec.alpha)


def observables(rho, p):
    """(mass, entropy, fisher, deficit) of one density."""
    return sphere_observables(rho.grid, rho.values[None], p)[0]


def test_uniform_density_has_zero_deficit():
    rho = GridFunction1D(fv_zonal_grid(3, 32), np.ones(32))
    for p in (2.0, 2.5, 4.0):
        _, entropy, fisher, deficit = observables(rho, p)
        assert abs(entropy) < 1e-14
        assert abs(fisher) < 1e-24
        assert abs(deficit) < 1e-13


def test_deficit_nonnegative_on_random_densities():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = random_smooth_density(3, 64, rng)
        for p in (2.5, 4.0):
            assert observables(rho, p)[3] > -1e-10


def test_entropy_nonnegative_and_continuous_through_two():
    rho = tilted_density(2, 48, 0.4, 2.0)
    assert observables(rho, 3.0)[1] >= 0.0
    e2 = observables(rho, 2.0)[1]
    assert e2 > 0.0
    for dp in (1e-6, -1e-6):
        assert abs(observables(rho, 2.0 + dp)[1] - e2) < 1e-6


def test_pressure_density_roundtrip():
    rec = subcritical_record()
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=24, n_nodes=6, nz=12)
    u = grid.sample(lambda r, z: np.exp(-0.3 * r) * (1.2 + 0.1 * z))
    # the pressure of u in closed form
    pressure = rec.m / (1.0 - rec.m) * u ** (rec.m - 1.0)
    pf = PressureField(grid, pressure, rec.m, rec.n, rec.alpha)
    np.testing.assert_allclose(density_from_pressure(pf), u, rtol=1e-12)
    with pytest.raises(DegenerateInput):
        density_from_pressure(
            PressureField(grid, 0.0 * pressure, rec.m, rec.n, rec.alpha))


def test_curvature_remainder_vanishes_on_quadratic_pressure():
    rec = subcritical_record()
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=48, n_nodes=8, nz=16)
    pf = quadratic_pressure(rec, grid)
    field, integral = k_functional(pf, rec)
    assert np.max(np.abs(field)) < 1e-10
    assert abs(integral) < 1e-10


@lru_cache(maxsize=None)
def curvature_grid(d):
    return tensor_grid(d, 1e-2, 1e2, n_panels=48, n_nodes=8, nz=16)


# the floor the k_functional docstring states, fixed before any draw
QUADRATIC_FLOOR = 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(3, 5), n_excess=st.floats(0.5, 4.0),
       alpha_share=st.floats(0.3, 1.0), a=st.floats(0.5, 2.0),
       b=st.floats(0.5, 2.0))
def test_curvature_remainder_annihilates_quadratic_pressures(
        d, n_excess, alpha_share, a, b):
    n = d + n_excess
    alpha = math.sqrt((d - 1.0) / (n - 1.0)) * alpha_share
    rec = CKNParams(mode="subcritical", d=d, p=1.5, alpha=alpha, n=n,
                    m=1.0 - 1.0 / n)
    grid = curvature_grid(d)
    field, integral = k_functional(quadratic_pressure(rec, grid, a, b), rec)
    assert abs(integral) <= QUADRATIC_FLOOR
    assert np.max(np.abs(field)) <= QUADRATIC_FLOOR


def test_curvature_remainder_pointwise_nonnegative():
    rng = np.random.default_rng(13)
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=48, n_nodes=8, nz=16)
    for _ in range(5):
        n = 3.0 + rng.uniform(0.5, 4.0)
        alpha = math.sqrt(2.0 / (n - 1.0)) * rng.uniform(0.3, 1.0)
        rec = CKNParams(mode="subcritical", d=3, p=1.5, alpha=alpha, n=n,
                        m=1.0 - 1.0 / n)
        t0, amp = rng.uniform(-2.0, 2.0), rng.uniform(0.02, 0.1)
        values = grid.sample(
            lambda r, z: 1.0 + 0.5 * r * r
            + amp * np.exp(-(np.log(r) - t0) ** 2) * np.cos(2.0 * z))
        field, integral = k_functional(
            PressureField(grid, values, rec.m, rec.n, rec.alpha), rec)
        assert float(np.min(field)) > -1e-12 * float(np.max(np.abs(field)))
        assert integral > 0.0


class _DenseOperator:
    """A derivative scattered into a dense n x n matrix, applied by matmul.

    Built row by row from fornberg_weights, with the dense row sum taken
    off the diagonal: the form the tensor grid had before it kept
    stencils.
    """

    def __init__(self, x, order):
        n = len(x)
        self.matrix = np.zeros((n, n))
        for i in range(n):
            j0 = min(max(i - 2, 0), n - 5)
            self.matrix[i, j0:j0 + 5] = fornberg_weights(
                x[i], x[j0:j0 + 5], order)[order]
        self.matrix[np.arange(n), np.arange(n)] -= self.matrix.sum(axis=1)

    def apply(self, v, axis=0):
        return self.matrix @ v if axis == 0 else v @ self.matrix.T


# Both evaluations sum the same five products per row, in different
# orders.  Near r = 1e-2 the 48-panel radial weights reach about
# 1/(r dt)^2 ~ 2e7, so the rounding of the derivatives, and through the
# 1/r^2 and 1/r^4 factors that of the field, sits far above one ulp of
# the field's maximum; 7e-11 and 9e-13 were the worst of six draws.
DENSE_FIELD_RTOL = 1e-9
DENSE_INTEGRAL_RTOL = 1e-11


def test_curvature_remainder_matches_dense_matrix_evaluation():
    grid = curvature_grid(3)
    dense = dataclasses.replace(
        grid, Dr=_DenseOperator(grid.r, 1), Drr=_DenseOperator(grid.r, 2),
        Dz=_DenseOperator(grid.z, 1), Dzz=_DenseOperator(grid.z, 2))
    rng = np.random.default_rng(13)
    for _ in range(6):
        n = 3.0 + rng.uniform(0.5, 4.0)
        alpha = math.sqrt(2.0 / (n - 1.0)) * rng.uniform(0.3, 1.0)
        rec = CKNParams(mode="subcritical", d=3, p=1.5, alpha=alpha, n=n,
                        m=1.0 - 1.0 / n)
        t0, amp = rng.uniform(-2.0, 2.0), rng.uniform(0.02, 0.1)
        values = grid.sample(
            lambda r, z: 1.0 + 0.5 * r * r
            + amp * np.exp(-(np.log(r) - t0) ** 2) * np.cos(2.0 * z))
        got, got_integral = k_functional(
            PressureField(grid, values, rec.m, rec.n, rec.alpha), rec)
        ref, ref_integral = k_functional(
            PressureField(dense, values, rec.m, rec.n, rec.alpha), rec)
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got - ref))) <= DENSE_FIELD_RTOL * scale
        assert (abs(got_integral - ref_integral)
                <= DENSE_INTEGRAL_RTOL * abs(ref_integral))


def test_curvature_remainder_rejections():
    rec = subcritical_record()
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=16, n_nodes=6, nz=8)
    pf = quadratic_pressure(rec, grid)
    with pytest.raises(DomainError):
        k_functional(pf, rec, zeta_star=0.0)
    shallow = CKNParams(mode="subcritical", d=3, p=1.5, alpha=0.5, n=1.5,
                        m=0.4)
    with pytest.raises(DomainError):
        k_functional(quadratic_pressure(shallow, grid), shallow)
    # a record without flow exponents
    bare = CKNParams(mode="critical", d=3, p=2.5, a=0.1, b=0.3)
    with pytest.raises(DomainError):
        k_functional(pf, bare)


def test_cylinder_quotient_matches_line_solver():
    d, p, lam = 5, 2.8, 3.0
    grid = cylinder_grid(d, 20.0 / math.sqrt(lam), 300, 8)
    phi = solve_symmetric(d, p, lam, grid)
    mu_line, t_line = symmetric_quotient(grid, p, lam)
    out = cylinder_quotient(phi, lam, p)
    assert out["mu"] == pytest.approx(mu_line, rel=1e-12)
    assert out["t"] == pytest.approx(t_line, rel=1e-12)
    # the theta < 1 value interpolates between energy and mass factors
    theta = 0.8
    out_theta = cylinder_quotient(phi, lam, p, theta=theta)
    expected = (t_line + lam) ** theta * out["mu"] / (t_line + lam)
    assert out_theta["mu"] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DegenerateInput):
        cylinder_quotient(CylinderField(grid, np.zeros((300, 8)), p=p), lam,
                          p)
    with pytest.raises(DomainError):
        cylinder_quotient(np.ones(10), lam, p)


def test_gaussian_quotient_dips_below_one():
    assert gaussian_h(3, 2.01) < 1.0
    assert gaussian_h(3, 2.01) == pytest.approx(0.99809242, rel=1e-6)
    assert gaussian_h(5, 2.0 + 1e-6) == pytest.approx(1.0, abs=1e-3)
