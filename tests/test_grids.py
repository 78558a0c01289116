"""Quadrature rules, stencils, grid containers, and the zonal volumes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import eval_gegenbauer, gamma as gamma_fn

from cknlab import (
    CylinderField,
    DegenerateInput,
    DomainError,
    InversionError,
    SingularSystem,
    branch_analysis,
    cylinder_grid,
    cylinder_solver,
    derive_params,
    lambda_fs_value,
    lemma_criterion,
    mu_star,
    params,
    fv_zonal_grid,
    tensor_grid,
    zonal_gegenbauer_basis,
    zonal_laplacian,
    zonal_quadrature,
)
from cknlab import grids
from cknlab.grids import (
    GridFunction1D,
    _tridiagonal_solve,
    brent_root,
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


@pytest.mark.parametrize("n", [1, 2, 8, 16, 400])
def test_legendre_rule_is_symmetric_exact_and_shared(n):
    # n = 400 is the GN oracle's rule.  SciPy's roots_legendre(400) misses
    # this bound from degree 4 on, and degree 798 by 1.6e-11
    x, w = grids._legendre_rule(n)
    assert np.array_equal(x, -x[::-1])
    assert np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    assert abs(np.sum(w) - 2.0) < 1e-14
    for k in range(n):
        exact = 2.0 / (2 * k + 1)
        assert abs(np.sum(w * x ** (2 * k)) - exact) <= 1e-13 * exact, k
    assert grids._legendre_rule(n)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
    # on the circle (d = 2) the basis is Chebyshev's, with eigenvalues -k^2
    for sphere_dim in (4, 1):
        z, w = zonal_quadrature(sphere_dim, 24)
        basis = zonal_gegenbauer_basis(sphere_dim, z, 5)
        lap = zonal_laplacian(sphere_dim, z, w)
        for k in range(basis.shape[1]):
            gk = basis[:, k]
            resid = lap @ gk + k * (k + sphere_dim - 1) * gk
            scale = max(1.0, k * (k + sphere_dim - 1)) * np.max(np.abs(gk))
            assert np.max(np.abs(resid)) < 1e-9 * scale, (sphere_dim, k)


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


def _scalar_fornberg(x0, x, m):
    # the recurrence one stencil at a time, as the package had it before
    # it ran all stencils of a matrix as one stack
    n = len(x)
    c = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1]
                                    - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def _per_row_stencil(x, order):
    # one row at a time, with the row's own weight taking the correction
    # that makes the row sum to zero
    n = len(x)
    npts = min(5, n)
    cols = np.zeros((n, npts), dtype=np.intp)
    weights = np.zeros((n, npts))
    for i in range(n):
        j0 = min(max(i - npts // 2, 0), n - npts)
        cols[i] = np.arange(j0, j0 + npts)
        weights[i] = _scalar_fornberg(x[i], x[j0:j0 + npts], order)[order]
        if order >= 1:
            weights[i, i - j0] -= weights[i].sum()
    return cols, weights


def test_stacked_fornberg_stencils_are_bit_identical():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 9, 40):
        x = np.sort(rng.uniform(-1.0, 2.0, n))
        for order in range(3):
            got = derivative_matrix(x, order)
            cols, weights = _per_row_stencil(x, order)
            assert np.array_equal(got.cols, cols), (n, order)
            assert got.weights.tobytes() == weights.tobytes(), (n, order)
    grid = tensor_grid(3)
    for name, x, order in (("Dr", grid.r, 1), ("Drr", grid.r, 2),
                           ("Dz", grid.z, 1), ("Dzz", grid.z, 2)):
        cols, weights = _per_row_stencil(x, order)
        assert np.array_equal(getattr(grid, name).cols, cols), name
        assert getattr(grid, name).weights.tobytes() == weights.tobytes(), name
    # the one-stencil call is the same recurrence
    x = np.array([-1.3, -0.4, 0.0, 0.7, 1.1, 2.0, 2.4])
    assert (fornberg_weights(0.45, x, 2).tobytes()
            == _scalar_fornberg(0.45, x, 2).tobytes())


def test_derivative_matrix_exact_on_quartics():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0.0, 2.0, 40))
    d1 = derivative_matrix(x, 1)
    np.testing.assert_allclose(d1.apply(x ** 4), 4.0 * x ** 3,
                               rtol=0, atol=1e-9)
    assert np.max(np.abs(d1.apply(np.ones_like(x)))) < 1e-12
    d2 = derivative_matrix(x, 2)
    np.testing.assert_allclose(d2.apply(x ** 3), 6.0 * x, rtol=0, atol=1e-8)


def test_stencil_applies_along_either_axis_of_a_field():
    # along axis 0 each column, along axis 1 each row, bit for bit as the
    # one-dimensional operator, which is the dense row times the vector
    rng = np.random.default_rng(17)
    x = np.sort(rng.uniform(0.5, 3.0, 12))
    op = derivative_matrix(x, 2)
    field = rng.normal(size=(12, 7))
    down = op.apply(field)
    across = op.apply(field.T.copy(), axis=1)
    for j in range(7):
        assert down[:, j].tobytes() == op.apply(field[:, j]).tobytes()
        assert across[j].tobytes() == op.apply(field[:, j]).tobytes()
    dense = np.zeros((12, 12))
    dense[np.arange(12)[:, None], op.cols] = op.weights
    np.testing.assert_allclose(down, dense @ field, rtol=1e-13, atol=1e-13)


def test_too_few_nodes_for_the_derivative_raise():
    # with fewer than order + 1 nodes the recurrence yields only zeros,
    # which would drop terms from the curvature remainder unnoticed
    with pytest.raises(DomainError):
        derivative_matrix(np.array([0.0, 1.0]), 2)
    with pytest.raises(DomainError):
        derivative_matrix(np.array([0.5]), 1)
    with pytest.raises(DomainError):
        tensor_grid(3, nz=2)
    with pytest.raises(DomainError):
        tensor_grid(3, n_panels=1, n_nodes=1)
    # order + 1 nodes are enough: the two-point slope is exact on lines
    line = derivative_matrix(np.array([0.0, 1.0]), 1)
    np.testing.assert_allclose(line.apply(np.array([2.0, 5.0])), [3.0, 3.0],
                               rtol=0, atol=1e-15)


def test_tensor_grid_holds_no_dense_operator():
    # dense derivative matrices take 16.8 MB at the default 1,024 radial
    # nodes; four five-point stencils take about 0.2 MB
    tensor_grid(3, n_panels=2, nz=8)  # loads the zonal rule's module
    tracemalloc.start()
    try:
        tensor_grid(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_grid_function_validation():
    grid = fv_zonal_grid(3, 4)
    with pytest.raises(DomainError):
        GridFunction1D(grid, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateInput):
        GridFunction1D(grid, np.array([1.0, np.nan, 1.0, 1.0]))
    # cancellation in the end cells puts these centroids out of order
    with pytest.raises(DomainError):
        fv_zonal_grid(6, 242)


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
    grid = fv_zonal_grid(3, 48)
    assert fv_zonal_grid(3, 48) is grid
    for arr in (grid.centroids, grid.cell_mass, grid.flux, grid.lap_di):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    fresh = fv_zonal_grid.__wrapped__(3, 48)
    assert fresh is not grid
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
    gf = GridFunction1D(grid, np.ones(grid.n))
    assert gf.mass == pytest.approx(1.0, rel=1e-13)


def test_tensor_grid_stencils_and_weights():
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=24, n_nodes=6, nz=12)
    r, z = grid.r, grid.z
    np.testing.assert_allclose(grid.Dr.apply(r ** 3), 3.0 * r ** 2,
                               rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(grid.Drr.apply(r ** 3), 6.0 * r,
                               rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(grid.Dz.apply(z ** 2), 2.0 * z,
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(grid.Dzz.apply(z ** 3), 6.0 * z,
                               rtol=0, atol=1e-10)
    n = 3.125
    total = float(np.sum(grid.radial_weights(n)))
    assert total == pytest.approx((1e2 ** n - 1e-2 ** n) / n, rel=1e-12)
    field = grid.sample(lambda rr, zz: rr * zz)
    assert field.shape == (len(r), len(z))
    np.testing.assert_array_equal(field, r[:, None] * z[None, :])


def test_tensor_grid_radial_weights_stay_within_four_ulp():
    # the weights as the grid built them from its own log-interval rule:
    # t-weights times r^n; the dr-weights of log_radial_quadrature round
    # once more, by about 2 ulp
    grid = tensor_grid(3)
    t, wt = grids.gauss_panels(np.log(1e-4), np.log(1e4), 128, 8)
    r = np.exp(t)
    assert np.array_equal(grid.r, r)
    for n in (1.0, 2.0, 3.0, 3.125, 5.0):
        want = wt * r ** n
        got = grid.radial_weights(n)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want)), n


def test_half_line_grid_cell_centers():
    s, h = half_line_grid(10.0, 100)
    assert h == pytest.approx(0.1)
    assert s[0] == pytest.approx(0.05)
    assert s[-1] == pytest.approx(10.0 - 0.05)
    np.testing.assert_allclose(np.diff(s), h, rtol=1e-12)


def test_cylinder_field_integration():
    grid = cylinder_grid(5, 4.0, 40, 8)
    field = CylinderField(grid, np.ones((40, 8)))
    # both halves of the cylinder count
    assert field.integrate(field.values) == pytest.approx(8.0, rel=1e-13)
    assert field.lp_norm(2.8) == pytest.approx(8.0 ** (1.0 / 2.8), rel=1e-13)
    with pytest.raises(DomainError):
        CylinderField(grid, np.ones((40, 7)))


def _root_family(rng):
    """One random function with a root and a bracket around it.

    The last member's products underflow to 0, which sends the
    extrapolation through its division-by-zero branch.
    """
    c, k = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
    f = (lambda x: math.tanh(k * (x - c)),
         lambda x: (x - c) ** 3 + k * (x - c),
         lambda x: math.expm1(k * (x - c)),
         lambda x: math.atan(1e4 * (x - c)) + 0.1 * k * (x - c),
         lambda x: 1e-300 * k * (x - c) ** 3)[int(rng.integers(5))]
    return f, c - rng.uniform(0.01, 4.0), c + rng.uniform(0.01, 4.0)


def test_brent_root_is_bit_identical_to_scipy_brentq():
    rng = np.random.default_rng(20261018)
    for tols in ({}, {"xtol": 1e-13, "rtol": 8.9e-16},
                 {"xtol": 1e-12, "rtol": 1e-14}) * 100:
        f, a, b = _root_family(rng)
        if rng.random() < 0.5:
            a, b = b, a
        assert brent_root(f, a, b, **tols) == brentq(f, a, b, **tols)


def test_tridiagonal_solve_matches_solve_banded_and_fails_typed():
    rng = np.random.default_rng(20261019)
    n = 384
    lower, upper = rng.uniform(-1.0, 0.0, (2, n - 1))
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-1.0, 1.0, n)
    band = np.zeros((3, n))
    band[0, 1:], band[1], band[2, :-1] = upper, diag, lower
    got = _tridiagonal_solve(lower, diag, upper, rhs)
    assert got.tobytes() == solve_banded((1, 1), band, rhs).tobytes()
    with pytest.raises(SingularSystem) as info:
        _tridiagonal_solve(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
    assert info.value.info == 1


def test_call_sites_find_the_roots_scipy_finds(monkeypatch):
    found = set()

    def both(f, a, b, **tols):
        got = brent_root(f, a, b, **tols)
        assert got == brentq(f, a, b, **tols), f.__qualname__
        found.add(f.__qualname__.partition(".")[0])
        return got

    # the symmetric constant and the criterion's bracket are closed forms,
    # so only the bifurcation search finds a root
    for module in (params, branch_analysis):
        assert not hasattr(module, "brent_root"), module.__name__
    monkeypatch.setattr(cylinder_solver, "brent_root", both)
    lam_fs = lambda_fs_value(5, 2.8)
    grid = cylinder_solver.cylinder_grid(5, 20.0 / math.sqrt(lam_fs), 200, 8)
    cylinder_solver._locate_bifurcation(grid, 2.8, lam_fs)
    mu_star(derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder"), 2.5, 0.8)
    assert lemma_criterion(5, 2.8).breaking_predicted
    assert found == {"_locate_bifurcation"}


def test_brent_root_returns_an_end_that_is_a_root():
    # the other end has the same sign as the rest of the bracket, which
    # the sign test alone would refuse; no step is taken past the ends
    calls = []

    def counted(f):
        def g(x):
            calls.append(x)
            return f(x)
        return g

    assert brent_root(counted(lambda x: x - 1.0), 1.0, 3.0) == 1.0
    assert brent_root(counted(lambda x: 1.0 - x), -1.0, 1.0) == 1.0
    assert calls == [1.0, 3.0, -1.0, 1.0]


def test_brent_root_raises_with_its_bracket(monkeypatch):
    with pytest.raises(InversionError,
                       match=r"no sign change; bracket \[-1\.0, 2\.0\] "
                             r"with f = 2\.000000e\+00, 5\.000000e\+00"):
        brent_root(lambda x: x * x + 1.0, -1.0, 2.0)
    with pytest.raises(InversionError,
                       match=r"NaN at an end; bracket \[0\.0, 2\.0\] "
                             r"with f = -1\.000000e\+00, nan"):
        brent_root(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0)
    # the first secant step lands on 1.0
    with pytest.raises(InversionError,
                       match=r"f\(1\.0\) is NaN; bracket \[0\.0, 3\.0\] "
                             r"with f = -1\.000000e\+00, 2\.000000e\+00"):
        brent_root(lambda x: math.nan if 0.9 < x < 1.1 else x - 1.0, 0.0, 3.0)
    monkeypatch.setattr(grids, "_BRENT_MAXITER", 3)
    with pytest.raises(InversionError,
                       match=r"no convergence in 3 steps .*; "
                             r"bracket \[0\.0, 4\.0\] "
                             r"with f = -1\.570719e\+00, 1\.570759e\+00"):
        brent_root(lambda x: math.atan(1e4 * (x - 1.3)), 0.0, 4.0)
