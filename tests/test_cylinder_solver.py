"""Discrete cylinder solves: profiles, spectra, Newton, continuation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from cknlab import (
    ContinuationConfig,
    DomainError,
    angular_amplitude,
    cylinder_grid,
    cylinder_quotient,
    lambda_fs_value,
    linearized_spectrum,
    newton_solve,
    phi_star,
    solve_symmetric,
    symmetric_quotient,
)
from cknlab.cylinder_solver import (
    _BorderedKeller,
    _fixed_operator,
    _s_operator,
    default_grid,
)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_grid_validation():
    with pytest.raises(DomainError):
        cylinder_grid(1, 10.0)
    with pytest.raises(DomainError):
        cylinder_grid(5, 10.0, nz=3)
    with pytest.raises(DomainError):
        cylinder_grid(5, -1.0)
    with pytest.raises(DomainError):
        default_grid(5, 0.0)
    with pytest.raises(DomainError):
        solve_symmetric(5, 3.4, 1.0)
    with pytest.raises(DomainError):
        solve_symmetric(5, 2.8, -1.0)


def test_symmetric_solve_converges_at_second_order():
    d, p, lam = 5, 2.8, 3.0
    errs = []
    for m in (200, 400):
        grid = default_grid(d, lam, m, 8)
        prof = solve_symmetric(d, p, lam, grid).values[:, 0]
        exact = phi_star(grid.s, p, lam)
        errs.append(np.max(np.abs(prof - exact)) / np.max(exact))
    assert errs[1] < 2e-4
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_symmetric_solve_satisfies_discrete_equation():
    d, p, lam = 5, 2.8, 3.0
    grid = default_grid(d, lam, 400, 8)
    prof = solve_symmetric(d, p, lam, grid).values[:, 0]
    padded = np.concatenate([[prof[0]], prof, [0.0]])
    resid = ((2.0 * padded[1:-1] - padded[:-2] - padded[2:]) / grid.h ** 2
             + lam * prof - prof ** (p - 1.0))
    assert np.max(np.abs(resid)) < 1e-10


def test_quotient_equals_lp_norm_power_at_solution():
    d, p, lam = 5, 2.8, 3.0
    grid = default_grid(d, lam, 400, 8)
    phi = solve_symmetric(d, p, lam, grid)
    mu, t = symmetric_quotient(grid, p, lam)
    assert rel(mu, phi.lp_norm(p) ** (p - 2.0)) < 1e-8
    assert rel(t, lam * (p - 2.0) / (p + 2.0)) < 1e-3


def test_linearization_spectrum_in_the_symmetric_sector():
    d, p, lam = 5, 2.8, 6.0
    phi = solve_symmetric(d, p, lam)
    evs = linearized_spectrum(phi, lam, 0, count=2)
    # ground level of the sech-squared well, exact in the continuum
    assert rel(evs[0], -0.25 * (p * p - 4.0) * lam) < 1e-3
    # translation mode: the discrete eigenvalue sits at rounding level
    assert abs(evs[1]) < 1e-8


def test_linearization_spectrum_in_the_first_zonal_sector():
    d, p, lam = 5, 2.8, 6.0
    phi = solve_symmetric(d, p, lam)
    low = linearized_spectrum(phi, lam, 1, count=1)[0]
    predicted = -0.25 * (p * p - 4.0) * (lam - lambda_fs_value(d, p))
    assert rel(low, predicted) < 1e-3


def test_linearization_input_checks():
    d, p, lam = 5, 2.8, 3.0
    grid = default_grid(d, lam, 120, 8)
    phi = solve_symmetric(d, p, lam, grid)
    with pytest.raises(DomainError):
        linearized_spectrum(phi, lam, -1)
    with pytest.raises(DomainError):
        linearized_spectrum(phi, lam, 1, count=0)
    skewed = grid.field(phi.values * (1.0 + 0.1 * grid.z[None, :]), p=p)
    with pytest.raises(DomainError):
        linearized_spectrum(skewed, lam, 1)
    anonymous = grid.field(phi.values.copy())
    with pytest.raises(DomainError):
        linearized_spectrum(anonymous, lam, 1)


def test_truncation_length_is_resolved():
    d, p, lam = 5, 2.8, 3.0
    mu1, _ = symmetric_quotient(
        cylinder_grid(d, 20.0 / math.sqrt(lam), 400, 8), p, lam)
    mu2, _ = symmetric_quotient(
        cylinder_grid(d, 40.0 / math.sqrt(lam), 800, 8), p, lam)
    assert rel(mu1, mu2) < 1e-12


def test_newton_keeps_symmetric_solutions_symmetric():
    d, p, lam = 5, 2.8, 3.0
    grid = default_grid(d, lam, 200, 12)
    prof = solve_symmetric(d, p, lam, grid).values[:, 0]
    init = grid.field(prof[:, None] * (1.0 + 1e-8 * grid.z[None, :]), p=p)
    out = newton_solve(init, lam)
    assert angular_amplitude(out) < 1e-7
    mu, _ = symmetric_quotient(grid, p, lam)
    assert rel(cylinder_quotient(out, lam, p)["mu"], mu) < 1e-10
    with pytest.raises(DomainError):
        newton_solve(grid.field(init.values), lam)
    with pytest.raises(DomainError):
        newton_solve(init, -2.0)


def test_newton_repolishes_broken_branch_points(branch_5_2_8):
    branch, _ = branch_5_2_8
    point = branch.points[len(branch.points) // 2]
    out = newton_solve(point.field, point.lam)
    assert angular_amplitude(out) == pytest.approx(
        angular_amplitude(point.field), rel=1e-8)
    assert angular_amplitude(out) > 0.5
    got = cylinder_quotient(out, point.lam, branch.p)["mu"]
    assert rel(got, point.mu) < 1e-12


def test_continuation_config_validation():
    with pytest.raises(DomainError):
        ContinuationConfig(lambda_max=-1.0)
    with pytest.raises(DomainError):
        ContinuationConfig(ds_init=0.5, ds_max=0.1)
    with pytest.raises(DomainError):
        ContinuationConfig(ds_growth=0.5)
    with pytest.raises(DomainError):
        ContinuationConfig(max_points=1)


def test_branch_shape_and_diagnostics(branch_5_2_8):
    branch, _ = branch_5_2_8
    lam_fs = lambda_fs_value(5, 2.8)
    assert branch.predicted_lambda_fs == pytest.approx(lam_fs, rel=1e-15)
    assert rel(branch.bifurcation_lambda, lam_fs) < 1e-3
    assert len(branch) == 71
    assert int(branch.column("newton_iters").sum()) == 218
    lam = branch.column("lam")
    assert np.all(np.diff(lam) > 0.0)
    assert lam[-1] >= branch.config.lambda_max
    assert np.all(branch.column("residual") <= 1e-9)
    arc = branch.column("arclength")
    # each point records the step increment it was reached by, and every
    # accepted Keller step has a positive pseudo-arclength
    assert np.all(arc > 0.0)
    assert np.all(branch.column("lowest_eig") < 0.0)
    assert angular_amplitude(branch.points[-1].field) > 0.5
    rows = list(branch.as_rows())
    assert len(rows) == len(branch)
    assert rows[0][0] == branch.points[0].lam
    assert all(len(row) == 8 for row in rows)


def _bordered_reference_solve(grid, p, lam, u, row, rhs):
    """Per-call assembly and COLAMD factorization of the bordered matrix."""
    m, nz = grid.m_cells, grid.nz
    main, off = _s_operator(m, grid.h, "even")
    a_s = sp.diags([off, main, off], [-1, 0, 1], shape=(m, m), format="csr")
    jac = sp.kron(a_s, sp.identity(nz), format="csr") \
        + sp.kron(sp.identity(m), sp.csr_matrix(-grid.lap_z), format="csr")
    diag_term = lam - (p - 1.0) * np.maximum(u, 0.0) ** (p - 2.0)
    jac = (jac + sp.diags(diag_term.ravel())).tocsc()
    bordered = sp.vstack([
        sp.hstack([jac, sp.csr_matrix(u.ravel()[:, None])]),
        sp.csr_matrix(row[None, :]),
    ]).tocsc()
    return splu(bordered).solve(rhs)


def test_ordered_bordered_solve_is_bit_identical(branch_5_2_8):
    branch, _ = branch_5_2_8
    grid, p = branch.grid, branch.p
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    keller = _BorderedKeller(_fixed_operator(grid, main, off))
    w2 = grid.h * np.tile(grid.wz, grid.m_cells)
    rng = np.random.default_rng(0)
    # switch step: symmetric solution at the onset, tangent along the first
    # zonal harmonic with a lam entry of exactly 0 (an unstored corner)
    lam_b = branch.bifurcation_lambda
    u_b = solve_symmetric(5, p, lam_b, grid).values
    row_b = np.append(w2 * (u_b * grid.z[None, :]).ravel(), 0.0)
    # a later point, with the secant tangent the continuation uses there
    prev, point = branch.points[29], branch.points[30]
    secant = np.append((point.field.values - prev.field.values).ravel(),
                       point.lam - prev.lam)
    row_k = np.append(w2 * secant[:-1], secant[-1])
    for lam, u, row in ((lam_b, u_b, row_b),
                        (point.lam, point.field.values, row_k)):
        rhs = rng.standard_normal(u.size + 1)
        got = keller.solve(p, lam, u, row, rhs)
        assert np.array_equal(got, _bordered_reference_solve(
            grid, p, lam, u, row, rhs))
