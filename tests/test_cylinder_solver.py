"""Discrete cylinder solves: profiles, spectra, continuation."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from cknlab import (
    ContinuationConfig,
    ContinuationStalled,
    DomainError,
    NewtonDiverged,
    angular_amplitude,
    continue_branch,
    cylinder_grid,
    cylinder_quotient,
    lambda_fs_value,
    linearized_spectrum,
    phi_star,
    solve_symmetric,
    symmetric_quotient,
)
from cknlab import cylinder_solver
from cknlab.cylinder_solver import (
    _BorderedKeller,
    _apply_s_operator,
    _locate_bifurcation,
    _residual_2d,
    _s_operator,
    _sector_operator,
    _symmetric_profile,
    default_grid,
)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_grid_validation():
    with pytest.raises(DomainError):
        cylinder_grid(1, 10.0, 40, 4)
    with pytest.raises(DomainError):
        cylinder_grid(5, 10.0, 40, 3)
    with pytest.raises(DomainError):
        cylinder_grid(5, -1.0, 40, 4)
    for lam in (0.0, math.nan):
        with pytest.raises(DomainError, match="lam_min"):
            default_grid(5, lam, 40, 4)
        with pytest.raises(DomainError, match="Lambda"):
            solve_symmetric(5, 2.8, lam)
    with pytest.raises(DomainError):
        solve_symmetric(5, 3.4, 1.0)
    with pytest.raises(DomainError):
        solve_symmetric(5, 2.8, -1.0)


def test_symmetric_solve_defaults_to_the_continuation_grid():
    cfg = ContinuationConfig()
    grid = solve_symmetric(5, 2.8, 2.0).grid
    assert (grid.m_cells, grid.nz) == (cfg.m_cells, cfg.nz)


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
    evs = linearized_spectrum(phi, 0, count=2)
    # ground level of the sech-squared well, exact in the continuum
    assert rel(evs[0], -0.25 * (p * p - 4.0) * lam) < 1e-3
    # translation mode: the discrete eigenvalue sits at rounding level
    assert abs(evs[1]) < 1e-8


def test_linearization_spectrum_in_the_first_zonal_sector():
    d, p, lam = 5, 2.8, 6.0
    phi = solve_symmetric(d, p, lam)
    low = linearized_spectrum(phi, 1, count=1)[0]
    predicted = -0.25 * (p * p - 4.0) * (lam - lambda_fs_value(d, p))
    assert rel(low, predicted) < 1e-3


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_s_operator_on_a_field_matches_it_column_by_column(parity):
    rng = np.random.default_rng(7)
    main, off = _s_operator(50, 0.3, parity)
    field = rng.standard_normal((50, 6))
    got = _apply_s_operator(main, off, field)
    for k in range(field.shape[1]):
        assert np.array_equal(got[:, k],
                              _apply_s_operator(main, off, field[:, k]))


def test_first_sector_operator_keeps_the_inline_diagonal_bits():
    # the critical-eigenfunction solve wrote delta_1 = d - 1 out by hand
    d, p, lam = 5, 2.8, 4.2
    grid = default_grid(d, lam, 120, 4)
    profile = _symmetric_profile(grid, p, lam)
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    diag, got_off = _sector_operator(grid, p, lam, profile, 1, "even")
    assert np.array_equal(
        diag, main + lam + (d - 1.0) - (p - 1.0) * profile ** (p - 2.0))
    assert np.array_equal(got_off, off)


def test_linearization_input_checks():
    d, p, lam = 5, 2.8, 3.0
    grid = default_grid(d, lam, 120, 8)
    phi = solve_symmetric(d, p, lam, grid)
    with pytest.raises(DomainError):
        linearized_spectrum(phi, -1)
    with pytest.raises(DomainError):
        linearized_spectrum(phi, 1, count=0)
    skewed = grid.field(phi.values * (1.0 + 0.1 * grid.z[None, :]), p=p,
                        Lambda=lam)
    with pytest.raises(DomainError, match="zonal spread"):
        linearized_spectrum(skewed, 1)
    anonymous = grid.field(phi.values.copy())
    no_lambda = grid.field(phi.values.copy(), p=p)
    for bare in (anonymous, no_lambda):
        with pytest.raises(DomainError, match="no exponent p or no Lambda"):
            linearized_spectrum(bare, 1)


def test_truncation_length_is_resolved():
    d, p, lam = 5, 2.8, 3.0
    mu1, _ = symmetric_quotient(
        cylinder_grid(d, 20.0 / math.sqrt(lam), 400, 8), p, lam)
    mu2, _ = symmetric_quotient(
        cylinder_grid(d, 40.0 / math.sqrt(lam), 800, 8), p, lam)
    assert rel(mu1, mu2) < 1e-12


def test_every_branch_point_solves_the_discrete_equation(branch_5_2_8):
    # each stored field meets the corrector's 1e-10 stop (worst seen:
    # 9.9e-11), and the independent quotient of the field reproduces the
    # recorded mu (worst seen: 7.2e-16 relative)
    branch, _ = branch_5_2_8
    grid = branch.grid
    for point in branch.points:
        u = point.field.values
        residual = _residual_2d(grid, branch.p, point.lam, u)
        assert np.max(np.abs(residual)) <= 1e-10, point.lam
        got = cylinder_quotient(point.field, point.lam, branch.p)["mu"]
        assert rel(got, point.mu) < 1e-12, point.lam


def test_continuation_config_validation():
    for lambda_max in (-1.0, math.nan):
        with pytest.raises(DomainError, match="lambda_max"):
            ContinuationConfig(lambda_max=lambda_max)


def test_branch_stops_at_the_point_cap(monkeypatch):
    # the walk records at most _MAX_POINTS points, even short of lambda_max
    monkeypatch.setattr(cylinder_solver, "_MAX_POINTS", 4)
    config = ContinuationConfig(m_cells=40, nz=4)
    branch = continue_branch(5, 2.8, config)
    assert len(branch) == 4
    assert branch.points[-1].lam < config.lambda_max


def test_short_cylinders_fail_with_their_state():
    # at length 0.5 the polish steps out of the positive cone, where
    # phi^(p-1) is NaN; at length 1.0 the k=1 eigenvalue is negative on
    # the whole bracket around the threshold
    with pytest.raises(NewtonDiverged) as info:
        continue_branch(5, 2.8, ContinuationConfig(length=0.5, m_cells=40,
                                                   nz=4))
    assert not math.isfinite(info.value.residual)
    assert info.value.iterations >= 1
    with pytest.raises(ContinuationStalled) as info:
        continue_branch(5, 2.8, ContinuationConfig(length=1.0, m_cells=40,
                                                   nz=4))
    assert info.value.lam == lambda_fs_value(5, 2.8)


def test_branch_switch_that_never_lands_stalls_at_the_onset(monkeypatch):
    # with no corrector iteration allowed every Keller step gives up, so
    # each switch try halves the step until the tries run out
    lam_fs = lambda_fs_value(5, 2.8)
    grid = cylinder_grid(5, 20.0 / math.sqrt(lam_fs), 40, 4)
    lam_b = _locate_bifurcation(grid, 2.8, lam_fs)
    monkeypatch.setattr(cylinder_solver, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(ContinuationStalled,
                       match="branch switch never produced") as info:
        continue_branch(5, 2.8, ContinuationConfig(m_cells=40, nz=4))
    assert info.value.lam == lam_b


def test_steps_that_never_land_stall_at_the_last_point(monkeypatch):
    # three points land; from then on every Keller step gives up, so the
    # step is halved until the failures in a row run out
    recorded = []
    quotient = cylinder_solver._quotient_data

    def three_points(grid, p, lam, u):
        recorded.append(lam)
        if len(recorded) == 3:
            monkeypatch.setattr(cylinder_solver, "_NEWTON_MAX_ITER", 0)
        return quotient(grid, p, lam, u)

    monkeypatch.setattr(cylinder_solver, "_quotient_data", three_points)
    with pytest.raises(ContinuationStalled) as info:
        continue_branch(5, 2.8, ContinuationConfig(m_cells=40, nz=4))
    assert len(recorded) == 3
    assert info.value.lam == recorded[-1]
    assert str(info.value) == \
        f"step size underflowed at lam={recorded[-1]:.5f}"


def test_branch_shape_and_diagnostics(branch_5_2_8):
    branch, _ = branch_5_2_8
    lam_fs = lambda_fs_value(5, 2.8)
    assert branch.predicted_lambda_fs == pytest.approx(lam_fs, rel=1e-15)
    assert rel(branch.bifurcation_lambda, lam_fs) < 1e-3
    assert len(branch) == 71
    assert int(branch.column("newton_iters").sum()) == 218
    lam = branch.column("lam")
    assert np.all(np.diff(lam) > 0.0)
    assert lam[-1] >= ContinuationConfig().lambda_max
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


def _kron_operator(grid):
    """-d2/ds2 - Lap_omega on the s-major unknowns, by Kronecker products."""
    m, nz = grid.m_cells, grid.nz
    main, off = _s_operator(m, grid.h, "even")
    a_s = sp.diags([off, main, off], [-1, 0, 1], shape=(m, m), format="csr")
    return sp.kron(a_s, sp.identity(nz), format="csr") \
        + sp.kron(sp.identity(m), sp.csr_matrix(-grid.lap_z), format="csr")


def _kron_jacobian(grid, p, lam, u):
    diag_term = lam - (p - 1.0) * np.maximum(u, 0.0) ** (p - 2.0)
    return (_kron_operator(grid) + sp.diags(diag_term.ravel())).tocsc()


def _bordered_reference(grid, p, lam, u, row):
    return sp.vstack([
        sp.hstack([_kron_jacobian(grid, p, lam, u),
                   sp.csr_matrix(u.ravel()[:, None])]),
        sp.csr_matrix(row[None, :]),
    ]).tocsc()


def _bordered_reference_solve(grid, p, lam, u, row, rhs):
    """Per-call assembly and COLAMD factorization of the bordered matrix."""
    return splu(_bordered_reference(grid, p, lam, u, row)).solve(rhs)


def test_ordered_bordered_solve_is_bit_identical(branch_5_2_8):
    branch, _ = branch_5_2_8
    grid, p = branch.grid, branch.p
    keller = _BorderedKeller(grid)
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


@pytest.mark.parametrize("d, length, m_cells, nz", [
    (5, 20.0 / math.sqrt(lambda_fs_value(5, 2.8)), 400, 20),
    (3, 8.0, 120, 8),
    (4, 6.0, 60, 6),
], ids=["continuation_grid", "d3", "d4"])
def test_dropping_ilu_orders_columns_like_a_full_lu(d, length, m_cells, nz):
    # the column order is read off an ILU that keeps no entry; it must be
    # the COLAMD order a full splu of the same pattern uses, and every
    # entry of this template is stored (no zero u, corner or row entry)
    grid = cylinder_grid(d, length, m_cells, nz)
    n = m_cells * nz
    template = _bordered_reference(grid, 3.0, 3.0, np.ones((m_cells, nz)),
                                   np.ones(n + 1))
    assert template.nnz == _kron_operator(grid).nnz + 2 * n + 1
    perm_c = splu(template).perm_c
    assert np.array_equal(_BorderedKeller(grid)._order, np.argsort(perm_c))


def test_bordered_assembly_memory_is_bounded():
    # tracemalloc peak of the assembly on continue_branch(5, 2.8)'s grid:
    # 6.3 MB from the stencil, against 18 MB for a Kronecker-product
    # assembly with a full splu of the template
    cfg = ContinuationConfig()
    grid = cylinder_grid(5, 20.0 / math.sqrt(lambda_fs_value(5, 2.8)),
                         cfg.m_cells, cfg.nz)
    _BorderedKeller(cylinder_grid(5, 4.0, 40, 4))  # loads its lazy imports
    tracemalloc.start()
    try:
        _BorderedKeller(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_symmetric_polish_fails_when_it_stalls_or_runs_out(monkeypatch):
    grid = default_grid(5, 2.0, 400, 4)
    # the sampled profile is far from the tolerance, and a budget of one
    # iteration ends after the first Newton step
    monkeypatch.setattr(cylinder_solver, "_POLISH_MAX_ITER", 1)
    with pytest.raises(NewtonDiverged, match="used all 1 iterations") as info:
        _symmetric_profile(grid, 2.8, 2.0)
    assert info.value.iterations == 1
    monkeypatch.undo()
    # a solve that never moves the profile stalls at the sampling error
    monkeypatch.setattr(cylinder_solver, "_tridiagonal_solve",
                        lambda lower, diag, upper, rhs: np.zeros_like(rhs))
    with pytest.raises(NewtonDiverged, match="stalled at residual") as info:
        _symmetric_profile(grid, 2.8, 2.0)
    assert info.value.iterations == 1
    assert info.value.residual > 1e-10
