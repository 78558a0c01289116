"""Reparametrized curves, the shooting oracle, and breaking criteria."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from cknlab import (
    AdmissibilityError,
    DomainError,
    ShootingFailed,
    classify_bifurcation,
    conjecture_probe,
    derive_params,
    gn_constant,
    gn_ground_state,
    lambda_fs_theta,
    lemma_criterion,
    mu_star,
    mu_star_theta_line,
    reparametrize,
)
from cknlab import branch_analysis
from cknlab.branch_analysis import (
    ProbeRow,
    _monotone_increasing,
    _shoot_once,
    _slope_and_turnings,
    _witness_scan,
    branch_direction,
    gn_quotient,
    grid_theta_reference,
)
from cknlab.cylinder_solver import CylinderGrid, symmetric_quotient
from cknlab.grids import half_line_grid, zonal_laplacian, zonal_quadrature


def rel(a, b):
    return abs(a - b) / abs(b)


def test_reparametrize_identity_at_theta_one(branch_5_2_8):
    branch, _ = branch_5_2_8
    curve = reparametrize(branch, 1.0)
    np.testing.assert_array_equal(curve.Lambda, branch.column("lam"))
    np.testing.assert_array_equal(curve.mu, branch.column("mu"))
    # the curve's symmetric reference comes from the line quadrature, the
    # branch's from its own grid, so they differ by the O(h^2) grid bias
    np.testing.assert_allclose(curve.mu_star_theta,
                               branch.column("mu_star"), rtol=5e-4)
    with pytest.raises(AdmissibilityError):
        reparametrize(branch, 0.5)


def test_classification_right_at_theta_one(branch_5_2_8):
    branch, _ = branch_5_2_8
    cls = classify_bifurcation(reparametrize(branch, 1.0))
    assert cls.direction == "right"
    assert cls.slope_at_onset > 0.0
    assert cls.turning_points == ()
    assert branch_direction(branch, 1.0) == "right"


def test_classification_left_with_one_turning(branch_5_2_8):
    branch, _ = branch_5_2_8
    theta = 0.718
    cls = classify_bifurcation(reparametrize(branch, theta))
    assert cls.direction == "left"
    assert cls.slope_at_onset < 0.0
    assert len(cls.turning_points) == 1
    turn = cls.turning_points[0]
    assert turn.lam == pytest.approx(7.175, rel=5e-2)
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    assert turn.Lambda < lambda_fs_theta(rec, theta)
    assert branch_direction(branch, theta) == "left"


def test_grid_reference_recovers_stored_column(branch_5_2_8):
    branch, _ = branch_5_2_8
    lam = branch.column("lam")[20:23]
    ref = grid_theta_reference(branch, 1.0, lam)
    np.testing.assert_allclose(ref, branch.column("mu_star")[20:23],
                               rtol=1e-13)


def test_line_minimization_agrees_with_quadrature_constant():
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    got = mu_star_theta_line(5, 2.8, 0.718, 2.5)
    assert rel(got, mu_star(rec, 2.5, 0.718)) < 1e-9
    got = mu_star_theta_line(5, 2.8, 1.0, 4.0)
    assert rel(got, mu_star(rec, 4.0)) < 1e-9


def test_shooting_constant_frozen_values():
    assert rel(gn_constant(5, 2.8), 7.719374785017245) < 1e-9
    assert rel(gn_constant(3, 2.05), 1.09729200391) < 1e-7


def test_ground_state_profile_solves_its_equation():
    d, p = 5, 2.8
    state = gn_ground_state(d, p)
    assert rel(state.height, 19.131017416480972) < 1e-9
    assert state.u[0] == pytest.approx(state.height, rel=1e-6)
    assert np.all(np.diff(state.u) < 0.0)
    r, u, du = state.r, state.u, state.du
    h = r[1] - r[0]
    i = np.arange(2, len(r) - 2)
    d2 = (-u[i - 2] + 16 * u[i - 1] - 30 * u[i] + 16 * u[i + 1]
          - u[i + 2]) / (12.0 * h * h)
    d1 = (u[i - 2] - 8 * u[i - 1] + 8 * u[i + 1] - u[i + 2]) / (12.0 * h)
    resid = d2 + (d - 1.0) / r[i] * d1 - u[i] + u[i] ** (p - 1.0)
    assert np.max(np.abs(resid)) < 1e-5
    np.testing.assert_allclose(d1, du[i], rtol=0, atol=1e-5)


def test_ground_state_is_shared_and_read_only():
    state = gn_ground_state(5, 2.8)
    assert gn_ground_state(5, 2.8) is state
    for arr in (state.r, state.u, state.du):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # u and du own their memory instead of viewing the whole solver output
    for arr in (state.u, state.du):
        assert arr.flags.c_contiguous
        assert arr.base is None


def test_undecided_shot_raises_with_its_state():
    # r_max far below the first zero or minimum: neither event can fire
    with pytest.raises(ShootingFailed) as info:
        _shoot_once(3, 3.0, 2.0, 0.01)
    exc = info.value
    assert (exc.d, exc.p, exc.height, exc.r_max) == (3, 3.0, 2.0, 0.01)


def test_quotient_scale_invariance():
    state = gn_ground_state(5, 2.8)
    base = gn_quotient(5, 2.8, state.r, state.u, state.du)
    assert rel(base, gn_constant(5, 2.8)) < 1e-12
    c = 1.7
    scaled = gn_quotient(5, 2.8, state.r / c, state.u, c * state.du)
    assert rel(scaled, base) < 1e-12


# p = 3.5 sits above the critical exponent 10/3 in dimension five
@pytest.mark.parametrize("call", [
    lambda: gn_ground_state(5, 3.5),
    lambda: gn_quotient(5, 3.5, np.linspace(0.0, 1.0, 4), np.ones(4),
                        np.zeros(4)),
    lambda: gn_constant(5, 3.5),
    lambda: lemma_criterion(5, 3.5),
    lambda: mu_star_theta_line(5, 3.5, 1.0, 1.0),
    lambda: conjecture_probe(5, 3.5, [1.0]),
], ids=["gn_ground_state", "gn_quotient", "gn_constant", "lemma_criterion",
        "mu_star_theta_line", "conjecture_probe"])
def test_out_of_range_exponent_raises_domain_error(call):
    with pytest.raises(DomainError, match="not subcritical"):
        call()


@pytest.mark.parametrize("d, p, c_gn, upper", [
    (5, 2.8, 7.719374785017245, 2.706965057401005),
    (3, 2.05, 1.09729200391, 0.6711633134221795),
])
def test_breaking_criterion_reports(d, p, c_gn, upper):
    report = lemma_criterion(d, p)
    assert report.breaking_predicted
    assert rel(report.c_gn, c_gn) < 1e-7
    assert report.c_gn < report.mu_star_at_fs
    lo, hi = report.lambda_s_bracket
    assert lo == 0.0
    assert rel(hi, upper) < 1e-6
    rec = derive_params(d, {"p": p, "Lambda": 1.0}, "cylinder")
    assert hi < lambda_fs_theta(rec, rec.vartheta)


def test_criterion_bracket_tightens_with_branch(branch_5_2_8):
    branch, _ = branch_5_2_8
    plain = lemma_criterion(5, 2.8)
    with_branch = lemma_criterion(5, 2.8, branch=branch)
    assert with_branch.breaking_predicted
    assert with_branch.lambda_s_bracket[1] <= plain.lambda_s_bracket[1]


def test_probe_rows_and_direction_flip(branch_5_2_8):
    branch, _ = branch_5_2_8
    probe = conjecture_probe(5, 2.8, [0.718, 1.0], branch=branch)
    left, right = probe.rows
    assert left.theta == 0.718
    assert left.direction == "left"
    assert left.witness_exists
    assert not left.monotone_increasing
    assert right.direction == "right"
    assert right.witness_exists
    assert right.monotone_increasing
    assert 0.725 < probe.flip_theta < 0.745
    with pytest.raises(DomainError):
        conjecture_probe(5, 2.8, [], branch=branch)
    with pytest.raises(AdmissibilityError):
        conjecture_probe(5, 2.8, [0.5], branch=branch)


# The theta reading as each caller spelled it out before the formulas
# moved into params; the shared helpers must reproduce it bit for bit.

def _inline_reading(branch, theta):
    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    Lambda = theta * lam - (1.0 - theta) * t_phi
    mu_theta = (t_phi + Lambda) ** theta * branch.column("mu") / (t_phi + lam)
    return Lambda, mu_theta


def _inline_grid_reference(branch, theta, Lambda):
    p = branch.p
    lam_opt = Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    out = np.empty_like(Lambda)
    for i, (lam_s, lam_v) in enumerate(zip(lam_opt, Lambda)):
        mu, t = symmetric_quotient(branch.grid, p, float(lam_s))
        out[i] = (t + lam_v) ** theta * mu / (t + lam_s)
    return out


def _inline_line_constant(d, p, theta, Lambda, m_cells):
    lam_guess = Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    z, wz = zonal_quadrature(d - 1, 4)
    lap_z = zonal_laplacian(d - 1, z, wz)

    def best(cells):
        def quotient(lam):
            length = 20.0 / math.sqrt(lam)
            s, h = half_line_grid(length, cells)
            grid = CylinderGrid(d, length, s, h, z, wz, lap_z)
            mu, t = symmetric_quotient(grid, p, lam)
            return (t + Lambda) ** theta * mu / (t + lam)

        res = minimize_scalar(quotient, bounds=(0.5 * lam_guess, 2.0 * lam_guess),
                              method="bounded",
                              options={"xatol": 1e-8 * lam_guess})
        return float(res.fun)

    return (4.0 * best(2 * m_cells) - best(m_cells)) / 3.0


def _inline_direction(branch, theta):
    Lambda, _ = _inline_reading(branch, theta)
    onset, _ = _slope_and_turnings(branch.column("lam"), Lambda)
    return "left" if onset < 0.0 else "right"


READING_THETAS = (0.718, 0.74, 1.0)


def test_theta_reading_is_bit_identical_to_inline_formulas(branch_5_2_8,
                                                          monkeypatch):
    branch, _ = branch_5_2_8
    lam = branch.column("lam")
    # the curve's symmetric column echoes each Lambda it is asked for; the
    # line minimizer itself is compared in the next test
    monkeypatch.setattr(branch_analysis, "mu_star_theta_line",
                        lambda d, p, theta, Lambda: Lambda)
    rows = []
    for theta in READING_THETAS:
        Lambda, mu_theta = _inline_reading(branch, theta)
        ref = _inline_grid_reference(branch, theta, Lambda)
        assert np.array_equal(grid_theta_reference(branch, theta, Lambda), ref)
        mask = mu_theta < ref * (1.0 - 1e-5)
        for got, want in zip(_witness_scan(branch, theta),
                             (Lambda, mu_theta, mask)):
            assert np.array_equal(got, want)

        curve = reparametrize(branch, theta)
        if theta == 1.0:
            want_Lambda, want_mu = lam, branch.column("mu")
        else:
            want_Lambda, want_mu = Lambda, mu_theta
        assert np.array_equal(curve.Lambda, want_Lambda)
        assert np.array_equal(curve.mu, want_mu)
        assert np.array_equal(curve.mu_star_theta, want_Lambda)
        assert np.array_equal(curve.d_Lambda_d_lambda,
                              np.gradient(want_Lambda, lam))
        assert branch_direction(branch, theta) == _inline_direction(branch,
                                                                    theta)

        onset, turnings = _slope_and_turnings(lam, Lambda)
        witnesses = Lambda[mask]
        rows.append(ProbeRow(
            theta=theta,
            direction="left" if onset < 0.0 else "right",
            slope_at_onset=onset,
            turning_points=tuple(turnings),
            witness_exists=bool(witnesses.size),
            witness_Lambda_lo=float(witnesses.min()) if witnesses.size else None,
            witness_Lambda_hi=float(witnesses.max()) if witnesses.size else None,
            monotone_increasing=_monotone_increasing(Lambda, mu_theta),
        ))

    flip = None
    for lo_row, hi_row in zip(rows, rows[1:]):
        if lo_row.direction != hi_row.direction:
            lo_t, hi_t = lo_row.theta, hi_row.theta
            while hi_t - lo_t > 1e-3:
                mid = 0.5 * (lo_t + hi_t)
                if _inline_direction(branch, mid) == lo_row.direction:
                    lo_t = mid
                else:
                    hi_t = mid
            flip = 0.5 * (lo_t + hi_t)
            break
    probe = conjecture_probe(5, 2.8, list(READING_THETAS), branch=branch)
    assert probe.rows == rows
    assert probe.flip_theta == flip
    assert probe.vartheta == 5 * (2.8 - 2.0) / (2.0 * 2.8)


def test_line_constant_is_bit_identical_to_inline_formulas():
    for theta, Lambda in ((0.718, 2.5), (0.74, 3.1), (1.0, 4.0)):
        assert mu_star_theta_line(5, 2.8, theta, Lambda, m_cells=200) \
            == _inline_line_constant(5, 2.8, theta, Lambda, 200)


def test_theta_range_has_one_slack_everywhere(branch_5_2_8, monkeypatch):
    branch, _ = branch_5_2_8
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    monkeypatch.setattr(branch_analysis, "mu_star_theta_line",
                        lambda d, p, theta, Lambda: 1.0)
    readers = (
        lambda theta: mu_star(rec, 2.5, theta),
        lambda theta: lambda_fs_theta(rec, theta),
        lambda theta: reparametrize(branch, theta).Lambda,
        # the test module keeps the real line minimizer
        lambda theta: mu_star_theta_line(5, 2.8, theta, 2.5, m_cells=100),
    )
    for read in readers:
        assert np.all(np.isfinite(read(rec.vartheta - 5e-10)))
        with pytest.raises(AdmissibilityError) as info:
            read(0.5)
        assert info.value.violated == "theta < d*(p-2)/(2*p) or theta > 1"
