"""Reparametrized curves, the shooting oracle, and breaking criteria."""

import math

import numpy as np
import pytest

from cknlab import (
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
from cknlab.branch_analysis import (
    _shoot_once,
    branch_direction,
    gn_quotient,
    grid_theta_reference,
)


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
    with pytest.raises(DomainError):
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
    with pytest.raises(DomainError):
        conjecture_probe(5, 2.8, [0.5], branch=branch)
