"""Closed-form profiles: equations they solve, normalizations, tails."""

import math

import numpy as np
import pytest

from cknlab import (
    DomainError,
    gaussian_profile,
    phi_star,
    v_star,
    w_star_critical,
    w_star_subcritical,
)
from cknlab.grids import log_radial_quadrature
from cknlab.params import sphere_area
from cknlab.profiles import phi_star_log


def test_soliton_peak_and_evenness():
    p, lam = 2.8, 1.5
    assert phi_star(0.0, p, lam) == pytest.approx(
        (lam * p / 2.0) ** (1.0 / (p - 2.0)), rel=1e-14)
    s = np.linspace(0.1, 4.0, 25)
    np.testing.assert_allclose(phi_star(s, p, lam), phi_star(-s, p, lam),
                               rtol=1e-15)


def test_soliton_solves_its_equation():
    p, lam, h = 2.8, 1.5, 1e-3
    s = np.linspace(-3.0, 3.0, 601)
    f0 = phi_star(s, p, lam)
    second = (phi_star(s + h, p, lam) - 2.0 * f0
              + phi_star(s - h, p, lam)) / h ** 2
    resid = -second + lam * f0 - f0 ** (p - 1.0)
    assert np.max(np.abs(resid)) < 2e-6


def test_soliton_log_tail_slope():
    p, lam = 2.8, 2.0
    logs = phi_star_log(np.array([40.0, 41.0]), p, lam)
    assert logs[1] - logs[0] == pytest.approx(-math.sqrt(lam), abs=1e-9)
    assert np.isfinite(phi_star_log(1e4, p, lam))
    with pytest.raises(DomainError):
        phi_star_log(0.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        phi_star_log(0.0, 2.8, 0.0)


def test_critical_bubble_normalization_and_decay():
    p, gap = 3.0, 0.5
    assert v_star(0.0, p, gap) == 1.0
    ratio = v_star(2e12, p, gap) / v_star(1e12, p, gap)
    assert ratio == pytest.approx(2.0 ** (-2.0 * gap), rel=1e-5)
    with pytest.raises(DomainError):
        v_star(1.0, 2.0, 0.5)
    with pytest.raises(DomainError):
        v_star(1.0, 3.0, 0.0)
    with pytest.raises(DomainError):
        v_star(-1.0, 3.0, 0.5)


def test_fractional_dimension_bubble_values():
    assert w_star_critical(0.0, 5.0) == 1.0
    assert w_star_critical(1.0, 5.0) == pytest.approx(2.0 ** -1.5, rel=1e-14)
    with pytest.raises(DomainError):
        w_star_critical(1.0, 2.0)


def test_subcritical_bubble_values_and_tail():
    p, beta, gamma = 1.4, 0.1, 0.5
    assert w_star_subcritical(0.0, p, beta, gamma) == 1.0
    assert w_star_subcritical(1.0, p, beta, gamma) == pytest.approx(
        2.0 ** (-1.0 / (p - 1.0)), rel=1e-14)
    expo = (2.0 + beta - gamma) / (p - 1.0)
    ratio = (w_star_subcritical(2e5, p, beta, gamma)
             / w_star_subcritical(1e5, p, beta, gamma))
    assert ratio == pytest.approx(2.0 ** -expo, rel=1e-4)
    with pytest.raises(DomainError):
        w_star_subcritical(1.0, 1.0, 0.1, 0.5)
    with pytest.raises(DomainError):
        w_star_subcritical(1.0, 1.4, -3.0, 0.5)


@pytest.mark.parametrize("d", [3, 5])
def test_gaussian_profile_unit_mass(d):
    r, w = log_radial_quadrature(1e-6, 60.0, 160, 8)
    g = gaussian_profile(r, d)
    mass = sphere_area(d) * float(np.sum(w * r ** (d - 1) * g * g))
    assert mass == pytest.approx(1.0, rel=1e-12)
