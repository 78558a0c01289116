"""The cylinder soliton: its peak, its equation and its tail."""

import math

import numpy as np
import pytest

from cknlab import DomainError, phi_star
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
