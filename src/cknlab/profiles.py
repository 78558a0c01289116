"""Closed-form extremal profiles.

Every profile that admits an explicit formula lives here: the cylinder
soliton, the weighted-space bubbles (critical and subcritical), and the
unit Gaussian.  All evaluators accept scalars or numpy arrays and are
written to stay finite for exponents close to their admissibility
boundaries, where naive powers of cosh overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "phi_star",
    "phi_star_log",
    "v_star",
    "w_star_critical",
    "w_star_subcritical",
    "gaussian_profile",
]


def _log_sech(x):
    """log(sech(x)), elementwise, without overflow for large |x|."""
    ax = np.abs(x)
    return np.log(2.0) - ax - np.log1p(np.exp(-2.0 * ax))


def phi_star_log(s, p: float, lam: float):
    """log of the cylinder soliton, useful when the profile underflows."""
    if p <= 2.0:
        raise DomainError(f"cylinder soliton needs p > 2, got p={p}")
    if lam <= 0.0:
        raise DomainError(f"cylinder soliton needs a positive scale, got {lam}")
    s = np.asarray(s, dtype=float)
    width = 0.5 * (p - 2.0) * np.sqrt(lam)
    return (np.log(lam * p / 2.0) + 2.0 * _log_sech(width * s)) / (p - 2.0)


def phi_star(s, p: float, lam: float):
    """Even positive solution of -phi'' + lam*phi = phi^(p-1) on the line.

    The amplitude is (lam*p/2)^(1/(p-2)) and the decay rate sqrt(lam).
    """
    return np.exp(phi_star_log(s, p, lam))


def v_star(r, p: float, a_gap: float):
    """Radial bubble of the critical weighted inequality.

    ``a_gap`` is the distance of the weight exponent from its critical
    value; the profile is (1 + r^((p-2)*a_gap))^(-2/(p-2)).
    """
    if p <= 2.0:
        raise DomainError(f"critical bubble needs p > 2, got p={p}")
    if a_gap <= 0.0:
        raise DomainError(f"critical bubble needs a positive gap, got {a_gap}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("radial coordinate must be nonnegative")
    expo = (p - 2.0) * a_gap
    return np.exp(-(2.0 / (p - 2.0)) * np.log1p(r ** expo))


def w_star_critical(r, n: float):
    """Aubin-Talenti type bubble (1+r^2)^(-(n-2)/2) in fractional dimension n."""
    if n <= 2.0:
        raise DomainError(f"bubble decay needs n > 2, got n={n}")
    r = np.asarray(r, dtype=float)
    return np.exp(-0.5 * (n - 2.0) * np.log1p(r * r))


def w_star_subcritical(r, p: float, beta: float, gamma: float):
    """Subcritical bubble (1+r^(2+beta-gamma))^(-1/(p-1))."""
    if p <= 1.0:
        raise DomainError(f"subcritical bubble needs p > 1, got p={p}")
    if 2.0 + beta - gamma <= 0.0:
        raise DomainError(
            f"subcritical bubble needs beta - gamma > -2, got {beta - gamma}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("radial coordinate must be nonnegative")
    return np.exp(-np.log1p(r ** (2.0 + beta - gamma)) / (p - 1.0))


def gaussian_profile(r, d: int):
    """Unit-mass-normalized Gaussian (2*pi)^(-d/4) exp(-r^2/4)."""
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    r = np.asarray(r, dtype=float)
    return (2.0 * np.pi) ** (-d / 4.0) * np.exp(-0.25 * r * r)
