"""Closed-form extremal profiles.

The cylinder soliton, the profile that seeds the symmetric polish and
the branch.  Its evaluators accept scalars or numpy arrays and are
written to stay finite for exponents close to their admissibility
boundaries, where naive powers of cosh overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "phi_star",
    "phi_star_log",
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
