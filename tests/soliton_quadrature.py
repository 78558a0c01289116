"""Panel quadrature of the explicit cylinder soliton: the tests' oracle.

The library takes the soliton's integrals in closed form.  The tests
check those numbers against this independent route, which integrates the
sampled profile directly and assumes neither the closed form nor the
scaling law.
"""

import math

import numpy as np

from cknlab.grids import gauss_panels
from cknlab.profiles import phi_star_log


def _log_dot(logf, w):
    """log(sum w * exp(logf)) with the max factored out."""
    mx = float(np.max(logf))
    return mx + math.log(float(np.sum(w * np.exp(logf - mx))))


def symmetric_profile_data(p, lam):
    """Full-line integrals of the cylinder soliton at scale lam.

    Returns (log_l2, log_lpp, t) with log_l2 = log of the squared L2
    norm, log_lpp = log of the p-th power of the L^p norm, and
    t = gradient energy over squared L2 norm.  Everything is computed
    in log space so the large-amplitude regime near p = 2 stays finite.
    """
    # Cut the half-line where the profile has decayed to exp(-40).  The
    # sech argument needed for that is arccosh(exp(20 (p-2))), which
    # interpolates between the Gaussian-core regime sqrt(40 (p-2)) near
    # p = 2 and the exponential-tail regime 20 (p-2) + log 2; using the
    # tail formula alone truncates most of the mass for small p - 2.
    c = 20.0 * (p - 2.0)
    x_cut = c + math.log(2.0) if c > 300.0 else math.acosh(math.exp(c))
    extent = 2.0 * x_cut / ((p - 2.0) * math.sqrt(lam))
    # the sech-power core narrows as p grows; 768 panels of 8 nodes
    # resolve it to about 1e-12 up to p = 64
    s, w = gauss_panels(0.0, extent, 768, 8)
    logphi = phi_star_log(s, p, lam)
    log2 = math.log(2.0)
    log_l2 = _log_dot(2.0 * logphi, w) + log2
    log_lpp = _log_dot(p * logphi, w) + log2
    # phi' = -sqrt(lam) tanh(width s) phi, so the gradient integral is
    # lam (l2 - integral of phi^2 sech^2)
    width = 0.5 * (p - 2.0) * math.sqrt(lam)
    sech2 = 1.0 / np.cosh(np.minimum(width * s, 350.0)) ** 2
    log_l2_sech = _log_dot(2.0 * logphi + np.log(sech2), w) + log2
    t = lam * (1.0 - math.exp(log_l2_sech - log_l2))
    return log_l2, log_lpp, t

