"""Parameter algebra for the weighted interpolation inequalities.

Three equivalent parametrizations are supported: the critical weighted
form on R^d (generated by the weight pair (a, b)), the subcritical
weighted form (generated by (beta, gamma, p)), and the cylinder form
(generated by (p, Lambda)).  ``derive_params`` fills in every linked
quantity from one generating set and rejects inadmissible combinations
with the violated inequality spelled out.

Scalar constants whose closed forms involve Gamma functions are
evaluated in log space so that exponents arbitrarily close to 2 stay
finite.  Every symmetric cylinder profile is the unit-scale soliton
rescaled, so quadrature-backed quantities read one cached line rule per
p, at lambda = 1, and carry it to any scale by the exact scaling law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .errors import AdmissibilityError, DomainError
from .grids import gauss_panels
from .profiles import phi_star_log

__all__ = [
    "CKNParams",
    "Thresholds",
    "derive_params",
    "thresholds",
    "check_equivalence",
    "optimal_constant_star",
    "mu_star",
    "lambda_fs_theta",
    "lambda_fs_value",
    "alpha_fs_value",
    "two_sharp_value",
    "b_fs_value",
    "symmetric_profile_data",
    "sphere_area",
    "check_cylinder_exponent",
    "check_sphere_exponent",
    "check_theta",
    "theta_Lambda",
    "theta_mu",
    "theta_optimal_lam",
    "theta_constant",
]

_MODES = ("critical", "subcritical", "cylinder")
_TOL = 1e-12
_THETA_SLACK = 1e-9


@dataclass(frozen=True)
class CKNParams:
    """Complete scalar parameter record for one problem instance.

    Fields that do not exist in the record's mode are None; consumers
    requiring them raise DomainError rather than guessing.
    """

    mode: str
    d: int
    p: float
    a: Optional[float] = None
    b: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    theta: Optional[float] = None
    Lambda: Optional[float] = None
    alpha: Optional[float] = None
    n: Optional[float] = None
    m: Optional[float] = None

    @property
    def a_c(self) -> float:
        return 0.5 * (self.d - 2)

    @property
    def two_star(self) -> float:
        if self.d <= 2:
            return math.inf
        return 2.0 * self.d / (self.d - 2)

    @property
    def vartheta(self) -> float:
        return _vartheta(self.d, self.p)

    def with_theta(self, theta: float) -> "CKNParams":
        check_theta(self.d, self.p, theta)
        return replace(self, theta=theta)


@dataclass(frozen=True)
class Thresholds:
    """Closed-form threshold values; None marks fields that have no
    meaning in the originating record's mode."""

    lambda_fs: Optional[float] = None
    b_fs: Optional[float] = None
    beta_fs: Optional[float] = None
    alpha_fs: Optional[float] = None
    two_sharp: Optional[float] = None
    lambda_fs_theta: Optional[float] = None
    p_star: Optional[float] = None
    vartheta: Optional[float] = None


def _reject(condition: bool, message: str) -> None:
    if condition:
        raise AdmissibilityError(message, violated=message)


def _vartheta(d: int, p: float) -> float:
    return d * (p - 2.0) / (2.0 * p)


def check_cylinder_exponent(d: int, p: float) -> None:
    """Reject (d, p) outside the cylinder range 2 < p < 2d/(d-2)."""
    if d < 2:
        raise DomainError(f"cylinder problems need d >= 2, got d={d}")
    if p <= 2.0:
        raise DomainError(f"cylinder exponent must satisfy p > 2, got p={p}")
    if d > 2 and p >= 2.0 * d / (d - 2.0):
        raise DomainError(
            f"p={p} is not subcritical for d={d} (needs p < {2 * d / (d - 2)})")


def check_sphere_exponent(d: int, p: float) -> None:
    """Reject p outside [1, 2d/(d-2)] for flows on the d-sphere."""
    hi = math.inf if d <= 2 else 2.0 * d / (d - 2)
    if not 1.0 <= p <= hi + 1e-12:
        raise DomainError(
            f"exponent p={p} outside [1, {hi}] for the {d}-sphere")


def check_theta(d: int, p: float, theta: float) -> float:
    """Reject theta outside [vartheta(p), 1] and return vartheta(p).

    The range only exists for a cylinder exponent, which is checked
    first.  The lower end has 1e-9 of slack, so a theta set to vartheta
    from rounded input passes.
    """
    check_cylinder_exponent(d, p)
    vt = _vartheta(d, p)
    if not vt - _THETA_SLACK <= theta <= 1.0 + _TOL:
        raise AdmissibilityError(
            f"theta = {theta} outside [{vt}, 1]",
            violated="theta < d*(p-2)/(2*p) or theta > 1")
    return vt


def derive_params(d: int, inputs: Mapping[str, float], mode: str) -> CKNParams:
    """Fill a full parameter record from one generating set.

    Generating sets: (a, b) for critical, (beta, gamma, p) for
    subcritical, (p, Lambda) for cylinder.  ``theta`` may accompany the
    critical and cylinder sets, ``m`` any set; everything else is
    derived and providing it is an error.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if d < 2:
        raise AdmissibilityError(f"d = {d} below 2", violated="d < 2")
    if not float(d).is_integer():
        raise AdmissibilityError(f"d = {d} is not an integer",
                                 violated="d not an integer")
    d = int(d)
    required = {"critical": {"a", "b"},
                "subcritical": {"beta", "gamma", "p"},
                "cylinder": {"p", "Lambda"}}[mode]
    optional = {"m", "theta"} if mode != "subcritical" else {"m"}
    keys = set(inputs)
    missing = required - keys
    if missing:
        raise DomainError(
            f"{mode} mode needs {sorted(required)}; missing {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise DomainError(
            f"unexpected inputs for {mode} mode: {sorted(extra)}")

    a_c = 0.5 * (d - 2)
    if mode == "critical":
        a = float(inputs["a"])
        b = float(inputs["b"])
        _reject(a >= a_c, "a >= (d-2)/2")
        _reject(b < a, "b < a")
        _reject(b >= a + 1.0, "b >= a + 1")
        denom = d - 2 + 2.0 * (b - a)
        _reject(denom <= 0.0, "b <= a in dimension 2")
        p = 2.0 * d / denom
        lam = (a_c - a) ** 2
    elif mode == "cylinder":
        p = float(inputs["p"])
        lam = float(inputs["Lambda"])
        _reject(p <= 2.0, "p <= 2")
        if d > 2:
            _reject(p >= 2.0 * d / (d - 2), "p >= 2*d/(d-2)")
        _reject(lam <= 0.0, "Lambda <= 0")
        a = a_c - math.sqrt(lam)
        b = a + d / p - a_c
    else:
        beta = float(inputs["beta"])
        gamma = float(inputs["gamma"])
        p = float(inputs["p"])
        _reject(gamma >= d, "gamma >= d")
        _reject(beta <= gamma - 2.0, "beta <= gamma - 2")
        _reject(beta > (d - 2.0) * gamma / d + _TOL, "beta > (d-2)*gamma/d")
        p_star = (d - gamma) / (d - beta - 2.0)
        _reject(p <= 1.0, "p <= 1")
        _reject(p > p_star + _TOL, "p > p_star")
        alpha = 1.0 + 0.5 * (beta - gamma)
        n = 2.0 * (d - gamma) / (beta + 2.0 - gamma)
        m = float(inputs.get("m", 1.0 - 1.0 / n))
        _reject(not (1.0 - 1.0 / n - _TOL <= m < 1.0),
                "m outside [1 - 1/n, 1)")
        return CKNParams(mode=mode, d=d, p=p, beta=beta, gamma=gamma,
                         alpha=alpha, n=n, m=m)

    # shared critical/cylinder tail; both modes give p > 2
    n = 2.0 * p / (p - 2.0)
    alpha = (a_c - a) * (p - 2.0) / 2.0
    m = float(inputs.get("m", 1.0 - 1.0 / n))
    _reject(not (1.0 - 1.0 / n - _TOL <= m < 1.0), "m outside [1 - 1/n, 1)")
    record = CKNParams(mode=mode, d=d, p=p, a=a, b=b, theta=1.0,
                       Lambda=lam, alpha=alpha, n=n, m=m)
    if "theta" in inputs:
        record = record.with_theta(float(inputs["theta"]))
    return record


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^(d-1) in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.exp(math.lgamma(d / 2.0))


def b_fs_value(d: int, a: float) -> float:
    """Height of the symmetry-breaking boundary curve at weight a."""
    gap = 0.5 * (d - 2) - a
    if gap <= 0.0:
        raise DomainError(f"curve defined for a < (d-2)/2, got a={a}")
    return d * gap / (2.0 * math.sqrt(gap * gap + d - 1.0)) - gap


def two_sharp_value(d: int) -> float:
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    return (2.0 * d * d + 1.0) / (d - 1.0) ** 2


def lambda_fs_value(d: int, p: float) -> float:
    if p <= 2.0:
        raise DomainError(f"instability threshold needs p > 2, got p={p}")
    return 4.0 * (d - 1.0) / (p * p - 4.0)


def alpha_fs_value(d: int, n: float) -> float:
    return math.sqrt((d - 1.0) / (n - 1.0))


# ---------------------------------------------------------------------------
# quadrature over the explicit symmetric cylinder family


def _log_dot(logf: np.ndarray, w: np.ndarray) -> float:
    """log(sum w * exp(logf)) with the max factored out."""
    mx = float(np.max(logf))
    return mx + math.log(float(np.sum(w * np.exp(logf - mx))))


@lru_cache(maxsize=4096)
def symmetric_profile_data(p: float, lam: float):
    """Full-line integrals of the explicit symmetric profile.

    Returns (log_l2, log_lpp, t) with log_l2 = log of the squared L2
    norm, log_lpp = log of the p-th power of the L^p norm, and
    t = gradient energy over squared L2 norm.  Everything is computed
    in log space so the large-amplitude regime near p = 2 stays finite.
    """
    if p <= 2.0 or lam <= 0.0:
        raise DomainError(f"symmetric family needs p > 2, lam > 0; "
                          f"got ({p}, {lam})")
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


# ---------------------------------------------------------------------------
# the theta reading of the cylinder family
#
# A field of the theta = 1 problem at scale lam, with gradient-to-mass
# ratio t and quotient mu, sits at position Lambda of the theta problem
# with quotient mu_theta.  The helpers take scalars or arrays and keep the
# operation order their callers had, so no caller's rounding moves.


def theta_Lambda(theta, lam, t):
    return theta * lam - (1.0 - theta) * t


def theta_mu(theta, lam, t, Lambda, mu):
    return (t + Lambda) ** theta * mu / (t + lam)


def theta_optimal_lam(p: float, theta, Lambda):
    """Scale of the symmetric profile whose position is Lambda.

    The explicit family has t = lam (p-2)/(p+2), so its position is
    linear in lam; this inverts that line.
    """
    return Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))


def theta_constant(p: float, theta, Lambda, mu_1: float, t_1: float):
    """Theta-constant of a family with t = lam t_1, mu = lam^((p+2)/(2p)) mu_1.

    The theta-quotient of the family member at scale lam is minimized in
    closed form at lam* = Lambda (p-2) / (t_1 (2 p theta - (p-2))); for
    the soliton, t_1 = (p-2)/(p+2), that member sits at position Lambda.
    The minimum scales as Lambda^(theta - (p-2)/(2p)).
    """
    lam = Lambda * (p - 2.0) / (t_1 * (2.0 * p * theta - (p - 2.0)))
    return theta_mu(theta, lam, lam * t_1, Lambda,
                    lam ** ((p + 2.0) / (2.0 * p)) * mu_1)


def mu_star(params: CKNParams, Lambda: float, theta: float = 1.0) -> float:
    """Optimal constant over the symmetric family at (Lambda, theta).

    The family is the unit-scale soliton rescaled, so its quadrature
    values (mu_1, t_1) at lam = 1 fix the constant at every (Lambda,
    theta) through `theta_constant`.
    """
    check_theta(params.d, params.p, theta)
    if Lambda <= 0.0:
        raise DomainError(f"needs Lambda > 0, got {Lambda}")
    p = params.p
    log_l2, log_lpp, t_1 = symmetric_profile_data(p, 1.0)
    mu_1 = (1.0 + t_1) * math.exp(log_l2 - (2.0 / p) * log_lpp)
    return theta_constant(p, theta, Lambda, mu_1, t_1)


def lambda_fs_theta(params: CKNParams, theta: float) -> float:
    """Reparametrized position of the symmetry-breaking point."""
    check_theta(params.d, params.p, theta)
    lam_fs = lambda_fs_value(params.d, params.p)
    t_1 = symmetric_profile_data(params.p, 1.0)[2]
    return theta_Lambda(theta, lam_fs, lam_fs * t_1)


# ---------------------------------------------------------------------------
# thresholds and equivalences


def thresholds(params: CKNParams) -> Thresholds:
    """All closed-form thresholds meaningful for the record's mode."""
    d = params.d
    two_sharp = two_sharp_value(d)
    if params.mode == "subcritical":
        disc = (params.gamma - d) ** 2 - 4.0 * (d - 1.0)
        if disc < 0.0:
            raise DomainError(
                f"symmetry-breaking exponent undefined: (gamma-d)^2 = "
                f"{(params.gamma - d) ** 2} < 4(d-1) = {4 * (d - 1)}")
        return Thresholds(
            beta_fs=d - 2.0 - math.sqrt(disc),
            alpha_fs=alpha_fs_value(d, params.n),
            two_sharp=two_sharp,
            p_star=(d - params.gamma) / (d - params.beta - 2.0),
        )
    # the theta reading needs p < 2*; a critical record with b == a sits
    # at the endpoint p = 2* and gets no lambda_fs_theta
    theta_fs = None
    if params.p < params.two_star:
        theta = params.theta if params.theta is not None else 1.0
        theta_fs = lambda_fs_theta(params, theta)
    return Thresholds(
        lambda_fs=lambda_fs_value(d, params.p),
        b_fs=b_fs_value(d, params.a),
        alpha_fs=alpha_fs_value(d, params.n),
        two_sharp=two_sharp,
        lambda_fs_theta=theta_fs,
        vartheta=params.vartheta,
    )


def check_equivalence(params: CKNParams):
    """Truth values of the three equivalent symmetry conditions.

    Condition order: scale below threshold, weight above the boundary
    curve, change-of-variables exponent below its threshold.  The
    boundary itself counts as satisfied in all three.
    """
    if params.mode == "subcritical":
        raise DomainError("equivalence check needs a critical-type record")
    d = params.d
    check_cylinder_exponent(d, params.p)
    cond_lambda = 0.0 < params.Lambda <= lambda_fs_value(d, params.p) + _TOL
    cond_b = (params.a < params.a_c
              and params.b >= b_fs_value(d, params.a) - _TOL)
    cond_alpha = 0.0 < params.alpha <= alpha_fs_value(d, params.n) + _TOL
    return cond_lambda, cond_b, cond_alpha


def optimal_constant_star(params: CKNParams) -> float:
    """Closed-form optimal constant of the symmetric critical bubble.

    Evaluated in log space; powers of the weight gap use its absolute
    value so the non-integer exponents stay real.
    """
    if params.mode == "subcritical":
        raise DomainError("constant defined for critical-type records")
    p = params.p
    if p <= 2.0:
        raise DomainError(f"needs p > 2, got p={p}")
    gap = abs(params.a - params.a_c)
    if gap == 0.0:
        raise DomainError("needs a != (d-2)/2")
    q = p / (p - 2.0)
    log_area = math.log(2.0) + 0.5 * params.d * math.log(math.pi) \
        - math.lgamma(0.5 * params.d)
    log_c = (math.log(0.5 * p)
             + (1.0 - 2.0 / p) * log_area
             + (1.0 + 2.0 / p) * math.log(gap)
             + (p - 2.0) / p * (math.log(2.0) + 0.5 * math.log(math.pi)
                                + math.lgamma(q) - math.log(p - 2.0)
                                - math.lgamma(q + 0.5)))
    return math.exp(log_c)
