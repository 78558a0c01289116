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
rescaled, and the soliton's quotient and gradient ratio at lambda = 1
are closed forms, so the symmetric constant at any (Lambda, theta)
follows from them by the exact scaling law, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .errors import AdmissibilityError, DomainError

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
    "two_star_value",
    "n_value",
    "m_value",
    "sphere_area",
    "check_cylinder_exponent",
    "check_sphere_exponent",
    "check_theta",
    "theta_Lambda",
    "theta_mu",
    "theta_optimal_lam",
    "theta_constant",
]

# each mode's generating set, then the inputs it may also take
_GENERATING_SETS = {"critical": (("a", "b"), ("theta", "m")),
                    "subcritical": (("beta", "gamma", "p"), ("m",)),
                    "cylinder": (("p", "Lambda"), ("theta", "m"))}
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
        return _a_c(self.d)

    @property
    def two_star(self) -> float:
        return two_star_value(self.d)

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


def _a_c(d: int) -> float:
    return 0.5 * (d - 2)


def _p_star(d: int, beta: float, gamma: float) -> float:
    """The subcritical endpoint p* = (d - gamma)/(d - beta - 2)."""
    return (d - gamma) / (d - beta - 2.0)


def two_star_value(d: int) -> float:
    """The critical Sobolev exponent 2d/(d-2); infinite for d <= 2."""
    return math.inf if d <= 2 else 2.0 * d / (d - 2)


def n_value(p: float) -> float:
    """The dimension n = 2p/(p-2) of the change of variables, for p > 2."""
    return 2.0 * p / (p - 2.0)


def m_value(n: float) -> float:
    """The fast-diffusion exponent m = 1 - 1/n tied to the dimension n."""
    return 1.0 - 1.0 / n


def check_cylinder_exponent(d: int, p: float) -> None:
    """Reject (d, p) outside the cylinder range 2 < p < 2d/(d-2)."""
    if d < 2:
        raise DomainError(f"cylinder problems need d >= 2, got d={d}")
    if not p > 2.0:
        raise DomainError(f"cylinder exponent must satisfy p > 2, got p={p}")
    hi = two_star_value(d)
    if not p < hi:
        raise DomainError(
            f"p={p} is not subcritical for d={d} (needs p < {hi})")


def check_sphere_exponent(d: int, p: float) -> None:
    """Reject p outside [1, 2d/(d-2)] for flows on the d-sphere."""
    hi = two_star_value(d)
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

    `_GENERATING_SETS` lists each mode's set and the inputs that may
    accompany it; everything else is derived and providing it is an error.
    """
    if mode not in _GENERATING_SETS:
        raise DomainError(f"unknown mode {mode!r}; expected one of "
                          f"{tuple(_GENERATING_SETS)}")
    if d < 2:
        raise AdmissibilityError(f"d = {d} below 2", violated="d < 2")
    if not float(d).is_integer():
        raise AdmissibilityError(f"d = {d} is not an integer",
                                 violated="d not an integer")
    d = int(d)
    required, optional = _GENERATING_SETS[mode]
    missing = set(required).difference(inputs)
    if missing:
        raise DomainError(
            f"{mode} mode needs {sorted(required)}; missing {sorted(missing)}")
    extra = set(inputs).difference(required, optional)
    if extra:
        raise DomainError(
            f"unexpected inputs for {mode} mode: {sorted(extra)}")

    a_c = _a_c(d)
    if mode == "critical":
        a = float(inputs["a"])
        b = float(inputs["b"])
        _reject(not a < a_c, "a >= (d-2)/2")
        _reject(not b >= a, "b < a")
        _reject(not b < a + 1.0, "b >= a + 1")
        denom = d - 2 + 2.0 * (b - a)
        _reject(not denom > 0.0, "b <= a in dimension 2")
        p = 2.0 * d / denom
        lam = (a_c - a) ** 2
    elif mode == "cylinder":
        p = float(inputs["p"])
        lam = float(inputs["Lambda"])
        _reject(not p > 2.0, "p <= 2")
        _reject(not p < two_star_value(d), "p >= 2*d/(d-2)")
        _reject(not lam > 0.0, "Lambda <= 0")
        a = a_c - math.sqrt(lam)
        b = a + d / p - a_c
    else:
        beta = float(inputs["beta"])
        gamma = float(inputs["gamma"])
        p = float(inputs["p"])
        _reject(not gamma < d, "gamma >= d")
        _reject(not beta > gamma - 2.0, "beta <= gamma - 2")
        _reject(not beta <= (d - 2.0) * gamma / d + _TOL,
                "beta > (d-2)*gamma/d")
        _reject(not p > 1.0, "p <= 1")
        _reject(not p <= _p_star(d, beta, gamma) + _TOL, "p > p_star")
        alpha = 1.0 + 0.5 * (beta - gamma)
        n = 2.0 * (d - gamma) / (beta + 2.0 - gamma)
    if mode != "subcritical":
        # both critical-type modes give p > 2
        n = n_value(p)
        alpha = (a_c - a) * (p - 2.0) / 2.0
    m_low = m_value(n)
    m = float(inputs.get("m", m_low))
    _reject(not (m_low - _TOL <= m < 1.0), "m outside [1 - 1/n, 1)")
    if mode == "subcritical":
        return CKNParams(mode=mode, d=d, p=p, beta=beta, gamma=gamma,
                         alpha=alpha, n=n, m=m)
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
    gap = _a_c(d) - a
    if not gap > 0.0:
        raise DomainError(f"curve defined for a < (d-2)/2, got a={a}")
    return d * gap / (2.0 * math.sqrt(gap * gap + d - 1.0)) - gap


def two_sharp_value(d: int) -> float:
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    return (2.0 * d * d + 1.0) / (d - 1.0) ** 2


def lambda_fs_value(d: int, p: float) -> float:
    if not p > 2.0:
        raise DomainError(f"instability threshold needs p > 2, got p={p}")
    return 4.0 * (d - 1.0) / (p * p - 4.0)


def alpha_fs_value(d: int, n: float) -> float:
    return math.sqrt((d - 1.0) / (n - 1.0))


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


def _unit_soliton(p: float):
    """(log mu_1, t_1): quotient and gradient-to-mass ratio of the soliton.

    At lam = 1 each integral of the soliton is a Beta integral of a power
    of sech, so t_1 = (p-2)/(p+2) and mu_1 is a ratio of Gamma functions
    (Catrina & Wang, CPAM 54 (2001) 229-258), taken in log space.
    """
    q = p / (p - 2.0)
    log_mu_1 = math.log(0.5 * p) + (p - 2.0) / p * (
        math.log(2.0) + 0.5 * math.log(math.pi) + math.lgamma(q)
        - math.log(p - 2.0) - math.lgamma(q + 0.5))
    return log_mu_1, (p - 2.0) / (p + 2.0)


def mu_star(params: CKNParams, Lambda: float, theta: float = 1.0) -> float:
    """Optimal constant over the symmetric family at (Lambda, theta).

    The family is the unit-scale soliton rescaled, so the closed-form
    (mu_1, t_1) of `_unit_soliton` fix it through `theta_constant`.
    """
    check_theta(params.d, params.p, theta)
    if not Lambda > 0.0:
        raise DomainError(f"needs Lambda > 0, got {Lambda}")
    log_mu_1, t_1 = _unit_soliton(params.p)
    return theta_constant(params.p, theta, Lambda, math.exp(log_mu_1), t_1)


def lambda_fs_theta(params: CKNParams, theta: float) -> float:
    """Reparametrized position of the symmetry-breaking point."""
    check_theta(params.d, params.p, theta)
    lam_fs = lambda_fs_value(params.d, params.p)
    return theta_Lambda(theta, lam_fs, lam_fs * _unit_soliton(params.p)[1])


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
            p_star=_p_star(d, params.beta, params.gamma),
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
    log_area = math.log(2.0) + 0.5 * params.d * math.log(math.pi) \
        - math.lgamma(0.5 * params.d)
    # the bubble is the soliton in the variable s = -log r, at lam = gap^2
    return math.exp(_unit_soliton(p)[0] + (1.0 - 2.0 / p) * log_area
                    + (1.0 + 2.0 / p) * math.log(gap))
