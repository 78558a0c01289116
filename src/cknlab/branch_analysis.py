"""Reparametrized branches, turning points, and symmetry-breaking criteria.

The continuation module follows the broken branch in the natural parameter
lam of the theta = 1 problem.  For theta < 1 the same family of fields is
re-read against the interpolation functional: each lam maps to
Lambda(lam) = theta lam - (1 - theta) t[phi_lam], and the branch quotient
becomes an upper bound for the optimal theta-constant at that Lambda.  The
resulting parametric curve can bend left and fold back, and its geometry
(initial direction, turning points) is exactly what separates the two
generic symmetry-breaking scenarios.  This module builds those curves,
classifies them, and implements the two closed-ended criteria: the
Gagliardo-Nirenberg comparison at theta = vartheta(p), and the per-theta
witness scan for branch quotients dipping below the symmetric constant.

Normalization note: quotients on the cylinder use the uniform probability
measure on the sphere, while the Gagliardo-Nirenberg constant lives in
plain R^d with the area measure.  The two differ by the sphere-area factor
|S^(d-1)|^(1-2/p), which multiplies every cylinder constant that is
compared against an ambient one.  Both sides of such comparisons are
reported in the ambient normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .cylinder_solver import (
    Branch,
    ContinuationConfig,
    CylinderGrid,
    continue_branch,
    symmetric_quotient,
)
from .errors import DomainError, InsufficientSamples, ShootingFailed
from .grids import half_line_grid, zonal_laplacian, zonal_quadrature
from .params import (
    check_theta,
    derive_params,
    lambda_fs_theta,
    mu_star,
    sphere_area,
    theta_Lambda,
    theta_mu,
    theta_optimal_lam,
)

__all__ = [
    "CurveB",
    "TurningPoint",
    "Classification",
    "reparametrize",
    "classify_bifurcation",
    "branch_direction",
    "mu_star_theta_line",
    "GroundState",
    "gn_ground_state",
    "gn_quotient",
    "gn_constant",
    "grid_theta_reference",
    "CriterionReport",
    "lemma_criterion",
    "ProbeRow",
    "ProbeReport",
    "conjecture_probe",
]

_WITNESS_MARGIN = 1e-5


def _params_of(d: int, p: float):
    return derive_params(d, {"p": p, "Lambda": 1.0}, "cylinder")


# ---------------------------------------------------------------------------
# curves

@dataclass
class CurveB:
    """A branch re-read at fixed theta, ordered by the continuation lam.

    Lambda is theta lam - (1 - theta) t[phi_lam] sample by sample, and
    mu_star_theta is the symmetric theta-constant at that Lambda computed
    by the line-quadrature route, deliberately not by `params.mu_star`,
    so the two stay independent cross-checks of each other.  The mu
    column bounds the optimal theta-constant from above at each Lambda;
    nothing here claims any sample is optimal.
    """

    theta: float
    lam: np.ndarray
    Lambda: np.ndarray
    mu: np.ndarray
    mu_star_theta: np.ndarray
    d_Lambda_d_lambda: np.ndarray
    branch: Branch

    def __len__(self) -> int:
        return len(self.lam)

    def as_rows(self):
        for i in range(len(self.lam)):
            yield (float(self.lam[i]), float(self.Lambda[i]),
                   float(self.mu[i]), float(self.mu_star_theta[i]),
                   float(self.d_Lambda_d_lambda[i]))


@dataclass(frozen=True)
class TurningPoint:
    lam: float
    Lambda: float
    index: int


@dataclass(frozen=True)
class Classification:
    direction: str
    slope_at_onset: float
    turning_points: tuple[TurningPoint, ...]


def mu_star_theta_line(d: int, p: float, theta: float, Lambda: float,
                       m_cells: int = 1600) -> float:
    """Symmetric theta-constant by direct minimization over lam.

    Solves the discrete s-only problem on two line grids (m and 2m cells),
    minimizes the theta-quotient over lam on each, and Richardson-combines
    the minima.  Stationarity at the optimum makes the inexact minimizer
    harmless, so the combination really is fourth-order.  Shares no code
    with the closed-form route in `params`, which is the point.
    """
    check_theta(d, p, theta)
    if Lambda <= 0.0:
        raise DomainError(f"need Lambda > 0, got {Lambda}")
    lam_guess = theta_optimal_lam(p, theta, Lambda)
    # the quotient of an s-only profile never reads the zonal rule, so
    # one rule serves every lam and both line grids
    z, wz = zonal_quadrature(d - 1, 4)
    lap_z = zonal_laplacian(d - 1, z, wz)

    def best(cells: int) -> float:
        def quotient(lam: float) -> float:
            length = 20.0 / math.sqrt(lam)
            s, h = half_line_grid(length, cells)
            grid = CylinderGrid(d, length, s, h, z, wz, lap_z)
            mu, t = symmetric_quotient(grid, p, lam)
            return theta_mu(theta, lam, t, Lambda, mu)

        res = minimize_scalar(quotient, bounds=(0.5 * lam_guess, 2.0 * lam_guess),
                              method="bounded",
                              options={"xatol": 1e-8 * lam_guess})
        return float(res.fun)

    return (4.0 * best(2 * m_cells) - best(m_cells)) / 3.0


def reparametrize(branch: Branch, theta: float) -> CurveB:
    """Map a continuation branch to its theta < 1 reading.

    At theta = 1 this is the identity: Lambda equals lam bitwise and mu
    is carried over unchanged.  The mu_star_theta column then holds the
    grid-free symmetric constant, which is not the same number as the
    branch's own grid-consistent mu_star; comparisons near the
    bifurcation must use the latter.
    """
    check_theta(branch.d, branch.p, theta)
    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    mu = branch.column("mu")
    if theta == 1.0:
        Lambda = lam.copy()
        mu_theta = mu.copy()
    else:
        Lambda = theta_Lambda(theta, lam, t_phi)
        mu_theta = theta_mu(theta, lam, t_phi, Lambda, mu)
    stars = np.array([mu_star_theta_line(branch.d, branch.p, theta, v)
                      for v in Lambda])
    slope = np.gradient(Lambda, lam)
    return CurveB(theta=theta, lam=lam, Lambda=Lambda, mu=mu_theta,
                  mu_star_theta=stars, d_Lambda_d_lambda=slope,
                  branch=branch)


def _slope_and_turnings(lam: np.ndarray, Lambda: np.ndarray):
    diffs = np.diff(Lambda) / np.diff(lam)
    onset = float(np.median(diffs[:5]))
    turnings = []
    signs = np.sign(diffs)
    for i in np.flatnonzero(np.diff(signs) != 0.0):
        lo = max(int(i) - 1, 0)
        hi = min(int(i) + 3, len(lam))
        coeff = np.polyfit(lam[lo:hi], Lambda[lo:hi], 2)
        if coeff[0] != 0.0:
            lam_t = float(-coeff[1] / (2.0 * coeff[0]))
            lam_t = min(max(lam_t, float(lam[lo])), float(lam[hi - 1]))
        else:
            lam_t = float(0.5 * (lam[i] + lam[i + 1]))
        lam_val = float(np.polyval(coeff, lam_t))
        turnings.append(TurningPoint(lam_t, lam_val, int(i) + 1))
    return onset, turnings


def classify_bifurcation(curve: CurveB) -> Classification:
    """Initial direction and turning points of the reparametrized curve.

    Direction is the sign of d Lambda / d lam over the first handful of
    post-bifurcation samples (the continuation takes its smallest steps
    there, which is what a local derivative estimate near a pitchfork
    needs).  Turning points are sign changes of the same derivative,
    refined by a local quadratic fit in (lam, Lambda).
    """
    if len(curve) < 10:
        raise InsufficientSamples(
            f"need at least 10 samples past the bifurcation, got {len(curve)}")
    onset, turnings = _slope_and_turnings(curve.lam, curve.Lambda)
    direction = "left" if onset < 0.0 else "right"
    return Classification(direction=direction, slope_at_onset=onset,
                          turning_points=tuple(turnings))


def branch_direction(branch: Branch, theta: float) -> str:
    """Bifurcation direction at one theta without building a full curve.

    The probe's flip bisection calls this many times; it needs only the
    Lambda(lam) samples, never the theta-constants, so skipping them
    keeps the bisection cheap.
    """
    check_theta(branch.d, branch.p, theta)
    if len(branch.points) < 10:
        raise InsufficientSamples(
            f"need at least 10 branch points, got {len(branch.points)}")
    lam = branch.column("lam")
    Lambda = theta_Lambda(theta, lam, branch.column("t_phi"))
    onset, _ = _slope_and_turnings(lam, Lambda)
    return "left" if onset < 0.0 else "right"


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg oracle

@dataclass(frozen=True)
class GroundState:
    """Radial ground state of -u'' - (d-1) u'/r + u = u^(p-1).

    height is the shooting parameter u(0); r, u, du sample the profile
    densely and uniformly (du comes from the integrator, not finite
    differences, so quotients built from it carry quadrature error only).
    The three integrals are sphere-area-free radial integrals against
    r^(d-1) dr.
    """

    d: int
    p: float
    height: float
    radius: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    grad_sq: float
    mass_sq: float
    p_int: float


def _shoot_once(d: int, p: float, height: float, r_max: float) -> str:
    r0 = 1e-8
    curv = (height - height ** (p - 1.0)) / d

    def rhs(r, y):
        u, v = y.tolist()
        return (v, u - math.copysign(abs(u) ** (p - 1.0), u) - (d - 1.0) * v / r)

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0

    def upturn(r, y):
        return y[1]

    upturn.terminal = True
    upturn.direction = 1.0

    sol = solve_ivp(rhs, (r0, r_max),
                    (height + 0.5 * curv * r0 * r0, curv * r0),
                    events=(crossing, upturn), rtol=1e-12, atol=1e-14)
    if sol.t_events[0].size:
        return "crossed"
    if sol.t_events[1].size:
        return "turned"
    raise ShootingFailed(
        f"shot from u(0)={height!r} neither crossed zero nor turned up "
        f"before r={r_max} (d={d}, p={p}): {sol.message}",
        d=d, p=p, height=height, r_max=r_max)


def _ground_height(d: int, p: float, r_max: float) -> float:
    """Bisection on u(0) between oscillation and zero-crossing.

    Returns the upper (zero-crossing) end of the final bracket: that shot
    dives monotonically through any decay floor, so the profile
    integration downstream always hits its stopping event, whereas the
    turning side bottoms out above it.
    """
    lo = 1.0 + 1e-3
    if _shoot_once(d, p, lo, r_max) != "turned":
        raise ShootingFailed(
            f"low bracket u(0)={lo} already crosses zero (d={d}, p={p})",
            d=d, p=p, height=lo, r_max=r_max)
    hi = 2.0
    for _ in range(40):
        if _shoot_once(d, p, hi, r_max) == "crossed":
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise ShootingFailed(
            f"no zero-crossing shot found up to u(0)={hi} (d={d}, p={p})",
            d=d, p=p, height=hi, r_max=r_max)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _shoot_once(d, p, mid, r_max) == "crossed":
            hi = mid
        else:
            lo = mid
    return hi


@lru_cache(maxsize=16)
def gn_ground_state(d: int, p: float, r_max: float = 60.0,
                    sample_dr: float = 1e-3) -> GroundState:
    """Shoot the radial ground state and integrate its norms alongside.

    The final integration stops seven decades below the peak.  Deeper is
    counterproductive: the shooting parameter is only known to ~1e-12 and
    the miss grows like e^r along the tail, so below the floor the shot
    stops tracking the ground state.  Both the discarded true tail and
    the pollution above the floor perturb each norm by ~1e-9 relative.
    Norm accumulators ride along as extra components of the same
    error-controlled integration instead of being quadratures over
    stored samples.

    Deterministic, hence cached on its arguments; every caller shares
    one state, so its sample arrays are read-only.
    """
    _params_of(d, p)
    height = _ground_height(d, p, r_max)
    r0 = 1e-8
    curv = (height - height ** (p - 1.0)) / d
    floor_level = 1e-7 * height

    def rhs(r, y):
        u, v = y[:2].tolist()
        measure = r ** (d - 1.0)
        return (v, u - math.copysign(abs(u) ** (p - 1.0), u) - (d - 1.0) * v / r,
                v * v * measure, u * u * measure, abs(u) ** p * measure)

    def floor(r, y):
        return y[0] - floor_level

    floor.terminal = True
    floor.direction = -1.0

    sol = solve_ivp(rhs, (r0, r_max),
                    (height + 0.5 * curv * r0 * r0, curv * r0, 0.0, 0.0, 0.0),
                    events=(floor,), rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.t_events[0].size:
        raise ShootingFailed(
            f"polished shot never reached the decay floor (d={d}, p={p})",
            d=d, p=p, height=height, r_max=r_max)
    radius = float(sol.t_events[0][0])
    r = np.arange(r0, radius, sample_dr)
    vals = sol.sol(r)
    # own copies: rows of vals would keep all five components alive
    u, du = np.ascontiguousarray(vals[0]), np.ascontiguousarray(vals[1])
    for arr in (r, u, du):
        arr.setflags(write=False)
    return GroundState(d=d, p=p, height=height, radius=radius,
                       r=r, u=u, du=du,
                       grad_sq=float(sol.y[2, -1]),
                       mass_sq=float(sol.y[3, -1]),
                       p_int=float(sol.y[4, -1]))


def gn_quotient(d: int, p: float, r: np.ndarray, u: np.ndarray,
                du: np.ndarray) -> float:
    """The scale-invariant quotient of a sampled radial profile.

    Trapezoidal in r; callers supply the derivative samples so the result
    is free of finite-difference bias (which is not scale-invariant and
    would spoil rescaling tests at the 1e-8 level).
    """
    vt = _params_of(d, p).vartheta
    measure = r ** (d - 1.0)
    grad = float(np.trapezoid(du * du * measure, r))
    mass = float(np.trapezoid(u * u * measure, r))
    pint = float(np.trapezoid(np.abs(u) ** p * measure, r))
    area = sphere_area(d)
    return ((area * grad) ** vt * (area * mass) ** (1.0 - vt)
            / (area * pint) ** (2.0 / p))


def gn_constant(d: int, p: float) -> float:
    """Gagliardo-Nirenberg constant via the radial shooting oracle.

    Evaluates the quotient ||grad u||^(2 vartheta) ||u||_2^(2(1-vartheta))
    / ||u||_p^2 on the ground state, in the ambient R^d normalization
    (area measure on spheres).  Reads through the ground-state cache.
    """
    p = float(p)
    vt = _params_of(d, p).vartheta
    state = gn_ground_state(d, p)
    area = sphere_area(d)
    return ((area * state.grad_sq) ** vt
            * (area * state.mass_sq) ** (1.0 - vt)
            / (area * state.p_int) ** (2.0 / p))


# ---------------------------------------------------------------------------
# criteria

@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the Gagliardo-Nirenberg comparison at theta = vartheta(p).

    Both constants are in the ambient normalization, so the boolean is a
    plain comparison.  When breaking is predicted, lambda_s_bracket is the
    interval certified to contain the symmetry-breaking threshold: above
    its upper end the translated quotient bound beats the symmetric
    constant, below it the data say nothing, which is why an interval and
    never a point is reported.
    """

    d: int
    p: float
    vartheta: float
    c_gn: float
    mu_star_at_fs: float
    breaking_predicted: bool
    lambda_s_bracket: tuple[float, float] | None

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "p": self.p,
            "vartheta": self.vartheta,
            "c_gn": self.c_gn,
            "mu_star_at_fs": self.mu_star_at_fs,
            "breaking_predicted": self.breaking_predicted,
            "lambda_s_bracket": (None if self.lambda_s_bracket is None
                                 else list(self.lambda_s_bracket)),
        }


def grid_theta_reference(branch: Branch, theta: float,
                          Lambda: np.ndarray) -> np.ndarray:
    """Symmetric theta-constants on the branch's own grid.

    Evaluates the grid quotient at the analytically optimal lam; the
    minimizer error is O(h^2) but stationarity demotes it to O(h^4) in
    the value, so the reference carries the same O(h^2) quadrature bias
    as the branch samples and the bias cancels from their difference.
    """
    p = branch.p
    lam_opt = theta_optimal_lam(p, theta, Lambda)
    out = np.empty_like(Lambda)
    for i, (lam_s, lam_v) in enumerate(zip(lam_opt, Lambda)):
        mu, t = symmetric_quotient(branch.grid, p, float(lam_s))
        out[i] = theta_mu(theta, lam_s, t, lam_v, mu)
    return out


def _witness_scan(branch: Branch, theta: float):
    """Samples where the branch theta-quotient beats the symmetric constant.

    Grid-consistent on the branch's own grid, with a relative margin that
    sits well above the observed near-onset quadrature noise (~2e-6) and
    well below genuine breaking signals (>= 5e-5).  Returns the branch
    samples' Lambda and theta-quotient along with the witness mask.
    """
    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    Lambda = theta_Lambda(theta, lam, t_phi)
    mu_theta = theta_mu(theta, lam, t_phi, Lambda, branch.column("mu"))
    ref = grid_theta_reference(branch, theta, Lambda)
    mask = mu_theta < ref * (1.0 - _WITNESS_MARGIN)
    return Lambda, mu_theta, mask


def lemma_criterion(d: int, p: float,
                    branch: Branch | None = None) -> CriterionReport:
    """Compare the GN constant with the symmetric constant at the threshold.

    Strict inequality certifies a symmetry-breaking interval below the
    linear-instability threshold at theta = vartheta(p): the translated
    branch bound never exceeds c_gn, while the symmetric constant grows
    past it.  The bracket's upper end is where the two cross (bisection
    on the increasing difference); a supplied branch can tighten it with
    direct quotient witnesses.
    """
    pars = _params_of(d, p)
    vt = pars.vartheta
    ambient = sphere_area(d) ** (1.0 - 2.0 / p)
    c_gn = gn_constant(d, p)
    lam_fs_th = lambda_fs_theta(pars, vt)
    star_at_fs = mu_star(pars, lam_fs_th, vt) * ambient
    predicted = c_gn < star_at_fs
    bracket = None
    if predicted:
        def excess(Lam: float) -> float:
            return mu_star(pars, Lam, vt) * ambient - c_gn

        lo = lam_fs_th
        for _ in range(200):
            lo *= 0.5
            if excess(lo) < 0.0:
                break
        upper = float(brentq(excess, lo, lam_fs_th, xtol=1e-12))
        if branch is not None:
            Lambda, _, mask = _witness_scan(branch, vt)
            below = Lambda[mask & (Lambda < lam_fs_th)]
            if below.size:
                upper = min(upper, float(below.min()))
        bracket = (0.0, upper)
    return CriterionReport(d=d, p=p, vartheta=vt, c_gn=c_gn,
                           mu_star_at_fs=star_at_fs,
                           breaking_predicted=predicted,
                           lambda_s_bracket=bracket)


# ---------------------------------------------------------------------------
# probe

@dataclass(frozen=True)
class ProbeRow:
    theta: float
    direction: str
    slope_at_onset: float
    turning_points: tuple[TurningPoint, ...]
    witness_exists: bool
    witness_Lambda_lo: float | None
    witness_Lambda_hi: float | None
    monotone_increasing: bool


@dataclass
class ProbeReport:
    d: int
    p: float
    vartheta: float
    rows: list[ProbeRow]
    flip_theta: float | None
    branch: Branch


def _monotone_increasing(Lambda: np.ndarray, mu: np.ndarray) -> bool:
    if not np.all(np.diff(Lambda) > 0.0):
        return False
    slack = 1e-10 * float(np.max(np.abs(mu)))
    return bool(np.all(np.diff(mu) > -slack))


def conjecture_probe(d: int, p: float, theta_grid,
                     branch: Branch | None = None,
                     config: ContinuationConfig | None = None) -> ProbeReport:
    """Tabulate curve geometry and breaking witnesses over a theta grid.

    One frozen branch serves every theta.  Each row records the curve
    direction, its turning points, the Lambda range where branch
    quotients certifiably beat the symmetric constant, and whether the
    curve is monotone increasing as a function of Lambda (reported as an
    observation; nothing downstream assumes it).  If adjacent grid
    entries disagree on direction, the flip is located by bisection on
    theta to 1e-3.
    """
    thetas = sorted(float(t) for t in np.atleast_1d(theta_grid))
    if not thetas:
        raise DomainError("theta grid is empty")
    for t in thetas:
        vt = check_theta(d, p, t)
    if branch is None:
        branch = continue_branch(d, p, config)

    rows = []
    for t in thetas:
        Lambda, mu_theta, mask = _witness_scan(branch, t)
        onset, turnings = _slope_and_turnings(branch.column("lam"), Lambda)
        witnesses = Lambda[mask]
        rows.append(ProbeRow(
            theta=t,
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
                if branch_direction(branch, mid) == lo_row.direction:
                    lo_t = mid
                else:
                    hi_t = mid
            flip = 0.5 * (lo_t + hi_t)
            break

    return ProbeReport(d=d, p=p, vartheta=vt, rows=rows,
                       flip_theta=flip, branch=branch)
