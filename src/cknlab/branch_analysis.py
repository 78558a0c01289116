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

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgetrs

from .cylinder_solver import (
    Branch,
    continue_branch,
    symmetric_quotient,
)
from .errors import DomainError, GroundStateFailed, InsufficientSamples
from .grids import gauss_panels
from .params import (
    check_cylinder_exponent,
    check_theta,
    derive_params,
    lambda_fs_theta,
    mu_star,
    sphere_area,
    theta_Lambda,
    theta_mu,
    theta_optimal_lam,
)
from .profiles import phi_star

__all__ = [
    "CurveB",
    "TurningPoint",
    "Classification",
    "reparametrize",
    "classify_bifurcation",
    "GroundState",
    "gn_ground_state",
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
    check_cylinder_exponent(d, p)
    return derive_params(d, {"p": p, "Lambda": 1.0}, "cylinder")


# ---------------------------------------------------------------------------
# curves

@dataclass
class CurveB:
    """A branch re-read at fixed theta, ordered by the continuation lam.

    Lambda is theta lam - (1 - theta) t[phi_lam] sample by sample, and
    mu_star_theta is the symmetric theta-constant `params.mu_star` at
    that Lambda.  The mu column bounds the optimal theta-constant from
    above at each Lambda; nothing here claims any sample is optimal.
    """

    theta: float
    lam: np.ndarray
    Lambda: np.ndarray
    mu: np.ndarray
    mu_star_theta: np.ndarray
    d_Lambda_d_lambda: np.ndarray


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


def reparametrize(branch: Branch, theta: float) -> CurveB:
    """Map a continuation branch to its theta < 1 reading.

    At theta = 1 this is the identity: Lambda equals lam bitwise and mu
    is carried over unchanged.  The mu_star_theta column then holds the
    grid-free symmetric constant, which is not the same number as the
    branch's own grid-consistent mu_star; comparisons near the
    bifurcation must use the latter.
    """
    check_theta(branch.d, branch.p, theta)
    pars = _params_of(branch.d, branch.p)
    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    mu = branch.column("mu")
    if theta == 1.0:
        Lambda = lam.copy()
        mu_theta = mu.copy()
    else:
        Lambda = theta_Lambda(theta, lam, t_phi)
        mu_theta = theta_mu(theta, lam, t_phi, Lambda, mu)
    stars = np.array([mu_star(pars, v, theta) for v in Lambda])
    return CurveB(theta=theta, lam=lam, Lambda=Lambda, mu=mu_theta,
                  mu_star_theta=stars,
                  d_Lambda_d_lambda=np.gradient(Lambda, lam))


def _classify(lam: np.ndarray, Lambda: np.ndarray) -> Classification:
    """Direction, onset slope and turning points of Lambda(lam) samples.

    Direction is the sign of d Lambda / d lam over the first handful of
    post-bifurcation samples (the continuation takes its smallest steps
    there, which is what a local derivative estimate near a pitchfork
    needs).  Turning points are sign changes of the same derivative,
    refined by a local quadratic fit in (lam, Lambda).  Fewer than 10
    samples past the bifurcation raise InsufficientSamples.
    """
    if len(lam) < 10:
        raise InsufficientSamples(
            f"need at least 10 samples past the bifurcation, got {len(lam)}")
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
    return Classification(direction="left" if onset < 0.0 else "right",
                          slope_at_onset=onset,
                          turning_points=tuple(turnings))


def classify_bifurcation(curve: CurveB) -> Classification:
    """Initial direction and turning points of the curve (see _classify)."""
    return _classify(curve.lam, curve.Lambda)


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg oracle

@dataclass(frozen=True)
class GroundState:
    """Radial ground state of -u'' - (d-1) u'/r + u = u^(p-1).

    profile.at(r) gives u and du/dr from the spectral interpolant at
    radii in [0, _OUTER_R], the collocation domain (past it the
    polynomial grows without bound); du is the interpolant's own
    derivative, not a finite difference.  The three integrals are
    sphere-area-free radial integrals against r^(d-1) dr over the whole
    collocation domain.
    """

    d: int
    p: float
    profile: _Interpolant
    grad_sq: float
    mass_sq: float
    p_int: float


# The ground state is collocated on x in [-1, 1] with r = R sinh(a x) /
# sinh(a), R = _OUTER_R: the map packs nodes into the core, and an even
# profile in x is an even profile in r, so only the nodes with x > 0 are
# unknowns (Trefethen, Spectral Methods in MATLAB, ch. 11).  u(R) = 0
# stands in for decay at infinity.  Near p = 2 the profile is wide (1e-7
# of its height at r = 38 for (3, 2.05)), and _tail_share refuses a
# state whose tail is too heavy for R to leave the constant alone.
_OUTER_R = 40.0
# (unknowns, map stretch a), coarse to fine.  A solve is accepted only
# when two consecutive rungs give the same constant to _AGREE: peaked
# states near the critical exponent need the later rungs, and past the
# last one the solve fails.  The constant is compared, not the height:
# being stationary in the profile it settles to ~1e-15, while heights
# and norms of the finest rungs scatter by ~1e-12 from rounding.  A
# rung's matrices are built once per process, and 1 - lap is factored
# once per solve on it.
_RUNGS = ((80, 4.0), (120, 4.0), (160, 6.0), (240, 6.0), (240, 8.0),
          (320, 8.0))
_AGREE = 1e-12
# The longest stage of an accepted state took 4,106 steps, at (8, 2.663),
# over 90 (d, p) with d = 2 to 20 and p up to 99.5% of the way to 2*.
_PETVIASHVILI_MAX_ITER = 5000
_GAUSS_NODES = 400


class _Interpolant:
    """The even Chebyshev interpolant of one solved rung, read in r.

    An even polynomial in x is a polynomial in y = 2 x^2 - 1 with the
    even-index coefficients, T_2k(x) = T_k(y), so evaluation (Clenshaw,
    one pass per coefficient over the points) costs half as much and
    needs no (points x nodes) matrix.
    """

    def __init__(self, nodal: np.ndarray, stretch: float):
        # nodal holds u at x_1 > ... > x_m > 0 of the 2m + 2 points
        # cos(pi j / (2m + 1)); u = 0 at x = +-1.  The DCT-I by FFT gives
        # the coefficients; the last one, of odd degree, is dropped.
        n = 2 * len(nodal) + 1
        v = np.concatenate(([0.0], nodal, nodal[::-1], [0.0]))
        coef = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real / n
        coef[0] *= 0.5
        self.coef = coef[0::2]
        self.dcoef = chebder(self.coef)
        self.stretch = stretch
        for arr in (self.coef, self.dcoef):
            arr.setflags(write=False)

    def at_x(self, x: np.ndarray):
        """u and du/dr at map coordinates x, with r and dr/dx."""
        r, jac = _mapped(x, self.stretch)
        y = 2.0 * x * x - 1.0
        u = chebval(y, self.coef)
        du = 4.0 * x * chebval(y, self.dcoef) / jac
        return u, du, r, jac

    def at(self, r: np.ndarray):
        """u and du/dr at radii r."""
        s = self.stretch
        u, du, _, _ = self.at_x(np.arcsinh(r * math.sinh(s) / _OUTER_R) / s)
        return u, du


def _mapped(x: np.ndarray, stretch: float):
    """r(x) and dr/dx of the collocation map."""
    scale = _OUTER_R / math.sinh(stretch)
    return scale * np.sinh(stretch * x), scale * stretch * np.cosh(stretch * x)


@lru_cache(maxsize=None)
def _radial_operators(m: int, stretch: float):
    """Nodes r > 0 and the first and second r-derivatives on even profiles.

    The 2m + 2 Chebyshev points of degree 2m + 1 avoid x = 0.  The ends
    carry u = 0, and each mirror node's column folds onto its unknown's.
    The operators do not depend on (d, p), so they are cached per rung
    and read-only.
    """
    n = 2 * m + 1
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    gap = np.subtract.outer(x, x) + np.eye(n + 1)
    dx = np.outer(c, 1.0 / c) / gap
    dx -= np.diag(dx.sum(axis=1))
    # d^2/dx^2 off the diagonal from d/dx alone (Welfert, SIAM J. Numer.
    # Anal. 34, 1997), on it by the negative row sum: no matrix product
    dxx = 2.0 * dx * (np.diag(dx)[:, None] - 1.0 / gap)
    np.fill_diagonal(dxx, 0.0)
    dxx -= np.diag(dxx.sum(axis=1))
    rows = slice(1, m + 1)
    own, mirror = np.arange(1, m + 1), np.arange(n - 1, m, -1)
    d1 = dx[rows, own] + dx[rows, mirror]
    d2 = dxx[rows, own] + dxx[rows, mirror]
    r, jac = _mapped(x[1:m + 1], stretch)
    # d/dr = d/dx / r' and d^2/dr^2 = (d^2/dx^2 - (r''/r') d/dx) / r'^2,
    # with r'' = stretch^2 r
    first = d1 / jac[:, None]
    second = (d2 - (stretch * stretch * r / jac)[:, None] * d1) \
        / (jac * jac)[:, None]
    for arr in (r, first, second):
        arr.setflags(write=False)
    return r, first, second


def _cython_lapack(routine: str) -> int:
    """Address of a LAPACK routine, as SciPy publishes it for Cython."""
    capsule, obj = cython_lapack.__pyx_capi__[routine], ctypes.py_object
    # scipy.linalg's own LAPACK, in a capsule named by the C signature
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)


# dgetf2(m, n, a, lda, ipiv, info), with the two arrays as addresses
_int_p = ctypes.POINTER(ctypes.c_int)
_dgetf2 = ctypes.CFUNCTYPE(None, _int_p, _int_p, ctypes.c_void_p, _int_p,
                           ctypes.c_void_p, _int_p)(_cython_lapack("dgetf2"))


def _lu_factor(a: np.ndarray):
    """Partial-pivot LU of a, or None at an exactly zero pivot.

    LAPACK's unblocked dgetf2 runs on the calling thread; the blocked
    getrf hands its updates to the BLAS pool, which made the bits and
    the time of a sweep depend on the thread count.  Returns the
    column-major factors (L unit lower) and dgetf2's row interchanges,
    0-based as scipy.linalg.lapack's getrs takes them.
    """
    lu = np.array(a, dtype=np.float64, order="F")
    size = len(lu)
    if lu.shape != (size, size):
        raise ValueError(f"need a square matrix, got shape {lu.shape}")
    n, info, ipiv = ctypes.c_int(size), ctypes.c_int(), np.empty(size, np.intc)
    _dgetf2(n, n, lu.ctypes.data, n, ipiv.ctypes.data, info)
    if info.value != 0:
        return None
    return lu, ipiv - 1


def _lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve with _lu_factor's factors by one LAPACK getrs call.

    getrs swaps the rows of b and makes the two triangular solves; with
    one right-hand side it stays on one thread at these sizes.
    """
    x, _ = dgetrs(*factors, b)
    return x


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _petviashvili(lap: np.ndarray, u: np.ndarray, p: float):
    """Petviashvili's iteration for L u = |u|^(p-2) u, L = 1 - lap, from u.

    Returns (u, iterations, residual).  L is factored once, and each step
    is u <- u + L^-1 (M^gamma |u|^(p-2) u - L u), gamma = (p-1)/(p-2),
    M = <u, L u> / <u, |u|^(p-2) u> (Petviashvili, Sov. J. Plasma Phys.
    2, 1976; Pelinovsky and Stepanyants, SIAM J. Numer. Anal. 42, 2004):
    u <- M^gamma L^-1 (|u|^(p-2) u) as a correction, because L's
    condition number reaches 7e6 and a solve for u itself never settles.
    Once steps are below 1e-9 of the profile, the first that fails to
    contract is rounding noise and ends the iteration.  u is None unless
    it settled on a profile of height above 1 (u''(0) < 0 forces
    u(0) > 1) that stays above -1e-6 of its height: a deeper dip marks a
    sign-changing state or an unresolved core.  An exactly zero pivot
    gives None, and so does an overflow, without a warning.
    """
    shift = np.eye(len(u)) - lap
    factors = _lu_factor(shift)
    if factors is None:
        return None, 0, math.inf
    gamma = (p - 1.0) / (p - 2.0)
    last, settled = math.inf, False
    for it in range(1, _PETVIASHVILI_MAX_ITER + 1):
        power = np.abs(u) ** (p - 2.0) * u
        image = np.einsum("ij,j->i", shift, u)
        ratio = np.einsum("i,i->", u, image) / np.einsum("i,i->", u, power)
        step = _lu_solve(factors, ratio ** gamma * power - image)
        size = np.max(np.abs(step))
        if not math.isfinite(size):
            return None, it, math.inf
        u = u + step
        if settled and size >= last:
            break
        settled = settled or size <= 1e-9 * np.max(np.abs(u))
        last = size
    residual = float(np.max(np.abs(np.abs(u) ** (p - 2.0) * u
                                   - np.einsum("ij,j->i", shift, u))))
    height = float(np.max(u))
    if not settled or height <= 1.0 or np.min(u) < -1e-6 * height:
        return None, it, residual
    return u, it, residual


def _norms(interp: _Interpolant, d: int, p: float):
    """grad_sq, mass_sq, p_int by Gauss-Legendre in x over (0, 1).

    The weight r^(d-1) is smooth in x on (0, 1) but, for odd d - 1, has
    a kink at x = 0, which is why a rule over [-1, 1] is not used.
    """
    x, w = gauss_panels(0.0, 1.0, 1, _GAUSS_NODES)
    u, du, r, jac = interp.at_x(x)
    weight = w * jac * r ** (d - 1.0)
    return (float(np.einsum("i,i->", du * du, weight)),
            float(np.einsum("i,i->", u * u, weight)),
            float(np.einsum("i,i->", np.abs(u) ** p, weight)))


def _tail_share(interp: _Interpolant, d: int, mass: float) -> float:
    """The share s of mass_sq, the integral of u^2 r^(d-1), past 0.75 R.

    The constant is stationary in the profile, so the wall u(R) = 0,
    R = _OUTER_R, moves it by about kappa e, e the whole-space state's
    share past R.  Near p = 2 the state is Gaussian out to r = 2/(p-2)
    (the 1-D soliton sech((p-2) r/2)^(2/(p-2)) is about
    exp(-(p-2) r^2/4)), so e = s^((1/0.75)^2) = s^(16/9); an exponential
    tail gives far less.  The move from R = 40 to 60 over s^(16/9) was at
    most 5.5 on twelve pairs near p = 2, these among them, so kappa = 10,
    and kappa s^(16/9) <= _AGREE is s <= 4.9e-8:

        (d, p)     (3, 2.05) (3, 2.04) (10, 2.05) (3, 2.03) (3, 2.01)
        s           3.7e-9    1.5e-7    1.2e-6     7.6e-6    1.7e-2
        move        5.7e-15   1.5e-12   3.4e-12    6.0e-10   8.3e-5
    """
    stretch = interp.stretch
    x, w = gauss_panels(math.asinh(0.75 * math.sinh(stretch)) / stretch,
                        1.0, 1, _GAUSS_NODES)
    u, _, r, jac = interp.at_x(x)
    return float(np.einsum("i,i->", u * u, w * jac * r ** (d - 1.0))) / mass


def _solve_ground_state(d: int, p: float):
    """Walk _RUNGS until two consecutive ones agree; the finer one wins.

    Each rung iterates from the previous rung's interpolant, or from the
    1-D soliton on the first rung and after a failed one.  A state with
    too heavy a tail (see _tail_share) is refused.
    """
    _params_of(d, p)  # rejects (d, p) before any rung is solved
    prev = None
    iters, residual = 0, math.nan
    reason = f"no two consecutive resolutions of the ground state agreed " \
        f"to {_AGREE}"
    for m, stretch in _RUNGS:
        r, first, second = _radial_operators(m, stretch)
        seed = phi_star(r, p, 1.0) if prev is None else prev[0].at(r)[0]
        # u'' + (d - 1) u'/r
        lap = second + ((d - 1.0) / r)[:, None] * first
        u, n, residual = _petviashvili(lap, seed, p)
        iters += n
        if u is None:
            prev = None
            continue
        interp = _Interpolant(u, stretch)
        norms = _norms(interp, d, p)
        value = _gn_value(d, p, *norms)
        if prev is not None and abs(value - prev[2]) <= _AGREE * value:
            share = _tail_share(interp, d, norms[1])
            if share <= (0.1 * _AGREE) ** (9.0 / 16.0):
                return interp, norms
            reason = f"the ground state carries {share:.1e} of its mass " \
                f"in its outer quarter, too much for a constant to {_AGREE}"
            break
        prev = (interp, norms, value)
    raise GroundStateFailed(
        f"{reason} (d={d}, p={p}; {iters} iterations, last residual "
        f"{residual:.3e})",
        d=d, p=p, iterations=iters, residual=residual)


@lru_cache(maxsize=16)
def gn_ground_state(d: int, p: float) -> GroundState:
    """Solve for the radial ground state by mapped Chebyshev collocation.

    Petviashvili's iteration on u'' + (d-1) u'/r - u + |u|^(p-2) u = 0
    with u(R) = 0 on a ladder of resolutions (_RUNGS); the state is
    returned only when two consecutive resolutions give the same
    Gagliardo-Nirenberg constant to 1e-12 and R cannot move it at that
    level, else GroundStateFailed is raised, so no unverified constant
    leaves this function.  The norms come from a 400-point
    Gauss-Legendre rule through the interpolant.

    Deterministic, hence cached on its arguments; every caller shares
    one state, so the interpolant's coefficients are read-only.
    """
    interp, (grad, mass, pint) = _solve_ground_state(d, p)
    return GroundState(d=d, p=p, profile=interp, grad_sq=grad, mass_sq=mass,
                       p_int=pint)


def _gn_value(d: int, p: float, grad: float, mass: float,
              pint: float) -> float:
    """The quotient from its three sphere-area-free radial integrals."""
    vartheta = _params_of(d, p).vartheta
    area = sphere_area(d)
    return ((area * grad) ** vartheta * (area * mass) ** (1.0 - vartheta)
            / (area * pint) ** (2.0 / p))


def gn_constant(d: int, p: float) -> float:
    """Gagliardo-Nirenberg constant via the radial ground state.

    Evaluates the quotient ||grad u||^(2 vartheta) ||u||_2^(2(1-vartheta))
    / ||u||_p^2 on the ground state, in the ambient R^d normalization
    (area measure on spheres).  Reads through the ground-state cache.
    """
    p = float(p)
    state = gn_ground_state(d, p)
    return _gn_value(d, p, state.grad_sq, state.mass_sq, state.p_int)


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


def _check_branch_of(branch: Branch, d: int, p: float) -> None:
    if (branch.d, branch.p) != (d, p):
        raise DomainError(
            f"the branch is for (d, p) = ({branch.d}, {branch.p}), "
            f"not for ({d}, {p})")


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
    past it.  The bracket's upper end is where the two cross: the
    symmetric constant is a power of Lambda with exponent
    vartheta - (p-2)/(2p) = (d-1)(p-2)/(2p), so the crossing is that
    power's root.  A supplied branch can tighten it with direct quotient
    witnesses.
    """
    pars = _params_of(d, p)
    if branch is not None:
        _check_branch_of(branch, d, p)
    vt = pars.vartheta
    ambient = sphere_area(d) ** (1.0 - 2.0 / p)
    c_gn = gn_constant(d, p)
    lam_fs_th = lambda_fs_theta(pars, vt)
    star_at_fs = mu_star(pars, lam_fs_th, vt) * ambient
    predicted = c_gn < star_at_fs
    bracket = None
    if predicted:
        upper = lam_fs_th * (c_gn / star_at_fs) ** (
            2.0 * p / ((d - 1.0) * (p - 2.0)))
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
    """Probe rows over a theta grid, read off one branch of (d, p)."""

    d: int
    p: float
    rows: list[ProbeRow]
    flip_theta: float | None

    @property
    def vartheta(self) -> float:
        return _params_of(self.d, self.p).vartheta


def _monotone_increasing(Lambda: np.ndarray, mu: np.ndarray) -> bool:
    if not np.all(np.diff(Lambda) > 0.0):
        return False
    slack = 1e-10 * float(np.max(np.abs(mu)))
    return bool(np.all(np.diff(mu) > -slack))


def conjecture_probe(d: int, p: float, theta_grid,
                     branch: Branch | None = None) -> ProbeReport:
    """Tabulate curve geometry and breaking witnesses over a theta grid.

    One frozen branch serves every theta: the one supplied, which must
    be of the same (d, p), or else the default continuation.  Each row
    records the curve direction, its turning points, the Lambda range
    where branch quotients certifiably beat the symmetric constant, and
    whether the curve is monotone increasing as a function of Lambda
    (reported as an observation; nothing downstream assumes it).  If
    adjacent grid entries disagree on direction, the flip is located by
    bisection on theta to 1e-3.
    """
    thetas = sorted(float(t) for t in np.atleast_1d(theta_grid))
    if not thetas:
        raise DomainError("theta grid is empty")
    for t in thetas:
        check_theta(d, p, t)
    if branch is None:
        branch = continue_branch(d, p)
    _check_branch_of(branch, d, p)

    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    rows = []
    for t in thetas:
        Lambda, mu_theta, mask = _witness_scan(branch, t)
        cls = _classify(lam, Lambda)
        witnesses = Lambda[mask]
        rows.append(ProbeRow(
            theta=t,
            direction=cls.direction,
            slope_at_onset=cls.slope_at_onset,
            turning_points=cls.turning_points,
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
                cls = _classify(lam, theta_Lambda(mid, lam, t_phi))
                if cls.direction == lo_row.direction:
                    lo_t = mid
                else:
                    hi_t = mid
            flip = 0.5 * (lo_t + hi_t)
            break

    return ProbeReport(d=d, p=p, rows=rows, flip_theta=flip)
