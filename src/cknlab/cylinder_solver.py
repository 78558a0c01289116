"""Elliptic solver on the cylinder and continuation of the broken branch.

The Euler-Lagrange equation -phi_ss - Lap_omega phi + Lambda phi = phi^(p-1)
on R x S^(d-1) has an explicit s-only solution for every Lambda > 0.  Past
the Felli-Schneider threshold that solution stops being a local minimizer:
the lowest eigenvalue of the linearization in the first spherical-harmonic
sector crosses zero, and a branch of genuinely zonal solutions bifurcates.
This module discretizes the half cylinder (even reflection in s, Dirichlet
truncation at s = L), polishes the symmetric profile by a banded Newton
iteration, exposes the sector-wise linearized spectrum, and follows the
bifurcating branch by Keller pseudo-arclength continuation.

Gauge choices, once and for all: translation invariance in s is removed by
working on the even-symmetric half grid (the cell-centered nodes never sit
at s = 0, so the reflection is exact and no phase condition is needed: the
odd zero mode simply does not exist in the discretized space), and the
arclength normalization uses the quadrature-weighted inner product so that
step lengths mean the same thing on every grid.

Cost: sparse LU of the bordered Keller matrix dominates continuation.  The
matrix keeps one nonzero pattern per grid, so its COLAMD column order is
computed once and every corrector matrix is assembled in place, already in
that order, and factored without reordering; the steps are bit-identical
to ordering each matrix afresh.  Skipping COLAMD altogether (NATURAL on the
s-major unknowns) was rejected: that LU rounds differently, and corrector
residuals sitting at the floor just below _NEWTON_TOL then change the
Newton iteration counts of the branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from .errors import (
    ContinuationStalled,
    DomainError,
    EigFailed,
    NegativeSolution,
    NewtonDiverged,
)
from .grids import CylinderField, half_line_grid, zonal_laplacian, zonal_quadrature
from .params import check_cylinder_exponent, lambda_fs_value
from .profiles import phi_star

__all__ = [
    "CylinderGrid",
    "cylinder_grid",
    "default_grid",
    "solve_symmetric",
    "symmetric_quotient",
    "linearized_spectrum",
    "newton_solve",
    "angular_amplitude",
    "ContinuationConfig",
    "BranchPoint",
    "Branch",
    "continue_branch",
]

_ZERO_FLOOR = 1e-13
_NEGATIVE_TOL = 1e-8
# the symmetric polish stops below this sup-residual and fails after
# this many Newton iterations; see _symmetric_profile for its stall rule
_POLISH_TOL = 1e-12
_POLISH_MAX_ITER = 60

# Continuation corrector and recovery limits.  A Keller corrector converges
# when its sup-residual drops below _NEWTON_TOL within _NEWTON_MAX_ITER
# iterations.  The branch switch starts at _SWITCH_FRACTION of the weighted
# norm of the symmetric solution at the bifurcation point and halves that
# amplitude until Newton first lands on something genuinely non-symmetric,
# at most _MAX_SWITCH_TRIES times; past the switch, a step that fails is
# halved, at most _MAX_STEP_FAILURES times in a row.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 12
_SWITCH_FRACTION = 0.1
_MAX_SWITCH_TRIES = 20
_MAX_STEP_FAILURES = 25


@dataclass(frozen=True)
class CylinderGrid:
    """Discrete workspace shared by every solve on one cylinder.

    Axial direction: cell-centered nodes s_j = (j + 1/2) h on [0, L], even
    reflection through 0, Dirichlet wall at L.  Zonal direction: Gauss-Jacobi
    nodes for the polar-angle reduction of the uniform probability measure on
    S^(d-1), with the Laplace-Beltrami collocation matrix that is exact on
    all resolved zonal harmonics.
    """

    d: int
    length: float
    s: np.ndarray
    h: float
    z: np.ndarray
    wz: np.ndarray
    lap_z: np.ndarray

    @property
    def m_cells(self) -> int:
        return len(self.s)

    @property
    def nz(self) -> int:
        return len(self.z)

    def field(self, values: np.ndarray, p: float | None = None,
              Lambda: float | None = None) -> CylinderField:
        return CylinderField(self.d, self.s, self.h, self.z, self.wz,
                             values, p=p, Lambda=Lambda)

    def symmetric_field(self, profile: np.ndarray, p: float | None = None,
                        Lambda: float | None = None) -> CylinderField:
        vals = np.tile(np.asarray(profile, dtype=float)[:, None],
                       (1, self.nz))
        return self.field(vals, p=p, Lambda=Lambda)


def cylinder_grid(d: int, length: float, m_cells: int = 400,
                  nz: int = 20) -> CylinderGrid:
    if d < 2:
        raise DomainError(f"cylinder grid needs d >= 2, got d={d}")
    if nz < 4:
        raise DomainError(f"need at least 4 zonal nodes, got {nz}")
    s, h = half_line_grid(length, m_cells)
    z, wz = zonal_quadrature(d - 1, nz)
    lap_z = zonal_laplacian(d - 1, z, wz)
    return CylinderGrid(d, float(length), s, h, z, wz, lap_z)


def default_grid(d: int, lam_min: float, m_cells: int = 400,
                 nz: int = 20) -> CylinderGrid:
    """Grid with truncation 20 / sqrt(lam_min).

    The symmetric profile decays like exp(-sqrt(Lambda) |s|) and the zonal
    perturbations faster still, so this cutoff puts the Dirichlet wall at a
    relative amplitude of exp(-20); truncation effects are then far below
    every tolerance used in this module.
    """
    if lam_min <= 0.0:
        raise DomainError(f"need lam_min > 0, got {lam_min}")
    return cylinder_grid(d, 20.0 / math.sqrt(lam_min), m_cells, nz)


def _grid_of(phi: CylinderField) -> CylinderGrid:
    """Rebuild the discrete workspace around an existing field.

    Uses the field's own nodes and weights, so fields built on custom
    zonal rules keep a Laplacian consistent with their quadrature.
    """
    return CylinderGrid(phi.d, float(phi.s[-1] + 0.5 * phi.h),
                        phi.s, phi.h, phi.z, phi.wz,
                        zonal_laplacian(phi.d - 1, phi.z, phi.wz))


def _s_operator(m: int, h: float, parity: str):
    """Tridiagonal -d2/ds2 on the half grid with a reflection ghost.

    Even parity reflects phi(-h/2) = phi(h/2), odd parity flips the sign.
    Returns (main, off) diagonals; the Dirichlet wall at L is the plain
    2/h^2 entry in the last row.
    """
    main = np.full(m, 2.0 / h ** 2)
    off = np.full(m - 1, -1.0 / h ** 2)
    if parity == "even":
        main[0] = 1.0 / h ** 2
    elif parity == "odd":
        main[0] = 3.0 / h ** 2
    else:
        raise DomainError(f"unknown parity {parity!r}")
    return main, off


def _apply_s_operator(main, off, v):
    out = main * v if v.ndim == 1 else main[:, None] * v
    out[:-1] += off * v[1:] if v.ndim == 1 else off[:, None] * v[1:]
    out[1:] += off * v[:-1] if v.ndim == 1 else off[:, None] * v[:-1]
    return out


def _symmetric_profile(grid: CylinderGrid, p: float,
                       lam: float) -> np.ndarray:
    """Sampled explicit profile polished by banded Newton on the s-problem.

    Converges quadratically to a sup-residual below _POLISH_TOL, or until
    it hits the rounding floor of the grid (the second-difference stencil
    amplifies storage rounding by 1/h^2), so stagnation below stall_tol
    counts as success; stagnation above it is a genuine failure.  stall_tol
    is that floor with a 10x safety margin, never below 1e-10 so the
    standard-grid residual contract stays meaningful.
    """
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    phi = phi_star(grid.s, p, lam)
    peak = (lam * p / 2.0) ** (1.0 / (p - 2.0))
    stall_tol = max(1e-10, 10.0 * np.finfo(float).eps * peak / grid.h ** 2)
    up = np.append(0.0, off)
    lo = np.append(off, 0.0)
    best = math.inf
    for it in range(_POLISH_MAX_ITER):
        f = _apply_s_operator(main, off, phi) + lam * phi - phi ** (p - 1.0)
        res = float(np.max(np.abs(f)))
        if res < _POLISH_TOL:
            return phi
        if res >= 0.5 * best:
            if res <= stall_tol:
                return phi
            raise NewtonDiverged(
                f"symmetric polish stalled at residual {res:.2e} "
                f"(lam={lam}, p={p})", residual=res, iterations=it)
        best = res
        jac_main = main + lam - (p - 1.0) * phi ** (p - 2.0)
        phi = phi - solve_banded((1, 1), np.vstack([up, jac_main, lo]), f)
    raise NewtonDiverged(
        f"symmetric polish used all {_POLISH_MAX_ITER} iterations "
        f"(residual {best:.2e}, lam={lam}, p={p})", residual=best,
        iterations=_POLISH_MAX_ITER)


def solve_symmetric(d: int, p: float, Lambda: float,
                    grid: CylinderGrid | None = None) -> CylinderField:
    """Symmetric cylinder solution, centered at s = 0.

    Samples the closed-form profile and Newton-polishes it on the discrete
    s-only problem, so the returned field satisfies the *discrete* equation
    to 1e-12 rather than merely being a good sample of the continuum
    solution.  That distinction matters everywhere a discrete quotient is
    compared against a discrete branch point.
    """
    check_cylinder_exponent(d, p)
    if Lambda <= 0.0:
        raise DomainError(f"need Lambda > 0, got {Lambda}")
    if grid is None:
        grid = default_grid(d, Lambda)
    phi = _symmetric_profile(grid, p, Lambda)
    return grid.symmetric_field(phi, p=p, Lambda=Lambda)


def _pt_lowest(grid: CylinderGrid, p: float, lam: float, profile: np.ndarray,
               sector: int, parity: str, count: int) -> np.ndarray:
    main, off = _s_operator(grid.m_cells, grid.h, parity)
    delta_k = sector * (sector + grid.d - 2.0)
    diag = main + lam + delta_k - (p - 1.0) * profile ** (p - 2.0)
    try:
        vals = eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1))[0]
    except np.linalg.LinAlgError as exc:
        raise EigFailed(f"tridiagonal eigensolve failed in sector {sector}: "
                        f"{exc}") from exc
    return vals


def linearized_spectrum(phi: CylinderField, Lambda: float, sector: int,
                        count: int = 1) -> np.ndarray:
    """Lowest eigenvalues of the linearization around a symmetric solution.

    The operator -d2/ds2 + Lambda + delta_k - (p-1) phi^(p-2) acts on the
    full line; on the half grid its spectrum is the union of the even and
    odd reflection sectors, so both are computed and merged.  delta_k is
    the k-th zonal eigenvalue of -Lap_omega on S^(d-1), i.e. k (k + d - 2).
    The LAPACK path behind the index-window selection is bisection plus
    inverse iteration, which is as cheap as it gets for a handful of
    eigenvalues of a tridiagonal matrix.

    The odd sector at k = 0 always contains a near-zero eigenvalue: the
    translation mode phi'.  Its presence in the output is a correctness
    signal, not a defect.
    """
    if phi.p is None:
        raise DomainError("field carries no exponent p; build it via "
                          "solve_symmetric or attach metadata")
    if sector < 0 or sector != int(sector):
        raise DomainError(f"sector must be a nonnegative integer, got {sector}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    zonal_spread = float(np.max(np.abs(phi.values - (phi.values @ phi.wz)[:, None])))
    if zonal_spread > 1e-8 * max(float(np.max(np.abs(phi.values))), 1.0):
        raise DomainError("linearized_spectrum expects a symmetric field; "
                          f"zonal spread {zonal_spread:.2e} is too large")
    grid = _grid_of(phi)
    profile = phi.values @ phi.wz
    evs = np.concatenate([
        _pt_lowest(grid, phi.p, Lambda, profile, int(sector), "even", count),
        _pt_lowest(grid, phi.p, Lambda, profile, int(sector), "odd", count),
    ])
    evs.sort()
    return evs[:count]


# ---------------------------------------------------------------------------
# zonal Newton solver

def _residual_2d(grid: CylinderGrid, main, off, p: float, lam: float,
                 u: np.ndarray) -> np.ndarray:
    out = _apply_s_operator(main, off, u)
    out -= u @ grid.lap_z.T
    return out + lam * u - np.maximum(u, 0.0) ** (p - 1.0)


def _fixed_operator(grid: CylinderGrid, main, off) -> sp.csr_matrix:
    """The u- and lam-independent part -d2/ds2 - Lap_omega of the Jacobian.

    Unknowns are s-major (index j * nz + k), hence kron(A_s, I) +
    kron(I, -Lap_z).  The full Jacobian adds the diagonal
    lam - (p-1) u_+^(p-2) to it.
    """
    m, nz = grid.m_cells, grid.nz
    a_s = sp.diags([off, main, off], [-1, 0, 1], shape=(m, m), format="csr")
    return sp.kron(a_s, sp.identity(nz), format="csr") \
        + sp.kron(sp.identity(m), sp.csr_matrix(-grid.lap_z), format="csr")


def _diag_term(p: float, lam: float, u: np.ndarray) -> np.ndarray:
    return (lam - (p - 1.0) * np.maximum(u, 0.0) ** (p - 2.0)).ravel()


def _newton_2d(grid: CylinderGrid, main, off, p: float, lam: float,
               u0: np.ndarray, tol: float, max_iter: int):
    """Damped Newton for the zonal problem; None on failure.

    The line search accepts any step that beats a modest Armijo-flavored
    decrease of the sup-residual.  Without it, full steps from a perturbed
    start routinely overshoot into the concave region of u^(p-1) and
    oscillate.
    """
    fixed = _fixed_operator(grid, main, off)
    u = u0.copy()
    f = _residual_2d(grid, main, off, p, lam, u)
    nrm = float(np.max(np.abs(f)))
    for it in range(max_iter):
        if nrm < tol:
            return u, it, nrm
        jac = (fixed + sp.diags(_diag_term(p, lam, u))).tocsc()
        du = splu(jac).solve(f.ravel()).reshape(u.shape)
        step = 1.0
        for _ in range(25):
            u_new = u - step * du
            f_new = _residual_2d(grid, main, off, p, lam, u_new)
            nrm_new = float(np.max(np.abs(f_new)))
            if nrm_new < nrm * (1.0 - 0.1 * step) or nrm_new < tol:
                break
            step *= 0.5
        else:
            return None, it, nrm
        u, f, nrm = u_new, f_new, nrm_new
    return None, max_iter, nrm


def newton_solve(init: CylinderField, Lambda: float, tol: float = 1e-10,
                 max_iter: int = 60) -> CylinderField:
    """Solve the zonal cylinder equation from a caller-supplied start.

    The nonlinearity uses the positive part, so sign-indefinite iterates
    cannot feed complex powers; a converged solution with a genuinely
    negative trough is rejected as NegativeSolution, while roundoff-level
    undershoots are clamped.  The identically-zero fixed point is a valid
    output here (it is a solution); callers building branch points must
    test for it.
    """
    if init.p is None:
        raise DomainError("initial field carries no exponent p")
    check_cylinder_exponent(init.d, init.p)
    if Lambda <= 0.0:
        raise DomainError(f"need Lambda > 0, got {Lambda}")
    grid = _grid_of(init)
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    u, iters, res = _newton_2d(grid, main, off, init.p, Lambda,
                               init.values, tol, max_iter)
    if u is None:
        raise NewtonDiverged(
            f"zonal Newton failed at Lambda={Lambda} (residual {res:.2e})",
            residual=res, iterations=iters)
    peak = float(np.max(np.abs(u)))
    if peak > _ZERO_FLOOR and float(np.min(u)) < -_NEGATIVE_TOL * peak:
        raise NegativeSolution(
            f"converged profile dips to {float(np.min(u)):.2e} "
            f"against peak {peak:.2e}")
    return grid.field(np.maximum(u, 0.0), p=init.p, Lambda=Lambda)


def angular_amplitude(phi: CylinderField) -> float:
    """Full-cylinder L2 norm of the field minus its zonal mean.

    Zero exactly on symmetric fields; the continuation uses it to tell a
    genuine branch point from a fallback onto the symmetric family.
    """
    centered = phi.values - (phi.values @ phi.wz)[:, None]
    return math.sqrt(phi.integrate(centered ** 2))


# ---------------------------------------------------------------------------
# branch continuation

@dataclass(frozen=True)
class ContinuationConfig:
    """Grid and step settings of the pseudo-arclength walk."""

    lambda_max: float = 12.0
    m_cells: int = 400
    nz: int = 20
    length: float | None = None
    ds_init: float = 0.005
    ds_growth: float = 1.3
    ds_max: float = 0.25
    max_points: int = 400

    def __post_init__(self) -> None:
        if self.lambda_max <= 0.0:
            raise DomainError(f"lambda_max must be positive, got {self.lambda_max}")
        if self.ds_init <= 0.0 or self.ds_max < self.ds_init:
            raise DomainError("need 0 < ds_init <= ds_max")
        if self.ds_growth < 1.0:
            raise DomainError(f"ds_growth must be >= 1, got {self.ds_growth}")
        if self.max_points < 2:
            raise DomainError("max_points must be at least 2")


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation point with its diagnostics.

    mu and t_phi are the discrete energy quotient and gradient-to-mass
    ratio of the branch field; mu_star is the quotient of the symmetric
    solution on the same grid at the same lam, so mu_star - mu is a
    grid-consistent symmetry-breaking gap free of O(h^2) bias.  lowest_eig
    is the bottom of the k=1 linearized spectrum of that same symmetric
    solution: negative past the bifurcation, certifying that the symmetric
    family is no longer a local minimizer there.
    """

    lam: float
    mu: float
    mu_star: float
    t_phi: float
    lowest_eig: float
    newton_iters: int
    residual: float
    arclength: float
    field: CylinderField

    @property
    def gap(self) -> float:
        return self.mu_star - self.mu


@dataclass
class Branch:
    """Ordered continuation points plus how and where the branch was born."""

    d: int
    p: float
    bifurcation_lambda: float
    predicted_lambda_fs: float
    grid: CylinderGrid
    config: ContinuationConfig
    points: list[BranchPoint]

    def __len__(self) -> int:
        return len(self.points)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(q, name) for q in self.points])

    def as_rows(self):
        """Rows for the branch CSV, in continuation order."""
        for q in self.points:
            yield (q.lam, q.mu, q.mu_star, q.t_phi, q.lowest_eig,
                   q.newton_iters, q.residual, q.arclength)


def _locate_bifurcation(grid: CylinderGrid, p: float, lam_fs: float) -> float:
    """Discrete lam where the even k=1 eigenvalue changes sign.

    Brackets around the analytic threshold; on sane grids the crossing
    sits within a few parts in 1e5 of it, and starting the branch switch
    from the discrete crossing (not the analytic one) keeps the bordered
    first step well-conditioned.
    """

    def lowest(lam: float) -> float:
        profile = _symmetric_profile(grid, p, lam)
        return float(_pt_lowest(grid, p, lam, profile, 1, "even", 1)[0])

    lo, hi = 0.9 * lam_fs, 1.1 * lam_fs
    f_lo, f_hi = lowest(lo), lowest(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ContinuationStalled(
            f"no k=1 eigenvalue sign change in [{lo:.4f}, {hi:.4f}] "
            f"(got {f_lo:.2e}, {f_hi:.2e})", lam=lam_fs)
    return float(brentq(lowest, lo, hi, xtol=1e-12, rtol=1e-14))


class _BorderedKeller:
    """The bordered Keller matrix of one grid, ordered once, filled in place.

    The corrector solves [[J, u], [row]] dx = rhs, where J = fixed +
    diag(lam - (p-1) u_+^(p-2)), the last column dF/dlam = u, and row is
    the weighted tangent.  Its nonzero pattern (the fixed operator, the
    diagonal, the u column and the tangent row with its (n, n) corner) is
    the same at every corrector iteration of a run, so the matrix is kept
    in CSC form with its columns already in COLAMD order, and each solve
    only overwrites the diagonal, the u column and the row in `data`.  The
    corner stays stored when the tangent's lam entry is exactly 0, as it
    is at the branch switch, so one pattern serves the whole run.

    Factoring in that order with NATURAL gives the very LU that
    splu(A) computes with COLAMD on each matrix, hence bit-identical
    steps.
    """

    def __init__(self, fixed: sp.csr_matrix):
        n = fixed.shape[0]
        coo = fixed.tocoo()
        offdiag = coo.row != coo.col
        k = int(np.count_nonzero(offdiag))
        idx = np.arange(n)
        # triplets: off-diagonal fixed entries, diagonal, u column, row
        rows = np.concatenate([coo.row[offdiag], idx, idx, np.full(n + 1, n)])
        cols = np.concatenate([coo.col[offdiag], idx, np.full(n, n),
                               np.arange(n + 1)])
        self._fixed_diag = fixed.diagonal()
        # Any nonsingular values do, since the column order depends on the
        # pattern alone: J = fixed + I, a zero u column and the row e_n.
        values = np.zeros(len(rows))
        values[:k] = coo.data[offdiag]
        values[k:k + n] = self._fixed_diag + 1.0
        values[-1] = 1.0
        template = sp.csc_matrix((values, (rows, cols)), shape=(n + 1, n + 1))
        perm_c = splu(template).perm_c
        # perm_c[j] is the position of column j in the ordered matrix
        new_cols = perm_c[cols]
        src = np.lexsort((rows, new_cols))
        slot = np.empty_like(src)
        slot[src] = np.arange(len(src))
        self._diag = slot[k:k + n]
        self._ucol = slot[k + n:k + 2 * n]
        self._row = slot[k + 2 * n:]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(new_cols, minlength=n + 1))])
        self._matrix = sp.csc_matrix((values[src], rows[src], indptr),
                                     shape=(n + 1, n + 1))
        self._order = np.argsort(perm_c)

    def solve(self, p: float, lam: float, u: np.ndarray, row: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
        """dx with [[J(u, lam), u], [row]] dx = rhs, in natural order."""
        data = self._matrix.data
        data[self._diag] = self._fixed_diag + _diag_term(p, lam, u)
        data[self._ucol] = u.ravel()
        data[self._row] = row
        step = np.empty_like(rhs)
        step[self._order] = splu(self._matrix, permc_spec="NATURAL").solve(rhs)
        return step


def _quotient_data(grid: CylinderGrid, main, off, p: float, lam: float,
                   u: np.ndarray):
    """(mu, t) from the discrete quadratic forms, full-cylinder convention."""
    h, wz = grid.h, grid.wz
    a_u = _apply_s_operator(main, off, u)
    grad = 2.0 * h * float(np.sum((a_u * u) @ wz))
    grad += 2.0 * h * float(np.sum(((-(u @ grid.lap_z.T)) * u) @ wz))
    l2 = 2.0 * h * float(np.sum((u * u) @ wz))
    lp = (2.0 * h * float(np.sum((np.abs(u) ** p) @ wz))) ** (1.0 / p)
    mu = (grad + lam * l2) / lp ** 2
    return mu, grad / l2


def symmetric_quotient(grid: CylinderGrid, p: float, lam: float):
    """(mu, t) of the discrete symmetric solution on this grid's s-line.

    Because the zonal weights are a probability measure, the sphere
    integrates out of every norm of an s-only field, so this equals the
    quotient of the tiled two-dimensional field at a fraction of the
    cost.  Continuation records these as its grid-consistent symmetric
    references, and the theta-reparametrized analyses lean on the same
    numbers; computing them on the branch's own grid is what cancels the
    O(h^2) quadrature bias out of every symmetry-breaking gap.
    """
    profile = _symmetric_profile(grid, p, lam)
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    return _profile_quotient(grid, main, off, p, lam, profile)


def _profile_quotient(grid: CylinderGrid, main, off, p: float, lam: float,
                      profile: np.ndarray):
    """(mu, t) of a given s-only profile; see symmetric_quotient."""
    h = grid.h
    a_phi = _apply_s_operator(main, off, profile)
    grad = 2.0 * h * float(np.sum(a_phi * profile))
    l2 = 2.0 * h * float(np.sum(profile * profile))
    lp = (2.0 * h * float(np.sum(profile ** p))) ** (1.0 / p)
    return (grad + lam * l2) / lp ** 2, grad / l2


def continue_branch(d: int, p: float,
                    config: ContinuationConfig | None = None) -> Branch:
    """Follow the zonal branch from the symmetry-breaking point.

    Locates the discrete k=1 crossing on the symmetric family, switches
    onto the broken branch with a bordered Keller step in the direction of
    the critical eigenfunction times the first zonal harmonic, then
    continues by pseudo-arclength with secant tangents until lam exceeds
    config.lambda_max.  The arclength inner product weighs the field part
    with the cylinder quadrature, so the constraint row of the bordered
    system is the weighted tangent; this is what prevents the first step
    from relaxing back onto the symmetric family, where plain Newton would
    happily land.

    The bordered matrix has the same nonzero pattern at every corrector
    iteration on the grid, so it is ordered once (see _BorderedKeller) and
    only its u-dependent entries are rewritten per iteration.  NATURAL
    factorization of the raw s-major ordering is cheaper, but it flips
    newton_iters at points whose residual sits at the rounding floor.
    """
    check_cylinder_exponent(d, p)
    cfg = config if config is not None else ContinuationConfig()
    lam_fs = lambda_fs_value(d, p)
    length = cfg.length if cfg.length is not None else 20.0 / math.sqrt(lam_fs)
    grid = cylinder_grid(d, length, cfg.m_cells, cfg.nz)
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    m, nz = grid.m_cells, grid.nz
    bordered = _BorderedKeller(_fixed_operator(grid, main, off))

    lam_b = _locate_bifurcation(grid, p, lam_fs)
    profile_b = _symmetric_profile(grid, p, lam_b)
    diag = main + lam_b + (d - 1.0) - (p - 1.0) * profile_b ** (p - 2.0)
    try:
        _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    except np.linalg.LinAlgError as exc:
        raise EigFailed(f"critical eigenfunction solve failed: {exc}") from exc
    u1 = vecs[:, 0] / math.sqrt(grid.h * float(np.sum(vecs[:, 0] ** 2)))
    if u1[int(np.argmax(np.abs(u1)))] < 0.0:
        u1 = -u1

    w2 = grid.h * np.tile(grid.wz, m)

    def wnorm(x: np.ndarray) -> float:
        return math.sqrt(float(np.sum(w2 * x[:-1] ** 2)) + x[-1] ** 2)

    def keller_step(x_cur, tangent, ds):
        """One bordered corrector solve; (x, iters, residual) or None."""
        xk = x_cur + ds * tangent
        row = np.append(w2 * tangent[:-1], tangent[-1])
        for it in range(_NEWTON_MAX_ITER):
            u = xk[:-1].reshape(m, nz)
            lam = xk[-1]
            f = _residual_2d(grid, main, off, p, lam, u).ravel()
            constraint = float(row @ (xk - x_cur)) - ds
            res = max(float(np.max(np.abs(f))), abs(constraint))
            if res < _NEWTON_TOL:
                return xk, it, res
            xk = xk - bordered.solve(p, lam, u, row, np.append(f, constraint))
        return None

    points: list[BranchPoint] = []

    def record(x, iters, res, ds):
        u = x[:-1].reshape(m, nz)
        lam = float(x[-1])
        mu, t_phi = _quotient_data(grid, main, off, p, lam, u)
        profile = _symmetric_profile(grid, p, lam)
        mu_sym, _ = _profile_quotient(grid, main, off, p, lam, profile)
        eig = float(_pt_lowest(grid, p, lam, profile, 1, "even", 1)[0])
        points.append(BranchPoint(
            lam=lam, mu=mu, mu_star=mu_sym, t_phi=t_phi, lowest_eig=eig,
            newton_iters=iters, residual=res, arclength=ds,
            field=grid.field(np.maximum(u, 0.0), p=p, Lambda=lam)))

    x_cur = np.append(np.tile(profile_b[:, None], (1, nz)).ravel(), lam_b)
    tangent = np.append((u1[:, None] * grid.z[None, :]).ravel(), 0.0)
    tangent = tangent / wnorm(tangent)
    ds = _SWITCH_FRACTION * wnorm(
        np.append(np.tile(profile_b[:, None], (1, nz)).ravel(), 0.0))
    switched = False
    switch_tries = 0
    step_failures = 0

    while (not points or points[-1].lam < cfg.lambda_max) \
            and len(points) < cfg.max_points:
        out = keller_step(x_cur, tangent, ds)
        amp = 0.0
        if out is not None:
            amp = angular_amplitude(grid.field(out[0][:-1].reshape(m, nz)))
        if out is not None and (switched or amp > 1e-8):
            xk, iters, res = out
            secant = xk - x_cur
            x_cur = xk
            tangent = secant / wnorm(secant)
            record(x_cur, iters, res, ds)
            if switched:
                ds = min(ds * cfg.ds_growth, cfg.ds_max)
            else:
                ds = cfg.ds_init
                switched = True
            step_failures = 0
        elif not switched:
            switch_tries += 1
            ds *= 0.5
            if switch_tries > _MAX_SWITCH_TRIES:
                raise ContinuationStalled(
                    "branch switch never produced a non-symmetric point",
                    lam=lam_b)
        else:
            ds *= 0.5
            step_failures += 1
            if step_failures > _MAX_STEP_FAILURES:
                raise ContinuationStalled(
                    f"step size underflowed at lam={points[-1].lam:.5f}",
                    lam=points[-1].lam)

    return Branch(d=d, p=p, bifurcation_lambda=lam_b,
                  predicted_lambda_fs=lam_fs, grid=grid, config=cfg,
                  points=points)
