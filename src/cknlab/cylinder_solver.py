"""Elliptic solver on the cylinder and continuation of the broken branch.

The Euler-Lagrange equation -phi_ss - Lap_omega phi + Lambda phi = phi^(p-1)
on R x S^(d-1) has an explicit s-only solution for every Lambda > 0.  Past
the Felli-Schneider threshold that solution stops being a local minimizer:
the lowest eigenvalue of the linearization in the first spherical-harmonic
sector crosses zero, and a branch of genuinely zonal solutions bifurcates.
This module works on the half cylinder of grids.CylinderGrid (even
reflection in s, Dirichlet truncation at s = L), and every CylinderField it
returns holds that grid.  It polishes the symmetric profile by a banded
Newton iteration, which raises NewtonDiverged once its residual is not
finite, exposes the sector-wise linearized spectrum, and follows the
bifurcating branch by Keller pseudo-arclength continuation.

Gauge choices, once and for all: translation invariance in s is removed by
working on the even-symmetric half grid (the cell-centered nodes never sit
at s = 0, so the reflection is exact and no phase condition is needed: the
odd zero mode simply does not exist in the discretized space), and the
arclength normalization uses the quadrature-weighted inner product so that
step lengths mean the same thing on every grid.

Cost: sparse LU of the bordered Keller matrix dominates continuation.  The
matrix keeps one nonzero pattern per grid.  It is assembled once, straight
from the s-stencil and the zonal Laplacian into CSC arrays (_stencil_csc,
int32 indices), and its columns are put in order once (_BorderedKeller
says which order and why).  Every corrector then refills the u-dependent
entries in place and factors without reordering; the steps are
bit-identical to assembling and ordering each matrix afresh.  The
assembly builds no Kronecker products and its ILU keeps no fill, so it
stays well below the memory that the corrector LUs and the stored branch
fields need.  scipy.sparse is imported only inside _BorderedKeller, so
processes that never continue a branch, such as params, criterion and the
sphere flows, do not load it.  Each factorization allocates SuperLU's LU
storage afresh, and with glibc's default allocator its pages are mapped,
faulted in and unmapped every time: continue_branch(5, 2.8) then takes
about 285,000 minor page faults and 0.6-0.8 s of system time (2-core
Xeon).  cli_io.run sets the allocator to keep freed heap memory, so in a
CLI process each factorization reuses the last one's pages: about 4,400
faults and 0.01 s.  Library callers of continue_branch keep the
allocator's defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (
    ContinuationStalled,
    DomainError,
    EigFailed,
    NewtonDiverged,
)
from .grids import (CylinderField, CylinderGrid, _tridiagonal_solve,
                    brent_root, cylinder_grid)
from .params import check_cylinder_exponent, lambda_fs_value
from .profiles import phi_star

__all__ = [
    "CylinderGrid",
    "cylinder_grid",
    "default_grid",
    "solve_symmetric",
    "symmetric_quotient",
    "linearized_spectrum",
    "angular_amplitude",
    "ContinuationConfig",
    "BranchPoint",
    "Branch",
    "continue_branch",
]

# the symmetric polish stops below this sup-residual and fails after
# this many Newton iterations; see _symmetric_profile for its stall rule
_POLISH_TOL = 1e-12
_POLISH_MAX_ITER = 60

# Continuation corrector and step policy.  A Keller corrector converges
# when its sup-residual drops below _NEWTON_TOL within _NEWTON_MAX_ITER
# iterations.  The branch switch starts at _SWITCH_FRACTION of the weighted
# norm of the symmetric solution at the bifurcation point; the first
# arclength step past the switch is _DS_INIT, each accepted step lets the
# next grow by _DS_GROWTH up to _DS_MAX, and the walk records at most
# _MAX_POINTS points.  Every rejected step halves ds, and the walk gives up
# once ds falls below continue_branch's floor.
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 12
_SWITCH_FRACTION = 0.1
_DS_INIT = 0.005
_DS_GROWTH = 1.3
_DS_MAX = 0.25
_MAX_POINTS = 400


def default_grid(d: int, lam_min: float, m_cells: int,
                 nz: int) -> CylinderGrid:
    """Grid with truncation 20 / sqrt(lam_min).

    The symmetric profile decays like exp(-sqrt(Lambda) |s|) and the zonal
    perturbations faster still, so this cutoff puts the Dirichlet wall at a
    relative amplitude of exp(-20); truncation effects are then far below
    every tolerance used in this module.
    """
    if not lam_min > 0.0:
        raise DomainError(f"need lam_min > 0, got {lam_min}")
    return cylinder_grid(d, 20.0 / math.sqrt(lam_min), m_cells, nz)


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
    if v.ndim == 2:
        main, off = main[:, None], off[:, None]
    out = main * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _symmetric_profile(grid: CylinderGrid, p: float,
                       lam: float) -> np.ndarray:
    """Sampled explicit profile polished by banded Newton on the s-problem.

    Converges quadratically to a sup-residual below _POLISH_TOL, or until
    it hits the rounding floor of the grid (the second-difference stencil
    amplifies storage rounding by 1/h^2), so stagnation below stall_tol
    counts as success; stagnation above it is a genuine failure.  stall_tol
    is that floor with a 10x safety margin, never below 1e-10 so the
    standard-grid residual contract stays meaningful.  As p falls to 2
    the peak (lam p/2)^(1/(p-2)) grows without bound; once its p-th power,
    which the quotients sum, passes the square root of the largest double,
    DomainError is raised instead of overflowing.
    """
    if p * math.log(lam * p / 2.0) / (p - 2.0) > \
            0.5 * math.log(np.finfo(float).max):
        raise DomainError(f"the symmetric profile at lam={lam}, p={p} is "
                          f"too large to represent")
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    phi = phi_star(grid.s, p, lam)
    peak = (lam * p / 2.0) ** (1.0 / (p - 2.0))
    stall_tol = max(1e-10, 10.0 * np.finfo(float).eps * peak / grid.h ** 2)
    best = math.inf
    for it in range(_POLISH_MAX_ITER):
        # a step that leaves the positive cone makes phi^(p-1) NaN; the
        # residual test below reports that, so NumPy need not warn
        with np.errstate(invalid="ignore"):
            f = (_apply_s_operator(main, off, phi) + lam * phi
                 - phi ** (p - 1.0))
        res = float(np.max(np.abs(f)))
        if res < _POLISH_TOL:
            return phi
        if not math.isfinite(res):
            raise NewtonDiverged(
                f"symmetric polish residual is {res} after {it} iterations "
                f"(lam={lam}, p={p})", residual=res, iterations=it)
        if res >= 0.5 * best:
            if res <= stall_tol:
                return phi
            raise NewtonDiverged(
                f"symmetric polish stalled at residual {res:.2e} "
                f"(lam={lam}, p={p})", residual=res, iterations=it)
        best = res
        jac_main = main + lam - (p - 1.0) * phi ** (p - 2.0)
        phi = phi - _tridiagonal_solve(off, jac_main, off, f)
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
    if not Lambda > 0.0:
        raise DomainError(f"need Lambda > 0, got {Lambda}")
    if grid is None:
        cfg = ContinuationConfig()
        grid = default_grid(d, Lambda, cfg.m_cells, cfg.nz)
    phi = _symmetric_profile(grid, p, Lambda)
    return CylinderField(grid, np.tile(phi[:, None], (1, grid.nz)), p=p,
                         Lambda=Lambda)


def _sector_operator(grid: CylinderGrid, p: float, lam: float,
                     profile: np.ndarray, sector: int, parity: str):
    """(diag, off) of the linearization (see linearized_spectrum)."""
    main, off = _s_operator(grid.m_cells, grid.h, parity)
    delta_k = sector * (sector + grid.d - 2.0)
    return main + lam + delta_k - (p - 1.0) * profile ** (p - 2.0), off


def _pt_lowest(grid: CylinderGrid, p: float, lam: float, profile: np.ndarray,
               sector: int, parity: str, count: int):
    """(values, vectors) of the count lowest eigenpairs of one sector."""
    diag, off = _sector_operator(grid, p, lam, profile, sector, parity)
    try:
        return eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:
        raise EigFailed(f"tridiagonal eigensolve failed in sector {sector}: "
                        f"{exc}") from exc


def linearized_spectrum(phi: CylinderField, sector: int,
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
    signal, not a defect.  Lambda is the field's own, like p.
    """
    if phi.p is None or phi.Lambda is None:
        raise DomainError("field carries no exponent p or no Lambda; build "
                          "it via solve_symmetric or attach metadata")
    if sector < 0 or sector != int(sector):
        raise DomainError(f"sector must be a nonnegative integer, got {sector}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    grid = phi.grid
    profile = phi.values @ grid.wz
    zonal_spread = float(np.max(np.abs(phi.values - profile[:, None])))
    if zonal_spread > 1e-8 * max(float(np.max(np.abs(phi.values))), 1.0):
        raise DomainError("linearized_spectrum expects a symmetric field; "
                          f"zonal spread {zonal_spread:.2e} is too large")
    evs = np.concatenate([
        _pt_lowest(grid, phi.p, phi.Lambda, profile, int(sector), parity,
                   count)[0]
        for parity in ("even", "odd")])
    evs.sort()
    return evs[:count]


# ---------------------------------------------------------------------------
# the zonal equation and its Jacobian pattern

def _residual_2d(grid: CylinderGrid, p: float, lam: float,
                 u: np.ndarray) -> np.ndarray:
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    out = _apply_s_operator(main, off, u)
    out -= u @ grid.lap_z.T
    return out + lam * u - np.maximum(u, 0.0) ** (p - 1.0)


def _stencil_csc(grid: CylinderGrid):
    """CSC pattern of the bordered Keller matrix, natural order.

    Unknowns are s-major (index j * nz + k).  With (main, off) the grid's
    even s-operator, column j * nz + k holds, in increasing row order, the
    s-neighbour below (off[j-1]), the zonal block -Lap_z[:, k] with
    main[j] - Lap_z[k, k] on the diagonal, and the s-neighbour above
    (off[j]).  The full Jacobian adds the diagonal
    lam - (p-1) u_+^(p-2) to it.  Every column also ends in row n (the
    tangent row), and column n (rows 0..n: the u column and the corner)
    is appended; the border entries are zero.  Returns (data, indices,
    indptr, diag) with int32 indices and diag the slot of each diagonal
    entry.
    """
    m, nz = grid.m_cells, grid.nz
    main, off = _s_operator(m, grid.h, "even")
    n = m * nz
    width = nz + 3
    k = np.arange(nz, dtype=np.int32)
    rows = np.empty((m, nz, width), dtype=np.int32)
    vals = np.zeros((m, nz, width))
    base = (np.arange(m, dtype=np.int32) * nz)[:, None]
    rows[:, :, 0] = base + k - nz
    rows[:, :, 1:nz + 1] = (base + k)[:, None, :]
    rows[:, :, nz + 1] = base + k + nz
    rows[:, :, nz + 2] = n
    vals[:, :, 0] = np.append(0.0, off)[:, None]
    vals[:, :, 1:nz + 1] = -grid.lap_z.T
    vals[:, k, k + 1] = main[:, None] - np.diag(grid.lap_z)
    vals[:, :, nz + 1] = np.append(off, 0.0)[:, None]
    # the first s-cell has no neighbour below, the last none above
    keep = np.ones((m, nz, width), dtype=bool)
    keep[0, :, 0] = False
    keep[-1, :, nz + 1] = False
    indices, data = rows[keep], vals[keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2), out=indptr[1:])
    diag = indptr[:-1] + np.tile(k + 1, m)
    diag[:nz] -= 1
    indices = np.concatenate([indices, np.arange(n + 1, dtype=np.int32)])
    data = np.concatenate([data, np.zeros(n + 1)])
    indptr = np.append(indptr, np.int32(len(indices)))
    return data, indices, indptr, diag


def _diag_term(p: float, lam: float, u: np.ndarray) -> np.ndarray:
    return (lam - (p - 1.0) * np.maximum(u, 0.0) ** (p - 2.0)).ravel()


def angular_amplitude(phi: CylinderField) -> float:
    """Full-cylinder L2 norm of the field minus its zonal mean.

    Zero exactly on symmetric fields; the continuation uses it to tell a
    genuine branch point from a fallback onto the symmetric family.
    """
    centered = phi.values - (phi.values @ phi.grid.wz)[:, None]
    return math.sqrt(phi.integrate(centered ** 2))


# ---------------------------------------------------------------------------
# branch continuation

@dataclass(frozen=True)
class ContinuationConfig:
    """Where the pseudo-arclength walk ends and the grid it walks on; its
    step policy is this module's own (_DS_INIT to _MAX_POINTS)."""

    lambda_max: float = 12.0
    m_cells: int = 400
    nz: int = 20
    length: float | None = None

    def __post_init__(self) -> None:
        if not self.lambda_max > 0.0:
            raise DomainError(f"lambda_max must be positive, got {self.lambda_max}")


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
    """Ordered continuation points plus where the branch was born."""

    d: int
    p: float
    bifurcation_lambda: float
    grid: CylinderGrid
    points: list[BranchPoint]

    @property
    def predicted_lambda_fs(self) -> float:
        """The continuum Felli-Schneider threshold of (d, p)."""
        return lambda_fs_value(self.d, self.p)

    def __len__(self) -> int:
        return len(self.points)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(q, name) for q in self.points])


def _locate_bifurcation(grid: CylinderGrid, p: float, lam_fs: float) -> float:
    """Discrete lam where the even k=1 eigenvalue changes sign.

    Brackets around the analytic threshold; on sane grids the crossing
    sits within a few parts in 1e5 of it, and starting the branch switch
    from the discrete crossing (not the analytic one) keeps the bordered
    first step well-conditioned.
    """

    def lowest(lam: float) -> float:
        profile = _symmetric_profile(grid, p, lam)
        return float(_pt_lowest(grid, p, lam, profile, 1, "even", 1)[0][0])

    lo, hi = 0.9 * lam_fs, 1.1 * lam_fs
    f_lo, f_hi = lowest(lo), lowest(hi)
    if not (f_lo > 0.0 > f_hi):
        raise ContinuationStalled(
            f"no k=1 eigenvalue sign change in [{lo:.4f}, {hi:.4f}] "
            f"(got {f_lo:.2e}, {f_hi:.2e})", lam=lam_fs)
    return brent_root(lowest, lo, hi, xtol=1e-12, rtol=1e-14)


class _BorderedKeller:
    """The bordered Keller matrix of one grid, ordered once, filled in place.

    The corrector solves [[J, u], [row]] dx = rhs, where J = fixed +
    diag(lam - (p-1) u_+^(p-2)), the last column dF/dlam = u, and row is
    the weighted tangent.  Its nonzero pattern (the fixed operator, the
    diagonal, the u column and the tangent row with its (n, n) corner) is
    the same at every corrector iteration of a run, so the matrix is
    assembled once, straight from the stencil (_stencil_csc), with its
    columns in SuperLU's COLAMD order, and each solve only overwrites the
    diagonal, the u column and the row in `data`.  The corner stays stored
    when the tangent's lam entry is exactly 0, as it is at the branch
    switch, so one pattern serves the whole run.

    The column order depends on the pattern alone, so it is read off an
    incomplete LU that drops every entry: SuperLU orders columns the same
    way for ILU and LU, and the dropping ILU holds no fill.  Factoring the
    matrix with its columns in that (COLAMD) order with NATURAL gives the
    very LU that splu(A) computes with COLAMD on each matrix, hence
    bit-identical steps.  NATURAL on the s-major unknowns themselves would
    be cheaper, but that LU rounds differently, and corrector residuals
    sitting at the floor just below _NEWTON_TOL then change the Newton
    iteration counts of the branch.  A factorization that SuperLU finds
    exactly singular raises ContinuationStalled at its lam.
    """

    def __init__(self, grid: CylinderGrid):
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import spilu
        n = grid.m_cells * grid.nz
        data, indices, indptr, diag = _stencil_csc(grid)
        self._fixed_diag = data[diag]
        # Any nonsingular values do, since the column order depends on the
        # pattern alone: J = fixed + I, a zero u column and the row e_n.
        data[diag] += 1.0
        data[-1] = 1.0
        template = csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))
        perm_c = spilu(template, drop_tol=1e300, fill_factor=1).perm_c
        # perm_c[j] is the position of column j in the ordered matrix
        self._order = np.argsort(perm_c)
        self._matrix = template[:, self._order]
        start = self._matrix.indptr
        first = start[perm_c]
        self._diag = first[:n] + (diag - indptr[:n])
        self._ucol = first[n] + np.arange(n)
        self._row = start[perm_c + 1] - 1

    def solve(self, p: float, lam: float, u: np.ndarray, row: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
        """dx with [[J(u, lam), u], [row]] dx = rhs, in natural order."""
        from scipy.sparse.linalg import splu
        data = self._matrix.data
        data[self._diag] = self._fixed_diag + _diag_term(p, lam, u)
        data[self._ucol] = u.ravel()
        data[self._row] = row
        try:
            lu = splu(self._matrix, permc_spec="NATURAL")
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise ContinuationStalled(
                f"bordered Keller matrix is singular at lam={lam:.5f}: {exc}",
                lam=float(lam)) from exc
        step = np.empty_like(rhs)
        step[self._order] = lu.solve(rhs)
        return step


def _quotient_data(grid: CylinderGrid, p: float, lam: float, u: np.ndarray):
    """(mu, t) from the discrete quadratic forms, full-cylinder convention."""
    h, wz = grid.h, grid.wz
    main, off = _s_operator(grid.m_cells, h, "even")
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
    return _profile_quotient(grid, p, lam, _symmetric_profile(grid, p, lam))


def _profile_quotient(grid: CylinderGrid, p: float, lam: float,
                      profile: np.ndarray):
    """(mu, t) of a given s-only profile; see symmetric_quotient."""
    h = grid.h
    main, off = _s_operator(grid.m_cells, h, "even")
    a_phi = _apply_s_operator(main, off, profile)
    grad = 2.0 * h * float(np.sum(a_phi * profile))
    l2 = 2.0 * h * float(np.sum(profile * profile))
    lp = (2.0 * h * float(np.sum(profile ** p))) ** (1.0 / p)
    return (grad + lam * l2) / lp ** 2, grad / l2


def _keller_step(grid: CylinderGrid, bordered: _BorderedKeller, p: float,
                 w2: np.ndarray, x_cur: np.ndarray, tangent: np.ndarray,
                 ds: float):
    """One bordered corrector solve from x_cur + ds * tangent, with the
    tangent weighted by w2 as its constraint row: (x, iters, residual), or
    None if _NEWTON_MAX_ITER iterations leave it above _NEWTON_TOL."""
    m, nz = grid.m_cells, grid.nz
    xk = x_cur + ds * tangent
    row = np.append(w2 * tangent[:-1], tangent[-1])
    for it in range(_NEWTON_MAX_ITER):
        u = xk[:-1].reshape(m, nz)
        lam = xk[-1]
        f = _residual_2d(grid, p, lam, u).ravel()
        constraint = float(row @ (xk - x_cur)) - ds
        res = max(float(np.max(np.abs(f))), abs(constraint))
        if res < _NEWTON_TOL:
            return xk, it, res
        xk = xk - bordered.solve(p, lam, u, row, np.append(f, constraint))
    return None


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
    iteration on the grid, so it is ordered once and only its u-dependent
    entries are rewritten per iteration; _BorderedKeller says which order
    and why.

    One rule gives up: every rejected step halves ds, whether its corrector
    gave up or the switch fell back onto the symmetric family, and once ds
    falls below a floor of sqrt(eps) times the onset state's weighted norm
    the walk raises ContinuationStalled at the last recorded lam (at the
    bifurcation lam before the switch lands).  A vanishing secant or a
    singular bordered matrix raises it too.
    """
    check_cylinder_exponent(d, p)
    cfg = config if config is not None else ContinuationConfig()
    lam_fs = lambda_fs_value(d, p)
    grid = (default_grid(d, lam_fs, cfg.m_cells, cfg.nz) if cfg.length is None
            else cylinder_grid(d, cfg.length, cfg.m_cells, cfg.nz))
    m, nz = grid.m_cells, grid.nz
    bordered = _BorderedKeller(grid)

    lam_b = _locate_bifurcation(grid, p, lam_fs)
    profile_b = _symmetric_profile(grid, p, lam_b)
    vecs = _pt_lowest(grid, p, lam_b, profile_b, 1, "even", 1)[1]
    u1 = vecs[:, 0] / math.sqrt(grid.h * float(np.sum(vecs[:, 0] ** 2)))
    if u1[int(np.argmax(np.abs(u1)))] < 0.0:
        u1 = -u1

    w2 = grid.h * np.tile(grid.wz, m)

    def wnorm(x: np.ndarray) -> float:
        return math.sqrt(float(np.sum(w2 * x[:-1] ** 2)) + x[-1] ** 2)

    points: list[BranchPoint] = []

    def record(x, iters, res, ds):
        u = x[:-1].reshape(m, nz)
        lam = float(x[-1])
        mu, t_phi = _quotient_data(grid, p, lam, u)
        profile = _symmetric_profile(grid, p, lam)
        mu_sym, _ = _profile_quotient(grid, p, lam, profile)
        eig = float(_pt_lowest(grid, p, lam, profile, 1, "even", 1)[0][0])
        points.append(BranchPoint(
            lam=lam, mu=mu, mu_star=mu_sym, t_phi=t_phi, lowest_eig=eig,
            newton_iters=iters, residual=res, arclength=ds,
            field=CylinderField(grid, np.maximum(u, 0.0), p=p, Lambda=lam)))

    symmetric = np.tile(profile_b[:, None], (1, nz)).ravel()
    x_cur = np.append(symmetric, lam_b)
    tangent = np.append((u1[:, None] * grid.z[None, :]).ravel(), 0.0)
    tangent = tangent / wnorm(tangent)
    size = wnorm(np.append(symmetric, 0.0))
    ds = _SWITCH_FRACTION * size
    # The step floor, set once.  The secant tangent is a forward difference
    # of the branch in arclength: its truncation error shrinks like ds, its
    # rounding error grows like eps * size / ds, and the two balance at
    # sqrt(eps) * size.  Below that, halving ds only makes the tangent noise.
    ds_min = math.sqrt(np.finfo(float).eps) * size

    while (not points or points[-1].lam < cfg.lambda_max) \
            and len(points) < _MAX_POINTS:
        out = _keller_step(grid, bordered, p, w2, x_cur, tangent, ds)
        # a rejected step: the corrector gave up, or the switch (the walk
        # before the first point) fell back onto the symmetric family
        if out is None or not (points or angular_amplitude(
                CylinderField(grid, out[0][:-1].reshape(m, nz))) > 1e-8):
            ds *= 0.5
            if ds < ds_min:
                lam = points[-1].lam if points else lam_b
                phase = "step size" if points else "branch switch step size"
                raise ContinuationStalled(
                    f"{phase} fell below its floor at lam={lam:.5f}", lam=lam)
            continue
        xk, iters, res = out
        secant = xk - x_cur
        length = wnorm(secant)
        if length == 0.0:
            raise ContinuationStalled(
                f"secant vanished at lam={xk[-1]:.5f}", lam=float(xk[-1]))
        x_cur = xk
        tangent = secant / length
        record(x_cur, iters, res, ds)
        ds = min(ds * _DS_GROWTH, _DS_MAX) if len(points) > 1 else _DS_INIT

    return Branch(d=d, p=p, bifurcation_lambda=lam_b, grid=grid,
                  points=points)
