"""Grids, quadratures, and discrete derivative operators.

The package works on three kinds of one-dimensional carriers and one
tensor product:

* zonal grids on a sphere in the z = cos(angle) variable, either
  Gauss-Jacobi collocation nodes (spectral accuracy, exact polynomial
  differentiation) or conservative finite-volume cells (exact mass
  bookkeeping for the diffusion flows);
* radial grids, log-spaced composite Gauss panels so the weight r^(n-1)
  and the endpoint degeneracy never need special handling;
* half-line grids for even cylinder profiles, cell-centered so that the
  midpoint rule is spectrally accurate for smooth even functions, and
  the cylinder grid that pairs one with a zonal Gauss-Jacobi rule.

A sampled function holds the grid it lives on (GridFunction1D its
finite-volume zonal grid, CylinderField its cylinder grid), so integration
weights and operators always come from that grid and nothing rebuilds it.
The finite-volume grid of one (sphere_dim, n_cells) is built once and
shared by every caller, so its arrays are read-only.
The one scalar root finder of the package, Brent's method, and the one
tridiagonal solver, LAPACK's dgtsv, live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .errors import (DegenerateInput, DomainError, InversionError,
                     SingularSystem)

__all__ = [
    "GridFunction1D",
    "gauss_panels",
    "zonal_quadrature",
    "zonal_gegenbauer_basis",
    "zonal_laplacian",
    "log_radial_quadrature",
    "fornberg_weights",
    "Stencil",
    "derivative_matrix",
    "FVZonalGrid",
    "fv_zonal_grid",
    "TensorGrid",
    "tensor_grid",
    "half_line_grid",
    "CylinderGrid",
    "cylinder_grid",
    "CylinderField",
    "brent_root",
]


# ---------------------------------------------------------------------------
# quadrature rules


@lru_cache(maxsize=None)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], one shared copy per n.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Legendre recurrence (Golub & Welsch, Math. Comp. 23 (1969)
    221-230), polished by one Newton step on P_n and mirrored so that they
    are exactly symmetric.  The weights are 2 / ((1 - x^2) P_n'(x)^2) with
    1 - x^2 formed as (1 - x)(1 + x), which keeps the end weights accurate
    to a few 1e-12 at n = 400.
    """
    k = np.arange(1.0, n)
    x = eigh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0),
                         eigvals_only=True)

    def legendre_and_slope(x):
        prev, cur = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))

    value, slope = legendre_and_slope(x)
    x = x - value / slope
    x = 0.5 * (x - x[::-1])
    _, slope = legendre_and_slope(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)
    for arr in (x, w):
        arr.setflags(write=False)
    return x, w


def gauss_panels(lo: float, hi: float, n_panels: int, n_nodes: int = 8):
    """Composite Gauss-Legendre rule on [lo, hi] with equal panels."""
    if hi <= lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    xg, wg = _legendre_rule(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def zonal_quadrature(sphere_dim: int, n: int, rule: str = "jacobi"):
    """Nodes and probability weights for zonal integrals on S^sphere_dim.

    The zonal reduction of the uniform probability measure is
    proportional to (1-z^2)^((sphere_dim-2)/2) dz on [-1, 1].  The
    "jacobi" rule builds the weight into the nodes; "legendre" folds it
    into the weights instead and serves as an independent cross-check.
    """
    if sphere_dim < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {sphere_dim}")
    if n < 2:
        raise DomainError(f"need at least 2 nodes, got {n}")
    expo = (sphere_dim - 2) / 2.0
    if rule == "jacobi":
        # scipy.special loads on first use, here and in fv_zonal_grid, so
        # that processes with no zonal grid (params, criterion) skip it
        from scipy.special import roots_jacobi
        z, w = roots_jacobi(n, expo, expo)
    elif rule == "legendre":
        z, w0 = _legendre_rule(n)
        w = w0 * (1.0 - z * z) ** expo
    else:
        raise DomainError(f"unknown zonal rule {rule!r}")
    return z, w / w.sum()


def zonal_gegenbauer_basis(sphere_dim: int, z: np.ndarray, kmax: int):
    """Values of the zonal harmonic polynomials G_k(z), k < kmax.

    On S^D these are Gegenbauer polynomials with index (D-1)/2; the
    index-zero case (D = 1) degenerates to Chebyshev polynomials, which
    the standard recurrence misses, so it is special-cased.
    """
    lam = (sphere_dim - 1) / 2.0
    V = np.zeros((len(z), kmax))
    V[:, 0] = 1.0
    if kmax == 1:
        return V
    if lam == 0.0:
        V[:, 1] = z
        for k in range(2, kmax):
            V[:, k] = 2.0 * z * V[:, k - 1] - V[:, k - 2]
    else:
        V[:, 1] = 2.0 * lam * z
        for k in range(2, kmax):
            V[:, k] = (2.0 * (k + lam - 1) * z * V[:, k - 1]
                       - (k + 2 * lam - 2) * V[:, k - 2]) / k
    return V


def zonal_laplacian(sphere_dim: int, z: np.ndarray, w: np.ndarray):
    """Collocation matrix of the zonal Laplace-Beltrami operator on S^D.

    Diagonalizes in the zonal harmonic basis with eigenvalues
    -k(k+D-1); the quadrature must be exact through polynomial degree
    2*len(z)-2, which Gauss-Jacobi nodes guarantee, making the matrix
    exact on the resolved harmonics.
    """
    nz = len(z)
    V = zonal_gegenbauer_basis(sphere_dim, z, nz)
    hk = (w[:, None] * V * V).sum(axis=0)
    Vinv = (V * w[:, None]).T / hk[:, None]
    k = np.arange(nz)
    return V @ ((-k * (k + sphere_dim - 1.0))[:, None] * Vinv)


def log_radial_quadrature(r_lo: float, r_hi: float, n_panels: int = 128,
                          n_nodes: int = 8):
    """Radial nodes and plain-dr weights, log-spaced composite Gauss.

    Returns (r, w) with sum(w * f(r)) ~ integral of f dr; callers fold
    in the measure weight r^(n-1) explicitly.
    """
    if not r_lo > 0.0:
        raise DomainError(f"radial grid needs r_lo > 0, got r_lo={r_lo}")
    t, wt = gauss_panels(np.log(r_lo), np.log(r_hi), n_panels, n_nodes)
    r = np.exp(t)
    return r, wt * r


# ---------------------------------------------------------------------------
# finite differences


def fornberg_weights(x0: float | np.ndarray, x: np.ndarray,
                     m: int) -> np.ndarray:
    """Weights of derivatives 0..m at x0 from samples at nodes x.

    Classic recursive construction; returns an (m+1, len(x)) array whose
    row k gives the k-th derivative weights.  A stack of N stencils, x0
    (N,) and x (N, n), gives (m+1, N, n), each rounded as if built alone.
    """
    n = x.shape[-1]
    c = np.zeros((m + 1, *x.shape))
    c1 = 1.0
    c4 = x[..., 0] - x0
    c[0, ..., 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, ..., i] = c1 * (k * c[k - 1, ..., i - 1]
                                         - c5 * c[k, ..., i - 1]) / c2
                c[0, ..., i] = -c1 * c5 * c[0, ..., i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, ..., j] = (c4 * c[k, ..., j] - k * c[k - 1, ..., j]) / c3
            c[0, ..., j] = c4 * c[0, ..., j] / c3
        c1 = c2
    return c


@dataclass(frozen=True)
class Stencil:
    """A banded differentiation operator kept as its stencils.

    Row i of the operator is sum_k weights[i, k] * v[cols[i, k]]; both
    arrays are (n, width), with width = min(5, n), so the operator costs
    O(n) memory where its dense matrix would cost O(n^2).
    """

    cols: np.ndarray
    weights: np.ndarray

    def apply(self, v: np.ndarray, axis: int = 0) -> np.ndarray:
        """The operator along one axis of v, as width multiply-adds."""
        w = self.weights.reshape(self.weights.shape
                                 + (1,) * (v.ndim - 1 - axis))
        out = w[:, 0] * np.take(v, self.cols[:, 0], axis=axis)
        for k in range(1, self.cols.shape[1]):
            out += w[:, k] * np.take(v, self.cols[:, k], axis=axis)
        return out


def derivative_matrix(x: np.ndarray, order: int) -> Stencil:
    """Differentiation operator on arbitrary nodes, as a Stencil.

    Each row uses the five nearest nodes (one-sided at the ends), or all
    nodes when there are fewer; fewer than order + 1 nodes cannot
    resolve the derivative and raise DomainError.  For order >= 1 each
    row's own (centre) weight is adjusted so the row sums to zero and
    constants are annihilated; otherwise rounding in the weights leaves
    a residue that gets amplified wherever the result is later divided
    by a small quantity such as r^2.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < order + 1:
        raise DomainError(f"a derivative of order {order} needs at least "
                          f"{order + 1} nodes, got {n}")
    npts = min(5, n)
    rows = np.arange(n)
    start = np.clip(rows - npts // 2, 0, n - npts)
    cols = start[:, None] + np.arange(npts)
    # a copy, so the operator does not keep the lower orders alive
    w = fornberg_weights(x, x[cols], order)[order].copy()
    if order >= 1:
        w[rows, rows - start] -= w.sum(axis=1)
    return Stencil(cols, w)


# ---------------------------------------------------------------------------
# conservative zonal finite volumes


@dataclass
class FVZonalGrid:
    """Cell-averaged zonal discretization of S^d with exact mass weights.

    Cell masses come from the regularized incomplete Beta function, so
    the weights sum to one in exact arithmetic; centroids are the exact
    first moments.  The tridiagonal Laplacian is the flux form whose
    discrete eigenfunction z reproduces the continuous eigenvalue -d to
    rounding, which the flow tests rely on.
    """

    sphere_dim: int
    centroids: np.ndarray
    cell_mass: np.ndarray
    flux: np.ndarray
    lap_lo: np.ndarray
    lap_di: np.ndarray
    lap_up: np.ndarray

    @property
    def n(self) -> int:
        return len(self.centroids)

    def apply_laplacian(self, v: np.ndarray) -> np.ndarray:
        """The flux-form Laplacian along the last axis of v."""
        out = self.lap_di * v
        out[..., :-1] += self.lap_up[:-1] * v[..., 1:]
        out[..., 1:] += self.lap_lo[1:] * v[..., :-1]
        return out

    def dirichlet_form(self, f: np.ndarray):
        """Quadrature of |grad f|^2 against the probability measure.

        Acts on the last axis: a float for one function, an array with
        one value per row for a stack.
        """
        df = np.diff(f, axis=-1) / np.diff(self.centroids)
        return _last_axis_sum(self.flux[1:-1] * df * df
                              * np.diff(self.centroids))

    def integrate(self, v: np.ndarray):
        """Cell-mass quadrature along the last axis (float or per-row array)."""
        return _last_axis_sum(self.cell_mass * v)

    def symmetrized_modes(self):
        """Eigen-decomposition of the similarity-symmetrized Laplacian.

        Returns (eigenvalues, modes) with modes orthonormal in the
        sqrt(cell mass) inner product, i.e. rho = sqrt(W) * (modes @ c).
        """
        sq = np.sqrt(self.cell_mass)
        lo = self.lap_lo[1:] * sq[1:] / sq[:-1]
        up = self.lap_up[:-1] * sq[:-1] / sq[1:]
        offd = np.sqrt(np.maximum(lo * up, 0.0))
        vals, vecs = eigh_tridiagonal(self.lap_di.copy(), offd)
        return vals, vecs


@dataclass
class GridFunction1D:
    """Cell averages of a zonal density on its finite-volume grid.

    Nodes and quadrature weights are the grid's centroids and cell
    masses, so integrals are against the uniform probability measure.
    """

    grid: FVZonalGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise DomainError(f"values of shape {self.values.shape} do not "
                              f"fit a grid of {self.grid.n} cells")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateInput("grid function carries non-finite values")

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.centroids

    @property
    def mass(self) -> float:
        return self.grid.integrate(self.values)


def _last_axis_sum(a: np.ndarray):
    # row sums of a C-ordered stack are bit-identical to the sums of the
    # rows taken one at a time, which the batched flow diagnostics rely on
    total = np.sum(a, axis=-1)
    return float(total) if total.ndim == 0 else total


@lru_cache(maxsize=64)
def fv_zonal_grid(sphere_dim: int, n_cells: int) -> FVZonalGrid:
    """The shared, read-only zonal grid with Chebyshev-like spaced edges."""
    if sphere_dim < 2:
        raise DomainError(
            f"finite-volume grid needs sphere dimension >= 2, got {sphere_dim}")
    if n_cells < 4:
        raise DomainError(f"need at least 4 cells, got {n_cells}")
    from scipy.special import beta, betainc
    d = sphere_dim
    e = -np.cos(np.pi * np.arange(n_cells + 1) / n_cells)
    e[0], e[-1] = -1.0, 1.0
    total = beta(0.5 * d, 0.5 * d) * 2.0 ** (d - 1)
    cum = total * betainc(0.5 * d, 0.5 * d, 0.5 * (1.0 + e))
    W = np.diff(cum) / total
    # exact first moments: antiderivative of z (1-z^2)^((d-2)/2)
    F = -(1.0 - e * e) ** (0.5 * d) / d
    zbar = np.diff(F) / np.diff(cum)
    dz = np.diff(zbar)
    if not np.all(dz > 0.0):
        # both differences cancel in the thin end cells of fine grids,
        # down to 0 / 0 on high spheres
        raise DomainError(f"centroids of the {n_cells}-cell grid on the "
                          f"{d}-sphere are not increasing; use fewer cells")
    g = (1.0 - e * e) ** (0.5 * d) / total
    lo = np.zeros(n_cells)
    up = np.zeros(n_cells)
    lo[1:] = g[1:-1] / (W[1:] * dz)
    up[:-1] = g[1:-1] / (W[:-1] * dz)
    di = -(lo + up)
    arrays = (zbar, W, g, lo, di, up)
    for arr in arrays:
        arr.setflags(write=False)
    return FVZonalGrid(d, *arrays)


# ---------------------------------------------------------------------------
# tensor grid for pressure fields


@dataclass
class TensorGrid:
    """Log-radial x zonal tensor grid with attached derivative stencils.

    Dr and Drr act along r (axis 0 of a field), Dz and Dzz along z
    (axis 1), each as a five-point Stencil of O(n) memory; the dense
    matrices would take 16 MB at the default 1,024 radial nodes.
    Radial differentiation acts directly in r, so polynomial radial
    profiles (the degenerate-kernel test family) differentiate exactly;
    all stencils annihilate constants, which keeps 1/r^2-amplified
    combinations clean near the inner truncation radius where the raw
    stencil weights grow like 1/(r dt)^2.
    """

    d: int
    r: np.ndarray
    wr: np.ndarray
    z: np.ndarray
    wz: np.ndarray
    Dr: Stencil
    Drr: Stencil
    Dz: Stencil
    Dzz: Stencil

    def radial_weights(self, n: float) -> np.ndarray:
        """Weights against r^(n-1) dr, from the plain-dr weights wr."""
        return self.wr * self.r ** (n - 1)

    def sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        R = self.r[:, None]
        Z = self.z[None, :]
        return np.asarray(fn(R, Z), dtype=float) * np.ones((len(self.r),
                                                            len(self.z)))


def tensor_grid(d: int, r_lo: float = 1e-4, r_hi: float = 1e4,
                n_panels: int = 128, n_nodes: int = 8,
                nz: int = 32) -> TensorGrid:
    """Assemble the default pressure-field grid for dimension d."""
    if not (r_lo > 0.0 and r_hi > r_lo):
        raise DomainError(f"bad radial range r_lo={r_lo}, r_hi={r_hi}")
    r, wr = log_radial_quadrature(r_lo, r_hi, n_panels, n_nodes)
    z, wz = zonal_quadrature(d - 1, nz)
    Dr = derivative_matrix(r, 1)
    Drr = derivative_matrix(r, 2)
    Dz = derivative_matrix(z, 1)
    Dzz = derivative_matrix(z, 2)
    return TensorGrid(d, r, wr, z, wz, Dr, Drr, Dz, Dzz)


# ---------------------------------------------------------------------------
# cylinder carriers


def half_line_grid(length: float, m_cells: int):
    """Cell-centered nodes on [0, length] for even functions.

    Midpoint quadrature on these nodes is spectrally accurate for
    smooth even profiles decaying at the far end: all odd derivatives
    vanish at 0 by symmetry and at the cutoff by decay, so every
    Euler-Maclaurin correction term drops out.
    """
    if not length > 0.0 or m_cells < 4:
        raise DomainError(
            f"bad half-line grid length={length}, m_cells={m_cells}")
    h = length / m_cells
    return (np.arange(m_cells) + 0.5) * h, h


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


def cylinder_grid(d: int, length: float, m_cells: int,
                  nz: int) -> CylinderGrid:
    if d < 2:
        raise DomainError(f"cylinder grid needs d >= 2, got d={d}")
    if nz < 4:
        raise DomainError(f"need at least 4 zonal nodes, got {nz}")
    s, h = half_line_grid(length, m_cells)
    z, wz = zonal_quadrature(d - 1, nz)
    lap_z = zonal_laplacian(d - 1, z, wz)
    return CylinderGrid(d, float(length), s, h, z, wz, lap_z)


@dataclass
class CylinderField:
    """Zonal field on the truncated cylinder, sampled as U[s_index, z_index].

    The axial grid covers s >= 0 with even reflection; all norms and
    energies refer to the full cylinder, hence the factor 2 in the
    integration helpers (it does not cancel between different L^p
    norms, so it must sit here and not in callers).
    """

    grid: CylinderGrid
    values: np.ndarray
    p: float | None = None
    Lambda: float | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.m_cells, self.grid.nz):
            raise DomainError("field shape must be (m_cells, nz)")

    def integrate(self, samples: np.ndarray) -> float:
        """Full-cylinder integral of the sampled integrand."""
        return 2.0 * self.grid.h * float(np.sum(samples @ self.grid.wz))

    def lp_norm(self, p: float) -> float:
        return self.integrate(np.abs(self.values) ** p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# tridiagonal solves


def _tridiagonal_solve(lower: np.ndarray, diag: np.ndarray,
                       upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with T x = rhs, T given by its three diagonals (LAPACK dgtsv).

    dgtsv is the routine solve_banded dispatches (1, 1) bands to, so the
    bytes are the same; calling it directly skips the band packing and
    the finiteness scan, which callers that can meet NaN do themselves.
    The inputs are left untouched.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info:
        why = "zero pivot at row" if info > 0 else "illegal argument"
        raise SingularSystem(f"tridiagonal solve failed: {why} {abs(info)}",
                             info=info)
    return x


# ---------------------------------------------------------------------------
# root finding


# SciPy's default; no root find here needs another
_BRENT_MAXITER = 100


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float = 2e-12, rtol: float = 4.0 * math.ulp(1.0)) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the C routine behind SciPy's brentq,
    with its defaults, so both return the same double: inverse quadratic
    or secant steps while they shrink the bracket fast enough, bisection
    otherwise, until half the bracket is below (xtol + rtol |x|) / 2.
    Raises InversionError, whose message names the bracket and its end
    values, when the ends have the same sign, f returns NaN, or
    _BRENT_MAXITER steps do not converge.
    """
    xpre, xcur = a, b = float(a), float(b)
    fpre, fcur = ends = float(f(a)), float(f(b))

    def failure(why: str) -> InversionError:
        return InversionError(f"{why}; bracket [{a!r}, {b!r}] with f = "
                              f"{ends[0]:.6e}, {ends[1]:.6e}")

    if math.isnan(fpre) or math.isnan(fcur):
        raise failure("f is NaN at an end")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise failure("no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gets an inf or a NaN here, and either one bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise failure(f"f({xcur!r}) is NaN")
    raise failure(f"no convergence in {_BRENT_MAXITER} steps "
                  f"(last x {xcur!r})")
