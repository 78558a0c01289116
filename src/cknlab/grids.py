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
  midpoint rule is spectrally accurate for smooth even functions.

Integration weights always travel with the nodes, so functionals never
guess a rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import beta as beta_fn
from scipy.special import betainc, roots_jacobi, roots_legendre

from .errors import DegenerateInput, DomainError

__all__ = [
    "Weight",
    "GridFunction1D",
    "gauss_panels",
    "zonal_quadrature",
    "zonal_gegenbauer_basis",
    "zonal_laplacian",
    "log_radial_quadrature",
    "fornberg_weights",
    "derivative_matrix",
    "FVZonalGrid",
    "fv_zonal_grid",
    "TensorGrid",
    "tensor_grid",
    "CylinderField",
    "half_line_grid",
]


# ---------------------------------------------------------------------------
# quadrature rules


def gauss_panels(lo: float, hi: float, n_panels: int, n_nodes: int = 8):
    """Composite Gauss-Legendre rule on [lo, hi] with equal panels."""
    if hi <= lo:
        raise DomainError(f"empty interval [{lo}, {hi}]")
    xg, wg = roots_legendre(n_nodes)
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
        z, w = roots_jacobi(n, expo, expo)
    elif rule == "legendre":
        z, w0 = roots_legendre(n)
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
    if r_lo <= 0.0:
        raise DomainError(f"radial grid needs r_lo > 0, got {r_lo}")
    t, wt = gauss_panels(np.log(r_lo), np.log(r_hi), n_panels, n_nodes)
    r = np.exp(t)
    return r, wt * r


# ---------------------------------------------------------------------------
# finite differences


def fornberg_weights(x0: float, x: np.ndarray, m: int) -> np.ndarray:
    """Weights of derivatives 0..m at x0 from samples at nodes x.

    Classic recursive construction; returns an (m+1, len(x)) array whose
    row k gives the k-th derivative weights.
    """
    n = len(x)
    c = np.zeros((m + 1, n))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1]
                                    - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def derivative_matrix(x: np.ndarray, order: int) -> np.ndarray:
    """Dense differentiation matrix on arbitrary nodes.

    Each row uses the five nearest nodes (one-sided at the ends), or all
    nodes when there are fewer.  For order >= 1 the diagonal is adjusted
    so constants are annihilated exactly; otherwise rounding in the
    weights leaves a residue that gets amplified wherever the result is
    later divided by a small quantity such as r^2.
    """
    n = len(x)
    npts = min(5, n)
    D = np.zeros((n, n))
    for i in range(n):
        j0 = min(max(i - npts // 2, 0), n - npts)
        sel = slice(j0, j0 + npts)
        D[i, sel] = fornberg_weights(x[i], x[sel], order)[order]
    if order >= 1:
        D[np.arange(n), np.arange(n)] -= D.sum(axis=1)
    return D


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class Weight:
    """Measure descriptor attached to a grid function."""

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("sphere_zonal", "fv_zonal", "flat_line")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise DomainError(
                f"unknown weight kind {self.kind!r}; expected one of "
                f"{self._KINDS}")


@dataclass
class GridFunction1D:
    """Sampled function with its nodes, quadrature weights, and measure.

    ``quad_weights`` are chosen at construction so that
    ``sum(quad_weights * f(nodes))`` approximates the integral of f
    against the declared measure; consumers never re-derive the rule.
    """

    nodes: np.ndarray
    values: np.ndarray
    weight: Weight
    quad_weights: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.quad_weights = np.asarray(self.quad_weights, dtype=float)
        if self.nodes.ndim != 1:
            raise DomainError("nodes must be one-dimensional")
        if self.nodes.shape != self.values.shape \
                or self.nodes.shape != self.quad_weights.shape:
            raise DomainError("nodes, values, quad_weights must align")
        if len(self.nodes) > 1 and np.any(np.diff(self.nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateInput("grid function carries non-finite values")

    def integrate(self, samples: np.ndarray | None = None) -> float:
        v = self.values if samples is None else samples
        return float(np.sum(self.quad_weights * v))

    @property
    def mass(self) -> float:
        return self.integrate()

    @classmethod
    def on_zonal_grid(cls, sphere_dim: int, n: int,
                      fn: Callable[[np.ndarray], np.ndarray] | None = None,
                      rule: str = "jacobi") -> "GridFunction1D":
        z, w = zonal_quadrature(sphere_dim, n, rule)
        vals = np.ones_like(z) if fn is None else np.asarray(fn(z), dtype=float)
        return cls(z, vals, Weight("sphere_zonal",
                                   {"sphere_dim": sphere_dim, "rule": rule}), w)


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
    edges: np.ndarray
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

    def dirichlet_form(self, f: np.ndarray, g: np.ndarray | None = None):
        """Quadrature of grad f . grad g against the probability measure.

        Acts on the last axis: a float for one function, an array with
        one value per row for a stack.
        """
        if g is None:
            g = f
        df = np.diff(f, axis=-1) / np.diff(self.centroids)
        dg = np.diff(g, axis=-1) / np.diff(self.centroids)
        return _last_axis_sum(self.flux[1:-1] * df * dg
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

    def as_grid_function(self, values: np.ndarray) -> GridFunction1D:
        return GridFunction1D(self.centroids, values,
                              Weight("fv_zonal",
                                     {"sphere_dim": self.sphere_dim,
                                      "n_cells": self.n}),
                              self.cell_mass.copy())


def _last_axis_sum(a: np.ndarray):
    # row sums of a C-ordered stack are bit-identical to the sums of the
    # rows taken one at a time, which the batched flow diagnostics rely on
    total = np.sum(a, axis=-1)
    return float(total) if total.ndim == 0 else total


def fv_zonal_grid(sphere_dim: int, n_cells: int) -> FVZonalGrid:
    """Build the conservative zonal grid with Chebyshev-like spaced edges."""
    if sphere_dim < 2:
        raise DomainError(
            f"finite-volume grid needs sphere dimension >= 2, got {sphere_dim}")
    if n_cells < 4:
        raise DomainError(f"need at least 4 cells, got {n_cells}")
    d = sphere_dim
    e = -np.cos(np.pi * np.arange(n_cells + 1) / n_cells)
    e[0], e[-1] = -1.0, 1.0
    total = beta_fn(0.5 * d, 0.5 * d) * 2.0 ** (d - 1)
    cum = total * betainc(0.5 * d, 0.5 * d, 0.5 * (1.0 + e))
    W = np.diff(cum) / total
    # exact first moments: antiderivative of z (1-z^2)^((d-2)/2)
    F = -(1.0 - e * e) ** (0.5 * d) / d
    zbar = np.diff(F) / np.diff(cum)
    g = (1.0 - e * e) ** (0.5 * d) / total
    dz = np.diff(zbar)
    lo = np.zeros(n_cells)
    up = np.zeros(n_cells)
    lo[1:] = g[1:-1] / (W[1:] * dz)
    up[:-1] = g[1:-1] / (W[:-1] * dz)
    di = -(lo + up)
    return FVZonalGrid(d, e, zbar, W, g, lo, di, up)


@lru_cache(maxsize=64)
def _workspace(sphere_dim: int, n_cells: int) -> FVZonalGrid:
    """The shared, read-only finite-volume grid for (sphere_dim, n_cells)."""
    grid = fv_zonal_grid(sphere_dim, n_cells)
    for f in fields(grid):
        value = getattr(grid, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# tensor grid for pressure fields


@dataclass
class TensorGrid:
    """Log-radial x zonal tensor grid with attached derivative matrices.

    Radial differentiation acts directly in r, so polynomial radial
    profiles (the degenerate-kernel test family) differentiate exactly;
    all matrices annihilate constants, which keeps 1/r^2-amplified
    combinations clean near the inner truncation radius where the raw
    stencil weights grow like 1/(r dt)^2.
    """

    d: int
    r: np.ndarray
    t: np.ndarray
    wt: np.ndarray
    z: np.ndarray
    wz: np.ndarray
    Dr: np.ndarray
    Drr: np.ndarray
    Dz: np.ndarray
    Dzz: np.ndarray

    def radial_weights(self, n_power: float) -> np.ndarray:
        """Quadrature weights for integration against r^(n-1) dr."""
        return self.wt * self.r ** n_power

    def sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        R = self.r[:, None]
        Z = self.z[None, :]
        return np.asarray(fn(R, Z), dtype=float) * np.ones((len(self.r),
                                                            len(self.z)))


def tensor_grid(d: int, r_lo: float = 1e-4, r_hi: float = 1e4,
                n_panels: int = 128, n_nodes: int = 8,
                nz: int = 32) -> TensorGrid:
    """Assemble the default pressure-field grid for dimension d."""
    if r_lo <= 0.0 or r_hi <= r_lo:
        raise DomainError(f"bad radial range [{r_lo}, {r_hi}]")
    t, wt = gauss_panels(np.log(r_lo), np.log(r_hi), n_panels, n_nodes)
    r = np.exp(t)
    z, wz = zonal_quadrature(d - 1, nz)
    Dr = derivative_matrix(r, 1)
    Drr = derivative_matrix(r, 2)
    Dz = derivative_matrix(z, 1)
    Dzz = derivative_matrix(z, 2)
    return TensorGrid(d, r, t, wt, z, wz, Dr, Drr, Dz, Dzz)


# ---------------------------------------------------------------------------
# cylinder carriers


def half_line_grid(length: float, m_cells: int):
    """Cell-centered nodes on [0, length] for even functions.

    Midpoint quadrature on these nodes is spectrally accurate for
    smooth even profiles decaying at the far end: all odd derivatives
    vanish at 0 by symmetry and at the cutoff by decay, so every
    Euler-Maclaurin correction term drops out.
    """
    if length <= 0.0 or m_cells < 4:
        raise DomainError(f"bad half-line grid ({length}, {m_cells})")
    h = length / m_cells
    return (np.arange(m_cells) + 0.5) * h, h


@dataclass
class CylinderField:
    """Zonal field on the truncated cylinder, sampled as U[s_index, z_index].

    The axial grid covers s >= 0 with even reflection; all norms and
    energies refer to the full cylinder, hence the factor 2 in the
    integration helpers (it does not cancel between different L^p
    norms, so it must sit here and not in callers).
    """

    d: int
    s: np.ndarray
    h: float
    z: np.ndarray
    wz: np.ndarray
    values: np.ndarray
    p: float | None = None
    Lambda: float | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.s), len(self.z)):
            raise DomainError("field shape must be (len(s), len(z))")

    def integrate(self, samples: np.ndarray) -> float:
        """Full-cylinder integral of the sampled integrand."""
        return 2.0 * self.h * float(np.sum(samples @ self.wz))

    def lp_norm(self, p: float) -> float:
        return self.integrate(np.abs(self.values) ** p) ** (1.0 / p)
