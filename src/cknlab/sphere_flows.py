"""Axisymmetric diffusion flows on the sphere and deficit diagnostics.

Densities live on the conservative zonal finite-volume grid, so mass
conservation is a telescoping identity rather than an accuracy
statement.  Both flows step implicitly: the heat flow by one banded
solve, the nonlinear flow by a damped Newton iteration whose line
search never leaves the positive cone.  In both cases the accepted
state is recomputed from the explicit flux form of the solution, which
pins the mass to the rounding floor regardless of solver tolerances.

The deficit derivative at time zero is the quantity the monotonicity
statements are about, so it gets dedicated machinery: exact spectral
propagation for the heat flow (which also permits the tiny backward
steps a centered stencil needs) and Runge-Kutta substepping for the
nonlinear flow, both wrapped in Richardson extrapolation with a
reported error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .errors import (CknlabError, DomainError, PositivityLoss, SearchFailed,
                     StepRejected)
from .functionals import _check_sphere_exponent
from .grids import FVZonalGrid, GridFunction1D, _workspace

__all__ = [
    "FlowSpec",
    "FlowState",
    "FlowTrajectory",
    "DerivativeEstimate",
    "CounterexampleReport",
    "flow_step",
    "integrate",
    "deficit_derivative",
    "counterexample_search",
    "tilted_density",
    "random_smooth_density",
]

_KINDS = ("heat", "fde")
_DT_FLOOR = 1e-12
_MASS_TOL = 1e-10
# each accepted step lets the next grow by this factor, capped at dt_max,
# so a run started at a small dt_init reaches the cap geometrically
_DT_GROWTH = 1.15
# stencil times around t = 0, in units of h: the fourth-order centered
# difference at h uses the outer four, the one at h/2 the inner four
_STENCIL = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
_H_FLOOR = 1e-9


@dataclass(frozen=True)
class FlowSpec:
    """Flow kind, diagnostic exponent, and stepping policy.

    ``m`` is the diffusion exponent of the nonlinear flow; leaving it
    unset selects 1 - 1/n with n = 2p/(p-2), the exponent for which the
    deficit stays monotone all the way up to the critical p.
    """

    kind: str
    p: float
    m: float | None = None
    n_cells: int = 96
    t_end: float = 1.0
    dt_init: float = 1e-4
    dt_max: float = 2e-2
    work_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"flow kind must be one of {_KINDS}, "
                              f"got {self.kind!r}")
        if self.p < 1.0:
            raise DomainError(f"diagnostic exponent must be >= 1, "
                              f"got p={self.p}")
        if self.m is not None:
            if self.kind == "heat":
                raise DomainError("the heat flow takes no diffusion exponent")
            if not 0.0 < self.m <= 2.0 or abs(self.m - 1.0) < 1e-12:
                raise DomainError(
                    f"diffusion exponent must lie in (0, 2] away from 1, "
                    f"got m={self.m}")
        if self.t_end <= 0.0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.dt_init <= self.dt_max:
            raise DomainError(f"need 0 < dt_init <= dt_max, got "
                              f"({self.dt_init}, {self.dt_max})")
        if self.n_cells < 8:
            raise DomainError(f"need at least 8 cells, got {self.n_cells}")

    def diffusion_exponent(self) -> float:
        """The m actually used by an fde step."""
        if self.kind != "fde":
            raise DomainError("only the fde flow has a diffusion exponent")
        if self.m is not None:
            return self.m
        if self.p <= 2.0:
            raise DomainError(
                f"default diffusion exponent needs p > 2, got p={self.p}")
        n = 2.0 * self.p / (self.p - 2.0)
        return 1.0 - 1.0 / n


@dataclass
class FlowState:
    """A density on the zonal grid together with its clock and mass."""

    density: GridFunction1D
    time: float
    mass: float

    @classmethod
    def initial(cls, density: GridFunction1D) -> "FlowState":
        if np.any(density.values < 0.0):
            raise PositivityLoss("initial density has negative values")
        mass = density.mass
        if mass <= 0.0:
            raise DomainError("initial density has nonpositive mass")
        return cls(density, 0.0, mass)


@dataclass
class FlowTrajectory:
    """Sampled observables along one run.

    ``data`` has one row per accepted state, columns (time, mass,
    entropy, fisher, deficit); the entropy and Fisher information use
    the diagnostic exponent of the spec that produced the run.
    """

    data: np.ndarray
    final_state: FlowState

    @property
    def times(self) -> np.ndarray:
        return self.data[:, 0]

    @property
    def masses(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def entropies(self) -> np.ndarray:
        return self.data[:, 2]

    @property
    def fishers(self) -> np.ndarray:
        return self.data[:, 3]

    @property
    def deficits(self) -> np.ndarray:
        return self.data[:, 4]

    def mass_drift(self) -> float:
        m0 = self.data[0, 1]
        return float(np.max(np.abs(self.masses - m0)) / abs(m0))


@dataclass
class DerivativeEstimate:
    """A derivative value with its extrapolation error and step used."""

    value: float
    error: float
    h: float


@dataclass
class CounterexampleReport:
    """Best candidate found by the tilt-family search."""

    density: GridFunction1D
    epsilon: float
    q: float
    derivative: float
    error: float
    trace: np.ndarray
    n_skipped: int


# ---------------------------------------------------------------------------
# grid plumbing


@lru_cache(maxsize=64)
def _modes(sphere_dim: int, n_cells: int):
    grid = _workspace(sphere_dim, n_cells)
    lam, vecs = grid.symmetrized_modes()
    return lam, vecs, np.sqrt(grid.cell_mass)


def _grid_of(density: GridFunction1D) -> FVZonalGrid:
    if density.weight.kind != "fv_zonal":
        raise DomainError(
            f"flows need a finite-volume zonal density, got weight kind "
            f"{density.weight.kind!r}")
    return _workspace(int(density.weight.params["sphere_dim"]),
                      int(density.weight.params["n_cells"]))


def _observables(grid: FVZonalGrid, rhos: np.ndarray, p: float) -> np.ndarray:
    """Rows (mass, entropy, fisher, deficit) for a (k, n) stack of densities."""
    mass = grid.integrate(rhos)
    if p == 2.0:
        ent = 0.5 * grid.integrate(
            rhos * np.log(np.maximum(rhos, 1e-300) / mass[:, None]))
    else:
        # one Python float power per row: NumPy's vectorized power differs
        # from it in the last bit for about one argument in twenty
        mass_pow = np.array([m ** (2.0 / p) for m in mass.tolist()])
        ent = (mass_pow - grid.integrate(rhos ** (2.0 / p))) / (p - 2.0)
    fish = grid.dirichlet_form(rhos ** (1.0 / p))
    return np.stack([mass, ent, fish, fish - grid.sphere_dim * ent], axis=-1)


# ---------------------------------------------------------------------------
# implicit stepping


def _banded(grid: FVZonalGrid, scale: float,
            newton_diag: np.ndarray | None = None) -> np.ndarray:
    """The (1,1)-banded matrix I - scale * L * diag(newton_diag)."""
    n = grid.n
    fp = np.ones(n) if newton_diag is None else newton_diag
    ab = np.zeros((3, n))
    ab[0, 1:] = -scale * grid.lap_up[:-1] * fp[1:]
    ab[1, :] = 1.0 - scale * grid.lap_di * fp
    ab[2, :-1] = -scale * grid.lap_lo[1:] * fp[:-1]
    return ab


def _heat_step(grid: FVZonalGrid, rho: np.ndarray, dt: float) -> np.ndarray:
    sol = solve_banded((1, 1), _banded(grid, dt), rho)
    # explicit flux form of the accepted state: mass telescopes exactly
    return rho + dt * grid.apply_laplacian(sol)


def _fde_step(grid: FVZonalGrid, rho: np.ndarray, dt: float, m: float,
              tol: float = 1e-13, max_iter: int = 30) -> np.ndarray:
    x = rho.copy()
    for _ in range(max_iter):
        res = x - dt * grid.apply_laplacian(x ** m) - rho
        nrm = float(np.max(np.abs(res)))
        if nrm <= tol * max(1.0, float(np.max(np.abs(x)))):
            return rho + dt * grid.apply_laplacian(x ** m)
        # the diffusivity m x^(m-1) degenerates at small x, so the floor
        # lives in the Jacobian only, never in the residual
        fp = np.maximum(m * x ** (m - 1.0), 1e-14)
        dx = solve_banded((1, 1), _banded(grid, dt, fp), res)
        step = 1.0
        for _ in range(25):
            xn = x - step * dx
            if xn.min() > 0.0:
                rn = xn - dt * grid.apply_laplacian(xn ** m) - rho
                if np.max(np.abs(rn)) < nrm:
                    x = xn
                    break
            step *= 0.5
        else:
            raise StepRejected("line search exhausted in the implicit "
                               "diffusion solve", dt=dt)
    raise StepRejected(f"no convergence in {max_iter} Newton iterations",
                       dt=dt)


def flow_step(state: FlowState, spec: FlowSpec, dt: float) -> FlowState:
    """Advance one implicit step; mass-exact, positivity-checked."""
    if dt <= 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    grid = _grid_of(state.density)
    rho = state.density.values
    if spec.kind == "heat":
        new = _heat_step(grid, rho, dt)
    else:
        new = _fde_step(grid, rho, dt, spec.diffusion_exponent())
    if new.min() <= 0.0:
        raise PositivityLoss(
            f"density lost positivity at t={state.time + dt:.6g}")
    gf = grid.as_grid_function(new)
    return FlowState(gf, state.time + dt, gf.mass)


def integrate(state0: FlowState, spec: FlowSpec,
              observers: Iterable[Callable[[FlowState], None]] | None = None
              ) -> FlowTrajectory:
    """Run the flow to t_end, sampling observables at every state.

    The step grows by _DT_GROWTH up to dt_max and halves whenever the
    inner solver rejects; total work is capped at work_cap node-steps.
    Mass conservation is enforced, not merely reported: drifting off
    the initial mass beyond the contract tolerance aborts the run.
    """
    grid = _grid_of(state0.density)
    _check_sphere_exponent(grid.sphere_dim, spec.p)
    obs = tuple(observers) if observers is not None else ()
    state = state0
    mass0 = state0.mass
    rows = [(state.time,
             *_observables(grid, state.density.values[None], spec.p)[0])]
    dt = spec.dt_init
    work = 0
    while state.time < spec.t_end * (1.0 - 1e-14):
        dt_eff = min(dt, spec.t_end - state.time)
        try:
            state = flow_step(state, spec, dt_eff)
        except StepRejected:
            dt = 0.5 * dt_eff
            if dt < _DT_FLOOR:
                raise
            continue
        if abs(state.mass - mass0) > _MASS_TOL * abs(mass0):
            raise CknlabError(
                f"mass drifted by {abs(state.mass - mass0) / abs(mass0):.3e} "
                f"relative at t={state.time:.6g}")
        rows.append((state.time,
                     *_observables(grid, state.density.values[None],
                                   spec.p)[0]))
        for fn in obs:
            fn(state)
        work += spec.n_cells
        if work > spec.work_cap:
            raise StepRejected(
                f"trajectory work cap {spec.work_cap} node-steps exceeded "
                f"at t={state.time:.6g}", dt=dt_eff)
        dt = min(dt * _DT_GROWTH, spec.dt_max)
    return FlowTrajectory(np.asarray(rows, dtype=float), state)


# ---------------------------------------------------------------------------
# deficit derivative at time zero


def _rk4_propagate(grid: FVZonalGrid, starts: np.ndarray,
                   times: Sequence[float], sub_dt: Sequence[float],
                   m: float) -> np.ndarray:
    """Nonlinear-diffusion states at the given times, all stepped together.

    Row j starts from starts[j] and takes ceil(|t_j| / sub_dt_j) classical
    Runge-Kutta substeps of its own size.  Rows are sorted by decreasing
    substep count, so the rows still running always form a leading slice.
    """
    nsub = [max(1, math.ceil(abs(t) / dt)) for t, dt in zip(times, sub_dt)]
    order = sorted(range(len(nsub)), key=lambda j: -nsub[j])
    v = starts[order]
    hs = np.array([times[j] / nsub[j] for j in order])[:, None]
    counts = [nsub[j] for j in order]

    def rhs(x: np.ndarray) -> np.ndarray:
        return grid.apply_laplacian(np.abs(x) ** m * np.sign(x))

    na = len(order)
    for i in range(counts[0]):
        while counts[na - 1] <= i:
            na -= 1
        x, h = v[:na], hs[:na]
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        v[:na] = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    out = np.empty_like(v)
    out[order] = v
    return out


def _deficit_derivatives(grid: FVZonalGrid, rhos: np.ndarray, p: float,
                         spec: FlowSpec) -> list[DerivativeEstimate | None]:
    """Deficit derivative estimates for a (k, n) stack of positive densities.

    Per row: the centered fourth-order stencils at h and h/2 around
    t = 0 and one Richardson round, with h halved until all six stencil
    states stay positive; a row still losing positivity below h = 1e-9
    gives None.  The heat flow propagates exactly in its eigenbasis, one
    matrix-vector product per state; the nonlinear flow substeps all
    (row, time) pairs of a halving round together.  Every row's value
    is bit-identical to evaluating that row alone.
    """
    lam, vecs, sqw = _modes(grid.sphere_dim, grid.n)
    lmax = float(np.max(np.abs(lam)))
    if spec.kind == "heat":
        # one product per vector: a matrix-matrix product is not
        # guaranteed to round like the matrix-vector products it replaces
        coeffs = [vecs.T @ (sqw * rho) for rho in rhos]
        rate_num = np.array([(vecs @ (lam * y)) / sqw for y in coeffs])

        def propagate(rows, times):
            return np.array([(vecs @ (np.exp(lam * t) * coeffs[i])) / sqw
                             for i, t in zip(rows, times)])
    else:
        m = spec.diffusion_exponent()
        diff_max = np.max(m * rhos ** (m - 1.0), axis=-1).tolist()
        sub_dt = [1.0 / (lmax * max(dm, 1e-3)) for dm in diff_max]
        rate_num = grid.apply_laplacian(rhos ** m)

        def propagate(rows, times):
            return _rk4_propagate(grid, rhos[rows], times,
                                  [sub_dt[i] for i in rows], m)

    rates = np.max(np.abs(rate_num) / np.maximum(rhos, 1e-300),
                   axis=-1).tolist()
    hs = [min(4e-4, 1.0 / lmax, 0.1 / max(rate, 1.0)) for rate in rates]
    states: dict[int, np.ndarray] = {}
    pending = [i for i, h in enumerate(hs) if h >= _H_FLOOR]
    while pending:
        rows = [i for i in pending for _ in _STENCIL]
        times = [c * hs[i] for i in pending for c in _STENCIL]
        stack = propagate(rows, times).reshape(len(pending), len(_STENCIL),
                                               grid.n)
        positive = (stack.min(axis=-1) > 0.0).all(axis=-1).tolist()
        retry = []
        for i, block, ok in zip(pending, stack, positive):
            if ok:
                states[i] = block
            else:
                hs[i] *= 0.5
                if hs[i] >= _H_FLOOR:
                    retry.append(i)
        pending = retry

    out: list[DerivativeEstimate | None] = [None] * len(rhos)
    if not states:
        return out
    done = sorted(states)
    deficits = _observables(grid, np.concatenate([states[i] for i in done]),
                            p)[:, 3].reshape(len(done), len(_STENCIL))
    for i, (dm2, dm1, dmh, dph, dp1, dp2) in zip(done, deficits.tolist()):
        h = hs[i]
        d1 = (dm2 - 8.0 * dm1 + 8.0 * dp1 - dp2) / (12.0 * h)
        d2 = (dm1 - 8.0 * dmh + 8.0 * dph - dp1) / (12.0 * h * 0.5)
        value = (16.0 * d2 - d1) / 15.0
        error = abs(d2 - d1) / 15.0 + 1e-15 * math.exp(2.0 * h * lmax) / h
        out[i] = DerivativeEstimate(value, error, h)
    return out


def deficit_derivative(rho0: GridFunction1D, p: float,
                       spec: FlowSpec) -> DerivativeEstimate:
    """Initial rate of change of the deficit along the chosen flow.

    Centered fourth-order differencing in time around t = 0 plus one
    Richardson round; the reported error combines the extrapolation
    residual with an amplification model for the backward half of the
    stencil.  Densities that cannot be propagated backward without
    losing positivity are rejected rather than silently one-sided.
    """
    grid = _grid_of(rho0)
    _check_sphere_exponent(grid.sphere_dim, p)
    vals = rho0.values
    if vals.min() <= 0.0:
        raise PositivityLoss("deficit derivative needs a positive density")
    est = _deficit_derivatives(grid, vals[None], p, spec)[0]
    if est is None:
        raise PositivityLoss(
            "backward propagation cannot stay positive at any usable step")
    return est


# ---------------------------------------------------------------------------
# densities and the counterexample search


def tilted_density(d: int, n_cells: int, epsilon: float,
                   q: float) -> GridFunction1D:
    """Unit-mass density (1 + epsilon z)^q on the finite-volume grid."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"tilt needs epsilon in (0, 1), got {epsilon}")
    grid = _workspace(d, n_cells)
    rho = (1.0 + epsilon * grid.centroids) ** q
    return grid.as_grid_function(rho / grid.integrate(rho))


def random_smooth_density(d: int, n_cells: int,
                          rng: np.random.Generator) -> GridFunction1D:
    """Unit-mass exponential of a random cubic in z; always positive."""
    grid = _workspace(d, n_cells)
    coef = rng.uniform(-0.5, 0.5, size=4)
    v = np.polynomial.polynomial.polyval(grid.centroids, coef)
    rho = np.exp(v)
    return grid.as_grid_function(rho / grid.integrate(rho))


def counterexample_search(d: int, p: float, n_cells: int = 96,
                          flow_kind: str = "heat") -> CounterexampleReport:
    """Search the tilt family for a density with increasing deficit.

    Scans rho(z) = c (1 + epsilon z)^q over epsilon in (0, 1) and
    exponents q of both signs up to |q| = 4p (the negative branch is
    where the nonlinear-diffusion pressure ansatz 1/(m-1) = -n points,
    and in practice is where all witnesses live), then refines the best
    cell by compass ascent.  Succeeds only when the derivative clears
    ten times its own error estimate; otherwise the failure carries the
    best value found, which in the monotone regime is the negative
    certificate the caller wants.
    """
    grid = _workspace(d, n_cells)
    _check_sphere_exponent(d, p)
    spec = FlowSpec(kind=flow_kind, p=p, n_cells=n_cells)

    qs = np.concatenate([np.linspace(-4.0 * p, -1.0, 20),
                         np.linspace(1.0, 4.0 * p, 20)])
    trace = []
    skipped = 0
    best = (-math.inf, None, None, None)
    # one epsilon row per batch: the whole scan in one batch is faster
    # still but holds every stencil state of it at once
    for eps in np.linspace(0.05, 0.95, 16):
        rhos = np.array([tilted_density(d, n_cells, eps, q).values
                         for q in qs])
        for q, est in zip(qs, _deficit_derivatives(grid, rhos, p, spec)):
            if est is None:
                skipped += 1
                continue
            trace.append((eps, q, est.value, est.error))
            if est.value > best[0]:
                best = (est.value, eps, q, est.error)
    if best[1] is None:
        raise SearchFailed(
            f"all {skipped} scan candidates for d={d}, p={p} lost "
            f"positivity under backward propagation", best_value=None)

    value, eps, q, err = best
    q_lo, q_hi = (-4.0 * p, -1.0) if q < 0.0 else (1.0, 4.0 * p)
    step_eps, step_q = 0.02, 0.25 * p
    evals = 0
    # compass moves stay sequential: each direction starts from wherever
    # the previous one may just have moved
    while step_eps > 5e-4 and evals < 80:
        moved = False
        for de, dq in ((step_eps, 0.0), (-step_eps, 0.0),
                       (0.0, step_q), (0.0, -step_q)):
            ce = min(max(eps + de, 0.01), 0.985)
            cq = min(max(q + dq, q_lo), q_hi)
            rho = tilted_density(d, n_cells, ce, cq).values
            est = _deficit_derivatives(grid, rho[None], p, spec)[0]
            if est is None:
                skipped += 1
                continue
            evals += 1
            trace.append((ce, cq, est.value, est.error))
            if est.value > value:
                value, eps, q, err = est.value, ce, cq, est.error
                moved = True
        if not moved:
            step_eps *= 0.5
            step_q *= 0.5

    trace_arr = np.asarray(trace, dtype=float)
    if value <= 10.0 * err:
        raise SearchFailed(
            f"no deficit-increasing density found for d={d}, p={p}; "
            f"best derivative {value:.6e} (error {err:.1e})",
            best_value=value)
    return CounterexampleReport(tilted_density(d, n_cells, eps, q), eps, q,
                                value, err, trace_arr, skipped)
