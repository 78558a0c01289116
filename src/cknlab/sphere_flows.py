"""Axisymmetric diffusion flows on the sphere and deficit diagnostics.

Densities live on the conservative zonal finite-volume grid, so mass
conservation is a telescoping identity rather than an accuracy
statement.  Both flows step implicitly: the heat flow by one tridiagonal
solve, the nonlinear flow by a damped Newton iteration whose line
search never leaves the positive cone and whose start must be positive
when the diffusion is fast (m < 1).  In both cases the accepted
state is recomputed from the explicit flux form of the solution, which
pins the mass to the rounding floor regardless of solver tolerances.

The deficit derivative at time zero is the quantity the monotonicity
statements are about.  For the nonlinear flow it is a finite sum on the
grid, the gradient of the deficit against the velocity L(rho^m) (the
discrete entropy / entropy-production identity), reported with a
derived rounding bound.  The heat flow still propagates exactly in its
eigenbasis, which permits the tiny backward steps a centered stencil
needs, and Richardson-extrapolates with a reported error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from .errors import (CknlabError, DomainError, PositivityLoss, SearchFailed,
                     StepRejected)
from .functionals import sphere_observables
from .grids import (FVZonalGrid, GridFunction1D, _tridiagonal_solve,
                    fv_zonal_grid)
from .params import check_sphere_exponent, m_value, n_value

__all__ = [
    "FlowSpec",
    "FlowState",
    "FlowTrajectory",
    "DerivativeEstimate",
    "CounterexampleReport",
    "flow_step",
    "integrate",
    "counterexample_search",
    "tilted_density",
    "random_smooth_density",
]

_KINDS = ("heat", "fde")
_DT_FLOOR = 1e-12
_MASS_TOL = 1e-10
# a run starts at _DT_INIT and each accepted step lets the next grow by
# _DT_GROWTH, so it reaches the cap _DT_MAX geometrically
_DT_INIT = 1e-4
_DT_GROWTH = 1.15
_DT_MAX = 2e-2
# node-steps a trajectory may take before it is rejected as runaway
_WORK_CAP = 1_000_000
# the implicit fde step's Newton: relative residual and iteration budget
_FDE_TOL = 1e-13
_FDE_MAX_ITER = 30
# stencil times around t = 0, in units of h: the fourth-order centered
# difference at h uses the outer four, the one at h/2 the inner four
_STENCIL = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
_H_FLOOR = 1e-9
_EPS = float(np.finfo(float).eps)
# trajectory states per sphere_observables call: few enough that the
# stack stays small, enough to share the per-call overhead
_OBS_BLOCK = 16


@dataclass(frozen=True)
class FlowSpec:
    """Flow kind, diagnostic exponent, and final time.

    ``m`` is the diffusion exponent of the nonlinear flow; leaving it
    unset selects 1 - 1/n with n = 2p/(p-2), the exponent for which the
    deficit stays monotone all the way up to the critical p.  The step
    size is this module's own (_DT_INIT to _DT_MAX), no field.
    """

    kind: str
    p: float
    m: float | None = None
    t_end: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"flow kind must be one of {_KINDS}, "
                              f"got {self.kind!r}")
        if not self.p >= 1.0:
            raise DomainError(f"diagnostic exponent must be >= 1, "
                              f"got p={self.p}")
        if self.m is not None:
            if self.kind == "heat":
                raise DomainError("the heat flow takes no diffusion exponent")
            if not 0.0 < self.m <= 2.0 or abs(self.m - 1.0) < 1e-12:
                raise DomainError(
                    f"diffusion exponent must lie in (0, 2] away from 1, "
                    f"got m={self.m}")
        if not self.t_end > 0.0:
            raise DomainError(f"t_end must be positive, got {self.t_end}")

    def diffusion_exponent(self) -> float:
        """The m actually used by an fde step."""
        if self.kind != "fde":
            raise DomainError("only the fde flow has a diffusion exponent")
        if self.m is not None:
            return self.m
        if self.p <= 2.0:
            raise DomainError(
                f"default diffusion exponent needs p > 2, got p={self.p}")
        return m_value(n_value(self.p))


@dataclass
class FlowState:
    """A density on the zonal grid together with its clock and mass."""

    density: GridFunction1D
    time: float

    @property
    def mass(self) -> float:
        return self.density.mass

    @classmethod
    def initial(cls, density: GridFunction1D) -> "FlowState":
        if np.any(density.values < 0.0):
            raise PositivityLoss("initial density has negative values")
        if density.mass <= 0.0:
            raise DomainError("initial density has nonpositive mass")
        return cls(density, 0.0)


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
    def masses(self) -> np.ndarray:
        return self.data[:, 1]

    @property
    def deficits(self) -> np.ndarray:
        return self.data[:, 4]

    def mass_drift(self) -> float:
        m0 = self.data[0, 1]
        return float(np.max(np.abs(self.masses - m0)) / abs(m0))


@dataclass
class DerivativeEstimate:
    """A derivative value with its reported error."""

    value: float
    error: float


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
    grid = fv_zonal_grid(sphere_dim, n_cells)
    lam, vecs = grid.symmetrized_modes()
    return lam, vecs, np.sqrt(grid.cell_mass)


# ---------------------------------------------------------------------------
# implicit stepping


def _banded(grid: FVZonalGrid, scale: float,
            newton_diag: np.ndarray | None = None):
    """Lower, main and upper diagonals of I - scale * L * diag(newton_diag)."""
    fp = np.ones(grid.n) if newton_diag is None else newton_diag
    return (-scale * grid.lap_lo[1:] * fp[:-1],
            1.0 - scale * grid.lap_di * fp,
            -scale * grid.lap_up[:-1] * fp[1:])


def _heat_step(grid: FVZonalGrid, rho: np.ndarray, dt: float) -> np.ndarray:
    sol = _tridiagonal_solve(*_banded(grid, dt), rho)
    # explicit flux form of the accepted state: mass telescopes exactly
    return rho + dt * grid.apply_laplacian(sol)


def _fde_step(grid: FVZonalGrid, rho: np.ndarray, dt: float,
              m: float) -> np.ndarray:
    # for m < 1 the diffusivity m x^(m-1) is infinite at a zero cell; the
    # line search keeps every later iterate positive, so only rho is tested
    if m < 1.0 and not rho.min() > 0.0:
        raise PositivityLoss(f"fast diffusion (m={m:.6g}) needs a positive "
                             f"density")
    # the flux dt L(x^m), the residual and its norm of the iterate x; an
    # accepted line-search point carries its own into the next iteration
    x = rho
    flux = dt * grid.apply_laplacian(x ** m)
    res = x - flux - rho
    nrm = float(np.max(np.abs(res)))
    for _ in range(_FDE_MAX_ITER):
        if nrm <= _FDE_TOL * max(1.0, float(np.max(np.abs(x)))):
            return rho + flux
        # the diffusivity m x^(m-1) degenerates at small x, so the floor
        # lives in the Jacobian only, never in the residual
        fp = np.maximum(m * x ** (m - 1.0), 1e-14)
        dx = _tridiagonal_solve(*_banded(grid, dt, fp), res)
        step = 1.0
        for _ in range(25):
            xn = x - step * dx
            if xn.min() > 0.0:
                fn = dt * grid.apply_laplacian(xn ** m)
                rn = xn - fn - rho
                nn = float(np.max(np.abs(rn)))
                if nn < nrm:
                    x, flux, res, nrm = xn, fn, rn, nn
                    break
            step *= 0.5
        else:
            raise StepRejected("line search exhausted in the implicit "
                               "diffusion solve", dt=dt)
    raise StepRejected(f"no convergence in {_FDE_MAX_ITER} Newton iterations",
                       dt=dt)


def flow_step(state: FlowState, spec: FlowSpec, dt: float) -> FlowState:
    """Advance one implicit step; mass-exact, positivity-checked."""
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got dt={dt}")
    grid = state.density.grid
    rho = state.density.values
    if spec.kind == "heat":
        new = _heat_step(grid, rho, dt)
    else:
        new = _fde_step(grid, rho, dt, spec.diffusion_exponent())
    # NaN-safe: a NaN state fails the test instead of passing it
    if not new.min() > 0.0:
        raise PositivityLoss(
            f"density lost positivity at t={state.time + dt:.6g}")
    return FlowState(GridFunction1D(grid, new), state.time + dt)


def integrate(state0: FlowState, spec: FlowSpec,
              observers: Iterable[Callable[[FlowState], None]] | None = None
              ) -> FlowTrajectory:
    """Run the flow to t_end, sampling observables at every state.

    The step grows by _DT_GROWTH up to _DT_MAX and halves whenever the
    inner solver rejects; total work, the density's cells times the
    accepted steps, is capped at _WORK_CAP node-steps.
    Mass conservation is enforced, not merely reported: drifting off
    the initial mass beyond the contract tolerance aborts the run.
    The observables are evaluated on stacks of _OBS_BLOCK states; each
    row of a stack is bit-identical to evaluating that state alone.
    """
    grid = state0.density.grid
    check_sphere_exponent(grid.sphere_dim, spec.p)
    obs = tuple(observers) if observers is not None else ()
    state = state0
    mass0 = state0.mass
    times = [state.time]
    block = np.empty((_OBS_BLOCK, grid.n))
    block[0] = state.density.values
    filled = 1
    rows = []
    dt = _DT_INIT
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
        if filled == _OBS_BLOCK:
            rows.append(sphere_observables(grid, block, spec.p))
            filled = 0
        block[filled] = state.density.values
        filled += 1
        times.append(state.time)
        for fn in obs:
            fn(state)
        work += grid.n
        if work > _WORK_CAP:
            raise StepRejected(
                f"trajectory work cap {_WORK_CAP} node-steps exceeded "
                f"at t={state.time:.6g}", dt=dt_eff)
        dt = min(dt * _DT_GROWTH, _DT_MAX)
    rows.append(sphere_observables(grid, block[:filled], spec.p))
    return FlowTrajectory(np.column_stack((times, np.concatenate(rows))),
                          state)


# ---------------------------------------------------------------------------
# deficit derivative at time zero


def _spectral_propagate(modes, coeffs: np.ndarray,
                        times: Sequence[float]) -> np.ndarray:
    """Heat-flow states at the given times, exact in the eigenbasis.

    State j advances the eigen-coefficients coeffs[j] to times[j] and maps
    them back to cell values.  matmul runs a stack of column vectors as one
    matrix-vector product each, so every state rounds as it would alone.
    """
    lam, vecs, sqw = modes
    scaled = np.exp(lam * np.asarray(times)[:, None]) * coeffs
    return (vecs @ scaled[:, :, None])[..., 0] / sqw


def _fde_deficit_derivatives(grid: FVZonalGrid, rhos: np.ndarray, p: float,
                             m: float) -> list[DerivativeEstimate | None]:
    """Nonlinear-flow deficit derivatives for a (k, n) stack, in closed form.

    Along rho' = v = L(rho^m) the deficit D = F - d E of
    sphere_observables changes at the rate sum_i g_i v_i, with g its
    gradient in the cell values.  With W the cell masses, M the mass,
    a = 1/p (the double sphere_observables raises rho to, as it does 2a)
    and u = rho^a,

        dF/drho_i = -2a W_i (Lu)_i rho_i^(a-1),
        dE/drho_i = 2a W_i (M^(2a-1) - rho_i^(2a-1)) / (p - 2),

    the first by summation by parts, as W L is symmetric.  A row that is
    not positive and finite, or whose sums overflow, gives None.  Each
    row is bit-identical to evaluating that density alone.

    Rounding bound.  Let eps be the machine epsilon; take each power to
    within 2 eps relative and each other operation to within eps / 2,
    and let |L| be L with the sign of its diagonal flipped.
    - A three-term Laplacian sum is off by a multiple of its terms, not
      of its value, which cancels for near-uniform rho: v_i is off by at
      most 3.5 eps (|L| rho^m)_i, and (Lu)_i by 3.5 eps (|L|u)_i.
    - So g_i is off by at most 8 eps f_i + (n/2 + 6) eps e_i, where
      f_i = 2a W_i rho_i^(a-1) (|L|u)_i sizes the Fisher part,
      e_i = 2a d W_i (M^(2a-1) + rho_i^(2a-1)) / |p - 2| the entropy
      part, and n/2 is the rounding of the summed mass.
    - The n products and their sum add (n + 1)/2 eps sum |g_i v_i|.
    These are first-order bounds; with each constant rounded up to cover
    the second-order terms, the reported error is

        eps [4 sum |g_i| (|L| rho^m)_i
             + sum |v_i| (9 f_i + (n/2 + 7) e_i) + n sum |g_i v_i|].
    """
    n, d = grid.n, grid.sphere_dim
    W, di = grid.cell_mass, grid.lap_di
    a = 1.0 / p
    ent_scale = 2.0 * a / (p - 2.0)
    with np.errstate(all="ignore"):
        w = rhos ** m
        v = grid.apply_laplacian(w)
        u = rhos ** a
        lu = grid.apply_laplacian(u)
        u_rate = u / rhos
        s_rate = rhos ** (2.0 * a) / rhos
        # one Python float power per row, as in sphere_observables
        m_rate = np.array([mass ** (2.0 * a) / mass
                           for mass in grid.integrate(rhos).tolist()])[:, None]
        g = ((-2.0 * a) * W * lu * u_rate
             - d * (ent_scale * W * (m_rate - s_rate)))
        gv = g * v
        # |L| f = L f - 2 diag(L) f for positive f
        sizes = ((9.0 * 2.0 * a) * W * u_rate * (lu - 2.0 * di * u)
                 + ((0.5 * n + 7.0) * d * abs(ent_scale)) * W
                 * (m_rate + s_rate))
        values = np.sum(gv, axis=-1)
        errors = _EPS * (4.0 * np.sum(np.abs(g) * (v - 2.0 * di * w), axis=-1)
                         + np.sum(np.abs(v) * sizes, axis=-1)
                         + n * np.sum(np.abs(gv), axis=-1))
    ok = ((rhos.min(axis=-1) > 0.0) & (rhos.max(axis=-1) < math.inf)
          & np.isfinite(values) & np.isfinite(errors))
    return [DerivativeEstimate(value, error) if good else None
            for value, error, good in zip(values.tolist(), errors.tolist(),
                                          ok.tolist())]


def _deficit_derivatives(grid: FVZonalGrid, rhos: np.ndarray,
                         spec: FlowSpec) -> list[DerivativeEstimate | None]:
    """Deficit derivative estimates for a (k, n) stack of positive densities.

    The nonlinear flow's are in closed form (_fde_deficit_derivatives).
    The heat flow's, per row: the centered fourth-order stencils at h and
    h/2 around t = 0 and one Richardson round, with h halved until all
    six stencil states stay positive; a row still losing positivity below
    h = 1e-9 gives None.  The states propagate exactly in the eigenbasis,
    one matrix-vector product per state, and each round propagates all
    six states of every row still pending.  A state depends only on its
    row and its time, so every row's value is bit-identical to evaluating
    that row alone.
    """
    if spec.kind == "fde":
        return _fde_deficit_derivatives(grid, rhos, spec.p,
                                        spec.diffusion_exponent())
    modes = _modes(grid.sphere_dim, grid.n)
    lam, vecs, sqw = modes
    lmax = float(np.max(np.abs(lam)))
    # stacks of column vectors, never one matrix-matrix product: that
    # is not guaranteed to round like the matrix-vector products
    coeffs = (vecs.T @ (sqw * rhos)[:, :, None])[..., 0]
    rate_num = (vecs @ (lam * coeffs)[:, :, None])[..., 0] / sqw
    rates = np.max(np.abs(rate_num) / np.maximum(rhos, 1e-300),
                   axis=-1).tolist()
    hs = [min(4e-4, 1.0 / lmax, 0.1 / max(rate, 1.0)) for rate in rates]
    states: dict[int, np.ndarray] = {}
    pending = [i for i, h in enumerate(hs) if h >= _H_FLOOR]
    while pending:
        stack = _spectral_propagate(
            modes, coeffs[[i for i in pending for _ in _STENCIL]],
            [c * hs[i] for i in pending for c in _STENCIL]
        ).reshape(len(pending), len(_STENCIL), grid.n)
        positive = (stack.min(axis=-1) > 0.0).all(axis=-1).tolist()
        retry = []
        for i, state, ok in zip(pending, stack, positive):
            if ok:
                states[i] = state
            else:
                hs[i] *= 0.5
                if hs[i] >= _H_FLOOR:
                    retry.append(i)
        pending = retry

    out: list[DerivativeEstimate | None] = [None] * len(rhos)
    if not states:
        return out
    done = sorted(states)
    deficits = sphere_observables(
        grid, np.concatenate([states[i] for i in done]),
        spec.p)[:, 3].reshape(len(done), len(_STENCIL))
    for i, (dm2, dm1, dmh, dph, dp1, dp2) in zip(done, deficits.tolist()):
        h = hs[i]
        d1 = (dm2 - 8.0 * dm1 + 8.0 * dp1 - dp2) / (12.0 * h)
        d2 = (dm1 - 8.0 * dmh + 8.0 * dph - dp1) / (12.0 * h * 0.5)
        value = (16.0 * d2 - d1) / 15.0
        error = abs(d2 - d1) / 15.0 + 1e-15 * math.exp(2.0 * h * lmax) / h
        out[i] = DerivativeEstimate(value, error)
    return out


# ---------------------------------------------------------------------------
# densities and the counterexample search


def tilted_density(d: int, n_cells: int, epsilon: float,
                   q: float) -> GridFunction1D:
    """Unit-mass density (1 + epsilon z)^q on the finite-volume grid."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"tilt needs epsilon in (0, 1), got {epsilon}")
    grid = fv_zonal_grid(d, n_cells)
    rho = (1.0 + epsilon * grid.centroids) ** q
    return GridFunction1D(grid, rho / grid.integrate(rho))


def random_smooth_density(d: int, n_cells: int,
                          rng: np.random.Generator) -> GridFunction1D:
    """Unit-mass exponential of a random cubic in z; always positive."""
    grid = fv_zonal_grid(d, n_cells)
    coef = rng.uniform(-0.5, 0.5, size=4)
    v = np.polynomial.polynomial.polyval(grid.centroids, coef)
    rho = np.exp(v)
    return GridFunction1D(grid, rho / grid.integrate(rho))


def counterexample_search(d: int, p: float, *, n_cells: int = 96,
                          flow_kind: str = "heat") -> CounterexampleReport:
    """Search the tilt family for a density with increasing deficit.

    Scans rho(z) = c (1 + epsilon z)^q over epsilon in (0, 1) and
    exponents q of both signs up to |q| = 4p (the negative branch is
    where the nonlinear-diffusion pressure ansatz 1/(m-1) = -n points,
    and in practice is where all witnesses live), then refines the best
    cell by compass ascent.  The deficit derivative of the nonlinear
    flow is a closed-form sum with a rounding bound as its error; the
    heat flow's is a Richardson extrapolation of exactly propagated
    states, with its extrapolation error.  Succeeds only when the
    derivative clears ten times its error; otherwise the failure carries
    the best value found, which in the monotone regime is the negative
    certificate the caller wants.
    """
    grid = fv_zonal_grid(d, n_cells)
    check_sphere_exponent(d, p)
    spec = FlowSpec(kind=flow_kind, p=p)

    qs = np.concatenate([np.linspace(-4.0 * p, -1.0, 20),
                         np.linspace(1.0, 4.0 * p, 20)])
    trace = []
    skipped = 0
    best = (-math.inf, None, None, None)
    # one epsilon row (40 candidates) per batch; each candidate's value
    # does not depend on the batch it is in
    for eps in np.linspace(0.05, 0.95, 16):
        # tilted_density per q: a broadcast power rounds apart at q = -1
        base = 1.0 + eps * grid.centroids
        raw = np.array([base ** q for q in qs])
        rhos = raw / grid.integrate(raw)[:, None]
        for q, est in zip(qs, _deficit_derivatives(grid, rhos, spec)):
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
            est = _deficit_derivatives(grid, rho[None], spec)[0]
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
