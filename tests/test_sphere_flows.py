"""Flow stepping, conservation, deficit monotonicity, and the tilt search."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from cknlab import (
    CknlabError,
    DomainError,
    FlowSpec,
    FlowState,
    GridFunction1D,
    PositivityLoss,
    SearchFailed,
    StepRejected,
    counterexample_search,
    integrate,
    sphere_flows,
)
from cknlab.sphere_flows import (
    _banded,
    _deficit_derivatives,
    _fde_step,
    _modes,
    _tridiagonal_solve,
    _workspace,
    flow_step,
    random_smooth_density,
    tilted_density,
)
from cknlab.params import two_sharp_value


def test_flow_spec_validation():
    with pytest.raises(DomainError):
        FlowSpec(kind="advection", p=3.0)
    with pytest.raises(DomainError):
        FlowSpec(kind="heat", p=3.0, m=0.7)
    with pytest.raises(DomainError):
        FlowSpec(kind="fde", p=3.0, m=1.0)
    with pytest.raises(DomainError):
        FlowSpec(kind="fde", p=3.0, m=2.5)
    for p in (0.5, math.nan):
        with pytest.raises(DomainError, match="diagnostic exponent"):
            FlowSpec(kind="heat", p=p)
    for t_end in (0.0, math.nan):
        with pytest.raises(DomainError, match="t_end"):
            FlowSpec(kind="heat", p=3.0, t_end=t_end)


def test_default_diffusion_exponent():
    spec = FlowSpec(kind="fde", p=5.0)
    assert spec.diffusion_exponent() == pytest.approx(0.7, rel=1e-15)
    assert FlowSpec(kind="fde", p=3.0, m=0.9).diffusion_exponent() == 0.9
    with pytest.raises(DomainError):
        FlowSpec(kind="heat", p=3.0).diffusion_exponent()


def test_initial_state_validation():
    rho = tilted_density(3, 32, 0.3, 2.0)
    state = FlowState.initial(rho)
    assert state.time == 0.0
    assert state.mass == pytest.approx(1.0, rel=1e-12)
    bad = rho.values.copy()
    bad[0] = -0.1
    with pytest.raises(PositivityLoss):
        FlowState.initial(GridFunction1D(rho.grid, bad))
    # p = 7 lies past the critical exponent 6 of the 3-sphere
    with pytest.raises(DomainError):
        integrate(state, FlowSpec(kind="heat", p=7.0))


def test_fast_diffusion_from_a_zero_cell_fails_typed_and_quietly():
    # the initial state accepts a zero cell and the heat flow runs from
    # it; fast diffusion must refuse it before its first Newton step,
    # where x^(m-1) would be infinite
    rho = tilted_density(3, 32, 0.3, 2.0)
    vals = rho.values.copy()
    vals[0] = 0.0
    state = FlowState.initial(GridFunction1D(rho.grid, vals))
    heat = FlowSpec(kind="heat", p=3.0, t_end=0.01)
    assert integrate(state, heat).final_state.density.values.min() > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLoss):
            integrate(state, FlowSpec(kind="fde", p=3.0,
                                      t_end=0.01))
        # slow diffusion (m > 1) has a finite diffusivity there and runs
        slow = FlowSpec(kind="fde", p=3.0, m=1.5, t_end=0.01)
        assert integrate(state, slow).final_state.density.values.min() > 0.0


def test_flow_step_rejects_a_nan_state(monkeypatch):
    rho = tilted_density(3, 32, 0.3, 2.0)
    monkeypatch.setattr(sphere_flows, "_heat_step",
                        lambda grid, rho, dt: np.full_like(rho, np.nan))
    with pytest.raises(PositivityLoss):
        flow_step(FlowState.initial(rho), FlowSpec(kind="heat", p=3.0), 1e-3)


def test_uniform_density_is_a_fixed_point():
    grid = _workspace(3, 48)
    rho = GridFunction1D(grid, np.ones(grid.n))
    spec = FlowSpec(kind="heat", p=3.0, t_end=0.1)
    traj = integrate(FlowState.initial(rho), spec)
    np.testing.assert_allclose(traj.final_state.density.values, 1.0,
                               rtol=1e-12)
    assert np.max(np.abs(traj.deficits)) < 1e-15


def fixed_step(monkeypatch, dt):
    """Make integrate take steps of dt throughout."""
    monkeypatch.setattr(sphere_flows, "_DT_INIT", dt)
    monkeypatch.setattr(sphere_flows, "_DT_MAX", dt)


def test_heat_flow_entropy_production_identity(monkeypatch):
    # along the heat flow the entropy dissipates at exactly twice the
    # Fisher information, for every diagnostic exponent
    fixed_step(monkeypatch, 2e-4)
    rho0 = tilted_density(3, 64, 0.3, 2.0)
    spec = FlowSpec(kind="heat", p=3.0, t_end=0.02)
    traj = integrate(FlowState.initial(rho0), spec)
    t, E, I = traj.times, traj.data[:, 2], traj.data[:, 3]
    dE = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
    assert np.max(np.abs(dE + 2.0 * I[1:-1]) / np.abs(2.0 * I[1:-1])) < 1e-3


def test_heat_flow_mode_decay_rate(monkeypatch):
    # a small multiple of the coordinate eigenfunction decays at the
    # first nonzero Laplacian eigenvalue, here 1 * (1 + 3 - 1) = 3
    fixed_step(monkeypatch, 2e-4)
    grid = _workspace(3, 96)
    rho0 = tilted_density(3, 96, 0.01, 1.0)
    spec = FlowSpec(kind="heat", p=3.0, t_end=0.1)
    traj = integrate(FlowState.initial(rho0), spec)
    a0 = grid.integrate(rho0.values * grid.centroids)
    aT = grid.integrate(traj.final_state.density.values * grid.centroids)
    assert aT / a0 == pytest.approx(math.exp(-0.3), rel=1e-3)


# The implicit fde step as it was before it carried the line search's
# flux and residual: every Newton iteration recomputes the residual of
# its iterate, and the return evaluates the flux once more.  Kept as the
# reference, with a count of the line search's halvings.


def _reference_fde_step(grid, rho, dt, m, tol=1e-13, max_iter=30):
    x = rho.copy()
    halvings = 0
    for _ in range(max_iter):
        res = x - dt * grid.apply_laplacian(x ** m) - rho
        nrm = float(np.max(np.abs(res)))
        if nrm <= tol * max(1.0, float(np.max(np.abs(x)))):
            return rho + dt * grid.apply_laplacian(x ** m), halvings
        fp = np.maximum(m * x ** (m - 1.0), 1e-14)
        dx = _tridiagonal_solve(*_banded(grid, dt, fp), res)
        step = 1.0
        for _ in range(25):
            xn = x - step * dx
            if xn.min() > 0.0:
                rn = xn - dt * grid.apply_laplacian(xn ** m) - rho
                if np.max(np.abs(rn)) < nrm:
                    x = xn
                    break
            step *= 0.5
            halvings += 1
        else:
            raise StepRejected("line search exhausted in the implicit "
                               "diffusion solve", dt=dt)
    raise StepRejected(f"no convergence in {max_iter} Newton iterations",
                       dt=dt)


def test_fde_step_is_bit_identical_to_the_recompute_form():
    rng = np.random.default_rng(7)
    cases = [(random_smooth_density(3, n, rng).values, dt, m)
             for n in (32, 96) for dt in (1e-3, 2e-2) for m in (0.6, 1.5)]
    # steep tilts and long steps: the line search halves, and the last
    # three are rejected, two with an exhausted line search (one of them
    # at a rounding-floor stall) and one with no convergence
    cases += [(tilted_density(3, 32, 0.9, -10.0).values, 0.3, 0.8),
              (tilted_density(3, 32, 0.8, 12.0).values, 0.3, 1.5),
              (tilted_density(3, 32, 0.95, -20.0).values, 0.3, 2.0),
              (random_smooth_density(3, 64, rng).values, 1.0, 0.8),
              (tilted_density(3, 32, 0.99, -30.0).values, 0.3, 2.0)]
    halved = rejected = 0
    for rho, dt, m in cases:
        grid = _workspace(3, len(rho))
        try:
            want, halvings = _reference_fde_step(grid, rho, dt, m)
        except StepRejected as ref:
            with pytest.raises(StepRejected) as info:
                _fde_step(grid, rho, dt, m)
            assert (str(info.value), info.value.dt) == (str(ref), ref.dt)
            rejected += 1
            continue
        got = _fde_step(grid, rho, dt, m)
        assert got.tobytes() == want.tobytes(), (len(rho), dt, m)
        halved += halvings > 0
    assert halved >= 2
    assert rejected == 3


def test_deficit_monotone_and_mass_exact_along_heat_flow():
    rho0 = tilted_density(3, 64, 0.4, 2.0)
    spec = FlowSpec(kind="heat", p=3.0, t_end=0.25)
    minima = []
    traj = integrate(FlowState.initial(rho0), spec,
                     observers=[lambda s: minima.append(s.density.values.min())])
    assert np.max(np.diff(traj.deficits)) <= 1e-8
    assert traj.mass_drift() <= 1e-12
    assert min(minima) > 0.0
    assert len(minima) == len(traj.times) - 1


def test_deficit_monotone_along_nonlinear_flow():
    rho0 = tilted_density(3, 64, 0.6, -3.0)
    spec = FlowSpec(kind="fde", p=5.0, t_end=0.1)
    traj = integrate(FlowState.initial(rho0), spec)
    assert np.max(np.diff(traj.deficits)) <= 1e-7
    assert traj.mass_drift() <= 1e-12


def test_deficit_derivative_signs():
    def estimate(rho, p):
        (est,) = _deficit_derivatives(rho.grid, rho.values[None],
                                      FlowSpec(kind="heat", p=p))
        return est

    est = estimate(tilted_density(3, 96, 0.6, -5.0), 5.5)
    assert est.value > 10.0 * est.error
    assert est.value == pytest.approx(0.0827, rel=0.05)
    assert estimate(tilted_density(3, 96, 0.4, 2.0), 3.0).value < 0.0
    # a density that is zero on half the sphere cannot be propagated back
    grid = _workspace(3, 32)
    flat = GridFunction1D(grid, np.where(grid.centroids > 0.0, 1.0, 0.0))
    assert estimate(flat, 3.0) is None


def test_work_cap_rejects_runaway_runs(monkeypatch):
    monkeypatch.setattr(sphere_flows, "_WORK_CAP", 200)
    fixed_step(monkeypatch, 1e-4)
    rho0 = tilted_density(3, 32, 0.3, 2.0)
    spec = FlowSpec(kind="heat", p=3.0, t_end=10.0)
    with pytest.raises(StepRejected):
        integrate(FlowState.initial(rho0), spec)
    # the cap counts the cells the flow steps: five steps on 384 cells are
    # 1,920 node-steps, past a cap of 3 * 384
    monkeypatch.setattr(sphere_flows, "_WORK_CAP", 3 * 384)
    rho0 = tilted_density(3, 384, 0.3, 2.0)
    spec = FlowSpec(kind="heat", p=3.0, t_end=5e-4)
    with pytest.raises(StepRejected):
        integrate(FlowState.initial(rho0), spec)


def test_random_density_generator_properties():
    rng = np.random.default_rng(42)
    for _ in range(5):
        rho = random_smooth_density(3, 48, rng)
        assert rho.mass == pytest.approx(1.0, rel=1e-12)
        assert rho.values.min() > 0.0
    with pytest.raises(DomainError):
        tilted_density(3, 48, 1.5, 2.0)


# The per-candidate derivative path the batched kernels replaced: one
# propagator closure per density, six stencil states per attempt, and the
# deficits of the +-h states evaluated twice.  Kept as the reference: the
# heat kernel must match it bit for bit, the fde closed form within its
# Richardson error.


def _reference_deficit(grid, rho, p):
    mass = float(np.sum(grid.cell_mass * rho))
    ent = (mass ** (2.0 / p)
           - float(np.sum(grid.cell_mass * rho ** (2.0 / p)))) / (p - 2.0)
    f = rho ** (1.0 / p)
    df = np.diff(f) / np.diff(grid.centroids)
    fish = float(np.sum(grid.flux[1:-1] * df * df * np.diff(grid.centroids)))
    return fish - grid.sphere_dim * ent


def _reference_propagator(grid, rho0, spec):
    lam, vecs, sqw = _modes(grid.sphere_dim, grid.n)
    lmax = float(np.max(np.abs(lam)))
    if spec.kind == "heat":
        y0 = vecs.T @ (sqw * rho0)

        def prop(t):
            return (vecs @ (np.exp(lam * t) * y0)) / sqw

        rate_num = (vecs @ (lam * y0)) / sqw
    else:
        m = spec.diffusion_exponent()
        diff_max = float(np.max(m * rho0 ** (m - 1.0)))
        sub_dt = 1.0 / (lmax * max(diff_max, 1e-3))

        def rhs(v):
            return grid.apply_laplacian(np.abs(v) ** m * np.sign(v))

        def prop(t):
            nsub = max(1, int(math.ceil(abs(t) / sub_dt)))
            h = t / nsub
            v = rho0.copy()
            for _ in range(nsub):
                k1 = rhs(v)
                k2 = rhs(v + 0.5 * h * k1)
                k3 = rhs(v + 0.5 * h * k2)
                k4 = rhs(v + h * k3)
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return v

        rate_num = grid.apply_laplacian(rho0 ** m)
    rate = float(np.max(np.abs(rate_num) / np.maximum(rho0, 1e-300)))
    return prop, lmax, rate


def _reference_derivative(grid, rho0, p, spec):
    """(estimate or None, number of h halvings) of the per-candidate path."""
    prop, lmax, rate = _reference_propagator(grid, rho0, spec)
    h = min(4e-4, 1.0 / lmax, 0.1 / max(rate, 1.0))
    halvings = 0
    while h >= 1e-9:
        states = {c: prop(c * h) for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)}
        if all(s.min() > 0.0 for s in states.values()):
            break
        h *= 0.5
        halvings += 1
    else:
        return None, halvings

    def stencil(scale):
        return (_reference_deficit(grid, states[-2.0 * scale], p)
                - 8.0 * _reference_deficit(grid, states[-1.0 * scale], p)
                + 8.0 * _reference_deficit(grid, states[1.0 * scale], p)
                - _reference_deficit(grid, states[2.0 * scale], p)) \
            / (12.0 * h * scale)

    d1 = stencil(1.0)
    d2 = stencil(0.5)
    value = (16.0 * d2 - d1) / 15.0
    error = abs(d2 - d1) / 15.0 + 1e-15 * math.exp(2.0 * h * lmax) / h
    return (value, error, h), halvings


# plain rows, rows that need h halvings ((0.65, 22) for heat, (0.41, -22)
# for fde) and rows that lose positivity at every h
_TILTS = [(0.6, -5.0), (0.65, 22.0), (0.41, -22.0), (0.95, 22.0),
          (0.89, -22.0), (0.2, 3.0)]


@pytest.mark.parametrize("kind", ["heat"])
def test_batched_deficit_derivatives_are_bit_identical(kind, monkeypatch):
    p = 5.5
    grid = _workspace(3, 96)
    spec = FlowSpec(kind=kind, p=p)
    rhos = np.array([tilted_density(3, 96, e, q).values for e, q in _TILTS])
    inner = sphere_flows._spectral_propagate
    handed = []

    def counted(modes, coeffs, times):
        handed.append(list(times))
        return inner(modes, coeffs, times)

    monkeypatch.setattr(sphere_flows, "_spectral_propagate", counted)
    got = _deficit_derivatives(grid, rhos, spec)
    refs = [_reference_derivative(grid, rho, p, spec) for rho in rhos]
    assert [est is None for est in got] == [ref is None for ref, _ in refs]
    for est, (ref, _) in zip(got, refs):
        if ref is not None:
            assert (est.value, est.error) == ref[:2]
    # the batch covers both ways the h-halving loop can end
    assert any(ref is not None and n > 0 for ref, n in refs)
    assert any(ref is None for ref, _ in refs)
    # every round propagates the six stencil states of each row still
    # pending; a row whose first h is already below the floor is never
    # propagated
    rounds = [n + (ref is not None) for ref, n in refs]
    assert [len(times) for times in handed] == [
        6 * sum(r > k for r in rounds) for k in range(max(rounds))]
    for times in handed:
        for k in range(0, len(times), 6):
            assert times[k:k + 6] == [-t for t in reversed(times[k:k + 6])]


def test_fde_closed_form_matches_rk4_richardson():
    # the closed form against forward and backward RK4 states and
    # Richardson, per density: within twice the reference's own error
    # (the worst of the four comparable tilts reads 0.87 of it).  The
    # reference loses positivity at (0.95, 22) and (0.89, -22); the
    # closed form propagates nothing and gives a value there too.
    p = 5.5
    grid = _workspace(3, 96)
    spec = FlowSpec(kind="fde", p=p)
    rhos = np.array([tilted_density(3, 96, e, q).values for e, q in _TILTS])
    got = _deficit_derivatives(grid, rhos, spec)
    compared = 0
    for est, rho in zip(got, rhos):
        assert est is not None and math.isfinite(est.value)
        ref, _ = _reference_derivative(grid, rho, p, spec)
        if ref is not None:
            assert abs(est.value - ref[0]) <= 2.0 * ref[1]
            compared += 1
    assert compared == 4


def test_fde_closed_form_rows_stay_independent_of_bad_neighbours():
    # a stacked row equals that density evaluated alone, bit for bit; a
    # density with a zero, NaN or infinite cell has no finite Fisher
    # gradient and gives None without disturbing its neighbours
    p = 5.5
    grid = _workspace(3, 96)
    spec = FlowSpec(kind="fde", p=p)
    good = [tilted_density(3, 96, e, q).values for e, q in _TILTS]
    zero, bad_nan, bad_inf = good[0].copy(), good[1].copy(), good[2].copy()
    zero[40] = 0.0
    bad_nan[0] = np.nan
    bad_inf[[0, -1]] = np.inf
    stack = np.array(good[:2] + [zero, bad_nan] + good[2:4] + [bad_inf]
                     + good[4:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _deficit_derivatives(grid, stack, spec)
        alone = [_deficit_derivatives(grid, rho[None], spec)[0]
                 for rho in stack]
    assert [est is None for est in got] == [False] * 2 + [True] * 2 \
        + [False] * 2 + [True] + [False] * 2
    for est, ref in zip(got, alone):
        if est is None:
            assert ref is None
        else:
            assert (est.value, est.error) == (ref.value, ref.error)


def _exact_fde_derivative(grid, rho, p, m):
    """sum_i dD/drho_i * L(rho^m)_i at 40 digits, from the float64 arrays.

    The exponent a is the double 1/p that sphere_observables raises rho
    to; the diffusion exponent m is the flow's double.
    """
    with mpmath.workdps(40):
        W, lo, di, up, rho = ([mpmath.mpf(x) for x in arr] for arr in (
            grid.cell_mass, grid.lap_lo, grid.lap_di, grid.lap_up, rho))
        n, a, m = len(rho), mpmath.mpf(1.0 / p), mpmath.mpf(m)

        def lap(f):
            return [di[i] * f[i] + (up[i] * f[i + 1] if i + 1 < n else 0)
                    + (lo[i] * f[i - 1] if i > 0 else 0) for i in range(n)]

        v = lap([x ** m for x in rho])
        lu = lap([x ** a for x in rho])
        mass = mpmath.fsum(w * x for w, x in zip(W, rho))
        total = mpmath.fsum(
            (-2 * a * W[i] * lu[i] * rho[i] ** (a - 1)
             - grid.sphere_dim * 2 * a * W[i]
             * (mass ** (2 * a - 1) - rho[i] ** (2 * a - 1)) / (p - 2))
            * v[i] for i in range(n))
        return total


def test_fde_closed_form_error_bounds_a_40_digit_sum(monkeypatch):
    # near-uniform tilts, where L cancels, a mild and a steep one, and the
    # search's certificate: the stated error must cover the distance to
    # the exact sum and still sit far below the value
    p = 5.5
    grid = _workspace(3, 96)
    spec = FlowSpec(kind="fde", p=p)
    seen = []
    inner = sphere_flows._deficit_derivatives

    def record(grid, rhos, spec):
        out = inner(grid, rhos, spec)
        seen.extend(zip(rhos, out))
        return out

    monkeypatch.setattr(sphere_flows, "_deficit_derivatives", record)
    with pytest.raises(SearchFailed) as info:
        counterexample_search(3, p, flow_kind="fde")
    (certificate,) = {rho.tobytes(): rho for rho, est in seen
                      if est.value == info.value.best_value}.values()
    rhos = [tilted_density(3, 96, e, q).values
            for e, q in ((0.05, -1.0), (0.05, -2.105), (0.35, 12.05),
                         (0.95, -22.0))] + [certificate]
    for rho in rhos:
        (est,) = inner(grid, rho[None], spec)
        exact = _exact_fde_derivative(grid, rho, p, spec.diffusion_exponent())
        assert abs(mpmath.mpf(est.value) - exact) <= est.error
        assert est.error <= 1e-3 * abs(est.value)


@pytest.mark.parametrize("d, p", [(3, 2.5), (3, 4.0), (3, 5.9),
                                  (4, 2.5), (4, 3.5), (4, 3.95),
                                  (5, 2.5), (5, 3.0), (5, 3.3),
                                  (6, 2.2), (6, 2.6), (6, 2.95)])
def test_fde_search_finds_no_witness_below_the_critical_exponent(d, p):
    # the default m = 1 - 1/n keeps the fde deficit monotone for p < 2*
    # = 2d/(d-2); on 96 cells the search must fail with a negative value
    with pytest.raises(SearchFailed) as info:
        counterexample_search(d, p, flow_kind="fde")
    assert info.value.best_value < 0.0


@pytest.mark.xfail(strict=True, reason=(
    "the 96-cell heat search reports grid-artifact witnesses below 2^#: "
    "derivative 1.944 at d = 4 and 6.358 at d = 5, which no refined grid "
    "confirms"))
@pytest.mark.parametrize("d", [4, 5])
def test_heat_search_finds_no_witness_below_two_sharp(d):
    # the heat flow's deficit is monotone for p <= 2^# = (2d^2+1)/(d-1)^2,
    # so just below it the search must fail
    with pytest.raises(SearchFailed):
        counterexample_search(d, 0.999 * two_sharp_value(d))


@pytest.mark.parametrize("d, p", [(3, 5.5), (4, 3.9)])
def test_scan_rows_equal_tilted_densities(d, p, monkeypatch):
    # the scan builds each epsilon row at once; every (epsilon, q) of it,
    # q = -1 included, must carry tilted_density's bits
    rows = []

    def record(grid, rhos, spec):
        rows.append(rhos.copy())
        return [None] * len(rhos)

    monkeypatch.setattr(sphere_flows, "_deficit_derivatives", record)
    with pytest.raises(SearchFailed):
        counterexample_search(d, p)
    qs = np.concatenate([np.linspace(-4.0 * p, -1.0, 20),
                         np.linspace(1.0, 4.0 * p, 20)])
    assert -1.0 in qs.tolist()
    epsilons = np.linspace(0.05, 0.95, 16)
    assert len(rows) == len(epsilons)
    for eps, got in zip(epsilons, rows):
        ref = np.array([tilted_density(d, 96, eps, q).values for q in qs])
        assert got.tobytes() == ref.tobytes(), eps


def test_fde_search_certificate_is_pinned():
    # p = 5.5 < 2* = 6 keeps the fde deficit monotone; the scan's best
    # value is the certificate, and the closed form must keep its bits
    # (-1.382233879733955e-10, error 2.8e-11, from RK4 and Richardson)
    with pytest.raises(SearchFailed) as info:
        counterexample_search(3, 5.5, flow_kind="fde")
    assert info.value.best_value == -1.3831958234354235e-10


def test_search_with_every_candidate_skipped_fails_typed(monkeypatch):
    monkeypatch.setattr(sphere_flows, "_deficit_derivatives",
                        lambda grid, rhos, spec: [None] * len(rhos))
    with pytest.raises(SearchFailed) as info:
        counterexample_search(3, 5.5, n_cells=32)
    assert info.value.best_value is None
    assert "all 640 scan candidates" in str(info.value)


def test_integrate_gives_up_below_the_step_floor(monkeypatch):
    # every step is rejected, so dt halves from _DT_INIT until it falls
    # below _DT_FLOOR and the last rejection is raised
    calls = []

    def reject(state, spec, dt):
        calls.append(dt)
        if len(calls) > 100:
            raise RuntimeError("integrate never gave up")
        raise StepRejected("rejected", dt=dt)

    monkeypatch.setattr(sphere_flows, "flow_step", reject)
    state = FlowState.initial(tilted_density(3, 32, 0.3, 1.0))
    with pytest.raises(StepRejected) as info:
        integrate(state, FlowSpec(kind="heat", p=3.0))
    halvings = math.ceil(math.log2(sphere_flows._DT_INIT
                                   / sphere_flows._DT_FLOOR))
    assert len(calls) == halvings
    assert info.value.dt == calls[-1]
    assert 0.5 * calls[-1] < sphere_flows._DT_FLOOR <= calls[-1]


def test_integrate_aborts_on_mass_drift(monkeypatch):
    def leak(state, spec, dt):
        density = GridFunction1D(state.density.grid,
                                 state.density.values * (1.0 + 1e-8))
        return FlowState(density, state.time + dt)

    monkeypatch.setattr(sphere_flows, "flow_step", leak)
    state = FlowState.initial(tilted_density(3, 32, 0.3, 1.0))
    with pytest.raises(CknlabError, match="mass drifted by 1.000e-08"):
        integrate(state, FlowSpec(kind="heat", p=3.0))
