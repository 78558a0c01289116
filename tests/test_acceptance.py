"""Acceptance battery: one printed verdict line per headline behavior.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
test prints its verdict before asserting so the summary survives a
failure.  The trajectories of the two flow criteria come from
module-scoped fixtures, which the final audit criterion reads as well,
so every test also passes on its own.
"""

import math
import time

import numpy as np
import pytest

from cknlab.branch_analysis import (
    classify_bifurcation,
    grid_theta_reference,
    reparametrize,
)
from cknlab.cylinder_solver import (
    cylinder_grid,
    default_grid,
    linearized_spectrum,
    solve_symmetric,
    symmetric_quotient,
)
from cknlab.functionals import PressureField, gaussian_h, k_functional
from cknlab.grids import log_radial_quadrature, tensor_grid
from cknlab.params import (
    CKNParams,
    check_equivalence,
    derive_params,
    lambda_fs_theta,
    lambda_fs_value,
    mu_star,
    optimal_constant_star,
    sphere_area,
)
from cknlab.sphere_flows import (
    FlowSpec,
    FlowState,
    counterexample_search,
    integrate,
    random_smooth_density,
    tilted_density,
)
from soliton_quadrature import symmetric_profile_data

FDE_EXPONENTS = (3.0, 5.0, 5.9)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({detail})")


def _audit_flow(kind: str, p: float, rho0, spec: FlowSpec) -> dict:
    """Integrate one trajectory and return its audit data, including the
    worst single-step deficit increase (negative when strictly
    decreasing)."""
    minima = [float(rho0.values.min())]
    traj = integrate(
        FlowState.initial(rho0), spec,
        observers=[lambda s: minima.append(float(s.density.values.min()))])
    return {
        "kind": kind,
        "p": p,
        "drift": float(traj.mass_drift()),
        "min_density": min(minima),
        "worst_rise": float(np.max(np.diff(traj.deficits))),
    }


@pytest.fixture(scope="module")
def heat_flows():
    """Trajectories of criterion 05 and the seconds they took."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20230505)
    records = []
    for p in (3.0, 4.5):
        spec = FlowSpec(kind="heat", p=p, t_end=0.3)
        for _ in range(20):
            rho0 = random_smooth_density(3, 64, rng)
            records.append(_audit_flow("heat", p, rho0, spec))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fde_flows():
    """Trajectories of criterion 06."""
    rng = np.random.default_rng(20230606)
    records = []
    for p in FDE_EXPONENTS:
        spec = FlowSpec(kind="fde", p=p, t_end=0.1)
        inits = [tilted_density(3, 64, 0.4, 2.0)]
        inits += [random_smooth_density(3, 64, rng) for _ in range(3)]
        records += [_audit_flow("fde", p, rho0, spec) for rho0 in inits]
    return records


def test_01_first_zonal_eigenvalue_law():
    d, p = 5, 2.8
    lam_fs = lambda_fs_value(d, p)
    worst_rel, abs_at_fs, slowest = 0.0, math.inf, 0.0
    for lam in (2.0, lam_fs, 6.0, 8.0):
        t0 = time.perf_counter()
        grid = cylinder_grid(d, 20.0 / math.sqrt(min(lam, lam_fs)), 2000, 4)
        phi = solve_symmetric(d, p, lam, grid)
        eig = float(linearized_spectrum(phi, sector=1, count=1)[0])
        slowest = max(slowest, time.perf_counter() - t0)
        target = -0.25 * (p * p - 4.0) * (lam - lam_fs)
        if lam == lam_fs:
            abs_at_fs = abs(eig - target)
        else:
            worst_rel = max(worst_rel, abs(eig - target) / abs(target))
    ok = worst_rel <= 1e-3 and abs_at_fs <= 1e-4 and slowest <= 10.0
    _report(1, "first zonal eigenvalue law", ok,
            f"worst rel {worst_rel:.1e}, at threshold {abs_at_fs:.1e}, "
            f"slowest point {slowest:.2f}s")
    assert worst_rel <= 1e-3
    assert abs_at_fs <= 1e-4
    assert slowest <= 10.0


def test_02_symmetric_profile_exactness():
    worst_resid, worst_quot = 0.0, 0.0
    for d, p, lam in ((5, 2.8, 3.0), (3, 2.5, 1.5)):
        grid = default_grid(d, lam, 400, 8)
        phi = solve_symmetric(d, p, lam, grid)
        prof = phi.values[:, 0]
        padded = np.concatenate([[prof[0]], prof, [0.0]])
        resid = ((2.0 * padded[1:-1] - padded[:-2] - padded[2:]) / grid.h ** 2
                 + lam * prof - prof ** (p - 1.0))
        worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
        mu, _ = symmetric_quotient(grid, p, lam)
        worst_quot = max(worst_quot,
                         abs(mu / phi.lp_norm(p) ** (p - 2.0) - 1.0))
    ok = worst_resid <= 1e-10 and worst_quot <= 1e-8
    _report(2, "symmetric profile exactness", ok,
            f"residual {worst_resid:.1e}, quotient rel {worst_quot:.1e}")
    assert worst_resid <= 1e-10
    assert worst_quot <= 1e-8


def test_03_symmetric_constant_scaling_law():
    # the library carries the unit-scale soliton to every scale by the
    # scaling law; the quadrature integrates the profile at each scale
    p = 2.8
    rec = derive_params(5, {"p": p, "Lambda": 1.0}, "cylinder")

    def mu_quad(lam):
        log_l2, log_lpp, t = symmetric_profile_data(p, lam)
        return (t + lam) * math.exp(log_l2 - (2.0 / p) * log_lpp)

    worst = max(abs(mu_star(rec, lam) / mu_quad(lam) - 1.0)
                for lam in (0.5, 1.0, 4.0))
    ok = worst <= 1e-8
    _report(3, "symmetric constant scaling law", ok, f"worst rel {worst:.1e}")
    assert worst <= 1e-8


def test_04_closed_form_constant_vs_quadrature():
    t0 = time.perf_counter()
    r, wr = log_radial_quadrature(1e-10, 1e12, 256, 8)
    worst = 0.0
    for d, a, b in ((3, 0.0, 0.5), (3, -0.5, 0.3), (4, 0.5, 0.9),
                    (5, 1.0, 1.2), (5, -1.0, -0.4)):
        rec = derive_params(d, {"a": a, "b": b}, "critical")
        p, gap = rec.p, rec.a_c - a
        e = (p - 2.0) * gap
        log_shape = np.log1p(r ** e)
        v = np.exp(-(2.0 / (p - 2.0)) * log_shape)
        dv = -(2.0 * e / (p - 2.0)) * r ** (e - 1.0) * np.exp(
            -(2.0 / (p - 2.0) + 1.0) * log_shape)
        area = sphere_area(d)
        num = area * float(np.sum(wr * r ** (d - 1.0 - 2.0 * a) * dv * dv))
        den = area * float(np.sum(wr * r ** (d - 1.0 - b * p) * v ** p))
        direct = num / den ** (2.0 / p)
        worst = max(worst, abs(direct / optimal_constant_star(rec) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 5.0
    _report(4, "closed form constant vs quadrature", ok,
            f"worst rel {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed <= 5.0


def test_05_heat_deficit_monotone_and_counterexample(heat_flows):
    records, flow_seconds = heat_flows
    worst_rise = max(rec["worst_rise"] for rec in records)
    t0 = time.perf_counter()
    report = counterexample_search(3, 5.5, n_cells=96)
    elapsed = flow_seconds + time.perf_counter() - t0
    ok = (worst_rise <= 1e-8
          and report.derivative > 10.0 * report.error
          and elapsed <= 120.0)
    _report(5, "heat deficit monotonicity and counterexample", ok,
            f"worst rise {worst_rise:.1e}, witness derivative "
            f"{report.derivative:.2f} +- {report.error:.1e}, {elapsed:.1f}s")
    assert worst_rise <= 1e-8
    assert report.derivative > 10.0 * report.error
    assert elapsed <= 120.0


def test_06_fast_diffusion_deficit_monotone(fde_flows):
    for p in FDE_EXPONENTS:
        spec = FlowSpec(kind="fde", p=p, t_end=0.1)
        # the default diffusion exponent is 1 - 1/n at n = 2p/(p-2)
        n = 2.0 * p / (p - 2.0)
        assert abs(spec.diffusion_exponent() - (1.0 - 1.0 / n)) < 1e-15
    worst_rise = max(rec["worst_rise"] for rec in fde_flows)
    ok = worst_rise <= 1e-7
    _report(6, "fast diffusion deficit monotonicity", ok,
            f"worst rise {worst_rise:.1e}")
    assert worst_rise <= 1e-7


def test_07_symmetric_branch_structure(branch_5_2_8):
    branch, build_seconds = branch_5_2_8
    lam_fs = lambda_fs_value(5, 2.8)
    bif_rel = abs(branch.bifurcation_lambda / lam_fs - 1.0)
    lam = np.array([pt.lam for pt in branch.points])
    gaps = np.array([pt.gap for pt in branch.points])
    delta = lam - branch.bifurcation_lambda
    fit = (delta >= 1e-2) & (delta <= 1.0)
    slope = float(np.polyfit(np.log(delta[fit]), np.log(gaps[fit]), 1)[0])
    ok = (bif_rel <= 1e-3
          and bool(np.all(gaps > 0.0))
          and bool(np.all(np.diff(gaps) > 0.0))
          and 1.8 <= slope <= 2.2
          and lam[-1] >= 12.0
          and build_seconds <= 600.0)
    _report(7, "symmetric branch structure", ok,
            f"onset rel {bif_rel:.1e}, {len(branch)} points, tangency "
            f"exponent {slope:.3f}, built in {build_seconds:.1f}s")
    assert bif_rel <= 1e-3
    assert np.all(gaps > 0.0)
    assert np.all(np.diff(gaps) > 0.0)
    assert 1.8 <= slope <= 2.2
    assert lam[-1] >= 12.0
    assert build_seconds <= 600.0


def test_08_reparametrized_curve_structure(branch_5_2_8):
    branch, _ = branch_5_2_8
    theta = 0.718
    curve = reparametrize(branch, theta)
    cls = classify_bifurcation(curve)
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    cap = lambda_fs_theta(rec, theta)
    one_turn = len(cls.turning_points) == 1
    turn_below = one_turn and cls.turning_points[0].Lambda < cap
    excess = curve.mu[:5] - grid_theta_reference(branch, theta,
                                                 curve.Lambda[:5])
    onset_above = bool(np.all(excess > 0.0))
    ok = cls.direction == "left" and turn_below and onset_above
    turn_at = cls.turning_points[0].Lambda if one_turn else math.nan
    _report(8, "reparametrized curve structure", ok,
            f"direction {cls.direction}, {len(cls.turning_points)} turning "
            f"point(s) at Lambda {turn_at:.3f} vs cap {cap:.3f}, onset "
            f"excess min {float(np.min(excess)):.1e}")
    assert cls.direction == "left"
    assert one_turn
    assert turn_below
    assert onset_above


def test_09_gaussian_quotient_dip():
    worst_dip, worst_limit = -math.inf, 0.0
    ok = True
    for d in (3, 5):
        for delta in (1e-2, 1e-3):
            h = gaussian_h(d, 2.0 + delta)
            ok = ok and h < 1.0
            worst_dip = max(worst_dip, h)
        limit_err = abs(gaussian_h(d, 2.0 + 1e-6) - 1.0)
        ok = ok and limit_err <= 1e-3
        worst_limit = max(worst_limit, limit_err)
    _report(9, "gaussian quotient dip", ok,
            f"largest value below one {worst_dip:.8f}, "
            f"limit error {worst_limit:.1e}")
    assert worst_dip < 1.0
    assert worst_limit <= 1e-3


def test_10_curvature_identity_and_floor():
    rng = np.random.default_rng(20230610)
    grids = {d: tensor_grid(d, 1e-2, 1e2, n_panels=48, n_nodes=8, nz=16)
             for d in (3, 4, 5)}

    def draw_record():
        d = int(rng.integers(3, 6))
        n = d + rng.uniform(0.5, 4.0)
        alpha = math.sqrt((d - 1.0) / (n - 1.0)) * rng.uniform(0.3, 1.0)
        return grids[d], CKNParams(mode="subcritical", d=d, p=1.5,
                                   alpha=alpha, n=n, m=1.0 - 1.0 / n)

    worst_quad = 0.0
    for _ in range(20):
        grid, rec = draw_record()
        a0, b0 = rng.uniform(0.5, 2.0, size=2)
        values = grid.sample(lambda r, z: a0 + b0 * r * r)
        field, integral = k_functional(
            PressureField(grid, values, rec.m, rec.n, rec.alpha), rec)
        worst_quad = max(worst_quad, float(np.max(np.abs(field))),
                         abs(integral))

    worst_floor = 0.0
    positive_integrals = True
    for _ in range(100):
        grid, rec = draw_record()
        center, amp = rng.uniform(-2.0, 2.0), rng.uniform(0.02, 0.1)
        values = grid.sample(
            lambda r, z: 1.0 + 0.5 * r * r
            + amp * np.exp(-(np.log(r) - center) ** 2) * np.cos(2.0 * z))
        field, integral = k_functional(
            PressureField(grid, values, rec.m, rec.n, rec.alpha), rec)
        worst_floor = min(worst_floor,
                          float(np.min(field)) / float(np.max(np.abs(field))))
        positive_integrals = positive_integrals and integral > 0.0

    ok = worst_quad <= 1e-10 and worst_floor >= -1e-12 and positive_integrals
    _report(10, "curvature identity and floor", ok,
            f"quadratic residual {worst_quad:.1e}, relative floor "
            f"{worst_floor:.1e}")
    assert worst_quad <= 1e-10
    assert worst_floor >= -1e-12
    assert positive_integrals


def test_11_equivalence_conditions_agree():
    rng = np.random.default_rng(20230811)
    disagreements = []
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        hi = 2.0 * d / (d - 2.0) if d > 2 else 12.0
        p = float(rng.uniform(2.01, min(hi - 0.01, 12.0)))
        lam = float(10.0 ** rng.uniform(-2.0, 2.0))
        rec = derive_params(d, {"p": p, "Lambda": lam}, "cylinder")
        c1, c2, c3 = check_equivalence(rec)
        if not c1 == c2 == c3:
            disagreements.append((d, p, lam, c1, c2, c3))
    ok = not disagreements
    _report(11, "equivalence conditions agree", ok,
            f"1000 samples, {len(disagreements)} disagreements")
    assert disagreements == []


def test_12_conservation_and_positivity_audit(heat_flows, fde_flows):
    records = heat_flows[0] + fde_flows
    n = len(records)
    worst_drift = max((rec["drift"] for rec in records), default=math.inf)
    min_density = min((rec["min_density"] for rec in records), default=0.0)
    ok = n >= 52 and worst_drift <= 1e-9 and min_density > 0.0
    _report(12, "conservation and positivity audit", ok,
            f"{n} trajectories, worst drift {worst_drift:.1e}, "
            f"smallest density {min_density:.3f}")
    assert n >= 52
    assert worst_drift <= 1e-9
    assert min_density > 0.0
