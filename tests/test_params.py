"""Parameter records, closed-form thresholds, and the symmetric constant."""

import ast
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cknlab import cli_io, params as params_mod
from cknlab import (
    AdmissibilityError,
    DomainError,
    b_fs_value,
    check_equivalence,
    derive_params,
    lambda_fs_theta,
    lambda_fs_value,
    mu_star,
    optimal_constant_star,
    sphere_area,
    thresholds,
    two_sharp_value,
)
from cknlab.functionals import PressureField, k_functional
from cknlab.grids import (
    brent_root,
    half_line_grid,
    log_radial_quadrature,
    tensor_grid,
)
from cknlab.params import CKNParams, theta_Lambda
from cknlab.profiles import phi_star_log
from cknlab.sphere_flows import FlowSpec, FlowState, flow_step, tilted_density
from soliton_quadrature import symmetric_profile_data


def rel(a, b):
    return abs(a - b) / abs(b)


def cylinder_record(d=5, p=2.8, Lambda=1.0):
    return derive_params(d, {"p": p, "Lambda": Lambda}, "cylinder")


def test_lambda_fs_closed_form():
    assert rel(lambda_fs_value(5, 2.8), 4.166666666666668) < 1e-14
    assert rel(lambda_fs_value(3, 2.05), 8.0 / 0.2025) < 1e-14
    with pytest.raises(DomainError):
        lambda_fs_value(3, 2.0)


def test_two_sharp_values():
    assert two_sharp_value(5) == 3.1875
    assert two_sharp_value(3) == 4.75
    assert two_sharp_value(2) == 9.0
    with pytest.raises(DomainError):
        two_sharp_value(1)


def test_sphere_area_low_dimensions():
    assert rel(sphere_area(2), 2.0 * math.pi) < 1e-15
    assert rel(sphere_area(3), 4.0 * math.pi) < 1e-15
    assert rel(sphere_area(4), 2.0 * math.pi ** 2) < 1e-15


def test_boundary_curve_height():
    # the curve crosses zero where the gap satisfies gap^2 = d^2/4 - (d-1),
    # which for d = 5 puts the crossing exactly at a = 0
    assert abs(b_fs_value(5, 0.0)) < 1e-14
    assert b_fs_value(5, 1.4) > 0.0
    with pytest.raises(DomainError):
        b_fs_value(5, 1.5)


def test_derive_cylinder_mode():
    rec = cylinder_record(Lambda=6.0)
    assert rec.a == pytest.approx(1.5 - math.sqrt(6.0), rel=1e-15)
    assert rec.b == pytest.approx(rec.a + 5.0 / 2.8 - 1.5, rel=1e-15)
    assert rec.alpha == pytest.approx(math.sqrt(6.0) * 0.4, rel=1e-15)
    assert rec.n == pytest.approx(7.0, rel=1e-15)
    assert rec.m == pytest.approx(6.0 / 7.0, rel=1e-15)
    assert rec.theta == 1.0
    assert rec.vartheta == pytest.approx(5.0 * 0.8 / 5.6, rel=1e-15)
    assert rec.two_star == pytest.approx(10.0 / 3.0, rel=1e-15)


def test_critical_cylinder_roundtrip():
    rec = cylinder_record(Lambda=6.0)
    back = derive_params(5, {"a": rec.a, "b": rec.b}, "critical")
    assert rel(back.p, 2.8) < 1e-12
    assert rel(back.Lambda, 6.0) < 1e-12


def _cylinder_exponent(d, frac):
    """The exponent a fraction frac of the way through (2, min(2*, 6))."""
    hi = 6.0 if d == 2 else min(6.0, 2.0 * d / (d - 2.0))
    return 2.0 + frac * (hi - 2.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), frac=st.floats(0.01, 0.99),
       Lambda=st.floats(0.01, 100.0))
def test_critical_cylinder_roundtrip_property(d, frac, Lambda):
    p = _cylinder_exponent(d, frac)
    rec = derive_params(d, {"p": p, "Lambda": Lambda}, "cylinder")
    back = derive_params(d, {"a": rec.a, "b": rec.b}, "critical")
    assert rel(back.p, p) < 1e-13
    assert rel(back.Lambda, Lambda) < 1e-13
    again = derive_params(d, {"p": back.p, "Lambda": back.Lambda}, "cylinder")
    assert again.a == pytest.approx(rec.a, rel=1e-13, abs=1e-13)
    assert again.b == pytest.approx(rec.b, rel=1e-13, abs=1e-13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), frac=st.floats(0.01, 0.99),
       Lambda=st.floats(0.01, 100.0), scale=st.floats(0.1, 10.0),
       theta_frac=st.floats(0.0, 1.0))
def test_symmetric_constant_scaling_law_property(d, frac, Lambda, scale,
                                                 theta_frac):
    # t = lam (p-2)/(p+2) on the explicit family, so the theta reading is
    # linear in lam and mu_star(Lambda, theta) ~ Lambda^(theta - (p-2)/(2p))
    p = _cylinder_exponent(d, frac)
    rec = cylinder_record(d=d, p=p)
    theta = rec.vartheta + theta_frac * (1.0 - rec.vartheta)
    ratio = mu_star(rec, scale * Lambda, theta) / mu_star(rec, Lambda, theta)
    assert rel(ratio, scale ** (theta - (p - 2.0) / (2.0 * p))) < 1e-12


def _nested_root_mu_star(p, theta, Lambda):
    """The symmetric theta-constant by root finding over fresh quadratures.

    Locates the scale whose position theta lam - (1 - theta) t(lam) is
    Lambda by Brent's method, each evaluation a quadrature at that scale,
    and returns the quotient there.  It assumes nothing of the scaling law.
    """
    def offset(lam):
        return theta_Lambda(theta, lam, symmetric_profile_data(p, lam)[2]) \
            - Lambda

    guess = Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    lo, hi = 0.5 * guess, 2.0 * guess
    while offset(lo) > 0.0:
        lo *= 0.5
    while offset(hi) < 0.0:
        hi *= 2.0
    lam = brent_root(offset, lo, hi, xtol=1e-13, rtol=8.9e-16)
    log_l2, log_lpp, t = symmetric_profile_data(p, lam)
    return (t + Lambda) ** theta * math.exp(log_l2 - (2.0 / p) * log_lpp)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), frac=st.floats(0.01, 0.99),
       Lambda=st.floats(0.01, 100.0), theta_frac=st.floats(0.0, 1.0))
def test_symmetric_constant_matches_nested_root_find(d, frac, Lambda,
                                                     theta_frac):
    # the scaling law against a root find that never uses it
    p = _cylinder_exponent(d, frac)
    rec = cylinder_record(d=d, p=p)
    theta = rec.vartheta + theta_frac * (1.0 - rec.vartheta)
    assert rel(mu_star(rec, Lambda, theta),
               _nested_root_mu_star(p, theta, Lambda)) < 1e-12


def test_derive_params_rejects_bad_dimensions():
    inputs = {"p": 2.8, "Lambda": 1.0}
    with pytest.raises(AdmissibilityError) as low:
        derive_params(1, inputs, "cylinder")
    assert low.value.violated == "d < 2"
    with pytest.raises(AdmissibilityError) as fractional:
        derive_params(3.5, inputs, "cylinder")
    assert fractional.value.violated == "d not an integer"


def test_derive_subcritical_mode():
    rec = derive_params(5, {"beta": 0.0, "gamma": 0.0, "p": 1.4},
                        "subcritical")
    assert rec.alpha == 1.0
    assert rec.n == 5.0
    assert rec.m == pytest.approx(0.8, rel=1e-15)
    th = thresholds(rec)
    assert abs(th.beta_fs) < 1e-14
    assert th.alpha_fs == pytest.approx(1.0, rel=1e-15)
    assert th.p_star == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_subcritical_breaking_exponent_needs_wide_gamma_gap():
    rec = derive_params(3, {"beta": 0.1, "gamma": 0.5, "p": 1.2},
                        "subcritical")
    assert rec.n == pytest.approx(2.0 * 2.5 / 1.6, rel=1e-15)
    with pytest.raises(DomainError):
        thresholds(rec)


@pytest.mark.parametrize("inputs, mode", [
    ({"p": 10.0 / 3.0, "Lambda": 1.0}, "cylinder"),
    ({"p": 2.0, "Lambda": 1.0}, "cylinder"),
    ({"p": 2.8, "Lambda": 0.0}, "cylinder"),
    ({"a": 1.5, "b": 1.6}, "critical"),
    ({"a": 0.5, "b": 0.4}, "critical"),
    ({"a": 0.5, "b": 1.6}, "critical"),
    ({"beta": 0.1, "gamma": 5.0, "p": 1.2}, "subcritical"),
    ({"beta": -2.0, "gamma": 0.0, "p": 1.2}, "subcritical"),
    ({"beta": 0.5, "gamma": 0.1, "p": 1.2}, "subcritical"),
    ({"beta": 0.1, "gamma": 0.5, "p": 3.0}, "subcritical"),
    ({"p": 2.8, "Lambda": 1.0, "m": 0.5}, "cylinder"),
    ({"p": 2.8, "Lambda": 1.0, "m": 1.0}, "cylinder"),
])
def test_derive_params_admissibility_rejections(inputs, mode):
    with pytest.raises(AdmissibilityError):
        derive_params(5, inputs, mode)


@pytest.mark.parametrize("inputs, mode, violated", [
    ({"p": math.nan, "Lambda": 1.0}, "cylinder", "p <= 2"),
    ({"p": 2.8, "Lambda": math.nan}, "cylinder", "Lambda <= 0"),
    ({"a": math.nan, "b": 0.5}, "critical", "a >= (d-2)/2"),
    ({"a": 0.5, "b": math.nan}, "critical", "b < a"),
    ({"beta": 0.1, "gamma": math.nan, "p": 1.2}, "subcritical",
     "gamma >= d"),
    ({"beta": math.nan, "gamma": 0.5, "p": 1.2}, "subcritical",
     "beta <= gamma - 2"),
    ({"beta": 0.1, "gamma": 0.5, "p": math.nan}, "subcritical", "p <= 1"),
], ids=["cylinder_p", "cylinder_Lambda", "critical_a", "critical_b",
        "subcritical_gamma", "subcritical_beta", "subcritical_p"])
def test_derive_params_names_a_nan_input(inputs, mode, violated):
    # a NaN fails the check on its own input, not a later derived one
    with pytest.raises(AdmissibilityError) as err:
        derive_params(5, inputs, mode)
    assert err.value.violated == violated


def _pressure_field():
    rec = derive_params(3, {"beta": 0.1, "gamma": 0.5, "p": 1.2},
                        "subcritical")
    grid = tensor_grid(3, 1e-2, 1e2, n_panels=2, n_nodes=6, nz=8)
    values = np.zeros((len(grid.r), len(grid.z)))
    return PressureField(grid, values, rec.m, rec.n, rec.alpha), rec


@pytest.mark.parametrize("call, name", [
    (lambda: phi_star_log(0.0, math.nan, 1.0), "p"),
    (lambda: phi_star_log(0.0, 2.8, math.nan), "lam"),
    (lambda: half_line_grid(math.nan, 40), "length"),
    (lambda: log_radial_quadrature(math.nan, 1.0), "r_lo"),
    (lambda: tensor_grid(3, 1e-2, math.nan), "r_hi"),
    (lambda: lambda_fs_value(5, math.nan), "p"),
    (lambda: b_fs_value(5, math.nan), "a"),
    (lambda: k_functional(*_pressure_field(), zeta_star=math.nan),
     "zeta_star"),
    (lambda: flow_step(FlowState.initial(tilted_density(3, 32, 0.3, 1.0)),
                       FlowSpec(kind="heat", p=3.0), math.nan), "dt"),
], ids=["phi_star_log-p", "phi_star_log-lam", "half_line_grid",
        "log_radial_quadrature", "tensor_grid", "lambda_fs_value",
        "b_fs_value", "k_functional", "flow_step"])
def test_library_validators_name_a_nan_input(call, name):
    with pytest.raises(DomainError, match=rf"\b{name}=nan"):
        call()


def test_cylinder_exponent_check_rejects_nan():
    with pytest.raises(DomainError, match="p > 2"):
        params_mod.check_cylinder_exponent(5, math.nan)


def test_derive_params_input_set_errors():
    with pytest.raises(DomainError):
        derive_params(5, {"p": 2.8, "Lambda": 1.0}, "conical")
    with pytest.raises(DomainError, match="missing"):
        derive_params(5, {"p": 2.8}, "cylinder")
    with pytest.raises(DomainError, match="unexpected"):
        derive_params(5, {"p": 2.8, "Lambda": 1.0, "a": 0.1}, "cylinder")
    with pytest.raises(DomainError, match="unexpected"):
        derive_params(5, {"beta": 0.0, "gamma": 0.0, "p": 1.4, "theta": 0.9},
                      "subcritical")


def test_with_theta_range():
    rec = cylinder_record()
    narrowed = rec.with_theta(0.8)
    assert narrowed.theta == 0.8
    assert rec.theta == 1.0
    with pytest.raises(AdmissibilityError):
        rec.with_theta(0.5)
    with pytest.raises(AdmissibilityError):
        rec.with_theta(1.1)


@pytest.mark.parametrize("p, value", [
    (2.5, 1.582369464378),
    (2.8, 1.809420209022),
    (3.5, 2.158547631650),
    (5.0, 2.478285388796),
])
def test_symmetric_constant_at_unit_scale(p, value):
    # frozen against an independent Gauss-Legendre quadrature of the
    # explicit sech-power profile
    rec = derive_params(3, {"p": p, "Lambda": 1.0}, "cylinder")
    assert rel(mu_star(rec, 1.0), value) < 1e-9


def test_symmetric_constant_scaling_exponent():
    rec = cylinder_record()
    ratio = mu_star(rec, 4.0) / mu_star(rec, 1.0)
    assert rel(ratio, 4.0 ** (6.0 / 7.0)) < 1e-12


def test_symmetric_constant_below_one_matches_scan_minimum():
    # the scaling-law route vs a brute-force scan over the profile scale;
    # the two only meet if the stationarity reasoning is right
    rec = cylinder_record()
    p, theta, Lam = 2.8, 0.718, 2.5
    target = mu_star(rec, Lam, theta)
    guess = Lam * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    best = math.inf
    for lam in np.linspace(0.5 * guess, 2.0 * guess, 4001):
        log_l2, log_lpp, t = symmetric_profile_data(p, float(lam))
        best = min(best, (t + Lam) ** theta
                   * math.exp(log_l2 - (2.0 / p) * log_lpp))
    assert rel(best, target) < 1e-8


def test_mu_star_rejects_bad_inputs():
    rec = cylinder_record()
    for lam in (-1.0, math.nan):
        with pytest.raises(DomainError, match="needs Lambda > 0"):
            mu_star(rec, lam)
    with pytest.raises(AdmissibilityError):
        mu_star(rec, 1.0, 0.2)


def test_symmetric_gradient_ratio_closed_form():
    # the quadrature oracle against the closed form t = lam (p-2)/(p+2)
    assert rel(symmetric_profile_data(2.8, 6.0)[2], 6.0 * 0.8 / 4.8) < 1e-10
    assert rel(symmetric_profile_data(2.8, 1.0)[2], 1.0 / 6.0) < 1e-10


def _mp_unit_quotient(p):
    """The soliton's quotient at lam = 1 by 40-digit quadrature.

    With x = (p-2) s / 2 and k = 2/(p-2) the soliton is
    c sech(x)^k, c = (p/2)^(1/(p-2)), and its derivative in s is
    -c sech(x)^k tanh(x); ds = k dx.
    """
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        k = 2 / (p - 2)
        c = (p / 2) ** (k / 2)

        def half_line(f):
            return 2 * k * mpmath.quad(f, [0, 1, 10, mpmath.inf])

        l2 = c ** 2 * half_line(lambda x: mpmath.sech(x) ** (2 * k))
        grad = c ** 2 * half_line(
            lambda x: mpmath.sech(x) ** (2 * k) * mpmath.tanh(x) ** 2)
        lpp = c ** p * half_line(lambda x: mpmath.sech(x) ** (p * k))
        return (grad + l2) / lpp ** (2 / p)


@pytest.mark.parametrize("p", [2.05, 2.8, 6.0, 12.0, 48.0, 64.0])
def test_unit_symmetric_constant_matches_mpmath(p):
    # d = 2 admits every p > 2; at Lambda = 1, theta = 1 the constant is
    # the unit-scale soliton's quotient
    got = mu_star(cylinder_record(d=2, p=p), 1.0)
    assert rel(got, float(_mp_unit_quotient(p))) < 1e-14


def test_threshold_position_below_one():
    rec = cylinder_record()
    lam_fs = lambda_fs_value(5, 2.8)
    expected = 0.718 * lam_fs - 0.282 * lam_fs * 0.8 / 4.8
    got = lambda_fs_theta(rec, 0.718)
    assert rel(got, 2.795833333333334) < 1e-10
    assert rel(got, expected) < 1e-10
    assert rel(lambda_fs_theta(rec, 1.0), lam_fs) < 1e-15


def test_optimal_constant_ties_to_symmetric_constant():
    # the two share the unit-scale soliton's closed form, but mu_star
    # reaches the scale gap^2 through the scaling law; the d = 2 records
    # sit at p = 12, 32 and 64
    for d, a, b in ((5, 0.3, 0.9), (2, -1.0, -1.0 + 1.0 / 6.0),
                    (2, -1.0, -0.9375), (2, -1.0, -0.96875)):
        rec = derive_params(d, {"a": a, "b": b}, "critical")
        gap = rec.a_c - rec.a
        expected = (sphere_area(d) ** (1.0 - 2.0 / rec.p)
                    * mu_star(rec, gap * gap))
        assert rel(optimal_constant_star(rec), expected) < 1e-14, rec.p
    sub = derive_params(5, {"beta": 0.0, "gamma": 0.0, "p": 1.4},
                        "subcritical")
    with pytest.raises(DomainError):
        optimal_constant_star(sub)
    degenerate = CKNParams(mode="critical", d=5, p=2.8, a=1.5, b=1.7)
    with pytest.raises(DomainError):
        optimal_constant_star(degenerate)


def test_thresholds_cylinder_record():
    rec = derive_params(5, {"p": 2.8, "Lambda": 6.0, "theta": 0.718},
                        "cylinder")
    th = thresholds(rec)
    assert rel(th.lambda_fs, 4.166666666666668) < 1e-14
    assert th.two_sharp == 3.1875
    assert rel(th.vartheta, 0.7142857142857142) < 1e-15
    assert rel(th.alpha_fs, math.sqrt(2.0 / 3.0)) < 1e-14
    assert rel(th.lambda_fs_theta, 2.795833333333334) < 1e-10
    assert th.b_fs == pytest.approx(b_fs_value(5, rec.a), rel=1e-15)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.integers(2, 8), frac=st.floats(0.01, 0.99),
       Lambda=st.floats(0.001, 1000.0))
def test_equivalence_triple_property(d, frac, Lambda):
    # scale, weight and change-of-variables exponent are three readings
    # of one threshold, so they hold or fail together
    p = _cylinder_exponent(d, frac)
    rec = derive_params(d, {"p": p, "Lambda": Lambda}, "cylinder")
    c1, c2, c3 = check_equivalence(rec)
    assert c1 == c2 == c3


def test_equivalence_boundary_and_random_samples():
    lam_fs = lambda_fs_value(5, 2.8)
    at_boundary = derive_params(5, {"p": 2.8, "Lambda": lam_fs}, "cylinder")
    assert check_equivalence(at_boundary) == (True, True, True)
    above = derive_params(5, {"p": 2.8, "Lambda": lam_fs * 1.001}, "cylinder")
    assert check_equivalence(above) == (False, False, False)
    # random samples: test_equivalence_triple_property

    sub = derive_params(5, {"beta": 0.0, "gamma": 0.0, "p": 1.4},
                        "subcritical")
    with pytest.raises(DomainError):
        check_equivalence(sub)


def test_check_equivalence_runs_no_quadrature():
    # the three conditions read lambda_fs, b_fs and alpha_fs only, and
    # params has no quadrature to run (see the import guard below).
    # Records: verify's 300-sample draw and the two boundary cases above.
    rng = np.random.default_rng(2023)
    records = []
    for _ in range(300):
        d = int(rng.integers(2, 9))
        hi = 2.0 * d / (d - 2) if d > 2 else 12.0
        p = float(rng.uniform(2.01, min(hi - 0.01, 12.0)))
        lam = float(10.0 ** rng.uniform(-2, 2))
        records.append(derive_params(d, {"p": p, "Lambda": lam}, "cylinder"))
    lam_fs = lambda_fs_value(5, 2.8)
    records += [cylinder_record(Lambda=lam_fs),
                cylinder_record(Lambda=lam_fs * 1.001)]
    truths = []
    for rec in records:
        th = thresholds(rec)
        truths.append((0.0 < rec.Lambda <= th.lambda_fs + 1e-12,
                       rec.a < rec.a_c and rec.b >= th.b_fs - 1e-12,
                       0.0 < rec.alpha <= th.alpha_fs + 1e-12))
    assert {t[0] for t in truths} == {True, False}
    assert [check_equivalence(rec) for rec in records] == truths
    assert cli_io._check_equivalence_triple() == [
        ("inconsistent samples", 0, 0)]


def _foreign_imports(tree):
    """Imports other than the standard library and the package's errors."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module != "errors":
                    found.append("." * node.level + (node.module or ""))
                continue
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_params_imports_only_the_standard_library_and_errors():
    """params takes every value in closed form, so it needs no NumPy, no
    grid and no profile; this keeps a quadrature from coming back."""
    tree = ast.parse(Path(params_mod.__file__).read_text())
    assert _foreign_imports(tree) == []
    probe = ast.parse("import math\nfrom .errors import DomainError\n"
                      "import numpy as np\nfrom numpy import exp\n"
                      "from .grids import gauss_panels\n"
                      "from . import profiles\nfrom cknlab import grids\n"
                      "import cknlab.profiles\n"
                      "def f():\n    import scipy.integrate\n")
    assert len(_foreign_imports(probe)) == 7
