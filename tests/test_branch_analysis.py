"""Reparametrized curves, the ground-state oracle, and breaking criteria."""

import ast
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.optimize import minimize_scalar

from cknlab import (
    AdmissibilityError,
    DomainError,
    GroundStateFailed,
    InsufficientSamples,
    classify_bifurcation,
    conjecture_probe,
    derive_params,
    gn_constant,
    gn_ground_state,
    lambda_fs_theta,
    lemma_criterion,
    mu_star,
    reparametrize,
    sphere_area,
)
from cknlab import branch_analysis
from cknlab.cli_io import run
from cknlab.branch_analysis import (
    ProbeRow,
    _classify,
    _monotone_increasing,
    _witness_scan,
    grid_theta_reference,
)
from cknlab.cylinder_solver import (
    CylinderGrid,
    _apply_s_operator,
    _profile_quotient,
    _s_operator,
    _symmetric_profile,
    default_grid,
    symmetric_quotient,
)
from cknlab.grids import (
    gauss_panels,
    half_line_grid,
    zonal_laplacian,
    zonal_quadrature,
)
from cknlab.params import theta_constant, theta_Lambda


def rel(a, b):
    return abs(a - b) / abs(b)


def test_reparametrize_identity_at_theta_one(branch_5_2_8):
    branch, _ = branch_5_2_8
    curve = reparametrize(branch, 1.0)
    np.testing.assert_array_equal(curve.Lambda, branch.column("lam"))
    np.testing.assert_array_equal(curve.mu, branch.column("mu"))
    # the curve's symmetric reference is the closed form, the branch's
    # comes from its own grid, so they differ by the O(h^2) grid bias
    np.testing.assert_allclose(curve.mu_star_theta,
                               branch.column("mu_star"), rtol=5e-4)
    with pytest.raises(AdmissibilityError):
        reparametrize(branch, 0.5)


def test_classification_right_at_theta_one(branch_5_2_8):
    branch, _ = branch_5_2_8
    cls = classify_bifurcation(reparametrize(branch, 1.0))
    assert cls.direction == "right"
    assert cls.slope_at_onset > 0.0
    assert cls.turning_points == ()
    # the bare Lambda(lam) samples read the same, without a curve
    lam = branch.column("lam")
    Lambda = theta_Lambda(1.0, lam, branch.column("t_phi"))
    assert _classify(lam, Lambda) == cls


def test_classification_left_with_one_turning(branch_5_2_8):
    branch, _ = branch_5_2_8
    theta = 0.718
    cls = classify_bifurcation(reparametrize(branch, theta))
    assert cls.direction == "left"
    assert cls.slope_at_onset < 0.0
    assert len(cls.turning_points) == 1
    turn = cls.turning_points[0]
    assert turn.lam == pytest.approx(7.175, rel=5e-2)
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    assert turn.Lambda < lambda_fs_theta(rec, theta)
    # the bare Lambda(lam) samples read the same, without a curve
    lam = branch.column("lam")
    Lambda = theta_Lambda(theta, lam, branch.column("t_phi"))
    assert _classify(lam, Lambda) == cls


def test_grid_reference_recovers_stored_column(branch_5_2_8):
    branch, _ = branch_5_2_8
    lam = branch.column("lam")[20:23]
    ref = grid_theta_reference(branch, 1.0, lam)
    np.testing.assert_allclose(ref, branch.column("mu_star")[20:23],
                               rtol=1e-13)


# The symmetric theta-constant by a second route, the tests' oracle for
# params.mu_star.  On the line grid of length 20/sqrt(lam) with N cells,
# h^2 lam does not depend on lam, so the discrete profile is
# lam^(1/(p-2)) times the lam = 1 one, t(lam) = lam t_1 and
# mu(lam) = lam^((p+2)/(2p)) mu_1.  theta_constant minimizes the
# theta-quotient over lam in closed form on m and 2m cells, and the two
# minima are Richardson-combined; stationarity at the optimum keeps the
# combination fourth-order.  (mu_1, t_1) come from a finite-difference
# polish and grid quadrature, not from the soliton's closed form.

@functools.lru_cache(maxsize=None)
def _unit_line_quotient(d, p, cells):
    # an s-only quotient never reads the zonal rule, so 4 nodes do
    return symmetric_quotient(default_grid(d, 1.0, cells, 4), p, 1.0)


def _line_theta_constant(d, p, theta, Lambda, m_cells=1600):
    def best(cells):
        return theta_constant(p, theta, Lambda,
                              *_unit_line_quotient(d, p, cells))

    return (4.0 * best(2 * m_cells) - best(m_cells)) / 3.0


def test_line_minimization_agrees_with_quadrature_constant():
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    got = _line_theta_constant(5, 2.8, 0.718, 2.5)
    assert rel(got, mu_star(rec, 2.5, 0.718)) < 1e-9
    got = _line_theta_constant(5, 2.8, 1.0, 4.0)
    assert rel(got, mu_star(rec, 4.0)) < 1e-9


def test_shooting_constant_frozen_values():
    assert rel(gn_constant(5, 2.8), 7.719374785017245) < 1e-9
    assert rel(gn_constant(3, 2.05), 1.09729200391) < 1e-7


def test_ground_state_profile_solves_its_equation():
    d, p = 5, 2.8
    state = gn_ground_state(d, p)
    height = state.profile.at(np.array(0.0))[0]
    assert rel(height, 19.131017416480972) < 1e-9
    # out to where the profile falls to 1e-10 of its height
    r = np.arange(0.0, 18.1, 1e-3)
    u, du = state.profile.at(r)
    assert u[0] == pytest.approx(height, rel=1e-6)
    assert np.all(np.diff(u) < 0.0)
    h = r[1] - r[0]
    i = np.arange(2, len(r) - 2)
    d2 = (-u[i - 2] + 16 * u[i - 1] - 30 * u[i] + 16 * u[i + 1]
          - u[i + 2]) / (12.0 * h * h)
    d1 = (u[i - 2] - 8 * u[i - 1] + 8 * u[i + 1] - u[i + 2]) / (12.0 * h)
    resid = d2 + (d - 1.0) / r[i] * d1 - u[i] + u[i] ** (p - 1.0)
    assert np.max(np.abs(resid)) < 1e-5
    np.testing.assert_allclose(d1, du[i], rtol=0, atol=1e-5)


def test_ground_state_is_shared_and_read_only():
    state = gn_ground_state(5, 2.8)
    assert gn_ground_state(5, 2.8) is state
    for arr in (state.profile.coef, state.profile.dcoef):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # values at chosen radii are the caller's own arrays
    for arr in state.profile.at(np.linspace(0.0, 10.0, 7)):
        assert arr.flags.c_contiguous
        assert arr.base is None


# the sweep pairs of the benchmark and the frozen pair above
@pytest.mark.parametrize("d, p", [(5, 2.8), (3, 2.5), (3, 3.0), (4, 2.5),
                                  (4, 3.0)])
def test_two_resolutions_agree(d, p, monkeypatch):
    accepted = gn_constant(d, p)
    # two rungs finer than any the default ladder accepts here
    monkeypatch.setattr(branch_analysis, "_RUNGS", ((160, 6.0), (240, 8.0)))
    state = gn_ground_state.__wrapped__(d, p)
    fine = branch_analysis._gn_value(d, p, state.grad_sq, state.mass_sq,
                                     state.p_int)
    assert rel(fine, accepted) <= 1e-12


# Peaked states near the critical exponent, against the constants the
# shooting oracle gave; the bound sits above its tail pollution, which
# reached 1.4e-8 at (6, 2.9).
@pytest.mark.parametrize("d, p, shot", [
    (3, 5.5, 5.820528493332995),
    (3, 5.9, 5.6213499383951975),
    (6, 2.9, 16.2984196541124),
    (2, 8.0, 2.7518472696331204),
])
def test_peaked_states_match_shooting(d, p, shot):
    assert rel(gn_constant(d, p), shot) <= 1e-7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_lu_solves_like_lapack(n, seed):
    rng = np.random.default_rng(seed)
    # singular values within [sqrt(n), 5 sqrt(n)]; the row shuffle makes
    # the factorization pivot
    a = (rng.standard_normal((n, n)) + 3.0 * math.sqrt(n) * np.eye(n))[
        rng.permutation(n)]
    b = rng.standard_normal(n)
    x = branch_analysis._lu_solve(branch_analysis._lu_factor(a), b)
    ref = np.linalg.solve(a, b)
    scale = np.max(np.abs(a)) * np.max(np.abs(ref))
    assert np.max(np.abs(a @ x - b)) <= np.max(np.abs(a @ ref - b)) \
        + 1e-12 * scale
    np.testing.assert_allclose(x, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


# the 80-, 120-, 160- and 240-unknown rungs
_LU_RUNGS = branch_analysis._RUNGS[:4]


def _rung_jacobian(m, stretch):
    """The Newton Jacobian of one rung at the (3, 3.0) ground state."""
    r, first, second = branch_analysis._radial_operators(m, stretch)
    u = gn_ground_state(3, 3.0).profile.at(r)[0]
    return (second + (2.0 / r)[:, None] * first - np.eye(m)
            + np.diag(2.0 * np.abs(u)))


@pytest.mark.parametrize("m, stretch", _LU_RUNGS)
def test_lu_solves_rung_jacobians_like_lapack(m, stretch):
    jac = _rung_jacobian(m, stretch)
    b = np.random.default_rng(m).standard_normal(m)
    x = branch_analysis._lu_solve(branch_analysis._lu_factor(jac), b)
    ref = np.linalg.solve(jac, b)
    res, res_ref = (np.max(np.abs(jac @ v - b)) for v in (x, ref))
    assert res <= res_ref + 1e-12 * np.max(np.abs(jac)) * np.max(np.abs(ref))
    # The condition number reaches 7e6 (max-norm) on the 240-unknown
    # rung, where np.linalg.solve and scipy.linalg.solve differ by 1e-11
    # relative, so the solutions are held to the gap the two residuals
    # explain: |x - ref| <= |J^-1| (|J x - b| + |J ref - b|).
    inverse_norm = np.max(np.sum(np.abs(np.linalg.inv(jac)), axis=1))
    assert np.max(np.abs(x - ref)) <= inverse_norm * (res + res_ref)
    # a zero column leaves a zero pivot for any pivoting order
    jac[:, m // 2] = 0.0
    assert branch_analysis._lu_factor(jac) is None


def test_lu_factor_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        branch_analysis._lu_factor(np.ones((4, 3)))


def test_lu_factor_bytes_do_not_depend_on_blas_threads(tmp_path):
    """_lu_factor and _lu_solve on the rung Jacobians under 1 and 2 BLAS
    threads; each solve takes one fixed right-hand side.

    On a 1-core host both settings run one thread, so there the test
    cannot tell them apart.
    """
    mats = tmp_path / "rungs.npz"
    np.savez(mats, *(_rung_jacobian(m, s) for m, s in _LU_RUNGS))
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "from cknlab.branch_analysis import _lu_factor, _lu_solve\n"
        "with np.load(sys.argv[1]) as mats:\n"
        "    for name in sorted(mats.files):\n"
        "        lu, piv = _lu_factor(mats[name])\n"
        "        print(hashlib.sha256(lu.tobytes('A') + piv.tobytes())"
        ".hexdigest())\n"
        "        x = _lu_solve((lu, piv), np.linspace(-1.0, 1.0, len(piv)))\n"
        "        print(hashlib.sha256(x.tobytes()).hexdigest())\n")
    src = str(Path(branch_analysis.__file__).parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script, str(mats)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 2 * len(_LU_RUNGS)
    assert digests[0] == digests[1]


def _blas_references(tree: ast.Module) -> list[str]:
    """Names in tree that reach a BLAS-backed product or solver.

    Products are @ and any name with dot, matmul, inner or linalg in it,
    and getrf is LAPACK's threaded LU; a name with solve or lu_factor in
    it counts unless the module defines it.  Import sources are not
    read: dgetrs and the Cython capsules come from scipy.linalg.
    """
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            found.append(f"@ at line {node.lineno}")
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + [node.asname or ""]
        for name in names:
            low = name.lower()
            if any(w in low for w in ("dot", "matmul", "inner", "linalg",
                                      "getrf")) \
                    or (any(w in low for w in ("solve", "lu_factor"))
                        and name not in own):
                found.append(name)
    return found


def test_ground_state_solver_calls_no_blas_product_or_solver():
    """The GN oracle's bits must not depend on the BLAS thread count.

    The byte test above cannot see a threaded call on a 1-core host;
    this reads the source, so it holds on any host.
    """
    tree = ast.parse(Path(branch_analysis.__file__).read_text())
    assert _blas_references(tree) == []
    probe = ast.parse("import numpy.linalg\nfrom scipy.linalg import "
                      "lu_factor, solve\nx = a @ b\ny = np.dot(a, b)\n"
                      "z = dgetrf(a)\n")
    assert len(_blas_references(probe)) == 6


def test_lu_pivots_past_a_zero_leading_entry():
    a = np.array([[0.0, 2.0, 1.0], [3.0, 1.0, 0.0], [1.0, 0.0, 4.0]])
    b = np.array([1.0, -2.0, 0.5])
    x = branch_analysis._lu_solve(branch_analysis._lu_factor(a), b)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-14)


def test_petviashvili_stage_fails_quietly_on_singular_or_overflowing_seeds():
    n = 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # lap = 1 leaves 1 - lap all zeros: nothing is iterated
        got, it, residual = branch_analysis._petviashvili(
            np.eye(n), np.ones(n), 3.0)
        assert got is None and it == 0 and residual == math.inf
        # |u|^(p-2) u overflows at the first iterate
        got, it, residual = branch_analysis._petviashvili(
            np.zeros((n, n)), np.full(n, 1e60), 8.0)
        assert got is None and it == 1 and residual == math.inf


def test_ground_state_factors_once_per_rung(monkeypatch):
    visited, sizes = [], []
    operators, factor = (branch_analysis._radial_operators,
                         branch_analysis._lu_factor)

    def counted_operators(m, stretch):
        visited.append(m)
        return operators(m, stretch)

    def counted_factor(a):
        sizes.append(len(a))
        return factor(a)

    monkeypatch.setattr(branch_analysis, "_radial_operators",
                        counted_operators)
    monkeypatch.setattr(branch_analysis, "_lu_factor", counted_factor)
    # (3, 5.9) visits all six rungs; the others stop at the second
    for d, p in [(5, 2.8), (3, 2.5), (3, 5.9)]:
        visited.clear()
        sizes.clear()
        gn_ground_state.__wrapped__(d, p)
        assert len(visited) >= 2
        assert sizes == visited


def test_tail_heavy_ground_state_is_refused(capsys):
    # the constant moves by 3e-7 between R = 40 and R = 60 at (3, 2.02)
    with pytest.raises(GroundStateFailed, match="in its outer quarter") \
            as info:
        gn_ground_state.__wrapped__(3, 2.02)
    assert (info.value.d, info.value.p) == (3, 2.02)
    assert info.value.iterations > 0
    assert run(["criterion", "--d", "3", "--p", "2.02"]) == 3
    assert "too much for a constant" in capsys.readouterr().err
    # at (3, 2.05) the share is 3.7e-9, under the bound of 4.9e-8
    state = gn_ground_state(3, 2.05)
    share = branch_analysis._tail_share(state.profile, 3, state.mass_sq)
    assert 1e-9 < share < 1e-8


def test_peaked_states_raise_no_runtime_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, p in [(3, 5.5), (3, 5.9), (6, 2.9), (2, 8.0)]:
            gn_ground_state.__wrapped__(d, p)


def test_rung_operators_are_cached_and_read_only():
    ops = branch_analysis._radial_operators(80, 4.0)
    assert branch_analysis._radial_operators(80, 4.0) is ops
    for arr in ops:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_criterion_bytes_do_not_depend_on_blas_threads(tmp_path):
    """criterion and a 2-worker criterion sweep under 1 and 2 BLAS threads.

    Every artifact must be byte-identical; manifests are compared without
    their wall-clock field.  On a 1-core host both settings run one
    thread, so there the test cannot tell them apart.
    """
    script = (
        "import sys\n"
        "from cknlab.cli_io import run\n"
        "sys.exit(max(run(argv) for argv in [\n"
        "    ['criterion', '--d', '3', '--p', '2.05', '--out', 'a.json'],\n"
        "    ['criterion', '--d', '3', '--p', '5.5', '--out', 'b.json'],\n"
        "    ['sweep', '--spec', 'sweep.ini', '--out-dir', 'sweep',\n"
        "     '--workers', '2']]))\n")
    src = str(Path(branch_analysis.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        (cwd / "sweep.ini").write_text(
            "[sweep]\ncommand = criterion\nd = 3 4\np = 2.5 3.0\n")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        tree = {}
        for path in sorted(cwd.rglob("*")):
            if not path.is_file():
                continue
            if path.name.endswith("manifest.json"):
                record = json.loads(path.read_text())
                record.pop("wall_clock_seconds")
                tree[path.relative_to(cwd)] = record
            else:
                tree[path.relative_to(cwd)] = path.read_bytes()
        trees.append(tree)
    assert len(trees[0]) == 15
    assert trees[0] == trees[1]


def test_unresolved_ground_state_raises_with_its_state(monkeypatch, capsys):
    # two rungs too coarse for the core at (5, 2.8): no two agree
    monkeypatch.setattr(branch_analysis, "_RUNGS", ((20, 4.0), (24, 4.0)))
    with pytest.raises(GroundStateFailed) as info:
        gn_ground_state.__wrapped__(5, 2.8)
    exc = info.value
    assert (exc.d, exc.p) == (5, 2.8)
    assert exc.iterations > 0
    assert math.isfinite(exc.residual)
    # a solver failure on the command line
    gn_ground_state.cache_clear()
    assert run(["criterion", "--d", "5", "--p", "2.8"]) == 3
    assert "no two consecutive resolutions" in capsys.readouterr().err


def test_quotient_scale_invariance():
    d, p = 5, 2.8
    state = gn_ground_state(d, p)
    x, w = gauss_panels(0.0, 1.0, 1, branch_analysis._GAUSS_NODES)
    u, du, r, jac = state.profile.at_x(x)

    def quotient(r, weight, u, du):
        measure = weight * r ** (d - 1.0)
        return branch_analysis._gn_value(
            d, p, np.sum(du * du * measure), np.sum(u * u * measure),
            np.sum(np.abs(u) ** p * measure))

    base = quotient(r, w * jac, u, du)
    assert rel(base, gn_constant(d, p)) < 1e-12
    # u(c r) on the rule mapped to r / c
    c = 1.7
    scaled = quotient(r / c, w * jac / c, u, c * du)
    assert rel(scaled, base) < 1e-12


# p = 3.5 sits above the critical exponent 10/3 in dimension five
@pytest.mark.parametrize("call", [
    lambda: gn_ground_state(5, 3.5),
    lambda: gn_constant(5, 3.5),
    lambda: lemma_criterion(5, 3.5),
    lambda: conjecture_probe(5, 3.5, [1.0]),
], ids=["gn_ground_state", "gn_constant", "lemma_criterion",
        "conjecture_probe"])
def test_out_of_range_exponent_raises_domain_error(call):
    with pytest.raises(DomainError, match="not subcritical"):
        call()


@pytest.mark.parametrize("d, p, c_gn, upper", [
    (5, 2.8, 7.719374785017245, 2.706965057401005),
    (3, 2.05, 1.09729200391, 0.6711633134221795),
])
def test_breaking_criterion_reports(d, p, c_gn, upper):
    report = lemma_criterion(d, p)
    assert report.breaking_predicted
    assert rel(report.c_gn, c_gn) < 1e-7
    assert report.c_gn < report.mu_star_at_fs
    lo, hi = report.lambda_s_bracket
    assert lo == 0.0
    assert rel(hi, upper) < 1e-6
    rec = derive_params(d, {"p": p, "Lambda": 1.0}, "cylinder")
    assert hi < lambda_fs_theta(rec, rec.vartheta)
    # the upper end is where the symmetric constant falls to c_gn
    star = mu_star(rec, hi, rec.vartheta) * sphere_area(d) ** (1.0 - 2.0 / p)
    assert rel(star, report.c_gn) < 1e-12


def test_criterion_bracket_tightens_with_branch(branch_5_2_8):
    branch, _ = branch_5_2_8
    plain = lemma_criterion(5, 2.8)
    with_branch = lemma_criterion(5, 2.8, branch=branch)
    assert with_branch.breaking_predicted
    assert with_branch.lambda_s_bracket[1] <= plain.lambda_s_bracket[1]


def test_probe_rows_and_direction_flip(branch_5_2_8):
    branch, _ = branch_5_2_8
    probe = conjecture_probe(5, 2.8, [0.718, 1.0], branch=branch)
    left, right = probe.rows
    assert left.theta == 0.718
    assert left.direction == "left"
    assert left.witness_exists
    assert not left.monotone_increasing
    assert right.direction == "right"
    assert right.witness_exists
    assert right.monotone_increasing
    assert 0.725 < probe.flip_theta < 0.745
    with pytest.raises(DomainError):
        conjecture_probe(5, 2.8, [], branch=branch)
    with pytest.raises(AdmissibilityError):
        conjecture_probe(5, 2.8, [0.5], branch=branch)


def test_too_short_a_branch_gives_no_direction(branch_5_2_8):
    # the curve, the probe's rows and its bisection all need 10 samples
    branch, _ = branch_5_2_8
    short = dataclasses.replace(branch, points=branch.points[:9])
    with pytest.raises(InsufficientSamples, match="got 9"):
        classify_bifurcation(reparametrize(short, 1.0))
    for thetas in ([1.0], [0.718, 1.0]):
        with pytest.raises(InsufficientSamples, match="got 9"):
            conjecture_probe(5, 2.8, thetas, branch=short)


def test_a_branch_of_another_pair_is_refused(branch_5_2_8):
    branch, _ = branch_5_2_8
    names_both = r"\(5, 2\.8\).*\(4, 2\.9\)"
    with pytest.raises(DomainError, match=names_both):
        conjecture_probe(4, 2.9, [0.9, 1.0], branch=branch)
    with pytest.raises(DomainError, match=names_both):
        lemma_criterion(4, 2.9, branch=branch)


# The theta reading as each caller spelled it out before the formulas
# moved into params; the shared helpers must reproduce it bit for bit.

def _inline_reading(branch, theta):
    lam = branch.column("lam")
    t_phi = branch.column("t_phi")
    Lambda = theta * lam - (1.0 - theta) * t_phi
    mu_theta = (t_phi + Lambda) ** theta * branch.column("mu") / (t_phi + lam)
    return Lambda, mu_theta


def _inline_grid_reference(branch, theta, Lambda):
    p = branch.p
    lam_opt = Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    out = np.empty_like(Lambda)
    for i, (lam_s, lam_v) in enumerate(zip(lam_opt, Lambda)):
        mu, t = symmetric_quotient(branch.grid, p, float(lam_s))
        out[i] = (t + lam_v) ** theta * mu / (t + lam_s)
    return out


def _inline_line_constant(d, p, theta, Lambda, m_cells):
    lam_guess = Lambda * (p + 2.0) / (2.0 * p * theta - (p - 2.0))
    z, wz = zonal_quadrature(d - 1, 4)
    lap_z = zonal_laplacian(d - 1, z, wz)

    def best(cells):
        def quotient(lam):
            length = 20.0 / math.sqrt(lam)
            s, h = half_line_grid(length, cells)
            grid = CylinderGrid(d, length, s, h, z, wz, lap_z)
            mu, t = symmetric_quotient(grid, p, lam)
            return (t + Lambda) ** theta * mu / (t + lam)

        res = minimize_scalar(quotient, bounds=(0.5 * lam_guess, 2.0 * lam_guess),
                              method="bounded",
                              options={"xatol": 1e-8 * lam_guess})
        return float(res.fun)

    return (4.0 * best(2 * m_cells) - best(m_cells)) / 3.0


def _inline_direction(branch, theta):
    Lambda, _ = _inline_reading(branch, theta)
    onset = _classify(branch.column("lam"), Lambda).slope_at_onset
    return "left" if onset < 0.0 else "right"


READING_THETAS = (0.718, 0.74, 1.0)


def test_theta_reading_is_bit_identical_to_inline_formulas(branch_5_2_8):
    branch, _ = branch_5_2_8
    lam = branch.column("lam")
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    rows = []
    for theta in READING_THETAS:
        Lambda, mu_theta = _inline_reading(branch, theta)
        ref = _inline_grid_reference(branch, theta, Lambda)
        assert np.array_equal(grid_theta_reference(branch, theta, Lambda), ref)
        mask = mu_theta < ref * (1.0 - 1e-5)
        for got, want in zip(_witness_scan(branch, theta),
                             (Lambda, mu_theta, mask)):
            assert np.array_equal(got, want)

        curve = reparametrize(branch, theta)
        if theta == 1.0:
            want_Lambda, want_mu = lam, branch.column("mu")
        else:
            want_Lambda, want_mu = Lambda, mu_theta
        assert np.array_equal(curve.Lambda, want_Lambda)
        assert np.array_equal(curve.mu, want_mu)
        assert np.array_equal(curve.mu_star_theta,
                              [mu_star(rec, v, theta) for v in want_Lambda])
        assert np.array_equal(curve.d_Lambda_d_lambda,
                              np.gradient(want_Lambda, lam))
        cls = _classify(lam, Lambda)
        assert cls.direction == _inline_direction(branch, theta)

        witnesses = Lambda[mask]
        rows.append(ProbeRow(
            theta=theta,
            direction="left" if cls.slope_at_onset < 0.0 else "right",
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
                if _inline_direction(branch, mid) == lo_row.direction:
                    lo_t = mid
                else:
                    hi_t = mid
            flip = 0.5 * (lo_t + hi_t)
            break
    probe = conjecture_probe(5, 2.8, list(READING_THETAS), branch=branch)
    assert probe.rows == rows
    assert probe.flip_theta == flip
    assert probe.vartheta == 5 * (2.8 - 2.0) / (2.0 * 2.8)


def test_line_constant_matches_direct_minimization():
    # theta_constant's closed-form optimum against a bounded minimizer:
    # the minimizer's value error is O(1e-16), the polish residual of
    # 1e-12 enters t at about 1e-13, and Richardson multiplies that by 5/3
    for theta, Lambda in ((0.718, 2.5), (0.74, 3.1), (1.0, 4.0)):
        got = _line_theta_constant(5, 2.8, theta, Lambda, m_cells=200)
        assert rel(got, _inline_line_constant(5, 2.8, theta, Lambda, 200)) \
            <= 1e-12


def test_line_constant_keeps_its_closed_form_bits():
    # theta_constant's optimum as the line route wrote it before params
    # held it
    for d, p, theta, Lambda in ((5, 2.8, 0.718, 2.5), (3, 2.5, 0.4, 0.9),
                                (5, 2.8, 1.0, 4.0)):
        def best(cells):
            mu_1, t_1 = _unit_line_quotient(d, p, cells)
            lam = Lambda * (p - 2.0) / (t_1 * (2.0 * p * theta - (p - 2.0)))
            return ((lam * t_1 + Lambda) ** theta
                    * (lam ** ((p + 2.0) / (2.0 * p)) * mu_1)
                    / (lam * t_1 + lam))

        want = (4.0 * best(3200) - best(1600)) / 3.0
        assert _line_theta_constant(d, p, theta, Lambda).hex() == want.hex()


def test_curve_reads_the_closed_form_constant(branch_5_2_8, monkeypatch):
    # the curve's symmetric column is params.mu_star at each Lambda, bit
    # for bit, and no grid solve goes into it
    branch, _ = branch_5_2_8
    calls = []
    monkeypatch.setattr(branch_analysis, "symmetric_quotient",
                        lambda *args: calls.append(args))
    curve = reparametrize(branch, 0.718)
    assert calls == []
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    want = [mu_star(rec, Lambda, 0.718) for Lambda in curve.Lambda]
    assert np.array_equal(curve.mu_star_theta, want)


def _polished_and_settled(p, lam):
    """(profile, mu, t) as polished, and after one more Newton step."""
    grid = default_grid(5, lam, 1600, 4)
    main, off = _s_operator(grid.m_cells, grid.h, "even")
    phi = _symmetric_profile(grid, p, lam)
    f = _apply_s_operator(main, off, phi) + lam * phi - phi ** (p - 1.0)
    jac = main + lam - (p - 1.0) * phi ** (p - 2.0)
    band = np.vstack([np.append(0.0, off), jac, np.append(off, 0.0)])
    settled = phi - solve_banded((1, 1), band, f)
    return [(u, *_profile_quotient(grid, p, lam, u))
            for u in (phi, settled)]


@pytest.mark.parametrize("p", (2.5, 2.8, 4.0))
def test_line_profile_obeys_the_discrete_scaling_law(p):
    # h^2 lam is the same on every grid of length 20/sqrt(lam), so the
    # discrete profile scales as lam^(1/(p-2)), t as lam and mu as
    # lam^((p+2)/(2p)).  The polish stops at an absolute residual of
    # 1e-12, which leaves a low profile (p = 2.5, lam = 0.3: peak 0.14)
    # 1.6e-11 off; each polished value is therefore held to 1e-12 plus
    # what its next Newton step changes, and the settled ones to 1e-12.
    unit = _polished_and_settled(p, 1.0)
    for lam in (0.3, 2.0, 9.0):
        scales = (lam ** (1.0 / (p - 2.0)),
                  lam ** ((p + 2.0) / (2.0 * p)), lam)
        polished, settled = _polished_and_settled(p, lam)
        for k, scale in enumerate(scales):
            size = scale * np.max(unit[1][k])
            law = np.max(np.abs(settled[k] - scale * unit[1][k]))
            assert law <= 1e-12 * size
            step = (np.max(np.abs(polished[k] - settled[k]))
                    + scale * np.max(np.abs(unit[0][k] - unit[1][k])))
            assert np.max(np.abs(polished[k] - scale * unit[0][k])) \
                <= 1e-12 * size + step


def test_theta_range_has_one_slack_everywhere(branch_5_2_8):
    branch, _ = branch_5_2_8
    rec = derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    readers = (
        lambda theta: mu_star(rec, 2.5, theta),
        lambda theta: lambda_fs_theta(rec, theta),
        lambda theta: reparametrize(branch, theta).mu_star_theta,
    )
    for read in readers:
        assert np.all(np.isfinite(read(rec.vartheta - 5e-10)))
        with pytest.raises(AdmissibilityError) as info:
            read(0.5)
        assert info.value.violated == "theta < d*(p-2)/(2*p) or theta > 1"
