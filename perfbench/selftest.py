"""Tests of the benchmark itself; they run no solver.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the package's own test suite does
not collect it.
"""

import json
import shutil
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _op(workload, name, seed=0):
    return next(op for op in workloads.ops(workload, seed) if op.name == name)


def _ok(name):
    return {"name": name, "rc": 0, "error": "", "stdout": "", "stderr": ""}


def _scale_cell(path: Path, row: int, col: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(col)
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# a tampered reference artifact fails the check


@pytest.mark.parametrize("factor, bad", [(1.0, False), (1.0 + 1e-12, False),
                                         (1.0 + 1e-8, True)])
def test_branch_column_checked_at_1e10_relative(tmp_path, factor, bad):
    shutil.copy(checks.REFERENCE / "continuation" / "branch.csv", tmp_path)
    _scale_cell(tmp_path / "branch.csv", 40, "mu", factor)
    problems = checks.check_op("continuation", _op("continuation", "branch"),
                               _ok("branch"), tmp_path, 0)
    assert bool(problems[0]) == bad


def test_tampered_reference_artifact_fails(tmp_path):
    ref = tmp_path / "reference"
    shutil.copytree(checks.REFERENCE, ref)
    work = tmp_path / "work"
    shutil.copytree(checks.REFERENCE / "sphere", work)
    op = _op("sphere", "flow_heat")
    assert checks.check_op("sphere", op, _ok(op.name), work, 0, ref) == [[]]
    _scale_cell(ref / "sphere" / "flow_heat.csv", 10, "E_p", 1.0 + 1e-6)
    problems = checks.check_op("sphere", op, _ok(op.name), work, 0, ref)
    assert problems[0] and "E_p" in problems[0][0]


def _reference_sweep(tmp_path, failed_point=None):
    """The seed-0 reference sweep, with one point marked failed if asked."""
    shutil.copytree(checks.REFERENCE / "criterion_sweep" / "sweep",
                    tmp_path / "sweep")
    rows = ["index,command,d,p,status,message,artifact"]
    for i, (d, p) in enumerate((d, p) for d in workloads.SWEEP_D
                               for p in workloads.SWEEP_P_0):
        if i == failed_point:
            rows.append(f"{i},criterion,{d},{p},failed,SolverError: x,")
        else:
            rows.append(f"{i},criterion,{d},{p},ok,,"
                        f"point_{i:04d}/criterion.json")
    (tmp_path / "sweep" / "aggregate.csv").write_text("\n".join(rows) + "\n")


def test_c_gn_checked_at_shooting_tolerance(tmp_path):
    _reference_sweep(tmp_path)
    op = _op("criterion_sweep", "sweep")
    assert checks.check_op("criterion_sweep", op, _ok("sweep"), tmp_path,
                           0) == [[]] * 4
    path = tmp_path / "sweep" / "point_0002" / "criterion.json"
    report = json.loads(path.read_text())
    report["c_gn"] *= 1.0 + 5e-9
    path.write_text(json.dumps(report))
    problems = checks.check_op("criterion_sweep", op, _ok("sweep"), tmp_path, 0)
    assert [bool(p) for p in problems] == [False, False, True, False]


@pytest.mark.parametrize("failed_point, rc, failures", [
    (1, 3, [False, True, False, False]),   # one bad point is one failure
    (1, 0, [False, True, False, False]),   # exit 0 despite it: same point
    (None, 3, [True] * 4),                 # exit 3 with no failed point
    (None, 0, [False] * 4),
])
def test_sweep_failures_are_counted_per_point(tmp_path, failed_point, rc,
                                              failures):
    _reference_sweep(tmp_path, failed_point)
    op = _op("criterion_sweep", "sweep")
    problems = checks.check_op("criterion_sweep", op, dict(_ok("sweep"), rc=rc),
                               tmp_path, 0)
    assert [bool(p) for p in problems] == failures
    if failed_point is not None and rc == 0:
        assert "exited 0" in problems[failed_point][-1]


def test_negative_certificate_is_the_expected_outcome(tmp_path):
    op = _op("sphere", "counterexample_fde_3")
    outcome = dict(_ok(op.name), rc=3, stderr=(
        "error: no deficit-increasing density found for d=3, p=5.5; "
        "best derivative -1.382234e-10 (error 2.8e-11)\n"))
    assert checks.check_op("sphere", op, outcome, tmp_path, 0) == [[]]
    assert checks.check_op("sphere", op, dict(outcome, rc=0), tmp_path, 0)[0]
    outcome["stderr"] = outcome["stderr"].replace("-1.382234e-10", "1e-6")
    assert checks.check_op("sphere", op, outcome, tmp_path, 0)[0]


# ---------------------------------------------------------------------------
# a raised RuntimeError is counted, not fatal


def test_runtime_error_is_counted_and_later_operations_run(tmp_path):
    ran = []

    def fake_run(argv):
        ran.append(argv[0])
        if argv[0] == "branch":
            raise RuntimeError("Factor is exactly singular")
        return 0

    op_list = workloads.ops("continuation", 0)
    outcomes = workloads.run_ops(op_list, fake_run, lambda: 0.0, lambda: 0.0)
    assert ran == ["branch", "curve", "probe"]
    assert "RuntimeError: Factor is exactly singular" in outcomes[0].error
    assert [o.rc for o in outcomes] == [None, 0, 0]

    sample = run.Sample("pass001", 0, 1.0, 0.5, 1.0,
                        {"ops": [asdict(o) for o in outcomes]}, tmp_path,
                        tmp_path / "stderr.txt")
    attempted, failed, problems = run.check_pass("continuation", 0, sample)
    assert attempted == 3
    assert failed == 3  # curve and probe wrote no artifacts either
    assert "RuntimeError" in problems[0]


# ---------------------------------------------------------------------------
# the seed changes only the documented inputs


def _varying(a, b):
    return [(x, y) for x, y in zip(a, b) if x != y]


@pytest.mark.parametrize("seed", range(1, 40))
def test_seed_changes_only_documented_inputs(seed):
    for workload in workloads.WORKLOADS:
        base, seeded = workloads.ops(workload, 0), workloads.ops(workload, seed)
        assert [o.name for o in base] == [o.name for o in seeded]
        assert seeded == workloads.ops(workload, seed)
        for b, s in zip(base, seeded):
            changed = _varying(b.argv, s.argv)
            if b.name == "curve":
                assert len(changed) == 1
                theta = float(changed[0][1])
                assert 5 * 0.8 / (2 * 2.8) < 0.72 <= theta <= 0.98
            elif b.name == "flow_random":
                assert changed == [("0", str(seed))]
            else:
                assert changed == []
    spec0 = workloads.input_files("criterion_sweep", 0)["sweep.ini"]
    spec = workloads.input_files("criterion_sweep", seed)["sweep.ini"]
    lines = _varying(spec0.splitlines(), spec.splitlines())
    assert len(lines) <= 1 and all(a.startswith("p = ") for a, _ in lines)
    for p, p0 in zip(workloads.sweep_p(seed), workloads.SWEEP_P_0):
        # 2 < p < 2* = 2d/(d-2) for both swept dimensions
        assert abs(p - p0) <= 0.02 and 2.0 < p < 4.0


def test_seed_zero_is_the_reference_input():
    argv = {o.name: o.argv for o in workloads.ops("continuation", 0)}
    assert argv["curve"][argv["curve"].index("--theta") + 1] == "0.718"
    assert "p = 2.5 3.0" in workloads.sweep_spec(0)


# ---------------------------------------------------------------------------
# tracing


def test_span_metrics_self_time_and_kernel_totals():
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "kernels.k.m1", "start": 1.0, "end": 3.0, "parent": 0},
        {"id": 2, "name": "a", "start": 4.0, "end": 8.0, "parent": 0},
        {"id": 3, "name": "kernels.k.m2", "start": 5.0, "end": 6.0, "parent": 2},
    ]
    m = run.span_metrics(spans)
    assert m["a.calls"] == 2 and m["a_s"] == 10.0
    assert m["a.self_s"] == (10.0 - 2.0 - 4.0) + (4.0 - 1.0)
    assert m["kernels.k.calls"] == 2 and m["kernels.k_s"] == 3.0
    assert m["kernels.k.m1_s"] == 2.0


def test_hook_time_is_taken_out_of_enclosing_spans():
    hook = tracer.HOOK
    spans = [
        {"id": 0, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "kernels.k.m", "start": 1.0, "end": 3.0, "parent": 0},
        {"id": 2, "name": hook, "start": 3.0, "end": 7.0, "parent": 0},
    ]
    m = run.span_metrics(spans)
    assert m["a_s"] == 6.0 and m["a.self_s"] == 4.0
    assert m["kernels.k_s"] == 2.0
    assert not any(key.startswith(hook) for key in m)


def test_result_hook_runs_in_its_own_span():
    tr = tracer.Tracer()
    seen = []
    kernel = tr.wrap("kernels.k.m", lambda x: x * 3,
                     lambda t, result: seen.append(result))
    outer = tr.wrap("a", lambda x: kernel(x) + 1)
    assert outer(2) == 7 and seen == [6]
    by_name = {s["name"]: s for s in tr.span_records()}
    hook = by_name[tracer.HOOK]
    assert hook["parent"] == by_name["a"]["id"]
    assert hook["start"] >= by_name["kernels.k.m"]["end"]


def test_tracer_is_thread_safe():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    errors = []

    def worker():
        try:
            for i in range(500):
                assert outer(i) == 2 * (i + 1)
        except AssertionError as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    spans = tr.span_records()
    assert len(spans) == 8 * 500 * 2
    assert len({s["id"] for s in spans}) == len(spans)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] == "inner":
            parent = by_id[s["parent"]]
            assert parent["name"] == "outer"
            assert parent["thread"] == s["thread"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        else:
            assert s["parent"] is None


# ---------------------------------------------------------------------------
# BENCHMARK.json describes what the code reports


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
