"""cknlab benchmark: three CLI workloads, checked outputs, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload continuation --seed 0 --seconds 15 --trace 0

Each sample is one fresh Python process (``child.py``) that imports
``cknlab`` from the checkout's ``src`` and runs one pass of the workload's
operations through ``cknlab.cli_io.run``, as one caller in a closed loop.
With ``--trace 0`` the run repeats passes for ``--seconds`` seconds, then
spawns a few processes that only import ``cknlab`` so that set-up time is a
median of several samples, and reports the end-to-end metrics.  With
``--trace 1`` it runs a traced pass (layer wrappers from ``tracer.py``, plus
``-X importtime``) between two untraced ones, checks that the traced pass
wrote the same bytes, and reports the per-layer metrics and the tracing
overhead against the untraced median.

Every pass's artifacts are checked (``checks.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count operations (one CLI invocation or one sweep point), and
``metrics`` maps each metric name to its value and unit.  The failure rate
is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 165.0
SETUP_PROBES = 12

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("compute_s", "s"),
    ("peak_rss_mb", "MB"),
)

_IMPORTS = ("cknlab", "scipy.integrate", "scipy.optimize", "scipy.sparse")
_CLI_COMMANDS = ("branch", "curve", "probe", "flow", "counterexample",
                 "verify", "sweep")

# (name, unit, better); the span-derived entries are filled in by name.
PER_LAYER = (
    *((f"import.{m.replace('.', '_')}_s", "s", "lower") for m in _IMPORTS),
    ("cylinder_solver.continue_branch_s", "s", "lower"),
    ("cylinder_solver.continue_branch.self_s", "s", "lower"),
    ("cylinder_solver.branch_points", "count", "lower"),
    ("cylinder_solver.newton_iters", "count", "lower"),
    ("kernels.splu.calls", "count", "lower"),
    ("kernels.splu_s", "s", "lower"),
    ("kernels.splu.fill_nnz", "count", "lower"),
    ("kernels.eigh_tridiagonal.calls", "count", "lower"),
    ("kernels.eigh_tridiagonal_s", "s", "lower"),
    *((f"kernels.{k}.{mod}{suffix}", unit, "lower")
      for k, mods in (("eigh_tridiagonal", ("cylinder_solver", "grids")),
                      ("solve_banded", ("cylinder_solver", "sphere_flows")))
      for mod in mods
      for suffix, unit in ((".calls", "count"), ("_s", "s"))),
    ("branch_analysis.reparametrize_s", "s", "lower"),
    ("branch_analysis.conjecture_probe_s", "s", "lower"),
    ("branch_analysis.mu_star_theta_line.calls", "count", "lower"),
    ("branch_analysis.lemma_criterion_s", "s", "lower"),
    ("branch_analysis.gn_constant_s", "s", "lower"),
    ("kernels.solve_ivp.calls", "count", "lower"),
    ("kernels.solve_ivp_s", "s", "lower"),
    ("kernels.solve_ivp.nfev", "count", "lower"),
    ("kernels.brentq.calls", "count", "lower"),
    ("kernels.minimize_scalar.calls", "count", "lower"),
    ("params.mu_star.calls", "count", "lower"),
    ("params.mu_star_s", "s", "lower"),
    *((f"cli_io.{c}_s", "s", "lower") for c in _CLI_COMMANDS),
    ("cli_io.criterion_point_s", "s", "lower"),
    ("cli_io.sweep_cores_used", "cores", "higher"),
    ("cli_io.artifact_bytes", "bytes", "lower"),
    ("sphere_flows.integrate_s", "s", "lower"),
    ("sphere_flows.counterexample_search_s", "s", "lower"),
    ("sphere_flows.deficit_derivative_s", "s", "lower"),
    ("sphere_flows.flow_step.calls", "count", "lower"),
    ("sphere_flows.deficit_derivative.calls", "count", "lower"),
    ("sphere_flows.skipped", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program to run)."""


@dataclass
class Sample:
    """One child process: its timings, resources and reported result."""

    label: str
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    result: dict | None
    ops_dir: Path
    stderr_path: Path

    @property
    def compute_s(self) -> float | None:
        return None if self.setup_s is None else self.wall_s - self.setup_s


class Runner:
    """Spawns child processes for one benchmark run inside the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        src = root / "src"
        for needed in ("__init__.py", "cli_io.py"):
            if not (src / "cknlab" / needed).is_file():
                raise SetupError(f"no cknlab sources at {src / 'cknlab'}")
        self.src = src
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.base = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.pop("CKNLAB_CONFIG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self._count = 0

    def spawn(self, probe: bool = False, trace: bool = False) -> Sample:
        self._count += 1
        label = f"{'probe' if probe else 'pass'}{self._count:03d}"
        home = self.base / label
        ops_dir = home / "ops"
        ops_dir.mkdir(parents=True)
        if not probe:
            for name, text in workloads.input_files(self.workload,
                                                     self.seed).items():
                (ops_dir / name).write_text(text)
        result_path = home / "result.json"
        argv = [sys.executable]
        if trace:
            argv += ["-X", "importtime"]
        argv += [str(HERE / "child.py"), "--result", str(result_path)]
        if probe:
            argv.append("--probe")
        else:
            argv += ["--workload", self.workload, "--seed", str(self.seed),
                     "--dir", str(ops_dir)]
            if trace:
                argv.append("--trace")
        stderr_path = home / "stderr.txt"
        with open(home / "stdout.txt", "wb") as out, \
                open(stderr_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        result = None
        if result_path.exists():
            with open(result_path) as fh:
                result = json.load(fh)
            if not Path(result["cknlab_file"]).resolve().is_relative_to(
                    self.src.resolve()):
                raise SetupError(f"imported cknlab from {result['cknlab_file']}"
                                 f", not from {self.src}")
        setup = None if result is None else result["t_imported"] - t0
        return Sample(label, proc.returncode, t1 - t0, setup,
                      usage.ru_maxrss / 1024.0, result, ops_dir, stderr_path)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def cleanup(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            self.base.parent.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# correctness


def check_pass(workload: str, seed: int, sample: Sample) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass's operations."""
    outcomes = {}
    problems = []
    if sample.result is None:
        problems.append(f"{sample.label} exited with code {sample.rc} "
                        f"and no result")
    else:
        outcomes = {o["name"]: o for o in sample.result.get("ops", [])}
    attempted = failed = 0
    for op in workloads.ops(workload, seed):
        per_point = checks.check_op(workload, op, outcomes.get(op.name),
                                    sample.ops_dir, seed)
        attempted += op.points
        for point_problems in per_point:
            if point_problems:
                failed += 1
                problems += [f"{sample.label} {op.name}: {p}"
                             for p in point_problems[:3]]
    return attempted, failed, problems


def _artifact_view(path: Path) -> bytes:
    """Artifact bytes, with the manifests' wall-clock field taken out."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        doc = json.loads(data)
        doc.pop("wall_clock_seconds", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return data


def artifact_files(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*"))
            if p.is_file()}


def compare_artifacts(a: Path, b: Path) -> list[str]:
    fa, fb = artifact_files(a), artifact_files(b)
    if sorted(fa) != sorted(fb):
        return [f"traced pass wrote {sorted(set(fa) ^ set(fb))} differently"]
    return [f"traced pass changed {name}" for name in fa
            if _artifact_view(fa[name]) != _artifact_view(fb[name])]


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    k = n - 11
    return f"n={n}, p{100.0 * (k + 1) / n:.0f} = {sorted(values)[k]:.6g}"


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[Sample], probes: list[Sample]) -> tuple[dict, list[str]]:
    series = {
        "wall_s": [s.wall_s for s in passes],
        "setup_s": [s.setup_s for s in passes + probes if s.setup_s is not None],
        "compute_s": [s.compute_s for s in passes if s.compute_s is not None],
        "peak_rss_mb": [s.rss_mb for s in passes],
    }
    metrics, lines = {}, []
    for name, unit in END_TO_END:
        value = _median(series[name])
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<14} median {value:.6g} {unit}  ({tail(series[name])})")
    return metrics, lines


def _importtime(text: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    found = {}
    for line in text.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)", line)
        if m and m.group(2) in _IMPORTS and m.group(2) not in found:
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return found


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Calls, outermost total time and self time per span name.

    A span nested in a span of the same name adds to the calls but not to
    the time.  Self time is a span's duration minus what its child spans
    cover; children on the same thread nest strictly, so that is their sum.
    Result-hook spans (``tracer.HOOK``) are the benchmark's own work: they
    are no layer, and their time is taken out of every span around them.
    """
    by_id = {s["id"]: s for s in spans}
    hooked: dict[int, float] = {}
    for s in spans:
        if s["name"] == tracer.HOOK:
            parent = s["parent"]
            while parent is not None:
                hooked[parent] = hooked.get(parent, 0.0) + s["end"] - s["start"]
                parent = by_id[parent]["parent"]
    out: dict[str, float] = {}
    for s in spans:
        name = s["name"]
        if name == tracer.HOOK:
            continue
        dur = s["end"] - s["start"] - hooked.get(s["id"], 0.0)
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        parent, outermost = s["parent"], True
        while parent is not None:
            if by_id[parent]["name"] == name:
                outermost = False
                break
            parent = by_id[parent]["parent"]
        if outermost:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur
        if s["parent"] is not None:
            pname = by_id[s["parent"]]["name"]
            out[f"{pname}.self_s"] = out.get(f"{pname}.self_s", 0.0) - dur
    # Kernels are recorded per binding module; the totals sum the bindings.
    for key, value in list(out.items()):
        m = re.match(r"(kernels\.\w+)\.\w+(\.calls|_s)$", key)
        if m:
            total = m.group(1) + m.group(2)
            out[total] = out.get(total, 0) + value
    return out


def layer_metrics(workload: str, seed: int, untraced: list[Sample],
                  traced: Sample) -> tuple[dict, list[str]]:
    result = traced.result or {}
    spans = result.get("spans", [])
    values = span_metrics(spans)
    hook_s: dict[str, float] = {}
    for s in spans:
        if s["name"] == tracer.HOOK:
            hook_s[s["op"]] = hook_s.get(s["op"], 0.0) + s["end"] - s["start"]
    values.update({k: float(v) for k, v in result.get("counts", {}).items()})
    for module, seconds in _importtime(traced.stderr_path.read_text()).items():
        values[f"import.{module.replace('.', '_')}_s"] = seconds
    command = {op.name: op.argv[0] for op in workloads.ops(workload, seed)}
    for op in result.get("ops", []):
        key = f"cli_io.{command[op['name']]}_s"
        seconds = op["seconds"] - hook_s.get(op["name"], 0.0)
        values[key] = values.get(key, 0.0) + seconds
        if op["name"] == "sweep" and op["seconds"] > 0.0:
            values["cli_io.sweep_cores_used"] = op["cpu_seconds"] / op["seconds"]
    ops_dir = traced.ops_dir
    inputs = workloads.input_files(workload, seed)
    values["cli_io.artifact_bytes"] = sum(
        p.stat().st_size for name, p in artifact_files(ops_dir).items()
        if name not in inputs)
    point_times = []
    for manifest in sorted(ops_dir.glob("sweep/point_*/manifest.json")):
        with open(manifest) as fh:
            point_times.append(json.load(fh)["wall_clock_seconds"])
    values["cli_io.criterion_point_s"] = _median(point_times)
    branch = ops_dir / "branch.csv"
    if branch.exists():
        head, rows = checks.read_csv(branch)
        col = head.index("newton_iters")
        values["cylinder_solver.branch_points"] = len(rows)
        values["cylinder_solver.newton_iters"] = sum(r[col] for r in rows)
    skipped = 0
    for path in ops_dir.glob("counterexample_*.json"):
        with open(path) as fh:
            skipped += json.load(fh).get("n_skipped", 0)
    values["sphere_flows.skipped"] = skipped
    baseline = _median(s.compute_s for s in untraced)
    if baseline and traced.compute_s is not None:
        values["trace.overhead_pct"] = 100.0 * (traced.compute_s / baseline - 1.0)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in PER_LAYER}
    lines = [f"{name:<46} {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    missing = result.get("missing_layers", [])
    if missing:
        lines.append(f"layers not found, reported as 0: {missing}")
    return metrics, lines


# ---------------------------------------------------------------------------
# environment record


def environment(root: Path) -> dict:
    def version(dist: str) -> str:
        from importlib.metadata import PackageNotFoundError, version as v
        try:
            return v(dist)
        except PackageNotFoundError:
            return "not installed"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cknlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------


def measure(runner: Runner, seconds: float, trace: bool):
    """Spawn the run's processes; returns (passes, probes, extra problems).

    Untraced, passes repeat for ``seconds`` and set-up probes follow.  A
    traced run makes a traced pass between two untraced ones, so that its
    overhead is taken against their median; the traced pass's artifacts
    must be the same bytes as the first untraced pass's.
    """
    runner.spawn(probe=True)  # untimed: fills the bytecode and file caches
    passes = [runner.spawn()]
    if trace:
        passes += [runner.spawn(trace=True), runner.spawn()]
        return passes, [], compare_artifacts(passes[0].ops_dir,
                                             passes[1].ops_dir)
    start = time.monotonic() - passes[0].wall_s
    while (time.monotonic() - start < seconds
           and runner.remaining() > 3.0 * passes[-1].wall_s):
        passes.append(runner.spawn())
    probes = [runner.spawn(probe=True) for _ in range(SETUP_PROBES)]
    return passes, probes, []


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    """Measure and check one workload; prints its report and result line."""
    try:
        runner = Runner(root, workload, seed, time.monotonic() + RUN_BUDGET_S)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        passes, probes, problems = measure(runner, seconds, trace)
        attempted = failed = 0
        for sample in passes:
            a, f, p = check_pass(workload, seed, sample)
            attempted, failed, problems = attempted + a, failed + f, problems + p
        if trace:
            metrics, lines = layer_metrics(workload, seed,
                                           [passes[0], passes[2]], passes[1])
        else:
            metrics, lines = end_to_end(passes, probes)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.cleanup()

    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}, "
          f"{len(passes)} pass(es) of {attempted // len(passes)} "
          f"operation(s), one caller in a closed loop")
    for line in lines:
        print(line)
    print(f"fail_rate      {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("env " + json.dumps(environment(root), sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        status = run_workload(Path.cwd(), name, args.seed, args.seconds,
                              bool(args.trace))
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
