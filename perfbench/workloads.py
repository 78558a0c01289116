"""Workload definitions: the operations each workload runs, made from a seed.

An operation is one ``cknlab.cli_io.run(argv)`` call.  Every path in an
argv is relative to the operation's working directory, so two runs of the
same workload and seed write byte-identical artifacts (manifests included,
apart from their wall-clock field).

Seed 0 gives the reference inputs.  Other seeds vary only these inputs:

- ``continuation``: the ``curve`` theta, drawn from [0.72, 0.98], which lies
  inside [vartheta(5, 2.8), 1] = [0.7143, 1];
- ``criterion_sweep``: the two values of the sweep's ``p`` axis, each
  jittered by at most 0.02 around 2.5 and 3.0, which keeps every point
  inside the admissible range 2 < p < 2* for d = 3 and d = 4;
- ``sphere``: the ``--seed`` of the one ``--init random`` fde flow.

Operations that do not depend on the seed are compared with the seed-0
reference artifacts on every run.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("continuation", "criterion_sweep", "sphere")

CURVE_THETA_0 = 0.718
SWEEP_P_0 = (2.5, 3.0)
SWEEP_D = (3, 4)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what a correct outcome looks like."""

    name: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    points: int = 1
    seeded: bool = False


@dataclass
class Outcome:
    """What happened when one operation ran."""

    name: str
    rc: int | None
    seconds: float
    cpu_seconds: float
    error: str = ""
    stdout: str = ""
    stderr: str = ""


def curve_theta(seed: int) -> float:
    if seed == 0:
        return CURVE_THETA_0
    return round(random.Random(seed).uniform(0.72, 0.98), 6)


def sweep_p(seed: int) -> tuple[float, float]:
    if seed == 0:
        return SWEEP_P_0
    rng = random.Random(seed)
    return tuple(round(p + rng.uniform(-0.02, 0.02), 6) for p in SWEEP_P_0)


def sweep_spec(seed: int) -> str:
    """The sweep file the criterion_sweep workload hands to ``cknlab``."""
    ps = " ".join(repr(p) for p in sweep_p(seed))
    ds = " ".join(str(d) for d in SWEEP_D)
    return f"[sweep]\ncommand = criterion\nd = {ds}\np = {ps}\n"


def ops(workload: str, seed: int) -> list[Op]:
    """The operations of one workload pass, in the order they run."""
    if workload == "continuation":
        dp = ("--d", "5", "--p", "2.8")
        return [
            Op("branch", ("branch",) + dp + ("--out", "branch.csv")),
            Op("curve", ("curve",) + dp + ("--theta", repr(curve_theta(seed)),
                                            "--out", "curve.csv"),
               seeded=seed != 0),
            Op("probe", ("probe",) + dp + ("--thetas", "0.718,1.0",
                                            "--out", "probe.json")),
        ]
    if workload == "criterion_sweep":
        return [
            Op("sweep", ("sweep", "--spec", "sweep.ini", "--out-dir", "sweep",
                         "--workers", "2"),
               points=len(SWEEP_D) * len(SWEEP_P_0), seeded=seed != 0),
        ]
    if workload == "sphere":
        flow = ("flow", "--d", "3", "--p", "3.0", "--n-cells", "384")
        return [
            Op("flow_heat", flow + ("--kind", "heat", "--out", "flow_heat.csv")),
            Op("flow_fde", flow + ("--kind", "fde", "--out", "flow_fde.csv")),
            Op("flow_random", flow + ("--kind", "fde", "--init", "random",
                                      "--seed", str(seed),
                                      "--out", "flow_random.csv"),
               seeded=seed != 0),
            Op("counterexample_heat_3",
               ("counterexample", "--d", "3", "--p", "5.5",
                "--out", "counterexample_heat_3.json")),
            Op("counterexample_heat_4",
               ("counterexample", "--d", "4", "--p", "3.9",
                "--out", "counterexample_heat_4.json")),
            # p = 5.5 < 2* = 6 keeps the fde deficit monotone: the search must
            # fail with a negative certificate (exit code 3, no artifact).
            Op("counterexample_fde_3",
               ("counterexample", "--d", "3", "--p", "5.5", "--kind", "fde",
                "--out", "counterexample_fde_3.json"), expect_rc=3),
            Op("verify", ("verify",)),
        ]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {WORKLOADS}")


def input_files(workload: str, seed: int) -> dict[str, str]:
    """Input files an operation reads, by path relative to its directory."""
    if workload == "criterion_sweep":
        return {"sweep.ini": sweep_spec(seed)}
    return {}


def run_ops(op_list, run: Callable, clock: Callable, cpu: Callable,
            on_start: Callable | None = None) -> list[Outcome]:
    """Run each operation once, in order; no failure stops the rest.

    ``run`` is ``cknlab.cli_io.run``.  Any exception it raises is recorded
    with its traceback and the loop moves on to the next operation.
    """
    import contextlib
    import io

    outcomes = []
    for op in op_list:
        if on_start is not None:
            on_start(op)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, ""
        c0, t0 = cpu(), clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run(list(op.argv))
        except Exception:
            error = traceback.format_exc()
        seconds, cpu_seconds = clock() - t0, cpu() - c0
        outcomes.append(Outcome(op.name, rc, seconds, cpu_seconds, error,
                                out.getvalue()[-4000:], err.getvalue()[-4000:]))
    return outcomes
