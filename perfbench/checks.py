"""Output checks: seed-0 reference artifacts and seed-independent invariants.

Tolerances come from the repository's own gates and solver tolerances:

- branch, curve and probe columns: 1e-10 relative (the ROADMAP's gate for
  continuation changes); the branch ``residual`` by the absolute Newton
  tolerance 1e-10 of ``ContinuationConfig``; ``newton_iters`` exactly;
- ``c_gn``: 1e-9 relative, the pollution the shooting oracle documents and
  its frozen-value test allows; the breaking bracket, which is where the
  symmetric constant crosses ``c_gn``, at 1e-8;
- flow and counterexample numbers: 1e-10 relative, with an absolute floor
  of 1e-10 times the largest magnitude of the same column or field,
  because deficits decay towards 0 and are differences of O(1) terms;
- flows: mass drift at most 1e-10 relative, as the flow contract states.

Every check returns one list of problems per operation point; an empty
list means that point is correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"

REL = 1e-10
NEWTON_TOL = 1e-10
MASS_DRIFT = 1e-10
C_GN_REL = 1e-9
BRACKET_REL = 1e-8

# ``cknlab sweep`` exits with this code when any point failed; each point's
# own status is then in aggregate.csv.
SWEEP_FAILED_RC = 3


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def compare_csv(got: Path, ref: Path, floor: float = 0.0, exact=(),
                absolute=None) -> list[str]:
    """Column-wise comparison of two numeric CSV files, at ``REL`` relative.

    ``floor`` scales an absolute tolerance by the column's largest
    magnitude; ``exact`` columns must match exactly; ``absolute`` maps a
    column to an absolute tolerance that replaces the relative one.
    """
    absolute = absolute or {}
    head_g, rows_g = read_csv(got)
    head_r, rows_r = read_csv(ref)
    if head_g != head_r:
        return [f"{got.name}: header {head_g} != reference {head_r}"]
    if len(rows_g) != len(rows_r):
        return [f"{got.name}: {len(rows_g)} rows, reference has {len(rows_r)}"]
    problems = []
    for j, col in enumerate(head_r):
        scale = max((abs(r[j]) for r in rows_r), default=0.0)
        for i, (g, r) in enumerate(zip(rows_g, rows_r)):
            if col in exact:
                ok = g[j] == r[j]
            elif col in absolute:
                ok = abs(g[j] - r[j]) <= absolute[col]
            else:
                ok = _close(g[j], r[j], REL, floor * scale)
            if not ok:
                problems.append(f"{got.name}: row {i} {col} = {g[j]!r}, "
                                f"reference {r[j]!r}")
                break
    return problems


def _max_abs(value) -> float:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return 0.0
    if isinstance(value, (int, float)):
        return abs(value)
    if isinstance(value, dict):
        return max((_max_abs(v) for v in value.values()), default=0.0)
    return max((_max_abs(v) for v in value), default=0.0)


def compare_json(got, ref, where: str, rtol: float = REL, floor: float = 0.0,
                 rtol_by_key=None, scale: float | None = None) -> list[str]:
    """Recursive comparison; numbers by tolerance, everything else exactly.

    ``rtol_by_key`` overrides the relative tolerance below a named key; with
    ``floor``, each top-level field gets an absolute tolerance of ``floor``
    times its largest magnitude.
    """
    rtol_by_key = rtol_by_key or {}
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{where}: keys differ from reference"]
        problems = []
        for key in sorted(ref):
            sub_scale = scale if scale is not None else _max_abs(ref[key])
            problems += compare_json(got[key], ref[key], f"{where}.{key}",
                                     rtol_by_key.get(key, rtol), floor,
                                     rtol_by_key, sub_scale)
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs from reference"]
        problems = []
        for i, (g, r) in enumerate(zip(got, ref)):
            problems += compare_json(g, r, f"{where}[{i}]", rtol, floor,
                                     rtol_by_key, scale)
            if problems:
                break
        return problems
    if isinstance(ref, bool) or ref is None or isinstance(ref, str) \
            or isinstance(got, bool) or not isinstance(got, (int, float)):
        return [] if got == ref else [f"{where} = {got!r}, reference {ref!r}"]
    if isinstance(ref, int) and isinstance(got, int):
        return [] if got == ref else [f"{where} = {got!r}, reference {ref!r}"]
    atol = floor * (scale if scale is not None else abs(ref))
    if _close(float(got), float(ref), rtol, atol):
        return []
    return [f"{where} = {got!r}, reference {ref!r}"]


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _needs(path: Path) -> list[str]:
    return [] if path.exists() else [f"{path.name}: missing"]


# ---------------------------------------------------------------------------
# continuation


def _check_branch(workdir: Path, ref: Path) -> list[str]:
    got = workdir / "branch.csv"
    return _needs(got) or compare_csv(
        got, ref / "branch.csv", exact=("newton_iters",),
        absolute={"residual": NEWTON_TOL})


def _check_curve(workdir: Path, ref: Path, seed: int,
                 seeded: bool) -> list[str]:
    got = workdir / "curve.csv"
    if not got.exists():
        return [f"{got.name}: missing"]
    if not seeded:
        return compare_csv(got, ref / "curve.csv")
    # Other thetas have no reference: recompute the reparametrization from
    # the branch artifact of the same pass and check the curve against it.
    theta = workloads.curve_theta(seed)
    head_b, rows_b = read_csv(workdir / "branch.csv")
    head_c, rows_c = read_csv(got)
    if len(rows_b) != len(rows_c):
        return [f"curve.csv: {len(rows_c)} rows, branch has {len(rows_b)}"]
    b = {name: [r[j] for r in rows_b] for j, name in enumerate(head_b)}
    c = {name: [r[j] for r in rows_c] for j, name in enumerate(head_c)}
    problems = []
    for i, lam in enumerate(b["lambda"]):
        t = b["t_phi"][i]
        Lam = theta * lam - (1.0 - theta) * t
        mu_theta = (t + Lam) ** theta * b["mu"][i] / (t + lam)
        expected = {"lambda": lam, "Lambda": Lam, "mu": mu_theta}
        for col, want in expected.items():
            if not _close(c[col][i], want, 1e-12, 1e-14):
                problems.append(f"curve.csv: row {i} {col} = {c[col][i]!r}, "
                                f"recomputed {want!r}")
        star = c["mu_star_theta"][i]
        if not (math.isfinite(star) and star > 0.0):
            problems.append(f"curve.csv: row {i} mu_star_theta = {star!r}")
        if not math.isfinite(c["d_Lambda_d_lambda"][i]):
            problems.append(f"curve.csv: row {i} slope is not finite")
        if problems:
            break
    return problems


def _check_probe(workdir: Path, ref: Path) -> list[str]:
    got = workdir / "probe.json"
    return _needs(got) or compare_json(_load_json(got),
                                       _load_json(ref / "probe.json"),
                                       "probe.json")


# ---------------------------------------------------------------------------
# criterion sweep


def _criterion_invariants(report: dict, d: int, p: float) -> list[str]:
    problems = []
    if report.get("d") != d or report.get("p") != p:
        problems.append(f"point is (d, p) = ({report.get('d')}, "
                        f"{report.get('p')}), expected ({d}, {p})")
    vt = d * (p - 2.0) / (2.0 * p)
    if not _close(report.get("vartheta", math.nan), vt, 1e-14):
        problems.append(f"vartheta {report.get('vartheta')!r} != {vt!r}")
    c_gn, star = report.get("c_gn"), report.get("mu_star_at_fs")
    if not all(isinstance(v, float) and math.isfinite(v) and v > 0.0
               for v in (c_gn, star)):
        return problems + [f"c_gn {c_gn!r} or mu_star_at_fs {star!r} invalid"]
    predicted = report.get("breaking_predicted")
    if predicted != (c_gn < star):
        problems.append("breaking_predicted disagrees with c_gn < mu_star")
    bracket = report.get("lambda_s_bracket")
    if predicted and not (isinstance(bracket, list) and len(bracket) == 2
                          and 0.0 <= bracket[0] < bracket[1]):
        problems.append(f"breaking predicted but bracket is {bracket!r}")
    if not predicted and bracket is not None:
        problems.append("bracket reported without predicted breaking")
    return problems


def _check_sweep(workdir: Path, ref: Path, seed: int, seeded: bool,
                 rc: int) -> list[list[str]]:
    """One problem list per point, from each point's row in aggregate.csv.

    The exit code must agree with the rows: ``SWEEP_FAILED_RC`` if and only
    if some point failed.  A sweep that exits 0 despite a failed point adds
    that to the failed point; one that exits ``SWEEP_FAILED_RC`` with every
    point ok fails every point, as any other unexpected exit code does.
    """
    sweep = workdir / "sweep"
    ds = workloads.SWEEP_D
    ps = workloads.sweep_p(seed)
    points = [(d, p) for d in ds for p in ps]
    aggregate = sweep / "aggregate.csv"
    if not aggregate.exists():
        return [["aggregate.csv: missing"]] * len(points)
    with open(aggregate, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(points):
        return [[f"aggregate.csv has {len(rows)} rows"]] * len(points)
    out = []
    for i, (d, p) in enumerate(points):
        row = rows[i]
        if row["status"] != "ok":
            out.append([f"point_{i:04d}: {row['status']} {row['message']}"])
            continue
        got = sweep / row["artifact"]
        if not got.exists():
            out.append([f"point_{i:04d}: {row['artifact']} missing"])
            continue
        report = _load_json(got)
        problems = _criterion_invariants(report, d, p)
        if not seeded:
            reference = _load_json(ref / "sweep" / f"point_{i:04d}"
                                   / "criterion.json")
            problems += compare_json(
                report, reference, f"point_{i:04d}",
                rtol_by_key={"c_gn": C_GN_REL, "lambda_s_bracket": BRACKET_REL})
        out.append(problems)
    any_failed = any(row["status"] != "ok" for row in rows)
    if rc == 0 and any_failed:
        for problems, row in zip(out, rows):
            if row["status"] != "ok":
                problems.append("sweep exited 0 despite this failed point")
    if rc == SWEEP_FAILED_RC and not any_failed:
        return [[f"exit code {rc}, but every point is ok"]] * len(points)
    return out


# ---------------------------------------------------------------------------
# sphere


def _flow_invariants(path: Path) -> list[str]:
    head, rows = read_csv(path)
    if len(rows) < 2:
        return [f"{path.name}: only {len(rows)} states"]
    mass = [r[head.index("mass")] for r in rows]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    problems = []
    if drift > MASS_DRIFT:
        problems.append(f"{path.name}: mass drift {drift:.3e} > {MASS_DRIFT}")
    deficit = [r[head.index("deficit")] for r in rows]
    rise = max(b - a for a, b in zip(deficit, deficit[1:]))
    # Every flow runs at p = 3 < 2* = 6, where the deficit is monotone; the
    # slack is the one the package's own fde monotonicity check allows.
    if rise > 1e-7 * max(1.0, abs(deficit[0])):
        problems.append(f"{path.name}: deficit rose by {rise:.3e}")
    return problems


def _check_flow(name: str, workdir: Path, ref: Path,
                seeded: bool) -> list[str]:
    got = workdir / f"{name}.csv"
    if not got.exists():
        return [f"{got.name}: missing"]
    problems = _flow_invariants(got)
    if not seeded:
        problems += compare_csv(got, ref / got.name, floor=REL)
    return problems


def _check_witness(name: str, workdir: Path, ref: Path) -> list[str]:
    got = workdir / f"{name}.json"
    if not got.exists():
        return [f"{got.name}: missing"]
    report = _load_json(got)
    problems = []
    value, error = report.get("derivative"), report.get("error")
    if not (isinstance(value, float) and isinstance(error, float)
            and value > 10.0 * error):
        problems.append(f"{got.name}: derivative {value!r} does not clear "
                        f"ten times its error {error!r}")
    density = report.get("density_values") or []
    if not density or min(density) <= 0.0:
        problems.append(f"{got.name}: witness density empty or not positive")
    return problems + compare_json(report, _load_json(ref / got.name),
                                   got.name, floor=REL)


_CERTIFICATE = re.compile(r"best derivative (\S+) \(error (\S+)\)")


def _check_certificate(name: str, workdir: Path, stderr: str) -> list[str]:
    if (workdir / f"{name}.json").exists():
        return [f"{name}.json written, but no witness may exist"]
    match = _CERTIFICATE.search(stderr)
    if match is None:
        return [f"no negative certificate in: {stderr.strip()[-200:]!r}"]
    value, error = float(match.group(1)), float(match.group(2))
    if value > 10.0 * error:
        return [f"certificate {value!r} clears ten times its error {error!r}"]
    return []


def _check_verify(stdout: str) -> list[str]:
    if "FAIL" in stdout or not re.search(r"all \d+ checks passed", stdout):
        return [f"verify did not pass: {stdout.strip()[-300:]!r}"]
    return []


# ---------------------------------------------------------------------------


def check_op(workload: str, op: workloads.Op, outcome: dict, workdir: Path,
             seed: int, reference: Path = REFERENCE) -> list[list[str]]:
    """Problems per point of one operation; all points fail on a bad exit."""
    if outcome is None:
        return [["did not run"]] * op.points
    if outcome["error"]:
        last = outcome["error"].strip().splitlines()[-1]
        return [[f"raised {last}"]] * op.points
    ref = reference / workload
    name = op.name
    if name == "sweep" and outcome["rc"] in (op.expect_rc, SWEEP_FAILED_RC):
        return _check_sweep(workdir, ref, seed, op.seeded, outcome["rc"])
    if outcome["rc"] != op.expect_rc:
        return [[f"exit code {outcome['rc']}, expected {op.expect_rc}: "
                 f"{outcome['stderr'].strip()[-300:]}"]] * op.points
    if name == "branch":
        problems = _check_branch(workdir, ref)
    elif name == "curve":
        problems = _check_curve(workdir, ref, seed, op.seeded)
    elif name == "probe":
        problems = _check_probe(workdir, ref)
    elif name.startswith("flow_"):
        problems = _check_flow(name, workdir, ref, op.seeded)
    elif name.startswith("counterexample_heat"):
        problems = _check_witness(name, workdir, ref)
    elif name.startswith("counterexample_fde"):
        problems = _check_certificate(name, workdir, outcome["stderr"])
    elif name == "verify":
        problems = _check_verify(outcome["stdout"])
    else:
        raise ValueError(f"no check for operation {name!r}")
    return [problems]
