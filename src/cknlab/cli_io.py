"""Command-line front end, layered configuration, and artifact plumbing.

Every data-producing subcommand writes its CSV or JSON artifacts together
with one manifest: a JSON record of the command, the fully resolved
settings, the wall-clock time, and a sha256 digest per artifact.  All
floating-point output is rendered with 17 significant digits and every
computation is seeded, so two runs with the same resolved settings
produce byte-identical artifacts.

Settings are layered: built-in defaults, then a config file (flat
``key = value`` lines under one section per subcommand, path taken from
``--config`` or the ``CKNLAB_CONFIG`` environment variable), then
command-line flags.  Unknown config keys are rejected and every numeric
setting is range-checked no matter which layer supplied it.

Exit codes: 0 on success, 1 on usage errors (the message names the
offending flag), 2 on admissibility or configuration errors, 3 on
solver failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain, product, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import branch_analysis, functionals, params as params_mod, sphere_flows
from .cylinder_solver import (
    Branch,
    ContinuationConfig,
    continue_branch,
    cylinder_grid,
    linearized_spectrum,
    solve_symmetric,
    symmetric_quotient,
)
from .errors import (
    AdmissibilityError,
    CknlabError,
    ConfigError,
    DegenerateInput,
    DomainError,
)
from .grids import (
    fv_zonal_grid,
    tensor_grid,
    zonal_gegenbauer_basis,
    zonal_laplacian,
    zonal_quadrature,
)

__all__ = [
    "load_config",
    "run",
    "main",
    "verify_checks",
]

_FLOAT_FMT = "%.17g"
_ENV_CONFIG = "CKNLAB_CONFIG"

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_ADMISSIBLE = 2
_EXIT_SOLVER = 3


class UsageError(Exception):
    """Bad invocation: unknown flag, malformed value, missing required."""


# ---------------------------------------------------------------------------
# rendering and artifact writers


def _render(value) -> str:
    """One cell of CSV output; floats get 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def _jsonable(obj):
    """Recursively reduce to JSON types; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_dump_json(payload))


def _write_field_csv(path: Path, fld) -> None:
    """Cylinder field snapshot: flattened (s, z, value) plus a sidecar."""
    with open(path, "w", newline="") as fh:
        fh.write("s,z,value\n")
        for i, s in enumerate(fld.s):
            for j, z in enumerate(fld.z):
                fh.write("%s,%s,%s\n" % (_FLOAT_FMT % s, _FLOAT_FMT % z,
                                         _FLOAT_FMT % fld.values[i, j]))
    _write_json(path.with_suffix(path.suffix + ".json"), {
        "d": fld.d, "h": fld.h, "m_cells": len(fld.s), "nz": len(fld.z),
        "p": fld.p, "Lambda": fld.Lambda,
        "measure": "zonal probability weights, even axial reflection",
    })


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(manifest_path: Path, command: str, settings: dict,
                    artifact_paths, summary: dict, t0: float) -> None:
    """What was run, with what settings, producing which bytes."""
    base = manifest_path.parent
    _write_json(manifest_path, {
        "command": command,
        "settings": settings,
        "wall_clock_seconds": time.perf_counter() - t0,
        "artifacts": [{"path": os.path.relpath(p, base), "sha256": _sha256(p)}
                      for p in artifact_paths],
        "summary": summary,
    })


# ---------------------------------------------------------------------------
# option schema


def _cast_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _cast_float_list(raw: str):
    parts = [tok for tok in str(raw).replace(",", " ").split() if tok]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(tok) for tok in parts)


@dataclass(frozen=True)
class Option:
    """One setting: its type, bounds, and place in the layering."""

    name: str
    cast: Callable
    default: object = None
    required: bool = False
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check_range(self, value):
        if value is None:
            return value
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"must be one of {list(self.choices)}, "
                             f"got {value!r}")
        if self.cast is _cast_float_list:
            for v in value:
                if (self.lo is not None and v < self.lo) or \
                        (self.hi is not None and v > self.hi):
                    raise ValueError(
                        f"entries must lie in [{self.lo}, {self.hi}], "
                        f"got {v}")
            return value
        if self.lo is not None and value < self.lo:
            raise ValueError(f"must be >= {self.lo}, got {value}")
        if self.hi is not None and value > self.hi:
            raise ValueError(f"must be <= {self.hi}, got {value}")
        return value


def _opt_d() -> Option:
    return Option("d", int, required=True, lo=2, hi=64,
                  help="ambient dimension")


def _opt_p(required: bool = True) -> Option:
    return Option("p", float, required=required, lo=1.0, hi=64.0,
                  help="interpolation exponent")


_BRANCH_OPTIONS = (
    Option("lambda_max", float, 12.0, lo=1e-6, hi=1e6,
           help="follow the branch up to this parameter value"),
    Option("m_cells", int, 400, lo=16, hi=100000,
           help="axial cells of the continuation grid"),
    Option("nz", int, 20, lo=4, hi=4096, help="zonal nodes"),
    Option("length", float, None, lo=1e-3, hi=1e4,
           help="axial truncation (default scales with the onset)"),
    Option("ds_init", float, 0.005, lo=1e-10, hi=10.0,
           help="initial arclength step"),
    Option("ds_growth", float, 1.3, lo=1.0, hi=10.0,
           help="step growth factor after accepted steps"),
    Option("ds_max", float, 0.25, lo=1e-8, hi=10.0,
           help="arclength step cap"),
    Option("max_points", int, 400, lo=2, hi=100000,
           help="hard cap on recorded branch points"),
)

_OPTIONS: dict[str, tuple[Option, ...]] = {
    "params": (
        _opt_d(),
        Option("mode", str, "cylinder",
               choices=("cylinder", "critical", "subcritical"),
               help="which generating set the inputs form"),
        _opt_p(required=False),
        Option("Lambda", float, None, lo=1e-12, hi=1e6,
               help="cylinder coercivity parameter (default 1)"),
        Option("theta", float, None, lo=1e-6, hi=1.0,
               help="interpolation strength"),
        Option("a", float, None, lo=-64.0, hi=64.0,
               help="gradient weight exponent (critical mode)"),
        Option("b", float, None, lo=-64.0, hi=64.0,
               help="norm weight exponent (critical mode)"),
        Option("beta", float, None, lo=-64.0, hi=64.0,
               help="diffusion weight exponent (subcritical mode)"),
        Option("gamma", float, None, lo=-64.0, hi=64.0,
               help="measure weight exponent (subcritical mode)"),
        Option("m", float, None, lo=1e-6, hi=2.0,
               help="diffusion exponent override"),
    ),
    "flow": (
        _opt_d(),
        _opt_p(),
        Option("kind", str, "heat", choices=("heat", "fde"),
               help="which flow to integrate"),
        Option("m", float, None, lo=1e-6, hi=2.0,
               help="diffusion exponent (fde only)"),
        Option("n_cells", int, 96, lo=8, hi=100000,
               help="finite-volume cells"),
        Option("t_end", float, 1.0, lo=1e-12, hi=1e4, help="final time"),
        Option("dt_init", float, 1e-4, lo=1e-14, hi=10.0,
               help="initial step"),
        Option("dt_max", float, 2e-2, lo=1e-14, hi=10.0, help="step cap"),
        Option("init", str, "tilted", choices=("tilted", "random"),
               help="initial density family"),
        Option("epsilon", float, 0.3, lo=1e-6, hi=0.999999,
               help="tilt amplitude (tilted init)"),
        Option("q", float, 2.0, lo=-256.0, hi=256.0,
               help="tilt exponent (tilted init)"),
        Option("seed", int, 0, lo=0, hi=2**63 - 1,
               help="generator seed (random init)"),
    ),
    "counterexample": (
        _opt_d(),
        _opt_p(),
        Option("kind", str, "heat", choices=("heat", "fde"),
               help="which flow the derivative refers to"),
        Option("n_cells", int, 96, lo=8, hi=100000,
               help="finite-volume cells"),
    ),
    "branch": (_opt_d(), _opt_p()) + _BRANCH_OPTIONS,
    "curve": (
        _opt_d(),
        _opt_p(),
        Option("theta", float, None, required=True, lo=1e-6, hi=1.0,
               help="interpolation strength for the reparametrization"),
    ) + _BRANCH_OPTIONS,
    "criterion": (
        _opt_d(),
        _opt_p(),
        Option("with_branch", _cast_bool, False,
               help="also run the continuation to harvest witnesses"),
    ) + _BRANCH_OPTIONS,
    "probe": (
        _opt_d(),
        _opt_p(),
        Option("thetas", _cast_float_list, None, required=True,
               lo=1e-6, hi=1.0,
               help="comma-separated interpolation strengths"),
    ) + _BRANCH_OPTIONS,
}

_ARTIFACT_NAMES = {
    "params": "params.json",
    "flow": "trajectory.csv",
    "counterexample": "counterexample.json",
    "branch": "branch.csv",
    "curve": "curve.csv",
    "criterion": "criterion.json",
    "probe": "probe.json",
}


# ---------------------------------------------------------------------------
# config loading and resolution


def _read_ini(path, what: str) -> configparser.ConfigParser:
    """Parse an INI file of flat ``key = value`` lines, keys case-kept."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       inline_comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed {what} {path}: {exc}") from exc
    return parser


def _cast_section(command: str, items, where: str) -> dict:
    """Cast and range-check ``(key, raw)`` pairs against a command's schema."""
    schema = {opt.name: opt for opt in _OPTIONS[command]}
    values = {}
    for key, raw in items:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where}")
        opt = schema[key]
        try:
            values[key] = opt.check_range(opt.cast(raw))
        except ValueError as exc:
            raise ConfigError(
                f"bad value for {key!r} in {where}: {exc}") from exc
    return values


def load_config(path) -> dict[str, dict]:
    """Parse and validate a config file into {section: {key: value}}.

    Every section must name a data-producing subcommand and every key
    must belong to that subcommand's schema; values are cast and
    range-checked immediately so a bad file fails on load, not at use.
    """
    parser = _read_ini(path, "config file")
    loaded: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _OPTIONS:
            raise ConfigError(
                f"unknown section [{section}] in {path}; expected one of "
                f"{sorted(_OPTIONS)}")
        loaded[section] = _cast_section(
            section, parser.items(section), f"section [{section}] of {path}")
    return loaded


def _config_for(args, command: str) -> dict:
    path = getattr(args, "config", None) or os.environ.get(_ENV_CONFIG)
    if not path:
        return {}
    return load_config(path).get(command, {})


def _resolve_options(command: str, args, overrides: dict | None = None) -> dict:
    """Layer defaults, config file, and flags into one settings dict.

    Sweep points pass ``args=None`` with their grid values as overrides;
    they deliberately skip the config file so a sweep is fully described
    by its own spec file.
    """
    file_values = _config_for(args, command) if args is not None else {}
    if overrides:
        file_values = {**file_values, **overrides}
    resolved = {}
    for opt in _OPTIONS[command]:
        value = getattr(args, opt.name, None) if args is not None else None
        origin = opt.flag
        if value is None and opt.name in file_values:
            value = file_values[opt.name]
            origin = f"config key {opt.name!r}"
        if value is None:
            value = opt.default
        else:
            try:
                opt.check_range(value)
            except ValueError as exc:
                raise UsageError(f"{origin}: {exc}") from exc
        if value is None and opt.required:
            raise UsageError(f"{opt.flag} is required for {command!r} "
                             f"(flag or config file)")
        resolved[opt.name] = value
    return resolved


def _continuation_config(opts: dict) -> ContinuationConfig:
    return ContinuationConfig(
        **{f.name: opts[f.name] for f in fields(ContinuationConfig)})


_BRANCH_CACHE: dict = {}


def _shared_branch(d: int, p: float, config: ContinuationConfig) -> Branch:
    """One continuation per (d, p, config), shared across sweep points.

    A sweep runs all points of one (d, p) in one process, so the memo
    needs no lock.
    """
    key = (d, p, config)
    if key not in _BRANCH_CACHE:
        _BRANCH_CACHE[key] = continue_branch(d, p, config)
    return _BRANCH_CACHE[key]


# ---------------------------------------------------------------------------
# subcommand handlers


def _params_payload(opts: dict) -> dict:
    mode = opts["mode"]
    allowed = {"cylinder": ("p", "Lambda", "theta", "m"),
               "critical": ("a", "b", "theta", "m"),
               "subcritical": ("beta", "gamma", "p", "m")}[mode]
    needed = {"cylinder": ("p",), "critical": ("a", "b"),
              "subcritical": ("beta", "gamma", "p")}[mode]
    for key in needed:
        if opts.get(key) is None:
            raise UsageError(f"--{key} is required for mode {mode!r}")
    inputs = {key: opts[key] for key in allowed if opts.get(key) is not None}
    if mode == "cylinder" and "Lambda" not in inputs:
        inputs["Lambda"] = 1.0
    record = params_mod.derive_params(opts["d"], inputs, mode)
    payload = {k: v for k, v in asdict(record).items() if v is not None}
    payload["a_c"] = record.a_c
    if math.isfinite(record.two_star):
        payload["two_star"] = record.two_star
    for key, value in asdict(params_mod.thresholds(record)).items():
        if value is not None:
            payload[key] = value
    if mode != "subcritical" and 2.0 < record.p and (
            record.d <= 2 or record.p < record.two_star):
        payload["mu_star"] = params_mod.mu_star(
            record, record.Lambda, record.theta or 1.0)
        payload["optimal_constant_star"] = \
            params_mod.optimal_constant_star(record)
    return payload


def _emit_json(payload: dict, out: Path | None):
    if out is None:
        sys.stdout.write(_dump_json(payload))
        return []
    _write_json(out, payload)
    return [out]


def _run_params(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    payload = _params_payload(opts)
    summary = {k: payload[k] for k in ("lambda_fs", "two_sharp", "vartheta")
               if k in payload}
    return _emit_json(payload, out), summary


def _initial_density(opts: dict):
    if opts["init"] == "tilted":
        return sphere_flows.tilted_density(opts["d"], opts["n_cells"],
                                           opts["epsilon"], opts["q"])
    rng = np.random.default_rng(opts["seed"])
    return sphere_flows.random_smooth_density(opts["d"], opts["n_cells"], rng)


def _run_flow(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    if out is None:
        raise UsageError("--out is required for 'flow'")
    spec = sphere_flows.FlowSpec(
        kind=opts["kind"], p=opts["p"], m=opts["m"], n_cells=opts["n_cells"],
        t_end=opts["t_end"], dt_init=opts["dt_init"], dt_max=opts["dt_max"])
    rho0 = _initial_density(opts)
    traj = sphere_flows.integrate(sphere_flows.FlowState.initial(rho0), spec)
    _write_csv(out, ("time", "mass", "E_p", "I_p", "deficit"),
               (tuple(row) for row in traj.data))
    deficits = traj.deficits
    return [out], {
        "n_states": len(traj.data),
        "mass_drift": traj.mass_drift(),
        "deficit_initial": float(deficits[0]),
        "deficit_final": float(deficits[-1]),
        "deficit_max_increase": float(np.max(np.diff(deficits), initial=0.0)),
    }


def _run_counterexample(opts: dict, out: Path | None,
                        args) -> tuple[list, dict]:
    report = sphere_flows.counterexample_search(
        opts["d"], opts["p"], n_cells=opts["n_cells"], flow_kind=opts["kind"])
    payload = {
        "d": opts["d"],
        "p": opts["p"],
        "kind": opts["kind"],
        "n_cells": opts["n_cells"],
        "epsilon": report.epsilon,
        "q": report.q,
        "derivative": report.derivative,
        "error": report.error,
        "n_skipped": report.n_skipped,
        "trace_columns": ["epsilon", "q", "derivative", "error"],
        "trace": report.trace,
        "density_nodes": report.density.nodes,
        "density_values": report.density.values,
    }
    summary = {"epsilon": report.epsilon, "q": report.q,
               "derivative": report.derivative, "error": report.error}
    return _emit_json(payload, out), summary


_BRANCH_HEADER = ("lambda", "mu", "mu_star", "t_phi", "lowest_eig",
                  "newton_iters", "residual", "arclength")


def _branch_summary(branch: Branch) -> dict:
    return {
        "bifurcation_lambda": branch.bifurcation_lambda,
        "predicted_lambda_fs": branch.predicted_lambda_fs,
        "n_points": len(branch),
        "lambda_final": branch.points[-1].lam if len(branch) else None,
    }


def _run_branch(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    if out is None:
        raise UsageError("--out is required for 'branch'")
    branch = _shared_branch(opts["d"], opts["p"], _continuation_config(opts))
    _write_csv(out, _BRANCH_HEADER, branch.as_rows())
    artifacts = [out]
    fields_dir = getattr(args, "fields_dir", None) if args else None
    if fields_dir:
        fdir = Path(fields_dir)
        fdir.mkdir(parents=True, exist_ok=True)
        for i, point in enumerate(branch.points):
            fpath = fdir / f"field_{i:04d}.csv"
            _write_field_csv(fpath, point.field)
            artifacts.extend([fpath, fpath.with_suffix(fpath.suffix + ".json")])
    return artifacts, _branch_summary(branch)


_CURVE_HEADER = ("lambda", "Lambda", "mu", "mu_star_theta",
                 "d_Lambda_d_lambda")


def _run_curve(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    if out is None:
        raise UsageError("--out is required for 'curve'")
    branch = _shared_branch(opts["d"], opts["p"], _continuation_config(opts))
    curve = branch_analysis.reparametrize(branch, opts["theta"])
    _write_csv(out, _CURVE_HEADER, curve.as_rows())
    cls = branch_analysis.classify_bifurcation(curve)
    return [out], {**_branch_summary(branch), "theta": opts["theta"],
                   **asdict(cls)}


def _run_criterion(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    branch = None
    if opts["with_branch"]:
        branch = _shared_branch(opts["d"], opts["p"],
                                _continuation_config(opts))
    report = branch_analysis.lemma_criterion(opts["d"], opts["p"],
                                             branch=branch)
    payload = asdict(report)
    summary = {"breaking_predicted": report.breaking_predicted,
               "c_gn": report.c_gn, "mu_star_at_fs": report.mu_star_at_fs}
    return _emit_json(payload, out), summary


def _run_probe(opts: dict, out: Path | None, args) -> tuple[list, dict]:
    config = _continuation_config(opts)
    branch = _shared_branch(opts["d"], opts["p"], config)
    report = branch_analysis.conjecture_probe(
        opts["d"], opts["p"], opts["thetas"], branch=branch, config=config)
    payload = {
        "d": report.d,
        "p": report.p,
        "vartheta": report.vartheta,
        "flip_theta": report.flip_theta,
        "rows": [asdict(row) for row in report.rows],
    }
    summary = {"flip_theta": report.flip_theta,
               "n_rows": len(report.rows)}
    return _emit_json(payload, out), summary


_HANDLERS = {
    "params": _run_params,
    "flow": _run_flow,
    "counterexample": _run_counterexample,
    "branch": _run_branch,
    "curve": _run_curve,
    "criterion": _run_criterion,
    "probe": _run_probe,
}


# ---------------------------------------------------------------------------
# verify


def _check_closed_forms():
    pars = params_mod.derive_params(5, {"p": 2.8, "Lambda": 1.0}, "cylinder")
    ratio = params_mod.mu_star(pars, 4.0) / params_mod.mu_star(pars, 1.0)
    lam_fs = params_mod.lambda_fs_value(5, 2.8)
    return [("scaling", abs(ratio / 4.0 ** ((2.8 + 2.0) / 5.6) - 1.0), 1e-12),
            ("threshold", abs(lam_fs - 4.0 * 4.0 / (2.8 ** 2 - 4.0)), 1e-12)]


def _check_equivalence_triple():
    rng = np.random.default_rng(2023)
    broken = 0
    for _ in range(300):
        d = int(rng.integers(2, 9))
        hi = 2.0 * d / (d - 2) if d > 2 else 12.0
        p = float(rng.uniform(2.01, min(hi - 0.01, 12.0)))
        lam = float(10.0 ** rng.uniform(-2, 2))
        pars = params_mod.derive_params(d, {"p": p, "Lambda": lam}, "cylinder")
        c1, c2, c3 = params_mod.check_equivalence(pars)
        broken += not (c1 == c2 == c3)
    return [("inconsistent samples", broken, 0)]


def _check_symmetric_constant():
    p, lam = 2.8, 2.0
    length = 20.0 / math.sqrt(lam)
    vals = [symmetric_quotient(cylinder_grid(5, length, m, 4), p, lam)[0]
            for m in (400, 800)]
    richardson = (4.0 * vals[1] - vals[0]) / 3.0
    target = params_mod.mu_star(
        params_mod.derive_params(5, {"p": p, "Lambda": lam}, "cylinder"), lam)
    return [("relative error", abs(richardson / target - 1.0), 1e-7)]


def _check_translation_mode():
    lam = 6.0
    grid = cylinder_grid(5, 20.0 / math.sqrt(lam), 800, 8)
    phi = solve_symmetric(5, 2.8, lam, grid)
    eig = float(linearized_spectrum(phi, lam, sector=0, count=2)[1])
    return [("zero mode at", eig, 1e-8)]


def _check_monotone(kind: str, p: float, t_end: float, rel_slack: float):
    """Deficit never rises along the flow and mass is conserved."""
    rho = sphere_flows.tilted_density(3, 64, 0.4, 2.0)
    spec = sphere_flows.FlowSpec(kind=kind, p=p, n_cells=64, t_end=t_end)
    traj = sphere_flows.integrate(sphere_flows.FlowState.initial(rho), spec)
    rise = float(np.max(np.diff(traj.deficits), initial=0.0))
    slack = rel_slack * max(1.0, abs(float(traj.deficits[0])))
    return [("max rise", rise, slack), ("drift", traj.mass_drift(), 1e-9)]


def _check_curvature_floor():
    pars = params_mod.derive_params(
        3, {"beta": 0.1, "gamma": 0.5, "p": 1.2}, "subcritical")
    grid = tensor_grid(3, r_lo=1e-2, r_hi=1e2, n_panels=48, n_nodes=8, nz=16)
    values = 1.0 + 0.7 * grid.r[:, None] ** 2 + 0.0 * grid.z[None, :]
    pf = functionals.PressureField(grid, values, pars.m, pars.n, pars.alpha)
    fld, _ = functionals.k_functional(pf, pars)
    return [("pointwise floor", float(np.max(np.abs(fld))), 1e-10)]


def _check_zonal_eigen():
    sphere_dim = 4
    z, w = zonal_quadrature(sphere_dim, 24)
    lap = zonal_laplacian(sphere_dim, z, w)
    basis = zonal_gegenbauer_basis(sphere_dim, z, 5)
    worst = 0.0
    for k in range(5):
        gk = basis[:, k]
        resid = lap @ gk + k * (k + sphere_dim - 1) * gk
        scale = max(1.0, k * (k + sphere_dim - 1)) * float(np.max(np.abs(gk)))
        worst = max(worst, float(np.max(np.abs(resid))) / scale)
    return [("worst relative residual", worst, 1e-9)]


def _check_fv_mass():
    grid = fv_zonal_grid(4, 80)
    rng = np.random.default_rng(7)
    rho = np.exp(rng.uniform(-1.0, 1.0, size=80))
    flux = grid.apply_laplacian(rho)
    return [("flux integral", abs(grid.integrate(flux)),
             1e-12 * grid.integrate(np.abs(rho)))]


# Each check returns (label, value, bound) records; a record passes when
# |value| <= bound.
verify_checks = (
    ("closed_forms", _check_closed_forms),
    ("equivalence_triple", _check_equivalence_triple),
    ("symmetric_constant", _check_symmetric_constant),
    ("translation_mode", _check_translation_mode),
    ("heat_deficit_monotone",
     partial(_check_monotone, "heat", 3.0, 0.25, 1e-8)),
    ("fde_deficit_monotone",
     partial(_check_monotone, "fde", 5.0, 0.1, 1e-7)),
    ("curvature_floor", _check_curvature_floor),
    ("zonal_eigenvalues", _check_zonal_eigen),
    ("conservative_flux", _check_fv_mass),
)


def _run_verify(args) -> int:
    failures = 0
    for name, check in verify_checks:
        try:
            records = check()
        except CknlabError as exc:
            failures += 1
            print(f"FAIL  {name}: {exc}")
            continue
        # written so that a NaN value fails
        over = [f"{label} {value:.3e} > {bound:.1e}"
                for label, value, bound in records
                if not abs(value) <= bound]
        if over:
            failures += 1
            print(f"FAIL  {name}: {', '.join(over)}")
        else:
            detail = ", ".join(f"{label} {value:.1e}"
                               for label, value, _ in records)
            print(f"ok    {name} ({detail})")
    if failures:
        print(f"{failures} of {len(verify_checks)} checks failed")
        return _EXIT_SOLVER
    print(f"all {len(verify_checks)} checks passed")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# sweep


_AXIS_ORDER = ("d", "p", "theta", "Lambda")


def _parse_sweep_spec(path) -> tuple[str, list[str], list[tuple], dict]:
    """Read a sweep file: target command, axis names, points, overrides.

    The [sweep] section holds ``command`` plus one axis per key, each a
    list of values; an optional section named after the target command
    holds fixed settings applied to every point.
    """
    parser = _read_ini(path, "sweep file")
    if not parser.has_section("sweep"):
        raise ConfigError(f"sweep file {path} needs a [sweep] section")
    entries = dict(parser.items("sweep"))
    command = entries.pop("command", None)
    if command is None:
        raise ConfigError("sweep file needs 'command = <subcommand>' "
                          "under [sweep]")
    if command not in _HANDLERS:
        raise ConfigError(f"sweep target {command!r} is not a data-producing "
                          f"subcommand; expected one of {sorted(_HANDLERS)}")
    schema = {opt.name: opt for opt in _OPTIONS[command]}
    axes: list[str] = []
    values: list[tuple] = []
    for key in _AXIS_ORDER:
        if key not in entries:
            continue
        raw = entries.pop(key)
        if key not in schema:
            raise ConfigError(
                f"axis {key!r} is not a setting of {command!r}")
        opt = schema[key]
        toks = [tok for tok in raw.replace(",", " ").split() if tok]
        try:
            axis_vals = tuple(opt.check_range(opt.cast(tok)) for tok in toks)
        except ValueError as exc:
            raise ConfigError(f"bad {key!r} value in sweep grid: "
                              f"{exc}") from exc
        if not axis_vals:
            raise ConfigError(f"axis {key!r} has no values; the grid "
                              f"is empty")
        axes.append(key)
        values.append(axis_vals)
    if entries:
        raise ConfigError(f"unknown keys under [sweep]: {sorted(entries)}; "
                          f"axes must be among {_AXIS_ORDER}")
    if not axes:
        raise ConfigError("sweep grid has no axes; nothing to run")
    overrides = {}
    if parser.has_section(command):
        overrides = _cast_section(command, parser.items(command),
                                  f"section [{command}] of {path}")
    points = list(product(*values))
    return command, axes, points, overrides


def _sweep_point(command: str, opts: dict, point_dir: Path):
    point_dir.mkdir(parents=True, exist_ok=True)
    out = point_dir / _ARTIFACT_NAMES[command]
    t0 = time.perf_counter()
    artifacts, summary = _HANDLERS[command](opts, out, None)
    _write_manifest(point_dir / "manifest.json", command, opts,
                    artifacts, summary, t0)
    return out


def _sweep_groups(resolved: list[dict]) -> list[list[tuple[int, dict]]]:
    """Sweep points grouped by (d, p), groups in order of first index.

    All points of a sweep share its overrides, so (d, p) is both the
    branch-memo key and the GN-constant cache key: one group per
    branch, each built once, in one process.
    """
    groups: dict[tuple, list[tuple[int, dict]]] = {}
    for index, opts in enumerate(resolved):
        groups.setdefault((opts["d"], opts["p"]), []).append((index, opts))
    return list(groups.values())


def _run_group(command: str, out_dir: Path,
               points: list[tuple[int, dict]]) -> list[tuple]:
    """Run one group's points in index order; a failed point fails alone.

    Returns ``(index, status, message, artifact)`` per point.
    """
    outcomes = []
    for index, opts in points:
        try:
            artifact = _sweep_point(command, opts,
                                    out_dir / f"point_{index:04d}")
        except (CknlabError, UsageError) as exc:
            outcomes.append((index, "failed",
                             f"{type(exc).__name__}: {exc}", ""))
        else:
            outcomes.append((index, "ok", "",
                             os.path.relpath(artifact, out_dir)))
    return outcomes


def _run_sweep(args) -> int:
    t0 = time.perf_counter()
    command, axes, points, overrides = _parse_sweep_spec(args.spec)
    out_dir = Path(args.out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out_dir} exists and is not "
                          f"empty; pass --force to reuse it")

    resolved = []
    for values in points:
        merged = dict(overrides)
        merged.update(zip(axes, values))
        resolved.append(_resolve_options(command, None, merged))

    out_dir.mkdir(parents=True, exist_ok=True)
    results: list[tuple[str, str, str]] = [("", "", "")] * len(points)

    # Points are pure Python compute, so only processes run them in
    # parallel.  The default start method is kept: where it is fork,
    # workers inherit the imported modules and any warm caches.
    groups = _sweep_groups(resolved)
    workers = min(max(1, int(args.workers)), len(groups))
    if workers == 1:
        outcomes = [_run_group(command, out_dir, group) for group in groups]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_group, repeat(command),
                                     repeat(out_dir), groups))
    for index, status, message, artifact in chain.from_iterable(outcomes):
        results[index] = (status, message, artifact)

    aggregate = out_dir / "aggregate.csv"
    header = ("index", "command") + tuple(axes) + ("status", "message",
                                                   "artifact")
    rows = []
    for i, values in enumerate(points):
        status, message, artifact = results[i]
        rows.append((i, command) + values + (status, message, artifact))
    _write_csv(aggregate, header, rows)
    _write_manifest(out_dir / "sweep.manifest.json", "sweep",
                    {"command": command, "axes": list(axes),
                     "n_points": len(points), "overrides": overrides,
                     "workers": workers, "spec_file": str(args.spec)},
                    [aggregate], {"n_failed": sum(
                        1 for s, _, _ in results if s != "ok")}, t0)

    failed = [(i, results[i][1]) for i in range(len(points))
              if results[i][0] != "ok"]
    print(f"sweep over {len(points)} points: {len(points) - len(failed)} ok, "
          f"{len(failed)} failed; aggregate at {aggregate}")
    if failed:
        for i, message in failed:
            print(f"  point_{i:04d}: {message}", file=sys.stderr)
        return _EXIT_SOLVER
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cknlab",
                     description="Numerical laboratory for symmetry and "
                                 "symmetry breaking in weighted "
                                 "interpolation inequalities.")
    sub = parser.add_subparsers(dest="command")
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        for opt in options:
            if opt.cast is _cast_bool:
                p.add_argument(opt.flag, dest=opt.name, const=True,
                               default=None, action="store_const",
                               help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.name, type=opt.cast,
                               default=None, help=opt.help)
        p.add_argument("--config", default=None,
                       help="config file path (also CKNLAB_CONFIG)")
        p.add_argument("--out", default=None,
                       help="artifact path; JSON commands print to stdout "
                            "when omitted")
        if command == "branch":
            p.add_argument("--fields-dir", dest="fields_dir", default=None,
                           help="also dump per-point field snapshots here")
    v = sub.add_parser("verify")
    v.add_argument("--config", default=None, help=argparse.SUPPRESS)
    s = sub.add_parser("sweep")
    s.add_argument("--spec", required=True,
                   help="sweep file: [sweep] section with command and axes")
    s.add_argument("--out-dir", dest="out_dir", required=True,
                   help="directory for per-point artifacts")
    s.add_argument("--force", action="store_true",
                   help="reuse a non-empty output directory")
    s.add_argument("--workers", type=int, default=1,
                   help="worker processes; points sharing (d, p) run in "
                        "one, so at most one per (d, p) pair is used")
    return parser


def run(argv=None) -> int:
    """Parse and execute one invocation; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required; see --help")
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sweep":
            return _run_sweep(args)
        t0 = time.perf_counter()
        opts = _resolve_options(args.command, args)
        out = Path(args.out) if args.out else None
        artifacts, summary = _HANDLERS[args.command](opts, out, args)
        if artifacts:
            manifest_path = out.with_suffix(out.suffix + ".manifest.json")
            _write_manifest(manifest_path, args.command, opts,
                            artifacts, summary, t0)
        return _EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (AdmissibilityError, DomainError, DegenerateInput,
            ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ADMISSIBLE
    except CknlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER


def main() -> None:
    sys.exit(run())
