"""Command-line front end, layered configuration, and artifact plumbing.

Every data-producing subcommand writes its CSV or JSON artifacts together
with one manifest: a JSON record of the command, the fully resolved
settings, the wall-clock time, and a sha256 digest per artifact.  All
floating-point output is rendered with 17 significant digits and every
computation is seeded, so two runs with the same resolved settings
produce byte-identical artifacts.

Settings are layered: built-in defaults, then a config file (flat
``key = value`` lines under one section per subcommand, path taken from
``--config``), then command-line flags; a sweep file stands in for the
config file.  Option.parse casts and range-checks each value once,
where it enters: argparse a flag, load_config a config key, and
_parse_sweep_spec a sweep axis or setting.  Unknown config keys are
rejected.  The settings state the problem; how large the continuation
and flow steps are is the solvers' own business and no setting.

Exit codes: 0 on success, 1 on usage errors (the message names the
offending flag), 2 on admissibility or configuration errors and on files
that cannot be read or written (the message names the path), 3 on
solver failures.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import errno
import gc
import hashlib
import json
import math
import os
import stat
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from itertools import chain, product, repeat
from pathlib import Path
from typing import Callable

import numpy as np

from . import branch_analysis, functionals, params as params_mod, sphere_flows
from .cylinder_solver import (
    Branch,
    ContinuationConfig,
    continue_branch,
    default_grid,
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
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    """A table with text cells; the csv module quotes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def _write_table(path: Path, names, columns) -> None:
    """Equal-length NumPy columns, one format per row: %d for integer
    columns and _FLOAT_FMT for the rest (_render's bytes, at about half
    _write_csv's cost).  The column lam is headed lambda."""
    row = ",".join("%d" if col.dtype.kind in "iu" else _FLOAT_FMT
                   for col in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join("lambda" if name == "lam" else name
                          for name in names) + "\n")
        fh.writelines(row % cells
                      for cells in zip(*(col.tolist() for col in columns)))


def _jsonable(obj):
    """Recursively reduce to JSON types; non-finite floats become null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf" and np.isfinite(obj).all():
            return obj.tolist()
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
    """Cylinder field snapshot: a table of flattened (s, z, value).

    The table goes through _write_table; what it does not hold (the
    grid's size and spacing, the field's p and Lambda, the measure) goes
    into a JSON sidecar beside it.
    """
    grid = fld.grid
    _write_table(path, ("s", "z", "value"),
                 (np.repeat(grid.s, grid.nz), np.tile(grid.z, grid.m_cells),
                  fld.values.ravel()))
    _write_json(path.with_suffix(path.suffix + ".json"), {
        "d": grid.d, "h": grid.h, "m_cells": grid.m_cells, "nz": grid.nz,
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
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[str(raw).strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


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

    def parse(self, raw):
        """Cast raw and check it against the choices or [lo, hi].

        A setting's one check, where it enters (a flag, a config key, a
        sweep axis).  Raises ValueError; NaN fails the bounds.
        """
        value = self.cast(raw)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"must be one of {list(self.choices)}, "
                             f"got {value!r}")
        entries = value if self.cast is _cast_float_list else (value,)
        if self.lo is not None and not all(self.lo <= v <= self.hi
                                           for v in entries):
            raise ValueError(f"must lie in [{self.lo}, {self.hi}], "
                             f"got {value}")
        return value


_D = Option("d", int, required=True, lo=2, hi=64, help="ambient dimension")
_P = Option("p", float, required=True, lo=1.0, hi=64.0,
            help="interpolation exponent")


# the defaults are ContinuationConfig's, as flow's --t-end is FlowSpec's
# (a dataclass holds each field's default as a class attribute), and
# counterexample's are counterexample_search's keyword defaults
_SEARCH = sphere_flows.counterexample_search.__kwdefaults__
_BRANCH_OPTIONS = (
    Option("lambda_max", float, ContinuationConfig.lambda_max, lo=1e-6,
           hi=1e6, help="follow the branch up to this parameter value"),
    Option("m_cells", int, ContinuationConfig.m_cells, lo=16, hi=100000,
           help="axial cells of the continuation grid"),
    Option("nz", int, ContinuationConfig.nz, lo=4, hi=4096,
           help="zonal nodes"),
    Option("length", float, ContinuationConfig.length, lo=1e-3, hi=1e4,
           help="axial truncation (default scales with the onset)"),
)


def _schema(*options: Option) -> dict[str, Option]:
    return {opt.name: opt for opt in options}


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
    schema = _COMMANDS[command].options
    values = {}
    for key, raw in items:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where}")
        try:
            values[key] = schema[key].parse(raw)
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
        if section not in _COMMANDS:
            raise ConfigError(
                f"unknown section [{section}] in {path}; expected one of "
                f"{sorted(_COMMANDS)}")
        loaded[section] = _cast_section(
            section, parser.items(section), f"section [{section}] of {path}")
    return loaded


def _resolve_options(command: str, *layers: dict) -> dict:
    """Layer checked values over the defaults and enforce required ones.

    A later layer (name -> value) beats an earlier one; None is unset.
    """
    resolved = {}
    for opt in _COMMANDS[command].options.values():
        value = opt.default
        for layer in layers:
            if layer.get(opt.name) is not None:
                value = layer[opt.name]
        if value is None and opt.required:
            raise UsageError(f"{opt.flag} is required for {command!r} "
                             f"(flag or config file)")
        resolved[opt.name] = value
    return resolved


def _produce(command: str, opts: dict, out: Path | None, t0: float,
             manifest: Path | None = None, fields_dir=None) -> None:
    """Run a handler, then write its manifest (by default beside out).

    The command line and every sweep point take this path.
    """
    artifacts, summary = _COMMANDS[command].handler(opts, out, fields_dir)
    if artifacts:
        _write_manifest(
            manifest or out.with_suffix(out.suffix + ".manifest.json"),
            command, opts, artifacts, summary, t0)


def _continuation_config(opts: dict) -> ContinuationConfig:
    return ContinuationConfig(
        **{f.name: opts[f.name] for f in fields(ContinuationConfig)})


@lru_cache(maxsize=1)
def _branch_or_failure(d: int, p: float,
                       config: ContinuationConfig) -> Branch | CknlabError:
    """One continuation per (d, p, config), shared across sweep points.

    A sweep runs all points of one (d, p) in one process, so the memo
    needs no lock, and the next group's outcome evicts the last one's.
    A failure is kept as well, so a group whose continuation fails pays
    for it once.  Its traceback and the errors it chains are dropped,
    since their frames hold the solver's arrays; the message stays.
    """
    try:
        return continue_branch(d, p, config)
    except CknlabError as exc:
        exc.__traceback__ = exc.__cause__ = exc.__context__ = None
        return exc


def _shared_branch(d: int, p: float, config: ContinuationConfig) -> Branch:
    """The memoized branch, or its memoized failure raised afresh."""
    outcome = _branch_or_failure(d, p, config)
    if isinstance(outcome, CknlabError):
        raise outcome.with_traceback(None)
    return outcome



# ---------------------------------------------------------------------------
# subcommand handlers


def _params_payload(opts: dict) -> dict:
    mode = opts["mode"]
    required = params_mod._GENERATING_SETS[mode][0]
    if mode == "cylinder" and opts.get("Lambda") is None:
        opts = dict(opts, Lambda=1.0)
    for key in required:
        if opts.get(key) is None:
            raise UsageError(f"--{key} is required for mode {mode!r}")
    # every given input, so derive_params refuses another mode's
    inputs = {key: value for key, value in opts.items()
              if key not in ("d", "mode") and value is not None}
    record = params_mod.derive_params(opts["d"], inputs, mode)
    payload = {k: v for k, v in asdict(record).items() if v is not None}
    payload["a_c"] = record.a_c
    if math.isfinite(record.two_star):
        payload["two_star"] = record.two_star
    for key, value in asdict(params_mod.thresholds(record)).items():
        if value is not None:
            payload[key] = value
    if mode != "subcritical" and record.p < record.two_star:
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


def _run_params(opts: dict, out: Path | None,
                fields_dir) -> tuple[list, dict]:
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


def _run_flow(opts: dict, out: Path, fields_dir) -> tuple[list, dict]:
    spec = sphere_flows.FlowSpec(kind=opts["kind"], p=opts["p"], m=opts["m"],
                                 t_end=opts["t_end"])
    rho0 = _initial_density(opts)
    traj = sphere_flows.integrate(sphere_flows.FlowState.initial(rho0), spec)
    _write_table(out, ("time", "mass", "E_p", "I_p", "deficit"), traj.data.T)
    deficits = traj.deficits
    return [out], {
        "n_states": len(traj.data),
        "mass_drift": traj.mass_drift(),
        "deficit_initial": float(deficits[0]),
        "deficit_final": float(deficits[-1]),
        "deficit_max_increase": float(np.max(np.diff(deficits), initial=0.0)),
    }


def _run_counterexample(opts: dict, out: Path | None,
                        fields_dir) -> tuple[list, dict]:
    report = sphere_flows.counterexample_search(
        opts["d"], opts["p"], n_cells=opts["n_cells"], flow_kind=opts["kind"])
    payload = {
        **{key: opts[key] for key in ("d", "p", "kind", "n_cells")},
        **{f.name: getattr(report, f.name) for f in fields(report)
           if f.name != "density"},
        "trace_columns": ["epsilon", "q", "derivative", "error"],
        "density_nodes": report.density.nodes,
        "density_values": report.density.values,
    }
    summary = {key: payload[key]
               for key in ("epsilon", "q", "derivative", "error")}
    return _emit_json(payload, out), summary


# each artifact's columns, named by the attribute that holds them
_BRANCH_COLUMNS = ("lam", "mu", "mu_star", "t_phi", "lowest_eig",
                   "newton_iters", "residual", "arclength")
_CURVE_COLUMNS = ("lam", "Lambda", "mu", "mu_star_theta",
                  "d_Lambda_d_lambda")


def _branch_summary(branch: Branch) -> dict:
    return {
        "bifurcation_lambda": branch.bifurcation_lambda,
        "predicted_lambda_fs": branch.predicted_lambda_fs,
        "n_points": len(branch),
        "lambda_final": branch.points[-1].lam,
    }


def _run_branch(opts: dict, out: Path, fields_dir) -> tuple[list, dict]:
    if fields_dir:
        # before the continuation, so that a file in the way fails at once
        fdir = Path(fields_dir)
        fdir.mkdir(parents=True, exist_ok=True)
    branch = _shared_branch(opts["d"], opts["p"], _continuation_config(opts))
    _write_table(out, _BRANCH_COLUMNS,
                 [branch.column(name) for name in _BRANCH_COLUMNS])
    artifacts = [out]
    if fields_dir:
        for i, point in enumerate(branch.points):
            fpath = fdir / f"field_{i:04d}.csv"
            _write_field_csv(fpath, point.field)
            artifacts.extend([fpath, fpath.with_suffix(fpath.suffix + ".json")])
    return artifacts, _branch_summary(branch)


def _run_curve(opts: dict, out: Path, fields_dir) -> tuple[list, dict]:
    branch = _shared_branch(opts["d"], opts["p"], _continuation_config(opts))
    curve = branch_analysis.reparametrize(branch, opts["theta"])
    _write_table(out, _CURVE_COLUMNS,
                 [getattr(curve, name) for name in _CURVE_COLUMNS])
    cls = branch_analysis.classify_bifurcation(curve)
    return [out], {**_branch_summary(branch), "theta": opts["theta"],
                   **asdict(cls)}


def _run_criterion(opts: dict, out: Path | None,
                   fields_dir) -> tuple[list, dict]:
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


def _run_probe(opts: dict, out: Path | None,
               fields_dir) -> tuple[list, dict]:
    branch = _shared_branch(opts["d"], opts["p"], _continuation_config(opts))
    report = branch_analysis.conjecture_probe(
        opts["d"], opts["p"], opts["thetas"], branch=branch)
    payload = {**asdict(report), "vartheta": report.vartheta}
    summary = {"flip_theta": report.flip_theta,
               "n_rows": len(report.rows)}
    return _emit_json(payload, out), summary


@dataclass(frozen=True)
class _Command:
    """A data-producing subcommand: its settings, artifact and handler.

    handler(opts, out, fields_dir) takes resolved settings, the artifact
    path (None prints JSON to stdout) and branch's --fields-dir (None
    elsewhere).  artifact names a sweep point's output, and its suffix
    decides the --out rule: a CSV cannot go to stdout, so a command whose
    artifact ends in .csv needs --out on the command line.
    """

    options: dict[str, Option]
    artifact: str
    handler: Callable


# in the order the subcommands are listed in --help
_COMMANDS: dict[str, _Command] = {
    "params": _Command(_schema(
        _D,
        Option("mode", str, "cylinder",
               choices=("cylinder", "critical", "subcritical"),
               help="which generating set the inputs form"),
        replace(_P, required=False),
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
    ), "params.json", _run_params),
    "flow": _Command(_schema(
        _D, _P,
        Option("kind", str, "heat", choices=sphere_flows._KINDS,
               help="which flow to integrate"),
        Option("m", float, None, lo=1e-6, hi=2.0,
               help="diffusion exponent (fde only)"),
        Option("n_cells", int, 96, lo=8, hi=100000,
               help="finite-volume cells"),
        Option("t_end", float, sphere_flows.FlowSpec.t_end, lo=1e-12,
               hi=1e4, help="final time"),
        Option("init", str, "tilted", choices=("tilted", "random"),
               help="initial density family"),
        Option("epsilon", float, 0.3, lo=1e-6, hi=0.999999,
               help="tilt amplitude (tilted init)"),
        Option("q", float, 2.0, lo=-256.0, hi=256.0,
               help="tilt exponent (tilted init)"),
        Option("seed", int, 0, lo=0, hi=2**63 - 1,
               help="generator seed (random init)"),
    ), "trajectory.csv", _run_flow),
    "counterexample": _Command(_schema(
        _D, _P,
        Option("kind", str, _SEARCH["flow_kind"], choices=sphere_flows._KINDS,
               help="which flow the derivative refers to"),
        # flow keeps the wider bound: it only solves tridiagonal systems
        Option("n_cells", int, _SEARCH["n_cells"], lo=8, hi=4096,
               help="finite-volume cells (at most 4096: the heat search's "
                    "dense eigenbasis takes 8 n^2 bytes, 128 MiB there)"),
    ), "counterexample.json", _run_counterexample),
    "branch": _Command(_schema(_D, _P, *_BRANCH_OPTIONS), "branch.csv",
                       _run_branch),
    "curve": _Command(_schema(
        _D, _P,
        Option("theta", float, None, required=True, lo=1e-6, hi=1.0,
               help="interpolation strength for the reparametrization"),
        *_BRANCH_OPTIONS,
    ), "curve.csv", _run_curve),
    "criterion": _Command(_schema(
        _D, _P,
        Option("with_branch", _cast_bool, False,
               help="also run the continuation to harvest witnesses"),
        *_BRANCH_OPTIONS,
    ), "criterion.json", _run_criterion),
    "probe": _Command(_schema(
        _D, _P,
        Option("thetas", _cast_float_list, None, required=True,
               lo=1e-6, hi=1.0,
               help="comma-separated interpolation strengths"),
        *_BRANCH_OPTIONS,
    ), "probe.json", _run_probe),
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
        p = float(rng.uniform(2.01, min(params_mod.two_star_value(d), 12.0)
                              - 0.01))
        lam = float(10.0 ** rng.uniform(-2, 2))
        pars = params_mod.derive_params(d, {"p": p, "Lambda": lam}, "cylinder")
        c1, c2, c3 = params_mod.check_equivalence(pars)
        broken += not (c1 == c2 == c3)
    return [("inconsistent samples", broken, 0)]


def _check_symmetric_constant():
    p, lam = 2.8, 2.0
    vals = [symmetric_quotient(default_grid(5, lam, m, 4), p, lam)[0]
            for m in (400, 800)]
    richardson = (4.0 * vals[1] - vals[0]) / 3.0
    target = params_mod.mu_star(
        params_mod.derive_params(5, {"p": p, "Lambda": lam}, "cylinder"), lam)
    return [("relative error", abs(richardson / target - 1.0), 1e-7)]


def _check_translation_mode():
    lam = 6.0
    grid = default_grid(5, lam, 800, 8)
    phi = solve_symmetric(5, 2.8, lam, grid)
    eig = float(linearized_spectrum(phi, sector=0, count=2)[1])
    return [("zero mode at", eig, 1e-8)]


def _check_monotone(kind: str, p: float, t_end: float, rel_slack: float):
    """Deficit never rises along the flow and mass is conserved."""
    rho = sphere_flows.tilted_density(3, 64, 0.4, 2.0)
    spec = sphere_flows.FlowSpec(kind=kind, p=p, t_end=t_end)
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
    def invalid(why: str) -> ConfigError:
        return ConfigError(f"sweep file {path}: {why}")

    parser = _read_ini(path, "sweep file")
    if not parser.has_section("sweep"):
        raise invalid("needs a [sweep] section")
    entries = dict(parser.items("sweep"))
    command = entries.pop("command", None)
    if command is None:
        raise invalid("needs 'command = <subcommand>' under [sweep]")
    if command not in _COMMANDS:
        raise invalid(f"sweep target {command!r} is not a data-producing "
                      f"subcommand; expected one of {sorted(_COMMANDS)}")
    schema = _COMMANDS[command].options
    axes: list[str] = []
    values: list[tuple] = []
    for key in _AXIS_ORDER:
        if key not in entries:
            continue
        raw = entries.pop(key)
        if key not in schema:
            raise invalid(f"axis {key!r} is not a setting of {command!r}")
        opt = schema[key]
        toks = [tok for tok in raw.replace(",", " ").split() if tok]
        try:
            axis_vals = tuple(opt.parse(tok) for tok in toks)
        except ValueError as exc:
            raise invalid(f"bad {key!r} value in sweep grid: {exc}") from exc
        if not axis_vals:
            raise invalid(f"axis {key!r} has no values; the grid is empty")
        axes.append(key)
        values.append(axis_vals)
    if entries:
        raise invalid(f"unknown keys under [sweep]: {sorted(entries)}; "
                      f"axes must be among {_AXIS_ORDER}")
    if not axes:
        raise invalid("sweep grid has no axes; nothing to run")
    overrides = {}
    if parser.has_section(command):
        overrides = _cast_section(command, parser.items(command),
                                  f"section [{command}] of {path}")
    points = list(product(*values))
    return command, axes, points, overrides


def _runs_in_caller(command: str, opts: dict) -> bool:
    """Whether a sweep of command runs its groups in the calling process.

    Only params and criterion without with_branch do: what a point of
    either costs is decided by its (d, p) alone.  On a 2-core Xeon a
    params point takes 0.2-3 ms; a criterion point takes 5-250 ms
    (median 14 ms) where the GN oracle resolves it, and up to 1.6 s
    where it refuses.  Most are cheaper than the pool's start and stop.
    Every other command's cost grows with its settings (a branch's grid,
    a flow's n_cells and t_end), so it, and any command added later,
    keeps the pool.
    """
    return command == "params" or (command == "criterion"
                                   and not opts["with_branch"])


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
        point_dir = out_dir / f"point_{index:04d}"
        point_dir.mkdir(parents=True, exist_ok=True)
        out = point_dir / _COMMANDS[command].artifact
        try:
            _produce(command, opts, out, time.perf_counter(),
                     point_dir / "manifest.json")
        except (CknlabError, UsageError) as exc:
            outcomes.append((index, "failed",
                             f"{type(exc).__name__}: {exc}", ""))
        else:
            outcomes.append((index, "ok", "", os.path.relpath(out, out_dir)))
    return outcomes


def _run_sweep(args) -> int:
    t0 = time.perf_counter()
    command, axes, points, overrides = _parse_sweep_spec(args.spec)
    out_dir = Path(args.out_dir)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out_dir} exists and is not "
                          f"empty; pass --force to reuse it")

    # a sweep is fully described by its own file: no --config layer
    resolved = [_resolve_options(command, overrides, dict(zip(axes, values)))
                for values in points]

    out_dir.mkdir(parents=True, exist_ok=True)

    # Points are pure Python compute, so only processes run them in
    # parallel.  A pool takes 15-25 ms to start and stop, and each worker
    # pays its own first-use costs, which outweigh the cheap points of
    # _runs_in_caller.  The default start method is kept: where it is
    # fork, workers inherit the imported modules and any warm caches.
    groups = _sweep_groups(resolved)
    workers = 1
    if not _runs_in_caller(command, resolved[0]):
        workers = min(args.workers, len(groups))
    if workers == 1:
        outcomes = [_run_group(command, out_dir, group) for group in groups]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_group, repeat(command),
                                     repeat(out_dir), groups))
    outcomes = sorted(chain.from_iterable(outcomes))
    failed = [(i, message) for i, status, message, _ in outcomes
              if status != "ok"]

    aggregate = out_dir / "aggregate.csv"
    header = ("index", "command") + tuple(axes) + ("status", "message",
                                                   "artifact")
    _write_csv(aggregate, header,
               [(i, command) + points[i] + (status, message, artifact)
                for i, status, message, artifact in outcomes])
    _write_manifest(out_dir / "sweep.manifest.json", "sweep",
                    {"command": command, "axes": list(axes),
                     "n_points": len(points), "overrides": overrides,
                     "workers": workers, "spec_file": str(args.spec)},
                    [aggregate], {"n_failed": len(failed)}, t0)

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


def _flag_value(opt: Option, raw: str):
    # argparse would report a ValueError without its text
    try:
        return opt.parse(raw)
    except ValueError as exc:
        raise UsageError(f"{opt.flag}: {exc}") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="cknlab",
                     description="Numerical laboratory for symmetry and "
                                 "symmetry breaking in weighted "
                                 "interpolation inequalities.")
    sub = parser.add_subparsers(dest="command")
    for command, entry in _COMMANDS.items():
        p = sub.add_parser(command)
        for opt in entry.options.values():
            if opt.cast is _cast_bool:
                p.add_argument(opt.flag, dest=opt.name, const=True,
                               default=None, action="store_const",
                               help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.name,
                               type=partial(_flag_value, opt),
                               default=None, help=opt.help)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", default=None,
                       help="artifact path; JSON commands print to stdout "
                            "when omitted")
        if command == "branch":
            p.add_argument("--fields-dir", dest="fields_dir", default=None,
                           help="also dump per-point field snapshots here")
    sub.add_parser("verify")
    s = sub.add_parser("sweep")
    s.add_argument("--spec", required=True,
                   help="sweep file: [sweep] section with command and axes")
    s.add_argument("--out-dir", dest="out_dir", required=True,
                   help="directory for per-point artifacts")
    s.add_argument("--force", action="store_true",
                   help="reuse a non-empty output directory")
    # no upper bound: at most one worker per (d, p) group is started
    workers = Option("workers", int, lo=1, hi=math.inf)
    s.add_argument("--workers", type=partial(_flag_value, workers), default=1,
                   help="most worker processes; points sharing (d, p) run "
                        "in one, so at most one per (d, p) pair is used; "
                        "params and criterion (without with_branch) "
                        "sweeps always run in the calling process")
    return parser


# built by the first run() call in a process
_PARSER: _Parser | None = None

# mallopt(3) parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _keep_freed_heap() -> None:
    """Have glibc's malloc keep freed memory in its heap for reuse.

    SuperLU allocates its LU storage afresh in every factorization, and by
    default glibc serves such blocks with mmap and hands them back with
    munmap, or trims the heap top, so every corrector step of a branch
    continuation faults its pages in again.  Serving every block from
    the heap (no mmap) and trimming only past 1 GiB of free top lets each
    factorization reuse the pages the last one freed.  Does nothing where
    glibc or its mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _check_out_dir(out: Path) -> None:
    """Raise the error a write to out would meet for want of its directory.

    run() calls it before the handler, so a missing directory, or an out
    that is itself a directory, fails at once rather than after the
    computation.
    """
    try:
        is_dir = stat.S_ISDIR(os.stat(out.parent).st_mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out)) from None
    if not is_dir:
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(out))
    if out.is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(out))


def run(argv=None) -> int:
    """Parse and execute one invocation; returns the exit status.

    The first call in a process builds the parser, which later calls
    reuse, and then freezes everything the garbage collector tracks at
    that point, which is mostly the import graph of the package, NumPy
    and SciPy (about 40,000 objects).  That graph lives until exit
    anyway, and frozen objects leave every later collection: the full
    collections of interpreter shutdown (15-30 ms each on a 2-core Xeon,
    finding nothing to free), and the collections in the forked workers
    of a sweep (every command but params and plain criterion forks them),
    which would otherwise write to the pages they share with the parent.  Later calls leave the frozen set alone, so cyclic garbage
    that an earlier call left stays collectable.

    Right after the freeze, the first call also tells glibc's allocator to
    keep freed heap memory for reuse (_keep_freed_heap), so the branch
    continuation's SuperLU factorizations stop faulting their storage
    back in: the run() of a fresh `branch --d 5 --p 2.8` took about
    285,000 minor page faults and 0.6-0.8 s of system time, and now takes
    about 4,400 faults and 0.01 s (medians of 6 processes, 2-core Xeon).
    Sweep workers forked later inherit the setting.  A plain import, and
    library callers that never call run(), leave the allocator as it is.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
        gc.freeze()
        _keep_freed_heap()
    try:
        args = _PARSER.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required; see --help")
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sweep":
            return _run_sweep(args)
        t0 = time.perf_counter()
        command = args.command
        config = (load_config(args.config).get(command, {})
                  if args.config else {})
        opts = _resolve_options(command, config, vars(args))
        out = Path(args.out) if args.out else None
        if out is not None:
            _check_out_dir(out)
        elif _COMMANDS[command].artifact.endswith(".csv"):
            raise UsageError(f"--out is required for {command!r}")
        _produce(command, opts, out, t0,
                 fields_dir=getattr(args, "fields_dir", None))
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
    except OSError as exc:
        # an unwritable --out or --out-dir
        print(f"error: cannot write {exc.filename or 'output'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return _EXIT_ADMISSIBLE


def main() -> None:
    sys.exit(run())
