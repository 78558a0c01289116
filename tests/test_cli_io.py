"""Command line round trips: exit codes, artifacts, manifests, sweeps.

Everything runs in process through cknlab.cli_io.run so we can assert on
exit codes and captured output without spawning subprocesses.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cknlab import CknlabError, cli_io
from cknlab.cli_io import _sweep_groups, run


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def manifest_of(artifact_path):
    path = Path(str(artifact_path) + ".manifest.json")
    return json.loads(path.read_text())


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_params_prints_payload_to_stdout(capsys):
    assert run(["params", "--d", "5", "--p", "2.8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "cylinder"
    assert payload["Lambda"] == 1.0
    assert payload["a_c"] == 1.5
    assert payload["two_sharp"] == 3.1875
    assert payload["lambda_fs"] == pytest.approx(4.166666666666668, rel=1e-12)
    assert payload["mu_star"] == pytest.approx(1.8094202090216986, rel=1e-9)
    assert payload["optimal_constant_star"] > 0.0


def test_params_critical_mode_at_the_sobolev_endpoint(capsys):
    # b == a gives p = 2* = 10/3 in dimension five, where the theta range
    # [vartheta, 1] is empty
    assert run(["params", "--d", "5", "--mode", "critical",
                "--a", "0.5", "--b", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == payload["two_star"]
    assert {"lambda_fs", "b_fs", "vartheta"} <= payload.keys()
    assert "lambda_fs_theta" not in payload


def test_params_artifact_and_manifest(tmp_path, capsys):
    out = tmp_path / "params.json"
    assert run(["params", "--d", "5", "--p", "2.8", "--Lambda", "6.0",
                "--out", str(out)]) == 0
    # with --out the payload goes to the file, not to stdout
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["Lambda"] == 6.0
    manifest = manifest_of(out)
    assert manifest["command"] == "params"
    assert manifest["settings"]["d"] == 5
    assert manifest["summary"]["lambda_fs"] == payload["lambda_fs"]
    (entry,) = manifest["artifacts"]
    assert entry["path"] == "params.json"
    assert entry["sha256"] == sha256_of(out)


def test_usage_errors_exit_one(tmp_path, capsys):
    cases = (
        [],                                          # no subcommand
        ["params", "--d", "5", "--p", "2.8", "--bogus", "1"],
        ["flow", "--d", "3"],                        # --p is required
        ["flow", "--d", "3", "--p", "3.0"],          # --out is required
        ["flow", "--d", "3", "--p", "3.0", "--epsilon", "1.5",
         "--out", str(tmp_path / "t.csv")],          # out of range
        ["params", "--d", "5"],                      # cylinder mode needs p
    )
    for argv in cases:
        assert run(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err


def test_admissibility_errors_exit_two(capsys):
    # p = 3.5 sits above the critical exponent 10/3 in dimension five
    assert run(["params", "--d", "5", "--p", "3.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_failed_search_exits_three(capsys):
    # at p = 3 the deficit derivative is negative everywhere on the scan
    assert run(["counterexample", "--d", "3", "--p", "3.0",
                "--n-cells", "48"]) == 3
    assert "error:" in capsys.readouterr().err


def test_counterexample_artifact(tmp_path):
    out = tmp_path / "counterexample.json"
    assert run(["counterexample", "--d", "3", "--p", "5.5",
                "--n-cells", "96", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 < payload["epsilon"] < 1.0
    assert payload["derivative"] > 10.0 * payload["error"]
    assert len(payload["density_nodes"]) == 96
    assert all(len(row) == 4 for row in payload["trace"])
    assert manifest_of(out)["summary"]["derivative"] == payload["derivative"]


FLOW_ARGS = ["flow", "--d", "3", "--p", "3.0", "--t-end", "0.05",
             "--n-cells", "32", "--epsilon", "0.4", "--q", "2.0"]


def test_flow_artifact_and_byte_determinism(tmp_path):
    outs = [tmp_path / name / "trajectory.csv" for name in ("a", "b")]
    for out in outs:
        out.parent.mkdir()
        assert run(FLOW_ARGS + ["--out", str(out)]) == 0
    rows = read_csv(outs[0])
    assert rows[0] == ["time", "mass", "E_p", "I_p", "deficit"]
    deficits = np.array([float(r[4]) for r in rows[1:]])
    assert np.all(np.diff(deficits) <= 1e-10)
    assert manifest_of(outs[0])["summary"]["n_states"] == len(rows) - 1
    # identical inputs must produce identical bytes and digests
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (manifest_of(outs[0])["artifacts"][0]["sha256"]
            == manifest_of(outs[1])["artifacts"][0]["sha256"]
            == sha256_of(outs[0]))


def test_config_file_layering(tmp_path, monkeypatch):
    cfg = tmp_path / "cknlab.ini"
    cfg.write_text("[flow]\nn_cells = 24\nt_end = 0.03\n")
    monkeypatch.setenv("CKNLAB_CONFIG", str(cfg))
    out = tmp_path / "traj.csv"
    assert run(["flow", "--d", "3", "--p", "3.0", "--n-cells", "16",
                "--out", str(out)]) == 0
    settings = manifest_of(out)["settings"]
    assert settings["n_cells"] == 16      # flag beats file
    assert settings["t_end"] == 0.03      # file beats default
    assert settings["dt_max"] == 0.02     # untouched default

    # an explicit --config path wins over the environment variable
    cfg2 = tmp_path / "other.ini"
    cfg2.write_text("[flow]\nt_end = 0.04\n")
    assert run(["flow", "--d", "3", "--p", "3.0", "--config", str(cfg2),
                "--out", str(out)]) == 0
    assert manifest_of(out)["settings"]["t_end"] == 0.04


def test_config_file_rejects_unknown_entries(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[flow]\nbogus = 1\n")
    assert run(["flow", "--d", "3", "--p", "3.0", "--config", str(bad_key),
                "--out", str(tmp_path / "t.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err
    bad_section = tmp_path / "bad_section.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    assert run(["flow", "--d", "3", "--p", "3.0", "--config",
                str(bad_section), "--out", str(tmp_path / "t.csv")]) == 2
    assert "unknown section" in capsys.readouterr().err


COARSE = ["--m-cells", "120", "--nz", "8"]


def test_branch_csv_via_cli(tmp_path):
    out = tmp_path / "branch.csv"
    assert run(["branch", "--d", "5", "--p", "2.8", "--lambda-max", "5.0",
                *COARSE, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["lambda", "mu", "mu_star", "t_phi", "lowest_eig",
                       "newton_iters", "residual", "arclength"]
    lam = np.array([float(r[0]) for r in rows[1:]])
    assert np.all(np.diff(lam) > 0.0)
    summary = manifest_of(out)["summary"]
    assert summary["n_points"] == len(rows) - 1
    # coarse grid, so only ask for three digits on the onset location
    assert summary["bifurcation_lambda"] == pytest.approx(
        4.166666666666668, rel=5e-3)
    assert summary["predicted_lambda_fs"] == pytest.approx(
        4.166666666666668, rel=1e-12)


def test_branch_field_snapshots(tmp_path):
    out = tmp_path / "branch.csv"
    fields = tmp_path / "fields"
    assert run(["branch", "--d", "5", "--p", "2.8", "--lambda-max", "4.5",
                *COARSE, "--out", str(out), "--fields-dir",
                str(fields)]) == 0
    n_points = manifest_of(out)["summary"]["n_points"]
    assert len(list(fields.glob("field_*.csv"))) == n_points
    # every snapshot is listed in the manifest next to the csv itself
    assert len(manifest_of(out)["artifacts"]) == 1 + 2 * n_points


def test_curve_csv_via_cli(tmp_path):
    out = tmp_path / "curve.csv"
    assert run(["curve", "--d", "5", "--p", "2.8", "--theta", "0.718",
                "--lambda-max", "8.5", *COARSE, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["lambda", "Lambda", "mu", "mu_star_theta",
                       "d_Lambda_d_lambda"]
    summary = manifest_of(out)["summary"]
    assert summary["direction"] == "left"
    assert summary["slope_at_onset"] < 0.0
    assert len(summary["turning_points"]) >= 1


def test_criterion_json_via_cli(capsys):
    assert run(["criterion", "--d", "3", "--p", "2.05"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["breaking_predicted"] is True
    assert payload["c_gn"] == pytest.approx(1.09729200391, rel=1e-6)
    lo, hi = payload["lambda_s_bracket"]
    assert lo == 0.0
    assert hi == pytest.approx(0.6711633134221795, rel=1e-6)


def test_probe_json_via_cli(capsys):
    assert run(["probe", "--d", "5", "--p", "2.8", "--thetas", "0.718,1.0",
                "--lambda-max", "8.0", *COARSE]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["theta"] for row in payload["rows"]] == [0.718, 1.0]
    assert payload["rows"][0]["direction"] == "left"
    assert payload["rows"][1]["direction"] == "right"
    assert 0.70 < payload["flip_theta"] < 0.76


SWEEP_SPEC = """\
[sweep]
command = params
d = 3 5
p = 2.5

[params]
mode = cylinder
Lambda = 1.0
"""


def test_sweep_end_to_end(tmp_path, capsys):
    spec = tmp_path / "sweep.ini"
    spec.write_text(SWEEP_SPEC)
    out_dir = tmp_path / "grid"
    assert run(["sweep", "--spec", str(spec), "--out-dir",
                str(out_dir)]) == 0

    rows = read_csv(out_dir / "aggregate.csv")
    assert rows[0] == ["index", "command", "d", "p", "status", "message",
                       "artifact"]
    assert [r[2] for r in rows[1:]] == ["3", "5"]
    assert all(r[4] == "ok" for r in rows[1:])
    for i, row in enumerate(rows[1:]):
        point_dir = out_dir / f"point_{i:04d}"
        assert row[6] == f"point_{i:04d}/params.json"
        payload = json.loads((point_dir / "params.json").read_text())
        assert payload["d"] == int(row[2])
        assert payload["p"] == 2.5

    sweep_manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
    assert sweep_manifest["settings"]["command"] == "params"
    assert sweep_manifest["settings"]["n_points"] == 2
    assert sweep_manifest["summary"]["n_failed"] == 0

    # every non-manifest file in the tree is claimed by exactly one manifest
    claimed = [out_dir / a["path"] for a in sweep_manifest["artifacts"]]
    for i in range(2):
        point_dir = out_dir / f"point_{i:04d}"
        point_manifest = json.loads((point_dir / "manifest.json").read_text())
        claimed += [point_dir / a["path"]
                    for a in point_manifest["artifacts"]]
    on_disk = [p for p in out_dir.rglob("*")
               if p.is_file() and not p.name.endswith("manifest.json")]
    assert sorted(claimed) == sorted(on_disk)

    # refuse to clobber a populated directory unless forced
    assert run(["sweep", "--spec", str(spec), "--out-dir",
                str(out_dir)]) == 2
    assert "--force" in capsys.readouterr().err
    before = (out_dir / "aggregate.csv").read_bytes()
    assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                "--force"]) == 0
    assert (out_dir / "aggregate.csv").read_bytes() == before


def test_sweep_reports_partial_failure(tmp_path, capsys):
    spec = tmp_path / "sweep.ini"
    # p = 3.5 is admissible in dimension three but not in dimension five
    spec.write_text("[sweep]\ncommand = params\nd = 3 5\np = 3.5\n")
    out_dir = tmp_path / "grid"
    assert run(["sweep", "--spec", str(spec), "--out-dir",
                str(out_dir)]) == 3
    assert "point_" in capsys.readouterr().err
    rows = read_csv(out_dir / "aggregate.csv")
    status = {r[2]: r[4] for r in rows[1:]}
    assert status == {"3": "ok", "5": "failed"}
    failed_row = next(r for r in rows[1:] if r[4] == "failed")
    assert failed_row[5] != ""
    manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
    assert manifest["summary"]["n_failed"] == 1


def artifact_bytes(out_dir):
    """Every file of a sweep tree but the manifests (they hold a clock)."""
    return {p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")}


@pytest.mark.parametrize("spec_text, code", [
    # two (d, p) groups of two points each
    ("[sweep]\ncommand = params\nd = 3 5\np = 2.5\nLambda = 1.0 2.0\n", 0),
    # p = 3.5 is admissible in dimension three but not in dimension five
    ("[sweep]\ncommand = params\nd = 3 5\np = 3.5\n", 3),
], ids=["all_ok", "partial_failure"])
def test_sweep_artifacts_do_not_depend_on_workers(tmp_path, capsys,
                                                  spec_text, code):
    spec = tmp_path / "sweep.ini"
    spec.write_text(spec_text)
    trees = {}
    for workers in (1, 2, 3):
        out_dir = tmp_path / f"grid_{workers}"
        assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                    "--workers", str(workers)]) == code
        manifest = json.loads(
            (out_dir / "sweep.manifest.json").read_text())
        # capped at the number of (d, p) groups
        assert manifest["settings"]["workers"] == min(workers, 2)
        trees[workers] = artifact_bytes(out_dir)
    capsys.readouterr()
    assert trees[1] == trees[2] == trees[3]
    rows = read_csv(tmp_path / "grid_1" / "aggregate.csv")
    assert [r[4] for r in rows[1:]].count("failed") == (1 if code else 0)


def test_sweep_groups_by_d_and_p_in_first_index_order():
    keys = [(4, 2.5), (3, 2.5), (4, 2.5), (3, 3.0), (3, 2.5), (4, 2.5)]
    resolved = [{"d": d, "p": p} for d, p in keys]
    groups = _sweep_groups(resolved)
    assert [[i for i, _ in g] for g in groups] == [[0, 2, 5], [1, 4], [3]]
    for group in groups:
        assert all(opts is resolved[i] for i, opts in group)


def test_sweep_spec_errors(tmp_path, capsys):
    cases = (
        "[sweep]\ncommand = params\nd =\n",          # empty axis
        "[sweep]\ncommand = params\n",               # no axes at all
        "[sweep]\ncommand = params\nd = 3\nq = 1\n",  # unknown axis
        "[sweep]\nd = 3\n",                          # missing command
        "[sweep]\ncommand = params\nd = 3 1\n",      # axis value below 2
        "[sweep]\ncommand = params\nd = 3\n[params]\nbogus = 1\n",
        "[sweep]\ncommand = params\nd = 3\n[params]\np = two\n",
        "command = params\n",                        # no section header
        None,                                        # no such file
    )
    for i, text in enumerate(cases):
        spec = tmp_path / f"spec_{i}.ini"
        if text is not None:
            spec.write_text(text)
        out_dir = tmp_path / f"grid_{i}"
        assert run(["sweep", "--spec", str(spec), "--out-dir",
                    str(out_dir)]) == 2, text
        err = capsys.readouterr().err
        if "[params]" in (text or ""):
            # fixed-section errors name the file, like config-file errors
            assert f"in section [params] of {spec}" in err
        # a rejected spec must not leave a half-created directory behind
        assert not out_dir.exists()


def test_verify_battery_passes(capsys):
    assert run(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "all 9 checks passed"
    assert len(lines) == 10
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_fails_over_bound_nan_and_solver_errors(monkeypatch, capsys):
    def solver_error():
        raise CknlabError("solver gave up")

    stubs = [lambda: [("error", 0.5, 1.0)]] * 9
    stubs[1] = lambda: [("error", 0.5, 1.0), ("drift", 2.0, 1.0)]
    stubs[4] = lambda: [("error", float("nan"), 1.0)]
    stubs[7] = solver_error
    monkeypatch.setattr(cli_io, "verify_checks", tuple(
        (name, stub) for (name, _), stub in zip(cli_io.verify_checks, stubs)))
    assert run(["verify"]) == 3
    lines = capsys.readouterr().out.strip().splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 3
    assert failed[0].endswith(": drift 2.000e+00 > 1.0e+00")
    assert "nan" in failed[1]
    assert failed[2].endswith(": solver gave up")
    assert lines[0].endswith(" (error 5.0e-01)")
    assert lines[-1] == "3 of 9 checks failed"
