"""Command line round trips: exit codes, artifacts, manifests, sweeps.

Everything runs in process through cknlab.cli_io.run so we can assert on
exit codes and captured output without spawning subprocesses.
"""

import csv
import dataclasses
import hashlib
import importlib.util
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from cknlab import (
    CknlabError,
    ContinuationConfig,
    ContinuationStalled,
    CylinderField,
    DomainError,
    branch_analysis,
    cli_io,
    continue_branch,
    cylinder_grid,
)
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
        ["flow", "--d", "3", "--p", "3.0", "--n-cells", "4",
         "--out", str(tmp_path / "t.csv")],          # too few cells
        ["params", "--d", "5"],                      # cylinder mode needs p
        ["branch", "--d", "5", "--p", "2.8", "--ds-max", "0.1",
         "--out", str(tmp_path / "b.csv")],          # step policy: no flag
    )
    for argv in cases:
        assert run(argv) == 1, argv
        assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, code, named", [
    (["params", "--d", "5", "--p", "2.8", "--Lambda", "nan"], None, 1,
     "--Lambda"),
    (["flow", "--d", "3", "--p", "3.0", "--t-end", "nan",
      "--out", "{tmp}/t.csv"], None, 1, "--t-end"),
    (["branch", "--d", "5", "--p", "2.8", "--lambda-max", "nan",
      "--m-cells", "40", "--nz", "4", "--out", "{tmp}/b.csv"], None, 1,
     "--lambda-max"),
    (["flow", "--d", "3", "--p", "3.0", "--config", "{tmp}/in.ini",
      "--out", "{tmp}/t.csv"], "[flow]\nt_end = nan\n", 2, "{tmp}/in.ini"),
    (["sweep", "--spec", "{tmp}/in.ini", "--out-dir", "{tmp}/grid"],
     "[sweep]\ncommand = params\nd = 5\np = nan\n", 2, "{tmp}/in.ini"),
], ids=["params_flag", "flow_flag", "branch_flag", "config_key",
        "sweep_axis"])
def test_nan_settings_fail_where_they_enter(tmp_path, capsys, argv, text,
                                            code, named):
    if text is not None:
        (tmp_path / "in.ini").write_text(text)
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == code
    err = capsys.readouterr().err
    assert named.format(tmp=tmp_path) in err and "nan" in err, err
    # refused before any computation wrote a file
    assert [p.name for p in tmp_path.iterdir()] == (["in.ini"] if text
                                                     else [])


def test_verify_takes_no_options(capsys):
    assert run(["verify", "--config", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_params_takes_a_diffusion_exponent(tmp_path, capsys):
    assert run(["params", "--d", "5", "--p", "2.8"]) == 0
    # 1 - 1/n with n = 2p/(p-2) = 7
    assert json.loads(capsys.readouterr().out)["m"] == pytest.approx(6 / 7)
    out = tmp_path / "params.json"
    assert run(["params", "--d", "5", "--p", "2.8", "--m", "0.9",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["m"] == 0.9
    assert manifest_of(out)["settings"]["m"] == 0.9


def test_counterexample_cells_stop_at_the_dense_basis_bound(
        tmp_path, monkeypatch, capsys):
    # the heat search's eigenbasis takes 8 n^2 bytes: 4096 cells is the
    # last count admitted, and the next is refused before any grid exists
    options = cli_io._COMMANDS["counterexample"].options
    assert options["n_cells"].parse("4096") == 4096
    built = []
    monkeypatch.setattr(cli_io.sphere_flows, "fv_zonal_grid",
                        lambda *args: built.append(args))
    assert run(["counterexample", "--d", "3", "--p", "5.5", "--n-cells",
                "4097", "--out", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert "--n-cells" in err and "4096" in err
    assert built == []
    # flow only solves tridiagonal systems and keeps its wider bound
    flow = cli_io._COMMANDS["flow"].options
    assert flow["n_cells"].parse("100000") == 100000


def test_params_refuses_inputs_of_another_mode(capsys):
    cases = (
        (["--mode", "critical", "--a", "0.5", "--b", "1.0", "--p", "3.3"],
         "unexpected inputs for critical mode: ['p']"),
        (["--p", "2.8", "--beta", "1"],
         "unexpected inputs for cylinder mode: ['beta']"),
        (["--mode", "subcritical", "--beta", "0.5", "--gamma", "1",
          "--p", "1.5", "--theta", "0.5", "--a", "0.1"],
         "unexpected inputs for subcritical mode: ['a', 'theta']"),
    )
    for extra, message in cases:
        assert run(["params", "--d", "5", *extra]) == 2, extra
        assert message in capsys.readouterr().err
    # the subcritical call without its stray inputs is valid
    assert run(["params", "--d", "5", "--mode", "subcritical", "--beta",
                "0.5", "--gamma", "1", "--p", "1.5"]) == 0


def test_admissibility_errors_exit_two(capsys):
    # p = 3.5 sits above the critical exponent 10/3 in dimension five
    assert run(["params", "--d", "5", "--p", "3.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_outputs_exit_two(tmp_path, capsys):
    # one error line that names the path, also where the flow has run
    # before its artifact is written
    missing = tmp_path / "missing"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    spec = tmp_path / "grid.ini"
    spec.write_text("[sweep]\ncommand = criterion\nd = 3\np = 2.5\n")
    cases = (
        (["params", "--d", "5", "--p", "2.8", "--out",
          str(missing / "x.json")], missing / "x.json"),
        (["flow", "--d", "3", "--p", "3.0", "--n-cells", "16", "--t-end",
          "0.01", "--out", str(missing / "t.csv")], missing / "t.csv"),
        (["sweep", "--spec", str(spec), "--out-dir", str(a_file)], a_file),
    )
    for argv, path in cases:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: cannot write {path}: "), err


def test_missing_out_directory_fails_before_the_computation(
        tmp_path, capsys, monkeypatch):
    # the same error line the write would print, without running first
    def unreachable(*args):
        pytest.fail("the handler ran although --out cannot be written")

    for command in ("params", "flow", "branch"):
        monkeypatch.setitem(cli_io._COMMANDS, command, dataclasses.replace(
            cli_io._COMMANDS[command], handler=unreachable))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cases = (
        (["flow", "--d", "3", "--p", "3.0", "--kind", "fde"],
         tmp_path / "missing" / "x.csv", "No such file or directory"),
        (["branch", "--d", "5", "--p", "2.8"],
         a_file / "b.csv", "Not a directory"),
        (["params", "--d", "5", "--p", "2.8"],
         a_file / "sub" / "x.json", "Not a directory"),
    )
    for argv, path, reason in cases:
        assert run(argv + ["--out", str(path)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: {reason}\n"
        assert captured.out == ""


@pytest.fixture
def fresh_branch_memo():
    """An empty branch memo, emptied again afterwards."""
    cli_io._branch_or_failure.cache_clear()
    yield
    cli_io._branch_or_failure.cache_clear()


def _serve_session_branch(monkeypatch, branch):
    """Let the CLI's continuation hand out the session (5, 2.8) branch at
    the default configuration, and fail on any other."""
    def session(d, p, config):
        if (d, p, config) != (5, 2.8, ContinuationConfig()):
            pytest.fail(f"the continuation ran for {(d, p, config)}")
        return branch

    monkeypatch.setattr(cli_io, "continue_branch", session)


def test_unwritable_branch_outputs_fail_before_the_continuation(
        fresh_branch_memo, tmp_path, capsys, monkeypatch):
    # an --out that is a directory, or a --fields-dir that is a file or
    # lies below one, fails with the line its write would print, but
    # before the branch is computed or branch.csv written
    def unreachable(*args):
        pytest.fail("the continuation ran although an output is unwritable")

    monkeypatch.setattr(cli_io, "continue_branch", unreachable)
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    out = tmp_path / "branch.csv"
    cases = (
        (["--out", str(a_dir)], a_dir, "Is a directory"),
        (["--out", str(out), "--fields-dir", str(a_file)], a_file,
         "File exists"),
        (["--out", str(out), "--fields-dir", str(a_file / "sub")],
         a_file / "sub", "Not a directory"),
    )
    for extra, path, reason in cases:
        assert run(["branch", "--d", "5", "--p", "2.8", *extra]) == 2, extra
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {path}: {reason}\n"
        assert not out.exists()


def test_field_snapshot_keeps_its_hand_written_bytes(tmp_path):
    # the snapshot rows as they were formatted by hand before they went
    # through the shared CSV writer
    grid = cylinder_grid(5, 4.0, 30, 4)
    values = np.random.default_rng(3).standard_normal((30, 4))
    values[0, 0], values[1, 1], values[2, 2] = 0.0, -0.0, 5e-324
    values[3] *= 1e300
    fld = CylinderField(grid, values, p=2.8, Lambda=4.2)
    path = tmp_path / "field.csv"
    cli_io._write_field_csv(path, fld)
    want = ["s,z,value\n"]
    for i, s in enumerate(grid.s):
        for j, z in enumerate(grid.z):
            want.append("%s,%s,%s\n" % ("%.17g" % s, "%.17g" % z,
                                         "%.17g" % values[i, j]))
    assert path.read_bytes() == "".join(want).encode()
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    assert sidecar["m_cells"] == 30 and sidecar["nz"] == 4


def test_run_builds_its_parser_once(monkeypatch, capsys):
    built = []
    build = cli_io._build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli_io, "_PARSER", None, raising=False)
    monkeypatch.setattr(cli_io, "_build_parser", counted)
    assert run(["params", "--d", "5", "--p", "2.8"]) == 0
    first = capsys.readouterr().out
    assert run(["params", "--d", "5", "--p", "2.8", "--bogus"]) == 1
    assert run(["params", "--d", "5", "--p", "2.8"]) == 0
    assert capsys.readouterr().out == first
    assert len(built) == 1


def test_repeated_sphere_runs_in_one_process_match(tmp_path, capsys,
                                                   monkeypatch):
    # the sphere workload's seed-0 fde flow and (3, 5.5) searches, twice
    # in one process: nothing cached in a run may leak into the next
    runs = (
        (["flow", "--d", "3", "--p", "3.0", "--n-cells", "384", "--kind",
          "fde", "--out", "flow.csv"], 0, "flow.csv"),
        (["counterexample", "--d", "3", "--p", "5.5",
          "--out", "heat.json"], 0, "heat.json"),
        (["counterexample", "--d", "3", "--p", "5.5", "--kind", "fde",
          "--out", "fde.json"], 3, None),
    )
    seen = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        record = []
        for argv, code, artifact in runs:
            assert run(argv) == code, argv
            captured = capsys.readouterr()
            record.append((captured.out, captured.err))
            if artifact is not None:
                manifest = manifest_of(artifact)
                del manifest["wall_clock_seconds"]
                record.append((Path(artifact).read_bytes(), manifest))
            else:
                assert not Path("fde.json").exists()
        seen.append(record)
    assert seen[0] == seen[1]
    assert "best derivative -1.383196e-10" in seen[0][-1][1]


def test_json_arrays_keep_their_values_and_null_non_finite_ones():
    payload = {"finite": np.array([[0.1, -2.5e-300], [3.0, 1e308]]),
               "ints": np.arange(3, dtype=np.int32),
               "flags": np.array([True, False]),
               "holes": np.array([[1.0, np.nan], [-np.inf, np.inf]])}
    text = cli_io._dump_json(payload)
    assert json.loads(text) == {"finite": [[0.1, -2.5e-300], [3.0, 1e308]],
                                "ints": [0, 1, 2], "flags": [True, False],
                                "holes": [[1.0, None], [None, None]]}
    assert '"flags": [\n    true,' in text


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_sphere_workload_matches_the_benchmark_reference(tmp_path, capsys,
                                                         monkeypatch):
    # the benchmark's seed-0 sphere operations must write its reference
    # artifacts byte for byte; perfbench/ is read, never written
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    for op in workloads.ops("sphere", 0):
        assert run(list(op.argv)) == op.expect_rc, op.name
    capsys.readouterr()
    reference = sorted((PERFBENCH / "reference" / "sphere").iterdir())
    assert len(reference) == 5
    for path in reference:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), \
            path.name


def test_continuation_workload_matches_the_benchmark_reference(
        branch_5_2_8, fresh_branch_memo, tmp_path, capsys, monkeypatch):
    # the benchmark's seed-0 branch and probe operations, on the session
    # branch, must write its reference artifacts byte for byte.  curve.csv
    # is left out: the reference holds the symmetric constants of an
    # earlier line-grid route, up to 4.7e-12 off params.mu_star's
    # closed form; test_curve_keeps_its_csv_writer_bytes pins its bytes.
    _serve_session_branch(monkeypatch, branch_5_2_8[0])
    monkeypatch.chdir(tmp_path)
    dp = ["--d", "5", "--p", "2.8"]
    assert run(["branch", *dp, "--out", "branch.csv"]) == 0
    assert run(["probe", *dp, "--thetas", "0.718,1.0",
                "--out", "probe.json"]) == 0
    capsys.readouterr()
    reference = PERFBENCH / "reference" / "continuation"
    for name in ("branch.csv", "probe.json"):
        assert (tmp_path / name).read_bytes() == \
            (reference / name).read_bytes(), name


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def test_curve_keeps_its_csv_writer_bytes(branch_5_2_8, fresh_branch_memo,
                                         tmp_path, capsys, monkeypatch):
    # the benchmark's seed-0 curve of the session branch, against the
    # rows as the csv module wrote them before curve.csv went through
    # the numeric-table writer: %.17g per float, str per int
    _serve_session_branch(monkeypatch, branch_5_2_8[0])
    out = tmp_path / "curve.csv"
    assert run(["curve", "--d", "5", "--p", "2.8", "--theta", "0.718",
                "--out", str(out)]) == 0
    capsys.readouterr()
    curve = branch_analysis.reparametrize(branch_5_2_8[0], 0.718)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("lambda", "Lambda", "mu", "mu_star_theta",
                         "d_Lambda_d_lambda"))
        for row in zip(curve.lam, curve.Lambda, curve.mu,
                       curve.mu_star_theta, curve.d_Lambda_d_lambda):
            writer.writerow([_csv_cell(v) for v in row])
    assert out.read_bytes() == want.read_bytes()


def test_failed_search_exits_three(capsys):
    # at p = 3 the deficit derivative is negative everywhere on the scan
    assert run(["counterexample", "--d", "3", "--p", "3.0",
                "--n-cells", "48"]) == 3
    assert "error:" in capsys.readouterr().err


def test_short_cylinder_exits_three(tmp_path, capsys):
    # the symmetric polish diverges on a cylinder this short
    assert run(["branch", "--d", "5", "--p", "2.8", "--length", "0.5",
                "--out", str(tmp_path / "b.csv")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: symmetric polish")
    assert not (tmp_path / "b.csv").exists()


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


def test_flow_takes_a_diffusion_exponent_for_fde_only(tmp_path, capsys):
    outs = {}
    for m in (None, "0.9"):
        out = outs[m] = tmp_path / f"fde_{m}.csv"
        extra = ["--m", m] if m else []
        assert run(FLOW_ARGS + ["--kind", "fde", *extra,
                                "--out", str(out)]) == 0
    assert manifest_of(outs[None])["settings"]["m"] is None
    assert manifest_of(outs["0.9"])["settings"]["m"] == 0.9
    assert outs[None].read_bytes() != outs["0.9"].read_bytes()
    # the heat flow has no diffusion exponent
    assert run(FLOW_ARGS + ["--kind", "heat", "--m", "0.9",
                            "--out", str(tmp_path / "heat.csv")]) == 2
    assert "takes no diffusion exponent" in capsys.readouterr().err


def test_flow_random_init_follows_its_seed(tmp_path):
    outs = [tmp_path / f"random_{i}.csv" for i in range(3)]
    for out, seed in zip(outs, ("7", "7", "8")):
        assert run(FLOW_ARGS + ["--init", "random", "--seed", seed,
                                "--out", str(out)]) == 0
    assert manifest_of(outs[0])["settings"]["seed"] == 7
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cknlab.ini"
    cfg.write_text("[flow]\nn_cells = 24\nt_end = 0.03\n")
    out = tmp_path / "traj.csv"
    assert run(["flow", "--d", "3", "--p", "3.0", "--n-cells", "16",
                "--config", str(cfg), "--out", str(out)]) == 0
    settings = manifest_of(out)["settings"]
    assert settings["n_cells"] == 16      # flag beats file
    assert settings["t_end"] == 0.03      # file beats default
    assert settings["epsilon"] == 0.3     # untouched default

    # the file --config names is the one read
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
    # the flow's step policy is no setting
    bad_key.write_text("[flow]\ndt_max = 0.01\n")
    assert run(["flow", "--d", "3", "--p", "3.0", "--config", str(bad_key),
                "--out", str(tmp_path / "t.csv")]) == 2
    assert "unknown key 'dt_max'" in capsys.readouterr().err
    bad_section = tmp_path / "bad_section.ini"
    bad_section.write_text("[nope]\nx = 1\n")
    assert run(["flow", "--d", "3", "--p", "3.0", "--config",
                str(bad_section), "--out", str(tmp_path / "t.csv")]) == 2
    assert "unknown section" in capsys.readouterr().err


def test_config_file_booleans(tmp_path, capsys):
    cfg = tmp_path / "bool.ini"
    cfg.write_text("[criterion]\nwith_branch = on\n")
    assert cli_io.load_config(cfg) == {"criterion": {"with_branch": True}}
    cfg.write_text("[criterion]\nwith_branch = no\n")
    assert cli_io.load_config(cfg) == {"criterion": {"with_branch": False}}
    cfg.write_text("[criterion]\nwith_branch = maybe\n")
    assert run(["criterion", "--d", "3", "--p", "2.5",
                "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'with_branch'" in err and str(cfg) in err


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


@pytest.mark.parametrize("spec_text, code, forks", [
    # two (d, p) groups of two points each
    ("[sweep]\ncommand = params\nd = 3 5\np = 2.5\nLambda = 1.0 2.0\n", 0,
     False),
    # p = 3.5 is admissible in dimension three but not in dimension five
    ("[sweep]\ncommand = params\nd = 3 5\np = 3.5\n", 3, False),
    # each (d, p) group continues its own branch, on a coarse grid
    ("[sweep]\ncommand = criterion\nd = 5\np = 2.8 3.0\n[criterion]\n"
     "with_branch = on\nm_cells = 120\nnz = 8\nlambda_max = 5.0\n", 0,
     True),
    ("[sweep]\ncommand = curve\nd = 5\np = 2.8 3.0\ntheta = 0.9 1.0\n"
     "[curve]\nm_cells = 120\nnz = 8\nlambda_max = 5.0\n", 0, True),
    # a flow's cost grows with its settings, so it keeps the pool
    ("[sweep]\ncommand = flow\nd = 3 4\np = 2.5\n[flow]\nn_cells = 16\n",
     0, True),
], ids=["all_ok", "partial_failure", "with_branch", "curve", "flow"])
def test_sweep_artifacts_do_not_depend_on_workers(tmp_path, capsys,
                                                  spec_text, code, forks):
    spec = tmp_path / "sweep.ini"
    spec.write_text(spec_text)
    trees = {}
    for workers in (1, 2, 3):
        out_dir = tmp_path / f"grid_{workers}"
        assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                    "--workers", str(workers)]) == code
        manifest = json.loads(
            (out_dir / "sweep.manifest.json").read_text())
        # the count that ran: params sweeps never fork, the others use
        # at most one worker per (d, p) group
        assert manifest["settings"]["workers"] == (
            min(workers, 2) if forks else 1)
        trees[workers] = artifact_bytes(out_dir)
    capsys.readouterr()
    assert trees[1] == trees[2] == trees[3]
    rows = read_csv(tmp_path / "grid_1" / "aggregate.csv")
    assert [r[4] for r in rows[1:]].count("failed") == (1 if code else 0)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_refuses_fewer_than_one_worker(tmp_path, capsys, monkeypatch,
                                            workers):
    def unreachable(*args):
        pytest.fail("a sweep point ran")

    monkeypatch.setattr(cli_io, "_run_group", unreachable)
    spec = tmp_path / "sweep.ini"
    spec.write_text("[sweep]\ncommand = params\nd = 3 5\np = 2.5\n")
    out_dir = tmp_path / "grid"
    assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                "--workers", workers]) == 1
    assert capsys.readouterr().err.startswith("usage error: --workers: ")
    assert not out_dir.exists()


def test_curve_sweep_releases_each_groups_branch(fresh_branch_memo,
                                               tmp_path, capsys):
    spec = tmp_path / "sweep.ini"
    spec.write_text("[sweep]\ncommand = curve\nd = 5\np = 2.8 3.0\n"
                    "theta = 0.9\n[curve]\nm_cells = 120\nnz = 8\n"
                    "lambda_max = 5.0\n")
    out_dir = tmp_path / "sweep"
    assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                "--workers", "1"]) == 0
    # one continuation per group, and the second group's branch evicted
    # the first's: at most one branch stays alive
    memo = cli_io._branch_or_failure.cache_info()
    assert (memo.misses, memo.hits, memo.currsize) == (2, 0, 1)
    rows = read_csv(out_dir / "aggregate.csv")
    assert [(r[3], r[5], r[7]) for r in rows[1:]] == [
        ("2.7999999999999998", "ok", "point_0000/curve.csv"),
        ("3", "ok", "point_0001/curve.csv"),
    ]
    # each point holds what the command alone writes
    for index, p in enumerate(("2.8", "3.0")):
        alone = tmp_path / f"curve_{p}.csv"
        assert run(["curve", "--d", "5", "--p", p, "--theta", "0.9",
                    *COARSE, "--lambda-max", "5.0", "--out",
                    str(alone)]) == 0
        point = out_dir / f"point_{index:04d}" / "curve.csv"
        assert point.read_bytes() == alone.read_bytes()
    capsys.readouterr()


def test_a_failed_continuation_runs_once_per_group(fresh_branch_memo,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # so close to p = 2 the symmetric profile overflows, so every point of
    # the group fails with the DomainError of one continuation
    calls = []

    def counted(d, p, config):
        calls.append((d, p))
        return continue_branch(d, p, config)

    monkeypatch.setattr(cli_io, "continue_branch", counted)
    spec = tmp_path / "sweep.ini"
    spec.write_text("[sweep]\ncommand = curve\nd = 2\np = 2.0083\n"
                    "theta = 0.8 0.9 1.0\n")
    out_dir = tmp_path / "sweep"
    assert run(["sweep", "--spec", str(spec), "--out-dir",
                str(out_dir)]) == 3
    capsys.readouterr()
    assert calls == [(2, 2.0083)]
    with pytest.raises(DomainError) as alone:
        continue_branch(2, 2.0083, ContinuationConfig())
    rows = read_csv(out_dir / "aggregate.csv")
    assert [r[4:] for r in rows[1:]] == [
        [theta, "failed", f"DomainError: {alone.value}", ""]
        for theta in ("0.80000000000000004", "0.90000000000000002", "1")]
    # the memo keeps the error, but no frame of the solver that raised it
    kept = cli_io._branch_or_failure(2, 2.0083, ContinuationConfig())
    assert isinstance(kept, DomainError)
    assert kept.__cause__ is None and kept.__context__ is None
    tb = kept.__traceback__
    while tb is not None:
        assert tb.tb_frame.f_globals["__name__"] != "cknlab.cylinder_solver"
        tb = tb.tb_next


def test_a_point_that_stalls_in_the_solver_fails_alone(fresh_branch_memo,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    # the continuation stalls at p = 3.0 only, and each call leaves the id
    # of the process that made it; only workers started by fork inherit
    # the patch, so only there do two workers run the same code as one
    calls_dir = tmp_path / "calls"

    def stalls_at_three(d, p, config):
        (calls_dir / repr(p)).write_text(str(os.getpid()))
        if p == 3.0:
            raise ContinuationStalled(
                "step size fell below its floor at lam=1.00000", lam=1.0)
        return continue_branch(d, p, config)

    monkeypatch.setattr(cli_io, "continue_branch", stalls_at_three)
    spec = tmp_path / "sweep.ini"
    spec.write_text("[sweep]\ncommand = curve\nd = 5\np = 2.8 3.0\n"
                    "theta = 0.9\n[curve]\nm_cells = 120\nnz = 8\n"
                    "lambda_max = 5.0\n")
    calls_dir.mkdir()
    trees = {}
    counts = (1, 2) if multiprocessing.get_start_method() == "fork" else (1,)
    for workers in counts:
        # each run calls afresh and overwrites both records
        cli_io._branch_or_failure.cache_clear()
        out_dir = tmp_path / f"grid_{workers}"
        assert run(["sweep", "--spec", str(spec), "--out-dir", str(out_dir),
                    "--workers", str(workers)]) == 3
        assert "point_0001: ContinuationStalled: " in capsys.readouterr().err
        here = {path.name: int(path.read_text()) == os.getpid()
                for path in calls_dir.iterdir()}
        # one worker runs both groups here; two fork, one per group
        assert here == {"2.8": workers == 1, "3.0": workers == 1}
        manifest = json.loads((out_dir / "sweep.manifest.json").read_text())
        assert manifest["settings"]["workers"] == workers
        assert manifest["summary"]["n_failed"] == 1
        trees[workers] = artifact_bytes(out_dir)
    assert all(tree == trees[1] for tree in trees.values())
    rows = read_csv(tmp_path / "grid_1" / "aggregate.csv")
    assert [r[5:] for r in rows[1:]] == [
        ["ok", "", "point_0000/curve.csv"],
        ["failed", "ContinuationStalled: step size fell below its floor at "
                   "lam=1.00000", ""],
    ]


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
        "[sweep]\ncommand = params\nd = 3\nq = 1\n",  # unknown [sweep] key
        "[sweep]\ncommand = criterion\ntheta = 1\n",  # axis not a setting
        "[sweep]\nd = 3\n",                          # missing command
        "[sweep]\ncommand = sweep\nd = 3\n",         # not a target
        "[sweep]\ncommand = params\nd = 3 1\n",      # axis value below 2
        "[other]\nd = 3\n",                          # no [sweep] section
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
        # every message names the file, so a batch of specs says which
        # one failed
        assert str(spec) in err, err
        if "[params]" in (text or ""):
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
