"""End-to-end tests of the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gsynth
from gsynth import (
    CovarianceMatrix,
    GraphMatrix,
    factor_covariance,
    graph_to_covariance,
    states,
    synthesize,
    verify_constraints,
)
from gsynth.cli import main
from gsynth.dynamics import Trajectory
from gsynth.fileio import load_realization, save_covariance, save_graph, save_realization
from gsynth.numerics import DEFAULT_TOL
from conftest import (
    THERMAL_TMS_NEGATIVITY,
    THERMAL_TMS_PURITY,
    THERMAL_TMS_V,
    cluster_parts,
    eight_mode_graph,
    pair_graph,
    tms_realization,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tms(tmp_path, alpha=0.7):
    path = tmp_path / "tms.json"
    save_covariance(path, states.two_mode_squeezed(alpha))
    return path


def test_analyze_vacuum(tmp_path, capsys):
    path = tmp_path / "vacuum.json"
    save_covariance(path, states.vacuum(2))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["purity"] == pytest.approx(1.0, abs=1e-12)
    assert report["pure"] is True
    assert_allclose(np.array(report["graph"]["X"]), np.zeros((2, 2)), atol=1e-12)
    assert_allclose(np.array(report["graph"]["Y"]), np.eye(2), atol=1e-12)
    assert report["log_negativity"] == pytest.approx(0.0, abs=1e-12)


def test_analyze_thermal_reference(tmp_path, capsys):
    path = tmp_path / "thermal.json"
    save_covariance(path, CovarianceMatrix(THERMAL_TMS_V))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pure"] is False
    assert report["graph"] is None
    assert report["purity"] == pytest.approx(THERMAL_TMS_PURITY, abs=1e-3)
    assert report["log_negativity"] == pytest.approx(THERMAL_TMS_NEGATIVITY, abs=1e-3)


def test_analyze_rejects_asymmetric(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {"kind": "covariance", "modes": 1, "data": [[0.5, 0.1], [0.0, 0.5]]}
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "symmetric" in err


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "covariance",\n  "modes": }')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 2" in err


def test_feasible_exit_codes(tmp_path, capsys):
    tms = write_tms(tmp_path)
    code, out, _ = run(capsys, "feasible", str(tms))
    assert code == 0
    assert json.loads(out)["certificate"]["feasible"] is True

    cluster = tmp_path / "cluster.json"
    save_covariance(cluster, cluster_parts(0.5).cov)
    code, out, _ = run(capsys, "feasible", str(cluster))
    assert code == 2
    report = json.loads(out)
    assert report["certificate"]["feasible"] is False
    assert "component size 3" in report["certificate"]["reason"]


def test_synthesize_two_mode_squeezed(tmp_path, capsys):
    tms = write_tms(tmp_path)
    out_path = tmp_path / "design.json"
    code, out, _ = run(capsys, "synthesize", str(tms), "-o", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["feasible"] is True
    assert report["metrics"]["hurwitz"] is True
    assert report["metrics"]["steady_state_max_error"] <= 1e-8
    assert report["metrics"]["constraints"] == {
        "passive_diagonal": True, "single_channel": True, "rank_condition": True}
    assert_allclose(np.array(report["realization"]["R"]), np.diag([1.0, -1.0]), atol=0)
    assert out_path.exists()
    realization, noise_rows = load_realization(out_path)
    assert realization.n_channels == 1
    assert noise_rows.shape == (0, 4)


def test_synthesize_cluster_infeasible(tmp_path, capsys):
    cluster = tmp_path / "cluster.json"
    save_covariance(cluster, cluster_parts(0.5).cov)
    code, out, _ = run(capsys, "synthesize", str(cluster))
    assert code == 2
    assert "component size 3" in json.loads(out)["certificate"]["reason"]
    assert not (tmp_path / "cluster.realization.json").exists()


def test_synthesize_impure_input(tmp_path, capsys):
    path = tmp_path / "thermal.json"
    save_covariance(path, CovarianceMatrix(THERMAL_TMS_V))
    code, _, err = run(capsys, "synthesize", str(path))
    assert code == 3
    assert "not pure" in err
    code, _, _ = run(capsys, "feasible", str(path))
    assert code == 3


def test_synthesize_eight_mode_graph_input(tmp_path, capsys):
    path = tmp_path / "eight.json"
    save_graph(path, eight_mode_graph())
    code, out, _ = run(capsys, "synthesize", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["realization"]["channels"] == 1
    assert_allclose(np.array(report["realization"]["R"]),
                    np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]), atol=0)
    assert report["metrics"]["steady_state_max_error"] <= 1e-8


def test_verify_roundtrip(tmp_path, capsys):
    tms = write_tms(tmp_path)
    code, out, _ = run(capsys, "synthesize", str(tms))
    assert code == 0
    emitted = json.loads(out)["realization"]["path"]
    code, out, _ = run(capsys, "verify", emitted, str(tms))
    assert code == 0
    report = json.loads(out)
    assert report["generates_target"] is True
    assert report["max_error"] <= 1e-8
    assert report["violations"] == []


def test_verify_wrong_target(tmp_path, capsys):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))
    vacuum = tmp_path / "vacuum.json"
    save_covariance(vacuum, states.vacuum(2))
    code, out, _ = run(capsys, "verify", str(tmp_path / "tms.realization.json"), str(vacuum))
    assert code == 0
    report = json.loads(out)
    assert report["generates_target"] is False
    assert report["max_error"] > 0.1


def test_simulate_fixed_point_constant(tmp_path, capsys):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))
    code, out, _ = run(capsys, "simulate", str(tmp_path / "tms.realization.json"),
                       "--v0", str(tms), "--t-max", "5", "--steps", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("t,V_0_0,V_0_1,V_0_2,V_0_3,V_1_1,V_1_2,V_1_3,V_2_2,V_2_3,V_3_3,"
                        "purity")
    first = np.array([float(x) for x in lines[1].split(",")[1:]])
    for line in lines[2:]:
        row = np.array([float(x) for x in line.split(",")[1:]])
        assert np.abs(row - first).max() < 1e-9


def test_simulate_vacuum_converges_to_pure(tmp_path, capsys):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))
    code, out, _ = run(capsys, "simulate", str(tmp_path / "tms.realization.json"),
                       "--t-max", "60", "--steps", "61")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[-1]) == pytest.approx(1.0, abs=1e-6)


def test_simulate_writes_nan_purity_for_nonpositive_determinant(tmp_path, capsys, monkeypatch):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))

    def singular_samples(system, v0, times):
        covs = np.stack([np.zeros((4, 4)), v0.V, np.diag([-1.0, 1.0, 1.0, 1.0])])
        return Trajectory(times=times, means=np.zeros((3, 4)), covariances=covs)

    monkeypatch.setattr("gsynth.cli.evolve", singular_samples)
    code, out, _ = run(capsys, "simulate", str(tmp_path / "tms.realization.json"),
                       "--t-max", "2", "--steps", "3")
    assert code == 0
    purities = [line.split(",")[-1] for line in out.strip().splitlines()[1:]]
    assert purities == ["nan", "1", "nan"]


def test_simulate_unstable_requires_flag(tmp_path, capsys):
    real = tms_realization(0.7)
    from gsynth.synthesis import Realization

    undriven = Realization(R=real.R, Gamma=real.Gamma, P=real.P,
                           G=real.G, C=np.zeros((1, 4), dtype=complex), graph=real.graph)
    path = tmp_path / "undriven.json"
    save_realization(path, undriven)
    code, _, err = run(capsys, "simulate", str(path), "--t-max", "1", "--steps", "3")
    assert code == 4
    assert "Hurwitz" in err
    code, out, _ = run(capsys, "simulate", str(path), "--t-max", "1", "--steps", "3",
                       "--allow-unstable")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_thermal_report_and_emit(tmp_path, capsys):
    tms = write_tms(tmp_path)
    real_path = tmp_path / "design.json"
    run(capsys, "synthesize", str(tms), "-o", str(real_path))
    # overwrite with the reference-seed design so degraded values are the
    # frozen ones (the thermal steady state depends on the coupling scale)
    save_realization(real_path, tms_realization(0.7))
    augmented = tmp_path / "augmented.json"
    code, out, _ = run(capsys, "thermal", str(real_path),
                       "--gamma", "0.01", "--nbar", "10", "--emit", str(augmented))
    assert code == 0
    report = json.loads(out)
    assert report["with_coupling"]["purity"] == pytest.approx(THERMAL_TMS_PURITY, abs=1e-3)
    assert report["with_coupling"]["log_negativity"] == pytest.approx(
        THERMAL_TMS_NEGATIVITY, abs=1e-3)
    assert report["without_coupling"]["purity"] == pytest.approx(1.0 / 441.0, abs=1e-9)
    assert report["without_coupling"]["log_negativity"] == 0.0
    assert report["target_distance"] <= 1.0

    # the emitted augmented realization simulates to the degraded purity
    code, out, _ = run(capsys, "simulate", str(augmented), "--t-max", "60", "--steps", "61")
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert float(last[-1]) == pytest.approx(THERMAL_TMS_PURITY, abs=1e-3)


@pytest.mark.parametrize("spec", ["", ","])
def test_thermal_emit_with_no_modes(tmp_path, capsys, spec):
    # no bath is zero rows: the report's with-coupling state is the design's
    # own, and the emitted file carries no C_noise
    tms = write_tms(tmp_path)
    design = tmp_path / "design.json"
    run(capsys, "synthesize", str(tms), "-o", str(design))
    emitted = tmp_path / "emitted.json"
    code, out, err = run(capsys, "thermal", str(design), "--gamma", "0.01", "--nbar", "1",
                         "--modes", spec, "--emit", str(emitted))
    assert code == 0, err
    report = json.loads(out)
    assert report["modes"] == []
    assert report["without_coupling"] is None
    assert "C_noise" not in json.loads(emitted.read_text())
    assert load_realization(emitted)[1].shape == (0, 4)


def _verify_emitted_thermal(tmp_path, capsys, copies, *thermal_args) -> dict:
    """``verify --target-tol 0`` of the file ``thermal --emit`` wrote, against its report.

    The design is ``copies`` copies of tms(0.7); the target is the
    with-coupling steady state the same ``thermal`` run reported.
    """
    tms = factor_covariance(states.two_mode_squeezed(0.7))
    graph = tmp_path / "graph.json"
    save_graph(graph, GraphMatrix(np.kron(np.eye(copies), tms.X), np.kron(np.eye(copies), tms.Y)))
    design, noisy, steady = (tmp_path / f"{name}.json" for name in ("design", "noisy", "steady"))
    assert run(capsys, "synthesize", str(graph), "-o", str(design))[0] == 0
    code, out, _ = run(capsys, "thermal", str(design), "--gamma", "0.01", "--nbar", "10",
                       *thermal_args, "--emit", str(noisy))
    assert code == 0
    reported = np.array(json.loads(out)["with_coupling"]["covariance"])
    save_covariance(steady, CovarianceMatrix(reported))
    code, out, _ = run(capsys, "verify", str(noisy), str(steady), "--target-tol", "0")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("copies", [1, 2, 4])
def test_thermal_report_matches_its_emitted_design(tmp_path, capsys, copies):
    # the thermal report and verify of the file it emitted solve one system,
    # so the reported steady state is the emitted design's to the last bit
    report = _verify_emitted_thermal(tmp_path, capsys, copies)
    assert report["max_error"] == 0.0
    assert report["generates_target"] is True


@pytest.mark.parametrize("copies", [1, 2, 4])
def test_thermal_report_on_one_mode_matches_its_emitted_design(tmp_path, capsys, copies):
    # a bath on mode 0 alone does not shift the drift uniformly, so thermal
    # and verify both take the drift's own eigendecomposition, not the
    # design's kept basis; they still agree to the last bit
    report = _verify_emitted_thermal(tmp_path, capsys, copies, "--modes", "0")
    assert report["max_error"] == 0.0
    assert report["generates_target"] is True


def test_realization_file_roundtrip_unchanged(tmp_path, capsys):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))
    emitted = tmp_path / "tms.realization.json"
    before = emitted.read_text()
    realization, _ = load_realization(emitted)
    save_realization(emitted, realization)
    assert emitted.read_text() == before


def test_tol_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    tms = write_tms(tmp_path)
    monkeypatch.setenv("GSYNTH_TOL", "not-a-number")
    code, _, err = run(capsys, "analyze", str(tms))
    assert code == 1
    assert "GSYNTH_TOL" in err
    code, _, _ = run(capsys, "analyze", str(tms), "--tol", "1e-9")
    assert code == 0  # the flag wins over the broken environment variable


@pytest.mark.parametrize("command, tol_flag, env, source", [
    ("synthesize", "-1", None, "--tol"),
    ("synthesize", "nan", None, "--tol"),
    ("feasible", None, "-1", "GSYNTH_TOL"),
    ("analyze", None, "inf", "GSYNTH_TOL"),
])
def test_invalid_tolerance_is_input_error(tmp_path, capsys, monkeypatch,
                                          command, tol_flag, env, source):
    # a pure state must not come back "not pure" because the tolerance is unusable
    tms = write_tms(tmp_path)
    if env is None:
        monkeypatch.delenv("GSYNTH_TOL", raising=False)
    else:
        monkeypatch.setenv("GSYNTH_TOL", env)
    argv = [command, str(tms)] + (["--tol", tol_flag] if tol_flag else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert source in err


@pytest.mark.parametrize("command, options, flag", [
    ("simulate", ("--steps", "0"), "--steps"),
    ("simulate", ("--steps", "-3"), "--steps"),
    ("simulate", ("--t-max", "-5"), "--t-max"),
    ("simulate", ("--t-max", "inf"), "--t-max"),
    ("simulate", ("--t-max", "nan"), "--t-max"),
    ("thermal", ("--gamma", "-0.1", "--nbar", "1"), "--gamma"),
    ("thermal", ("--gamma", "0.1", "--nbar", "-1"), "--nbar"),
    ("verify", ("--target-tol", "-1"), "--target-tol"),
])
def test_invalid_numeric_option_is_input_error(tmp_path, capsys, command, options, flag):
    tms = write_tms(tmp_path)
    design = tmp_path / "design.json"
    save_realization(design, tms_realization(0.7))
    argv = [command, str(design)] + ([str(tms)] if command == "verify" else []) + list(options)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


def test_synthesize_has_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["synthesize", str(write_tms(tmp_path)), "--seed", "3"])
    assert excinfo.value.code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (("synthesize",), "state"),
    (("verify", "design.json"), "target"),
    (("feasible", "tms.json", "--tol", "abc"), "--tol"),
    (("frobnicate",), "frobnicate"),
])
def test_usage_error_exits_1(capsys, argv, needle):
    # argparse's own status 2 would read as "infeasible target"
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["synthesize", "--help"])
    assert excinfo.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_commands_return_reports_and_write_nothing(tmp_path, capsys):
    # each command maps its arguments to (report, exit code); only main emits
    from gsynth import cli

    tms = write_tms(tmp_path)
    cluster = tmp_path / "cluster.json"
    save_covariance(cluster, cluster_parts(0.5).cov)
    design = tmp_path / "design.json"
    save_realization(design, tms_realization(0.7))
    cases = [
        (cli.cmd_analyze, ["analyze", str(tms)], dict, 0),
        (cli.cmd_feasible, ["feasible", str(tms)], dict, 0),
        (cli.cmd_feasible, ["feasible", str(cluster)], dict, 2),
        (cli.cmd_synthesize, ["synthesize", str(tms), "-o", str(tmp_path / "out.json")], dict, 0),
        (cli.cmd_synthesize, ["synthesize", str(cluster)], dict, 2),
        (cli.cmd_verify, ["verify", str(design), str(tms)], dict, 0),
        (cli.cmd_simulate, ["simulate", str(design), "--steps", "3"], str, 0),
        (cli.cmd_thermal, ["thermal", str(design), "--gamma", "0.01", "--nbar", "1"], dict, 0),
    ]
    for command, argv, kind, expected in cases:
        args = cli._build_parser().parse_args(argv)
        assert args.func is command
        report, code = command(args)
        assert (type(report), code) == (kind, expected), argv
        assert capsys.readouterr() == ("", ""), argv
        code = main(argv)
        assert type(code) is int and code == expected
        assert capsys.readouterr().out != ""


def test_feasibility_is_tolerance_sensitive(tmp_path, capsys, monkeypatch):
    # a coupling of 1e-6 is an edge at the default threshold but a
    # structural zero at 1e-4; the loosened reading is a valid scalar pair
    from gsynth import GraphMatrix
    from gsynth.fileio import save_graph as _save_graph

    eps = 1e-6
    z = np.array([[1j, eps], [eps, 0.5 + 1j]])
    path = tmp_path / "weakly_coupled.json"
    _save_graph(path, GraphMatrix(z.real, z.imag))

    code, out, _ = run(capsys, "feasible", str(path))
    assert code == 2
    assert "membership" in json.loads(out)["certificate"]["reason"]

    code, out, _ = run(capsys, "feasible", str(path), "--tol", "1e-4")
    assert code == 0
    assert json.loads(out)["certificate"]["blocks"][0]["tag"] == "pi"

    monkeypatch.setenv("GSYNTH_TOL", "1e-4")
    code, _, _ = run(capsys, "feasible", str(path))
    assert code == 0


def test_csv_report_format(tmp_path, capsys):
    path = tmp_path / "vacuum.json"
    save_covariance(path, states.vacuum(1))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "purity" in keys and "pure" in keys


_INPUT = ["inputs.state.path", "inputs.state.sha256"]
_CERTIFICATE = ["certificate.feasible", "certificate.reason"]
_CONSTRAINTS = ["passive_diagonal", "single_channel", "rank_condition"]
_METRICS = ["purity", "log_negativity", "covariance"]
REPORT_KEYS = {
    "analyze": ["command", *_INPUT, "modes", "purity", "pure", "graph.X", "graph.Y",
                "log_negativity"],
    "feasible": ["command", *_INPUT, "modes", *_CERTIFICATE, "certificate.permutation",
                 "certificate.blocks"],
    "feasible infeasible": ["command", *_INPUT, "modes", *_CERTIFICATE],
    "synthesize": ["command", *_INPUT, "modes", *_CERTIFICATE, "certificate.permutation",
                   "certificate.blocks",
                   *(f"realization.{k}" for k in ("path", "channels", "R", "Gamma", "P", "G", "C")),
                   *(f"metrics.{k}" for k in ("hurwitz", "lyapunov_residual",
                                              "steady_state_max_error", "steady_purity")),
                   *(f"metrics.constraints.{k}" for k in _CONSTRAINTS), "violations"],
    "verify": ["command", "inputs.realization.path", "inputs.realization.sha256",
               "inputs.target.path", "inputs.target.sha256", "hurwitz", "lyapunov_residual",
               "max_error", "steady_purity", "generates_target",
               *(f"constraints.{k}" for k in _CONSTRAINTS), "violations"],
    "thermal": ["command", "inputs.realization.path", "inputs.realization.sha256",
                "inputs.target.path", "inputs.target.sha256", "gamma", "nbar", "modes",
                *(f"with_coupling.{k}" for k in _METRICS),
                *(f"without_coupling.{k}" for k in _METRICS), "target_distance", "emitted"],
}


def _key_paths(value, prefix=""):
    if not isinstance(value, dict):
        return [prefix]
    return [path for key, item in value.items()
            for path in _key_paths(item, f"{prefix}.{key}" if prefix else key)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(REPORT_KEYS))
def test_report_key_order(tmp_path, capsys, case, fmt):
    # keys only, in order: the values differ across BLAS builds, the layout may not
    tms = write_tms(tmp_path)
    cluster = tmp_path / "cluster.json"
    save_covariance(cluster, cluster_parts(0.5).cov)
    design = tmp_path / "design.json"
    save_realization(design, tms_realization(0.7))
    argv = {
        "analyze": ["analyze", str(tms)],
        "feasible": ["feasible", str(tms)],
        "feasible infeasible": ["feasible", str(cluster)],
        "synthesize": ["synthesize", str(tms), "-o", str(tmp_path / "out.json")],
        "verify": ["verify", str(design), str(tms)],
        "thermal": ["thermal", str(design), "--gamma", "0.01", "--nbar", "10",
                    "--target", str(tms), "--emit", str(tmp_path / "noisy.json")],
    }[case]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == (2 if case == "feasible infeasible" else 0)
    if fmt == "json":
        keys = _key_paths(json.loads(out))
    else:
        lines = out.splitlines()
        assert lines[0] == "key,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert keys == REPORT_KEYS[case]


def test_unknown_file_is_io_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/state.json")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command, options", [
    ("synthesize", ("-o",)),
    ("simulate", ("-o",)),
    ("thermal", ("--gamma", "0.01", "--nbar", "1", "--emit")),
])
def test_unwritable_output_path_is_io_error(tmp_path, capsys, command, options):
    tms = write_tms(tmp_path)
    design = tmp_path / "design.json"
    save_realization(design, tms_realization(0.7))
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, command, str(tms if command == "synthesize" else design),
                         *options, str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_graph_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    save_graph(path, pair_graph())
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pure"] is True
    assert report["purity"] == pytest.approx(1.0, abs=1e-9)
    assert report["log_negativity"] == pytest.approx(1.5445, abs=1e-3)


def test_loader_rejects_shape_mismatch(tmp_path, capsys):
    path = tmp_path / "mismatch.json"
    payload = {"kind": "covariance", "modes": 2, "data": [[0.5, 0.0], [0.0, 0.5]]}
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "4x4" in err


@pytest.mark.parametrize("kind", ["covariance", "realization"])
def test_boolean_mode_count_rejected(tmp_path, capsys, kind):
    # JSON true is a Python bool, which isinstance(..., int) accepts as 1
    state = tmp_path / "vacuum.json"
    save_covariance(state, states.vacuum(1))
    path = tmp_path / "bool.json"
    if kind == "covariance":
        argv = ("analyze", str(path))
        payload = {"kind": "covariance", "modes": True, "data": [[0.5, 0.0], [0.0, 0.5]]}
    else:
        argv = ("verify", str(path), str(state))
        save_realization(path, synthesize(factor_covariance(states.vacuum(1))))
        payload = {**json.loads(path.read_text()), "modes": True}
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: 'modes' must be a positive integer\n"


def test_simulate_v0_mode_mismatch(tmp_path, capsys):
    tms = write_tms(tmp_path)
    run(capsys, "synthesize", str(tms))
    v0 = tmp_path / "v0.json"
    save_covariance(v0, states.vacuum(3))
    code, _, err = run(capsys, "simulate", str(tmp_path / "tms.realization.json"),
                       "--v0", str(v0))
    assert code == 1
    assert "modes" in err


def test_interleaved_covariance_ordering(tmp_path, capsys):
    cov = states.two_mode_squeezed(0.6)
    idx = [0, 2, 1, 3]  # (q1,p1,q2,p2) positions of (q1,q2,p1,p2)
    interleaved = cov.V[np.ix_(idx, idx)]
    path = tmp_path / "interleaved.json"
    path.write_text(json.dumps({
        "kind": "covariance", "modes": 2, "ordering": "interleaved",
        "data": interleaved.tolist(),
    }))
    from gsynth.fileio import load_state_file

    loaded = load_state_file(path)
    assert_allclose(loaded.V, cov.V, atol=0)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["log_negativity"] == pytest.approx(1.2, abs=1e-9)


def test_unknown_ordering_rejected(tmp_path, capsys):
    path = tmp_path / "weird.json"
    path.write_text(json.dumps({
        "kind": "covariance", "modes": 1, "ordering": "diagonal",
        "data": [[0.5, 0.0], [0.0, 0.5]],
    }))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "ordering" in err


def test_verify_unstable_reports_nulls(tmp_path, capsys):
    real = tms_realization(0.7)
    from gsynth.synthesis import Realization

    undriven = Realization(R=real.R, Gamma=real.Gamma, P=real.P,
                           G=real.G, C=np.zeros((1, 4), dtype=complex), graph=real.graph)
    path = tmp_path / "undriven.json"
    save_realization(path, undriven)
    target = write_tms(tmp_path)
    code, out, _ = run(capsys, "verify", str(path), str(target))
    assert code == 0
    report = json.loads(out)
    assert report["hurwitz"] is False
    assert report["generates_target"] is False
    assert report["max_error"] is None
    assert report["steady_purity"] is None


@pytest.mark.parametrize("command", ["synthesize", "verify"])
def test_one_rank_test_per_command_at_tol(tmp_path, capsys, monkeypatch, command):
    tms = write_tms(tmp_path)
    design = tmp_path / "design.json"
    run(capsys, "synthesize", str(tms), "-o", str(design))
    calls = []

    def recording(realization, tol=DEFAULT_TOL):
        calls.append(tol)
        return verify_constraints(realization, tol)

    for module in ("gsynth.cli", "gsynth.dynamics", "gsynth.synthesis"):
        monkeypatch.setattr(f"{module}.verify_constraints", recording, raising=False)
    argv = {"synthesize": ["synthesize", str(tms), "-o", str(design)],
            "verify": ["verify", str(design), str(tms)]}[command]
    code, out, _ = run(capsys, *argv, "--tol", "1e-3")
    assert code == 0
    assert calls == [1e-3]
    report = json.loads(out)
    flags = report["metrics"]["constraints"] if command == "synthesize" else report["constraints"]
    assert all(flags.values())


@pytest.mark.parametrize("fixture", ["tms", "eight-mode"])
def test_synthesize_decomposes_once(tmp_path, capsys, monkeypatch, fixture):
    import gsynth.structure

    if fixture == "tms":
        state = write_tms(tmp_path)
    else:
        state = tmp_path / "eight.json"
        save_graph(state, eight_mode_graph())
    design = tmp_path / "design.json"
    code, expected_out, _ = run(capsys, "synthesize", str(state), "-o", str(design))
    expected_file = design.read_bytes()
    calls = []
    original = gsynth.structure._decompose

    # cli and synthesize both ask decompose; the graph keeps the first
    # answer, so the classification itself runs once
    def counted(graph, tol):
        calls.append(tol)
        return original(graph, tol)

    monkeypatch.setattr(gsynth.structure, "_decompose", counted)
    design.unlink()
    assert run(capsys, "synthesize", str(state), "-o", str(design)) == (code, expected_out, "")
    assert code == 0
    assert len(calls) == 1
    assert design.read_bytes() == expected_file


COLD_PATH = """
import contextlib, io, json, sys
import gsynth.cli

def scipy_loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

good, bad, unstable, out = sys.argv[1:5]
design, noisy = out + "/design.json", out + "/noisy.json"
seen = {"import": [None, scipy_loaded()]}
for name, argv in (("analyze", ["analyze", good]),
                   ("feasible", ["feasible", good]),
                   ("feasible infeasible", ["feasible", bad]),
                   ("synthesize infeasible", ["synthesize", bad]),
                   ("synthesize", ["synthesize", good, "-o", design]),
                   ("verify", ["verify", design, good]),
                   ("simulate", ["simulate", design, "--t-max", "6", "--steps", "13"]),
                   ("thermal", ["thermal", design, "--gamma", "0.01", "--nbar", "10",
                                "--emit", noisy]),
                   ("simulate thermal", ["simulate", noisy, "--steps", "5"]),
                   ("synthesize unstable", ["synthesize", unstable, "-o", out + "/unstable.json"]),
                   ("verify unstable", ["verify", out + "/unstable.json", unstable])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gsynth.cli.main(argv)
    seen[name] = [code, scipy_loaded()]
print(json.dumps(seen))
"""


def test_cold_path_does_not_load_scipy(tmp_path):
    # every command, including a feasible synthesize and the steady-state
    # and propagation work of verify, simulate and thermal, runs on numpy
    # alone: the eigenbasis Lyapunov solve and the numpy Pade exponential.
    # A design that is not Hurwitz is refused on its eig alone.
    bad = tmp_path / "cluster.json"
    save_covariance(bad, cluster_parts(0.5).cov)
    unstable = _scalar_beside_tms(tmp_path / "unstable.json", 1e10j)
    env = {**os.environ, "PYTHONPATH": str(Path(gsynth.__file__).resolve().parents[1])}
    env.pop("GSYNTH_TOL", None)
    for name, cov in (("tms", states.two_mode_squeezed(0.7)),
                      ("eight-mode", graph_to_covariance(eight_mode_graph()))):
        out = tmp_path / name
        out.mkdir()
        good = out / "good.json"
        save_covariance(good, cov)
        proc = subprocess.run([sys.executable, "-c", COLD_PATH, str(good), str(bad),
                               str(unstable), str(out)],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen == {
            "import": [None, False],
            "analyze": [0, False],
            "feasible": [0, False],
            "feasible infeasible": [2, False],
            "synthesize infeasible": [2, False],
            "synthesize": [0, False],
            "verify": [0, False],
            "simulate": [0, False],
            "thermal": [0, False],
            "simulate thermal": [0, False],
            "synthesize unstable": [0, False],
            "verify unstable": [0, False],
        }, name
        realization, _ = load_realization(out / "design.json")
        assert realization.n_channels == 1


def test_feasible_at_zero_tolerance(tmp_path, capsys):
    # tol = 0 means equality up to rounding: the pure tms state is pure and
    # its coupled pair passes the membership test
    tms = write_tms(tmp_path)
    code, out, _ = run(capsys, "feasible", str(tms), "--tol", "0")
    assert code == 0
    assert json.loads(out)["certificate"]["feasible"] is True
    code, out, _ = run(capsys, "analyze", str(tms), "--tol", "0")
    assert code == 0
    assert json.loads(out)["pure"] is True


def _scalar_beside_tms(path, scalar):
    """Write the graph of ``tms(0.7)`` beside a lone scalar ``z_33 = scalar``."""
    from gsynth import GraphMatrix, factor_covariance

    z = np.zeros((3, 3), dtype=complex)
    z[:2, :2] = factor_covariance(states.two_mode_squeezed(0.7)).Z
    z[2, 2] = scalar
    save_graph(path, GraphMatrix(z.real, z.imag))
    return path


@pytest.mark.parametrize("scalar, hurwitz", [(1e4 * (0.3 + 1j), True), (1e10j, False)])
def test_synthesize_beside_a_large_scalar(tmp_path, capsys, scalar, hurwitz):
    # the diffusion and physicality floors scale with their matrices, so a
    # large lone scalar beside tms(0.7) neither stops on an absolute floor
    # nor escapes as a traceback; at 1e10 the design is not Hurwitz
    path = _scalar_beside_tms(tmp_path / "graph.json", scalar)
    code, out, err = run(capsys, "synthesize", str(path), "-o", str(tmp_path / "design.json"))
    assert code == 0, err
    metrics = json.loads(out)["metrics"]
    assert metrics["hurwitz"] is hurwitz
    if hurwitz:
        code, out, _ = run(capsys, "verify", str(tmp_path / "design.json"), str(path))
        assert code == 0
        assert json.loads(out)["generates_target"] is True


@pytest.mark.parametrize("scalar", [10 ** 4.75 * 1j, 1e6j], ids=["1e4.75i", "1e6i"])
def test_ill_conditioned_design_is_written_and_fails(tmp_path, capsys, scalar):
    # the design's spectral abscissa is about -1e-11, so its steady state
    # misses the target, and at 10**4.75 violates the uncertainty relation;
    # either way synthesize writes the design and verify reports failure
    path = _scalar_beside_tms(tmp_path / "graph.json", scalar)
    design = tmp_path / "design.json"
    assert run(capsys, "feasible", str(path))[0] == 0
    code, _, err = run(capsys, "synthesize", str(path), "-o", str(design))
    assert code == 0, err
    assert load_realization(design)[0].n_channels == 1
    code, out, _ = run(capsys, "verify", str(design), str(path))
    assert code == 0
    assert json.loads(out)["generates_target"] is False
    assert run(capsys, "thermal", str(design), "--gamma", "0.01", "--nbar", "10")[0] == 0


def test_unphysical_steady_state_is_a_failing_design(tmp_path, capsys, monkeypatch):
    # a Hurwitz design whose solved steady state violates the uncertainty
    # relation is reported, not raised: hurwitz true, the raw solve's error
    # and residual, no purity, and no robustness branch
    import gsynth.dynamics

    tms = write_tms(tmp_path)
    design = tmp_path / "design.json"
    unphysical = 0.4 * np.eye(4)
    monkeypatch.setattr(gsynth.dynamics, "_solve_lyapunov", lambda a, d, basis: unphysical)
    error = np.abs(unphysical - states.two_mode_squeezed(0.7).V).max()
    code, out, err = run(capsys, "synthesize", str(tms), "-o", str(design))
    assert code == 0, err
    metrics = json.loads(out)["metrics"]
    assert metrics["hurwitz"] is True
    assert metrics["steady_state_max_error"] == pytest.approx(error, rel=1e-12)
    assert metrics["lyapunov_residual"] > 0.0
    assert metrics["steady_purity"] is None
    code, out, _ = run(capsys, "verify", str(design), str(tms))
    assert code == 0
    report = json.loads(out)
    assert (report["hurwitz"], report["generates_target"]) == (True, False)
    assert report["max_error"] == pytest.approx(error, rel=1e-12)
    assert report["steady_purity"] is None
    code, out, _ = run(capsys, "thermal", str(design), "--gamma", "0.01", "--nbar", "10")
    assert code == 0
    report = json.loads(out)
    assert report["with_coupling"] is None
    assert report["without_coupling"] is None
    assert report["target_distance"] is None


@pytest.mark.parametrize("command", ["analyze", "feasible", "synthesize"])
def test_position_variance_past_the_graph_floor(tmp_path, capsys, command):
    # V_qq = 1e12 gives Y = 5e-13, under POSDEF_TOL: one error line and
    # exit 1, not a traceback; at 1e11 the state factors as before
    for qq, expected in ((1e12, 1), (1e11, 0)):
        path = tmp_path / f"wide{qq:.0e}.json"
        path.write_text(json.dumps({"kind": "covariance", "modes": 1,
                                    "data": [[qq, 0.0], [0.0, 0.25 / qq]]}))
        code, out, err = run(capsys, command, str(path))
        assert code == expected, err
        if expected:
            assert out == ""
            assert err == ("error: covariance has no graph matrix: imaginary part of graph"
                           " matrix must be positive definite\n")
