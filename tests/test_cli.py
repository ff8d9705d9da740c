"""Command-line interface tests (in-process, plus subprocess smoke tests)."""

import importlib
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import UNSTABLE_WEIGHTS, src_env, write_mocap_csv
from flapsim.cli import main
from flapsim.ioutil import fmt
from flapsim.lqr import default_weights, read_gain_csv, write_gain_csv
from flapsim.pipeline import trajectory_from_runlog

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_offset_scenario(path, duration=0.5, offset=0.01, name="offset", extra=""):
    path.write_text(
        f"name: {name}\n"
        f"duration: {duration}\n"
        "initial:\n"
        f"  pos: [{offset}, 0.0, 0.0]\n"
        "setpoint:\n"
        "  kind: constant\n"
        "  pos: [0.0, 0.0, 0.0]\n" + extra
    )
    return path


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_gains_writes_artifacts(tmp_path, capsys, gain, gain_solution):
    assert main(["gains", "--out", str(tmp_path)]) == 0
    K = read_gain_csv(tmp_path / "gains.csv")
    np.testing.assert_array_equal(K, gain)
    P = read_gain_csv(tmp_path / "gains_P.csv")
    assert P.shape == (10, 10)
    report = (tmp_path / "gains_report.txt").read_text()
    assert "care residual" in report
    assert report.count("j") >= 10  # one eigenvalue line per state
    rho = f"ZOH spectral radius at 240 Hz: {gain_solution.zoh_spectral_radius:.6f}"
    assert rho in report.splitlines()
    out = capsys.readouterr().out
    assert "gain written to" in out
    assert "slowest closed-loop pole" in out
    assert rho in out.splitlines()


def test_gains_quiet_suppresses_stdout(tmp_path, capsys):
    assert main(["gains", "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def _diag_arg(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def test_gains_joint_weight_scaling_is_exact(tmp_path, params):
    # scaling Q and R jointly by a power of two is lossless in floating
    # point, so the solver's normalization makes the gain byte-identical
    w = default_weights(params)
    assert main(["gains", "--out", str(tmp_path / "a")]) == 0
    for name, factor in (("b", 8.0), ("c", 0.125)):
        q = _diag_arg(factor * np.diag(w.Q))
        r = _diag_arg(factor * np.diag(w.R))
        assert main(["gains", "--out", str(tmp_path / name), "--q", q, "--r", r]) == 0
        assert (tmp_path / "a" / "gains.csv").read_bytes() == (
            tmp_path / name / "gains.csv"
        ).read_bytes()


NON_FINITE_WEIGHTS = (["gains", "--q", "nan,1,1,1,1,1,1,1,1,1"], ["gains", "--r", "inf,1,1"])


@pytest.mark.parametrize(
    "argv",
    [
        ["gains", "--r", "1,0,1"],          # singular R
        ["gains", "--r", "1,1"],            # wrong count
        ["gains", "--q", "1,2,three,4,5,6,7,8,9,10"],
        ["gains", "--q", "-1,1,1,1,1,1,1,1,1,1"],
        ["gains", "--params", "no-such-profile"],
        *NON_FINITE_WEIGHTS,
    ],
)
def test_gains_usage_errors_exit_1(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if argv in NON_FINITE_WEIGHTS:
        assert f"error: {argv[1]}: entries must be finite" in err


def test_gains_degenerate_weights_exit_2(tmp_path, capsys):
    zeros = ",".join(["0"] * 10)
    assert main(["gains", "--out", str(tmp_path), "--q", zeros]) == 2
    assert "error:" in capsys.readouterr().err


def test_gains_unstable_when_sampled_exit_2(tmp_path, capsys):
    q = _diag_arg(np.diag(UNSTABLE_WEIGHTS.Q))
    r = _diag_arg(np.diag(UNSTABLE_WEIGHTS.R))
    assert main(["gains", "--out", str(tmp_path), "--q", q, "--r", r]) == 2
    assert "spectral radius" in capsys.readouterr().err
    assert not (tmp_path / "gains.csv").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_bundled_hover(tmp_path, capsys):
    assert main(["simulate", "hover", "--out", str(tmp_path)]) == 0
    log = (tmp_path / "hover_runlog.csv").read_text().splitlines()
    assert len(log) == 481  # header + 2 s at 240 Hz
    out = capsys.readouterr().out
    assert "480 ticks" in out and "rms position error" in out


def test_simulate_accepts_scenario_suffix(tmp_path):
    sub = tmp_path / "s"
    assert main(["simulate", "hover.scenario", "--out", str(sub), "--quiet"]) == 0
    assert (sub / "hover_runlog.csv").exists()


def test_simulate_unknown_scenario_exits_1(tmp_path, capsys):
    assert main(["simulate", "wobble", "--out", str(tmp_path)]) == 1
    assert "neither a file nor one of the bundled" in capsys.readouterr().err


def test_simulate_is_deterministic(tmp_path):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scn), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", str(scn), "--out", str(b), "--quiet"]) == 0
    assert (a / "offset_runlog.csv").read_bytes() == (b / "offset_runlog.csv").read_bytes()


def test_simulate_with_gain_file_matches_default(tmp_path):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["gains", "--out", str(tmp_path), "--quiet"]) == 0
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scn), "--out", str(a), "--quiet"]) == 0
    assert (
        main(
            ["simulate", str(scn), "--out", str(b), "--quiet",
             "--gains", str(tmp_path / "gains.csv")]
        )
        == 0
    )
    assert (a / "offset_runlog.csv").read_bytes() == (b / "offset_runlog.csv").read_bytes()


def test_simulate_seed_and_noise_overrides(tmp_path):
    noisy = "noise:\n  enabled: true\n  pos_sigma: 1.0e-3\n"
    scn = write_offset_scenario(tmp_path / "n.scenario", duration=0.3, name="n",
                                extra=noisy)
    a, b, c, d = (tmp_path / s for s in "abcd")
    assert main(["simulate", str(scn), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", str(scn), "--out", str(b), "--quiet", "--seed", "9"]) == 0
    assert (a / "n_runlog.csv").read_bytes() != (b / "n_runlog.csv").read_bytes()

    quiet_scn = write_offset_scenario(tmp_path / "q.scenario", duration=0.3, name="n")
    assert main(["simulate", str(scn), "--out", str(c), "--quiet", "--noise", "off"]) == 0
    assert main(["simulate", str(quiet_scn), "--out", str(d), "--quiet"]) == 0
    assert (c / "n_runlog.csv").read_bytes() == (d / "n_runlog.csv").read_bytes()


@pytest.mark.parametrize(
    "extra,args,message",
    [
        ("", ["--seed", "-1"], "seed must be a non-negative integer, got -1"),
        ("seed: -3\n", [], "s.scenario: seed must be a non-negative integer, got -3"),
        ('noise: {enabled: "false"}\n', [], "s.scenario: noise: enabled must be true or false"),
        ('use_truth_velocity: "no"\n', [],
         "s.scenario: scenario: unknown keys ['use_truth_velocity']"),
        ("legacy_coriolis: 0\n", [], "s.scenario: scenario: unknown keys ['legacy_coriolis']"),
        ("seed: true\n", [], "s.scenario: scenario: seed must be an integer, got True"),
        ("physics_substeps: true\n", [],
         "s.scenario: scenario: physics_substeps must be an integer, got True"),
        ("control_rate: true\n", [], "s.scenario: scenario: control_rate must be a number, got True"),
        ("dt: 1.0e-4\n", [], "s.scenario: scenario: unknown keys ['dt']"),
        # an int key and a str key do not compare: the error still names both
        ("1: 2\nfoo: 3\n", [], "s.scenario: scenario: unknown keys [1, 'foo']"),
        ("noise: {att_sigma_deg: true}\n", [],
         "s.scenario: noise: att_sigma_deg must be a number, got True"),
        ("disturbances:\n  - {t_start: null, duration: 0.1, force: [0.0, 0.0, 1.0e-4]}\n", [],
         "s.scenario: disturbances[0]: t_start must be a number, got None"),
        ("disturbances:\n"
         "  - {t_start: 0.5, duration: .inf, magnitude_g: 1.0, direction: [0.0, 1.0, 0.0]}\n",
         [], "s.scenario: disturbances[0]: duration must be finite, got inf"),
        ("disturbances:\n  - {t_start: .nan, duration: 0.1, force: [0.0, 0.0, 1.0e-4]}\n", [],
         "s.scenario: disturbances[0]: t_start must be finite, got nan"),
    ],
)
def test_simulate_rejects_bad_seed_and_flags_exits_1(tmp_path, capsys, extra, args, message):
    scn = write_offset_scenario(tmp_path / "s.scenario", extra=extra)
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet", *args]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*_runlog*.csv"))


@pytest.mark.parametrize(
    "body, message",
    [
        ("initial:\n  euler_deg: [0, 0]\nsetpoint:\n  kind: constant\n",
         "initial: euler_deg must be 3 numbers, got [0, 0]"),
        ("setpoint:\n  kind: constant\ndisturbances:\n"
         "  - {t_start: 0.0, duration: 0.05, force: [0.0, 1.0e-4]}\n",
         "disturbances[0]: force must be 3 numbers, got [0.0, 0.0001]"),
        ("setpoint:\n  kind: schedule\n  path: 5\n", "setpoint: path must be a string, got 5"),
        ("setpoint:\n  kind: circle\n  radius: [1, 2]\n  speed: 0.1\n",
         "setpoint: radius must be a number, got [1, 2]"),
    ],
    ids=["euler_deg", "force", "path", "radius"],
)
def test_simulate_rejects_wrong_length_vectors_exits_1(tmp_path, capsys, body, message):
    scn = tmp_path / "v.scenario"
    scn.write_text("name: v\nduration: 0.1\n" + body)
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"{scn}: {message}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_runlog*.csv"))


@pytest.mark.parametrize("name", ["../escaped", "sub/inner"])
def test_simulate_refuses_name_outside_out_exits_1(tmp_path, capsys, name):
    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "sub").mkdir()
    scn = write_offset_scenario(tmp_path / "s.scenario", name=name)
    assert main(["simulate", str(scn), "--out", str(out), "--quiet"]) == 1
    assert f"scenario: name must be a bare file name, got {name!r}" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == \
        ["out", "s.scenario", "sub"]


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: ["simulate", str(write_offset_scenario(
            d / "s.scenario", extra='setpoint:\n  kind: schedule\n  path: ""\n'))],
        lambda d: ["simulate", str(d)],
        lambda d: ["simulate", "hover", "--gains", str(d)],
        lambda d: ["simulate", "hover", "--params", str(d)],
        lambda d: ["gains", "--params", str(d)],
        lambda d: ["validate", str(d)],
        lambda d: ["simulate", "hover", "--out", str(d / "s.scenario")],
    ],
    ids=["schedule_path_is_a_dir", "scenario_is_a_dir", "gains_is_a_dir",
         "params_is_a_dir", "gains_params_is_a_dir", "validate_dir", "out_is_a_file"],
)
def test_os_errors_exit_1(tmp_path, capsys, argv):
    write_offset_scenario(tmp_path / "s.scenario")
    args = argv(tmp_path)
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert main(args + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.rglob("*_runlog*.csv"))


def test_simulate_check_step_prints_the_doubling_line(tmp_path, capsys, monkeypatch, params, gain):
    # the check takes the run simulate has just written as its n-substep run
    from flapsim import cli, harness

    real, runs = harness.run_scenario, []

    def counted(sc, p, K):
        runs.append(sc.physics_substeps)
        return real(sc, p, K)

    monkeypatch.setattr(cli, "run_scenario", counted)
    monkeypatch.setattr(harness, "run_scenario", counted)
    assert main(["simulate", "circle", "--check-step", "--quiet", "--out", str(tmp_path)]) == 0
    assert runs == [4, 8]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("step check: 4 vs 8 substeps per tick")
    d_pos, d_att = (float(v) for v in re.findall(r"difference (\S+) ", out[0]))
    assert 0.0 < d_pos <= 1e-8 and 0.0 < d_att <= 1e-6
    assert (tmp_path / "circle_runlog.csv").exists()
    monkeypatch.undo()
    d_pos, d_att = harness.step_error(cli._resolve_scenario("circle", params), params, gain)
    assert out[0].endswith(f"max position difference {d_pos:.3e} m, "
                           f"max attitude difference {d_att:.3e} rad")


def test_simulate_scales_g_pulses_by_the_params_vehicle(tmp_path, monkeypatch):
    from flapsim import cli
    from flapsim.vehicle import load_params

    veh = tmp_path / "veh.yaml"
    veh.write_text("m: 3.0e-4\n")
    p = load_params(str(veh))
    real, scenarios = cli.run_scenario, []

    def recorded(sc, p, K):
        scenarios.append(sc)
        return real(sc, p, K)

    monkeypatch.setattr(cli, "run_scenario", recorded)
    assert main(["simulate", "disturbance", "--params", str(veh), "--out", str(tmp_path),
                 "--quiet"]) == 0
    (pulse,) = scenarios[0].disturbances
    assert np.linalg.norm(pulse.force_w) == pytest.approx(2.5 * p.total_mass * p.g, rel=1e-12)


def test_simulate_non_finite_params_exits_1(tmp_path, capsys):
    veh = tmp_path / "veh.yaml"
    veh.write_text("roll_slope: .inf\n")
    assert main(["simulate", "hover", "--params", str(veh), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "bad parameter value" in err and "roll_slope must hold only finite numbers" in err
    assert not list(tmp_path.glob("*_runlog*.csv"))


def test_gains_params_file_with_mixed_key_types_exits_1(tmp_path, capsys):
    # an int key and a str key do not compare: the error still names both
    veh = tmp_path / "veh.yaml"
    veh.write_text("1: 2\nfoo: 3\n")
    assert main(["gains", "--params", str(veh), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "unknown parameter keys: [1, 'foo']" in err
    assert "Traceback" not in err
    assert not (tmp_path / "gains.csv").exists()


def test_simulate_divergence_exits_2_with_partial_log(tmp_path, capsys, unstable_gain):
    gains = tmp_path / "unstable.csv"
    write_gain_csv(str(gains), unstable_gain)
    scn = write_offset_scenario(tmp_path / "d.scenario", duration=12.0,
                                offset=0.05, name="blowup")
    assert main(["simulate", str(scn), "--out", str(tmp_path),
                 "--gains", str(gains)]) == 2
    err = capsys.readouterr().err
    assert "diverged" in err and "envelope" in err
    partial = tmp_path / "blowup_runlog_partial.csv"
    assert partial.exists()
    assert len(partial.read_text().splitlines()) > 100


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_runlog_writes_report(tmp_path, capsys):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = tmp_path / "offset_runlog.csv"
    assert main(["validate", str(runlog), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "validation_series.csv").exists()
    report = (tmp_path / "validation_report.txt").read_text()
    assert "error/signal" in report and "w_dot" in report
    assert "series written to" in capsys.readouterr().out


def test_validate_runlog_with_spaced_header(tmp_path):
    # the header is parsed as the table reader parses it, names stripped
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = tmp_path / "offset_runlog.csv"
    header, rest = runlog.read_text().split("\n", 1)
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(header.replace(",", ", ") + "\n" + rest)
    out = tmp_path / "out"
    assert main(["validate", str(spaced), "--out", str(out), "--quiet"]) == 0
    assert main(["validate", str(runlog), "--out", str(tmp_path), "--quiet"]) == 0
    assert ((out / "validation_series.csv").read_bytes()
            == (tmp_path / "validation_series.csv").read_bytes())


def test_validate_stacks_multiple_files(tmp_path):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scn), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", str(scn), "--out", str(b), "--quiet", "--seed", "1"]) == 0
    files = [str(a / "offset_runlog.csv"), str(b / "offset_runlog.csv")]
    assert main(["validate", *files, "--out", str(tmp_path), "--quiet"]) == 0
    series = (tmp_path / "validation_series.csv").read_text().splitlines()
    # 0.5 s at 240 Hz -> 120 ticks, 24 margin samples trimmed per end, twice
    assert len(series) == 1 + 2 * (120 - 48)


def command_rows(log) -> list:
    rows = ["t,A,dA,Vo"]
    for k in range(len(log)):
        rows.append(",".join([fmt(log.t[k]), *(fmt(v) for v in log.cmd[k])]))
    return rows


def test_validate_mocap_with_commands(tmp_path, params, openloop_log):
    mocap = tmp_path / "flight.csv"
    write_mocap_csv(mocap, trajectory_from_runlog(openloop_log))
    cmd = tmp_path / "cmd.csv"
    cmd.write_text("\n".join(command_rows(openloop_log)) + "\n")
    assert (
        main(["validate", str(mocap), "--commands", str(cmd), "--out", str(tmp_path),
              "--quiet"])
        == 0
    )
    assert (tmp_path / "validation_report.txt").exists()


def test_validate_nan_command_exits_1(tmp_path, capsys, openloop_log):
    mocap = tmp_path / "flight.csv"
    write_mocap_csv(mocap, trajectory_from_runlog(openloop_log))
    rows = command_rows(openloop_log)
    rows[41] = rows[41].rsplit(",", 1)[0] + ",nan"  # line 42
    cmd = tmp_path / "cmd.csv"
    cmd.write_text("\n".join(rows) + "\n")
    assert main(["validate", str(mocap), "--commands", str(cmd), "--out", str(tmp_path)]) == 1
    assert f"{cmd}:42: Vo is not finite (nan)" in capsys.readouterr().err
    assert not (tmp_path / "validation_report.txt").exists()


def test_validate_unused_commands_exit_1(tmp_path, capsys, monkeypatch, openloop_log):
    from flapsim import cli

    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = str(tmp_path / "offset_runlog.csv")
    mocap = tmp_path / "flight.csv"
    write_mocap_csv(mocap, trajectory_from_runlog(openloop_log))
    cmd = tmp_path / "cmd.csv"
    cmd.write_text("\n".join(command_rows(openloop_log)) + "\n")
    # refused before any input is reconstructed
    monkeypatch.setattr(cli, "reconstruct", None)
    monkeypatch.setattr(cli, "reconstruct_runlog", None)
    out = tmp_path / "out"
    missing = str(tmp_path / "does_not_exist.csv")
    assert main(["validate", runlog, "--commands", missing, "--out", str(out)]) == 1
    assert f"error: --commands: no mocap input takes {missing}" in capsys.readouterr().err
    assert main(["validate", runlog, str(mocap), "--commands", str(cmd), "--commands", missing,
                 "--commands", str(cmd), "--out", str(out)]) == 1
    assert f"no mocap input takes {missing}, {cmd}\n" in capsys.readouterr().err
    assert not out.exists()


def test_validate_mocap_without_commands_exits_1(tmp_path, capsys, openloop_log):
    mocap = tmp_path / "flight.csv"
    write_mocap_csv(mocap, trajectory_from_runlog(openloop_log))
    assert main(["validate", str(mocap), "--out", str(tmp_path)]) == 1
    assert "--commands" in capsys.readouterr().err


def test_successive_main_calls_share_no_state(tmp_path, capsys, openloop_log):
    # the parser is built once per process; --commands and --cutoff of one
    # call must not reach the next
    mocap = tmp_path / "flight.csv"
    write_mocap_csv(mocap, trajectory_from_runlog(openloop_log))
    cmd = tmp_path / "cmd.csv"
    cmd.write_text("\n".join(command_rows(openloop_log)) + "\n")
    args = ["validate", str(mocap), "--out", str(tmp_path), "--quiet"]
    assert main([*args, "--commands", str(cmd), "--cutoff", "30"]) == 0
    at_30_hz = (tmp_path / "validation_report.txt").read_bytes()
    assert main(args) == 1
    assert "--commands" in capsys.readouterr().err
    assert main([*args, "--commands", str(cmd)]) == 0
    assert (tmp_path / "validation_report.txt").read_bytes() != at_30_hz


def test_validate_has_no_coriolis_variant_flag(tmp_path, capsys, openloop_log):
    # one equation of motion: the retired variant switch is an unknown option
    runlog = tmp_path / "openloop.csv"
    openloop_log.write_csv(runlog)
    assert main(["validate", str(runlog), "--out", str(tmp_path / "out"), "--quiet",
                 "--legacy-coriolis"]) == 1
    assert "unrecognized arguments: --legacy-coriolis" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_truncated_runlog_exits_1(tmp_path, capsys):
    from flapsim.harness import RUNLOG_COLUMNS

    bad = tmp_path / "trunc.csv"
    bad.write_text(",".join(RUNLOG_COLUMNS) + "\n")
    assert main(["validate", str(bad), "--out", str(tmp_path)]) == 1
    assert "no data rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------


def test_envelope_from_runlog(tmp_path, capsys):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = str(tmp_path / "offset_runlog.csv")
    assert main(["envelope", runlog, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "envelope.csv").read_text().splitlines()
    assert lines[0] == "tilt_lo_deg,tilt_hi_deg,speed_lo,speed_hi,count"
    assert len(lines) == 1 + 12 * 16
    total = sum(int(ln.split(",")[-1]) for ln in lines[1:])
    assert total == 120 - 48
    assert "occupied bins" in capsys.readouterr().out


def test_envelope_merges_and_custom_bins(tmp_path):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = str(tmp_path / "offset_runlog.csv")
    assert (
        main(["envelope", runlog, runlog, "--out", str(tmp_path), "--quiet",
              "--tilt-bins", "6", "--speed-bins", "8", "--horizontal"])
        == 0
    )
    lines = (tmp_path / "envelope.csv").read_text().splitlines()
    assert len(lines) == 1 + 6 * 8
    total = sum(int(ln.split(",")[-1]) for ln in lines[1:])
    assert total == 2 * (120 - 48)


def test_envelope_bad_bins_exit_1(tmp_path, capsys):
    scn = write_offset_scenario(tmp_path / "o.scenario")
    assert main(["simulate", str(scn), "--out", str(tmp_path), "--quiet"]) == 0
    runlog = str(tmp_path / "offset_runlog.csv")
    assert main(["envelope", runlog, "--out", str(tmp_path), "--tilt-bins", "0"]) == 1
    assert "bin counts" in capsys.readouterr().err
    out = tmp_path / "out"
    for flag in (["--tilt-max", "nan"], ["--speed-max", "inf"]):
        assert main(["envelope", runlog, "--out", str(out), *flag]) == 1
        assert "edges must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--tilt-max", "0"], ["--speed-max", "inf"],
                                  ["--speed-max", "-0.5"], ["--tilt-max", "nan"]])
def test_envelope_edge_maxima_checked_before_any_input(tmp_path, capsys, flag):
    # the edges are refused before linspace could warn and before the input is opened
    missing = str(tmp_path / "no_such_flight.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["envelope", missing, "--out", str(tmp_path / "out"), *flag]) == 1
    err = capsys.readouterr().err
    assert f"{flag[0]} must be finite and > 0" in err and "edges must be finite" in err
    assert "Warning" not in err and "no_such_flight" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "envelope"])
@pytest.mark.parametrize("cutoff", ["nan", "0", "-5"])
def test_bad_cutoff_refused_before_any_input(tmp_path, capsys, command, cutoff):
    missing = str(tmp_path / "no_such_flight.csv")
    assert main([command, missing, "--out", str(tmp_path / "out"), "--cutoff", cutoff]) == 1
    err = capsys.readouterr().err
    assert f"--cutoff: must be finite and > 0, got '{cutoff}'" in err
    assert "no_such_flight" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flapsim.cli", "gains", "--out", str(tmp_path),
         "--quiet"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gains.csv").exists()
    # the launcher that installation generates calls this declared target
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["flapsim"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_gains_and_simulate_load_no_scipy(tmp_path):
    # gain synthesis, the run loop and the filtered flight-data path
    # (validate and envelope on the run log) are numpy only
    code = ("import os, sys\n"
            "from flapsim.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "log = os.path.join(out, 'hover_runlog.csv')\n"
            "assert main(['gains', '--out', out, '--quiet']) == 0\n"
            "assert main(['simulate', 'hover', '--out', out, '--quiet']) == 0\n"
            "assert main(['validate', log, '--out', out, '--quiet']) == 0\n"
            "assert main(['envelope', log, '--out', out, '--quiet']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for name in ("hover_runlog.csv", "validation_series.csv", "envelope.csv"):
        assert (tmp_path / name).exists()


@pytest.mark.skipif(
    shutil.which("flapsim") is None, reason="flapsim launcher not installed"
)
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["flapsim", "gains", "--out", str(tmp_path), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "gains.csv").exists()
