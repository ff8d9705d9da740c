"""Scenario runner tests: config parsing, closed loop, logs, metrics."""

import dataclasses
import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flapsim.controller import CircleSchedule, ConstantSchedule, Setpoint, _decide, _sense, _sigma
from flapsim.dynamics import SimState, state_derivative
from flapsim.errors import ConfigError, DivergenceError, SchemaError
from flapsim.harness import (
    PHYSICS_STEP,
    DisturbancePulse,
    NoiseConfig,
    RUNLOG_COLUMNS,
    RUNLOG_FIELDS,
    RunLog,
    Scenario,
    _noise_samples,
    default_substeps,
    disturbance_pulse,
    load_scenario,
    metrics,
    run_scenario,
    scenario_from_dict,
    step_error,
)
from flapsim.kinematics import (
    GIMBAL_GUARD,
    EulerAngles321,
    euler_to_quat,
    quat_from_rotvec,
    quat_multiply,
)
from flapsim.pipeline import load_runlog_csv
from flapsim.vehicle import Wrench, hover_thrust, wrench_to_cmd

HOLD_ORIGIN = ConstantSchedule(Setpoint.hold((0.0, 0.0, 0.0)))


def hover_state(pos=(0.0, 0.0, 0.0)):
    return SimState(pos, (0.0, 0.0, 0.0), EulerAngles321(0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def bundled_scenario(name):
    ref = resources.files("flapsim") / "scenarios" / f"{name}.scenario"
    with resources.as_file(ref) as path:
        return load_scenario(path)


def synthetic_log(t, err_x=None, pos=None, euler=None, vel_b=None, saturated=None):
    """RunLog with hand-set truth columns; everything else zero."""
    n = len(t)
    sp = np.zeros((n, 3))
    if pos is None:
        pos = np.zeros((n, 3))
        if err_x is not None:
            pos[:, 0] = -np.asarray(err_x)  # err = sp - pos
    return RunLog(
        t=np.asarray(t, dtype=float),
        pos_w=np.asarray(pos, dtype=float),
        euler=np.zeros((n, 3)) if euler is None else np.asarray(euler, dtype=float),
        vel_b=np.zeros((n, 3)) if vel_b is None else np.asarray(vel_b, dtype=float),
        omega_b=np.zeros((n, 3)),
        sigma=np.zeros((n, 10)),
        sp_pos=sp,
        sp_vel=np.zeros((n, 3)),
        cmd=np.zeros((n, 3)),
        wrench=np.zeros((n, 3)),
        saturated=np.zeros(n, dtype=np.int64) if saturated is None else np.asarray(saturated, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# scenario construction and files
# ---------------------------------------------------------------------------


def test_scenario_from_dict_full(tmp_path):
    cfg = {
        "name": "custom",
        "duration": 1.5,
        "seed": 3,
        "control_rate": 120.0,
        "physics_substeps": 10,
        "initial": {"pos": [0.1, 0.0, 0.0], "euler_deg": [0.0, 5.0, 0.0]},
        "setpoint": {"kind": "constant", "pos": [0.0, 0.0, 0.2]},
        "noise": {"enabled": True, "pos_sigma": 1e-3, "att_sigma_deg": 0.5},
        "disturbances": [
            {"t_start": 0.5, "duration": 0.05, "magnitude_g": 2.0, "direction": [0, 1, 0]},
            {"t_start": 1.0, "duration": 0.1, "force": [0.0, 0.0, -1e-3]},
        ],
    }
    sc = scenario_from_dict(cfg)
    assert sc.name == "custom" and sc.seed == 3
    assert sc.control_rate == 120.0 and sc.physics_substeps == 10
    assert sc.initial.att.pitch == pytest.approx(math.radians(5.0), rel=1e-12)
    assert sc.noise.enabled and sc.noise.att_sigma == pytest.approx(math.radians(0.5))
    assert len(sc.disturbances) == 2
    np.testing.assert_allclose(sc.disturbances[1].force_w, [0.0, 0.0, -1e-3])
    sp = sc.schedule(0.0)
    np.testing.assert_allclose(sp.pos_w, [0.0, 0.0, 0.2])


@pytest.mark.parametrize(
    "patch,match",
    [
        ({"extra_key": 1}, "unknown keys"),
        ({"physics_substeps": 42, "dt": 1e-4}, "unknown keys"),
        ({"dt": 0.003}, "unknown keys"),
        ({"dt": -1e-4}, "unknown keys"),
        ({"initial": {"euler": [0, 0, 0], "euler_deg": [0, 0, 0]}}, "not both"),
        ({"initial": {"position": [0, 0, 0]}}, "unknown keys"),
        ({"noise": {"att_sigma": 0.1, "att_sigma_deg": 5.0}}, "not both"),
        ({"setpoint": {"kind": "spiral"}}, "unknown kind"),
        ({"setpoint": {"kind": "circle", "speed": 0.1}}, "circle needs"),
        ({"setpoint": {"kind": "schedule"}}, "needs a path"),
        ({"disturbances": [{"duration": 0.1}]}, "needs t_start"),
        (
            {"disturbances": [{"t_start": 0, "duration": 0.1, "force": [0, 0, 1],
                               "magnitude_g": 1, "direction": [0, 0, 1]}]},
            "not both",
        ),
        ({"disturbances": [{"t_start": 0, "duration": 0.1}]}, "magnitude_g and direction"),
        ({"disturbances": ["pulse"]}, "expected a mapping"),
        ({"initial": 7}, "expected a mapping"),
        ({"setpoint": None}, "expected a mapping"),
        ({"physics_substeps": 4.5}, "physics_substeps must be an integer"),
        ({"seed": 1.9}, "seed must be an integer"),
        ({"setpoint": {"kind": "constant", "yaw": 0.3}}, "unknown keys"),
        ({"control_rate": math.nan}, "control_rate must be positive and finite"),
        ({"noise": {"enabled": "false"}}, "noise: enabled must be true or false"),
        ({"use_truth_velocity": "false"}, "scenario: unknown keys"),
        ({"legacy_coriolis": False}, "scenario: unknown keys"),
        ({"seed": True}, "scenario: seed must be an integer, got True"),
        ({"physics_substeps": True}, "scenario: physics_substeps must be an integer, got True"),
        ({"seed": "3"}, "scenario: seed must be an integer, got '3'"),
        ({"duration": True}, "scenario: duration must be a number, got True"),
        ({"duration": "2.5"}, "scenario: duration must be a number, got '2.5'"),
        ({"duration": None}, "scenario: duration must be a number, got None"),
        ({"duration": 10**400}, "scenario: duration is out of range"),
        ({"control_rate": True}, "scenario: control_rate must be a number, got True"),
        ({"dt": "1e-4"}, "scenario: unknown keys"),
        ({"noise": {"pos_sigma": "0.001"}}, "noise: pos_sigma must be a number, got '0.001'"),
        ({"noise": {"att_sigma": None}}, "noise: att_sigma must be a number, got None"),
        ({"noise": {"att_sigma_deg": True}}, "noise: att_sigma_deg must be a number, got True"),
        ({"setpoint": {"kind": "circle", "radius": True, "speed": 0.1}},
         "setpoint: radius must be a number, got True"),
        ({"setpoint": {"kind": "circle", "radius": [1, 2], "speed": 0.1}},
         "setpoint: radius must be a number, got "),
        ({"setpoint": {"kind": "circle", "radius": 0.1, "speed": "0.1"}},
         "setpoint: speed must be a number, got '0.1'"),
        ({"disturbances": [{"t_start": None, "duration": 0.1, "force": [0, 0, 1e-4]}]},
         "t_start must be a number, got None"),
        ({"disturbances": [{"t_start": 0.0, "duration": True, "force": [0, 0, 1e-4]}]},
         "duration must be a number, got True"),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "magnitude_g": "1",
                            "direction": [0, 0, 1]}]},
         "magnitude_g must be a number, got '1'"),
        ({"name": "../escaped"}, "scenario: name must be a bare file name, got '../escaped'"),
        ({"name": "sub/inner"}, "scenario: name must be a bare file name, got 'sub/inner'"),
        ({"name": ".."}, "scenario: name must be a bare file name, got '..'"),
        ({"name": ""}, "scenario: name must be a bare file name, got ''"),
        ({"name": 5}, "scenario: name must be a bare file name, got 5"),
        ({"control_rate": 0.0}, "scenario: control_rate must be positive and finite"),
        ({"control_rate": -math.inf}, "scenario: control_rate must be positive and finite"),
        ({"disturbances": [{"t_start": 0.0, "duration": math.inf, "force": [0, 0, 1e-4]}]},
         "duration must be finite, got inf"),
        ({"disturbances": [{"t_start": 0.0, "duration": math.inf, "magnitude_g": 1.0,
                            "direction": [0, 0, 1]}]},
         "duration must be finite, got inf"),
        ({"disturbances": [{"t_start": math.nan, "duration": 0.1, "force": [0, 0, 1e-4]}]},
         "t_start must be finite, got nan"),
        # every non-finite value is refused by its key, before any arithmetic on it
        ({"duration": math.nan}, re.escape("scenario: duration must be finite, got nan")),
        ({"initial": {"pos": [math.nan, 0.0, 0.0]}},
         re.escape("initial: pos must be finite, got [nan, 0.0, 0.0]")),
        ({"initial": {"euler_deg": [0.0, math.inf, 0.0]}},
         re.escape("initial: euler_deg must be finite, got [0.0, inf, 0.0]")),
        ({"setpoint": {"kind": "constant", "vel": [0.0, 0.0, -math.inf]}},
         re.escape("setpoint: vel must be finite, got [0.0, 0.0, -inf]")),
        ({"setpoint": {"kind": "circle", "radius": math.inf, "speed": 0.1}},
         re.escape("setpoint: radius must be finite, got inf")),
        ({"setpoint": {"kind": "circle", "radius": 0.1, "speed": 0.1, "center": [math.nan, 0, 0]}},
         re.escape("setpoint: center must be finite, got [nan, 0, 0]")),
        ({"noise": {"pos_sigma": math.inf}}, re.escape("noise: pos_sigma must be finite, got inf")),
        ({"noise": {"att_sigma_deg": math.nan}},
         re.escape("noise: att_sigma_deg must be finite, got nan")),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "force": [math.inf, 0, 0]}]},
         re.escape("disturbances[0]: force must be finite, got [inf, 0, 0]")),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "magnitude_g": 1.0,
                            "direction": [math.inf, 0, 0]}]},
         re.escape("disturbances[0]: direction must be finite, got [inf, 0, 0]")),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "magnitude_g": math.inf,
                            "direction": [0, 0, 1]}]},
         re.escape("disturbances[0]: magnitude_g must be finite, got inf")),
    ],
)
def test_scenario_from_dict_rejects(patch, match):
    cfg = {
        "name": "x",
        "duration": 1.0,
        "setpoint": {"kind": "constant", "pos": [0.0, 0.0, 0.0]},
    }
    cfg.update(patch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SchemaError, match=match):
            scenario_from_dict(cfg)
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "patch, where",
    [
        ({"initial": {"pos": [0.0, 0.0]}}, "initial: pos"),
        ({"initial": {"vel_b": [0.0, 0.0]}}, "initial: vel_b"),
        ({"initial": {"omega_b": [0.0, 0.0]}}, "initial: omega_b"),
        ({"initial": {"euler": [0.0, 0.0]}}, "initial: euler"),
        ({"initial": {"euler_deg": [0.0, 0.0]}}, "initial: euler_deg"),
        ({"initial": {"pos": 5.0}}, "initial: pos"),
        ({"initial": {"pos": [0.0, 0.0, "up"]}}, "initial: pos"),
        ({"setpoint": {"kind": "constant", "pos": [0.0, 0.0]}}, "setpoint: pos"),
        ({"setpoint": {"kind": "constant", "vel": [0.0, 0.0, 0.0, 0.0]}}, "setpoint: vel"),
        ({"setpoint": {"kind": "circle", "radius": 0.1, "speed": 0.1, "center": [0.0, 0.0]}},
         "setpoint: center"),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "force": [0.0, 1e-4]}]},
         "disturbances[0]: force"),
        ({"disturbances": [{"t_start": 0.0, "duration": 0.1, "magnitude_g": 1.0,
                            "direction": [0.0, 1.0]}]},
         "disturbances[0]: direction"),
    ],
)
def test_scenario_vectors_must_be_three_numbers(patch, where):
    cfg = {"name": "x", "duration": 1.0, "setpoint": {"kind": "constant"}, **patch}
    with pytest.raises(SchemaError, match=re.escape(f"{where} must be 3 numbers, got ")):
        scenario_from_dict(cfg)


def test_scenario_file_refuses_boolean_integers(tmp_path):
    for key in ("seed", "physics_substeps"):
        path = tmp_path / f"{key}.scenario"
        path.write_text(f"name: b\nduration: 0.1\n{key}: true\nsetpoint: {{kind: constant}}\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: scenario: {key} must be an integer")):
            load_scenario(path)


@pytest.mark.parametrize("kwarg, field", [("seed", "seed"), ("substeps", "physics_substeps")],
                         ids=["seed", "physics_substeps"])
def test_scenario_refuses_boolean_integers(kwarg, field):
    with pytest.raises(ConfigError, match=field):
        Scenario(name="b", duration=0.1, initial=hover_state(), schedule=HOLD_ORIGIN,
                 **{kwarg: True})


def test_scenario_from_dict_accepts_integral_floats():
    cfg = {"name": "x", "duration": 1.0, "setpoint": {"kind": "constant"},
           "physics_substeps": 4.0, "seed": 7.0}
    sc = scenario_from_dict(cfg)
    assert sc.physics_substeps == 4 and sc.seed == 7


def test_scenario_from_dict_missing_required():
    with pytest.raises(SchemaError, match="missing required key"):
        scenario_from_dict({"name": "x", "duration": 1.0})
    with pytest.raises(SchemaError, match="top level"):
        scenario_from_dict(["not", "a", "mapping"])


def test_load_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("France: [unclosed\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_scenario(bad)
    listy = tmp_path / "list.scenario"
    listy.write_text("- a\n- b\n")
    with pytest.raises(SchemaError, match="must contain a mapping"):
        load_scenario(listy)
    missing = tmp_path / "missing.scenario"
    missing.write_text("name: x\nduration: 1.0\n")
    with pytest.raises(SchemaError, match="missing required key"):
        load_scenario(missing)


def test_scenario_yaml_schedule_path_is_relative_to_file(tmp_path):
    (tmp_path / "way.csv").write_text(
        "t,x,y,z,vx,vy,vz\n0,0,0,0,0,0,0\n1,0.1,0,0,0,0,0\n"
    )
    f = tmp_path / "sched.scenario"
    f.write_text(
        "name: waypoints\nduration: 1.0\nsetpoint:\n  kind: schedule\n  path: way.csv\n"
    )
    sc = load_scenario(f)
    assert sc.schedule(1.0).pos_w[0] == pytest.approx(0.1)


def test_bundled_scenarios_load_with_pinned_fields(params):
    hover = bundled_scenario("hover")
    assert hover.name == "hover" and hover.duration == 2.0
    assert hover.control_rate == 240.0 and hover.physics_substeps == 4
    slow = dataclasses.replace(hover, control_rate=60.0)
    assert slow.physics_substeps == 16 and slow.dt <= PHYSICS_STEP
    assert hover.seed == 0 and not hover.noise.enabled
    np.testing.assert_array_equal(hover.initial.pos_w, [0.05, 0.0, 0.0])

    dist = bundled_scenario("disturbance")
    assert dist.duration == 3.0
    assert len(dist.disturbances) == 1
    pulse = dist.disturbances[0]
    assert pulse.t_start == 0.5 and pulse.t_end == pytest.approx(0.55)
    # 2.5 g of vehicle weight along +y
    np.testing.assert_allclose(
        pulse.force_w, [0.0, 2.5 * params.g * params.total_mass, 0.0], rtol=1e-12
    )
    assert pulse.force_w[1] == pytest.approx(4.5617e-3, rel=1e-4)

    circ = bundled_scenario("circle")
    assert circ.duration == 4.5
    assert isinstance(circ.schedule, CircleSchedule)
    assert circ.schedule.radius == 0.1 and circ.schedule.speed == 0.25
    np.testing.assert_allclose(circ.initial.pos_w, [0.1, 0.0, 0.0])
    np.testing.assert_allclose(circ.initial.vel_b, [0.0, 0.25, 0.0])


@pytest.mark.parametrize("rate, substeps", [(240.0, 4), (120.0, 8), (100.0, 10), (1000.0, 1),
                                             (60.0, 16), (480.0, 2)])
def test_default_substeps_meet_the_physics_step(rate, substeps):
    assert default_substeps(rate) == substeps
    assert 1.0 / (rate * substeps) <= PHYSICS_STEP * (1.0 + 1e-9)
    assert substeps == 1 or 1.0 / (rate * (substeps - 1)) > PHYSICS_STEP
    sc = Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                  control_rate=rate)
    assert sc.physics_substeps == substeps
    # the count follows a replaced rate; it is never stored
    at_240 = Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN)
    assert dataclasses.replace(at_240, control_rate=rate).physics_substeps == substeps
    cfg = {"name": "x", "duration": 1.0, "control_rate": rate,
           "setpoint": {"kind": "constant"}}
    assert scenario_from_dict(cfg).physics_substeps == substeps


def test_explicit_substeps_override_the_default_and_dt_is_refused(tmp_path):
    cfg = {"name": "x", "duration": 1.0, "setpoint": {"kind": "constant"}}
    assert scenario_from_dict({**cfg, "physics_substeps": 42}).physics_substeps == 42
    with pytest.raises(SchemaError, match=r"^scenario: unknown keys \['dt'\]$"):
        scenario_from_dict({**cfg, "dt": 1.0 / 2400.0})
    path = tmp_path / "x.scenario"
    path.write_text("name: x\nduration: 1.0\ndt: 1.0e-4\nsetpoint: {kind: constant}\n")
    with pytest.raises(SchemaError, match=r"x\.scenario: scenario: unknown keys \['dt'\]$"):
        load_scenario(path)
    sc = Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                  substeps=42)
    assert sc.physics_substeps == 42 and sc.dt == pytest.approx(1.0 / (240.0 * 42))
    assert dataclasses.replace(sc, seed=5).physics_substeps == 42
    assert dataclasses.replace(sc, control_rate=120.0).physics_substeps == 42
    with pytest.raises(TypeError):
        dataclasses.replace(sc, physics_substeps=8)  # the count in use is read-only


def test_direct_scenario_agrees_with_scenario_from_dict(params, gain):
    cfg = {"name": "x", "duration": 0.2, "initial": {"pos": [0.01, 0.0, 0.0]},
           "setpoint": {"kind": "constant"}}
    from_dict = scenario_from_dict(cfg)
    direct = Scenario(name="x", duration=0.2, initial=hover_state(pos=(0.01, 0.0, 0.0)),
                      schedule=HOLD_ORIGIN)
    assert direct.physics_substeps == from_dict.physics_substeps == 4
    assert direct.dt == from_dict.dt
    assert run_scenario(direct, params, gain).to_csv_text() == \
        run_scenario(from_dict, params, gain).to_csv_text()


@pytest.mark.parametrize("name", ["hover", "circle", "disturbance"])
def test_bundled_scenarios_meet_the_step_tolerance(params, gain, name):
    sc = bundled_scenario(name)
    assert sc.physics_substeps == 4
    d_pos, d_att = step_error(sc, params, gain)
    assert 0.0 < d_pos <= 1e-8
    assert 0.0 < d_att <= 1e-6


def test_step_error_wraps_attitude_differences(params, gain, monkeypatch):
    # yaw logged as pi - 1e-9 by one run and -pi + 1e-9 by the other is 2e-9 apart
    t = np.arange(3) / 240.0
    yaw = {4: np.pi - 1e-9, 8: -np.pi + 1e-9}
    runs = []

    def fake_run(sc, p, K):
        runs.append(sc.physics_substeps)
        euler = np.zeros((3, 3))
        euler[1, 2] = yaw[sc.physics_substeps]
        pos = np.zeros((3, 3))
        pos[2] = (3e-9, 4e-9, 0.0) if sc.physics_substeps == 8 else 0.0
        return synthetic_log(t, pos=pos, euler=euler)

    monkeypatch.setattr("flapsim.harness.run_scenario", fake_run)
    sc = Scenario(name="x", duration=0.1, initial=hover_state(), schedule=HOLD_ORIGIN)
    d_pos, d_att = step_error(sc, params, gain)
    assert runs == [4, 8]
    assert d_pos == pytest.approx(5e-9, rel=1e-12)
    assert d_att == pytest.approx(2e-9, rel=1e-6)


@pytest.mark.parametrize(
    "rate, substeps, runs",
    [(60.0, None, [16, 32]), (240.0, 42, [42, 84]), (60.0, 5, [5, 10])],
    ids=["default_60hz", "explicit", "explicit_60hz"],
)
def test_step_error_runs_twice_the_substeps_in_use(params, gain, monkeypatch, rate, substeps,
                                                   runs):
    seen = []

    def fake_run(sc, p, K):
        seen.append(sc.physics_substeps)
        return synthetic_log(np.arange(3) / rate)

    monkeypatch.setattr("flapsim.harness.run_scenario", fake_run)
    sc = Scenario(name="x", duration=0.1, initial=hover_state(), schedule=HOLD_ORIGIN,
                  control_rate=rate, substeps=substeps)
    step_error(sc, params, gain)
    assert seen == runs


def test_scenario_validation():
    with pytest.raises(ConfigError, match="duration"):
        Scenario(name="x", duration=0.0, initial=hover_state(), schedule=HOLD_ORIGIN)
    with pytest.raises(ConfigError, match="control_rate"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                 control_rate=0.0)
    with pytest.raises(ConfigError, match="substeps"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                 substeps=0)
    with pytest.raises(ConfigError, match="callable"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule="origin")
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN, seed=-1)
    with pytest.raises(ConfigError, match="integrator limit"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                 control_rate=100.0, substeps=1)
    with pytest.raises(ConfigError, match="DisturbancePulse"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                 disturbances=({"force": [0, 0, 1]},))
    with pytest.raises(ConfigError, match="duration must be positive and finite"):
        Scenario(name="x", duration=math.inf, initial=hover_state(), schedule=HOLD_ORIGIN)
    with pytest.raises(ConfigError, match="control_rate must be positive and finite"):
        Scenario(name="x", duration=1.0, initial=hover_state(), schedule=HOLD_ORIGIN,
                 control_rate=math.inf)
    for sigmas in ({"pos_sigma": math.nan}, {"att_sigma": math.inf}, {"pos_sigma": -1e-3}):
        with pytest.raises(ConfigError, match="finite and non-negative"):
            NoiseConfig(enabled=True, **sigmas)


# ---------------------------------------------------------------------------
# disturbance pulses
# ---------------------------------------------------------------------------


def test_disturbance_pulse_scaling(params):
    pulse = disturbance_pulse(params, 2.5, 0.05, (0.0, 1.0, 0.0), t_start=0.5)
    assert pulse.force_w[1] == pytest.approx(2.5 * 9.81 * params.total_mass, rel=1e-12)
    assert pulse.force_w[0] == 0.0 and pulse.force_w[2] == 0.0
    assert pulse.active(0.5) and pulse.active(0.5499)
    assert not pulse.active(0.55) and not pulse.active(0.4999)


def test_disturbance_pulse_validation(params):
    with pytest.raises(ValueError, match="magnitude"):
        disturbance_pulse(params, 0.0, 0.05, (0, 1, 0))
    with pytest.raises(ValueError, match="duration"):
        disturbance_pulse(params, 1.0, 0.0, (0, 1, 0))
    with pytest.raises(ValueError, match="nonzero"):
        disturbance_pulse(params, 1.0, 0.05, (0, 0, 0))
    with pytest.warns(UserWarning, match="normalizing"):
        pulse = disturbance_pulse(params, 1.0, 0.05, (0.0, 2.0, 0.0))
    assert pulse.force_w[1] == pytest.approx(9.81 * params.total_mass, rel=1e-12)
    with pytest.raises(ConfigError, match="t_end > t_start"):
        DisturbancePulse(1.0, 1.0, (0, 0, 1))
    with pytest.raises(ConfigError, match="finite"):
        DisturbancePulse(0.0, 1.0, (0, 0, np.nan))


# ---------------------------------------------------------------------------
# closed-loop runs
# ---------------------------------------------------------------------------


def test_hover_at_setpoint_is_a_fixed_point(params, gain):
    sc = Scenario(name="still", duration=2.0, initial=hover_state(), schedule=HOLD_ORIGIN)
    log = run_scenario(sc, params, gain)
    assert len(log) == 480
    np.testing.assert_array_equal(log.pos_w, 0.0)
    np.testing.assert_array_equal(log.euler, 0.0)
    np.testing.assert_array_equal(log.vel_b, 0.0)
    assert np.all(log.saturated == 0)
    ref, _ = wrench_to_cmd(params, Wrench(hover_thrust(params), 0.0, 0.0))
    np.testing.assert_array_equal(log.cmd[:, 0], ref.A)
    np.testing.assert_array_equal(log.cmd[:, 1:], 0.0)
    m = metrics(log)
    assert m.rms_pos_err == 0.0 and m.settling_time == 0.0
    assert m.saturation_duty == 0.0 and m.max_attitude == 0.0
    assert log.final_state is not None
    np.testing.assert_array_equal(log.final_state.pos_w, 0.0)


def test_one_g_pulse_first_tick_response(params, gain):
    T = 1.0 / 240.0
    pulse = disturbance_pulse(params, 1.0, T, (0.0, 0.0, -1.0))
    sc = Scenario(name="drop", duration=0.05, initial=hover_state(),
                  schedule=HOLD_ORIGIN, disturbances=(pulse,))
    log = run_scenario(sc, params, gain)
    # during tick 0 the controller holds exact hover thrust, so the pulse
    # is the only net force: w(T) = -g T, z(T) = -g T^2 / 2, all polynomial
    # in t and hence integrated exactly by RK4
    assert log.vel_b[1, 2] == pytest.approx(-params.g * T, rel=1e-9)
    assert log.pos_w[1, 2] == pytest.approx(-0.5 * params.g * T * T, rel=1e-9)
    np.testing.assert_array_equal(log.euler[1], 0.0)


def _pulse_scenario(params, t_start, substeps, duration=1.0):
    pulse = disturbance_pulse(params, 2.5, 0.05, (0.0, 1.0, 0.0), t_start=t_start)
    return Scenario(name="pulse", duration=duration, initial=hover_state(),
                    schedule=HOLD_ORIGIN, disturbances=(pulse,), substeps=substeps)


def test_pulse_edges_inside_substeps_are_weighted_by_overlap(params, gain):
    # edges 0.3 ms past a tick: inside a substep at 4 substeps per tick
    ref = run_scenario(_pulse_scenario(params, 0.5013, 168), params, gain)
    log = run_scenario(_pulse_scenario(params, 0.5013, 4), params, gain)
    err = float(np.max(np.linalg.norm(log.pos_w - ref.pos_w, axis=1)))
    assert err < 1e-5  # 7e-4 m when each substep takes the force at its start or not at all
    assert float(np.max(np.abs(log.pos_w[:, 1]))) > 1e-3  # the pulse did push


def test_pulse_edges_within_slack_of_the_grid_lie_on_it(params, gain):
    dt = 1.0 / 960.0
    on_grid = run_scenario(_pulse_scenario(params, 480 * dt, 4, 0.6), params, gain)
    for shift in (-1e-12 * dt, 1e-12 * dt):
        nudged = run_scenario(_pulse_scenario(params, 480 * dt + shift, 4, 0.6), params, gain)
        assert nudged.to_csv_text() == on_grid.to_csv_text()


def test_pulse_outside_run_window_is_inert(params, gain):
    late = DisturbancePulse(5.0, 5.1, (0.0, 1e-3, 0.0))
    base = Scenario(name="a", duration=0.1, initial=hover_state(), schedule=HOLD_ORIGIN)
    with_pulse = Scenario(name="a", duration=0.1, initial=hover_state(),
                          schedule=HOLD_ORIGIN, disturbances=(late,))
    assert run_scenario(base, params, gain).to_csv_text() == \
        run_scenario(with_pulse, params, gain).to_csv_text()


def test_schedule_returning_position_only_setpoint_runs(params, gain):
    # Setpoint(pos) defaults vel_w to zeros, as Setpoint.hold does
    sc = Scenario(name="a", duration=0.1, initial=hover_state(),
                  schedule=lambda t: Setpoint(np.zeros(3)), substeps=4)
    held = dataclasses.replace(sc, schedule=HOLD_ORIGIN)
    assert run_scenario(sc, params, gain).to_csv_text() == \
        run_scenario(held, params, gain).to_csv_text()


def test_runs_are_deterministic_per_seed(params, gain):
    noisy = NoiseConfig(enabled=True, pos_sigma=1e-3)
    sc = Scenario(name="n", duration=0.25, initial=hover_state(),
                  schedule=HOLD_ORIGIN, noise=noisy, seed=11)
    a = run_scenario(sc, params, gain).to_csv_text()
    b = run_scenario(sc, params, gain).to_csv_text()
    assert a == b
    other = Scenario(name="n", duration=0.25, initial=hover_state(),
                     schedule=HOLD_ORIGIN, noise=noisy, seed=12)
    assert run_scenario(other, params, gain).to_csv_text() != a


def test_zero_sigma_noise_equals_disabled(params, gain):
    quiet = Scenario(name="q", duration=0.2, initial=hover_state(), schedule=HOLD_ORIGIN,
                     noise=NoiseConfig(enabled=True, pos_sigma=0.0, att_sigma=0.0))
    off = Scenario(name="q", duration=0.2, initial=hover_state(), schedule=HOLD_ORIGIN)
    assert run_scenario(quiet, params, gain).to_csv_text() == \
        run_scenario(off, params, gain).to_csv_text()


_SIGMA = st.one_of(st.just(0.0), st.floats(0.0, 1e300))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**128), pos_sigma=_SIGMA, att_sigma=_SIGMA,
       n_ticks=st.integers(1, 60))
def test_noise_block_rows_are_the_per_tick_draws(seed, pos_sigma, att_sigma, n_ticks):
    # run_scenario draws the run's noise at once; row k must be the pair of
    # draws tick k would make from the seeded generator on its own
    noise = NoiseConfig(enabled=True, pos_sigma=pos_sigma, att_sigma=att_sigma)
    block = _noise_samples(noise, seed, n_ticks)
    assert block.shape == (n_ticks, 6)
    rng = np.random.default_rng(seed)
    for row in block:
        pair = np.concatenate([rng.normal(0.0, pos_sigma, 3), rng.normal(0.0, att_sigma, 3)])
        assert row.tobytes() == pair.tobytes()
    assert _noise_samples(NoiseConfig(enabled=False), seed, n_ticks) is None


def test_more_position_noise_means_more_error(params, gain):
    def mean_rms(sigma):
        vals = []
        for seed in range(6):
            sc = Scenario(name="n", duration=0.4, initial=hover_state(),
                          schedule=HOLD_ORIGIN, seed=seed,
                          noise=NoiseConfig(enabled=True, pos_sigma=sigma))
            vals.append(metrics(run_scenario(sc, params, gain)).rms_pos_err)
        return float(np.mean(vals))

    assert mean_rms(4e-3) > mean_rms(0.5e-3)


@pytest.mark.parametrize(
    "extra",
    [
        {"setpoint": {"kind": "circle", "radius": 0.05, "speed": 0.2}},
    ],
    ids=["noisy_circle"],
)
def test_public_api_gives_the_logged_bits_every_tick(params, gain, extra):
    # replaying the run's sensor draws through _sense and _decide, with the
    # noisy measurement built by the quaternion records rather than by the
    # run loop's _sense_truth, must reproduce every logged estimate and
    # command bit for bit
    sc = scenario_from_dict(
        {"name": "replay", "duration": 0.5, "physics_substeps": 4, "seed": 11,
         "initial": {"pos": [0.03, -0.01, 0.0], "euler_deg": [4.0, -3.0, 20.0]},
         "noise": {"enabled": True}, **extra},
        params,
    )
    log = run_scenario(sc, params, gain)
    rng = np.random.default_rng(sc.seed)
    T, carry, K, hover = sc.control_period, None, gain.tolist(), hover_thrust(params)
    for k in range(len(log)):
        att = EulerAngles321(*log.euler[k])
        pos = log.pos_w[k] + rng.normal(0.0, sc.noise.pos_sigma, 3)
        q = quat_multiply(euler_to_quat(att),
                          quat_from_rotvec(rng.normal(0.0, sc.noise.att_sigma, 3)))
        est, carry = _sense(pos.tolist(), q.as_array().tolist(), carry, T)
        sp = sc.schedule(k * T)
        *out, saturated = _decide(K, est, sp.pos_w.tolist(), sp.vel_w.tolist(), params, hover)
        assert np.array(_sigma(est)).tobytes() == log.sigma[k].tobytes(), k
        assert np.array(out[:3]).tobytes() == log.cmd[k].tobytes(), k
        assert np.array(out[3:]).tobytes() == log.wrench[k].tobytes(), k
        assert saturated == bool(log.saturated[k]), k


@pytest.mark.parametrize(
    "extra",
    [
        {"noise": {"enabled": True},
         "initial": {"pos": [0.03, -0.01, 0.0], "euler_deg": [4.0, -3.0, 20.0]}},
        {"initial": {"vel_b": [0.05, -0.02, 0.01], "omega_b": [0.5, -0.3, 0.8]}},
        # edges 0.3 ms into substep 1 of tick 24 and 0.2 ms into substep 2 of tick 31
        {"disturbances": [{"t_start": 0.1013, "duration": 0.0302, "magnitude_g": 1.0,
                           "direction": [0.0, 1.0, 0.0]}]},
        {"physics_substeps": 42, "duration": 0.1, "noise": {"enabled": True},
         "initial": {"pos": [0.01, 0.0, 0.0]}},
    ],
    ids=["noisy_hover", "rotating_start", "pulse_inside_substeps", "substeps_42"],
)
def test_each_logged_tick_integrates_to_the_next_row(params, gain, extra):
    # the integrate half of the tick, replayed from the log: a row's truth
    # state under its applied wrench, through textbook RK4 over
    # state_derivative with each pulse's overlap share of a substep as the
    # world force, must give the next row (final_state after the last) bit for bit
    sc = scenario_from_dict(
        {"name": "replay", "duration": 0.5, "physics_substeps": 4, "seed": 3,
         "setpoint": {"kind": "constant"}, **extra},
        params,
    )
    log = run_scenario(sc, params, gain)
    dt = sc.dt
    states = np.column_stack([log.pos_w, log.vel_b, log.euler, log.omega_b])
    ends = [*states[1:], log.final_state.as_vector()]
    for k, (y, end) in enumerate(zip(states, ends)):
        w = Wrench(*log.wrench[k].tolist())
        for i in range(sc.physics_substeps):
            t_sub = float(log.t[k]) + i * dt
            force = np.zeros(3)
            for pulse in sc.disturbances:
                share = (min(pulse.t_end, t_sub + dt) - max(pulse.t_start, t_sub)) / dt
                if share >= 1.0 - 1e-9:
                    force = force + pulse.force_w
                elif share > 1e-9:
                    force = force + share * pulse.force_w

            def f(x, force=force):
                return state_derivative(params, SimState.from_vector(x), w, None, force)

            y = oracles.rk4_textbook(f, y, dt)
        assert y.tobytes() == end.tobytes(), k


def test_offset_hover_diverges_with_partial_log(params, unstable_gain):
    # a gain that is unstable in the 240 Hz sampled loop: a 5 cm offset
    # grows until the 10 m position guard trips
    sc = Scenario(name="offset", duration=12.0,
                  initial=hover_state(pos=(0.05, 0.0, 0.0)), schedule=HOLD_ORIGIN)
    with pytest.raises(DivergenceError) as info:
        run_scenario(sc, params, unstable_gain)
    partial = info.value.partial_log
    assert partial is not None
    assert 0 < len(partial) < 12.0 * 240.0
    assert partial.t[0] == 0.0
    assert np.all(np.isfinite(partial.pos_w))
    # the logged samples stay inside the guard; the trip happened after
    # the last logged tick
    assert np.all(np.linalg.norm(partial.pos_w[:-1], axis=1) <= 10.0)
    assert "envelope" in str(info.value)


@pytest.mark.parametrize(
    "initial, guard",
    [
        ({"omega_b": [0.0, 0.0, 2e4]}, "body rate exceeded"),
        ({"vel_b": [1e308, 0.0, 0.0], "omega_b": [0.0, 0.0, 10.0]}, "non-finite state"),
        ({"pos": [9.99, 0.0, 0.0], "vel_b": [10.0, 0.0, 0.0]}, "m envelope"),
        ({"euler": [0.0, 1.5707, 0.0], "omega_b": [0.0, 50.0, 0.0]}, "gimbal guard"),
    ],
    ids=["rate", "non-finite", "envelope", "gimbal"],
)
def test_every_guard_aborts_with_partial_log(params, gain, initial, guard):
    sc = scenario_from_dict(
        {"name": "trip", "duration": 0.5, "initial": initial, "setpoint": {"kind": "constant"}},
        params,
    )
    with pytest.raises(DivergenceError, match=guard) as info:
        run_scenario(sc, params, gain)
    partial = info.value.partial_log
    assert partial is not None and len(partial) > 0
    assert partial.t[0] == 0.0


@pytest.mark.parametrize(
    "cfg, message",
    [
        # one RK4 step carries pitch past the guard with no stage evaluated there
        (
            {"control_rate": 9120, "physics_substeps": 1, "duration": 0.01,
             "initial": {"euler": [2.2390674293442743, 1.5668255279469046, 0.0],
                         "omega_b": [-83.93822750679978, -28.457002030434595,
                                     -49.433307103055554]}},
            "reached the gimbal guard after tick 0",
        ),
        # the truth stays inside the guard; the noisy measurement does not
        (
            {"physics_substeps": 1, "duration": 0.02, "seed": 3,
             "initial": {"euler": [0.0, GIMBAL_GUARD - 1e-7, 0.0]},
             "noise": {"enabled": True, "pos_sigma": 0.0, "att_sigma": 1e-6}},
            "sensing aborted at tick 1",
        ),
    ],
    ids=["integrator", "sensing"],
)
def test_gimbal_trips_are_divergence_errors(params, cfg, message):
    sc = scenario_from_dict({"name": "trip", "setpoint": {"kind": "constant"}, **cfg}, params)
    with pytest.raises(DivergenceError, match=message) as info:
        run_scenario(sc, params, np.zeros((3, 10)))
    assert len(info.value.partial_log) == 1


def test_run_starts_next_to_the_gimbal_guard(params, gain):
    # |R[2, 0]| of this attitude is within 1e-9 of 1; EulerAngles321 accepts it
    sc = scenario_from_dict(
        {"name": "steep", "duration": 0.1, "setpoint": {"kind": "constant"},
         "initial": {"euler": [0.0, 1.5707930935643026, 0.0]}},
        params,
    )
    assert len(run_scenario(sc, params, gain)) == 24


def test_run_scenario_rejects_bad_gain(params):
    sc = Scenario(name="x", duration=0.1, initial=hover_state(), schedule=HOLD_ORIGIN)
    with pytest.raises(ValueError, match="3x10"):
        run_scenario(sc, params, np.zeros((10, 3)))


def test_duration_shorter_than_tick_rejected(params, gain):
    sc = Scenario(name="x", duration=1e-3, initial=hover_state(), schedule=HOLD_ORIGIN)
    with pytest.raises(ConfigError, match="control period"):
        run_scenario(sc, params, gain)


# ---------------------------------------------------------------------------
# run log + CSV
# ---------------------------------------------------------------------------


def test_runlog_csv_round_trip(tmp_path, params, gain):
    sc = Scenario(name="rt", duration=0.1, initial=hover_state(pos=(0.01, 0.0, 0.0)),
                  schedule=HOLD_ORIGIN, noise=NoiseConfig(enabled=True), seed=5)
    log = run_scenario(sc, params, gain)
    f = tmp_path / "run.csv"
    log.write_csv(f)
    text = f.read_text()
    assert text.splitlines()[0] == ",".join(RUNLOG_COLUMNS)
    back = load_runlog_csv(f)
    for name, _ in RUNLOG_FIELDS:
        np.testing.assert_array_equal(getattr(back, name), getattr(log, name), err_msg=name)
    assert back.saturated.dtype == np.int64
    assert back.control_rate == pytest.approx(240.0, rel=1e-6)
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == f.read_bytes()
    # the table names every array field of RunLog, in declaration order
    arrays = [fl.name for fl in dataclasses.fields(RunLog) if fl.type == "np.ndarray"]
    assert arrays == [name for name, _ in RUNLOG_FIELDS]


def test_runlog_validation():
    with pytest.raises(ValueError, match="empty"):
        synthetic_log(np.array([]))
    with pytest.raises(ValueError, match="increasing"):
        synthetic_log(np.array([0.0, 0.1, 0.1]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_constant_offset():
    t = np.arange(480) / 240.0
    m = metrics(synthetic_log(t, err_x=np.full(480, 0.03)))
    assert m.rms_pos_err == pytest.approx(0.03, rel=1e-12)
    assert m.rms_xy == pytest.approx(0.03, rel=1e-12)
    assert m.settling_time == math.inf
    assert m.max_attitude == 0.0 and m.saturation_duty == 0.0


def test_metrics_sine_error_rms():
    t = np.arange(480) / 240.0  # two full 1 s periods
    err = 0.04 * np.sin(2.0 * math.pi * t)
    m = metrics(synthetic_log(t, err_x=err))
    assert m.rms_pos_err == pytest.approx(0.04 / math.sqrt(2.0), rel=1e-9)
    assert m.rms_xy == pytest.approx(0.04 / math.sqrt(2.0), rel=1e-9)


def test_metrics_windows_select_samples():
    t = np.arange(480) / 240.0
    err = np.where(t < 1.0, 0.02, 0.04)
    euler = np.zeros((480, 3))
    euler[t < 0.5, 1] = 0.3
    log = synthetic_log(t, err_x=err, euler=euler)
    assert metrics(log, (1.0, t[-1])).rms_pos_err == pytest.approx(0.04, rel=1e-12)
    assert metrics(log, (0.0, 0.9)).rms_pos_err == pytest.approx(0.02, rel=1e-12)
    assert metrics(log, (0.6, t[-1])).max_attitude == 0.0
    assert metrics(log).max_attitude == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError, match="not within"):
        metrics(log, (1.0, 3.0))
    with pytest.raises(ValueError, match="not within"):
        metrics(log, (1.5, 1.0))
    with pytest.raises(ValueError, match="no samples"):
        metrics(log, (1e-5, 2e-5))


def test_metrics_settling_time():
    t = np.arange(480) / 240.0
    err = np.where(t < 0.5, 0.03, 0.005)
    m = metrics(synthetic_log(t, err_x=err))
    assert m.settling_time == pytest.approx(0.5, abs=1e-9)
    m2 = metrics(synthetic_log(t, err_x=np.full(480, 0.005)))
    assert m2.settling_time == 0.0


def test_metrics_attitude_speed_duty():
    t = np.arange(100) / 240.0
    euler = np.zeros((100, 3))
    euler[40] = (0.2, 0.25, 1.0)  # yaw must not contribute to tilt
    vel = np.zeros((100, 3))
    vel[7] = (0.3, 0.4, 0.0)
    sat = np.zeros(100, dtype=np.int64)
    sat[:25] = 1
    m = metrics(synthetic_log(t, euler=euler, vel_b=vel, saturated=sat))
    expected_tilt = math.acos(math.cos(0.2) * math.cos(0.25))
    assert m.max_attitude == pytest.approx(expected_tilt, rel=1e-12)
    assert m.max_body_speed == pytest.approx(0.5, rel=1e-12)
    assert m.saturation_duty == pytest.approx(0.25, rel=1e-12)


def test_metrics_to_text_formats():
    t = np.arange(100) / 240.0
    txt = metrics(synthetic_log(t, err_x=np.full(100, 0.03))).to_text()
    assert "rms position error" in txt and "3.000 cm" in txt
    assert "never" in txt  # 3 cm offset never settles
