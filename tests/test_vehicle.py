"""Parameter table, actuator fits and their inverses, parameter files."""

import dataclasses
import math
import re

import numpy as np
import pytest
import yaml

from flapsim.errors import ConfigError, SchemaError
from flapsim.vehicle import (
    BUILTIN_PROFILE,
    ActuatorCmd,
    VehicleParams,
    Wrench,
    cmd_to_wrench,
    default_robofly_params,
    hover_thrust,
    load_params,
    wrench_to_cmd,
)


def test_default_measured_parameters(params):
    assert params.m == 150e-6
    assert params.m_M == 36e-6
    assert params.J == (3.12e-9, 2.97e-9, 0.55e-9)
    assert params.thrust_slope == 3.27e-5
    assert params.thrust_intercept == -0.0024
    assert params.roll_slope == 0.48e-6
    assert params.pitch_slope == 0.11e-6
    assert params.g == 9.81
    assert params.total_mass == pytest.approx(186e-6)


def test_default_inertia_ordering(params):
    Jxx, Jyy, Jzz = params.J
    assert Jzz < Jyy < Jxx


def test_builtin_profile_name():
    assert BUILTIN_PROFILE == "robofly-150mg"
    p = load_params(BUILTIN_PROFILE)
    assert p == default_robofly_params()


def test_hover_thrust_and_command(params):
    assert hover_thrust(params) == pytest.approx(1.8247e-3, rel=1e-4)
    cmd, saturated = wrench_to_cmd(params, Wrench(hover_thrust(params), 0.0, 0.0))
    assert not saturated
    # the quoted two-decimal amplitude is a rounded presentation of the fit;
    # exact arithmetic gives 129.1945 V
    assert cmd.A == pytest.approx(129.17, abs=0.05)
    exact = (hover_thrust(params) - params.thrust_intercept) / params.thrust_slope
    assert cmd.A == pytest.approx(exact, rel=1e-12)
    assert cmd.dA == 0.0
    assert cmd.Vo == 0.0


def test_cmd_to_wrench_examples(params):
    w = cmd_to_wrench(params, ActuatorCmd(129.17, 0.0, 0.0))
    assert w.thrust == pytest.approx(1.8247e-3, rel=1e-3)
    # fit zero-crossing: 0.0024 / 3.27e-5
    w0 = cmd_to_wrench(params, ActuatorCmd(0.0024 / 3.27e-5, 0.0, 0.0))
    assert w0.thrust == pytest.approx(0.0, abs=1e-12)
    assert 0.0024 / 3.27e-5 == pytest.approx(73.39, abs=0.01)
    w_roll = cmd_to_wrench(params, ActuatorCmd(100.0, 10.0, 0.0))
    assert w_roll.tau_r == pytest.approx(4.8e-6, rel=1e-12)


def test_thrust_clamps_at_zero_below_crossing(params):
    w = cmd_to_wrench(params, ActuatorCmd(10.0, 0.0, 0.0))
    assert w.thrust == 0.0


def test_wrench_to_cmd_examples(params):
    cmd, sat = wrench_to_cmd(params, Wrench(1.8247e-3, 0.0, 0.0))
    assert not sat
    assert cmd.A == pytest.approx(129.17, abs=0.05)
    cmd2, sat2 = wrench_to_cmd(params, Wrench(0.0, 4.8e-6, 0.0))
    assert not sat2
    assert cmd2.dA == pytest.approx(10.0, rel=1e-12)


def test_wrench_cmd_round_trip_interior(params):
    rng = np.random.default_rng(31)
    lo = params.thrust_slope * params.A_limits[0] + params.thrust_intercept
    hi = params.thrust_slope * params.A_limits[1] + params.thrust_intercept
    for _ in range(300):
        w = Wrench(
            rng.uniform(max(lo, 0.0) + 1e-9, hi - 1e-9),
            rng.uniform(-0.99, 0.99) * params.roll_slope * params.dA_limit,
            rng.uniform(-0.99, 0.99) * params.pitch_slope * params.Vo_limit,
        )
        cmd, sat = wrench_to_cmd(params, w)
        assert not sat
        back = cmd_to_wrench(params, cmd)
        assert back.thrust == pytest.approx(w.thrust, rel=1e-12)
        assert back.tau_r == pytest.approx(w.tau_r, rel=1e-12)
        assert back.tau_p == pytest.approx(w.tau_p, rel=1e-12)


def test_saturation_flags_and_clips(params):
    cmd, sat = wrench_to_cmd(params, Wrench(1.0, 0.0, 0.0))   # ~30000 V worth
    assert sat and cmd.A == params.A_limits[1]
    cmd2, sat2 = wrench_to_cmd(params, Wrench(1e-3, 1e-3, -1e-3))
    assert sat2
    assert cmd2.dA == params.dA_limit
    assert cmd2.Vo == -params.Vo_limit
    inside = ActuatorCmd(100.0, 0.0, 0.0)
    cmd3, sat3 = wrench_to_cmd(params, cmd_to_wrench(params, inside))
    assert not sat3
    assert cmd3.A == pytest.approx(inside.A, rel=1e-12)


def test_torque_fits_linear_and_odd(params):
    for scale in (-2.0, -0.5, 0.5, 2.0):
        w = cmd_to_wrench(params, ActuatorCmd(100.0, scale * 5.0, scale * 8.0))
        assert w.tau_r == pytest.approx(scale * 5.0 * params.roll_slope)
        assert w.tau_p == pytest.approx(scale * 8.0 * params.pitch_slope)


def test_thrust_monotone_in_amplitude(params):
    amps = np.linspace(0.0, 250.0, 60)
    thrusts = [cmd_to_wrench(params, ActuatorCmd(a, 0.0, 0.0)).thrust for a in amps]
    assert np.all(np.diff(thrusts) >= 0.0)


def test_peak_angular_accel_scale(params):
    # saturated roll torque over Jxx should land in the 1e3..1e4 rad/s^2
    # decade for this vehicle
    accel = params.roll_slope * params.dA_limit / params.J[0]
    assert 1e3 <= accel <= 1e4


def test_params_validation_errors():
    with pytest.raises(ConfigError):
        VehicleParams(m=0.0)
    with pytest.raises(ConfigError):
        VehicleParams(J=(1e-9, -1e-9, 1e-9))
    with pytest.raises(ConfigError):
        VehicleParams(thrust_slope=0.0)
    with pytest.raises(ConfigError):
        VehicleParams(roll_slope=0.0)
    with pytest.raises(ConfigError):
        VehicleParams(A_limits=(250.0, 0.0))
    with pytest.raises(ConfigError):
        VehicleParams(dA_limit=-1.0)
    with pytest.raises(ConfigError):
        VehicleParams(g=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("m", math.nan),
        ("g", math.nan),
        ("J", (3.12e-9, math.nan, 0.55e-9)),
        ("J", [3.12e-9, True, 0.55e-9]),
        ("roll_slope", math.inf),
        ("thrust_intercept", -math.inf),
        ("A_limits", (0.0, math.inf)),
        ("m", True),
        ("Vo_limit", False),
    ],
)
def test_params_refuse_non_finite_and_boolean_values(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must hold only finite numbers"):
        VehicleParams(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("J", 5e-9, "J must be three positive principal inertias"),
    ("A_limits", 250.0, "A_limits must be an increasing (lo, hi) pair"),
])
def test_params_refuse_a_scalar_for_a_vector(tmp_path, field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        VehicleParams(**{field: value})
    path = tmp_path / "veh.yaml"
    path.write_text(f"{field}: {value!r}\n")
    with pytest.raises(ConfigError, match=f"bad parameter value .*: {re.escape(message)}$"):
        load_params(str(path))


def test_params_sign_rules_unchanged():
    p = VehicleParams(thrust_intercept=-0.0024, roll_slope=-0.48e-6, pitch_slope=-0.11e-6)
    assert p.roll_slope < 0 and p.pitch_slope < 0


@pytest.mark.parametrize("line", ["m: .nan\n", "J: [3.12e-9, .nan, 0.55e-9]\n",
                                  "roll_slope: .inf\n", "m: true\n"])
def test_params_file_refuses_non_finite_and_boolean_values(tmp_path, line):
    path = tmp_path / "veh.yaml"
    path.write_text(line)
    field = line.split(":")[0]
    with pytest.raises(ConfigError, match=f"bad parameter value .*{field} must hold only finite"):
        load_params(str(path))


def test_params_file_reads_exponent_numbers(tmp_path):
    # vehicle.py's own literal: YAML 1.1 alone reads it as the string '150e-6'
    path = tmp_path / "veh.yaml"
    path.write_text("m: 150e-6\nm_M: 4e-5\n")
    p = load_params(str(path))
    assert p.m == 150e-6 and p.m_M == 4e-5
    path.write_text("m: '150e-6'\n")
    with pytest.raises(ConfigError, match="m must hold only finite numbers, got '150e-6'"):
        load_params(str(path))


def test_params_file_round_trip(tmp_path, params):
    path = tmp_path / "veh.yaml"
    modified = VehicleParams(m=160e-6, dA_limit=35.0)
    data = {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(modified).items()}
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    loaded = load_params(str(path))
    assert loaded == modified
    assert loaded != params


def test_params_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "veh.yaml"
    path.write_text("m: 1.5e-4\nwingspan: 0.03\n")
    with pytest.raises(ConfigError, match="wingspan"):
        load_params(str(path))
    # the retired drive-signal settings are unknown keys like any other
    for key in ("flap_freq", "V_bias"):
        path.write_text(f"{key}: 180.0\n")
        with pytest.raises(ConfigError, match=re.escape(f"unknown parameter keys ['{key}']")):
            load_params(str(path))
    assert len(dataclasses.fields(VehicleParams)) == 11


def test_params_file_missing_and_malformed(tmp_path):
    with pytest.raises(ConfigError, match="no such parameter file"):
        load_params(str(tmp_path / "nope.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(SchemaError, match=re.escape(f"{bad}: file must contain a mapping")):
        load_params(str(bad))
    # the scenario reader's messages: one reader opens and parses both kinds of file
    bad.write_text("m: [unclosed\n")
    with pytest.raises(ConfigError, match=re.escape(f"{bad}: not valid YAML (")):
        load_params(str(bad))
    invalid = tmp_path / "invalid.yaml"
    invalid.write_text("m: -1.0\n")
    with pytest.raises(ConfigError):
        load_params(str(invalid))


def test_partial_params_file_fills_defaults(tmp_path):
    path = tmp_path / "veh.yaml"
    path.write_text("m_M: 4.0e-5\n")
    p = load_params(str(path))
    assert p.m_M == 4.0e-5
    assert p.m == 150e-6
