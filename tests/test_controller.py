"""Control-loop tests: error assembly, gain application, references."""

import math

import numpy as np
import pytest

import oracles
from flapsim.controller import (
    CircleSchedule,
    ConstantSchedule,
    CsvSchedule,
    Setpoint,
    _decide,
    _sense,
    _sigma,
)
from flapsim.errors import SchemaError
from flapsim.kinematics import EulerAngles321, euler_to_rotmat, rotmat_to_euler
from flapsim.vehicle import ActuatorCmd, Wrench, hover_thrust, wrench_to_cmd

DT = 1.0 / 240.0


def make_est(pos=(0, 0, 0), vel=(0, 0, 0), euler=(0, 0, 0), omega=(0, 0, 0)):
    """An estimate as ``_sense`` returns it, with R consistent with the angles."""
    e = EulerAngles321(*euler)
    return (euler_to_rotmat(e).ravel().tolist(), [float(v) for v in pos],
            [float(v) for v in vel], (e.roll, e.pitch, e.yaw), [float(v) for v in omega])


def decide(gain, est, sp, params):
    """``_decide`` on an estimate and a Setpoint: (command, wrench, saturated)."""
    A, dA, Vo, *wrench, saturated = _decide(
        np.asarray(gain).tolist(), est, np.ravel(sp.pos_w).tolist(),
        np.ravel(sp.vel_w).tolist(), params, hover_thrust(params))
    return ActuatorCmd(A, dA, Vo), Wrench(*wrench), saturated


def sense(samples, dt=DT):
    """Run ``_sense`` over (position, quaternion) samples; the last estimate."""
    carry = None
    for pos, q in samples:
        est, carry = _sense([float(v) for v in pos], [float(v) for v in q], carry, dt)
    return est


# ---------------------------------------------------------------------------
# control law
# ---------------------------------------------------------------------------


def test_zero_error_gives_exact_hover_command(params, gain):
    cmd, wrench, saturated = decide(gain, make_est(), Setpoint.hold((0.0, 0.0, 0.0)), params)
    ref, _ = wrench_to_cmd(params, Wrench(hover_thrust(params), 0.0, 0.0))
    assert cmd.A == pytest.approx(ref.A, rel=1e-12)
    assert cmd.dA == 0.0
    assert cmd.Vo == 0.0
    assert wrench.thrust == pytest.approx(hover_thrust(params), rel=1e-12)
    assert wrench.tau_r == 0.0
    assert wrench.tau_p == 0.0
    assert saturated is False


def test_altitude_error_raises_thrust(params, gain):
    sp = Setpoint.hold((0.0, 0.0, 0.01))  # want to be 1 cm higher
    _, wrench, saturated = decide(gain, make_est(), sp, params)
    assert wrench.thrust > hover_thrust(params)
    # level attitude: the error enters only through the d_z gain entry
    expected = hover_thrust(params) + gain[0, 2] * 0.01
    assert wrench.thrust == pytest.approx(expected, rel=1e-9)
    assert saturated is False


def test_forward_error_commands_pitch_not_roll(params, gain):
    est = make_est()
    # error sizes from the gain: half and twice the x error that asks for
    # exactly the pitch-torque limit
    tau_lim = params.pitch_slope * params.Vo_limit
    e_lim = tau_lim / gain[2, 0]
    # inside the torque box the applied pitch torque equals the linear
    # gain action exactly
    _, wrench, saturated = decide(gain, est, Setpoint.hold((0.5 * e_lim, 0.0, 0.0)), params)
    assert wrench.tau_p == pytest.approx(gain[2, 0] * 0.5 * e_lim, rel=1e-9)
    assert abs(wrench.tau_r) <= 1e-15
    assert saturated is False
    # beyond it the pitch channel clamps at its limit
    _, big, big_saturated = decide(gain, est, Setpoint.hold((2.0 * e_lim, 0.0, 0.0)), params)
    assert big_saturated is True
    assert big.tau_p == pytest.approx(tau_lim, rel=1e-12)
    assert abs(big.tau_r) <= 1e-15


def test_command_invariant_under_world_yaw(params, gain):
    rng = np.random.default_rng(7)
    sp0 = Setpoint(pos_w=(0.04, -0.02, 0.03), vel_w=(0.1, 0.0, -0.05))
    pos, vel, omega = (0.01, 0.02, -0.01), (-0.2, 0.1, 0.05), (1.0, -2.0, 0.5)
    euler = (0.1, -0.15, 0.4)
    _, ref, _ = decide(gain, make_est(pos, vel, euler, omega), sp0, params)
    R0 = euler_to_rotmat(EulerAngles321(*euler))
    for _ in range(5):
        Rz = oracles.rot_z(rng.uniform(-math.pi, math.pi))
        e2 = rotmat_to_euler(Rz @ R0)
        est2 = make_est(Rz @ pos, Rz @ vel, (e2.roll, e2.pitch, e2.yaw), omega)
        sp2 = Setpoint(Rz @ sp0.pos_w, Rz @ sp0.vel_w)
        _, out, _ = decide(gain, est2, sp2, params)
        assert out.thrust == pytest.approx(ref.thrust, rel=1e-10)
        assert out.tau_r == pytest.approx(ref.tau_r, rel=1e-10)
        assert out.tau_p == pytest.approx(ref.tau_p, rel=1e-10)


def test_large_error_sets_saturation_flag(params, gain):
    _, _, saturated = decide(gain, make_est(), Setpoint.hold((0.0, 0.0, 5.0)), params)
    assert saturated is True


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------


def test_assemble_first_sample_is_stationary():
    R, pos, vel, _, rates = sense([((0.1, 0.2, 0.3), (1.0, 0.0, 0.0, 0.0))])
    np.testing.assert_array_equal(vel, 0.0)
    np.testing.assert_array_equal(rates, 0.0)
    np.testing.assert_allclose(pos, [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(np.reshape(R, (3, 3)), np.eye(3))


def test_assemble_constant_velocity_settles_after_two_samples():
    q = (1.0, 0.0, 0.0, 0.0)
    # first difference averaged against the zero startup raw sample
    _, _, vel, _, _ = sense([((0.0, 0.0, 0.0), q), ((1.0 * DT, 0.0, 0.0), q)])
    assert vel[0] == pytest.approx(0.5, rel=1e-12)
    _, _, vel, _, _ = sense([((k * DT, 0.0, 0.0), q) for k in range(3)])
    assert vel[0] == pytest.approx(1.0, rel=1e-12)


def test_assemble_recovers_constant_roll_rate():
    rate = 2.0
    samples = [((0.0, 0.0, 0.0), oracles.constant_rate_quat((rate, 0.0, 0.0), k * DT))
               for k in range(3)]
    _, _, _, _, omega = sense(samples)
    assert omega[0] == pytest.approx(rate, abs=1e-3)
    assert abs(omega[1]) < 1e-9 and abs(omega[2]) < 1e-9


def test_assemble_input_validation():
    with pytest.raises(ValueError, match="off unit"):
        sense([((0.0, 0.0, 0.0), (1.1, 0.0, 0.0, 0.0))])


def test_sigma_layout():
    est = make_est(
        pos=(1.0, 2.0, 3.0),
        vel=(0.1, 0.2, 0.3),
        euler=(0.2, -0.3, 0.9),
        omega=(4.0, 5.0, 6.0),
    )
    R = np.reshape(est[0], (3, 3))
    sig = np.array(_sigma(est))
    np.testing.assert_allclose(sig[0:3], R.T @ [1.0, 2.0, 3.0], rtol=1e-12)
    np.testing.assert_allclose(sig[3:6], R.T @ [0.1, 0.2, 0.3], rtol=1e-12)
    assert sig[6] == pytest.approx(0.2, abs=1e-12)
    assert sig[7] == pytest.approx(-0.3, abs=1e-12)
    assert sig[8] == 4.0 and sig[9] == 5.0
    assert sig.shape == (10,)


def test_setpoint_hold_and_validation():
    sp = Setpoint.hold((1.0, 2.0, 3.0))
    np.testing.assert_array_equal(sp.vel_w, 0.0)
    np.testing.assert_allclose(sp.pos_w, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="pos_w"):
        ConstantSchedule(Setpoint(pos_w=(np.inf, 0.0, 0.0)))
    with pytest.raises(ValueError, match="vel_w"):
        ConstantSchedule(Setpoint(pos_w=(0.0, 0.0, 0.0), vel_w=(0.0, np.nan, 0.0)))


# ---------------------------------------------------------------------------
# references and schedules
# ---------------------------------------------------------------------------


def test_circle_reference_geometry():
    center = np.array([0.1, -0.2, 0.5])
    circle = CircleSchedule(0.1, 0.25, center)
    sp = circle(0.0)
    np.testing.assert_allclose(sp.pos_w, center + [0.1, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sp.vel_w, [0.0, 0.25, 0.0], atol=1e-15)
    period = 2.0 * math.pi * 0.1 / 0.25
    assert period == pytest.approx(2.513274, abs=1e-6)
    back = circle(period)
    np.testing.assert_allclose(back.pos_w, sp.pos_w, atol=1e-12)
    quarter = circle(period / 4.0)
    np.testing.assert_allclose(quarter.pos_w, center + [0.0, 0.1, 0.0], atol=1e-12)
    np.testing.assert_allclose(quarter.vel_w, [-0.25, 0.0, 0.0], atol=1e-12)


def test_circle_reference_zero_speed_is_stationary():
    circle = CircleSchedule(0.1, 0.0)
    a, b = circle(0.0), circle(123.4)
    np.testing.assert_array_equal(a.pos_w, b.pos_w)
    np.testing.assert_array_equal(a.vel_w, 0.0)


def test_circle_reference_validation():
    with pytest.raises(ValueError, match="radius"):
        CircleSchedule(0.0, 0.25)
    with pytest.raises(ValueError, match="radius"):
        CircleSchedule(-0.1, 0.25)
    with pytest.raises(ValueError, match="speed"):
        CircleSchedule(0.1, -0.1)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        CircleSchedule(np.inf, 0.25)
    with pytest.raises(ValueError, match="speed must be finite"):
        CircleSchedule(0.1, np.nan)
    with pytest.raises(ValueError, match="center_w"):
        CircleSchedule(0.1, 0.1, (np.nan, 0.0, 0.0))


def test_constant_schedule():
    sp = Setpoint.hold((0.0, 0.0, 0.1))
    sched = ConstantSchedule(sp)
    assert sched(0.0) is sched(99.0)
    np.testing.assert_array_equal(sched(0.0).pos_w, sp.pos_w)
    np.testing.assert_array_equal(sched(0.0).vel_w, sp.vel_w)


def test_circle_schedule_matches_reference():
    # closed form: phase 2.5 rad/s from (r, 0) about the center, speed 0.25 m/s
    sched = CircleSchedule(0.1, 0.25, (0.0, 0.0, 0.4))
    for t in (0.0, 0.7, 2.2):
        a = 2.5 * t
        got = sched(t)
        np.testing.assert_allclose(got.pos_w, [0.1 * math.cos(a), 0.1 * math.sin(a), 0.4],
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(got.vel_w, [-0.25 * math.sin(a), 0.25 * math.cos(a), 0.0],
                                   rtol=0.0, atol=1e-15)


def test_csv_schedule_interpolates_and_holds_ends(tmp_path):
    f = tmp_path / "sched.csv"
    f.write_text(
        "t,x,y,z,vx,vy,vz\n"
        "0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
        "\n"
        "1.0,0.1,0.0,0.2,0.1,0.0,0.0\n"
    )
    sched = CsvSchedule.from_csv(f)
    mid = sched(0.5)
    np.testing.assert_allclose(mid.pos_w, [0.05, 0.0, 0.1], atol=1e-15)
    np.testing.assert_allclose(mid.vel_w, [0.05, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sched(-5.0).pos_w, [0.0, 0.0, 0.0])
    np.testing.assert_allclose(sched(5.0).pos_w, [0.1, 0.0, 0.2])
    np.testing.assert_allclose(sched(5.0).vel_w, [0.1, 0.0, 0.0])


def test_csv_schedule_single_row_is_constant(tmp_path):
    f = tmp_path / "one.csv"
    f.write_text("t,x,y,z,vx,vy,vz\n0.5,1.0,2.0,3.0,0.0,0.0,0.0\n")
    sched = CsvSchedule.from_csv(f)
    np.testing.assert_allclose(sched(0.0).pos_w, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(sched(9.0).pos_w, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty file"),
        ("time,x,y,z,vx,vy,vz\n0,0,0,0,0,0,0\n", "header"),
        ("t,x,y,z,vx,vy,vz\n0,0,0,0,0,0\n", "expected 7 columns"),
        ("t,x,y,z,vx,vy,vz\n0,zero,0,0,0,0,0\n", ":2:"),
        ("t,x,y,z,vx,vy,vz\n", "no data rows"),
        ("t,x,y,z,vx,vy,vz\n1,0,0,0,0,0,0\n1,1,0,0,0,0,0\n", "increasing"),
        ("t,x,y,z,vx,vy,vz\n0,0,0,0,0,0,0\n\n1,0,0,0,inf,0,0\n", ":4: vx is not finite"),
        ("t,x,y,z,vx,vy,vz\n1,0,0,0,0,0,0\n\n0,0,0,0,0,0,0\n", ":4: timestamps not strictly"),
    ],
)
def test_csv_schedule_schema_errors(tmp_path, text, match):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(SchemaError, match=match):
        CsvSchedule.from_csv(f)


def test_csv_schedule_constructor_validation():
    with pytest.raises(ValueError, match="increasing"):
        CsvSchedule([0.0, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        CsvSchedule([0.0, 1.0], np.full((2, 3), np.nan), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CsvSchedule([], np.zeros((0, 3)), np.zeros((0, 3)))
