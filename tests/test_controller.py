"""Control-loop tests: error assembly, gain application, references."""

import math

import numpy as np
import pytest

import oracles
from flapsim.controller import (
    CircleSchedule,
    ConstantSchedule,
    CsvSchedule,
    CtrlState,
    Setpoint,
    assemble_ctrl_state,
    control_step,
)
from flapsim.errors import SchemaError
from flapsim.kinematics import (
    EulerAngles321,
    Quaternion,
    euler_to_quat,
    euler_to_rotmat,
    quat_multiply,
)
from flapsim.vehicle import hover_cmd, hover_thrust


def make_ctrl_state(pos=(0, 0, 0), vel=(0, 0, 0), euler=(0, 0, 0), omega=(0, 0, 0)):
    """CtrlState with consistent quat/euler/R, bypassing the estimator."""
    e = EulerAngles321(*euler)
    return CtrlState(
        pos_w=np.asarray(pos, dtype=float),
        vel_w=np.asarray(vel, dtype=float),
        raw_vel_w=np.asarray(vel, dtype=float),
        quat=euler_to_quat(e),
        euler=e,
        R=euler_to_rotmat(e),
        omega_b=np.asarray(omega, dtype=float),
    )


# ---------------------------------------------------------------------------
# control_step
# ---------------------------------------------------------------------------


def test_zero_error_gives_exact_hover_command(params, gain):
    s = make_ctrl_state()
    out = control_step(gain, s, Setpoint.hold((0.0, 0.0, 0.0)), params)
    ref = hover_cmd(params)
    assert out.cmd.A == pytest.approx(ref.A, rel=1e-12)
    assert out.cmd.dA == 0.0
    assert out.cmd.Vo == 0.0
    assert out.wrench.thrust == pytest.approx(hover_thrust(params), rel=1e-12)
    assert out.wrench.tau_r == 0.0
    assert out.wrench.tau_p == 0.0
    assert out.saturated is False


def test_altitude_error_raises_thrust(params, gain):
    s = make_ctrl_state()
    sp = Setpoint.hold((0.0, 0.0, 0.01))  # want to be 1 cm higher
    out = control_step(gain, s, sp, params)
    assert out.wrench.thrust > hover_thrust(params)
    # level attitude: the error enters only through the d_z gain entry
    expected = hover_thrust(params) + gain[0, 2] * 0.01
    assert out.wrench.thrust == pytest.approx(expected, rel=1e-9)
    assert out.saturated is False


def test_forward_error_commands_pitch_not_roll(params, gain):
    s = make_ctrl_state()
    # error sizes from the gain: half and twice the x error that asks for
    # exactly the pitch-torque limit
    tau_lim = params.pitch_slope * params.Vo_limit
    e_lim = tau_lim / gain[2, 0]
    # inside the torque box the applied pitch torque equals the linear
    # gain action exactly
    out = control_step(gain, s, Setpoint.hold((0.5 * e_lim, 0.0, 0.0)), params)
    assert out.wrench.tau_p == pytest.approx(gain[2, 0] * 0.5 * e_lim, rel=1e-9)
    assert abs(out.wrench.tau_r) <= 1e-15
    assert out.saturated is False
    # beyond it the pitch channel clamps at its limit
    big = control_step(gain, s, Setpoint.hold((2.0 * e_lim, 0.0, 0.0)), params)
    assert big.saturated is True
    assert big.wrench.tau_p == pytest.approx(tau_lim, rel=1e-12)
    assert abs(big.wrench.tau_r) <= 1e-15


def test_command_invariant_under_world_yaw(params, gain):
    rng = np.random.default_rng(7)
    sp0 = Setpoint(pos_w=(0.04, -0.02, 0.03), vel_w=(0.1, 0.0, -0.05))
    s0 = make_ctrl_state(
        pos=(0.01, 0.02, -0.01),
        vel=(-0.2, 0.1, 0.05),
        euler=(0.1, -0.15, 0.4),
        omega=(1.0, -2.0, 0.5),
    )
    ref = control_step(gain, s0, sp0, params)
    for _ in range(5):
        psi = rng.uniform(-math.pi, math.pi)
        Rz = oracles.rot_z(psi)
        qz = euler_to_quat(EulerAngles321(0.0, 0.0, psi))
        q2 = quat_multiply(qz, s0.quat).canonical()
        R2 = Rz @ s0.R
        from flapsim.kinematics import rotmat_to_euler

        s2 = CtrlState(
            pos_w=Rz @ s0.pos_w,
            vel_w=Rz @ s0.vel_w,
            raw_vel_w=Rz @ s0.raw_vel_w,
            quat=q2,
            euler=rotmat_to_euler(R2),
            R=R2,
            omega_b=s0.omega_b,
        )
        sp2 = Setpoint(Rz @ sp0.pos_w, Rz @ sp0.vel_w)
        out = control_step(gain, s2, sp2, params)
        assert out.wrench.thrust == pytest.approx(ref.wrench.thrust, rel=1e-10)
        assert out.wrench.tau_r == pytest.approx(ref.wrench.tau_r, rel=1e-10)
        assert out.wrench.tau_p == pytest.approx(ref.wrench.tau_p, rel=1e-10)


def test_control_step_rejects_bad_gain_shape(params):
    s = make_ctrl_state()
    sp = Setpoint.hold((0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        control_step(np.zeros((2, 10)), s, sp, params)
    with pytest.raises(ValueError):
        control_step(np.zeros((3, 9)), s, sp, params)


def test_large_error_sets_saturation_flag(params, gain):
    out = control_step(gain, make_ctrl_state(), Setpoint.hold((0.0, 0.0, 5.0)), params)
    assert out.saturated is True


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------


def test_assemble_first_sample_is_stationary():
    s = assemble_ctrl_state((0.1, 0.2, 0.3), Quaternion(1.0, 0.0, 0.0, 0.0))
    np.testing.assert_array_equal(s.vel_w, 0.0)
    np.testing.assert_array_equal(s.omega_b, 0.0)
    np.testing.assert_allclose(s.pos_w, [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(s.R, np.eye(3))


def test_assemble_constant_velocity_settles_after_two_samples():
    q = Quaternion(1.0, 0.0, 0.0, 0.0)
    dt = 1.0 / 240.0
    s = assemble_ctrl_state((0.0, 0.0, 0.0), q)
    s = assemble_ctrl_state((1.0 * dt, 0.0, 0.0), q, prev=s, dt=dt)
    # first difference averaged against the zero startup raw sample
    assert s.vel_w[0] == pytest.approx(0.5, rel=1e-12)
    s = assemble_ctrl_state((2.0 * dt, 0.0, 0.0), q, prev=s, dt=dt)
    assert s.vel_w[0] == pytest.approx(1.0, rel=1e-12)


def test_assemble_recovers_constant_roll_rate():
    dt = 1.0 / 240.0
    rate = 2.0
    qs = [
        Quaternion(*oracles.constant_rate_quat((rate, 0.0, 0.0), k * dt))
        for k in range(3)
    ]
    s = assemble_ctrl_state((0.0, 0.0, 0.0), qs[0])
    for q in qs[1:]:
        s = assemble_ctrl_state((0.0, 0.0, 0.0), q, prev=s, dt=dt)
    assert s.omega_b[0] == pytest.approx(rate, abs=1e-3)
    assert abs(s.omega_b[1]) < 1e-9 and abs(s.omega_b[2]) < 1e-9


def test_assemble_input_validation():
    q = Quaternion(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="off unit"):
        assemble_ctrl_state((0.0, 0.0, 0.0), Quaternion(1.1, 0.0, 0.0, 0.0))
    prev = assemble_ctrl_state((0.0, 0.0, 0.0), q)
    for bad_dt in (None, 0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            assemble_ctrl_state((0.0, 0.0, 0.0), q, prev=prev, dt=bad_dt)
    with pytest.raises(ValueError):
        assemble_ctrl_state((np.nan, 0.0, 0.0), q)
    with pytest.raises(TypeError):  # velocity is always differenced; there is no override
        assemble_ctrl_state((0.0, 0.0, 0.0), q, prev=prev, dt=0.1, vel_w=(0.0, 0.0, 0.0))


def test_sigma_layout():
    s = make_ctrl_state(
        pos=(1.0, 2.0, 3.0),
        vel=(0.1, 0.2, 0.3),
        euler=(0.2, -0.3, 0.9),
        omega=(4.0, 5.0, 6.0),
    )
    sig = s.sigma()
    np.testing.assert_allclose(sig[0:3], s.R.T @ [1.0, 2.0, 3.0], rtol=1e-12)
    np.testing.assert_allclose(sig[3:6], s.R.T @ [0.1, 0.2, 0.3], rtol=1e-12)
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
