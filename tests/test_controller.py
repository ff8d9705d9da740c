"""Control-loop tests: error assembly, gain application, references."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from flapsim import controller
from flapsim.controller import (
    CircleSchedule,
    ConstantSchedule,
    CsvSchedule,
    _decide,
    _sense,
)
from flapsim.errors import SchemaError
from flapsim.kinematics import (
    GIMBAL_GUARD, EulerAngles321, euler_to_quat, euler_to_rotmat, rotmat_to_euler,
)
from flapsim.vehicle import (
    ActuatorCmd, Wrench, _actuator, _wrench_to_cmd, cmd_to_wrench, default_robofly_params,
    hover_thrust, wrench_to_cmd,
)

DT = 1.0 / 240.0


def make_est(pos=(0, 0, 0), vel=(0, 0, 0), euler=(0, 0, 0), omega=(0, 0, 0)):
    """An estimate as ``_sense`` returns it, with R and sigma consistent with the angles."""
    e = EulerAngles321(*euler)
    R = euler_to_rotmat(e)
    sigma = (*(R.T @ np.asarray(pos, float)).tolist(), *(R.T @ np.asarray(vel, float)).tolist(),
             e.roll, e.pitch, float(omega[0]), float(omega[1]))
    return R.ravel().tolist(), [float(v) for v in pos], [float(v) for v in vel], sigma


def decide(gain, est, sp_pos, params, sp_vel=(0.0, 0.0, 0.0)):
    """``_decide`` on an estimate and a world setpoint: (command, wrench, saturated)."""
    A, dA, Vo, *wrench, saturated = _decide(
        np.asarray(gain).tolist(), est, np.ravel(sp_pos).tolist(),
        np.ravel(sp_vel).tolist(), _actuator(params))
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
    cmd, wrench, saturated = decide(gain, make_est(), np.zeros(3), params)
    ref, _ = wrench_to_cmd(params, Wrench(hover_thrust(params), 0.0, 0.0))
    assert cmd.A == pytest.approx(ref.A, rel=1e-12)
    assert cmd.dA == 0.0
    assert cmd.Vo == 0.0
    assert wrench.thrust == pytest.approx(hover_thrust(params), rel=1e-12)
    assert wrench.tau_r == 0.0
    assert wrench.tau_p == 0.0
    assert saturated is False


def test_altitude_error_raises_thrust(params, gain):
    sp_pos = np.array([0.0, 0.0, 0.01])  # want to be 1 cm higher
    _, wrench, saturated = decide(gain, make_est(), sp_pos, params)
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
    _, wrench, saturated = decide(gain, est, np.array([0.5 * e_lim, 0.0, 0.0]), params)
    assert wrench.tau_p == pytest.approx(gain[2, 0] * 0.5 * e_lim, rel=1e-9)
    assert abs(wrench.tau_r) <= 1e-15
    assert saturated is False
    # beyond it the pitch channel clamps at its limit
    _, big, big_saturated = decide(gain, est, np.array([2.0 * e_lim, 0.0, 0.0]), params)
    assert big_saturated is True
    assert big.tau_p == pytest.approx(tau_lim, rel=1e-12)
    assert abs(big.tau_r) <= 1e-15


def test_command_invariant_under_world_yaw(params, gain):
    rng = np.random.default_rng(7)
    sp_pos, sp_vel = np.array([0.04, -0.02, 0.03]), np.array([0.1, 0.0, -0.05])
    pos, vel, omega = (0.01, 0.02, -0.01), (-0.2, 0.1, 0.05), (1.0, -2.0, 0.5)
    euler = (0.1, -0.15, 0.4)
    _, ref, _ = decide(gain, make_est(pos, vel, euler, omega), sp_pos, params, sp_vel)
    R0 = euler_to_rotmat(EulerAngles321(*euler))
    for _ in range(5):
        Rz = oracles.rot_z(rng.uniform(-math.pi, math.pi))
        e2 = rotmat_to_euler(Rz @ R0)
        est2 = make_est(Rz @ pos, Rz @ vel, (e2.roll, e2.pitch, e2.yaw), omega)
        _, out, _ = decide(gain, est2, Rz @ sp_pos, params, Rz @ sp_vel)
        assert out.thrust == pytest.approx(ref.thrust, rel=1e-10)
        assert out.tau_r == pytest.approx(ref.tau_r, rel=1e-10)
        assert out.tau_p == pytest.approx(ref.tau_p, rel=1e-10)


def test_large_error_sets_saturation_flag(params, gain):
    _, _, saturated = decide(gain, make_est(), np.array([0.0, 0.0, 5.0]), params)
    assert saturated is True


_PARAMS = default_robofly_params()


def _command_axis(lo, hi):
    """Command values inside, exactly on and up to one box width beyond [lo, hi]."""
    span = hi - lo
    return st.one_of(st.sampled_from((lo, hi)),
                     st.floats(lo - span, hi + span, allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None)
@given(A=_command_axis(*_PARAMS.A_limits),
       dA=_command_axis(-_PARAMS.dA_limit, _PARAMS.dA_limit),
       Vo=_command_axis(-_PARAMS.Vo_limit, _PARAMS.Vo_limit))
def test_decide_maps_its_wrench_as_the_public_maps_do_bit_for_bit(A, dA, Vo):
    # _decide reads the fits and the box from the run's actuator tuple; on
    # any wrench it must give what wrench_to_cmd, then cmd_to_wrench, give
    p = _PARAMS
    hover = hover_thrust(p)
    d_gamma = p.thrust_slope * A + p.thrust_intercept - hover
    tau_r, tau_p = p.roll_slope * dA, p.pitch_slope * Vo
    # level at the origin the error's position block is the setpoint; these
    # gain rows pick its z, x and y entries as the thrust and torque deviations
    K = [[0.0, 0.0, 1.0] + [0.0] * 7, [1.0] + [0.0] * 9, [0.0, 1.0] + [0.0] * 8]
    out = _decide(K, make_est(), [tau_r, tau_p, d_gamma], [0.0, 0.0, 0.0], _actuator(p))
    # the gain's sums start from zero, so a -0.0 entry arrives as 0.0
    cmd, saturated = wrench_to_cmd(p, Wrench(hover + (d_gamma + 0.0), tau_r + 0.0, tau_p + 0.0))
    w = cmd_to_wrench(p, cmd)
    expected = (cmd.A, cmd.dA, cmd.Vo, w.thrust, w.tau_r, w.tau_p)
    assert np.array(out[:6]).tobytes() == np.array(expected).tobytes()
    assert out[6] is saturated


def test_decide_adds_each_gain_row_left_to_right(params, monkeypatch):
    # K e is added from 0.0, one product after another, whatever the
    # interpreter's builtin sum does (from Python 3.12 it compensates);
    # terms of mixed magnitude make the order show in the bits
    rng = np.random.default_rng(12)
    act = _actuator(params)
    seen = []

    def recording(act, *u):
        seen.append(u)
        return _wrench_to_cmd(act, *u)

    monkeypatch.setattr(controller, "_wrench_to_cmd", recording)
    rounded_differs = 0
    for _ in range(2000):
        K = rng.normal(0.0, 1.0, (3, 10)) * 10.0 ** rng.integers(-6, 7, (3, 10))
        est = make_est(*rng.uniform(-1.0, 1.0, (4, 3)))
        sp_pos, sp_vel = rng.uniform(-1.0, 1.0, (2, 3)).tolist()
        _decide(K.tolist(), est, sp_pos, sp_vel, act)
        e = oracles.control_error(est, sp_pos, sp_vel)
        u = []
        for row in K.tolist():
            acc = 0.0
            for k, x in zip(row, e):
                acc = acc + k * x
            u.append(acc)
            rounded_differs += acc != math.fsum(k * x for k, x in zip(row, e))
        expected = (act[0] + u[0], u[1], u[2])
        assert np.array(seen.pop()).tobytes() == np.array(expected).tobytes()
    # a correctly rounded sum, as a compensated one nearly is, gives other bits here
    assert rounded_differs > 1000


# ---------------------------------------------------------------------------
# the tick's written-out rotation math against the cores
# ---------------------------------------------------------------------------


def _hex(x):
    """``x`` with each float as its hex text, which tells -0.0 from 0.0."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_hex(v) for v in x]
    return x


def _outcome(fn, *args):
    """The bits of what ``fn(*args)`` returns, or the type and text of the ValueError it raises."""
    try:
        return _hex(fn(*args))
    except ValueError as exc:  # GimbalLockError is one
        return type(exc), str(exc)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _quat_of(roll, pitch, yaw):
    """The 321 attitude as a scalar-first quaternion, by the oracle's products."""
    q = oracles.quat_product(oracles.quat_product(oracles.quat_from_axis_angle((0, 0, 1), yaw),
                                                  oracles.quat_from_axis_angle((0, 1, 0), pitch)),
                             oracles.quat_from_axis_angle((1, 0, 0), roll))
    return q.tolist()


_VEC = st.tuples(_finite(-2.0, 2.0), _finite(-2.0, 2.0), _finite(-2.0, 2.0))
# pitch anywhere, and within 1e-7 of either side of the gimbal guard
_PITCH = st.one_of(_finite(-1.5707, 1.5707), _finite(GIMBAL_GUARD - 1e-7, math.pi / 2),
                   _finite(-math.pi / 2, -GIMBAL_GUARD + 1e-7))
# angles inside (-pi, pi], on both ends of it and up to 3 turns outside it
_ANGLE = st.one_of(_finite(-math.pi, math.pi), _finite(-20.0, 20.0),
                   st.sampled_from((math.pi, -math.pi, 3 * math.pi, -3 * math.pi)))
# any sign of w, off unit length by up to 1.5 UNIT_QUAT_TOL (beyond 1 it is refused),
# or an attitude near the gimbal guard
_QUAT = st.one_of(
    st.tuples(st.tuples(*[_finite(-1.0, 1.0)] * 4).filter(lambda c: math.hypot(*c) > 0.1),
              _finite(-1.5e-3, 1.5e-3)).map(
        lambda a: [c * (1.0 + a[1]) / math.hypot(*a[0]) for c in a[0]]),
    st.tuples(_ANGLE, _PITCH, _ANGLE).map(lambda e: _quat_of(*e)),
)
# a carried sample: position, raw velocity and a unit quaternion of either sign
_PREV = st.one_of(st.none(), st.tuples(_VEC, _VEC, _QUAT).map(
    lambda a: (*a[0], *a[1], *(c / math.hypot(*a[2]) for c in a[2]))))
_DT = st.sampled_from((DT, 1e-3, 0.1))


@settings(max_examples=400, deadline=None)
@given(pos=_VEC, quat=_QUAT, prev=_PREV, dt=_DT)
# roll atan2(-0.0, -1.0) = -pi, which reads as +pi
@example(pos=(0.1, 0.2, 0.3), quat=(-0.0, 1.0, -0.0, 0.0), prev=None, dt=DT)
# pitch at and just inside the gimbal guard: the record's refusal text
@example(pos=(0.1, 0.2, 0.3), quat=_quat_of(0.3, math.pi / 2, -0.2), prev=None, dt=DT)
@example(pos=(0.1, 0.2, 0.3), quat=_quat_of(0.3, -GIMBAL_GUARD, 0.2), prev=None, dt=DT)
# w < 0 against a carried sample
@example(pos=(0.1, 0.2, 0.3), quat=(-0.5, 0.5, -0.5, 0.5),
         prev=(0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0), dt=DT)
def test_sense_is_its_core_oracle_bit_for_bit(pos, quat, prev, dt):
    # _sense writes _rotmat, _rotmat_euler, _qmul, _quat_rotvec and R^T out
    # on locals; each value, or the refusal's text, must be the cores'
    pos = list(pos)
    out = _outcome(_sense, pos, quat, prev, dt)
    assert out == _outcome(oracles.sense_on_cores, pos, quat, prev, dt)
    if not isinstance(out, tuple):
        # the same sample again: an increment below 1e-9 takes the log map's series branch
        _, carry = _sense(pos, quat, prev, dt)
        assert _outcome(_sense, pos, quat, carry, dt) == \
            _outcome(oracles.sense_on_cores, pos, quat, carry, dt)


# sensor draws: none, a rotation vector below the 1e-9 series threshold, or a larger one
_DRAWS = st.one_of(
    st.none(),
    st.tuples(_VEC, st.one_of(st.tuples(*[_finite(-5e-10, 5e-10)] * 3),
                              st.tuples(*[_finite(-0.1, 0.1)] * 3))).map(
        lambda a: (*(1e-3 * c for c in a[0]), *a[1])),
)


@settings(max_examples=400, deadline=None)
@given(pos=_VEC, angles=st.tuples(_ANGLE, _PITCH, _ANGLE), draws=_DRAWS, prev=_PREV, dt=_DT)
def test_sense_truth_is_its_core_oracle_bit_for_bit(pos, angles, draws, prev, dt):
    # _sense_truth tests wrap_angle's range itself and writes _euler_quat and
    # the noise _qmul out; each value, or the refusal's text, must be the cores'
    y = [*pos, 0.1, -0.2, 0.3, *angles, 1.0, -2.0, 3.0]
    assert _outcome(controller._sense_truth, y, prev, dt, draws) == \
        _outcome(oracles.sense_truth_on_cores, y, prev, dt, draws)


# gain entries whose magnitudes span 12 decades, so that a reordered add shows in the bits
_GAIN_ROW = st.lists(st.tuples(_finite(-1.0, 1.0), st.integers(-6, 6)).map(
    lambda a: a[0] * 10.0 ** a[1]), min_size=10, max_size=10)


@settings(max_examples=400, deadline=None)
@given(K=st.lists(_GAIN_ROW, min_size=3, max_size=3), pos=_VEC, quat=_QUAT, prev=_PREV,
       sp=st.tuples(_VEC, _VEC), load=st.tuples(*[_finite(0.0, 2.0)] * 3))
def test_decide_is_its_core_oracle_bit_for_bit(K, pos, quat, prev, sp, load):
    # _decide writes R^T out and unrolls the gain rows; each command and
    # wrench value, and the saturation flag, must be the cores'
    try:
        est, _ = _sense(list(pos), quat, prev, DT)
    except ValueError:
        return
    act = _actuator(_PARAMS)
    hover, ts, ti, rs, ps, a_lo, a_hi, _, da_hi, _, vo_hi = act
    # each row scaled so that its terms' magnitudes add up to ``load`` times
    # the room its channel has from hover to the command box: below 1 the
    # command is inside the box and shows every bit of K e, above 1 it may clip
    room = (min(hover - (ti + ts * a_lo), ts * a_hi + ti - hover), rs * da_hi, ps * vo_hi)
    e = oracles.control_error(est, *sp)
    for row, r, f in zip(K, room, load):
        size = sum(abs(k * x) for k, x in zip(row, e))
        row[:] = [k * (f * r / size) for k in row] if size > 0.0 else row
    assert _hex(_decide(K, est, *sp, act)) == _hex(oracles.decide_on_cores(K, est, *sp, act))


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------


def test_assemble_first_sample_is_stationary():
    R, pos, vel, sigma = sense([((0.1, 0.2, 0.3), (1.0, 0.0, 0.0, 0.0))])
    np.testing.assert_array_equal(vel, 0.0)
    np.testing.assert_array_equal(sigma[8:], 0.0)
    np.testing.assert_allclose(pos, [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(np.reshape(R, (3, 3)), np.eye(3))


def test_assemble_constant_velocity_settles_after_two_samples():
    q = (1.0, 0.0, 0.0, 0.0)
    # first difference averaged against the zero startup raw sample
    _, _, vel, _ = sense([((0.0, 0.0, 0.0), q), ((1.0 * DT, 0.0, 0.0), q)])
    assert vel[0] == pytest.approx(0.5, rel=1e-12)
    _, _, vel, _ = sense([((k * DT, 0.0, 0.0), q) for k in range(3)])
    assert vel[0] == pytest.approx(1.0, rel=1e-12)


def test_assemble_recovers_constant_roll_rate():
    rate = 2.0
    samples = [((0.0, 0.0, 0.0), oracles.constant_rate_quat((rate, 0.0, 0.0), k * DT))
               for k in range(3)]
    *_, sigma = sense(samples)
    # the estimate's body rates are sigma's last two entries, p and q
    assert sigma[8] == pytest.approx(rate, abs=1e-3)
    assert abs(sigma[9]) < 1e-9


def test_assemble_input_validation():
    with pytest.raises(ValueError, match="off unit"):
        sense([((0.0, 0.0, 0.0), (1.1, 0.0, 0.0, 0.0))])


def test_sigma_layout():
    # the design state _sense returns with its estimate: position and
    # velocity in the body frame, roll, pitch and the first two body rates
    rate = (4.0, 5.0, 6.0)
    q0 = euler_to_quat(EulerAngles321(0.2, -0.3, 0.9))
    samples = []
    for k in range(3):
        q = oracles.constant_rate_quat(rate, k * DT, np.array([q0.w, q0.x, q0.y, q0.z]))
        samples.append(((1.0 + 0.1 * k * DT, 2.0 + 0.2 * k * DT, 3.0 + 0.3 * k * DT), q))
    R, pos, vel, sigma = sense(samples)
    R = np.reshape(R, (3, 3))
    sig = np.array(sigma)
    assert sig.shape == (10,)
    np.testing.assert_allclose(sig[0:3], R.T @ pos, rtol=1e-12)
    np.testing.assert_allclose(sig[3:6], R.T @ vel, rtol=1e-12)
    np.testing.assert_allclose(vel, [0.1, 0.2, 0.3], rtol=1e-9)
    e = rotmat_to_euler(R)
    assert (sig[6], sig[7]) == (e.roll, e.pitch)
    np.testing.assert_allclose(sig[8:10], rate[:2], rtol=1e-6)


def test_sensed_roll_of_minus_pi_reads_plus_pi():
    # atan2 gives -pi on a signed zero; the estimate's roll is in (-pi, pi]
    # as wrap_angle puts it
    R, _, _, sigma = sense([((0.0, 0.0, 0.0), (-0.0, 1.0, -0.0, 0.0))])
    assert math.atan2(R[7], R[8]) == -math.pi
    assert sigma[6] == math.pi


def test_setpoint_hold_and_validation():
    pos, vel = ConstantSchedule(np.array([1.0, 2.0, 3.0]))(0.0)
    np.testing.assert_array_equal(vel, 0.0)
    np.testing.assert_allclose(pos, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="pos_w"):
        ConstantSchedule((np.inf, 0.0, 0.0))
    with pytest.raises(ValueError, match="vel_w"):
        ConstantSchedule((0.0, 0.0, 0.0), vel_w=(0.0, np.nan, 0.0))


# ---------------------------------------------------------------------------
# references and schedules
# ---------------------------------------------------------------------------


def test_circle_reference_geometry():
    center = np.array([0.1, -0.2, 0.5])
    circle = CircleSchedule(0.1, 0.25, center)
    sp = circle(0.0)
    np.testing.assert_allclose(sp[0], center + [0.1, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sp[1], [0.0, 0.25, 0.0], atol=1e-15)
    period = 2.0 * math.pi * 0.1 / 0.25
    assert period == pytest.approx(2.513274, abs=1e-6)
    back = circle(period)
    np.testing.assert_allclose(back[0], sp[0], atol=1e-12)
    quarter = circle(period / 4.0)
    np.testing.assert_allclose(quarter[0], center + [0.0, 0.1, 0.0], atol=1e-12)
    np.testing.assert_allclose(quarter[1], [-0.25, 0.0, 0.0], atol=1e-12)


def test_circle_reference_zero_speed_is_stationary():
    circle = CircleSchedule(0.1, 0.0)
    a, b = circle(0.0), circle(123.4)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], 0.0)


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
    pos = np.array([0.0, 0.0, 0.1])
    sched = ConstantSchedule(pos)
    assert sched(0.0) is sched(99.0)
    np.testing.assert_array_equal(sched(0.0)[0], pos)
    np.testing.assert_array_equal(sched(0.0)[1], np.zeros(3))


def test_circle_schedule_matches_reference():
    # closed form: phase 2.5 rad/s from (r, 0) about the center, speed 0.25 m/s
    sched = CircleSchedule(0.1, 0.25, (0.0, 0.0, 0.4))
    for t in (0.0, 0.7, 2.2):
        a = 2.5 * t
        got = sched(t)
        np.testing.assert_allclose(got[0], [0.1 * math.cos(a), 0.1 * math.sin(a), 0.4],
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(got[1], [-0.25 * math.sin(a), 0.25 * math.cos(a), 0.0],
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
    np.testing.assert_allclose(mid[0], [0.05, 0.0, 0.1], atol=1e-15)
    np.testing.assert_allclose(mid[1], [0.05, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sched(-5.0)[0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(sched(5.0)[0], [0.1, 0.0, 0.2])
    np.testing.assert_allclose(sched(5.0)[1], [0.1, 0.0, 0.0])


def test_csv_schedule_single_row_is_constant(tmp_path):
    f = tmp_path / "one.csv"
    f.write_text("t,x,y,z,vx,vy,vz\n0.5,1.0,2.0,3.0,0.0,0.0,0.0\n")
    sched = CsvSchedule.from_csv(f)
    np.testing.assert_allclose(sched(0.0)[0], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(sched(9.0)[0], [1.0, 2.0, 3.0])


def _bits(sp):
    """A schedule's (pos, vel) as its 48 bytes, after checking it is two 3-tuples of floats."""
    assert type(sp) is tuple and len(sp) == 2
    for v in sp:
        assert type(v) is tuple and len(v) == 3 and all(type(x) is float for x in v), sp
    return np.array(sp).tobytes()


def test_every_schedule_returns_float_triples_equal_to_its_oracle():
    # the constant hands back its inputs, the circle its closed form and the
    # waypoint table np.interp of each column, bit for bit
    pos, vel = (0.1, -0.2, 0.3), (1e-3, -0.0, 2.5)
    assert _bits(ConstantSchedule(np.array(pos), list(vel))(7.0)) == np.array([pos, vel]).tobytes()

    r, v, (cx, cy, cz) = 0.1, 0.25, (0.05, -0.1, 0.4)
    circle = CircleSchedule(r, v, (cx, cy, cz))
    for t in (0.0, 0.3, 1.7, 25.0):
        a = v / r * t
        want = [[cx + r * math.cos(a), cy + r * math.sin(a), cz],
                [-v * math.sin(a), v * math.cos(a), 0.0]]
        assert _bits(circle(t)) == np.array(want).tobytes(), t

    rng = np.random.default_rng(5)
    ts = np.cumsum(rng.uniform(0.01, 0.1, 9))
    table = rng.normal(0.0, 0.1, (9, 6))
    waypoints = CsvSchedule(ts, table[:, :3], table[:, 3:])
    for t in (-1.0, ts[0], 0.5 * (ts[2] + ts[3]), ts[4], *rng.uniform(ts[0], ts[-1], 20), ts[-1],
              ts[-1] + 1.0):
        t = float(t)
        want = [np.interp(t, ts, table[:, k]) for k in range(6)]
        assert _bits(waypoints(t)) == np.array(want).tobytes(), t


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
