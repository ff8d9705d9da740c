"""Rotation-representation checks against independent linear-algebra oracles."""

import functools
import itertools
import math
import re
from dataclasses import astuple

import numpy as np
import pytest

import oracles
from flapsim.controller import CircleSchedule, ConstantSchedule, CsvSchedule
from flapsim.dynamics import SimState, UnmodeledTerms, state_derivative
from flapsim.errors import ConfigError, GimbalLockError
from flapsim.harness import RUNLOG_FIELDS, DisturbancePulse, RunLog, disturbance_pulse
from flapsim.kinematics import (
    GIMBAL_GUARD,
    EulerAngles321,
    Quaternion,
    _euler_quat,
    euler_to_quat,
    euler_to_rotmat,
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotvec,
    rotmat_to_euler,
    wrap_angle,
)
from flapsim.pipeline import BodyOffset, MocapTrajectory, reconstruct
from flapsim.vehicle import Wrench, default_robofly_params


def random_euler(rng, pitch_limit=1.4):
    return EulerAngles321(
        rng.uniform(-math.pi, math.pi),
        rng.uniform(-pitch_limit, pitch_limit),
        rng.uniform(-math.pi, math.pi),
    )


def test_wrap_angle_half_open_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert wrap_angle(0.1) == pytest.approx(0.1, abs=1e-12)
    assert wrap_angle(-1.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_wrap_angle_passes_in_range_angles_bit_for_bit():
    rng = np.random.default_rng(5)
    angles = [1e-17, 1e-9, -1e-9, 5e-324, 0.0, -0.0, 0.3, -2.5, math.pi,
              math.nextafter(-math.pi, 0.0), *rng.uniform(-math.pi, math.pi, 200)]
    for a in angles:
        assert wrap_angle(a).hex() == float(a).hex()


def test_euler_angles_normalize_roll_and_yaw():
    e = EulerAngles321(3 * math.pi, 0.1, -7.0)
    assert e.roll == pytest.approx(math.pi)
    assert e.pitch == 0.1
    assert e.yaw == pytest.approx(wrap_angle(-7.0))


def test_euler_angles_reject_pitch_at_guard():
    with pytest.raises(GimbalLockError):
        EulerAngles321(0.0, GIMBAL_GUARD, 0.0)
    with pytest.raises(GimbalLockError):
        EulerAngles321(0.0, -GIMBAL_GUARD, 0.0)
    # just inside the guard is fine
    EulerAngles321(0.0, GIMBAL_GUARD - 1e-9, 0.0)


def test_euler_angles_reject_nonfinite():
    with pytest.raises(ValueError):
        EulerAngles321(math.nan, 0.0, 0.0)


def test_euler_to_rotmat_identity():
    R = euler_to_rotmat(EulerAngles321(0.0, 0.0, 0.0))
    assert np.array_equal(R, np.eye(3))


def test_euler_to_rotmat_near_vertical_pitch():
    # pure pitch just shy of +90 deg: the body x axis points almost
    # straight down in world coordinates
    R = euler_to_rotmat(EulerAngles321(0.0, math.pi / 2 - 2e-6, 0.0))
    np.testing.assert_allclose(R[:, 0], [0.0, 0.0, -1.0], atol=1e-5)


def test_euler_to_rotmat_matches_elementary_product():
    R = euler_to_rotmat(EulerAngles321(0.1, 0.2, 0.3))
    R_ref = oracles.rot_z(0.3) @ oracles.rot_y(0.2) @ oracles.rot_x(0.1)
    np.testing.assert_allclose(R, R_ref, atol=1e-14)


def test_euler_to_rotmat_randomized_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = random_euler(rng)
        R_ref = oracles.rotmat_321(e.roll, e.pitch, e.yaw)
        R = euler_to_rotmat(e)
        np.testing.assert_allclose(R, R_ref, atol=1e-13)
        # a rotation: orthonormal with determinant +1
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_321_factorization_composes():
    rng = np.random.default_rng(12)
    for _ in range(50):
        e = random_euler(rng)
        R_factored = (
            euler_to_rotmat(EulerAngles321(0.0, 0.0, e.yaw))
            @ euler_to_rotmat(EulerAngles321(0.0, e.pitch, 0.0))
            @ euler_to_rotmat(EulerAngles321(e.roll, 0.0, 0.0))
        )
        np.testing.assert_allclose(euler_to_rotmat(e), R_factored, atol=1e-13)


def test_rotmat_to_euler_identity_and_example():
    e0 = rotmat_to_euler(np.eye(3))
    assert (e0.roll, e0.pitch, e0.yaw) == (0.0, 0.0, 0.0)
    e = rotmat_to_euler(euler_to_rotmat(EulerAngles321(0.1, 0.2, 0.3)))
    assert e.roll == pytest.approx(0.1, abs=1e-12)
    assert e.pitch == pytest.approx(0.2, abs=1e-12)
    assert e.yaw == pytest.approx(0.3, abs=1e-12)


def test_rotmat_to_euler_gimbal_guard():
    with pytest.raises(GimbalLockError):
        rotmat_to_euler(oracles.rot_y(math.pi / 2))
    # 2.2e-6 rad from 90 deg: |R[2, 0]| is within 1e-9 of 1, yet the pitch is
    # one EulerAngles321 accepts, so the matrix converts too
    pitch = 1.5707930935643026
    e = rotmat_to_euler(euler_to_rotmat(EulerAngles321(0.0, pitch, 0.0)))
    assert e.pitch == pytest.approx(pitch, abs=1e-7)


def test_euler_rotmat_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        e = random_euler(rng)
        back = rotmat_to_euler(euler_to_rotmat(e))
        np.testing.assert_allclose(astuple(back), astuple(e), atol=1e-9)


def test_quat_to_rotmat_examples():
    assert np.array_equal(quat_to_rotmat(Quaternion(1.0, 0.0, 0.0, 0.0)), np.eye(3))
    np.testing.assert_allclose(
        quat_to_rotmat(Quaternion(0.0, 1.0, 0.0, 0.0)),
        np.diag([1.0, -1.0, -1.0]),
        atol=1e-15,
    )
    s = math.sqrt(2.0) / 2.0
    np.testing.assert_allclose(
        quat_to_rotmat(Quaternion(s, 0.0, 0.0, s)),
        euler_to_rotmat(EulerAngles321(0.0, 0.0, math.pi / 2)),
        atol=1e-12,
    )


def test_quat_to_rotmat_renormalizes_slightly_off_unit():
    q = Quaternion(2.0, 0.0, 0.0, 0.0)
    assert np.array_equal(quat_to_rotmat(q), np.eye(3))


def test_zero_quaternion_rejected():
    with pytest.raises(ValueError):
        quat_to_rotvec(Quaternion(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        quat_to_rotmat(Quaternion(0.0, 0.0, 0.0, 0.0))


def test_quat_double_cover_exact():
    rng = np.random.default_rng(14)
    for _ in range(100):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        q = Quaternion(*v)
        q_neg = Quaternion(*(-v))
        assert np.array_equal(quat_to_rotmat(q), quat_to_rotmat(q_neg))


def test_quat_canonicalization():
    q = Quaternion(-0.5, 0.5, 0.5, 0.5).canonical()
    assert q.w == 0.5 and q.x == -0.5
    q2 = Quaternion(0.5, -0.5, 0.5, -0.5).canonical()
    assert q2.w == 0.5 and q2.x == -0.5


def test_euler_quat_round_trip():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        e = random_euler(rng)
        back = rotmat_to_euler(quat_to_rotmat(euler_to_quat(e)))
        np.testing.assert_allclose(astuple(back), astuple(e), atol=1e-9)


def edge_angles(seed, n=10_000):
    """(n, 3) roll, pitch, yaw: random angles mixed with +-0, +-pi and pitch
    just inside the gimbal guard, the 64 all-edge triples first."""
    edge_pitch = GIMBAL_GUARD - 1e-9
    edges = ([0.0, -0.0, math.pi, -math.pi], [0.0, -0.0, edge_pitch, -edge_pitch],
             [0.0, -0.0, math.pi, -math.pi])
    rng = np.random.default_rng(seed)
    angles = np.column_stack([rng.uniform(-math.pi, math.pi, n),
                              rng.uniform(-edge_pitch, edge_pitch, n),
                              rng.uniform(-math.pi, math.pi, n)])
    for k, values in enumerate(edges):
        pick = rng.random(n) < 0.25
        angles[pick, k] = rng.choice(values, int(pick.sum()))
    angles[:64] = list(itertools.product(*edges))
    return angles


def test_euler_to_quat_matches_oracle_product():
    # the closed form against the product of the three axis quaternions
    worst = 0.0
    for roll, pitch, yaw in edge_angles(17).tolist():
        e = EulerAngles321(roll, pitch, yaw)
        q_ref = oracles.quat_product(
            oracles.quat_product(
                oracles.quat_from_axis_angle([0, 0, 1], e.yaw),
                oracles.quat_from_axis_angle([0, 1, 0], e.pitch),
            ),
            oracles.quat_from_axis_angle([1, 0, 0], e.roll),
        )
        if q_ref[0] < 0:
            q_ref = -q_ref
        worst = max(worst, float(np.max(np.abs(np.array(astuple(euler_to_quat(e))) - q_ref))))
    assert worst <= 4e-16, worst


def test_euler_quat_on_columns_is_the_float_call_bit_for_bit():
    # pipeline applies the one closed form to whole trajectories with xp=np
    angles = edge_angles(18)
    columns = np.column_stack(_euler_quat(*angles.T, xp=np))
    rows = np.array([_euler_quat(*row) for row in angles.tolist()])
    assert columns.tobytes() == rows.tobytes()


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(18)
    for _ in range(200):
        a = euler_to_quat(random_euler(rng))
        b = euler_to_quat(random_euler(rng))
        np.testing.assert_allclose(
            quat_to_rotmat(quat_multiply(a, b)),
            quat_to_rotmat(a) @ quat_to_rotmat(b),
            atol=1e-12,
        )


def test_rotvec_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(500):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(1e-8, math.pi - 1e-3)
        v = axis * angle
        back = quat_to_rotvec(quat_from_rotvec(v))
        np.testing.assert_allclose(back, v, atol=1e-9)


def test_rotvec_small_angle_branch():
    assert np.array_equal(
        astuple(quat_from_rotvec([0.0, 0.0, 0.0])), [1.0, 0.0, 0.0, 0.0]
    )
    np.testing.assert_allclose(
        quat_to_rotvec(Quaternion(1.0, 0.0, 0.0, 0.0)), np.zeros(3), atol=1e-15
    )
    v = np.array([1e-10, -2e-10, 5e-11])
    np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v, rtol=1e-6)


def test_rotvec_matches_constant_rate_oracle():
    omega = np.array([0.7, -0.3, 0.4])
    for t in (0.01, 0.1, 0.5):
        q = quat_from_rotvec(omega * t)
        q_ref = oracles.constant_rate_quat(omega, t)
        np.testing.assert_allclose(astuple(q), q_ref, atol=1e-12)


def euler_rates(params, e, omega):
    """The Euler-angle rates the equations of motion assign to body rates omega."""
    s = SimState(np.zeros(3), np.zeros(3), e, omega)
    return state_derivative(params, s, Wrench(0.0, 0.0, 0.0))[6:9]


def test_euler_rate_matrix_identity_at_level(params):
    rng = np.random.default_rng(20)
    # level, any yaw: the Euler rates are the body rates, bit for bit
    for yaw in [0.0] + list(rng.uniform(-math.pi, math.pi, 20)):
        omega = rng.uniform(-5.0, 5.0, 3)
        rates = euler_rates(params, EulerAngles321(0.0, 0.0, yaw), omega)
        assert np.array_equal(rates, omega)


def test_euler_rate_matrix_pure_pitch_rate(params):
    # a pure pitch rate moves only the pitch angle, at any pitch
    rates = euler_rates(params, EulerAngles321(0.0, 0.2, 0.0), (0.0, 1.0, 0.0))
    np.testing.assert_allclose(rates, [0.0, 1.0, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# record inputs: each rule is kinematics._vec3 or kinematics._series
# ---------------------------------------------------------------------------

LEVEL = EulerAngles321(0.0, 0.0, 0.0)
Z3 = (0.0, 0.0, 0.0)
# every record 3-vector: (the name its refusal gives, the record built with v there)
VEC3_INPUTS = {
    "SimState.pos_w": ("pos_w", lambda v: SimState(v, Z3, LEVEL, Z3)),
    "SimState.vel_b": ("vel_b", lambda v: SimState(Z3, v, LEVEL, Z3)),
    "SimState.omega_b": ("omega_b", lambda v: SimState(Z3, Z3, LEVEL, v)),
    "UnmodeledTerms.specific_force": ("specific_force", lambda v: UnmodeledTerms(v, Z3)),
    "UnmodeledTerms.angular_accel": ("angular_accel", lambda v: UnmodeledTerms(Z3, v)),
    "DisturbancePulse.force_w": ("pulse force", lambda v: DisturbancePulse(0.0, 0.1, v)),
    "disturbance_pulse.direction_w": (
        "direction", lambda v: disturbance_pulse(default_robofly_params(), 1.0, 0.1, v)),
    "ConstantSchedule.pos_w": ("pos_w", lambda v: ConstantSchedule(v)),
    "ConstantSchedule.vel_w": ("vel_w", lambda v: ConstantSchedule(Z3, v)),
    "CircleSchedule.center_w": ("center_w", lambda v: CircleSchedule(0.1, 0.05, v)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("record", list(VEC3_INPUTS))
def test_record_refuses_a_non_finite_3_vector_by_name(record, bad):
    name, build = VEC3_INPUTS[record]
    build((0.0, 0.0, 1.0))  # a finite vector is taken
    for i in range(3):
        v = [0.0, 0.0, 1.0]
        v[i] = bad
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be finite$"):
            build(v)


# 3-vectors of another shape, each refused as it is, never reshaped
VEC3_SHAPES = {
    "two_values": [0.0, 1.0],
    "four_values": [0.0, 0.0, 1.0, 0.0],
    "column": [[0.0], [0.0], [1.0]],
    "scalar": 1.0,
}


@pytest.mark.parametrize("shape", list(VEC3_SHAPES))
@pytest.mark.parametrize("record", list(VEC3_INPUTS))
def test_record_refuses_a_3_vector_of_another_shape_by_name(record, shape):
    name, build = VEC3_INPUTS[record]
    v = VEC3_SHAPES[shape]
    with pytest.raises(ConfigError, match=(
            f"^{re.escape(name)} must be 3 values, got shape {re.escape(str(np.shape(v)))}$")):
        build(v)


# inputs that are not an array of numbers: text, and rows of different lengths
NOT_NUMBERS = {
    "text": ["a", "b", "c"],
    "numeric_text": ["1.0", "0.0", "0.0"],
    "ragged": [1.0, [2.0, 3.0], 4.0],
}


@pytest.mark.parametrize("value", list(NOT_NUMBERS))
@pytest.mark.parametrize("record", list(VEC3_INPUTS))
def test_record_refuses_a_3_vector_that_is_not_numbers_by_name(record, value):
    name, build = VEC3_INPUTS[record]
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be an array of numbers$"):
        build(NOT_NUMBERS[value])


@functools.cache
def _reconstruction():
    n = 120
    return reconstruct(MocapTrajectory(np.arange(n) / 240.0, np.zeros((n, 3)),
                                       np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))))


def _run_log(t, pos_w, **blocks):
    """RunLog with times t, position block pos_w and the other fields zero, one row per time."""
    for name, cols in RUNLOG_FIELDS[2:]:
        blocks.setdefault(name, np.zeros((len(t), len(cols)) if len(cols) > 1 else len(t)))
    return RunLog(t, pos_w, **blocks)


# every record time series: (the name its refusals give, the record built from
# times t, a 3-wide first block b and its other blocks one row per time)
SERIES_INPUTS = {
    "CsvSchedule": ("schedule", lambda t, b: CsvSchedule(t, b, np.zeros((len(t), 3)))),
    "MocapTrajectory": ("pose", lambda t, b: MocapTrajectory(
        t, b, np.tile([1.0, 0.0, 0.0, 0.0], (len(t), 1)))),
    "attach_wrench": ("wrench", lambda t, b: _reconstruction().attach_wrench(t, b)),
    "attach_commands": ("command", lambda t, b: _reconstruction().attach_commands(
        t, b, default_robofly_params())),
    "RunLog": ("run log", _run_log),
}
T4 = [0.0, 0.5, 1.0, 1.5]
# (times, the first block, the refusal after the series name)
SERIES_CASES = {
    "nan_time": ([0.0, 0.5, math.nan, 1.5], np.zeros((4, 3)), "times must be finite"),
    "repeated_time": ([0.0, 0.5, 0.5, 1.5], np.zeros((4, 3)),
                      "times not strictly increasing at sample 2"),
    "decreasing_time": ([0.0, 0.5, 1.5, 1.0], np.zeros((4, 3)),
                        "times not strictly increasing at sample 3"),
    "length_mismatch": (T4, np.zeros((3, 3)), r"series has a \(3, 3\) block, not \(4, 3\)"),
    "empty": ([], np.zeros((0, 3)), r"times must be 1-D and not empty, got shape \(0,\)"),
    # the 12 values 4 rows of 3 would hold, laid out as 2 rows of 6
    "wrong_layout": (T4, np.arange(12.0).reshape(2, 6),
                     r"series has a \(2, 6\) block, not \(4, 3\)"),
    "2d_times": ([[0.0, 0.5], [1.0, 1.5]], np.zeros((4, 3)),
                 r"times must be 1-D and not empty, got shape \(2, 2\)"),
}


@pytest.mark.parametrize("case", list(SERIES_CASES))
@pytest.mark.parametrize("record", list(SERIES_INPUTS))
def test_record_refuses_a_bad_time_series_by_name(record, case):
    what, build = SERIES_INPUTS[record]
    t, b, message = SERIES_CASES[case]
    build(np.array(T4), np.zeros((4, 3)))  # finite, increasing times with a row each are taken
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} {message}$"):
        build(np.array(t), b)


@pytest.mark.parametrize("value", list(NOT_NUMBERS))
@pytest.mark.parametrize("record", list(SERIES_INPUTS))
def test_record_refuses_a_time_series_that_is_not_numbers_by_name(record, value):
    what, build = SERIES_INPUTS[record]
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} times must be an array of numbers$"):
        build(NOT_NUMBERS[value], np.zeros((3, 3)))
    block = np.zeros((3, 3)).tolist()
    block[1] = NOT_NUMBERS[value]
    with pytest.raises(ConfigError, match=f"^{re.escape(what)} series must be an array of numbers$"):
        build(np.array([0.0, 0.5, 1.0]), block)


@pytest.mark.parametrize("field", [name for name, _ in RUNLOG_FIELDS[1:]])
def test_run_log_refuses_a_block_of_another_row_count_in_every_field(field):
    cols = dict(RUNLOG_FIELDS)[field]
    short = np.zeros((3, len(cols)) if len(cols) > 1 else 3)
    blocks = {"pos_w": np.zeros((4, 3)), field: short}  # field may be pos_w itself
    shape = (4, len(cols)) if len(cols) > 1 else (4,)
    with pytest.raises(ConfigError, match=re.escape(
            f"run log series has a {short.shape} block, not {shape}")):
        _run_log(T4, **blocks)


# other record inputs of a fixed shape: (the record built from x, the refusal)
SHAPED_INPUTS = {
    "SimState.from_vector": (SimState.from_vector, "state vector must be 12 values"),
    "BodyOffset.rotation": (lambda x: BodyOffset(x, 0.0), "offset rotation must be 3 x 3"),
}


@pytest.mark.parametrize("record, x", [
    ("SimState.from_vector", np.zeros(11)),
    ("SimState.from_vector", np.zeros(13)),
    ("SimState.from_vector", np.zeros((3, 4))),
    ("BodyOffset.rotation", np.eye(3).reshape(9)),  # a flat, row-major identity
    ("BodyOffset.rotation", np.eye(3)[:2]),
    ("BodyOffset.rotation", np.eye(3).reshape(1, 3, 3)),
])
def test_record_refuses_an_input_of_another_shape_by_name(record, x):
    build, message = SHAPED_INPUTS[record]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}, got shape "
                                          f"{re.escape(str(x.shape))}$"):
        build(x)
