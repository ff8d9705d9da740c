"""Rotation-representation checks against independent linear-algebra oracles."""

import math

import numpy as np
import pytest

import oracles
from flapsim.dynamics import SimState, state_derivative
from flapsim.errors import GimbalLockError
from flapsim.kinematics import (
    GIMBAL_GUARD,
    EulerAngles321,
    Quaternion,
    euler_to_quat,
    euler_to_rotmat,
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotvec,
    rotmat_to_euler,
    wrap_angle,
)
from flapsim.vehicle import Wrench


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
        np.testing.assert_allclose(back.as_array(), e.as_array(), atol=1e-9)


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
        Quaternion(0.0, 0.0, 0.0, 0.0).normalized()
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
        np.testing.assert_allclose(back.as_array(), e.as_array(), atol=1e-9)


def test_euler_to_quat_matches_oracle_product():
    rng = np.random.default_rng(17)
    for _ in range(200):
        e = random_euler(rng)
        q_ref = oracles.quat_product(
            oracles.quat_product(
                oracles.quat_from_axis_angle([0, 0, 1], e.yaw),
                oracles.quat_from_axis_angle([0, 1, 0], e.pitch),
            ),
            oracles.quat_from_axis_angle([1, 0, 0], e.roll),
        )
        if q_ref[0] < 0:
            q_ref = -q_ref
        np.testing.assert_allclose(euler_to_quat(e).as_array(), q_ref, atol=1e-12)


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
        quat_from_rotvec([0.0, 0.0, 0.0]).as_array(), [1.0, 0.0, 0.0, 0.0]
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
        np.testing.assert_allclose(q.as_array(), q_ref, atol=1e-12)


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
