"""Position/attitude control loop around the hover gain.

Data flow per tick: a world-frame position/velocity setpoint and the
estimated state form an error; the position and velocity error blocks are
rotated into the body frame; attitude and rate errors are taken against
level hover (roll = pitch = 0, p = q = 0, yaw free); the 3x10 gain maps
the stacked error to a wrench deviation, which is added to the hover
feedforward and pushed through the actuator fits with saturation.

Because the error is rotated by the full body-to-world attitude, the
commanded wrench is invariant under a yaw rotation of the world frame
applied to both state and setpoint.

State estimation mirrors the mocap path: world velocity from first
differences smoothed by a two-sample moving average, body rates from
quaternion differencing. A simulation may instead inject ground-truth
velocity via the ``vel_w`` override.

The math lives once, on plain floats, in ``_sense`` (estimator) and
``_decide`` (control law). The run loop calls them every tick;
:func:`assemble_ctrl_state` and :func:`control_step` check and unpack the
dataclasses, call the same cores and pack the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .ioutil import read_table
from .kinematics import (
    GIMBAL_GUARD, EulerAngles321, Quaternion, _euler_quat, _normalized, _qmul, _quat_rotmat,
    _quat_rotvec, _rotmat_euler, _rotvec_quat, euler_to_rotmat, wrap_angle,
)
# bench/spans.py times these names
from .kinematics import quat_multiply, quat_to_rotmat, quat_to_rotvec, rotmat_to_euler  # noqa: F401
from .vehicle import (
    ActuatorCmd, VehicleParams, Wrench, _cmd_to_wrench, _wrench_to_cmd, hover_thrust,
)
from .vehicle import cmd_to_wrench, wrench_to_cmd  # noqa: F401  bench/spans.py times these names

__all__ = [
    "Setpoint",
    "CtrlState",
    "ControlOutput",
    "assemble_ctrl_state",
    "control_step",
    "ConstantSchedule",
    "CircleSchedule",
    "CsvSchedule",
]


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class Setpoint:
    """World-frame reference: position [m] and velocity [m/s].

    A plain record: the schedules check what they build it from once, at
    construction, not on every tick.
    """

    pos_w: np.ndarray
    vel_w: np.ndarray = (0.0, 0.0, 0.0)

    @classmethod
    def hold(cls, pos_w) -> "Setpoint":
        return cls(np.asarray(pos_w, dtype=float), np.zeros(3))


@dataclass(frozen=True)
class CtrlState:
    """Controller-side state estimate at one tick.

    Carries the measured pose, the derived velocity/rate estimates, and
    the raw (pre-smoothing) velocity needed to continue the two-sample
    moving average on the next tick. A plain record: build it with
    :func:`assemble_ctrl_state`, which checks the inputs.
    """

    pos_w: np.ndarray
    vel_w: np.ndarray
    raw_vel_w: np.ndarray
    quat: Quaternion
    euler: EulerAngles321
    R: np.ndarray
    omega_b: np.ndarray

    def sigma(self) -> np.ndarray:
        """10-entry design-state vector (d, V_b, roll, pitch, p, q)."""
        return np.array(_sigma(_est(self)))


def _to_body(R: tuple, x: float, y: float, z: float) -> tuple:
    """R^T (x, y, z) for a row-major R: a world vector in the body frame."""
    return (R[0] * x + R[3] * y + R[6] * z, R[1] * x + R[4] * y + R[7] * z,
            R[2] * x + R[5] * y + R[8] * z)


def _sigma(est: tuple) -> tuple:
    R, pos, vel, (roll, pitch, _), (p, q, _) = est
    return (*_to_body(R, *pos), *_to_body(R, *vel), roll, pitch, p, q)


def _est(s: CtrlState) -> tuple:
    """A CtrlState as the cores' ``est``: R row-major, position, velocity, angles, rates."""
    return (np.ravel(s.R).tolist(), np.ravel(s.pos_w).tolist(), np.ravel(s.vel_w).tolist(),
            (s.euler.roll, s.euler.pitch, s.euler.yaw), np.ravel(s.omega_b).tolist())


def _sense(pos, quat, prev: tuple | None, dt: float, vel) -> tuple:
    """Float core of :func:`assemble_ctrl_state`: ``(est, carry)``, ``est`` as in :func:`_est`.

    ``prev`` and ``carry`` hold a sample's position, raw velocity and quaternion.
    """
    n = math.sqrt(quat[0]**2 + quat[1]**2 + quat[2]**2 + quat[3]**2)
    if not abs(n - 1.0) <= 1e-3:
        raise ValueError(f"measured quaternion norm {n:.6f} is off unit by more than 1e-3")
    w, x, y, z = _normalized(quat)
    q = (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)
    R = _quat_rotmat(q)
    roll, pitch, yaw = _rotmat_euler(R)
    if abs(pitch) >= GIMBAL_GUARD:
        EulerAngles321(roll, pitch, yaw)  # raises the record's GimbalLockError
    rates = (0.0, 0.0, 0.0)
    if prev is not None:
        px, py, pz, rx, ry, rz, pw, qx, qy, qz = prev
        rates = [c / dt for c in _quat_rotvec(_qmul((pw, -qx, -qy, -qz), q))]
    if vel is not None:
        raw = vel
    elif prev is None:
        raw = vel = (0.0, 0.0, 0.0)
    else:
        raw = ((pos[0] - px) / dt, (pos[1] - py) / dt, (pos[2] - pz) / dt)
        vel = (0.5 * (raw[0] + rx), 0.5 * (raw[1] + ry), 0.5 * (raw[2] + rz))
    return (R, pos, vel, (wrap_angle(roll), pitch, wrap_angle(yaw)), rates), (*pos, *raw, *q)


def _sense_truth(y, prev: tuple | None, dt: float, draws, truth_vel: bool) -> tuple:
    """Sensing on the packed truth state ``y`` for the run loop: ``(est, sigma, carry)``.

    ``draws`` (3 position, then 3 rotation-vector noise samples, or None)
    perturb the measurement as the noise model does.
    """
    roll, pitch, yaw = wrap_angle(y[6]), y[7], wrap_angle(y[8])
    q, pos, vel = _euler_quat(roll, pitch, yaw), y[0:3], None
    if draws is not None:
        pos = [a + b for a, b in zip(pos, draws)]
        q = _qmul(q, _rotvec_quat(*draws[3:]))
    if truth_vel:
        vel = (euler_to_rotmat(EulerAngles321(roll, pitch, yaw)) @ y[3:6]).tolist()
    est, carry = _sense(pos, q, prev, dt, vel)
    return est, _sigma(est), carry


def assemble_ctrl_state(
    meas_pos_w,
    meas_quat: Quaternion,
    prev: CtrlState | None = None,
    dt: float | None = None,
    *,
    vel_w=None,
) -> CtrlState:
    """Build the controller state from a position + quaternion sample.

    The validated constructor of :class:`CtrlState`: the position must be
    finite, the quaternion within 1e-3 of unit length, ``dt`` positive
    when ``prev`` is given, and a ``vel_w`` override finite.

    With no ``prev`` sample, velocity and body rates start at zero. With
    one, world velocity is the first difference averaged with the previous
    raw difference, and body rates come from the quaternion increment.
    ``vel_w`` bypasses the differencing (ground-truth injection). The math
    is :func:`_sense`, which the scenario runner calls every tick.
    """
    pos = _vec3(meas_pos_w, "meas_pos_w").tolist()
    if prev is not None and (dt is None or not dt > 0.0):
        raise ValueError("dt must be positive when a previous sample is given")
    vel = None if vel_w is None else _vec3(vel_w, "vel_w").tolist()
    if prev is not None:
        prev = (*np.ravel(prev.pos_w).tolist(), *np.ravel(prev.raw_vel_w).tolist(),
                *prev.quat.as_array().tolist())
    (R, pos, vel, euler, rates), carry = _sense(pos, meas_quat.as_array().tolist(), prev, dt, vel)
    return CtrlState(np.array(pos), np.array(vel), np.array(carry[3:6]), Quaternion(*carry[6:]),
                     EulerAngles321(*euler), np.array(R).reshape(3, 3), np.array(rates))


@dataclass(frozen=True)
class ControlOutput:
    """One tick of controller output: command, applied wrench, limit flag."""

    cmd: ActuatorCmd
    wrench: Wrench
    saturated: bool


def _decide(K, est: tuple, sp_pos, sp_vel, p: VehicleParams) -> tuple:
    """Float core of :func:`control_step`: (A, dA, Vo, thrust, tau_r, tau_p, saturated).

    ``K`` is 3 rows of 10 floats, the setpoint 3 + 3 floats.
    """
    R, pos, vel, (roll, pitch, _), (wp, wq, _) = est
    e = (*_to_body(R, sp_pos[0] - pos[0], sp_pos[1] - pos[1], sp_pos[2] - pos[2]),
         *_to_body(R, sp_vel[0] - vel[0], sp_vel[1] - vel[1], sp_vel[2] - vel[2]),
         -roll, -pitch, -wp, -wq)
    d_gamma, tau_r, tau_p = [sum(map(mul, row, e)) for row in K]
    A, dA, Vo, saturated = _wrench_to_cmd(p, hover_thrust(p) + d_gamma, tau_r, tau_p)
    return (A, dA, Vo, *_cmd_to_wrench(p, A, dA, Vo), saturated)


def control_step(K, s: CtrlState, sp: Setpoint, p: VehicleParams) -> ControlOutput:
    """Apply the gain to the body-frame tracking error.

    The returned wrench is the one actually realized after command
    saturation (it is what the plant receives under zero-order hold). The
    math is :func:`_decide`, which the scenario runner calls every tick.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (3, 10):
        raise ValueError(f"gain must be 3x10, got {K.shape}")
    A, dA, Vo, *wrench, saturated = _decide(
        K.tolist(), _est(s), np.ravel(sp.pos_w).tolist(), np.ravel(sp.vel_w).tolist(), p)
    return ControlOutput(ActuatorCmd(A, dA, Vo), Wrench(*wrench), saturated)


# ---------------------------------------------------------------------------
# setpoint schedules
# ---------------------------------------------------------------------------


class ConstantSchedule:
    """Fixed setpoint for the whole run."""

    def __init__(self, setpoint: Setpoint):
        self._sp = Setpoint(_vec3(setpoint.pos_w, "pos_w"), _vec3(setpoint.vel_w, "vel_w"))

    def __call__(self, t: float) -> Setpoint:
        return self._sp


class CircleSchedule:
    """Point moving on a horizontal circle, with tangential velocity.

    Phase rate is speed/radius; at t = 0 the point sits at
    center + (radius, 0, 0) heading +y.
    """

    def __init__(self, radius: float, speed: float, center_w=(0.0, 0.0, 0.0)):
        if not 0.0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        if not 0.0 <= speed < np.inf:
            raise ValueError("speed must be finite and non-negative")
        self.radius = float(radius)
        self.speed = float(speed)
        self.center_w = _vec3(center_w, "center_w")

    def __call__(self, t: float) -> Setpoint:
        a = self.speed / self.radius * t
        pos = self.center_w + self.radius * np.array([np.cos(a), np.sin(a), 0.0])
        vel = self.speed * np.array([-np.sin(a), np.cos(a), 0.0])
        return Setpoint(pos, vel)


class CsvSchedule:
    """Waypoint table (t, x, y, z, vx, vy, vz), linearly interpolated.

    Queries outside the table hold the first/last row.
    """

    COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz")

    def __init__(self, t, pos, vel):
        t = np.asarray(t, dtype=float).reshape(-1)
        pos = np.asarray(pos, dtype=float).reshape(-1, 3)
        vel = np.asarray(vel, dtype=float).reshape(-1, 3)
        if len(t) < 1 or len(pos) != len(t) or len(vel) != len(t):
            raise ValueError("schedule needs equal-length t/pos/vel with >= 1 row")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("schedule times must be strictly increasing")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ValueError("schedule entries must be finite")
        self.t = t
        self.pos = pos
        self.vel = vel

    @classmethod
    def from_csv(cls, path) -> "CsvSchedule":
        _, a = read_table(path, cls.COLUMNS)
        return cls(a[:, 0], a[:, 1:4], a[:, 4:7])

    def __call__(self, t: float) -> Setpoint:
        pos = np.array([np.interp(t, self.t, self.pos[:, k]) for k in range(3)])
        vel = np.array([np.interp(t, self.t, self.vel[:, k]) for k in range(3)])
        return Setpoint(pos, vel)
