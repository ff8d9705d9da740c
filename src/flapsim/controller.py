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
quaternion differencing. It is the only estimator; a simulation senses
through it too.

The tick is two functions on plain floats, ``_sense`` (estimator) and
``_decide`` (control law); ``_sense_truth`` feeds ``_sense`` from the
simulated state. The run loop calls them every tick and builds no
dataclass on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .ioutil import read_table
from .kinematics import (
    GIMBAL_GUARD, EulerAngles321, _euler_quat, _qmul, _quat_rotvec, _rotmat, _rotmat_euler,
    _rotvec_quat, wrap_angle,
)
# bench/spans.py times these names
from .kinematics import quat_multiply, quat_to_rotmat, quat_to_rotvec, rotmat_to_euler  # noqa: F401
from .vehicle import VehicleParams, _cmd_to_wrench, _wrench_to_cmd
from .vehicle import cmd_to_wrench, wrench_to_cmd  # noqa: F401  bench/spans.py times these names

__all__ = [
    "Setpoint",
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
    vel_w: np.ndarray = field(default_factory=lambda: np.zeros(3))

    @classmethod
    def hold(cls, pos_w) -> "Setpoint":
        return cls(np.asarray(pos_w, dtype=float), np.zeros(3))


def _to_body(R: tuple, x: float, y: float, z: float) -> tuple:
    """R^T (x, y, z) for a row-major R: a world vector in the body frame."""
    return (R[0] * x + R[3] * y + R[6] * z, R[1] * x + R[4] * y + R[7] * z,
            R[2] * x + R[5] * y + R[8] * z)


def _sigma(est: tuple) -> tuple:
    """The 10-entry design state (d, V_b, roll, pitch, p, q) of an estimate."""
    R, pos, vel, (roll, pitch, _), (p, q, _) = est
    return (*_to_body(R, *pos), *_to_body(R, *vel), roll, pitch, p, q)


def _sense(pos, quat, prev: tuple | None, dt: float) -> tuple:
    """The estimator on one position + quaternion sample: ``(est, carry)``.

    ``est`` is (R row-major, position, velocity, (roll, pitch, yaw), body
    rates). With no ``prev`` sample, velocity and rates start at zero; with
    one, world velocity is the first difference averaged with the previous
    raw difference, and the rates come from the quaternion increment over
    ``dt``. ``prev`` and ``carry`` hold a sample's position, raw velocity
    and quaternion. The quaternion must be within 1e-3 of unit length.
    """
    w, x, y, z = quat
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if not abs(n - 1.0) <= 1e-3:
        raise ValueError(f"measured quaternion norm {n:.6f} is off unit by more than 1e-3")
    w, x, y, z = w / n, x / n, y / n, z / n
    q = (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)
    R = _rotmat(*q)
    roll, pitch, yaw = _rotmat_euler(R)
    if abs(pitch) >= GIMBAL_GUARD:
        EulerAngles321(roll, pitch, yaw)  # raises the record's GimbalLockError
    rates = (0.0, 0.0, 0.0)
    if prev is not None:
        px, py, pz, rx, ry, rz, pw, qx, qy, qz = prev
        rates = [c / dt for c in _quat_rotvec(_qmul((pw, -qx, -qy, -qz), q))]
    if prev is None:
        raw = vel = (0.0, 0.0, 0.0)
    else:
        raw = ((pos[0] - px) / dt, (pos[1] - py) / dt, (pos[2] - pz) / dt)
        vel = (0.5 * (raw[0] + rx), 0.5 * (raw[1] + ry), 0.5 * (raw[2] + rz))
    return (R, pos, vel, (wrap_angle(roll), pitch, wrap_angle(yaw)), rates), (*pos, *raw, *q)


def _sense_truth(y, prev: tuple | None, dt: float, draws) -> tuple:
    """Sensing on the packed truth state ``y`` for the run loop: ``(est, sigma, carry)``.

    ``draws`` (3 position, then 3 rotation-vector noise samples, or None)
    perturb the measurement as the noise model does.
    """
    roll, pitch, yaw = wrap_angle(y[6]), y[7], wrap_angle(y[8])
    q, pos = _euler_quat(roll, pitch, yaw), y[0:3]
    if draws is not None:
        pos = [a + b for a, b in zip(pos, draws)]
        q = _qmul(q, _rotvec_quat(*draws[3:]))
    est, carry = _sense(pos, q, prev, dt)
    return est, _sigma(est), carry


def _decide(K, est: tuple, sp_pos, sp_vel, p: VehicleParams, hover: float) -> tuple:
    """The control law on an estimate: (A, dA, Vo, thrust, tau_r, tau_p, saturated).

    ``K`` is 3 rows of 10 floats, the setpoint 3 + 3 floats, ``hover`` =
    hover_thrust(p). The wrench is the one realized after command
    saturation, which the plant receives under zero-order hold.
    """
    R, pos, vel, (roll, pitch, _), (wp, wq, _) = est
    e = (*_to_body(R, sp_pos[0] - pos[0], sp_pos[1] - pos[1], sp_pos[2] - pos[2]),
         *_to_body(R, sp_vel[0] - vel[0], sp_vel[1] - vel[1], sp_vel[2] - vel[2]),
         -roll, -pitch, -wp, -wq)
    d_gamma, tau_r, tau_p = [sum(map(mul, row, e)) for row in K]
    A, dA, Vo, saturated = _wrench_to_cmd(p, hover + d_gamma, tau_r, tau_p)
    return (A, dA, Vo, *_cmd_to_wrench(p, A, dA, Vo), saturated)


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
        r, v = self.radius, self.speed
        a = v / r * t
        c, s = math.cos(a), math.sin(a)
        cx, cy, cz = self.center_w.tolist()
        # cz + 0.0 turns a -0.0 centre height into 0.0, as the array sum did
        pos = np.array([cx + r * c, cy + r * s, cz + 0.0])
        return Setpoint(pos, np.array([-v * s, v * c, 0.0]))


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
