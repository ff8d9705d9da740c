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

The tick is two functions on plain floats and tuples, ``_sense``
(estimator) and ``_decide`` (control law); ``_sense_truth`` feeds ``_sense``
from the simulated state. The estimate carries the 10-entry design state
the run log records, so nothing recomputes it. ``_decide`` takes the
run's actuator constants (hover thrust, fits, command box) as the one
tuple ``vehicle._actuator`` builds before the first tick. A setpoint
schedule is a callable ``t -> (pos, vel)``, two 3-tuples of floats in the
world frame. The run loop calls these every tick and builds no dataclass
on the way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .ioutil import read_table
from .kinematics import (
    GIMBAL_GUARD, UNIT_QUAT_TOL, EulerAngles321, _euler_quat, _qmul, _quat_rotvec, _rotmat,
    _rotmat_euler, _rotvec_quat, _series, _vec3, wrap_angle,
)
# bench/spans.py times these names
from .kinematics import quat_multiply, quat_to_rotmat, quat_to_rotvec, rotmat_to_euler  # noqa: F401
from .vehicle import _cmd_to_wrench, _wrench_to_cmd
from .vehicle import cmd_to_wrench, wrench_to_cmd  # noqa: F401  bench/spans.py times these names

__all__ = [
    "ConstantSchedule",
    "CircleSchedule",
    "CsvSchedule",
]


def _to_body(R: tuple, x: float, y: float, z: float) -> tuple:
    """R^T (x, y, z) for a row-major R: a world vector in the body frame."""
    return (R[0] * x + R[3] * y + R[6] * z, R[1] * x + R[4] * y + R[7] * z,
            R[2] * x + R[5] * y + R[8] * z)


def _sense(pos, quat, prev: tuple | None, dt: float) -> tuple:
    """The estimator on one position + quaternion sample: ``(est, carry)``.

    ``est`` is (R row-major, position, velocity, sigma), sigma the 10-entry
    design state (d, V_b, roll, pitch, p, q): position and velocity in the
    body frame, roll in (-pi, pi]. With no ``prev`` sample, velocity and
    rates start at zero; with one, world velocity is the first difference
    averaged with the previous raw difference, and the roll and pitch rates
    come from the quaternion increment over ``dt``. ``prev`` and ``carry`` hold a
    sample's position, raw velocity and quaternion. The quaternion must be
    within ``UNIT_QUAT_TOL`` of unit length; it is normalized and taken to
    w >= 0 here, once.
    """
    w, x, y, z = quat
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_QUAT_TOL:
        raise ValueError(
            f"measured quaternion norm {n:.6f} is off unit by more than {UNIT_QUAT_TOL:g}")
    w, x, y, z = w / n, x / n, y / n, z / n
    q = (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)
    R = _rotmat(*q)
    roll, pitch, yaw = _rotmat_euler(R)
    if abs(pitch) >= GIMBAL_GUARD:
        EulerAngles321(roll, pitch, yaw)  # raises the record's GimbalLockError
    if roll == -math.pi:  # atan2 lies in [-pi, pi]; wrap_angle takes -pi to pi
        roll = math.pi
    if prev is None:
        raw = vel = (0.0, 0.0, 0.0)
        wp = wq = 0.0
    else:
        px, py, pz, rx, ry, rz, pw, qx, qy, qz = prev
        wx, wy, _ = _quat_rotvec(_qmul((pw, -qx, -qy, -qz), q))
        wp, wq = wx / dt, wy / dt
        raw = ((pos[0] - px) / dt, (pos[1] - py) / dt, (pos[2] - pz) / dt)
        vel = (0.5 * (raw[0] + rx), 0.5 * (raw[1] + ry), 0.5 * (raw[2] + rz))
    sigma = (*_to_body(R, *pos), *_to_body(R, *vel), roll, pitch, wp, wq)
    return (R, pos, vel, sigma), (*pos, *raw, *q)


def _sense_truth(y, prev: tuple | None, dt: float, draws) -> tuple:
    """:func:`_sense` on the packed truth state ``y`` for the run loop.

    ``draws`` (3 position, then 3 rotation-vector noise samples, or None)
    perturb the measurement as the noise model does.
    """
    q = _euler_quat(wrap_angle(y[6]), y[7], wrap_angle(y[8]))
    if draws is None:
        pos = (y[0], y[1], y[2])
    else:
        dx, dy, dz, ax, ay, az = draws
        pos = (y[0] + dx, y[1] + dy, y[2] + dz)
        q = _qmul(q, _rotvec_quat(ax, ay, az))
    return _sense(pos, q, prev, dt)


def _decide(K, est: tuple, sp_pos, sp_vel, act: tuple) -> tuple:
    """The control law on an estimate: (A, dA, Vo, thrust, tau_r, tau_p, saturated).

    ``K`` is 3 rows of 10 floats, the setpoint 3 + 3 floats, ``act`` the
    run's actuator constants (``vehicle._actuator``), whose first entry is
    the hover thrust. Each row's K·e is added left to right from 0.0, the
    bits the builtin ``sum`` gives up to Python 3.11 (from 3.12 it sums
    floats compensated, which would tie a run log to the interpreter). The
    wrench is the one realized after command saturation, which the plant
    receives under zero-order hold.
    """
    R, pos, vel, (_, _, _, _, _, _, roll, pitch, wp, wq) = est
    e0, e1, e2 = _to_body(R, sp_pos[0] - pos[0], sp_pos[1] - pos[1], sp_pos[2] - pos[2])
    e3, e4, e5 = _to_body(R, sp_vel[0] - vel[0], sp_vel[1] - vel[1], sp_vel[2] - vel[2])
    e6, e7, e8, e9 = -roll, -pitch, -wp, -wq
    u = []
    for k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 in K:
        u.append(0.0 + k0 * e0 + k1 * e1 + k2 * e2 + k3 * e3 + k4 * e4 + k5 * e5 + k6 * e6
                 + k7 * e7 + k8 * e8 + k9 * e9)
    A, dA, Vo, saturated = _wrench_to_cmd(act, act[0] + u[0], u[1], u[2])
    return (A, dA, Vo, *_cmd_to_wrench(act, A, dA, Vo), saturated)


# ---------------------------------------------------------------------------
# setpoint schedules
# ---------------------------------------------------------------------------


class ConstantSchedule:
    """Fixed setpoint for the whole run: ``pos_w`` [m] and ``vel_w`` [m/s]."""

    def __init__(self, pos_w, vel_w=(0.0, 0.0, 0.0)):
        pos, vel = _vec3(pos_w, "pos_w").tolist(), _vec3(vel_w, "vel_w").tolist()
        self._sp = (tuple(pos), tuple(vel))

    def __call__(self, t: float) -> tuple:
        return self._sp


class CircleSchedule:
    """Point moving on a horizontal circle, with tangential velocity.

    Phase rate is speed/radius; at t = 0 the point sits at
    center + (radius, 0, 0) heading +y.
    """

    def __init__(self, radius: float, speed: float, center_w=(0.0, 0.0, 0.0)):
        if not 0.0 < radius < np.inf:
            raise ConfigError("radius must be positive and finite")
        if not 0.0 <= speed < np.inf:
            raise ConfigError("speed must be finite and non-negative")
        self.radius = float(radius)
        self.speed = float(speed)
        self.center_w = tuple(_vec3(center_w, "center_w").tolist())

    def __call__(self, t: float) -> tuple:
        r, v = self.radius, self.speed
        a = v / r * t
        c, s = math.cos(a), math.sin(a)
        cx, cy, cz = self.center_w
        # cz + 0.0 turns a -0.0 centre height into the 0.0 the run log has always held
        return (cx + r * c, cy + r * s, cz + 0.0), (-v * s, v * c, 0.0)


class CsvSchedule:
    """Waypoint table (t, x, y, z, vx, vy, vz), linearly interpolated.

    Queries outside the table hold the first/last row.
    """

    COLUMNS = ("t", "x", "y", "z", "vx", "vy", "vz")

    def __init__(self, t, pos, vel):
        self.t, pos, vel = _series("schedule", t, (pos, 3), (vel, 3))
        # x, y, z, vx, vy, vz as contiguous columns, which np.interp takes without a copy
        self._cols = tuple(np.ascontiguousarray(c) for c in (*pos.T, *vel.T))

    @classmethod
    def from_csv(cls, path) -> "CsvSchedule":
        a = read_table(path, cls.COLUMNS)
        return cls(a[:, 0], a[:, 1:4], a[:, 4:7])

    def __call__(self, t: float) -> tuple:
        x, y, z, vx, vy, vz = [float(np.interp(t, self.t, c)) for c in self._cols]
        return (x, y, z), (vx, vy, vz)
