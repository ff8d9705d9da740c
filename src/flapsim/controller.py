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

The three tick functions call no ``kinematics`` core for their float
math: the quaternion to R, R to roll and pitch, the Hamilton products,
the rate log map, the Euler angles to a quaternion and R^T are written out
on locals, each operation as the core does it and in its order, so a run
log keeps its bytes. ``tests/oracles.py`` holds the same three functions
on the cores, and the tier-1 tests hold the two equal bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .ioutil import read_table
from .kinematics import (
    GIMBAL_GUARD, UNIT_QUAT_TOL, EulerAngles321, _rotvec_quat, _series, _vec3, wrap_angle,
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

    The rotation math is ``kinematics``' ``_rotmat``, ``_rotmat_euler``,
    ``_qmul`` and ``_quat_rotvec``, and R^T applied to the position and the
    velocity, written out on locals operation for operation; yaw is taken
    only to name a gimbal-locked pitch, and the rate log map only for p and q.
    """
    w, x, y, z = quat
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_QUAT_TOL:
        raise ValueError(
            f"measured quaternion norm {n:.6f} is off unit by more than {UNIT_QUAT_TOL:g}")
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    R = (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
         2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
         2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = R
    roll, pitch = math.atan2(r7, r8), -math.asin(min(1.0, max(-1.0, r6)))
    if abs(pitch) >= GIMBAL_GUARD:
        EulerAngles321(roll, pitch, math.atan2(r3, r0))  # raises the record's GimbalLockError
    if roll == -math.pi:  # atan2 lies in [-pi, pi]; wrap_angle takes -pi to pi
        roll = math.pi
    px, py, pz = pos
    if prev is None:
        rx = ry = rz = vx = vy = vz = wp = wq = 0.0
    else:
        lx, ly, lz, lu, lv, lw, qw, qx, qy, qz = prev
        # the increment conj(prev q) q taken to dw >= 0; its log map's x and y over dt
        dw = qw * w + qx * x + qy * y + qz * z
        dx = qw * x - qx * w - qy * z + qz * y
        dy = qw * y + qx * z - qy * w - qz * x
        dz = qw * z - qx * y + qy * x - qz * w
        if dw < 0.0:
            dw, dx, dy = -dw, -dx, -dy
        vec_norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        k = 2.0 if vec_norm < 1e-9 else 2.0 * math.atan2(vec_norm, dw) / vec_norm
        wp, wq = k * dx / dt, k * dy / dt
        rx, ry, rz = (px - lx) / dt, (py - ly) / dt, (pz - lz) / dt
        vx, vy, vz = 0.5 * (rx + lu), 0.5 * (ry + lv), 0.5 * (rz + lw)
    sigma = (r0 * px + r3 * py + r6 * pz, r1 * px + r4 * py + r7 * pz,
             r2 * px + r5 * py + r8 * pz, r0 * vx + r3 * vy + r6 * vz,
             r1 * vx + r4 * vy + r7 * vz, r2 * vx + r5 * vy + r8 * vz, roll, pitch, wp, wq)
    return (R, pos, (vx, vy, vz), sigma), (px, py, pz, rx, ry, rz, w, x, y, z)


def _sense_truth(y, prev: tuple | None, dt: float, draws) -> tuple:
    """:func:`_sense` on the packed truth state ``y`` for the run loop.

    ``draws`` (3 position, then 3 rotation-vector noise samples, or None)
    perturb the measurement as the noise model does. The quaternion is
    ``kinematics._euler_quat`` of the wrapped angles, times ``_rotvec_quat``
    of the rotation-vector draws by ``_qmul``, both written out on locals.
    """
    roll, pitch, yaw = y[6], y[7], y[8]
    if not -math.pi < roll <= math.pi:
        roll = wrap_angle(roll)
    if not -math.pi < yaw <= math.pi:
        yaw = wrap_angle(yaw)
    hr, hp, hy = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    cr, sr = math.cos(hr), math.sin(hr)
    cp, sp = math.cos(hp), math.sin(hp)
    cy, sy = math.cos(hy), math.sin(hy)
    cc, ss, cs, sc = cy * cp, sy * sp, cy * sp, sy * cp
    aw, ax, ay, az = cc * cr + ss * sr, cc * sr - ss * cr, cs * cr + sc * sr, sc * cr - cs * sr
    if draws is None:
        return _sense((y[0], y[1], y[2]), (aw, ax, ay, az), prev, dt)
    dx, dy, dz, vx, vy, vz = draws
    bw, bx, by, bz = _rotvec_quat(vx, vy, vz)
    q = (aw * bw - ax * bx - ay * by - az * bz, aw * bx + ax * bw + ay * bz - az * by,
         aw * by - ax * bz + ay * bw + az * bx, aw * bz + ax * by - ay * bx + az * bw)
    return _sense((y[0] + dx, y[1] + dy, y[2] + dz), q, prev, dt)


def _decide(K, est: tuple, sp_pos, sp_vel, act: tuple) -> tuple:
    """The control law on an estimate: (A, dA, Vo, thrust, tau_r, tau_p, saturated).

    ``K`` is 3 rows of 10 floats, the setpoint 3 + 3 floats, ``act`` the
    run's actuator constants (``vehicle._actuator``), whose first entry is
    the hover thrust. The error's position and velocity blocks are R^T of
    the world errors, written out. Each row's K·e is added left to right
    from 0.0, the bits the builtin ``sum`` gives up to Python 3.11 (from
    3.12 it sums floats compensated, which would tie a run log to the
    interpreter). The wrench is the one realized after command saturation,
    which the plant receives under zero-order hold.
    """
    (r0, r1, r2, r3, r4, r5, r6, r7, r8), pos, vel, sigma = est
    x, y, z = sp_pos[0] - pos[0], sp_pos[1] - pos[1], sp_pos[2] - pos[2]
    e0, e1, e2 = r0 * x + r3 * y + r6 * z, r1 * x + r4 * y + r7 * z, r2 * x + r5 * y + r8 * z
    x, y, z = sp_vel[0] - vel[0], sp_vel[1] - vel[1], sp_vel[2] - vel[2]
    e3, e4, e5 = r0 * x + r3 * y + r6 * z, r1 * x + r4 * y + r7 * z, r2 * x + r5 * y + r8 * z
    e6, e7, e8, e9 = -sigma[6], -sigma[7], -sigma[8], -sigma[9]
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9), (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9), \
        (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9) = K
    u0 = (0.0 + a0 * e0 + a1 * e1 + a2 * e2 + a3 * e3 + a4 * e4 + a5 * e5 + a6 * e6 + a7 * e7
          + a8 * e8 + a9 * e9)
    u1 = (0.0 + b0 * e0 + b1 * e1 + b2 * e2 + b3 * e3 + b4 * e4 + b5 * e5 + b6 * e6 + b7 * e7
          + b8 * e8 + b9 * e9)
    u2 = (0.0 + c0 * e0 + c1 * e1 + c2 * e2 + c3 * e3 + c4 * e4 + c5 * e5 + c6 * e6 + c7 * e7
          + c8 * e8 + c9 * e9)
    A, dA, Vo, saturated = _wrench_to_cmd(act, act[0] + u0, u1, u2)
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
