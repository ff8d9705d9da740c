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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import read_table
from .kinematics import (
    EulerAngles321,
    Quaternion,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotvec,
    rotmat_to_euler,
)
from .vehicle import ActuatorCmd, VehicleParams, Wrench, cmd_to_wrench, hover_thrust, wrench_to_cmd

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
        out = np.empty(10)
        out[0:3] = self.R.T @ self.pos_w
        out[3:6] = self.R.T @ self.vel_w
        out[6] = self.euler.roll
        out[7] = self.euler.pitch
        out[8:10] = self.omega_b[0:2]
        return out


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
    ``vel_w`` bypasses the differencing (ground-truth injection).
    """
    pos = _vec3(meas_pos_w, "meas_pos_w")
    if not meas_quat.is_unit(1e-3):
        raise ValueError(
            f"measured quaternion norm {meas_quat.norm():.6f} is off unit by more than 1e-3"
        )
    q = meas_quat.normalized().canonical()
    R = quat_to_rotmat(q)
    euler = rotmat_to_euler(R)

    if prev is None:
        omega = np.zeros(3)
        if vel_w is not None:
            raw = vel = _vec3(vel_w, "vel_w")
        else:
            raw = vel = np.zeros(3)
    else:
        if dt is None or not (dt > 0.0):
            raise ValueError("dt must be positive when a previous sample is given")
        dq = quat_multiply(prev.quat.conjugate(), q).canonical()
        omega = quat_to_rotvec(dq) / dt
        if vel_w is not None:
            raw = vel = _vec3(vel_w, "vel_w")
        else:
            raw = (pos - prev.pos_w) / dt
            vel = 0.5 * (raw + prev.raw_vel_w)

    return CtrlState(pos_w=pos, vel_w=vel, raw_vel_w=raw, quat=q, euler=euler, R=R, omega_b=omega)


@dataclass(frozen=True)
class ControlOutput:
    """One tick of controller output: command, applied wrench, limit flag."""

    cmd: ActuatorCmd
    wrench: Wrench
    saturated: bool


def control_step(K, s: CtrlState, sp: Setpoint, p: VehicleParams) -> ControlOutput:
    """Apply the gain to the body-frame tracking error.

    The returned wrench is the one actually realized after command
    saturation (it is what the plant receives under zero-order hold).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (3, 10):
        raise ValueError(f"gain must be 3x10, got {K.shape}")
    Rt = s.R.T
    e = np.empty(10)
    e[0:3] = Rt @ (sp.pos_w - s.pos_w)
    e[3:6] = Rt @ (sp.vel_w - s.vel_w)
    e[6] = -s.euler.roll
    e[7] = -s.euler.pitch
    e[8] = -s.omega_b[0]
    e[9] = -s.omega_b[1]
    d_gamma, tau_r, tau_p = K @ e
    desired = Wrench(hover_thrust(p) + d_gamma, tau_r, tau_p)
    cmd, saturated = wrench_to_cmd(p, desired)
    applied = cmd_to_wrench(p, cmd)
    return ControlOutput(cmd=cmd, wrench=applied, saturated=saturated)


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
