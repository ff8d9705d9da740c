"""Rotation representations and conversions for a z-up flight vehicle.

Conventions used throughout the package:

* Euler angles follow the aerospace 321 sequence (yaw about z, then pitch
  about y, then roll about x), so ``R = Rz(yaw) @ Ry(pitch) @ Rx(roll)``
  maps body-frame vectors into the world frame.
* Quaternions are scalar-first ``(w, x, y, z)`` Hamilton quaternions with
  the same body-to-world semantics. ``euler_to_quat`` and every measured
  quaternion (``controller._sense``, ``pipeline.MocapTrajectory``) are
  canonicalized to ``w >= 0``; the ``_`` cores return a product's own sign.
* Angular velocity ``(p, q, r)`` is expressed in the body frame.

All functions are pure. The ``_``-prefixed cores do the math on plain
tuples (``(w, x, y, z)``, row-major 9-tuples for R); the branch-free ones
(``_qmul``, ``_rotmat``, ``_euler_quat``) take numpy columns as well,
which is how ``pipeline`` applies them to whole trajectories. The control
tick calls only ``wrap_angle`` (outside (-pi, pi]) and ``_rotvec_quat``;
``controller`` writes the rest out on locals, operation for operation, and
the tier-1 tests hold those copies to these cores bit for bit. The public
functions take and return the records and small numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GimbalLockError

__all__ = [
    "GIMBAL_GUARD",
    "UNIT_QUAT_TOL",
    "EulerAngles321",
    "Quaternion",
    "wrap_angle",
    "euler_to_rotmat",
    "rotmat_to_euler",
    "quat_to_rotmat",
    "euler_to_quat",
    "quat_multiply",
    "quat_from_rotvec",
    "quat_to_rotvec",
]

# Pitch magnitudes at or beyond this are rejected: the 321 chart is singular
# at |pitch| = pi/2 and the Euler-angle rates blow up as 1/cos(pitch).
GIMBAL_GUARD = math.pi / 2 - 1e-6
# A measured quaternion whose norm is off 1 by more than this is refused,
# not normalized: it is a corrupt sample, not rounding.
UNIT_QUAT_TOL = 1e-3


def _floats(x, name: str) -> np.ndarray:
    """``x`` as a float array, or ConfigError naming ``name`` when it holds
    text, a value that is not a real number, or rows of different lengths."""
    try:
        a = np.asarray(x)
        if a.dtype.kind in "biufO":  # not text, which numpy would read as numbers
            return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be an array of numbers")


def _vec3(x, name: str) -> np.ndarray:
    """``x`` as a finite float (3,) array, or ConfigError naming ``name``."""
    v = _floats(x, name)
    if v.shape != (3,):
        raise ConfigError(f"{name} must be 3 values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} must be finite")
    return v


def _rows(what: str, t, *blocks) -> tuple:
    """``(t, *blocks)`` as float arrays: ``t`` 1-D, at least one finite, strictly
    increasing time, and each ``(block, width)`` one row of ``width`` values per
    time (width 1: a 1-D column), or ConfigError ``{what} ...``. Block values
    may be non-finite; :func:`_series` refuses those."""
    t = _floats(t, f"{what} times")
    if t.ndim != 1 or len(t) == 0:
        raise ConfigError(f"{what} times must be 1-D and not empty, got shape {t.shape}")
    out = []
    for b, width in blocks:
        b = _floats(b, f"{what} series")
        shape = (len(t),) if width == 1 else (len(t), width)
        if b.shape != shape:
            raise ConfigError(f"{what} series has a {b.shape} block, not {shape}")
        out.append(b)
    if not np.all(np.isfinite(t)):
        raise ConfigError(f"{what} times must be finite")
    late = np.nonzero(np.diff(t) <= 0.0)[0]
    if len(late):
        raise ConfigError(f"{what} times not strictly increasing at sample {int(late[0]) + 1}")
    return (t, *out)


def _series(what: str, t, *blocks) -> tuple:
    """:func:`_rows`, with every block value also finite, or ConfigError
    ``{what} series has non-finite values``."""
    t, *blocks = _rows(what, t, *blocks)
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise ConfigError(f"{what} series has non-finite values")
    return (t, *blocks)


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]; angles inside pass unchanged."""
    if -math.pi < angle <= math.pi:  # the shift by pi below would round off low bits
        return float(angle)
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


@dataclass(frozen=True)
class EulerAngles321:
    """321 (yaw-pitch-roll) Euler angles in radians.

    ``roll`` and ``yaw`` are normalized to (-pi, pi] on construction;
    ``pitch`` must stay clear of the +/-90 deg singularity.
    """

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self) -> None:
        r, p, y = float(self.roll), float(self.pitch), float(self.yaw)
        if not (math.isfinite(r) and math.isfinite(p) and math.isfinite(y)):
            raise ValueError("Euler angles must be finite")
        if abs(p) >= GIMBAL_GUARD:
            raise GimbalLockError(
                f"pitch {p:.9f} rad is within 1e-6 of the +/-pi/2 singularity"
            )
        object.__setattr__(self, "roll", wrap_angle(r))
        object.__setattr__(self, "pitch", p)
        object.__setattr__(self, "yaw", wrap_angle(y))


@dataclass(frozen=True)
class Quaternion:
    """Scalar-first Hamilton quaternion (w, x, y, z), body-to-world."""

    w: float
    x: float
    y: float
    z: float

    def canonical(self) -> "Quaternion":
        """Flip sign so w >= 0 (q and -q encode the same rotation)."""
        if self.w < 0.0:
            return Quaternion(-self.w, -self.x, -self.y, -self.z)
        return self


def _normalized(q: tuple) -> tuple:
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-12:
        raise ValueError("cannot normalize a near-zero quaternion")
    return (w / n, x / n, y / n, z / n)


def _qmul(a: tuple, b: tuple) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz, aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx, aw * bz + ax * by - ay * bx + az * bw)


def _rotmat_euler(R: tuple) -> tuple:
    """Unwrapped (roll, pitch, yaw); rounding can carry |R[6]| past 1."""
    return (math.atan2(R[7], R[8]), -math.asin(min(1.0, max(-1.0, R[6]))), math.atan2(R[3], R[0]))


def _rotmat(w, x, y, z) -> tuple:
    """Row-major R of a unit quaternion, from floats or from numpy columns alike."""
    return (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def _euler_quat(roll, pitch, yaw, xp=math) -> tuple:
    """q_z(yaw) q_y(pitch) q_x(roll) written out on the half-angle cosines and
    sines, from floats or, with ``xp=np``, from numpy columns alike. The sign
    is the product's; w may be negative."""
    hr, hp, hy = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    cr, sr = xp.cos(hr), xp.sin(hr)
    cp, sp = xp.cos(hp), xp.sin(hp)
    cy, sy = xp.cos(hy), xp.sin(hy)
    cc, ss, cs, sc = cy * cp, sy * sp, cy * sp, sy * cp
    return (cc * cr + ss * sr, cc * sr - ss * cr, cs * cr + sc * sr, sc * cr - cs * sr)


def _rotvec_quat(vx: float, vy: float, vz: float) -> tuple:
    angle = math.sqrt(vx * vx + vy * vy + vz * vz)
    if angle < 1e-9:
        # second-order series of sin(a/2)/a keeps this smooth through zero
        k = 0.5 - angle * angle / 48.0
        return _normalized((1.0 - angle * angle / 8.0, k * vx, k * vy, k * vz))
    k = math.sin(0.5 * angle) / angle
    return (math.cos(0.5 * angle), k * vx, k * vy, k * vz)


def _quat_rotvec(q: tuple) -> tuple:
    """Log map of a unit quaternion; the caller normalizes."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    vec_norm = math.sqrt(x * x + y * y + z * z)
    k = 2.0 if vec_norm < 1e-9 else 2.0 * math.atan2(vec_norm, w) / vec_norm
    return (k * x, k * y, k * z)


def quat_multiply(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (compose rotations: apply b in a's body frame)."""
    return Quaternion(*_qmul((a.w, a.x, a.y, a.z), (b.w, b.x, b.y, b.z)))


def euler_to_rotmat(e: EulerAngles321) -> np.ndarray:
    """Body-to-world rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(e.roll), math.sin(e.roll)
    cp, sp = math.cos(e.pitch), math.sin(e.pitch)
    cy, sy = math.cos(e.yaw), math.sin(e.yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def rotmat_to_euler(R: np.ndarray) -> EulerAngles321:
    """Invert :func:`euler_to_rotmat`. Raises GimbalLockError as EulerAngles321 does."""
    return EulerAngles321(*_rotmat_euler(np.asarray(R, dtype=float).ravel().tolist()))


def quat_to_rotmat(q: Quaternion) -> np.ndarray:
    """Body-to-world rotation matrix of a (not necessarily unit) quaternion."""
    return np.array(_rotmat(*_normalized((q.w, q.x, q.y, q.z)))).reshape(3, 3)


def euler_to_quat(e: EulerAngles321) -> Quaternion:
    """321 Euler angles to canonical unit quaternion."""
    return Quaternion(*_euler_quat(e.roll, e.pitch, e.yaw)).canonical()


def quat_from_rotvec(v) -> Quaternion:
    """Exponential map: rotation vector (axis * angle, rad) to quaternion."""
    return Quaternion(*_rotvec_quat(*(float(c) for c in v)))


def quat_to_rotvec(q: Quaternion) -> np.ndarray:
    """Logarithmic map: quaternion to rotation vector (radians)."""
    return np.array(_quat_rotvec(_normalized((q.w, q.x, q.y, q.z))))

