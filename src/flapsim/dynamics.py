"""Stroke-averaged rigid-body dynamics and fixed-step RK4 integration.

The vehicle is modeled as a single rigid body with diagonal inertia driven
by a stroke-averaged wrench (thrust along body z, roll and pitch torques).
State (12 numbers, packed order used everywhere):

    [0:3]  position in the world frame [m]
    [3:6]  velocity in the body frame  (u, v, w) [m/s]
    [6:9]  321 Euler angles (roll, pitch, yaw) [rad]
    [9:12] body angular rates (p, q, r) [rad/s]

Body-frame translational dynamics (z-up world, gravity -z):

    u_dot = g sin(theta)                 + f_a1 - (q w - r v)
    v_dot = -g cos(theta) sin(phi)       + f_a2 - (r u - p w)
    w_dot = -g cos(theta) cos(phi)       + f_a3 - (p v - q u) + Gamma/(m+m_M)

and Euler's equations with optional unmodeled angular-acceleration
residuals (L, M, N). A ``legacy_coriolis`` switch reproduces a
nonstandard published variant of the lateral Coriolis term,
-(r v - p w) in v_dot, for comparison studies; the default is the
standard cross-product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, GimbalLockError
from .kinematics import GIMBAL_GUARD, EulerAngles321
from .vehicle import VehicleParams, Wrench, hover_thrust

__all__ = [
    "STATE_DIM",
    "POS",
    "VEL",
    "EUL",
    "OMEGA",
    "SimState",
    "UnmodeledTerms",
    "state_derivative",
    "rk4_packed",
    "rk4_step",
    "hover_equilibrium",
]

STATE_DIM = 12
POS = slice(0, 3)
VEL = slice(3, 6)
EUL = slice(6, 9)
OMEGA = slice(9, 12)

MAX_DT = 5e-3  # RK4 accuracy/stability guard for this vehicle's time scales


@dataclass(frozen=True)
class SimState:
    """Full vehicle state: world position, body velocity, attitude, body rates."""

    pos_w: np.ndarray
    vel_b: np.ndarray
    att: EulerAngles321
    omega_b: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.pos_w, dtype=float).reshape(3)
        vel = np.asarray(self.vel_b, dtype=float).reshape(3)
        omega = np.asarray(self.omega_b, dtype=float).reshape(3)
        if not (
            np.all(np.isfinite(pos))
            and np.all(np.isfinite(vel))
            and np.all(np.isfinite(omega))
        ):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "pos_w", pos)
        object.__setattr__(self, "vel_b", vel)
        object.__setattr__(self, "omega_b", omega)

    @classmethod
    def at_rest(cls, pos_w=(0.0, 0.0, 0.0)) -> "SimState":
        return cls(np.asarray(pos_w, dtype=float), np.zeros(3),
                   EulerAngles321(0.0, 0.0, 0.0), np.zeros(3))

    def as_vector(self) -> np.ndarray:
        y = np.empty(STATE_DIM)
        y[POS] = self.pos_w
        y[VEL] = self.vel_b
        y[EUL] = (self.att.roll, self.att.pitch, self.att.yaw)
        y[OMEGA] = self.omega_b
        return y

    @classmethod
    def from_vector(cls, y) -> "SimState":
        y = np.asarray(y, dtype=float).reshape(STATE_DIM)
        return cls(y[POS].copy(), y[VEL].copy(),
                   EulerAngles321(y[6], y[7], y[8]), y[OMEGA].copy())


def _zero3() -> np.ndarray:
    return np.zeros(3)


@dataclass(frozen=True)
class UnmodeledTerms:
    """Residual accelerations not captured by the wrench fits.

    specific_force: (f_a1, f_a2, f_a3) body-frame accelerations [m/s^2]
    angular_accel:  (L, M, N) body-frame angular accelerations [rad/s^2]
    """

    specific_force: np.ndarray = field(default_factory=_zero3)
    angular_accel: np.ndarray = field(default_factory=_zero3)

    def __post_init__(self) -> None:
        sf = np.asarray(self.specific_force, dtype=float).reshape(3)
        aa = np.asarray(self.angular_accel, dtype=float).reshape(3)
        object.__setattr__(self, "specific_force", sf)
        object.__setattr__(self, "angular_accel", aa)


def _derivative_packed(
    y,
    mt: float,
    Jx: float,
    Jy: float,
    Jz: float,
    g: float,
    thrust: float,
    tau_r: float,
    tau_p: float,
    fa1: float,
    fa2: float,
    fa3: float,
    La: float,
    Ma: float,
    Na: float,
    fx: float,
    fy: float,
    fz: float,
    legacy_coriolis: bool,
):
    """Scalar-math core of the state derivative (hot path for the integrator).

    y is any indexable of 12 floats; returns a list of 12 floats.
    External force (fx, fy, fz) is given in the world frame [N].
    """
    u, v, w = y[3], y[4], y[5]
    phi, theta, psi = y[6], y[7], y[8]
    p, q, r = y[9], y[10], y[11]

    if abs(theta) >= GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {theta:.6f} rad reached the gimbal guard")

    cr, sr = math.cos(phi), math.sin(phi)
    cp, sp = math.cos(theta), math.sin(theta)
    cy, sy = math.cos(psi), math.sin(psi)

    # body-to-world rotation, rows written out
    r00 = cy * cp
    r01 = cy * sp * sr - sy * cr
    r02 = cy * sp * cr + sy * sr
    r10 = sy * cp
    r11 = sy * sp * sr + cy * cr
    r12 = sy * sp * cr - cy * sr
    r20 = -sp
    r21 = cp * sr
    r22 = cp * cr

    xd = r00 * u + r01 * v + r02 * w
    yd = r10 * u + r11 * v + r12 * w
    zd = r20 * u + r21 * v + r22 * w

    # world-frame external force mapped to body-frame specific force
    if fx != 0.0 or fy != 0.0 or fz != 0.0:
        ebx = (r00 * fx + r10 * fy + r20 * fz) / mt
        eby = (r01 * fx + r11 * fy + r21 * fz) / mt
        ebz = (r02 * fx + r12 * fy + r22 * fz) / mt
    else:
        ebx = eby = ebz = 0.0

    cor_u = q * w - r * v
    cor_v = (r * v - p * w) if legacy_coriolis else (r * u - p * w)
    cor_w = p * v - q * u

    ud = g * sp + fa1 - cor_u + ebx
    vd = -g * cp * sr + fa2 - cor_v + eby
    wd = -g * cp * cr + fa3 - cor_w + thrust / mt + ebz

    tp = sp / cp
    phid = p + sr * tp * q + cr * tp * r
    thetad = cr * q - sr * r
    psid = (sr * q + cr * r) / cp

    pd = La + tau_r / Jx - ((Jz - Jy) / Jx) * q * r
    qd = Ma + tau_p / Jy - ((Jx - Jz) / Jy) * r * p
    rd = Na - ((Jy - Jx) / Jz) * p * q

    return [xd, yd, zd, ud, vd, wd, phid, thetad, psid, pd, qd, rd]


def _pack_inputs(p, w, unmodeled, ext_force_w):
    """Flat input tuple for the packed derivative and stepper; thrust must be >= 0."""
    if w.thrust < 0.0:
        raise ValueError("thrust must be non-negative (clamp upstream)")
    un = unmodeled if unmodeled is not None else UnmodeledTerms()
    if ext_force_w is None:
        fx = fy = fz = 0.0
    else:
        fx, fy, fz = (float(c) for c in ext_force_w)
    Jx, Jy, Jz = p.J
    return (
        p.total_mass, Jx, Jy, Jz, p.g,
        float(w.thrust), float(w.tau_r), float(w.tau_p),
        float(un.specific_force[0]), float(un.specific_force[1]), float(un.specific_force[2]),
        float(un.angular_accel[0]), float(un.angular_accel[1]), float(un.angular_accel[2]),
        fx, fy, fz,
    )


def state_derivative(
    p: VehicleParams,
    s: SimState,
    w: Wrench,
    unmodeled: UnmodeledTerms | None = None,
    ext_force_w=None,
    *,
    legacy_coriolis: bool = False,
) -> np.ndarray:
    """Time derivative of the packed 12-state under the given wrench.

    ``ext_force_w`` is an optional world-frame disturbance force [N].
    Thrust below zero is not accepted here; clamping belongs to the
    actuator map.
    """
    args = _pack_inputs(p, w, unmodeled, ext_force_w)
    return np.array(_derivative_packed(s.as_vector(), *args, legacy_coriolis))


def rk4_packed(y, dt: float, args, legacy: bool) -> list:
    """The package's one RK4 step: 12 floats in, a new list of 12 out.

    ``args`` comes from ``_pack_inputs``. Stages are formed element-wise
    as ``y + (h * k)``, the operation order numpy uses on arrays.
    """
    h = 0.5 * dt
    k1 = _derivative_packed(y, *args, legacy)
    k2 = _derivative_packed([a + h * b for a, b in zip(y, k1)], *args, legacy)
    k3 = _derivative_packed([a + h * b for a, b in zip(y, k2)], *args, legacy)
    k4 = _derivative_packed([a + dt * b for a, b in zip(y, k3)], *args, legacy)
    c = dt / 6.0
    return [a + c * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_step(
    p: VehicleParams,
    s: SimState,
    w: Wrench,
    unmodeled: UnmodeledTerms | None = None,
    ext_force_w=None,
    dt: float = 1e-4,
    *,
    legacy_coriolis: bool = False,
) -> SimState:
    """One classical Runge-Kutta step of length dt (inputs held constant).

    dt must lie in (0, 5e-3]; larger steps under-resolve the closed-loop
    attitude modes. Raises DivergenceError on a non-finite result.
    """
    if not (0.0 < dt <= MAX_DT):
        raise ValueError(f"dt must be in (0, {MAX_DT}]; got {dt}")
    args = _pack_inputs(p, w, unmodeled, ext_force_w)
    out = rk4_packed(s.as_vector().tolist(), dt, args, legacy_coriolis)
    if not all(map(math.isfinite, out)):
        raise DivergenceError("non-finite state after RK4 step")
    return SimState.from_vector(out)


def hover_equilibrium(p: VehicleParams) -> tuple[SimState, Wrench]:
    """Level rest state and the wrench that exactly holds it."""
    return SimState.at_rest(), Wrench(hover_thrust(p), 0.0, 0.0)
