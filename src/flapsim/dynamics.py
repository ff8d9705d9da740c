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

The equations of motion are written once, on floats, in ``_eom``;
``state_derivative``, ``rk4_packed`` and the pipeline's model check all
evaluate that body.
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


def _eom(u, v, w, phi, theta, psi, p, q, r, at: float, ap: float, aq: float, c: tuple) -> tuple:
    """The 12 state derivatives from body velocity, Euler angles and rates (floats).

    Position does not enter. ``at, ap, aq, c`` come from :func:`_constants`;
    the world force (fx, fy, fz) in ``c`` is in newtons.
    """
    mt, g, fa1, fa2, fa3, Na, ix, iy, iz, fx, fy, fz, legacy_coriolis = c
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
    wd = -g * cp * cr + fa3 - cor_w + at + ebz

    tp = sp / cp
    phid = p + sr * tp * q + cr * tp * r
    thetad = cr * q - sr * r
    psid = (sr * q + cr * r) / cp

    return (xd, yd, zd, ud, vd, wd, phid, thetad, psid,
            ap - ix * q * r, aq - iy * r * p, Na - iz * p * q)


def _constants(args, legacy_coriolis: bool) -> tuple:
    """``(at, ap, aq, c)`` for :func:`_eom` from a ``_pack_inputs`` tuple, once per step.

    at = thrust/mt, ap = La + tau_r/Jx, aq = Ma + tau_p/Jy; ``c`` holds the
    inertia ratios. The wrench entries may be arrays.
    """
    mt, Jx, Jy, Jz, g, thrust, tau_r, tau_p, fa1, fa2, fa3, La, Ma, Na, fx, fy, fz = args
    c = (mt, g, fa1, fa2, fa3, Na, (Jz - Jy) / Jx, (Jx - Jz) / Jy, (Jy - Jx) / Jz,
         fx, fy, fz, legacy_coriolis)
    return thrust / mt, La + tau_r / Jx, Ma + tau_p / Jy, c


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
    at, ap, aq, c = _constants(_pack_inputs(p, w, unmodeled, ext_force_w), legacy_coriolis)
    return np.array(_eom(*s.as_vector()[3:].tolist(), at, ap, aq, c))


def rk4_packed(y, dt: float, args, legacy: bool) -> list:
    """The package's one RK4 step: 12 floats in, a new list of 12 out.

    ``args`` comes from ``_pack_inputs``; its quotients are taken once per
    step (:func:`_constants`). Stages are formed entry by entry as
    ``y + (h * k)``, the operation order numpy uses on arrays, so the step
    is bit for bit the textbook RK4 over :func:`state_derivative`.
    """
    at, ap, aq, c = _constants(args, legacy)
    h = 0.5 * dt
    _, _, _, u, v, w, ph, th, ps, p, q, r = y
    a = _eom(u, v, w, ph, th, ps, p, q, r, at, ap, aq, c)
    b = _eom(u + h * a[3], v + h * a[4], w + h * a[5], ph + h * a[6], th + h * a[7],
             ps + h * a[8], p + h * a[9], q + h * a[10], r + h * a[11], at, ap, aq, c)
    d = _eom(u + h * b[3], v + h * b[4], w + h * b[5], ph + h * b[6], th + h * b[7],
             ps + h * b[8], p + h * b[9], q + h * b[10], r + h * b[11], at, ap, aq, c)
    e = _eom(u + dt * d[3], v + dt * d[4], w + dt * d[5], ph + dt * d[6], th + dt * d[7],
             ps + dt * d[8], p + dt * d[9], q + dt * d[10], r + dt * d[11], at, ap, aq, c)
    s = dt / 6.0
    return [x + s * (k1 + 2.0 * k2 + 2.0 * k3 + k4) for x, k1, k2, k3, k4 in zip(y, a, b, d, e)]


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
