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
residuals (L, M, N).

The equations of motion are written once, in ``_eom``: on floats for
``state_derivative`` and ``rk4_packed``, on whole columns for the pipeline's
model check. ``state_derivative`` and ``rk4_step`` take the ``SimState``
record; the run loop calls ``rk4_packed`` on a list of 12 floats.
``_plant`` (once per run, step or batch) and ``_forcing`` (once per
wrench) are the one place its held inputs are reduced to the quotients
``_eom`` takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, GimbalLockError
from .kinematics import GIMBAL_GUARD, EulerAngles321
from .vehicle import VehicleParams, Wrench

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


def _eom(u, v, w, phi, theta, psi, p, q, r, at, ap, aq, c: tuple, xp=None) -> tuple:
    """The 12 state derivatives from body velocity, Euler angles and rates.

    Position does not enter. ``at, ap, aq, c`` come from :func:`_forcing`.
    By default the arguments are floats and the pitch is checked against
    the gimbal guard here. With ``xp=np`` all but ``c`` may be equal-length
    arrays, one sample per entry, and the caller checks the pitches; each
    entry then gets the same float operations as a float call.
    """
    mt, g, fa1, fa2, fa3, Na, ix, iy, iz, fx, fy, fz = c
    if xp is None:  # floats, the integrator's path: one cheap test selects it
        if abs(theta) >= GIMBAL_GUARD:
            raise GimbalLockError(f"pitch {theta:.6f} rad reached the gimbal guard")
        xp = math

    cr, sr = xp.cos(phi), xp.sin(phi)
    cp, sp = xp.cos(theta), xp.sin(theta)
    cy, sy = xp.cos(psi), xp.sin(psi)

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
    cor_v = r * u - p * w
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


def _plant(p, specific_force=(0.0, 0.0, 0.0), angular_accel=(0.0, 0.0, 0.0),
           force_w=(0.0, 0.0, 0.0)) -> tuple:
    """What :func:`_forcing` takes besides the wrench; ``c`` holds the inertia
    ratios, the residuals and the world force [N]."""
    mt, (Jx, Jy, Jz) = p.total_mass, p.J
    fa1, fa2, fa3 = specific_force
    La, Ma, Na = angular_accel
    fx, fy, fz = force_w
    c = (mt, p.g, fa1, fa2, fa3, Na, (Jz - Jy) / Jx, (Jx - Jz) / Jy, (Jy - Jx) / Jz,
         fx, fy, fz)
    return mt, Jx, Jy, La, Ma, c


def _forcing(plant, thrust, tau_r, tau_p) -> tuple:
    """``(at, ap, aq, c)`` for :func:`_eom` from :func:`_plant`: at = thrust/mt,
    ap = La + tau_r/Jx, aq = Ma + tau_p/Jy. The wrench may be floats or arrays."""
    mt, Jx, Jy, La, Ma, c = plant
    return thrust / mt, La + tau_r / Jx, Ma + tau_p / Jy, c


def _forcing_of(p, w, unmodeled, ext_force_w) -> tuple:
    """:func:`_forcing` from the dataclass inputs; thrust must be >= 0."""
    if w.thrust < 0.0:
        raise ValueError("thrust must be non-negative (clamp upstream)")
    un = unmodeled if unmodeled is not None else UnmodeledTerms()
    force = (0.0, 0.0, 0.0) if ext_force_w is None else [float(c) for c in ext_force_w]
    plant = _plant(p, un.specific_force.tolist(), un.angular_accel.tolist(), force)
    return _forcing(plant, float(w.thrust), float(w.tau_r), float(w.tau_p))


def state_derivative(
    p: VehicleParams,
    s: SimState,
    w: Wrench,
    unmodeled: UnmodeledTerms | None = None,
    ext_force_w=None,
) -> np.ndarray:
    """Time derivative of the packed 12-state under the given wrench.

    ``ext_force_w`` is an optional world-frame disturbance force [N].
    Thrust below zero is not accepted here; clamping belongs to the
    actuator map.
    """
    at, ap, aq, c = _forcing_of(p, w, unmodeled, ext_force_w)
    return np.array(_eom(*s.as_vector()[3:].tolist(), at, ap, aq, c))


def rk4_packed(y, dt: float, forcing) -> list:
    """The package's one RK4 step: 12 floats in, a new list of 12 out.

    ``forcing`` is what :func:`_forcing` returns, built once for as long
    as the inputs hold. Stages ``y + (h * k)`` and the sum ``y + s * (k1 + 2 k2
    + 2 k3 + k4)``, left to right, are written out on locals in numpy's order
    (cheaper than subscripts and a ``zip``; any other order changes bits), so
    the step is bit for bit the textbook RK4 over :func:`state_derivative`.
    """
    at, ap, aq, c = forcing
    h = 0.5 * dt
    xw, yw, zw, u, v, w, ph, th, ps, p, q, r = y
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = _eom(
        u, v, w, ph, th, ps, p, q, r, at, ap, aq, c)
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = _eom(
        u + h * a3, v + h * a4, w + h * a5, ph + h * a6, th + h * a7, ps + h * a8,
        p + h * a9, q + h * a10, r + h * a11, at, ap, aq, c)
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = _eom(
        u + h * b3, v + h * b4, w + h * b5, ph + h * b6, th + h * b7, ps + h * b8,
        p + h * b9, q + h * b10, r + h * b11, at, ap, aq, c)
    e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 = _eom(
        u + dt * d3, v + dt * d4, w + dt * d5, ph + dt * d6, th + dt * d7, ps + dt * d8,
        p + dt * d9, q + dt * d10, r + dt * d11, at, ap, aq, c)
    s = dt / 6.0
    return [xw + s * (a0 + 2.0 * b0 + 2.0 * d0 + e0), yw + s * (a1 + 2.0 * b1 + 2.0 * d1 + e1),
            zw + s * (a2 + 2.0 * b2 + 2.0 * d2 + e2), u + s * (a3 + 2.0 * b3 + 2.0 * d3 + e3),
            v + s * (a4 + 2.0 * b4 + 2.0 * d4 + e4), w + s * (a5 + 2.0 * b5 + 2.0 * d5 + e5),
            ph + s * (a6 + 2.0 * b6 + 2.0 * d6 + e6), th + s * (a7 + 2.0 * b7 + 2.0 * d7 + e7),
            ps + s * (a8 + 2.0 * b8 + 2.0 * d8 + e8), p + s * (a9 + 2.0 * b9 + 2.0 * d9 + e9),
            q + s * (a10 + 2.0 * b10 + 2.0 * d10 + e10),
            r + s * (a11 + 2.0 * b11 + 2.0 * d11 + e11)]


def rk4_step(
    p: VehicleParams,
    s: SimState,
    w: Wrench,
    unmodeled: UnmodeledTerms | None = None,
    ext_force_w=None,
    dt: float = 1e-4,
) -> SimState:
    """One classical Runge-Kutta step of length dt (inputs held constant).

    dt must lie in (0, 5e-3]; larger steps under-resolve the closed-loop
    attitude modes. Raises DivergenceError on a non-finite result.
    """
    if not (0.0 < dt <= MAX_DT):
        raise ValueError(f"dt must be in (0, {MAX_DT}]; got {dt}")
    forcing = _forcing_of(p, w, unmodeled, ext_force_w)
    out = rk4_packed(s.as_vector().tolist(), dt, forcing)
    if not all(map(math.isfinite, out)):
        raise DivergenceError("non-finite state after RK4 step")
    return SimState.from_vector(out)

