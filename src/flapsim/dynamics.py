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
residuals (L, M, N). R = Rz(yaw) Ry(pitch) Rx(roll) is never formed: R (u, v, w)
is three planar rotations, by roll, pitch, then yaw (12 multiplies, 6 adds),
and a world force comes into the body frame by their transposes in reverse.

``_eom`` states the equations of motion: bound to a plant's constants
(inertia ratios, residuals, world force) and to ``cos``/``sin``, it is the
derivative, on floats for ``state_derivative`` and on whole columns
(``xp=np``) for the pipeline's model check. ``rk4_packed`` writes the same
statements out once per RK4 stage on locals, so a step makes no call per
stage; tier-1 holds those four copies to ``_eom`` bit for bit (a textbook
RK4 over ``state_derivative``, and the run loop replayed from its log).
``_plant`` builds a plant's constants once per run, step or batch, and
once per distinct world force a run's pulses give; ``_forcing`` adds a
wrench to a plant once and returns ``(at, ap, aq, c)``: thrust over mass,
the two angular accelerations and the constants ``c`` that ``_eom`` and
``rk4_packed`` take. ``state_derivative`` and ``rk4_step`` take the
``SimState`` record; the run loop calls ``rk4_packed`` on a list of 12
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, GimbalLockError
from .kinematics import GIMBAL_GUARD, EulerAngles321, _vec3
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
        for name in ("pos_w", "vel_b", "omega_b"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))

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
        y = np.asarray(y, dtype=float)
        if y.shape != (STATE_DIM,):
            raise ConfigError(f"state vector must be {STATE_DIM} values, got shape {y.shape}")
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
        for name in ("specific_force", "angular_accel"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))


def _eom(c: tuple, xp=None):
    """The equations of motion bound to the plant constants ``c``: a function
    of 12 numbers, body velocity, Euler angles, rates, ``at, ap, aq``, that
    returns the 12 state derivatives (position does not enter).

    ``c`` and ``at, ap, aq`` come from :func:`_plant` and :func:`_forcing`.
    By default the arguments are floats and the pitch is checked against the
    gimbal guard. With ``xp=np`` they may be equal-length arrays, one sample
    per entry, and the caller checks the pitches; each entry then gets the
    same float operations as a float call. :func:`rk4_packed` repeats this
    body in each of its stages, operation for operation: a change here is
    a change there.
    """
    mt, g, fa1, fa2, fa3, Na, ix, iy, iz, fx, fy, fz = c
    floats = xp is None
    cos, sin = (math.cos, math.sin) if floats else (xp.cos, xp.sin)
    forced = fx != 0.0 or fy != 0.0 or fz != 0.0

    def deriv(u, v, w, phi, theta, psi, p, q, r, at, ap, aq) -> tuple:
        if floats and abs(theta) >= GIMBAL_GUARD:
            raise GimbalLockError(f"pitch {theta:.6f} rad reached the gimbal guard")

        cr, sr = cos(phi), sin(phi)
        cp, sp = cos(theta), sin(theta)
        cy, sy = cos(psi), sin(psi)

        # world velocity R (u, v, w), R = Rz(psi) Ry(theta) Rx(phi): roll, pitch, yaw in turn
        v1 = cr * v - sr * w
        w1 = sr * v + cr * w
        u2 = cp * u + sp * w1
        xd = cy * u2 - sy * v1
        yd = sy * u2 + cy * v1
        zd = cp * w1 - sp * u

        # world-frame external force to body-frame specific force, R^T f: yaw, pitch, roll back
        if forced:
            f1, f2, f3 = (cy * fx + sy * fy) / mt, (cy * fy - sy * fx) / mt, fz / mt
            ebx, f3 = cp * f1 - sp * f3, sp * f1 + cp * f3
            eby, ebz = cr * f2 + sr * f3, cr * f3 - sr * f2
        else:
            ebx = eby = ebz = 0.0

        cor_u = q * w - r * v
        cor_v = r * u - p * w
        cor_w = p * v - q * u

        gc = g * cp
        ud = g * sp + fa1 - cor_u + ebx
        vd = -gc * sr + fa2 - cor_v + eby
        wd = -gc * cr + fa3 - cor_w + at + ebz

        psid = (sr * q + cr * r) / cp
        phid = p + sp * psid
        thetad = cr * q - sr * r

        return (xd, yd, zd, ud, vd, wd, phid, thetad, psid,
                ap - ix * q * r, aq - iy * r * p, Na - iz * p * q)

    return deriv


def _plant(p, specific_force=(0.0, 0.0, 0.0), angular_accel=(0.0, 0.0, 0.0),
           force_w=(0.0, 0.0, 0.0)) -> tuple:
    """What :func:`_forcing` takes besides the wrench: the mass, two inertias,
    two residuals and the constants ``c`` :func:`_eom` binds: the mass, g,
    the other residuals, the inertia ratios and the world force [N]."""
    mt, (Jx, Jy, Jz) = p.total_mass, p.J
    fa1, fa2, fa3 = specific_force
    La, Ma, Na = angular_accel
    fx, fy, fz = force_w
    c = (mt, p.g, fa1, fa2, fa3, Na, (Jz - Jy) / Jx, (Jx - Jz) / Jy, (Jy - Jx) / Jz,
         fx, fy, fz)
    return mt, Jx, Jy, La, Ma, c


def _forcing(plant, thrust, tau_r, tau_p) -> tuple:
    """``(at, ap, aq, c)`` from :func:`_plant`: at = thrust/mt, ap = La + tau_r/Jx,
    aq = Ma + tau_p/Jy, and the plant's constants ``c``; ``_eom(c)`` takes
    at, ap, aq after the 9 states. The wrench may be floats or arrays."""
    mt, Jx, Jy, La, Ma, c = plant
    return thrust / mt, La + tau_r / Jx, Ma + tau_p / Jy, c


def _forcing_of(p, w, unmodeled) -> tuple:
    """:func:`_forcing` from the dataclass inputs; thrust must be >= 0."""
    if w.thrust < 0.0:
        raise ValueError("thrust must be non-negative (clamp upstream)")
    un = unmodeled if unmodeled is not None else UnmodeledTerms()
    plant = _plant(p, un.specific_force.tolist(), un.angular_accel.tolist())
    return _forcing(plant, float(w.thrust), float(w.tau_r), float(w.tau_p))


def state_derivative(
    p: VehicleParams,
    s: SimState,
    w: Wrench,
    unmodeled: UnmodeledTerms | None = None,
) -> np.ndarray:
    """Time derivative of the packed 12-state under the given wrench.

    Thrust below zero is not accepted here; clamping belongs to the
    actuator map. A world-frame force reaches the equations of motion
    through ``_plant(p, force_w=...)``, as the run loop's pulses do.
    """
    at, ap, aq, c = _forcing_of(p, w, unmodeled)
    return np.array(_eom(c)(*s.as_vector()[3:].tolist(), at, ap, aq))


def rk4_packed(y, dt: float, forcing) -> list:
    """The package's one RK4 step: 12 floats in, a new list of 12 out.

    ``forcing`` is what :func:`_forcing` returns, built once for as long
    as the inputs hold. Each stage evaluates :func:`_eom`'s equations on
    locals, in its operation order and with its gimbal check, from the
    plant constants ``c`` (no call per stage). Stages ``y + (h * k)`` and
    the sum ``y + s * (k1 + 2 k2 + 2 k3 + k4)``, left to right, are written
    out in numpy's order (any other order changes bits), so the step is
    bit for bit the textbook RK4 over :func:`state_derivative`.
    """
    at, ap, aq, c = forcing
    mt, g, fa1, fa2, fa3, Na, ix, iy, iz, fx, fy, fz = c
    forced = fx != 0.0 or fy != 0.0 or fz != 0.0
    cos, sin = math.cos, math.sin
    h = 0.5 * dt
    xw, yw, zw, u, v, w, ph, th, ps, p, q, r = y
    if abs(th) >= GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {th:.6f} rad reached the gimbal guard")
    cr, sr = cos(ph), sin(ph)
    cp, sp = cos(th), sin(th)
    cy, sy = cos(ps), sin(ps)
    v1 = cr * v - sr * w
    w1 = sr * v + cr * w
    u2 = cp * u + sp * w1
    a0, a1, a2 = cy * u2 - sy * v1, sy * u2 + cy * v1, cp * w1 - sp * u
    if forced:
        f1, f2, f3 = (cy * fx + sy * fy) / mt, (cy * fy - sy * fx) / mt, fz / mt
        ebx, f3 = cp * f1 - sp * f3, sp * f1 + cp * f3
        eby, ebz = cr * f2 + sr * f3, cr * f3 - sr * f2
    else:
        ebx = eby = ebz = 0.0
    gc = g * cp
    a3 = g * sp + fa1 - (q * w - r * v) + ebx
    a4 = -gc * sr + fa2 - (r * u - p * w) + eby
    a5 = -gc * cr + fa3 - (p * v - q * u) + at + ebz
    a8 = (sr * q + cr * r) / cp
    a6, a7 = p + sp * a8, cr * q - sr * r
    a9, a10, a11 = ap - ix * q * r, aq - iy * r * p, Na - iz * p * q
    uk, vk, wk = u + h * a3, v + h * a4, w + h * a5
    phk, thk, psk = ph + h * a6, th + h * a7, ps + h * a8
    pk, qk, rk = p + h * a9, q + h * a10, r + h * a11
    if abs(thk) >= GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {thk:.6f} rad reached the gimbal guard")
    cr, sr = cos(phk), sin(phk)
    cp, sp = cos(thk), sin(thk)
    cy, sy = cos(psk), sin(psk)
    v1 = cr * vk - sr * wk
    w1 = sr * vk + cr * wk
    u2 = cp * uk + sp * w1
    b0, b1, b2 = cy * u2 - sy * v1, sy * u2 + cy * v1, cp * w1 - sp * uk
    if forced:
        f1, f2, f3 = (cy * fx + sy * fy) / mt, (cy * fy - sy * fx) / mt, fz / mt
        ebx, f3 = cp * f1 - sp * f3, sp * f1 + cp * f3
        eby, ebz = cr * f2 + sr * f3, cr * f3 - sr * f2
    else:
        ebx = eby = ebz = 0.0
    gc = g * cp
    b3 = g * sp + fa1 - (qk * wk - rk * vk) + ebx
    b4 = -gc * sr + fa2 - (rk * uk - pk * wk) + eby
    b5 = -gc * cr + fa3 - (pk * vk - qk * uk) + at + ebz
    b8 = (sr * qk + cr * rk) / cp
    b6, b7 = pk + sp * b8, cr * qk - sr * rk
    b9, b10, b11 = ap - ix * qk * rk, aq - iy * rk * pk, Na - iz * pk * qk
    uk, vk, wk = u + h * b3, v + h * b4, w + h * b5
    phk, thk, psk = ph + h * b6, th + h * b7, ps + h * b8
    pk, qk, rk = p + h * b9, q + h * b10, r + h * b11
    if abs(thk) >= GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {thk:.6f} rad reached the gimbal guard")
    cr, sr = cos(phk), sin(phk)
    cp, sp = cos(thk), sin(thk)
    cy, sy = cos(psk), sin(psk)
    v1 = cr * vk - sr * wk
    w1 = sr * vk + cr * wk
    u2 = cp * uk + sp * w1
    d0, d1, d2 = cy * u2 - sy * v1, sy * u2 + cy * v1, cp * w1 - sp * uk
    if forced:
        f1, f2, f3 = (cy * fx + sy * fy) / mt, (cy * fy - sy * fx) / mt, fz / mt
        ebx, f3 = cp * f1 - sp * f3, sp * f1 + cp * f3
        eby, ebz = cr * f2 + sr * f3, cr * f3 - sr * f2
    else:
        ebx = eby = ebz = 0.0
    gc = g * cp
    d3 = g * sp + fa1 - (qk * wk - rk * vk) + ebx
    d4 = -gc * sr + fa2 - (rk * uk - pk * wk) + eby
    d5 = -gc * cr + fa3 - (pk * vk - qk * uk) + at + ebz
    d8 = (sr * qk + cr * rk) / cp
    d6, d7 = pk + sp * d8, cr * qk - sr * rk
    d9, d10, d11 = ap - ix * qk * rk, aq - iy * rk * pk, Na - iz * pk * qk
    uk, vk, wk = u + dt * d3, v + dt * d4, w + dt * d5
    phk, thk, psk = ph + dt * d6, th + dt * d7, ps + dt * d8
    pk, qk, rk = p + dt * d9, q + dt * d10, r + dt * d11
    if abs(thk) >= GIMBAL_GUARD:
        raise GimbalLockError(f"pitch {thk:.6f} rad reached the gimbal guard")
    cr, sr = cos(phk), sin(phk)
    cp, sp = cos(thk), sin(thk)
    cy, sy = cos(psk), sin(psk)
    v1 = cr * vk - sr * wk
    w1 = sr * vk + cr * wk
    u2 = cp * uk + sp * w1
    e0, e1, e2 = cy * u2 - sy * v1, sy * u2 + cy * v1, cp * w1 - sp * uk
    if forced:
        f1, f2, f3 = (cy * fx + sy * fy) / mt, (cy * fy - sy * fx) / mt, fz / mt
        ebx, f3 = cp * f1 - sp * f3, sp * f1 + cp * f3
        eby, ebz = cr * f2 + sr * f3, cr * f3 - sr * f2
    else:
        ebx = eby = ebz = 0.0
    gc = g * cp
    e3 = g * sp + fa1 - (qk * wk - rk * vk) + ebx
    e4 = -gc * sr + fa2 - (rk * uk - pk * wk) + eby
    e5 = -gc * cr + fa3 - (pk * vk - qk * uk) + at + ebz
    e8 = (sr * qk + cr * rk) / cp
    e6, e7 = pk + sp * e8, cr * qk - sr * rk
    e9, e10, e11 = ap - ix * qk * rk, aq - iy * rk * pk, Na - iz * pk * qk
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
    dt: float = 1e-4,
) -> SimState:
    """One classical Runge-Kutta step of length dt (inputs held constant).

    dt must lie in (0, 5e-3]; larger steps under-resolve the closed-loop
    attitude modes. Raises DivergenceError on a non-finite result.
    """
    if not (0.0 < dt <= MAX_DT):
        raise ValueError(f"dt must be in (0, {MAX_DT}]; got {dt}")
    forcing = _forcing_of(p, w, unmodeled)
    out = rk4_packed(s.as_vector().tolist(), dt, forcing)
    if not all(map(math.isfinite, out)):
        raise DivergenceError("non-finite state after RK4 step")
    return SimState.from_vector(out)

