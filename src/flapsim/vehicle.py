"""Physical parameters and actuator model of the flapping-wing vehicle.

The piezo drive is abstracted by three affine fits mapping commanded signal
parameters to stroke-averaged wrench components:

* thrust:      Gamma = thrust_slope * A + thrust_intercept  (clamped at 0)
* roll torque: tau_r = roll_slope * dA     (amplitude split between wings)
* pitch torque: tau_p = pitch_slope * Vo   (common offset shift)

``A`` is the common drive amplitude in volts, ``dA`` the left/right amplitude
differential, ``Vo`` the shared sine offset. Commands saturate to a
box; saturation is reported, never silently ignored. The public maps
take and return the ``ActuatorCmd`` and ``Wrench`` records; the
``_``-prefixed cores do the same maps on plain floats for the control tick,
with the fits and the box read from the tuple ``_actuator`` builds once per
run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .ioutil import read_yaml

__all__ = [
    "VehicleParams",
    "ActuatorCmd",
    "Wrench",
    "default_robofly_params",
    "load_params",
    "cmd_to_wrench",
    "wrench_to_cmd",
    "hover_thrust",
]

BUILTIN_PROFILE = "robofly-150mg"


@dataclass(frozen=True)
class VehicleParams:
    """Mass/inertia properties, actuator fits, and command limits (SI units)."""

    m: float = 150e-6                # body mass [kg]
    m_M: float = 36e-6               # payload/marker mass [kg]
    J: tuple = (3.12e-9, 2.97e-9, 0.55e-9)   # diag inertia (Jxx, Jyy, Jzz) [kg m^2]
    thrust_slope: float = 3.27e-5    # [N/V]
    thrust_intercept: float = -0.0024  # [N]
    roll_slope: float = 0.48e-6      # [N m / V]
    pitch_slope: float = 0.11e-6     # [N m / V]
    g: float = 9.81                  # gravity [m/s^2]
    A_limits: tuple = (0.0, 250.0)   # common amplitude box [V]
    dA_limit: float = 40.0           # |dA| limit [V]
    Vo_limit: float = 60.0           # |Vo| limit [V]

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            for x in v if isinstance(v, (tuple, list, np.ndarray)) else (v,):
                if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                    raise ConfigError(f"{f.name} must hold only finite numbers, got {v!r}")
        if self.m <= 0 or self.m_M < 0:
            raise ConfigError("masses must be positive (m) / non-negative (m_M)")
        J = tuple(float(j) for j in self.J)
        if len(J) != 3 or any(j <= 0 for j in J):
            raise ConfigError("J must be three positive principal inertias")
        object.__setattr__(self, "J", J)
        if self.thrust_slope <= 0:
            raise ConfigError("thrust_slope must be positive")
        if self.roll_slope == 0 or self.pitch_slope == 0:
            raise ConfigError("torque slopes must be nonzero")
        A_limits = tuple(float(a) for a in self.A_limits)
        if len(A_limits) != 2 or not A_limits[0] < A_limits[1]:
            raise ConfigError("A_limits must be an increasing (lo, hi) pair")
        object.__setattr__(self, "A_limits", A_limits)
        if self.dA_limit <= 0 or self.Vo_limit <= 0:
            raise ConfigError("dA_limit and Vo_limit must be positive")
        if self.g <= 0:
            raise ConfigError("g must be positive")

    @property
    def total_mass(self) -> float:
        return self.m + self.m_M


@dataclass(frozen=True)
class ActuatorCmd:
    """Drive-signal command triple: amplitude A, differential dA, offset Vo [V]."""

    A: float
    dA: float
    Vo: float


@dataclass(frozen=True)
class Wrench:
    """Stroke-averaged thrust [N] and roll/pitch torques [N m], body frame."""

    thrust: float
    tau_r: float
    tau_p: float


def default_robofly_params() -> VehicleParams:
    """Built-in 150 mg vehicle profile ("robofly-150mg")."""
    return VehicleParams()


def hover_thrust(p: VehicleParams) -> float:
    """Weight of the full vehicle: thrust needed for a level hover [N]."""
    return p.total_mass * p.g


def _actuator(p: VehicleParams) -> tuple:
    """The actuator map's constants, worked out once per run: the hover
    thrust, the fits (thrust slope and intercept, roll and pitch slopes) and
    the command box (A low, A high, dA low, dA high, Vo low, Vo high)."""
    return (hover_thrust(p), p.thrust_slope, p.thrust_intercept, p.roll_slope, p.pitch_slope,
            *p.A_limits, -p.dA_limit, p.dA_limit, -p.Vo_limit, p.Vo_limit)


def _cmd_to_wrench(act: tuple, A: float, dA: float, Vo: float) -> tuple:
    """(thrust, tau_r, tau_p) of a command under :func:`_actuator`'s fits."""
    _, ts, ti, rs, ps, _, _, _, _, _, _ = act
    thrust = ts * A + ti
    return thrust if thrust > 0.0 else 0.0, rs * dA, ps * Vo


def _wrench_to_cmd(act: tuple, thrust: float, tau_r: float, tau_p: float) -> tuple:
    """(A, dA, Vo, saturated): :func:`_actuator`'s fits inverted, then clipped to its box."""
    _, ts, ti, rs, ps, a_lo, a_hi, da_lo, da_hi, vo_lo, vo_hi = act
    A, dA, Vo = (thrust - ti) / ts, tau_r / rs, tau_p / ps
    # min(max(x, lo), hi), without the builtin calls
    a = a_lo if A < a_lo else a_hi if A > a_hi else A
    da = da_lo if dA < da_lo else da_hi if dA > da_hi else dA
    vo = vo_lo if Vo < vo_lo else vo_hi if Vo > vo_hi else Vo
    return a, da, vo, (a != A) or (da != dA) or (vo != Vo)


def cmd_to_wrench(p: VehicleParams, c: ActuatorCmd) -> Wrench:
    """Affine fits from command to body wrench; thrust clamps at zero."""
    return Wrench(*_cmd_to_wrench(_actuator(p), c.A, c.dA, c.Vo))


def wrench_to_cmd(p: VehicleParams, w: Wrench) -> tuple[ActuatorCmd, bool]:
    """Invert the fits, then saturate to the command box.

    Returns the (possibly saturated) command and a flag that is True when
    any axis hit a limit. Exact inverse of :func:`cmd_to_wrench` on the
    interior of the box.
    """
    *cmd, saturated = _wrench_to_cmd(_actuator(p), w.thrust, w.tau_r, w.tau_p)
    return ActuatorCmd(*cmd), saturated


# ---------------------------------------------------------------------------
# parameter file I/O (flat YAML mapping, SI units, keys = field names)
# ---------------------------------------------------------------------------

def load_params(source: str) -> VehicleParams:
    """Load parameters from a YAML file path or a built-in profile name."""
    if source == BUILTIN_PROFILE:
        return default_robofly_params()
    try:
        data = read_yaml(source)
    except FileNotFoundError:
        raise ConfigError(
            f"no such parameter file or profile: {source!r} "
            f"(built-in profile: {BUILTIN_PROFILE!r})"
        ) from None
    known = {f.name for f in fields(VehicleParams)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown parameter keys {sorted(unknown, key=str)}")
    try:
        return replace(default_robofly_params(), **data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter value in {source!r}: {exc}") from exc

