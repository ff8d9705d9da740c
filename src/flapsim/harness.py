"""Closed-loop scenario runner: sensor model, controller, physics, metrics.

A scenario couples an initial state, a setpoint schedule, optional
world-frame force pulses, and a sensor-noise model. The control loop runs
at a fixed rate with zero-order-hold commands; the physics integrates with
fixed-step RK4 using an integer number of substeps per control tick, so
the physics step always divides the control period exactly.

Unless a scenario sets ``physics_substeps``, the substep count is the
smallest whose step is at most ``PHYSICS_STEP`` (1/960 s: 4 substeps at
240 Hz). It is worked out from the current control rate whenever it is
read, so a scenario copied with another rate gets that rate's count.
That step keeps the bundled scenarios within 1e-8 m and 1e-6 rad of a
run at half the step; :func:`step_error` measures this by step doubling
for any scenario. A force pulse whose edge falls inside a substep acts
on that substep weighted by the fraction it covers.

Timing convention: the state is sampled (and logged) at the start of each
tick; the command computed from that sample is held through the tick.
The controller sees the state only through the mocap-style estimator
(``controller._sense``), lag included. Runs are deterministic for a
fixed seed; the log records one row per tick.

A tick runs on plain floats: the state is a list of 12 and the
controller's cores take and return tuples. Dataclasses stay at the edges,
the Scenario going in and the RunLog coming out.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from .controller import CircleSchedule, ConstantSchedule, CsvSchedule, Setpoint
from .controller import _decide as control_step  # bench/spans.py times this name
from .controller import _sense_truth as assemble_ctrl_state  # bench/spans.py times this name
from .dynamics import MAX_DT, SimState, _forcing, _plant
from .dynamics import rk4_packed as _rk4_packed  # bench/spans.py times this name
from .errors import ConfigError, DivergenceError, GimbalLockError, SchemaError
from .ioutil import atomic_write_text, table_text
from .kinematics import GIMBAL_GUARD, EulerAngles321
from .kinematics import (  # noqa: F401  bench/spans.py times these names
    euler_to_quat, euler_to_rotmat, quat_from_rotvec, quat_multiply,
)
from .lqr import CONTROL_RATE
from .vehicle import VehicleParams, hover_thrust

__all__ = [
    "NoiseConfig",
    "DisturbancePulse",
    "disturbance_pulse",
    "Scenario",
    "scenario_from_dict",
    "load_scenario",
    "RunLog",
    "RUNLOG_FIELDS",
    "RUNLOG_COLUMNS",
    "run_scenario",
    "PHYSICS_STEP",
    "default_substeps",
    "step_error",
    "RunMetrics",
    "metrics",
]

POSITION_GUARD = 10.0       # [m] abort radius
RATE_GUARD = 1e4            # [rad/s] abort body rate
PHYSICS_STEP = 1.0 / 960.0  # [s] largest default RK4 step, see default_substeps


def default_substeps(control_rate: float) -> int:
    """The smallest substep count whose step is at most ``PHYSICS_STEP``.

    A relative slack of 1e-9 keeps float rounding from adding a substep
    where the period is an exact multiple: 240 Hz gives 4, 100 Hz gives 10.
    """
    ratio = (1.0 / control_rate) / PHYSICS_STEP
    if not math.isfinite(ratio):
        raise ConfigError(f"control_rate {control_rate!r} is too small for a default step")
    return max(1, math.ceil(ratio * (1.0 - 1e-9)))


@dataclass(frozen=True)
class NoiseConfig:
    """Gaussian sensor noise, i.i.d. per axis per sample. Off by default."""

    enabled: bool = False
    pos_sigma: float = 0.5e-3            # [m]
    att_sigma: float = math.radians(0.2)  # [rad]

    def __post_init__(self) -> None:
        if not all(0.0 <= s < math.inf for s in (self.pos_sigma, self.att_sigma)):
            raise ConfigError("noise sigmas must be finite and non-negative")


def _noise_samples(noise: NoiseConfig, seed: int, n_ticks: int):
    """Row k: tick k's 3 position, then 3 attitude noise samples (None when off),
    drawn at once in the order per-tick ``normal(0, sigma, 3)`` pairs draw them."""
    if not noise.enabled:
        return None
    sigmas = [noise.pos_sigma] * 3 + [noise.att_sigma] * 3
    return np.random.default_rng(seed).normal(0.0, sigmas, (n_ticks, 6))


@dataclass(frozen=True)
class DisturbancePulse:
    """Constant world-frame force applied on [t_start, t_end)."""

    t_start: float
    t_end: float
    force_w: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.force_w, dtype=float).reshape(3)
        if not np.all(np.isfinite(f)):
            raise ConfigError("pulse force must be finite")
        if not self.t_end > self.t_start:
            raise ConfigError("pulse needs t_end > t_start")
        object.__setattr__(self, "force_w", f)

    def active(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


def disturbance_pulse(
    p: VehicleParams,
    magnitude_g: float,
    duration: float,
    direction_w,
    t_start: float = 0.0,
) -> DisturbancePulse:
    """Force pulse scaled in multiples of the vehicle's weight.

    A non-unit direction is normalized (with a warning); zero duration or
    magnitude is rejected.
    """
    if not magnitude_g > 0.0:
        raise ValueError("magnitude_g must be positive")
    if not duration > 0.0:
        raise ValueError("pulse duration must be positive")
    d = np.asarray(direction_w, dtype=float).reshape(3)
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise ValueError("direction must be a nonzero vector")
    if abs(n - 1.0) > 1e-9:
        warnings.warn("disturbance direction was not unit length; normalizing")
    d = d / n
    force = magnitude_g * p.g * p.total_mass * d
    return DisturbancePulse(t_start, t_start + duration, force)


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment definition."""

    name: str
    duration: float
    initial: SimState
    schedule: object                      # callable t -> Setpoint
    disturbances: tuple = ()
    noise: NoiseConfig = NoiseConfig()
    control_rate: float = CONTROL_RATE
    substeps: int | None = None   # None: default_substeps(control_rate); see physics_substeps
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.duration < math.inf:
            raise ConfigError("duration must be positive and finite")
        if not 0.0 < self.control_rate < math.inf:
            raise ConfigError("control_rate must be positive and finite")
        n = self.substeps
        if n is not None:
            if isinstance(n, bool) or int(n) != n or n < 1:
                raise ConfigError(f"physics_substeps must be a positive integer, got {n!r}")
            object.__setattr__(self, "substeps", int(n))
        seed = self.seed
        if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not callable(self.schedule):
            raise ConfigError("schedule must be callable t -> Setpoint")
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        for d in self.disturbances:
            if not isinstance(d, DisturbancePulse):
                raise ConfigError("disturbances must be DisturbancePulse entries")
        if self.dt > MAX_DT:
            raise ConfigError(
                f"physics step {self.dt:.3e} s exceeds the integrator limit {MAX_DT}"
            )

    @property
    def physics_substeps(self) -> int:
        """RK4 substeps per control tick: ``substeps``, or default_substeps(control_rate)."""
        return default_substeps(self.control_rate) if self.substeps is None else self.substeps

    @property
    def control_period(self) -> float:
        return 1.0 / self.control_rate

    @property
    def dt(self) -> float:
        return self.control_period / self.physics_substeps


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def _number(cfg: dict, key: str, where: str, default=None, integer: bool = False,
            finite: bool = True):
    """A real-number key: an int or a float, never a bool, a string or null.

    With ``integer`` it must also be integral (4.0, not 4.5) and comes back as an int.
    It must be finite unless ``finite`` is false (for a caller with its own check).
    """
    v = cfg.get(key, default)
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or integer and isinstance(v, float) and not v.is_integer()):
        kind = "an integer" if integer else "a number"
        raise SchemaError(f"{where}: {key} must be {kind}, got {v!r}")
    try:
        v = int(v) if integer else float(v)
    except OverflowError:  # an int beyond the float range
        raise SchemaError(f"{where}: {key} is out of range") from None
    if finite and not math.isfinite(v):
        raise SchemaError(f"{where}: {key} must be finite, got {v!r}")
    return v


def _triple(cfg: dict, key: str, where: str) -> np.ndarray:
    """A 3-vector key, zeros when absent; anything but 3 finite numbers is a SchemaError."""
    v = cfg.get(key, (0.0, 0.0, 0.0))
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (3,):
        raise SchemaError(f"{where}: {key} must be 3 numbers, got {v!r}")
    if not np.all(np.isfinite(a)):
        raise SchemaError(f"{where}: {key} must be finite, got {v!r}")
    return a


def _flag(cfg: dict, key: str, where: str) -> bool:
    """A boolean key; only YAML true/false, so a quoted "false" is an error."""
    v = cfg.get(key, False)
    if not isinstance(v, bool):
        raise SchemaError(f"{where}: {key} must be true or false, got {v!r}")
    return v


def _initial_from_dict(cfg: dict) -> SimState:
    _check_keys(cfg, {"pos", "vel_b", "euler", "euler_deg", "omega_b"}, "initial")
    if "euler" in cfg and "euler_deg" in cfg:
        raise SchemaError("initial: give euler or euler_deg, not both")
    if "euler" in cfg:
        eul = _triple(cfg, "euler", "initial").tolist()
    else:
        eul = [math.radians(v) for v in _triple(cfg, "euler_deg", "initial").tolist()]
    return SimState(_triple(cfg, "pos", "initial"), _triple(cfg, "vel_b", "initial"),
                    EulerAngles321(*eul), _triple(cfg, "omega_b", "initial"))


def _schedule_from_dict(cfg: dict, base_dir) -> object:
    kind = cfg.get("kind")
    if kind == "constant":
        _check_keys(cfg, {"kind", "pos", "vel"}, "setpoint")
        sp = Setpoint(_triple(cfg, "pos", "setpoint"), _triple(cfg, "vel", "setpoint"))
        return ConstantSchedule(sp)
    if kind == "circle":
        _check_keys(cfg, {"kind", "radius", "speed", "center"}, "setpoint")
        for key in ("radius", "speed"):
            if key not in cfg:
                raise SchemaError(f"setpoint: circle needs {key}")
        return CircleSchedule(_number(cfg, "radius", "setpoint"), _number(cfg, "speed", "setpoint"),
                              _triple(cfg, "center", "setpoint"))
    if kind == "schedule":
        _check_keys(cfg, {"kind", "path"}, "setpoint")
        if "path" not in cfg:
            raise SchemaError("setpoint: schedule needs a path")
        path = cfg["path"]
        if not isinstance(path, str):
            raise SchemaError(f"setpoint: path must be a string, got {path!r}")
        if base_dir is not None:
            path = os.path.join(os.fspath(base_dir), path)  # an absolute path replaces base_dir
        return CsvSchedule.from_csv(path)
    raise SchemaError(f"setpoint: unknown kind {kind!r} (constant | circle | schedule)")


def _noise_from_dict(cfg: dict) -> NoiseConfig:
    _check_keys(cfg, {"enabled", "pos_sigma", "att_sigma", "att_sigma_deg"}, "noise")
    if "att_sigma" in cfg and "att_sigma_deg" in cfg:
        raise SchemaError("noise: give att_sigma or att_sigma_deg, not both")
    if "att_sigma" in cfg:
        att = _number(cfg, "att_sigma", "noise")
    else:
        att = math.radians(_number(cfg, "att_sigma_deg", "noise", 0.2))
    return NoiseConfig(
        enabled=_flag(cfg, "enabled", "noise"),
        pos_sigma=_number(cfg, "pos_sigma", "noise", 0.5e-3),
        att_sigma=att,
    )


def _pulses_from_list(entries, p: VehicleParams) -> tuple:
    pulses = []
    for i, ent in enumerate(entries):
        where = f"disturbances[{i}]"
        if not isinstance(ent, dict):
            raise SchemaError(f"{where}: expected a mapping")
        _check_keys(ent, {"t_start", "duration", "magnitude_g", "direction", "force"}, where)
        if "t_start" not in ent or "duration" not in ent:
            raise SchemaError(f"{where}: needs t_start and duration")
        t0 = _number(ent, "t_start", where)
        dur = _number(ent, "duration", where)
        if "force" in ent:
            if "magnitude_g" in ent or "direction" in ent:
                raise SchemaError(f"{where}: give force or magnitude_g+direction, not both")
            if not dur > 0.0:
                raise SchemaError(f"{where}: duration must be positive")
            pulses.append(DisturbancePulse(t0, t0 + dur, _triple(ent, "force", where)))
        else:
            if "magnitude_g" not in ent or "direction" not in ent:
                raise SchemaError(f"{where}: needs magnitude_g and direction (or force)")
            direction = _triple(ent, "direction", where)
            magnitude = _number(ent, "magnitude_g", where)
            try:
                pulses.append(disturbance_pulse(p, magnitude, dur, direction, t0))
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
    return tuple(pulses)


_SCENARIO_KEYS = {
    "name", "duration", "seed", "control_rate", "physics_substeps",
    "initial", "setpoint", "noise", "disturbances",
}


def scenario_from_dict(cfg: dict, p: VehicleParams | None = None, base_dir=None) -> Scenario:
    """Build a Scenario from a parsed configuration mapping.

    ``p`` is needed only to scale g-unit disturbances (defaults to the
    built-in profile). Unknown keys anywhere are rejected.
    """
    from .vehicle import default_robofly_params

    if p is None:
        p = default_robofly_params()
    if not isinstance(cfg, dict):
        raise SchemaError("scenario: top level must be a mapping")
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    for req in ("name", "duration", "setpoint"):
        if req not in cfg:
            raise SchemaError(f"scenario: missing required key '{req}'")

    name = cfg["name"]  # the stem of the files written under --out
    if not isinstance(name, str) or name != os.path.basename(name) or name in ("", ".", ".."):
        raise SchemaError(f"scenario: name must be a bare file name, got {name!r}")
    control_rate = _number(cfg, "control_rate", "scenario", CONTROL_RATE, finite=False)
    if not 0.0 < control_rate < math.inf:
        raise SchemaError("scenario: control_rate must be positive and finite")
    # None: Scenario applies default_substeps
    substeps = (_number(cfg, "physics_substeps", "scenario", integer=True)
                if "physics_substeps" in cfg else None)

    initial_cfg = cfg.get("initial", {})
    if not isinstance(initial_cfg, dict):
        raise SchemaError("initial: expected a mapping")
    noise_cfg = cfg.get("noise", {})
    if not isinstance(noise_cfg, dict):
        raise SchemaError("noise: expected a mapping")
    setpoint_cfg = cfg.get("setpoint")
    if not isinstance(setpoint_cfg, dict):
        raise SchemaError("setpoint: expected a mapping")
    dist_cfg = cfg.get("disturbances", [])
    if not isinstance(dist_cfg, list):
        raise SchemaError("disturbances: expected a list")

    return Scenario(
        name=name,
        duration=_number(cfg, "duration", "scenario"),
        initial=_initial_from_dict(initial_cfg),
        schedule=_schedule_from_dict(setpoint_cfg, base_dir),
        disturbances=_pulses_from_list(dist_cfg, p),
        noise=_noise_from_dict(noise_cfg),
        control_rate=control_rate,
        substeps=substeps,
        seed=_number(cfg, "seed", "scenario", 0, integer=True),
    )


def load_scenario(path, p: VehicleParams | None = None) -> Scenario:
    """Parse a scenario file (YAML mapping; see scenario_from_dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(cfg, dict):
        raise SchemaError(f"{path}: scenario file must contain a mapping")
    try:
        return scenario_from_dict(cfg, p, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

# (RunLog field, its CSV columns), in file order: the one definition of the
# run-log layout, shared by the runner, RunLog.from_rows and the CSV writer
RUNLOG_FIELDS = (
    ("t", ("t",)),
    ("pos_w", ("x", "y", "z")),
    ("euler", ("roll", "pitch", "yaw")),
    ("vel_b", ("u", "v", "w")),
    ("omega_b", ("p", "q", "r")),
    ("sigma", ("sig_dx", "sig_dy", "sig_dz", "sig_u", "sig_v", "sig_w",
               "sig_phi", "sig_theta", "sig_p", "sig_q")),
    ("sp_pos", ("sp_x", "sp_y", "sp_z")),
    ("sp_vel", ("sp_vx", "sp_vy", "sp_vz")),
    ("cmd", ("cmd_A", "cmd_dA", "cmd_Vo")),
    ("wrench", ("thrust", "tau_r", "tau_p")),
    ("saturated", ("saturated",)),
)
RUNLOG_COLUMNS = tuple(col for _, cols in RUNLOG_FIELDS for col in cols)


@dataclass(frozen=True)
class RunLog:
    """Per-tick record of a scenario run (row k sampled at tick start)."""

    t: np.ndarray             # (n,)
    pos_w: np.ndarray         # (n, 3) truth
    euler: np.ndarray         # (n, 3) truth roll/pitch/yaw
    vel_b: np.ndarray         # (n, 3) truth body velocity
    omega_b: np.ndarray       # (n, 3) truth body rates
    sigma: np.ndarray         # (n, 10) controller estimate
    sp_pos: np.ndarray        # (n, 3)
    sp_vel: np.ndarray        # (n, 3)
    cmd: np.ndarray           # (n, 3) A, dA, Vo
    wrench: np.ndarray        # (n, 3) applied thrust, tau_r, tau_p
    saturated: np.ndarray     # (n,) 0/1
    scenario_name: str = ""
    seed: int | None = None
    control_rate: float = CONTROL_RATE
    final_state: SimState | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = len(self.t)
        if n == 0:
            raise ValueError("empty run log")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("log timestamps must be strictly increasing")

    @classmethod
    def from_rows(cls, rows, **meta) -> "RunLog":
        """Split an (n, 36) array laid out as RUNLOG_FIELDS into a RunLog.

        Every field gets its own copy; ``saturated`` becomes int64.
        ``meta`` passes the scalar fields (scenario_name, seed, ...).
        """
        fields, i = {}, 0
        for name, cols in RUNLOG_FIELDS:
            block = rows[:, i] if len(cols) == 1 else rows[:, i:i + len(cols)]
            fields[name] = np.array(block)
            i += len(cols)
        fields["saturated"] = fields["saturated"].astype(np.int64)
        return cls(**fields, **meta)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv_text(self) -> str:
        # saturated, the last column, is the integer one
        rows = np.column_stack([getattr(self, name) for name, _ in RUNLOG_FIELDS[:-1]]).tolist()
        for row, sat in zip(rows, self.saturated.astype(np.int64).tolist()):
            row.append(sat)
        return table_text(RUNLOG_COLUMNS, rows)

    def write_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _tripped_guard(y, k: int, t_end: float) -> str | None:
    """The sanity guard the state after tick k trips, as message text, or None."""
    if not all(map(math.isfinite, y)):
        return f"non-finite state after tick {k} (t={t_end:.4f} s)"
    if y[0] * y[0] + y[1] * y[1] + y[2] * y[2] > POSITION_GUARD**2:
        return f"position left the {POSITION_GUARD} m envelope after tick {k}"
    if max(abs(y[9]), abs(y[10]), abs(y[11])) > RATE_GUARD:
        return f"body rate exceeded {RATE_GUARD:g} rad/s after tick {k}"
    if abs(y[7]) >= GIMBAL_GUARD:
        return f"pitch {y[7]:.6f} rad reached the gimbal guard after tick {k}"
    return None


def run_scenario(sc: Scenario, p: VehicleParams, K) -> RunLog:
    """Run one closed-loop scenario to completion.

    Deterministic for a fixed seed. Aborts with :class:`DivergenceError`
    (carrying the partial log) if the state leaves the sanity envelope:
    position beyond 10 m, body rates beyond 1e4 rad/s, pitch at the gimbal
    guard, or a non-finite integrator result.
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (3, 10):
        raise ValueError(f"gain must be 3x10, got {K.shape}")

    n_ticks = int(round(sc.duration * sc.control_rate))
    if n_ticks < 1:
        raise ConfigError("duration shorter than one control period")
    T = sc.control_period
    dt = sc.dt
    substeps = sc.physics_substeps
    block = _noise_samples(sc.noise, sc.seed, n_ticks)

    plant = _plant(p)
    pulses = [(d.t_start, d.t_end, d.force_w.tolist()) for d in sc.disturbances]
    gain, hover = K.tolist(), hover_thrust(p)

    rows = np.empty((n_ticks, len(RUNLOG_COLUMNS)))  # laid out as RUNLOG_FIELDS
    meta = {"scenario_name": sc.name, "seed": sc.seed, "control_rate": sc.control_rate}

    y = sc.initial.as_vector().tolist()
    carry = None  # the previous sample, as controller._sense carries it

    for k in range(n_ticks):
        t_k = k * T

        # --- sense ---------------------------------------------------
        draws = None if block is None else block[k].tolist()
        try:
            est, sigma, carry = assemble_ctrl_state(y, carry, T, draws)
        except GimbalLockError as exc:
            # the measured attitude, noise included, can sit nearer 90 deg than the truth
            raise DivergenceError(
                f"{sc.name}: sensing aborted at tick {k} (t={t_k:.4f} s): {exc}",
                partial_log=RunLog.from_rows(rows[:k], **meta) if k else None,
            ) from exc

        # --- decide --------------------------------------------------
        sp = sc.schedule(t_k)
        sp_pos, sp_vel = sp.pos_w.tolist(), sp.vel_w.tolist()
        # A, dA, Vo, thrust, tau_r, tau_p, saturated
        out = control_step(gain, est, sp_pos, sp_vel, p, hover)

        # --- log ------------------------------------------------------
        rows[k] = (t_k, *y[0:3], *y[6:9], *y[3:6], *y[9:12], *sigma, *sp_pos, *sp_vel, *out)

        # --- integrate one control period ------------------------------
        wrench = out[3:6]
        forcing = _forcing(plant, *wrench)  # once per tick unless a pulse acts in it
        tick_pulses = [pl for pl in pulses if pl[0] < t_k + T and pl[1] > t_k] if pulses else ()
        try:
            for i in range(substeps):
                if tick_pulses:
                    t_sub = t_k + i * dt
                    fx = fy = fz = 0.0
                    for (t0, t1, f) in tick_pulses:
                        # the share of [t_sub, t_sub + dt) the pulse covers; an edge
                        # within 1e-9 dt of a substep boundary lies on it
                        share = (min(t1, t_sub + dt) - max(t0, t_sub)) / dt
                        if share >= 1.0 - 1e-9:
                            fx, fy, fz = fx + f[0], fy + f[1], fz + f[2]
                        elif share > 1e-9:
                            fx, fy, fz = fx + share * f[0], fy + share * f[1], fz + share * f[2]
                    forcing = _forcing(_plant(p, force_w=(fx, fy, fz)), *wrench)
                y = _rk4_packed(y, dt, forcing)
        except (ValueError, OverflowError) as exc:
            # gimbal guard or float overflow inside the integrator
            raise DivergenceError(
                f"{sc.name}: integration aborted during tick {k} (t={t_k:.4f} s): {exc}",
                partial_log=RunLog.from_rows(rows[:k + 1], **meta),
            ) from exc

        tripped = _tripped_guard(y, k, t_k + T)
        if tripped is not None:
            raise DivergenceError(f"{sc.name}: {tripped}",
                                  partial_log=RunLog.from_rows(rows[:k + 1], **meta))

    return RunLog.from_rows(rows, **meta, final_state=SimState.from_vector(y))


def step_error(sc: Scenario, p: VehicleParams, K, coarse: RunLog | None = None) -> tuple:
    """Step-doubling estimate of the physics step's error on one scenario.

    Runs ``sc`` at its substep count n and again at 2n and returns the
    largest difference over the logged ticks in position [m] and in
    attitude [rad], each Euler angle difference wrapped into [-pi, pi).
    For RK4 the n-substep run's own error is about 16/15 of these.
    ``coarse`` is the n-substep run's log when the caller has made that
    run already; then only the 2n run is made.
    """
    from dataclasses import replace

    if coarse is None:
        coarse = run_scenario(sc, p, K)
    fine = run_scenario(replace(sc, substeps=2 * sc.physics_substeps), p, K)
    d_pos = np.linalg.norm(coarse.pos_w - fine.pos_w, axis=1)
    d_att = np.remainder(coarse.euler - fine.euler + math.pi, 2.0 * math.pi) - math.pi
    return float(np.max(d_pos)), float(np.max(np.abs(d_att)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

SETTLE_RADIUS = 0.01  # [m]


@dataclass(frozen=True)
class RunMetrics:
    """Tracking summary of one run (all against the active setpoint)."""

    rms_pos_err: float        # [m], 3D
    rms_xy: float             # [m], horizontal only
    max_attitude: float       # [rad] peak tilt of body z from vertical
    max_body_speed: float     # [m/s]
    settling_time: float      # [s] from window start until |err| stays < 1 cm
    saturation_duty: float    # fraction of ticks with any channel clipped

    def to_text(self) -> str:
        settle = "never" if math.isinf(self.settling_time) else f"{self.settling_time:.3f} s"
        return "\n".join(
            [
                f"rms position error   : {self.rms_pos_err * 100:.3f} cm",
                f"rms xy error         : {self.rms_xy * 100:.3f} cm",
                f"max tilt             : {math.degrees(self.max_attitude):.2f} deg",
                f"max body speed       : {self.max_body_speed:.3f} m/s",
                f"settling (<1 cm)     : {settle}",
                f"saturation duty      : {self.saturation_duty * 100:.1f} %",
            ]
        )


def metrics(log: RunLog, window: tuple | None = None) -> RunMetrics:
    """Summarize a run over a time window (default: the whole log)."""
    t = log.t
    if window is None:
        mask = np.ones(len(t), dtype=bool)
        t0 = t[0]
    else:
        t0, t1 = (float(window[0]), float(window[1]))
        eps = 1e-12
        if t0 > t1 or t0 < t[0] - eps or t1 > t[-1] + eps:
            raise ValueError(
                f"window [{t0}, {t1}] not within the log span [{t[0]}, {t[-1]}]"
            )
        mask = (t >= t0 - eps) & (t <= t1 + eps)
        if not np.any(mask):
            raise ValueError("window contains no samples")

    err = log.sp_pos[mask] - log.pos_w[mask]
    err_sq = np.sum(err * err, axis=1)
    rms_pos = math.sqrt(float(np.mean(err_sq)))
    rms_xy = math.sqrt(float(np.mean(err[:, 0] ** 2 + err[:, 1] ** 2)))

    roll = log.euler[mask, 0]
    pitch = log.euler[mask, 1]
    tilt = np.arccos(np.clip(np.cos(roll) * np.cos(pitch), -1.0, 1.0))
    max_att = float(np.max(tilt))

    speed = np.linalg.norm(log.vel_b[mask], axis=1)
    max_speed = float(np.max(speed))

    dist = np.sqrt(err_sq)
    above = np.nonzero(dist >= SETTLE_RADIUS)[0]
    if len(above) == 0:
        settle = 0.0
    elif above[-1] == len(dist) - 1:
        settle = math.inf
    else:
        settle = float(t[mask][above[-1] + 1] - t0)

    duty = float(np.mean(log.saturated[mask]))
    return RunMetrics(rms_pos, rms_xy, max_att, max_speed, settle, duty)
