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
for any scenario. A force pulse's edge ends a step: a substep that holds
one is split there, each piece one RK4 step with its own forcing. A tick
that holds no edge takes its substeps as whole steps, with no per-substep
edge test.

Timing convention: the state is sampled (and logged) at the start of each
tick; the command computed from that sample is held through the tick.
The controller sees the state only through the mocap-style estimator
(``controller._sense``), lag included. Runs are deterministic for a
fixed seed; the log records one row per tick.

A tick runs on plain floats: the state is a list of 12, the schedule
returns the setpoint as two 3-tuples of floats, and the controller's
cores take and return tuples. What a run holds fixed is bound
before its first tick: the gain as lists, the actuator constants
(``vehicle._actuator``), the plant's constants (``dynamics._plant``) and
the sensor noise, drawn at once as lists. Dataclasses stay at the edges,
the Scenario going in and the RunLog coming out.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .controller import CircleSchedule, ConstantSchedule, CsvSchedule
from .controller import _decide as control_step  # bench/spans.py times this name
from .controller import _sense_truth as assemble_ctrl_state  # bench/spans.py times this name
from .dynamics import MAX_DT, SimState, _forcing, _plant
from .dynamics import rk4_packed as _rk4_packed  # bench/spans.py times this name
from .errors import ConfigError, DivergenceError, GimbalLockError, SchemaError
from .ioutil import atomic_write_text, read_yaml, table_text
from .kinematics import GIMBAL_GUARD, EulerAngles321, _rows, _vec3
from .kinematics import (  # noqa: F401  bench/spans.py times these names
    euler_to_quat, euler_to_rotmat, quat_from_rotvec, quat_multiply,
)
from .lqr import CONTROL_RATE
from .vehicle import VehicleParams, _actuator

__all__ = [
    "NoiseConfig",
    "DisturbancePulse",
    "disturbance_pulse",
    "Scenario",
    "SCENARIO_KEYS",
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
        object.__setattr__(self, "force_w", _vec3(self.force_w, "pulse force"))
        if not self.t_end > self.t_start:
            raise ConfigError("pulse needs t_end > t_start")


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
        raise ConfigError("magnitude_g must be positive")
    if not duration > 0.0:
        raise ConfigError("pulse duration must be positive")
    d = _vec3(direction_w, "direction")
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise ConfigError("direction must be a nonzero vector")
    if abs(n - 1.0) > 1e-9:
        warnings.warn("disturbance direction was not unit length; normalizing")
    d = d / n
    force = magnitude_g * p.g * p.total_mass * d
    return DisturbancePulse(t_start, t_start + duration, force)


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment definition.

    ``schedule`` is any callable t -> (pos_w, vel_w): the world-frame setpoint
    position [m] and velocity [m/s] at time t [s], two 3-tuples of floats.
    """

    name: str
    duration: float
    initial: SimState
    schedule: object                      # callable t -> (pos_w, vel_w)
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
        if self.duration * self.control_rate == math.inf:
            raise ConfigError(f"duration {self.duration!r} s at {self.control_rate!r} Hz "
                              "is too many control ticks to count")
        n = self.substeps
        if n is not None:
            try:
                bad = (isinstance(n, bool) or not isinstance(n, numbers.Real)
                       or not math.isfinite(n) or int(n) != n or n < 1)
            except OverflowError:  # an int beyond the float range
                raise ConfigError("physics_substeps is out of range") from None
            if bad:
                raise ConfigError(f"physics_substeps must be a positive integer, got {n!r}")
            object.__setattr__(self, "substeps", int(n))
        seed = self.seed
        if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not callable(self.schedule):
            raise ConfigError("schedule must be callable t -> (pos_w, vel_w)")
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


# The scenario file format, stated once: for each section (the top level,
# each mapping section, each pulse of disturbances and each setpoint kind)
# every key it may hold and the kind of value that key takes, a kind ending
# in "!" for a required key. _section reads every section by this table;
# README's Scenario YAML bullet lists exactly these keys, the required ones
# marked (tests/test_readme.py).
SCENARIO_KEYS = {
    "scenario": {"name": "stem!", "duration": "number!", "seed": "integer",
                 "control_rate": "number", "physics_substeps": "integer",
                 "initial": "mapping", "setpoint": "mapping!", "noise": "mapping",
                 "disturbances": "list"},
    "initial": {"pos": "vector", "vel_b": "vector", "euler": "vector", "omega_b": "vector"},
    "noise": {"enabled": "flag", "pos_sigma": "number", "att_sigma": "number"},
    "disturbances": {"t_start": "number!", "duration": "number!", "magnitude_g": "number!",
                     "direction": "vector!"},
    "constant": {"kind": "string!", "pos": "vector", "vel": "vector"},
    "circle": {"kind": "string!", "radius": "number!", "speed": "number!", "center": "vector"},
    "schedule": {"kind": "string!", "path": "string!"},
}
_ZERO = (0.0, 0.0, 0.0)  # an absent 3-vector


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# each scalar kind of SCENARIO_KEYS: (whether a value is of it, its name in a refusal)
_KINDS = {
    "number": (_is_real, "a number"),
    "integer": (lambda v: _is_real(v) and (isinstance(v, int) or v.is_integer()), "an integer"),
    "vector": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_real, v)),
               "3 numbers"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),  # a quoted "false" is not
    "string": (lambda v: isinstance(v, str), "a string"),
    "stem": (lambda v: isinstance(v, str) and v == os.path.basename(v) and v not in ("", ".", ".."),
             "a bare file name"),
}


def _value(kind: str, v, key: str, name: str):
    """``v`` read as a value of ``kind``, or SchemaError naming it ``name``.

    Numbers, also inside a 3-vector, must be finite; an integer comes back
    as an int, a 3-vector as a tuple of floats. A mapping, or a list of
    mappings, is refused by ``key``, the name of the section it holds.
    """
    if kind in ("mapping", "list"):
        if not isinstance(v, dict if kind == "mapping" else list):
            raise SchemaError(f"{key}: expected a {kind}")
        for i, ent in enumerate(v if kind == "list" else ()):
            if not isinstance(ent, dict):
                raise SchemaError(f"{key}[{i}]: expected a mapping")
        return v
    has, what = _KINDS[kind]
    if not has(v):
        raise SchemaError(f"{name} must be {what}, got {v!r}")
    if kind in ("flag", "string", "stem"):
        return v
    try:
        x = tuple(map(float, v)) if kind == "vector" else (float(v),)
    except OverflowError:  # an int beyond the float range
        raise SchemaError(f"{name} is out of range") from None
    if not all(map(math.isfinite, x)):
        raise SchemaError(f"{name} must be finite, got {v!r}")
    return x if kind == "vector" else int(v) if kind == "integer" else x[0]


def _section(cfg: dict, section: str, where: str) -> dict:
    """The keys ``cfg`` holds, each read as SCENARIO_KEYS[section] states its kind.

    Unknown keys, a missing required key and a value of the wrong kind raise
    SchemaError ``<where>: ...``; the keys are read in the table's order.
    """
    table = SCENARIO_KEYS[section]
    unknown = set(cfg) - set(table)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    out = {}
    for key, kind in table.items():
        if key in cfg:
            out[key] = _value(kind.rstrip("!"), cfg[key], key, f"{where}: {key}")
        elif kind.endswith("!"):
            raise SchemaError(f"{where}: missing required key '{key}'")
    return out


def _schedule_from_dict(cfg: dict, base_dir) -> object:
    """The schedule a ``setpoint`` mapping describes: a callable t -> (pos_w, vel_w),
    two 3-tuples of floats."""
    kind = cfg.get("kind")
    if kind not in ("constant", "circle", "schedule"):
        raise SchemaError(f"setpoint: unknown kind {kind!r} (constant | circle | schedule)")
    sp = _section(cfg, kind, "setpoint")
    try:
        if kind == "constant":
            return ConstantSchedule(sp.get("pos", _ZERO), sp.get("vel", _ZERO))
        if kind == "circle":
            return CircleSchedule(sp["radius"], sp["speed"], sp.get("center", _ZERO))
        # an absolute path replaces base_dir
        return CsvSchedule.from_csv(os.path.join(os.fspath(base_dir or ""), sp["path"]))
    except ConfigError as exc:
        raise type(exc)(f"setpoint: {exc}") from None


def scenario_from_dict(cfg: dict, p: VehicleParams | None = None, base_dir=None) -> Scenario:
    """Build a Scenario from a parsed configuration mapping.

    ``p`` is needed only to scale g-unit disturbances (defaults to the
    built-in profile). Every section is read by :data:`SCENARIO_KEYS`, so
    unknown keys anywhere are rejected.
    """
    from .vehicle import default_robofly_params

    if p is None:
        p = default_robofly_params()
    if not isinstance(cfg, dict):
        raise SchemaError("scenario: top level must be a mapping")
    top = _section(cfg, "scenario", "scenario")
    ini = _section(top.get("initial", {}), "initial", "initial")
    schedule = _schedule_from_dict(top["setpoint"], base_dir)
    pulses = []
    for i, ent in enumerate(top.get("disturbances", [])):
        where = f"disturbances[{i}]"
        d = _section(ent, "disturbances", where)
        try:
            pulses.append(disturbance_pulse(p, d["magnitude_g"], d["duration"], d["direction"],
                                            d["t_start"]))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
    return Scenario(
        name=top["name"],  # the stem of the files written under --out
        duration=top["duration"],
        initial=SimState(ini.get("pos", _ZERO), ini.get("vel_b", _ZERO),
                         EulerAngles321(*ini.get("euler", _ZERO)), ini.get("omega_b", _ZERO)),
        schedule=schedule,
        disturbances=pulses,
        noise=NoiseConfig(**_section(top.get("noise", {}), "noise", "noise")),
        control_rate=top.get("control_rate", CONTROL_RATE),
        substeps=top.get("physics_substeps"),  # None: Scenario applies default_substeps
        seed=top.get("seed", 0),
    )


def load_scenario(path, p: VehicleParams | None = None) -> Scenario:
    """Parse a scenario file (YAML mapping; see scenario_from_dict)."""
    cfg = read_yaml(path)
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
    final_state: SimState | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # non-finite rows are kept: a diverged run's partial log ends in one
        _rows("run log", self.t, *((getattr(self, n), len(c)) for n, c in RUNLOG_FIELDS[1:]))

    @classmethod
    def from_rows(cls, rows, final_state: SimState | None = None) -> "RunLog":
        """Split an (n, 36) array laid out as RUNLOG_FIELDS into a RunLog.

        Every field gets its own copy; ``saturated`` becomes int64.
        """
        fields, i = {}, 0
        for name, cols in RUNLOG_FIELDS:
            block = rows[:, i] if len(cols) == 1 else rows[:, i:i + len(cols)]
            fields[name] = np.array(block)
            i += len(cols)
        fields["saturated"] = fields["saturated"].astype(np.int64)
        return cls(**fields, final_state=final_state)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv_text(self) -> str:
        return table_text(RUNLOG_COLUMNS, *(getattr(self, name) for name, _ in RUNLOG_FIELDS))

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
    bad = np.argwhere(~np.isfinite(K))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"gain must be finite, got {float(K[i, j])} at K[{i}, {j}]")

    n_ticks = int(round(sc.duration * sc.control_rate))
    if n_ticks < 1:
        raise ConfigError("duration shorter than one control period")
    T = sc.control_period
    dt = sc.dt
    substeps = sc.physics_substeps
    block = _noise_samples(sc.noise, sc.seed, n_ticks)
    draws = None if block is None else block.tolist()

    sp = sc.schedule(0.0)  # checked once: two 3-sequences of finite floats
    try:
        ok = len(sp) == 2 and all(len(v) == 3 and all(map(math.isfinite, v)) for v in sp)
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"{sc.name}: schedule(0.0) gave {sp!r:.60}, not t -> (pos_w, vel_w)")
    plant, act, gain = _plant(p), _actuator(p), K.tolist()
    # the pulse edges in time order, each with the plant of the pulses active after it
    plants, edges = {(0.0, 0.0, 0.0): plant}, []  # one plant per distinct summed force
    for t_e in sorted({t for d in sc.disturbances for t in (d.t_start, d.t_end)}):
        on = [d.force_w.tolist() for d in sc.disturbances if d.t_start <= t_e < d.t_end]
        # added left to right, not by sum, which compensates float sums from Python 3.12
        f = tuple(reduce(add, axis) for axis in zip((0.0, 0.0, 0.0), *on))
        if f not in plants:
            plants[f] = _plant(p, force_w=f)
        edges.append((t_e, plants[f]))
    edges = iter(edges + [(math.inf, None)])
    t_next, after = next(edges)

    # a substep whose start is this far before the next edge holds none;
    # 1e-9 dt from a boundary is on it
    edge_free, last_start = dt - 1e-9 * dt, (substeps - 1) * dt

    rows = np.empty((n_ticks, len(RUNLOG_COLUMNS)))  # laid out as RUNLOG_FIELDS

    y = sc.initial.as_vector().tolist()
    carry = None  # the previous sample, as controller._sense carries it

    for k in range(n_ticks):
        t_k = k * T

        # --- sense ---------------------------------------------------
        try:
            est, carry = assemble_ctrl_state(y, carry, T, None if draws is None else draws[k])
        except GimbalLockError as exc:
            # the measured attitude, noise included, can sit nearer 90 deg than the truth
            raise DivergenceError(
                f"{sc.name}: sensing aborted at tick {k} (t={t_k:.4f} s): {exc}",
                partial_log=RunLog.from_rows(rows[:k]) if k else None,
            ) from exc

        # --- decide --------------------------------------------------
        sp_pos, sp_vel = sc.schedule(t_k) if k else sp  # tick 0's, checked above
        # A, dA, Vo, thrust, tau_r, tau_p, saturated
        out = control_step(gain, est, sp_pos, sp_vel, act)

        # --- log ------------------------------------------------------
        rows[k] = (t_k, *y[0:3], *y[6:9], *y[3:6], *y[9:12], *est[3], *sp_pos, *sp_vel, *out)

        # --- integrate one control period; a pulse edge ends a step ----
        wrench = out[3:6]
        forcing = _forcing(plant, *wrench)
        try:
            # substep starts only grow, so the last one decides for all whether
            # an edge lies inside one: dt - 0.0 is dt, the same step either way
            if t_next - (t_k + last_start) >= edge_free:
                for _ in range(substeps):
                    y = _rk4_packed(y, dt, forcing)
            else:
                for i in range(substeps):
                    t_sub, done = t_k + i * dt, 0.0  # done: how far y is into substep i
                    while t_next - t_sub < edge_free:
                        if t_next - t_sub > done + 1e-9 * dt:
                            y = _rk4_packed(y, t_next - t_sub - done, forcing)
                            done = t_next - t_sub
                        plant, (t_next, after) = after, next(edges)
                        forcing = _forcing(plant, *wrench)
                    y = _rk4_packed(y, dt - done, forcing)
        except (ValueError, OverflowError) as exc:
            # gimbal guard or float overflow inside the integrator
            raise DivergenceError(
                f"{sc.name}: integration aborted during tick {k} (t={t_k:.4f} s): {exc}",
                partial_log=RunLog.from_rows(rows[:k + 1]),
            ) from exc

        tripped = _tripped_guard(y, k, t_k + T)
        if tripped is not None:
            raise DivergenceError(f"{sc.name}: {tripped}",
                                  partial_log=RunLog.from_rows(rows[:k + 1]))

    return RunLog.from_rows(rows, final_state=SimState.from_vector(y))


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
