"""Offline trajectory processing: mocap ingest, state reconstruction,
model validation, body-offset estimation, and flight-envelope statistics.

The reconstruction chain mirrors how flight data is reduced in practice:
pose samples (position + quaternion, nominally 240 Hz) are zero-phase
low-pass filtered, differentiated with central differences, and mapped
into body-frame velocities, rates, and accelerations. The measured
accelerations are time derivatives of the body-frame component series,
which makes them directly comparable with the rigid-body model's
``state_derivative`` output for the same states and inputs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SchemaError
from .ioutil import atomic_write_text, fmt
from .kinematics import (
    Quaternion,
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotvec,
    rotmat_to_euler,
)
from .vehicle import VehicleParams, Wrench, ActuatorCmd, cmd_to_wrench
from .dynamics import SimState, state_derivative
from .harness import RunLog, RUNLOG_COLUMNS

__all__ = [
    "MocapTrajectory",
    "load_mocap_csv",
    "write_mocap_csv",
    "trajectory_from_runlog",
    "load_runlog_csv",
    "load_command_csv",
    "FilterConfig",
    "ReconstructedStates",
    "reconstruct",
    "reconstruct_runlog",
    "BodyOffset",
    "estimate_body_offset",
    "ValidationReport",
    "validate_model",
    "EnvelopeGrid",
    "flight_envelope",
]

MOCAP_COLUMNS = ("t", "x", "y", "z", "qw", "qx", "qy", "qz")
COMMAND_COLUMNS = ("t", "A", "dA", "Vo")
ACCEL_AXES = ("u_dot", "v_dot", "w_dot", "p_dot", "q_dot", "r_dot")
GAP_FACTOR = 2.0          # dt > GAP_FACTOR * median dt counts as a gap
MAX_OFFSET_TILT = math.radians(30.0)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MocapTrajectory:
    """Raw pose samples: world position + body-to-world quaternion."""

    t: np.ndarray            # (n,)
    pos_w: np.ndarray        # (n, 3)
    quat: np.ndarray         # (n, 4) scalar-first, canonicalized w >= 0
    source: str = ""
    marker_mass: float = 0.0
    sample_rate: float = field(init=False)
    gap_indices: tuple = field(init=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float).reshape(-1)
        pos = np.asarray(self.pos_w, dtype=float).reshape(-1, 3)
        quat = np.asarray(self.quat, dtype=float).reshape(-1, 4)
        if len(t) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if not (len(t) == len(pos) == len(quat)):
            raise ValueError("t, pos_w, quat lengths differ")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(pos)) and np.all(np.isfinite(quat))):
            raise ValueError("trajectory contains non-finite values")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            i = int(np.nonzero(dt <= 0.0)[0][0])
            raise ValueError(f"timestamps not strictly increasing at sample {i + 1}")
        norms = np.linalg.norm(quat, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > 1e-3)[0]
        if len(bad):
            raise ValueError(
                f"quaternion at sample {int(bad[0])} is not unit "
                f"(|q| = {norms[bad[0]]:.6f})"
            )
        quat = quat / norms[:, None]
        flip = quat[:, 0] < 0.0
        quat[flip] *= -1.0
        med = float(np.median(dt))
        gaps = tuple(int(i) for i in np.nonzero(dt > GAP_FACTOR * med)[0])
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "pos_w", pos)
        object.__setattr__(self, "quat", quat)
        object.__setattr__(self, "sample_rate", 1.0 / med)
        object.__setattr__(self, "gap_indices", gaps)

    def __len__(self) -> int:
        return len(self.t)


def _parse_float_row(parts, n_cols, path, lineno):
    if len(parts) != n_cols:
        raise SchemaError(
            f"{path}:{lineno}: expected {n_cols} columns, got {len(parts)}"
        )
    try:
        return [float(v) for v in parts]
    except ValueError as exc:
        raise SchemaError(f"{path}:{lineno}: {exc}") from None


def load_mocap_csv(path, source: str | None = None) -> MocapTrajectory:
    """Read a pose CSV with header ``t,x,y,z,qw,qx,qy,qz``.

    A scalar-last header (``...,qx,qy,qz,qw``) is accepted and reordered.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header == MOCAP_COLUMNS:
        order = (4, 5, 6, 7)
    elif header == ("t", "x", "y", "z", "qx", "qy", "qz", "qw"):
        order = (7, 4, 5, 6)
    else:
        raise SchemaError(
            f"{path}:1: header {','.join(header)!r} does not match "
            f"{','.join(MOCAP_COLUMNS)!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows.append(_parse_float_row(line.split(","), 8, path, lineno))
    if len(rows) < 2:
        raise SchemaError(f"{path}: needs at least 2 data rows")
    arr = np.asarray(rows)
    try:
        return MocapTrajectory(
            arr[:, 0], arr[:, 1:4], arr[:, list(order)],
            source=str(path) if source is None else source,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def write_mocap_csv(path, tr: MocapTrajectory) -> None:
    buf = io.StringIO()
    buf.write(",".join(MOCAP_COLUMNS) + "\n")
    for i in range(len(tr)):
        vals = [fmt(tr.t[i]), *(fmt(v) for v in tr.pos_w[i]), *(fmt(v) for v in tr.quat[i])]
        buf.write(",".join(vals) + "\n")
    atomic_write_text(path, buf.getvalue())


def trajectory_from_runlog(log: RunLog) -> MocapTrajectory:
    """Treat a simulator log's truth pose series as ideal mocap samples."""
    from .kinematics import EulerAngles321, euler_to_quat

    quat = np.empty((len(log), 4))
    for i in range(len(log)):
        q = euler_to_quat(EulerAngles321(*log.euler[i])).canonical()
        quat[i] = (q.w, q.x, q.y, q.z)
    return MocapTrajectory(log.t, log.pos_w, quat, source=log.scenario_name or "runlog")


def load_runlog_csv(path) -> RunLog:
    """Read back a RunLog CSV (header must match the documented order)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != RUNLOG_COLUMNS:
        raise SchemaError(f"{path}:1: header does not match the run-log column order")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows.append(_parse_float_row(line.split(","), len(RUNLOG_COLUMNS), path, lineno))
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    a = np.asarray(rows)
    dt = np.diff(a[:, 0])
    if len(dt) and np.any(dt <= 0):
        raise SchemaError(f"{path}: timestamps not strictly increasing")
    # a one-row log keeps RunLog's default rate
    meta = {"control_rate": 1.0 / float(np.median(dt))} if len(dt) else {}
    try:
        return RunLog.from_rows(a, **meta)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def load_command_csv(path):
    """Read an actuator-command CSV (t, A, dA, Vo) -> (t, cmds (n,3))."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != COMMAND_COLUMNS:
        raise SchemaError(
            f"{path}:1: header {','.join(header)!r} does not match "
            f"{','.join(COMMAND_COLUMNS)!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows.append(_parse_float_row(line.split(","), 4, path, lineno))
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    a = np.asarray(rows)
    if np.any(np.diff(a[:, 0]) <= 0):
        raise SchemaError(f"{path}: timestamps not strictly increasing")
    return a[:, 0], a[:, 1:4]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FilterConfig:
    """Zero-phase low-pass applied to positions and quaternion components."""

    cutoff_hz: float = 20.0
    order: int = 2
    enabled: bool = True
    edge_margin: int | None = None   # samples trimmed per end; None = auto

    def __post_init__(self) -> None:
        if self.enabled and not self.cutoff_hz > 0.0:
            raise ConfigError("filter cutoff must be positive")
        if self.order < 1:
            raise ConfigError("filter order must be >= 1")
        if self.edge_margin is not None and self.edge_margin < 0:
            raise ConfigError("edge_margin must be >= 0")

    def margin_for(self, fs: float) -> int:
        if self.edge_margin is not None:
            return int(self.edge_margin)
        # forward-backward transients decay over a few filter time constants;
        # two cutoff periods of samples is comfortably past them (the small
        # slack keeps rates inferred from stored timestamps off bin edges)
        return max(8, int(math.ceil(2.0 * fs / self.cutoff_hz - 1e-6)))


@dataclass(frozen=True)
class ReconstructedStates:
    """Filtered, differentiated flight states (margins already trimmed)."""

    t: np.ndarray
    pos_w: np.ndarray
    quat: np.ndarray         # (n, 4) hemisphere-continuous
    euler: np.ndarray        # (n, 3) roll, pitch, yaw
    vel_w: np.ndarray
    vel_b: np.ndarray
    omega_b: np.ndarray
    accel_w: np.ndarray
    accel_body: np.ndarray   # d/dt of vel_b components
    alpha_body: np.ndarray   # d/dt of omega_b components
    cmd: np.ndarray | None = None      # (n, 3) A, dA, Vo if attached
    wrench: np.ndarray | None = None   # (n, 3) thrust, tau_r, tau_p

    def __len__(self) -> int:
        return len(self.t)

    def attach_wrench(self, t_src, wrench_src) -> "ReconstructedStates":
        """Attach zero-order-hold wrench samples aligned to this time base."""
        t_src = np.asarray(t_src, dtype=float).reshape(-1)
        w = np.asarray(wrench_src, dtype=float).reshape(-1, 3)
        if len(t_src) != len(w) or len(t_src) == 0:
            raise ValueError("wrench series is empty or mismatched")
        idx = np.clip(np.searchsorted(t_src, self.t, side="right") - 1, 0, len(t_src) - 1)
        return replace(self, wrench=w[idx])

    def attach_commands(self, t_src, cmd_src, p: VehicleParams) -> "ReconstructedStates":
        """Attach actuator commands and their wrench image (ZOH aligned)."""
        t_src = np.asarray(t_src, dtype=float).reshape(-1)
        c = np.asarray(cmd_src, dtype=float).reshape(-1, 3)
        if len(t_src) != len(c) or len(t_src) == 0:
            raise ValueError("command series is empty or mismatched")
        idx = np.clip(np.searchsorted(t_src, self.t, side="right") - 1, 0, len(t_src) - 1)
        cmds = c[idx]
        wr = np.empty_like(cmds)
        for i, (A, dA, Vo) in enumerate(cmds):
            w = cmd_to_wrench(p, ActuatorCmd(A, dA, Vo))
            wr[i] = (w.thrust, w.tau_r, w.tau_p)
        return replace(self, cmd=cmds, wrench=wr)


def _stitch_hemisphere(quat: np.ndarray) -> np.ndarray:
    """Flip signs so consecutive quaternions sit on the same hemisphere."""
    out = quat.copy()
    for i in range(1, len(out)):
        if np.dot(out[i - 1], out[i]) < 0.0:
            out[i] *= -1.0
    return out


def _quat_rates(t: np.ndarray, quat: np.ndarray) -> np.ndarray:
    """Body rates from relative-rotation differencing (central in time)."""
    n = len(t)
    om = np.empty((n, 3))

    def rate(i0, i1):
        qa = Quaternion(*quat[i0])
        qb = Quaternion(*quat[i1])
        dq = quat_multiply(qa.conjugate(), qb)
        if dq.w < 0.0:
            dq = Quaternion(-dq.w, -dq.x, -dq.y, -dq.z)
        return quat_to_rotvec(dq.normalized()) / (t[i1] - t[i0])

    om[0] = rate(0, 1)
    om[-1] = rate(n - 2, n - 1)
    for i in range(1, n - 1):
        om[i] = rate(i - 1, i + 1)
    return om


def reconstruct(tr: MocapTrajectory, cfg: FilterConfig | None = None) -> ReconstructedStates:
    """Differentiate a pose trajectory into body-frame flight states.

    Positions and quaternion components are zero-phase filtered, world
    velocity/acceleration come from central differences, body rates from
    quaternion differencing, and the body accelerations are derivatives
    of the body-frame component series. Edge samples contaminated by
    filter transients and one-sided differences are trimmed.
    """
    if cfg is None:
        cfg = FilterConfig()
    n = len(tr)
    if n < 9:
        raise ValueError(f"trajectory too short to reconstruct ({n} < 9 samples)")
    if tr.gap_indices:
        i = tr.gap_indices[0]
        raise ValueError(
            f"trajectory has a timing gap at sample {i} "
            f"(dt = {tr.t[i + 1] - tr.t[i]:.4f} s at {tr.sample_rate:.0f} Hz)"
        )
    fs = tr.sample_rate
    t = tr.t

    quat = _stitch_hemisphere(tr.quat)
    pos = tr.pos_w
    if cfg.enabled:
        if cfg.cutoff_hz >= 0.5 * fs:
            raise ConfigError(
                f"cutoff {cfg.cutoff_hz:g} Hz is not below Nyquist ({0.5 * fs:g} Hz)"
            )
        from scipy.signal import butter, filtfilt  # deferred: slow to import, only needed here
        b, a = butter(cfg.order, cfg.cutoff_hz / (0.5 * fs))
        padlen = min(3 * max(len(a), len(b)), n - 1)
        pos = filtfilt(b, a, pos, axis=0, padlen=padlen)
        quat = filtfilt(b, a, quat, axis=0, padlen=padlen)
        quat = quat / np.linalg.norm(quat, axis=1)[:, None]

    vel_w = np.gradient(pos, t, axis=0)
    accel_w = np.gradient(vel_w, t, axis=0)

    vel_b = np.empty_like(vel_w)
    euler = np.empty((n, 3))
    for i in range(n):
        R = quat_to_rotmat(Quaternion(*quat[i]))
        vel_b[i] = R.T @ vel_w[i]
        e = rotmat_to_euler(R)
        euler[i] = (e.roll, e.pitch, e.yaw)

    omega_b = _quat_rates(t, quat)
    accel_body = np.gradient(vel_b, t, axis=0)
    alpha_body = np.gradient(omega_b, t, axis=0)

    m = cfg.margin_for(fs) if cfg.enabled else 2
    if n - 2 * m < 3:
        m = max(0, (n - 3) // 2)
    sl = slice(m, n - m if m else n)
    return ReconstructedStates(
        t=t[sl].copy(),
        pos_w=pos[sl].copy(),
        quat=quat[sl].copy(),
        euler=euler[sl].copy(),
        vel_w=vel_w[sl].copy(),
        vel_b=vel_b[sl].copy(),
        omega_b=omega_b[sl].copy(),
        accel_w=accel_w[sl].copy(),
        accel_body=accel_body[sl].copy(),
        alpha_body=alpha_body[sl].copy(),
    )


def reconstruct_runlog(
    log: RunLog, cfg: FilterConfig | None = None
) -> ReconstructedStates:
    """Reconstruct from a simulator log and attach its recorded wrench."""
    rs = reconstruct(trajectory_from_runlog(log), cfg)
    return rs.attach_wrench(log.t, log.wrench)


# ---------------------------------------------------------------------------
# body-offset estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BodyOffset:
    """Rotation taking the recorded body z-axis onto the thrust direction."""

    rotation: np.ndarray     # (3, 3), body frame correction
    tilt: float              # [rad] misalignment angle

    def __post_init__(self) -> None:
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9) or not math.isclose(
            float(np.linalg.det(R)), 1.0, abs_tol=1e-9
        ):
            raise ValueError("offset rotation is not a proper rotation")
        object.__setattr__(self, "rotation", R)


def estimate_body_offset(
    tr: MocapTrajectory,
    takeoff_window: tuple,
    cfg: FilterConfig | None = None,
    g: float = 9.81,
) -> BodyOffset:
    """Estimate the thrust-axis misalignment from a short trimmed takeoff.

    Over the window, mean(world acceleration) + g*z_hat points along the
    mean thrust direction; expressing that direction in the recorded body
    frame and comparing with the body z-axis gives the minimal rotation
    correcting the marker-defined frame. Windows with net specific force
    below 0.2 g (e.g. hover) or implied tilts of 30 deg or more are
    rejected as unusable trim flights.
    """
    rs = reconstruct(tr, cfg)
    t0, t1 = float(takeoff_window[0]), float(takeoff_window[1])
    if not t1 > t0:
        raise ValueError("takeoff window must have positive length")
    mask = (rs.t >= t0) & (rs.t <= t1)
    if not np.any(mask):
        raise ValueError(
            f"takeoff window [{t0}, {t1}] has no overlap with the usable "
            f"trajectory span [{rs.t[0]:.3f}, {rs.t[-1]:.3f}]"
        )
    a_mean = np.mean(rs.accel_w[mask], axis=0)
    a_norm = float(np.linalg.norm(a_mean))
    if a_norm < 0.2 * g:
        raise ValueError(
            f"net specific force beyond hover is {a_norm:.3f} m/s^2 (< 0.2 g); "
            "window looks like hover/rest, not a powered takeoff"
        )
    f_w = a_mean + np.array([0.0, 0.0, g])
    f_norm = float(np.linalg.norm(f_w))
    if f_norm < 0.05 * g:
        raise ValueError(
            "thrust direction unobservable (free-fall window: specific force near zero)"
        )
    t_dir_w = f_w / f_norm

    # average the thrust direction seen from the recorded body frame
    acc = np.zeros(3)
    for i in np.nonzero(mask)[0]:
        R = quat_to_rotmat(Quaternion(*rs.quat[i]))
        acc += R.T @ t_dir_w
    t_dir_b = acc / np.linalg.norm(acc)

    axis = np.cross([0.0, 0.0, 1.0], t_dir_b)
    s = float(np.linalg.norm(axis))
    tilt = math.atan2(s, float(t_dir_b[2]))
    if tilt >= MAX_OFFSET_TILT:
        raise ValueError(
            f"estimated tilt {math.degrees(tilt):.1f} deg exceeds 30 deg; "
            "trim flight unusable"
        )
    if s < 1e-12:
        rotation = np.eye(3)
    else:
        rotation = quat_to_rotmat(quat_from_rotvec(axis / s * tilt))
    return BodyOffset(rotation, tilt)


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    """Measured vs model-predicted accelerations, per axis."""

    axes: tuple
    rms_error: np.ndarray     # (6,)
    signal_rms: np.ndarray    # (6,)
    t: np.ndarray             # (n,)
    measured: np.ndarray      # (n, 6)
    predicted: np.ndarray     # (n, 6)

    @property
    def ratio(self) -> np.ndarray:
        floor = np.maximum(self.signal_rms, 1e-12)
        return self.rms_error / floor

    def to_text(self) -> str:
        lines = ["axis       rms error      signal rms     error/signal"]
        for i, ax in enumerate(self.axes):
            lines.append(
                f"{ax:<8s} {self.rms_error[i]:>12.6g} {self.signal_rms[i]:>14.6g}"
                f" {self.ratio[i]:>14.4%}"
            )
        return "\n".join(lines)

    def write_series_csv(self, path) -> None:
        buf = io.StringIO()
        cols = ["t"]
        for ax in self.axes:
            cols += [f"meas_{ax}", f"pred_{ax}"]
        buf.write(",".join(cols) + "\n")
        for k in range(len(self.t)):
            vals = [fmt(self.t[k])]
            for i in range(len(self.axes)):
                vals += [fmt(self.measured[k, i]), fmt(self.predicted[k, i])]
            buf.write(",".join(vals) + "\n")
        atomic_write_text(path, buf.getvalue())


def validate_model(
    rs: ReconstructedStates,
    p: VehicleParams,
    window: tuple | None = None,
    legacy_coriolis: bool = False,
) -> ValidationReport:
    """Compare measured accelerations against the stroke-averaged model.

    The model is evaluated with the recorded wrench and zero unmodeled
    force/moment, so the report directly quantifies how much of the
    measured acceleration the rigid-body + actuator-fit model explains.
    """
    if rs.wrench is None:
        raise ValueError("no command/wrench channel attached; cannot validate")
    if len(rs) == 0:
        raise ValueError("empty reconstruction")
    if window is None:
        idx = np.arange(len(rs))
    else:
        t0, t1 = float(window[0]), float(window[1])
        idx = np.nonzero((rs.t >= t0) & (rs.t <= t1))[0]
        if len(idx) == 0:
            raise ValueError("validation window contains no samples")

    from .kinematics import EulerAngles321

    meas = np.empty((len(idx), 6))
    pred = np.empty((len(idx), 6))
    for row, i in enumerate(idx):
        meas[row, 0:3] = rs.accel_body[i]
        meas[row, 3:6] = rs.alpha_body[i]
        s = SimState(
            rs.pos_w[i],
            rs.vel_b[i],
            EulerAngles321(*rs.euler[i]),
            rs.omega_b[i],
        )
        w = Wrench(max(0.0, rs.wrench[i, 0]), rs.wrench[i, 1], rs.wrench[i, 2])
        ydot = state_derivative(p, s, w, legacy_coriolis=legacy_coriolis)
        pred[row, 0:3] = ydot[3:6]
        pred[row, 3:6] = ydot[9:12]

    err = meas - pred
    return ValidationReport(
        axes=ACCEL_AXES,
        rms_error=np.sqrt(np.mean(err**2, axis=0)),
        signal_rms=np.sqrt(np.mean(meas**2, axis=0)),
        t=rs.t[idx].copy(),
        measured=meas,
        predicted=pred,
    )


# ---------------------------------------------------------------------------
# flight envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeGrid:
    """2D visit-count histogram over (tilt angle, body speed)."""

    tilt_edges_deg: np.ndarray
    speed_edges: np.ndarray
    counts: np.ndarray        # (n_tilt_bins, n_speed_bins) int

    def total(self) -> int:
        return int(np.sum(self.counts))

    def merge(self, other: "EnvelopeGrid") -> "EnvelopeGrid":
        if not (
            np.array_equal(self.tilt_edges_deg, other.tilt_edges_deg)
            and np.array_equal(self.speed_edges, other.speed_edges)
        ):
            raise ValueError("cannot merge envelope grids with different edges")
        return EnvelopeGrid(self.tilt_edges_deg, self.speed_edges, self.counts + other.counts)

    def write_csv(self, path) -> None:
        buf = io.StringIO()
        buf.write("tilt_lo_deg,tilt_hi_deg,speed_lo,speed_hi,count\n")
        te, se = self.tilt_edges_deg, self.speed_edges
        for i in range(len(te) - 1):
            for j in range(len(se) - 1):
                buf.write(
                    f"{fmt(te[i])},{fmt(te[i + 1])},{fmt(se[j])},{fmt(se[j + 1])},"
                    f"{int(self.counts[i, j])}\n"
                )
        atomic_write_text(path, buf.getvalue())


def flight_envelope(
    rs: ReconstructedStates,
    tilt_edges_deg=None,
    speed_edges=None,
    speed_mode: str = "total",
) -> EnvelopeGrid:
    """Histogram visited (tilt, speed) pairs.

    Tilt is the angle between the body z-axis and world vertical; speed is
    |V_b| ("total") or |(u, v)| ("horizontal"). Samples beyond the outer
    edges are clipped into the boundary bins so the histogram mass always
    equals the sample count.
    """
    if len(rs) == 0:
        raise ValueError("empty reconstruction")
    if speed_mode not in ("total", "horizontal"):
        raise ValueError("speed_mode must be 'total' or 'horizontal'")
    te = np.linspace(0.0, 60.0, 13) if tilt_edges_deg is None else np.asarray(tilt_edges_deg, dtype=float)
    se = np.linspace(0.0, 0.8, 17) if speed_edges is None else np.asarray(speed_edges, dtype=float)
    if len(te) < 2 or len(se) < 2 or np.any(np.diff(te) <= 0) or np.any(np.diff(se) <= 0):
        raise ValueError("histogram edges must be increasing with >= 2 entries")

    # body z in world coordinates is the third column of R; its z component
    # is cos(tilt) regardless of yaw
    cz = np.empty(len(rs))
    for i in range(len(rs)):
        R = quat_to_rotmat(Quaternion(*rs.quat[i]))
        cz[i] = R[2, 2]
    tilt = np.degrees(np.arccos(np.clip(cz, -1.0, 1.0)))
    if speed_mode == "total":
        speed = np.linalg.norm(rs.vel_b, axis=1)
    else:
        speed = np.linalg.norm(rs.vel_b[:, 0:2], axis=1)

    tilt = np.clip(tilt, te[0], te[-1])
    speed = np.clip(speed, se[0], se[-1])
    counts, _, _ = np.histogram2d(tilt, speed, bins=(te, se))
    return EnvelopeGrid(te, se, counts.astype(np.int64))
