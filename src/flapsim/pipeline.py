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

import decimal
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, GimbalLockError, SchemaError
from .ioutil import atomic_write_text, read_table, table_text
from .kinematics import GIMBAL_GUARD, _qmul, _rotmat, quat_from_rotvec, quat_to_rotmat
from .vehicle import VehicleParams
from .dynamics import _eom, _forcing, _plant
from .harness import RunLog, RUNLOG_COLUMNS

# bench/spans.py times these per-sample names; the array code below reproduces their formulas
from .kinematics import quat_multiply, quat_to_rotvec, rotmat_to_euler  # noqa: F401
from .vehicle import cmd_to_wrench  # noqa: F401
from .dynamics import state_derivative  # noqa: F401

__all__ = [
    "MocapTrajectory",
    "load_mocap_csv",
    "trajectory_from_runlog",
    "load_runlog_csv",
    "load_command_csv",
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
MOCAP_SCALAR_LAST = ("t", "x", "y", "z", "qx", "qy", "qz", "qw")
COMMAND_COLUMNS = ("t", "A", "dA", "Vo")
ENVELOPE_COLUMNS = ("tilt_lo_deg", "tilt_hi_deg", "speed_lo", "speed_hi", "count")
ACCEL_AXES = ("u_dot", "v_dot", "w_dot", "p_dot", "q_dot", "r_dot")
GAP_FACTOR = 2.0          # dt > GAP_FACTOR * median dt counts as a gap
MAX_OFFSET_TILT = math.radians(30.0)
CUTOFF_HZ = 20.0          # default low-pass cutoff of the pose filter
FILTER_BLOCK = 128        # samples per block of the filter's block-wise solve
PLAN_DIGITS = 40          # decimal digits the filter's block matrices are derived in
# default flight-envelope grid: tilt edges [deg] and speed edges [m/s] from 0
TILT_MAX_DEG, TILT_BINS = 60.0, 12
SPEED_MAX, SPEED_BINS = 0.8, 16


# ---------------------------------------------------------------------------
# whole-array kinematics: the formulas of the scalar kinematics functions,
# applied to (n, k) arrays of samples
# ---------------------------------------------------------------------------


def _wrap(a: np.ndarray) -> np.ndarray:
    """``wrap_angle`` on an array: angles already in (-pi, pi] pass unchanged."""
    inside = (a > -math.pi) & (a <= math.pi)
    if inside.all():
        return a
    w = np.fmod(a + math.pi, 2.0 * math.pi)
    return np.where(inside, a, np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi)


def _check_pitch(pitch: np.ndarray, t: np.ndarray) -> None:
    """Raise GimbalLockError, as EulerAngles321 does, naming the first sample at the guard."""
    bad = np.nonzero(np.abs(pitch) >= GIMBAL_GUARD)[0]
    if len(bad):
        i = int(bad[0])
        raise GimbalLockError(
            f"sample {i} (t = {t[i]:.6g} s): pitch {pitch[i]:.9f} rad is within 1e-6 "
            "of the +/-pi/2 singularity"
        )


def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``quat_multiply`` row by row: the Hamilton products a[i] * b[i]."""
    return np.column_stack(_qmul(a.T, b.T))


def _normalized(q: np.ndarray) -> np.ndarray:
    """``Quaternion.normalized`` row by row."""
    w, x, y, z = q.T
    return q / np.sqrt(w * w + x * x + y * y + z * z)[:, None]


def _rotmats(quat: np.ndarray) -> np.ndarray:
    """``quat_to_rotmat`` row by row: an (n, 3, 3) body-to-world stack."""
    return np.stack(_rotmat(*_normalized(quat).T), axis=-1).reshape(-1, 3, 3)


def _euler(R: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``rotmat_to_euler`` on an (n, 3, 3) stack: (n, 3) roll, pitch, yaw."""
    pitch = -np.arcsin(np.clip(R[:, 2, 0], -1.0, 1.0))
    _check_pitch(pitch, t)
    roll = _wrap(np.arctan2(R[:, 2, 1], R[:, 2, 2]))
    yaw = _wrap(np.arctan2(R[:, 1, 0], R[:, 0, 0]))
    return np.column_stack([roll, pitch, yaw])


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


def load_mocap_csv(path, source: str | None = None) -> MocapTrajectory:
    """Read a pose CSV with header ``t,x,y,z,qw,qx,qy,qz``.

    A scalar-last header (``...,qx,qy,qz,qw``) is accepted and reordered.
    """
    header, a = read_table(path, MOCAP_COLUMNS, alternatives=(MOCAP_SCALAR_LAST,), min_rows=2)
    quat = [4, 5, 6, 7] if header == MOCAP_COLUMNS else [7, 4, 5, 6]
    try:
        return MocapTrajectory(
            a[:, 0], a[:, 1:4], a[:, quat],
            source=str(path) if source is None else source,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def trajectory_from_runlog(log: RunLog) -> MocapTrajectory:
    """Treat a simulator log's truth pose series as ideal mocap samples."""
    # euler_to_quat on columns: qz(yaw) * qy(pitch) * qx(roll) from half angles;
    # MocapTrajectory canonicalizes the signs
    roll, pitch, yaw = _wrap(log.euler[:, 0]), log.euler[:, 1], _wrap(log.euler[:, 2])
    _check_pitch(pitch, log.t)
    hr, hp, hy = 0.5 * roll, 0.5 * pitch, 0.5 * yaw
    zero = np.zeros(len(log))
    qz = np.column_stack([np.cos(hy), zero, zero, np.sin(hy)])
    qy = np.column_stack([np.cos(hp), zero, np.sin(hp), zero])
    qx = np.column_stack([np.cos(hr), np.sin(hr), zero, zero])
    quat = _quat_mul(_quat_mul(qz, qy), qx)
    return MocapTrajectory(log.t, log.pos_w, quat, source=log.scenario_name or "runlog")


def load_runlog_csv(path) -> RunLog:
    """Read back a RunLog CSV (header must match the documented order)."""
    _, a = read_table(path, RUNLOG_COLUMNS, binary=("saturated",))
    dt = np.diff(a[:, 0])
    # a one-row log keeps RunLog's default rate
    meta = {"control_rate": 1.0 / float(np.median(dt))} if len(dt) else {}
    return RunLog.from_rows(a, **meta)


def load_command_csv(path):
    """Read an actuator-command CSV (t, A, dA, Vo) -> (t, cmds (n,3))."""
    _, a = read_table(path, COMMAND_COLUMNS)
    return a[:, 0], a[:, 1:4]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


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
        return replace(self, wrench=_held(t_src, wrench_src, self.t, "wrench"))

    def attach_commands(self, t_src, cmd_src, p: VehicleParams) -> "ReconstructedStates":
        """Attach actuator commands and their wrench image (ZOH aligned)."""
        cmd = _held(t_src, cmd_src, self.t, "command")
        A, dA, Vo = cmd.T
        # cmd_to_wrench's affine fits on columns; thrust clamps at zero
        wrench = np.column_stack([
            np.maximum(0.0, p.thrust_slope * A + p.thrust_intercept),
            p.roll_slope * dA,
            p.pitch_slope * Vo,
        ])
        return replace(self, cmd=cmd, wrench=wrench)


def _held(t_src, values, t: np.ndarray, what: str) -> np.ndarray:
    """Rows of ``values`` (n_src, 3) held from the last ``t_src`` at or before each ``t``.

    Times before the first source sample take the first row. ``t_src``
    must be strictly increasing, and it and ``values`` finite.
    """
    t_src = np.asarray(t_src, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1, 3)
    if len(t_src) != len(v) or len(t_src) == 0:
        raise ValueError(f"{what} series is empty or mismatched")
    if not np.all(np.isfinite(t_src)):
        raise ValueError(f"{what} times must be finite")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} series has non-finite values")
    late = np.nonzero(np.diff(t_src) <= 0.0)[0]
    if len(late):
        raise ValueError(f"{what} times not strictly increasing at sample {int(late[0]) + 1}")
    return v[np.clip(np.searchsorted(t_src, t, side="right") - 1, 0, len(t_src) - 1)]


def _butter(order: int, wn: float) -> tuple:
    """scipy's ``butter(order, wn)``, bit for bit: the digital low-pass
    ``(b, a)`` for a cutoff ``wn`` in (0, 1), a fraction of Nyquist.

    The analog prototype's poles on the unit circle are scaled to the cutoff
    prewarped at fs = 2, mapped by the bilinear transform (all zeros land at
    z = -1), and expanded with ``np.poly``.
    """
    wo = float(4.0 * np.tan(np.pi * wn / 2.0))
    p = -wo * np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    k = wo**order * np.real(1.0 / np.prod(4.0 - p))
    return k * np.poly(-np.ones(order)), np.poly((4.0 + p) / (4.0 - p))


@functools.lru_cache(maxsize=16)
def _filter_plan(b: tuple, a: tuple) -> tuple:
    """Matrices of one :func:`_filtfilt` pass over blocks of ``FILTER_BLOCK`` samples.

    Within a block the output is the block's zero-start response, ``G @ u``
    with ``G`` the lower-triangular Toeplitz matrix of the impulse response
    of b/a, plus the response to everything before the block. From the
    block's ``o``-th sample on (``o`` the order) that response follows the
    homogeneous recursion, so its first ``o`` samples fix it. They are
    carried as forward differences ``q`` (``q_k``, the k-th difference at
    the block's first sample), which stay well scaled when the poles crowd
    z = 1, where the samples themselves nearly agree. A block then gives
    ``y = G u + P q`` and the next block's ``q = E u + M q``; ``q0`` is the
    first block's ``q`` per unit first input, from the start-up state
    ``zi``. All of it comes from one forward substitution in
    ``PLAN_DIGITS``-digit decimal arithmetic, rounded once to doubles.
    Returned transposed, for signals laid out one row per column.
    """
    L, o = FILTER_BLOCK, len(a) - 1
    an, bn = np.array(a), np.array(b)
    companion = np.zeros((o, o))
    companion[0] = -an[1:]
    companion[np.arange(1, o), np.arange(o - 1)] = 1.0
    zi = np.linalg.solve(np.eye(o) - companion.T, bn[1:] - an[1:] * bn[0])  # lfilter_zi
    with decimal.localcontext() as ctx:
        ctx.prec = PLAN_DIGITS
        ad = np.array([decimal.Decimal(v) for v in a], dtype=object)
        lead = np.array([[ad[i - j] if i >= j else 0 for j in range(o)] for i in range(o)])
        binomial = np.array([[math.comb(i, k) for k in range(o)] for i in range(o)], dtype=object)
        # right-hand sides of the recursion, solved in place: b gives the
        # impulse response; lead @ binomial gives the homogeneous responses
        # whose first o samples have unit forward differences; zi, the start-up
        Y = np.zeros((L + o, o + 2), dtype=object)
        Y[:o + 1, 0] = [decimal.Decimal(v) for v in b]
        Y[:o, 1:o + 1] = lead @ binomial
        Y[:o, o + 1] = [decimal.Decimal(v) for v in zi]
        for i in range(1, L + o):
            j = min(i, o)
            Y[i] -= ad[j:0:-1] @ Y[i - j:i]

        def head_differences(rows):
            return np.array([np.diff(rows, k, axis=0)[0] for k in range(o)], dtype=float)

        g = Y[:L, 0].astype(float)
        P = Y[:L, 1:o + 1].astype(float)
        # E[k, j]: the k-th forward difference of g at L - j, where input j's
        # response enters the next block
        E = np.array([np.diff(Y[:, 0], k)[L:0:-1] for k in range(o)], dtype=float)
        M = head_differences(Y[L:, 1:o + 1])
        q0 = head_differences(Y[:o, o + 1])
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    G = np.where(lag >= 0, g[np.maximum(lag, 0)], 0.0)
    plan = G.T, P.T, E.T, M.T, q0
    for m in plan:  # shared by every caller through the cache
        m.flags.writeable = False
    return plan


def _filtfilt(b, a, x: np.ndarray, padlen: int) -> np.ndarray:
    """scipy's ``filtfilt(b, a, x, axis=0, padlen=padlen)`` on an (n, k)
    array, for ``a[0] == 1`` and ``len(b) == len(a)`` as :func:`_butter` gives,
    and an order below ``FILTER_BLOCK``.

    The columns are extended by odd reflection about their end samples, and
    each pass starts from the filter's step-response steady state scaled by its
    first input (Gustafsson 1996; ``lfilter_zi``). A pass is the recursion
    ``sum_j a_j y[i-j] = sum_j b_j x[i-j]`` plus those initial states, solved
    block by block (:func:`_filter_plan`): one matrix product gives every
    block's zero-start response, a small order-by-order map carries the state
    from block to block, and a second product adds each block's homogeneous
    response. It agrees with an extended-precision solution to 5e-14 of each
    column's scale (orders 1-4, cutoffs 5e-4 to 0.9 of Nyquist), and with
    scipy to scipy's own rounding.
    """
    GT, PT, ET, MT, q0 = _filter_plan(tuple(b), tuple(a))
    L, o = FILTER_BLOCK, len(q0)
    n, k = x.shape
    m = n + 2 * padlen
    blocks = -(-m // L)
    u = np.zeros((k, blocks * L))  # one row per column, zero past the padded signal
    xt = x.T
    u[:, :padlen] = 2.0 * xt[:, :1] - xt[:, padlen:0:-1]
    u[:, padlen:padlen + n] = xt
    u[:, padlen + n:m] = 2.0 * xt[:, -1:] - xt[:, -2:-padlen - 2:-1]
    for _ in range(2):  # forward, then backward on the reversed output
        U = u.reshape(k * blocks, L)  # row c * blocks + j: block j of column c
        y = U @ GT
        carry = (U @ ET).reshape(k, blocks, o)
        q = np.empty_like(carry)
        q[:, 0] = u[:, :1] * q0
        for j in range(1, blocks):
            q[:, j] = carry[:, j - 1] + q[:, j - 1] @ MT
        y += q.reshape(k * blocks, o) @ PT
        u[:, :m] = y.reshape(k, blocks * L)[:, m - 1::-1]
    return u[:, padlen:padlen + n].T


def _stitch_hemisphere(quat: np.ndarray) -> np.ndarray:
    """Flip signs so consecutive quaternions sit on the same hemisphere.

    Sample i is flipped when its dot with sample i-1, as stitched, is
    negative. A flipped sample i-1 flips the sign of that dot, so each
    negative dot toggles the sign, and a dot of exactly 0 or NaN resets it
    to +1.
    """
    dots = np.einsum("ij,ij->i", quat[:-1], quat[1:])
    negative = dots < 0.0
    toggles = np.cumsum(negative)
    reset = ~(negative | (dots > 0.0))
    # the count never decreases, so its running max over resets is its value at the last one
    since_reset = toggles - np.maximum.accumulate(np.where(reset, toggles, 0))
    signs = np.ones(len(quat))
    signs[1:][since_reset % 2 == 1] = -1.0
    return quat * signs[:, None]


def _quat_rates(t: np.ndarray, quat: np.ndarray) -> np.ndarray:
    """Body rates from relative-rotation differencing (central in time).

    The first and last samples use one-sided differences. Per pair this
    is ``quat_to_rotvec((conj(qa) * qb).normalized()) / dt`` with the
    relative quaternion taken to w >= 0.
    """
    n = len(t)
    i0 = np.r_[0, 0:n - 2, n - 2]
    i1 = np.r_[1, 2:n, n - 1]
    dq = _quat_mul(quat[i0] * [1.0, -1.0, -1.0, -1.0], quat[i1])
    dq = np.where(dq[:, :1] < 0.0, -dq, dq)
    # quat_to_rotvec normalizes its (already unit, w >= 0) argument again
    q = _normalized(_normalized(dq))
    w, x, y, z = q.T
    vec_norm = np.sqrt(x * x + y * y + z * z)
    small = vec_norm < 1e-9  # the log map's series branch: 2 * vector part
    angle = 2.0 * np.arctan2(vec_norm, w)
    k = np.where(small, 2.0, angle / np.where(small, 1.0, vec_norm))
    return q[:, 1:] * k[:, None] / (t[i1] - t[i0])[:, None]


def reconstruct(tr: MocapTrajectory, cutoff_hz: float | None = CUTOFF_HZ) -> ReconstructedStates:
    """Differentiate a pose trajectory into body-frame flight states.

    Positions and quaternion components are zero-phase filtered (an order-2
    Butterworth low-pass at ``cutoff_hz``; ``None`` leaves them unfiltered),
    world velocity/acceleration come from central differences, body rates
    from quaternion differencing, and the body accelerations are derivatives
    of the body-frame component series. Edge samples contaminated by filter
    transients and one-sided differences are trimmed.
    """
    fs = tr.sample_rate
    # a relative slack of 1e-9 refuses a cutoff at nominal Nyquist however the
    # rate inferred from stored timestamps rounds (as in default_substeps)
    if cutoff_hz is not None and not 0.0 < cutoff_hz < 0.5 * fs * (1.0 - 1e-9):
        raise ConfigError(
            "filter cutoff must be positive" if not cutoff_hz > 0.0
            else f"cutoff {cutoff_hz:g} Hz is not below Nyquist ({0.5 * fs:g} Hz)"
        )
    n = len(tr)
    if n < 9:
        raise ValueError(f"trajectory too short to reconstruct ({n} < 9 samples)")
    if tr.gap_indices:
        i = tr.gap_indices[0]
        raise ValueError(
            f"trajectory has a timing gap at sample {i} "
            f"(dt = {tr.t[i + 1] - tr.t[i]:.4f} s at {fs:.0f} Hz)"
        )
    t = tr.t

    quat = _stitch_hemisphere(tr.quat)
    pos = tr.pos_w
    m = 2  # unfiltered: the one-sided difference samples
    if cutoff_hz is not None:
        # order 2: there the transfer-function form agrees with scipy's
        # sosfiltfilt at any cutoff; higher orders lose digits at low cutoffs
        b, a = _butter(2, cutoff_hz / (0.5 * fs))
        padlen = min(3 * len(a), n - 1)
        pose = _filtfilt(b, a, np.column_stack([pos, quat]), padlen)
        pos, quat = pose[:, :3], pose[:, 3:]
        quat = quat / np.linalg.norm(quat, axis=1)[:, None]
        # forward-backward transients decay over a few filter time constants;
        # two cutoff periods of samples is comfortably past them (the small
        # slack keeps rates inferred from stored timestamps off bin edges)
        m = max(8, int(math.ceil(2.0 * fs / cutoff_hz - 1e-6)))

    vel_w = np.gradient(pos, t, axis=0)
    accel_w = np.gradient(vel_w, t, axis=0)

    R = _rotmats(quat)
    euler = _euler(R, t)
    vel_b = (R.transpose(0, 2, 1) @ vel_w[:, :, None])[:, :, 0]  # R^T v per sample

    omega_b = _quat_rates(t, quat)
    accel_body = np.gradient(vel_b, t, axis=0)
    alpha_body = np.gradient(omega_b, t, axis=0)

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


def reconstruct_runlog(log: RunLog, cutoff_hz: float | None = CUTOFF_HZ) -> ReconstructedStates:
    """Reconstruct from a simulator log and attach its recorded wrench."""
    rs = reconstruct(trajectory_from_runlog(log), cutoff_hz)
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
    cutoff_hz: float | None = CUTOFF_HZ,
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
    rs = reconstruct(tr, cutoff_hz)
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
    acc = (_rotmats(rs.quat[mask]).transpose(0, 2, 1) @ t_dir_w).sum(axis=0)
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
    t: np.ndarray             # (n,)
    measured: np.ndarray      # (n, 6)
    predicted: np.ndarray     # (n, 6)

    @property
    def rms_error(self) -> np.ndarray:
        return np.sqrt(np.mean((self.measured - self.predicted) ** 2, axis=0))

    @property
    def signal_rms(self) -> np.ndarray:
        return np.sqrt(np.mean(self.measured**2, axis=0))

    @property
    def ratio(self) -> np.ndarray:
        floor = np.maximum(self.signal_rms, 1e-12)
        return self.rms_error / floor

    def to_text(self) -> str:
        lines = ["axis       rms error      signal rms     error/signal"]
        for ax, e, s, r in zip(self.axes, self.rms_error, self.signal_rms, self.ratio):
            lines.append(f"{ax:<8s} {e:>12.6g} {s:>14.6g} {r:>14.4%}")
        return "\n".join(lines)

    def write_series_csv(self, path) -> None:
        cols = ["t", *(f"{kind}_{ax}" for ax in self.axes for kind in ("meas", "pred"))]
        pairs = np.stack([self.measured, self.predicted], axis=2).reshape(len(self.t), -1)
        rows = np.column_stack([self.t, pairs]).tolist()
        atomic_write_text(path, table_text(cols, rows))


def validate_model(
    rs: ReconstructedStates,
    p: VehicleParams,
    window: tuple | None = None,
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

    # the packed 12-state rows that SimState.as_vector gives, angles wrapped as
    # EulerAngles321 wraps them
    states = np.column_stack([rs.pos_w[idx], rs.vel_b[idx], rs.euler[idx], rs.omega_b[idx]])
    if not np.all(np.isfinite(states)):
        raise ValueError("state entries must be finite")
    states[:, 6] = _wrap(states[:, 6])
    states[:, 8] = _wrap(states[:, 8])
    _check_pitch(states[:, 7], rs.t[idx])
    # state_derivative's inputs, zero residuals and force; at, ap, aq are per row
    thrust, tau_r, tau_p = rs.wrench[idx].T
    thrust = np.where(thrust > 0.0, thrust, 0.0)  # max(0.0, thrust) per row
    at, ap, aq, c = _forcing(_plant(p), thrust, tau_r, tau_p)
    ydot = _eom(*states[:, 3:].T, at, ap, aq, c, xp=np)
    meas = np.column_stack([rs.accel_body[idx], rs.alpha_body[idx]])
    pred = np.column_stack([ydot[i] for i in (3, 4, 5, 9, 10, 11)])
    return ValidationReport(
        axes=ACCEL_AXES,
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
        te, se = self.tilt_edges_deg.tolist(), self.speed_edges.tolist()
        rows = [(t0, t1, s0, s1, int(n))
                for t0, t1, counts in zip(te, te[1:], self.counts)
                for s0, s1, n in zip(se, se[1:], counts)]
        atomic_write_text(path, table_text(ENVELOPE_COLUMNS, rows))


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
    te = (np.linspace(0.0, TILT_MAX_DEG, TILT_BINS + 1) if tilt_edges_deg is None
          else np.asarray(tilt_edges_deg, dtype=float))
    se = (np.linspace(0.0, SPEED_MAX, SPEED_BINS + 1) if speed_edges is None
          else np.asarray(speed_edges, dtype=float))
    for edges in (te, se):
        if len(edges) < 2 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram edges must be finite and increasing with >= 2 entries")

    # body z in world coordinates is the third column of R; its z component
    # is cos(tilt) regardless of yaw
    cz = _rotmat(*_normalized(rs.quat).T)[8]
    tilt = np.degrees(np.arccos(np.clip(cz, -1.0, 1.0)))
    if speed_mode == "total":
        speed = np.linalg.norm(rs.vel_b, axis=1)
    else:
        speed = np.linalg.norm(rs.vel_b[:, 0:2], axis=1)

    tilt = np.clip(tilt, te[0], te[-1])
    speed = np.clip(speed, se[0], se[-1])
    counts, _, _ = np.histogram2d(tilt, speed, bins=(te, se))
    return EnvelopeGrid(te, se, counts.astype(np.int64))
