"""Independent reference implementations used to check the package.

Everything here is deliberately written in a different style from the
package code (matrix algebra instead of expanded scalars, doubling
iterations instead of invariant subspaces) so that agreement between the
two is meaningful. Nothing in this module imports from ``flapsim``, but
for the last section: the control tick as it reads on the ``kinematics``
cores, which the tick writes out on locals and must equal bit for bit.
"""

from __future__ import annotations

import decimal
import math

import numpy as np
from scipy.linalg import expm

# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotmat_321(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Body-to-world matrix of a yaw-pitch-roll (3-2-1) rotation."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues' rotation formula."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Scalar-first unit quaternion (w, x, y, z) of an axis-angle rotation."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    h = 0.5 * angle
    return np.concatenate([[np.cos(h)], np.sin(h) * k])


def quat_product(a, b) -> np.ndarray:
    """Hamilton product of scalar-first quaternion arrays."""
    aw, av = a[0], np.asarray(a[1:])
    bw, bv = b[0], np.asarray(b[1:])
    return np.concatenate(
        [[aw * bw - av @ bv], aw * bv + bw * av + np.cross(av, bv)]
    )


def quat_matrix(q) -> np.ndarray:
    """Rotation matrix of a scalar-first unit quaternion."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def constant_rate_quat(omega_b, t: float, q0=None) -> np.ndarray:
    """Attitude at time t under a constant body-frame angular velocity."""
    w = np.asarray(omega_b, dtype=float)
    n = np.linalg.norm(w)
    if n == 0.0:
        step = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        step = quat_from_axis_angle(w / n, n * t)
    if q0 is None:
        return step
    return quat_product(q0, step)


def euler_rate_fd(roll, pitch, yaw, omega_b, h=1e-6):
    """Central-difference Euler-angle rates under a body rate omega_b."""
    q0 = quat_product(
        quat_product(
            quat_from_axis_angle([0, 0, 1], yaw), quat_from_axis_angle([0, 1, 0], pitch)
        ),
        quat_from_axis_angle([1, 0, 0], roll),
    )
    rates = np.empty(3)
    e_plus = euler_of_matrix(quat_matrix(constant_rate_quat(omega_b, h, q0)))
    e_minus = euler_of_matrix(quat_matrix(constant_rate_quat(omega_b, -h, q0)))
    for i in range(3):
        d = e_plus[i] - e_minus[i]
        # unwrap across the +/-pi seam
        d = (d + np.pi) % (2.0 * np.pi) - np.pi
        rates[i] = d / (2.0 * h)
    return rates


def euler_of_matrix(R) -> np.ndarray:
    """(roll, pitch, yaw) of a body-to-world matrix, 3-2-1 convention."""
    R = np.asarray(R, dtype=float)
    pitch = -np.arcsin(np.clip(R[2, 0], -1.0, 1.0))
    roll = np.arctan2(R[2, 1], R[2, 2])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    return np.array([roll, pitch, yaw])


# ---------------------------------------------------------------------------
# rigid-body equations of motion (matrix form)
# ---------------------------------------------------------------------------


def eom_reference(
    y,
    mt: float,
    J,
    g: float,
    wrench,
    specific_force=(0.0, 0.0, 0.0),
    angular_accel=(0.0, 0.0, 0.0),
    ext_force_w=(0.0, 0.0, 0.0),
) -> np.ndarray:
    """Reference 12-state derivative.

    State layout: world position, body velocity, 321 Euler angles, body
    rates. ``wrench`` is (thrust, tau_roll, tau_pitch) in body axes.
    """
    y = np.asarray(y, dtype=float)
    V = y[3:6]
    roll, pitch, yaw = y[6:9]
    om = y[9:12]
    J = np.asarray(J, dtype=float)
    R = rotmat_321(roll, pitch, yaw)

    pos_dot = R @ V

    grav_b = R.T @ np.array([0.0, 0.0, -g])
    thrust_b = np.array([0.0, 0.0, wrench[0] / mt])
    ext_b = R.T @ np.asarray(ext_force_w, dtype=float) / mt
    cor = np.cross(om, V)
    V_dot = grav_b + thrust_b + np.asarray(specific_force, dtype=float) + ext_b - cor

    cr, sr = np.cos(roll), np.sin(roll)
    cp, tp = np.cos(pitch), np.tan(pitch)
    W = np.array(
        [
            [1.0, sr * tp, cr * tp],
            [0.0, cr, -sr],
            [0.0, sr / cp, cr / cp],
        ]
    )
    eul_dot = W @ om

    tau = np.array([wrench[1], wrench[2], 0.0])
    om_dot = (tau - np.cross(om, J * om)) / J + np.asarray(angular_accel, dtype=float)

    return np.concatenate([pos_dot, V_dot, eul_dot, om_dot])


def rk4_textbook(f, y, dt: float) -> np.ndarray:
    """One classical RK4 step of y' = f(y), written on arrays as in a textbook."""
    y = np.asarray(y, dtype=float)
    h = 0.5 * dt
    k1 = f(y)
    k2 = f(y + h * k1)
    k3 = f(y + h * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reduced_dynamics(f, hover_thrust: float, sigma, delta) -> np.ndarray:
    """The 10-state hover design flow sigma_dot(sigma, delta) of a 12-state model.

    ``f(y, wrench)`` is the 12-state derivative. sigma = (d, V_b, roll,
    pitch, p, q) is embedded with yaw and yaw rate pinned to zero, the
    wrench is the hover thrust plus the deviation delta = (dGamma, tau_r,
    tau_p), and the derivative is projected back; the d-rate is the body
    velocity by convention.
    """
    sigma = np.asarray(sigma, dtype=float).reshape(10)
    delta = np.asarray(delta, dtype=float).reshape(3)
    y = np.concatenate([sigma[0:8], [0.0], sigma[8:10], [0.0]])
    full = f(y, (hover_thrust + delta[0], delta[1], delta[2]))
    return np.concatenate([sigma[3:6], full[3:8], full[9:11]])


# ---------------------------------------------------------------------------
# sampled-data LQR oracle (independent route to the continuous Riccati P)
# ---------------------------------------------------------------------------


def zoh_discretize(A, B, dt: float):
    """Exact zero-order-hold discretization via one matrix exponential."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A * dt
    M[:n, n:] = B * dt
    E = expm(M)
    return E[:n, :n], E[:n, n:]


def sampled_cost(A, B, Q, R, dt: float):
    """Exact per-interval cost matrices of the ZOH sampled-data problem.

    Returns (Q1, N, R1) with
        Q1 = int Phi' Q Phi,  N = int Phi' Q Gamma,  R1 = int (Gamma' Q Gamma + R)
    over one sampling interval (Van Loan block-exponential construction).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    Ac = np.zeros((n + m, n + m))
    Ac[:n, :n] = A
    Ac[:n, n:] = B
    Qh = np.zeros((n + m, n + m))
    Qh[:n, :n] = Q
    Qh[n:, n:] = R
    big = np.zeros((2 * (n + m), 2 * (n + m)))
    big[: n + m, : n + m] = -Ac.T * dt
    big[: n + m, n + m :] = Qh * dt
    big[n + m :, n + m :] = Ac * dt
    E = expm(big)
    F3 = E[n + m :, n + m :]
    G2 = E[: n + m, n + m :]
    W = F3.T @ G2
    W = 0.5 * (W + W.T)
    return W[:n, :n], W[:n, n:], W[n:, n:]


def dare_doubling(Ad, G, H, tol=1e-14, max_iter=120):
    """Structured doubling iteration for X = H + Ad' X (I + G X)^-1 Ad."""
    A = np.asarray(Ad, dtype=float).copy()
    G = np.asarray(G, dtype=float).copy()
    H = np.asarray(H, dtype=float).copy()
    n = A.shape[0]
    I = np.eye(n)
    for _ in range(max_iter):
        M = np.linalg.solve(I + G @ H, A)          # (I + GH)^-1 A
        A_next = A @ M
        G_next = G + A @ np.linalg.solve(I + G @ H, G @ A.T)
        H_next = H + A.T @ H @ M
        G_next = 0.5 * (G_next + G_next.T)
        H_next = 0.5 * (H_next + H_next.T)
        step = np.linalg.norm(H_next - H) / max(1.0, np.linalg.norm(H_next))
        A, G, H = A_next, G_next, H_next
        if step < tol:
            break
    return H


def dare_plain(Ad, G, H, steps: int):
    """Truncated backward Riccati recursion (anchor for the doubling form)."""
    X = np.asarray(H, dtype=float).copy()
    A = np.asarray(Ad, dtype=float)
    n = A.shape[0]
    I = np.eye(n)
    for _ in range(steps):
        X = H + A.T @ X @ np.linalg.solve(I + G @ X, A)
        X = 0.5 * (X + X.T)
    return X


def care_oracle(A, B, Q, R, dt=1e-6, plain_check=False):
    """Continuous-Riccati P via the exactly sampled discrete problem.

    The ZOH-sampled problem with Van Loan cost integrals is solved by a
    doubling iteration; its fixed point converges to the continuous
    stabilizing P as dt -> 0. Completely independent of Hamiltonian /
    Schur machinery.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    Ad, Bd = zoh_discretize(A, B, dt)
    Q1, N, R1 = sampled_cost(A, B, Q, R, dt)
    R1_inv_Nt = np.linalg.solve(R1, N.T)
    At = Ad - Bd @ R1_inv_Nt
    Qt = Q1 - N @ R1_inv_Nt
    Qt = 0.5 * (Qt + Qt.T)
    G = Bd @ np.linalg.solve(R1, Bd.T)
    G = 0.5 * (G + G.T)
    P = dare_doubling(At, G, Qt)
    if plain_check:
        P_plain = dare_plain(At, G, Qt, steps=30000)
        agree = np.linalg.norm(P - P_plain) / max(1.0, np.linalg.norm(P))
        return P, agree
    return P


# ---------------------------------------------------------------------------
# zero-phase filter (per-sample direct recursion)
# ---------------------------------------------------------------------------


def filtfilt_direct(b, a, x, padlen: int) -> np.ndarray:
    """Forward-backward IIR filtering of the columns of ``x``, one sample at a time.

    Each column is extended by ``padlen`` samples of odd reflection about
    each end. Each pass then runs ``sum_j a_j y[i-j] = sum_j b_j x[i-j]``
    (``a[0] == 1``) as if the input had held its first value forever and
    the output the steady state of that: the Gustafsson start-up, written
    as a past rather than as an initial state vector.
    """
    x = np.asarray(x, dtype=float)
    return np.array(_filtfilt_passes([float(v) for v in b], [float(v) for v in a], x, padlen))


def filtfilt_exact(b, a, x, padlen: int) -> np.ndarray:
    """:func:`filtfilt_direct` on the columns of a 2-D ``x`` in 60-digit
    decimal arithmetic, from the double coefficients and inputs as they are,
    rounded to double once at the end: a reference for the float64 filter's
    own rounding, its start-up included."""
    x = np.asarray(x, dtype=float)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        b, a = [decimal.Decimal(float(v)) for v in b], [decimal.Decimal(float(v)) for v in a]
        cols = [_filtfilt_passes(b, a, [decimal.Decimal(float(u)) for u in c], padlen)
                for c in x.T]
    return np.array([[float(v) for v in c] for c in cols]).T


def _filtfilt_passes(b, a, x, padlen: int) -> list:
    """The padded forward and backward passes of :func:`filtfilt_direct` on
    the samples ``x`` (floats, float rows or Decimals), in their arithmetic."""
    n = len(x)
    head = [2 * x[0] - x[i] for i in range(padlen, 0, -1)]
    tail = [2 * x[-1] - x[n - 1 - i] for i in range(1, padlen + 1)]
    sig = head + list(x) + tail
    dc_gain = sum(b) / sum(a)
    for _ in range(2):
        u0 = sig[0]
        past_in = [u0] * (len(b) - 1)            # x[i-1], x[i-2], ...
        past_out = [dc_gain * u0] * (len(a) - 1)  # y[i-1], y[i-2], ...
        out = []
        for u in sig:
            y = b[0] * u
            for j in range(1, len(b)):
                y = y + b[j] * past_in[j - 1] - a[j] * past_out[j - 1]
            past_in = [u] + past_in[:-1]
            past_out = [y] + past_out[:-1]
            out.append(y)
        sig = out[::-1]
    return sig[padlen:padlen + n]


# ---------------------------------------------------------------------------
# table files, one value at a time: read with float(), written with repr
# ---------------------------------------------------------------------------


def read_table_by_line(path, columns, *, min_rows=1, binary=()):
    """The CSV table reader as ``float()`` on each value of each line.

    Returns the rows like the package reader and raises ValueError
    with the same ``path:line: ...`` text on every malformed table.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != tuple(columns):
        raise ValueError(
            f"{path}:1: header {','.join(header)!r} does not match {','.join(columns)!r}"
        )
    width = len(header)
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if len(rows) < min_rows:
        what = "no data rows" if not rows else f"needs at least {min_rows} data rows"
        raise ValueError(f"{path}: {what}")
    for k, row in enumerate(rows):
        for j, x in enumerate(row):
            if not np.isfinite(x):
                raise ValueError(f"{path}:{linenos[k]}: {header[j]} is not finite ({x!r})")
    for k in range(1, len(rows)):
        if not rows[k][0] > rows[k - 1][0]:
            raise ValueError(f"{path}:{linenos[k]}: timestamps not strictly increasing")
    for name in binary:
        j = header.index(name)
        for k, row in enumerate(rows):
            if row[j] not in (0.0, 1.0):
                raise ValueError(f"{path}:{linenos[k]}: {name} must be 0 or 1 ({row[j]!r})")
    return np.array(rows)


def table_text_by_repr(columns, rows) -> str:
    """The table writer as ``repr`` of each Python float or int of each row."""
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows), ""])


def stitch_hemisphere_loop(quat) -> np.ndarray:
    """Hemisphere stitching of a quaternion series, one sample at a time.

    Sample i is flipped when its dot with sample i-1, as stitched, is
    negative; a dot of exactly 0 or NaN leaves sample i unflipped.
    """
    quat = np.asarray(quat, dtype=float)
    dots = np.einsum("ij,ij->i", quat[:-1], quat[1:]).tolist()
    sign, signs = 1.0, [1.0]
    for d in dots:
        sign = -1.0 if sign * d < 0.0 else 1.0
        signs.append(sign)
    return quat * np.array(signs)[:, None]


# ---------------------------------------------------------------------------
# the control tick on the kinematics cores
# ---------------------------------------------------------------------------
#
# controller._sense, _sense_truth and _decide write the rotation math below
# out on locals. These are the same three functions calling the cores, the
# reference that each written-out operation must match in value and order.


def _to_body(R, x: float, y: float, z: float) -> tuple:
    """R^T (x, y, z) for a row-major R: a world vector in the body frame."""
    return (R[0] * x + R[3] * y + R[6] * z, R[1] * x + R[4] * y + R[7] * z,
            R[2] * x + R[5] * y + R[8] * z)


def sense_on_cores(pos, quat, prev, dt: float) -> tuple:
    """``controller._sense`` through ``_rotmat``, ``_rotmat_euler``, ``_qmul`` and ``_quat_rotvec``."""
    from flapsim.kinematics import (
        GIMBAL_GUARD, UNIT_QUAT_TOL, EulerAngles321, _qmul, _quat_rotvec, _rotmat, _rotmat_euler,
    )

    w, x, y, z = quat
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not abs(n - 1.0) <= UNIT_QUAT_TOL:
        raise ValueError(
            f"measured quaternion norm {n:.6f} is off unit by more than {UNIT_QUAT_TOL:g}")
    w, x, y, z = w / n, x / n, y / n, z / n
    q = (-w, -x, -y, -z) if w < 0.0 else (w, x, y, z)
    R = _rotmat(*q)
    roll, pitch, yaw = _rotmat_euler(R)
    if abs(pitch) >= GIMBAL_GUARD:
        EulerAngles321(roll, pitch, yaw)
    if roll == -math.pi:
        roll = math.pi
    if prev is None:
        raw = vel = (0.0, 0.0, 0.0)
        wp = wq = 0.0
    else:
        px, py, pz, rx, ry, rz, pw, qx, qy, qz = prev
        wx, wy, _ = _quat_rotvec(_qmul((pw, -qx, -qy, -qz), q))
        wp, wq = wx / dt, wy / dt
        raw = ((pos[0] - px) / dt, (pos[1] - py) / dt, (pos[2] - pz) / dt)
        vel = (0.5 * (raw[0] + rx), 0.5 * (raw[1] + ry), 0.5 * (raw[2] + rz))
    sigma = (*_to_body(R, *pos), *_to_body(R, *vel), roll, pitch, wp, wq)
    return (R, pos, vel, sigma), (*pos, *raw, *q)


def sense_truth_on_cores(y, prev, dt: float, draws) -> tuple:
    """``controller._sense_truth`` through ``wrap_angle``, ``_euler_quat`` and ``_qmul``."""
    from flapsim.kinematics import _euler_quat, _qmul, _rotvec_quat, wrap_angle

    q = _euler_quat(wrap_angle(y[6]), y[7], wrap_angle(y[8]))
    if draws is None:
        pos = (y[0], y[1], y[2])
    else:
        dx, dy, dz, ax, ay, az = draws
        pos = (y[0] + dx, y[1] + dy, y[2] + dz)
        q = _qmul(q, _rotvec_quat(ax, ay, az))
    return sense_on_cores(pos, q, prev, dt)


def control_error(est, sp_pos, sp_vel) -> tuple:
    """The 10-entry error ``controller._decide`` applies its gain to."""
    R, pos, vel, sigma = est
    return (*_to_body(R, sp_pos[0] - pos[0], sp_pos[1] - pos[1], sp_pos[2] - pos[2]),
            *_to_body(R, sp_vel[0] - vel[0], sp_vel[1] - vel[1], sp_vel[2] - vel[2]),
            -sigma[6], -sigma[7], -sigma[8], -sigma[9])


def decide_on_cores(K, est, sp_pos, sp_vel, act) -> tuple:
    """``controller._decide`` with a loop over the gain rows."""
    from flapsim.vehicle import _cmd_to_wrench, _wrench_to_cmd

    e = control_error(est, sp_pos, sp_vel)
    u = []
    for row in K:
        acc = 0.0
        for k, x in zip(row, e):
            acc = acc + k * x
        u.append(acc)
    A, dA, Vo, saturated = _wrench_to_cmd(act, act[0] + u[0], u[1], u[2])
    return (A, dA, Vo, *_cmd_to_wrench(act, A, dA, Vo), saturated)
