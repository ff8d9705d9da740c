"""Hover linearization and infinite-horizon LQR for the sampled loop.

The reduced design model has 10 states

    sigma = (d_x, d_y, d_z, u, v, w, phi, theta, p, q)

where d are body-frame position coordinates whose rate is taken to be the
body velocity (exact at the hover trim, where the body and world frames
coincide), and 3 inputs: wrench deviations from hover

    delta = (dGamma, tau_r, tau_p).

Yaw and yaw rate are excluded: the vehicle has no yaw actuation and the
remaining dynamics are yaw-symmetric.

The controller applies its input once per sample and holds it, so the
gain is designed for that loop: the model is discretized with a
zero-order hold at the loop's rate (Franklin, Powell & Workman, *Digital
Control of Dynamic Systems*), and ``solve_dare`` computes the stabilizing
solution of the discrete algebraic Riccati equation

    P = A_d'P A_d - A_d'P B_d (R + B_d'P B_d)^-1 B_d'P A_d + Q

by the doubling iteration (Anderson, Int. J. Control 1978), which doubles
the horizon of the Riccati recursion at each step, then polishes it by
Newton steps (Hewer, IEEE TAC 1971). It raises unless the pair passes
the PBH tests at every eigenvalue of A_d with |z| >= 1, the relative
residual is at most 1e-8 and the sampled closed loop A_d - B_d K has
spectral radius below one. Everything is numpy. The gain is stored positive,

    K = (R + B_d'P B_d)^-1 B_d'P A_d,   u = K (sigma_des - sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, SynthesisError
from .ioutil import _header, _lines, _read_rows, atomic_write_text, rows_text
from .vehicle import VehicleParams, _actuator, _cmd_to_wrench

__all__ = [
    "SIGMA_LABELS",
    "INPUT_LABELS",
    "CONTROL_RATE",
    "LinearModel",
    "LqrWeights",
    "LqrSolution",
    "linearize_hover",
    "default_weights",
    "solve_dare",
    "lqr_gain",
    "write_gain_csv",
    "read_gain_csv",
]

SIGMA_LABELS = ("d_x", "d_y", "d_z", "u", "v", "w", "phi", "theta", "p", "q")
INPUT_LABELS = ("dGamma", "tau_r", "tau_p")

NSIGMA = 10
NINPUT = 3

CONTROL_RATE = 240.0    # [Hz] default control rate, and the rate lqr_gain designs for


@dataclass(frozen=True)
class LinearModel:
    """Linear model x_dot = A x + B u.

    The hover design model is the (10, 3) instance produced by
    :func:`linearize_hover`; the solver itself works for any dimensions.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or B.ndim != 2:
            raise ValueError(f"expected square A and conforming B, got {A.shape}, {B.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ValueError("model matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class LqrWeights:
    """Quadratic state/input weights; finite, Q sym PSD, R sym PD (checked)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if Q.shape[0] != Q.shape[1] or R.shape[0] != R.shape[1]:
            raise ValueError("Q and R must be square")
        for name, M in (("Q", Q), ("R", R)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} must be finite")
            scale = max(1.0, float(np.max(np.abs(M))))
            if np.max(np.abs(M - M.T)) > 1e-12 * scale:
                raise SynthesisError(f"{name} must be symmetric")
        q_eigs = np.linalg.eigvalsh(Q)
        if q_eigs.min() < -1e-12 * max(1.0, q_eigs.max()):
            raise SynthesisError("Q must be positive semidefinite")
        r_eigs = np.linalg.eigvalsh(R)
        if r_eigs.min() <= 1e-12 * max(1.0, abs(r_eigs.max())):
            raise SynthesisError("R must be positive definite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @classmethod
    def from_diagonals(cls, q_diag, r_diag) -> "LqrWeights":
        q = np.asarray(q_diag, dtype=float)
        r = np.asarray(r_diag, dtype=float)
        if q.ndim != 1 or r.ndim != 1 or q.size == 0 or r.size == 0:
            raise ValueError("expected non-empty 1-d weight diagonals")
        return cls(np.diag(q), np.diag(r))


def default_weights(p: VehicleParams) -> LqrWeights:
    """Bryson-normalized hover weights (Bryson & Ho, 1975).

    Q = diag(1/x_max^2) with x_max = 2 cm of position, 0.2 m/s of velocity,
    10 deg of roll/pitch and 10 rad/s of body rate. R = diag(1/(0.3 u_max)^2),
    where u_max is the thrust headroom above hover at the top of the
    amplitude box and the two torque limits of the actuator fits, so each
    weight is in the units of its channel and the gain asks for a fraction
    of what the actuators can give.
    """
    act = _actuator(p)
    thrust, tau_r, tau_p = _cmd_to_wrench(act, p.A_limits[1], p.dA_limit, p.Vo_limit)
    u_max = (thrust - act[0], abs(tau_r), abs(tau_p))
    if not u_max[0] > 0.0:
        raise ConfigError("hover thrust is outside the actuator envelope")
    x_max = (0.02,) * 3 + (0.2,) * 3 + (math.radians(10.0),) * 2 + (10.0,) * 2
    return LqrWeights.from_diagonals(
        [1.0 / x**2 for x in x_max], [1.0 / (0.3 * u) ** 2 for u in u_max]
    )


@dataclass(frozen=True)
class LqrSolution:
    """Riccati solution P, gain K, and the certificates of the sampled loop.

    ``dare_residual`` is the relative residual of the DARE (see
    :func:`solve_dare`). ``closed_loop_eigs`` are the z-plane eigenvalues of
    A_d - B_d K at ``rate`` Hz, and ``zoh_spectral_radius`` their largest
    modulus.
    """

    K: np.ndarray
    P: np.ndarray
    closed_loop_eigs: np.ndarray
    dare_residual: float
    zoh_spectral_radius: float
    rate: float


def linearize_hover(p: VehicleParams) -> LinearModel:
    """Analytic Jacobians of the reduced dynamics at the hover trim."""
    A = np.zeros((NSIGMA, NSIGMA))
    A[0, 3] = A[1, 4] = A[2, 5] = 1.0       # d_dot = body velocity
    A[3, 7] = p.g                           # u_dot = g*theta
    A[4, 6] = -p.g                          # v_dot = -g*phi
    A[6, 8] = 1.0                           # phi_dot = p
    A[7, 9] = 1.0                           # theta_dot = q
    B = np.zeros((NSIGMA, NINPUT))
    B[5, 0] = 1.0 / p.total_mass            # w_dot from thrust deviation
    B[8, 1] = 1.0 / p.J[0]                  # p_dot from roll torque
    B[9, 2] = 1.0 / p.J[1]                  # q_dot from pitch torque
    return LinearModel(A, B)


# ---------------------------------------------------------------------------
# DARE solver
# ---------------------------------------------------------------------------

def _zoh(A: np.ndarray, B: np.ndarray, rate: float):
    """Exact zero-order-hold (A_d, B_d) at ``rate`` Hz: both blocks of one
    exponential of [[A, B], [0, 0]] / rate (Van Loan, IEEE TAC 1978).

    The block's powers are [[A^k, A^(k-1) B], [0, 0]], so A alone sets how
    fast the Taylor series converges: M is scaled by 2^-s until
    ||A / rate||_1 2^-s <= 1/2, where 16 terms leave a truncation below
    1e-19 of each block, and the result is squared s times.
    """
    n, m = B.shape
    a = float(np.linalg.norm(A, 1)) / rate
    s = max(0, math.ceil(math.log2(2.0 * a))) if a > 0.0 else 0
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    M /= rate * 2.0**s
    E = term = np.eye(n + m)
    for k in range(1, 17):
        term = term @ M / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E[:n, :n], E[:n, n:]


def _pbh_full_rank(M: np.ndarray, n: int) -> bool:
    """Rank test with column normalization (robust to wildly scaled columns)."""
    M = M.copy()
    norms = np.linalg.norm(M, axis=0)
    nz = norms > 0.0
    M[:, nz] /= norms[nz]
    return np.linalg.matrix_rank(M) >= n


def _check_stabilizable_detectable(Ad, Bd, Q):
    n = Ad.shape[0]
    eigs = np.linalg.eigvals(Ad)
    # symmetric square-root factor of Q for the detectability test
    q_eigs, q_vecs = np.linalg.eigh(Q)
    keep = q_eigs > 1e-12 * max(1.0, float(q_eigs.max(initial=0.0)))
    C = (np.sqrt(q_eigs[keep])[:, None] * q_vecs[:, keep].T)
    I = np.eye(n)
    for lam in dict.fromkeys(eigs):  # a repeated eigenvalue is tested once
        if abs(lam) < 1.0 - 1e-12:
            continue
        if not _pbh_full_rank(np.hstack([Ad - lam * I, Bd]).astype(complex), n):
            raise SynthesisError(
                f"(A_d, B_d) is not stabilizable: PBH rank defect at eigenvalue {lam:.6g}"
            )
        if C.size and not _pbh_full_rank(
            np.vstack([Ad - lam * I, C.astype(complex)]).T.conj(), n
        ):
            raise SynthesisError(
                f"(A_d, Q^1/2) is not detectable: PBH rank defect at eigenvalue {lam:.6g}"
            )
        if not C.size:
            raise SynthesisError("(A_d, Q^1/2) is not detectable: Q has no range")


def _doubling(A, G, H):
    """Limit of the doubling iteration from (A, G, H) (Anderson 1978).

    For symmetric PSD G and H it is the stabilizing solution of
    X = H + A'X (I + GX)^-1 A, after k steps the cost over 2^k samples;
    with G = 0 it is Smith's iteration for the Stein equation X = H + A'XA.
    It stops when a step no longer changes X at working precision.
    """
    I = np.eye(A.shape[0])
    for _ in range(64):  # a horizon of 2^64 samples
        # (I + G H)^-1 [A, G], one factorization for both blocks
        WA, WG = np.hsplit(np.linalg.solve(I + G @ H, np.hstack([A, G])), 2)
        H_next = H + A.T @ H @ WA
        H_next = 0.5 * (H_next + H_next.T)
        G = G + A @ WG @ A.T
        G = 0.5 * (G + G.T)
        A = A @ WA
        # max-abs, not Frobenius: its squares would overflow for entries past 1e154
        step = float(np.max(np.abs(H_next - H)))
        H = H_next
        if step <= 1e-15 * float(np.max(np.abs(H))):
            break
    return H


def _residual(Ad, Bd, Q, R, X):
    """Gain of X, and the DARE residual A'XA - X - A'XB S^-1 B'XA + Q
    (S = R + B'XB) with its norm over the sum of its four terms' norms (the
    usual relative residual for algebraic Riccati equations)."""
    BtXA = Bd.T @ X @ Ad
    K = np.linalg.solve(R + Bd.T @ X @ Bd, BtXA)
    AtXA = Ad.T @ X @ Ad
    F = BtXA.T @ K
    res = AtXA - X - F + Q
    res = 0.5 * (res + res.T)
    denom = sum(float(np.linalg.norm(M)) for M in (AtXA, X, F, Q))
    return K, res, float(np.linalg.norm(res)) / max(denom, np.finfo(float).tiny)


def _dare(Ad, Bd, Q, R):
    """Stabilizing DARE solution by doubling, then Newton polish, and its certificates.

    ``R`` is positive definite: ``solve_dare``, the one caller, passes
    ``LqrWeights.R`` (which refuses any other) over its largest diagonal entry.
    """
    G = Bd @ np.linalg.solve(R, Bd.T)
    # sampled far slower than its modes, a model overflows; the residual refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        X = _doubling(Ad, 0.5 * (G + G.T), Q)
        K, res, rel = _residual(Ad, Bd, Q, R, X)
        # Newton refinement (Hewer, IEEE TAC 1971): the correction E solves the
        # Stein equation E = res + Acl'E Acl. It stops when the residual stops
        # falling; this is what certifies ill-conditioned weights, whose doubled
        # P can sit at a residual of 1e-6.
        for _ in range(20):
            if rel <= 1e-13:
                break
            X_next = X + _doubling(Ad - Bd @ K, np.zeros_like(X), res)
            K_next, res_next, rel_next = _residual(Ad, Bd, Q, R, X_next)
            if not rel_next < rel:
                break
            X, K, res, rel = X_next, K_next, res_next, rel_next
    if not rel <= 1e-8:
        raise SynthesisError(f"DARE residual {rel:.3e} exceeds 1e-8")
    cl_eigs = np.sort_complex(np.linalg.eigvals(Ad - Bd @ K))
    rho = float(np.max(np.abs(cl_eigs)))
    if not rho < 1.0:
        raise SynthesisError(f"sampled closed loop is not stable: spectral radius {rho:.6g}")
    return X, K, cl_eigs, rel, rho


def solve_dare(model: LinearModel, weights: LqrWeights, rate: float) -> LqrSolution:
    """The LQR gain of ``model`` sampled with a zero-order hold at ``rate`` Hz.

    Solves the DARE on the ZOH pair (A_d, B_d) with the per-sample cost
    sum x'Qx + u'Ru, Q and R as given: a factor common to both, such as the
    sample period T that turns Q dt into Q T, leaves K unchanged. Weights
    are jointly normalized by max(diag(R)) before solving (a mathematical
    no-op for K that conditions the iteration); P is scaled back. A joint
    Q/R rescaling by a power of two is therefore an exact no-op
    numerically; any other factor changes K only by rounding.
    """
    A, B = model.A, model.B
    Q, R = weights.Q, weights.R
    if Q.shape != A.shape or R.shape != (B.shape[1], B.shape[1]):
        raise ValueError(
            f"weight shapes {Q.shape}/{R.shape} do not match model {A.shape}/{B.shape}"
        )
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    Ad, Bd = _zoh(A, B, rate)
    _check_stabilizable_detectable(Ad, Bd, Q)
    s = float(np.max(np.diag(R)))  # > 0: LqrWeights holds R positive definite
    P_n, K, cl_eigs, rel, rho = _dare(Ad, Bd, Q / s, R / s)
    return LqrSolution(K=K, P=s * P_n, closed_loop_eigs=cl_eigs, dare_residual=rel,
                       zoh_spectral_radius=rho, rate=rate)


def lqr_gain(
    p: VehicleParams, weights: LqrWeights | None = None, rate: float = CONTROL_RATE
) -> LqrSolution:
    """Hover gain for a vehicle, synthesized for the loop sampled at ``rate``.

    Analytic linearization, then :func:`solve_dare` at ``rate`` Hz; weights
    default to :func:`default_weights` of ``p``.
    """
    return solve_dare(linearize_hover(p), weights or default_weights(p), rate)


# ---------------------------------------------------------------------------
# gain file I/O (the table format with no header: row-major, full-precision decimal)
# ---------------------------------------------------------------------------

def write_gain_csv(path: str, K: np.ndarray) -> None:
    atomic_write_text(path, rows_text(np.atleast_2d(np.asarray(K, dtype=float))))


def read_gain_csv(path: str) -> np.ndarray:
    """The matrix :func:`write_gain_csv` writes, read as a table's rows are:
    as many columns as the first line that is not blank, named ``column 1``
    on. Failures raise SchemaError ``path:line: ...``."""
    lines = _lines(path)
    top = next((line for line in lines if line.strip()), None)
    if top is None:
        raise SchemaError(f"{path}: no data rows")
    return _read_rows(path, lines, 1, [f"column {j}" for j in range(1, len(_header(top)) + 1)])
