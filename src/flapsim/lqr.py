"""Hover linearization and infinite-horizon continuous LQR synthesis.

The reduced design model has 10 states

    sigma = (d_x, d_y, d_z, u, v, w, phi, theta, p, q)

where d are body-frame position coordinates whose rate is taken to be the
body velocity (exact at the hover trim, where the body and world frames
coincide), and 3 inputs: wrench deviations from hover

    delta = (dGamma, tau_r, tau_p).

Yaw and yaw rate are excluded: the vehicle has no yaw actuation and the
remaining dynamics are yaw-symmetric.

``solve_care`` computes the stabilizing solution of

    A'P + PA - P B R^-1 B' P + Q = 0

from the stable invariant subspace [U1; U2] of the Hamiltonian
[[A, -G], [-Q, -A']], G = B R^-1 B', as P = U2 U1^-1 (MacFarlane 1963,
Potter 1966), then polishes P by Newton/Lyapunov refinement (Kleinman,
IEEE TAC 1968) until the relative residual stops falling, and raises
unless it is at most 1e-8. Everything is numpy: ``np.linalg.eig`` for
the subspace and one Kronecker-form ``np.linalg.solve`` per Lyapunov
step, which is cheap at these sizes. The gain is stored positive,

    K = R^-1 B' P,   u = K (sigma_des - sigma).

``lqr_gain`` then certifies the gain for the loop that runs it: the model
is discretized with a zero-order hold at ``CONTROL_RATE`` (Franklin,
Powell & Workman, *Digital Control of Dynamic Systems*) and the sampled
closed loop A_d - B_d K must have spectral radius below one; the radius
is returned with the solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SynthesisError
from .ioutil import atomic_write_text
from .vehicle import VehicleParams, hover_thrust

__all__ = [
    "SIGMA_LABELS",
    "INPUT_LABELS",
    "CONTROL_RATE",
    "LinearModel",
    "LqrWeights",
    "LqrSolution",
    "linearize_hover",
    "default_weights",
    "solve_care",
    "lqr_gain",
    "write_gain_csv",
    "read_gain_csv",
]

SIGMA_LABELS = ("d_x", "d_y", "d_z", "u", "v", "w", "phi", "theta", "p", "q")
INPUT_LABELS = ("dGamma", "tau_r", "tau_p")

NSIGMA = 10
NINPUT = 3

CONTROL_RATE = 240.0    # [Hz] default control rate; lqr_gain certifies for it


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
    """Quadratic state/input weights; Q sym PSD, R sym PD (checked)."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self) -> None:
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        if Q.shape[0] != Q.shape[1] or R.shape[0] != R.shape[1]:
            raise ValueError("Q and R must be square")
        for name, M in (("Q", Q), ("R", R)):
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
    u_max = (
        p.thrust_slope * p.A_limits[1] + p.thrust_intercept - hover_thrust(p),
        abs(p.roll_slope) * p.dA_limit,
        abs(p.pitch_slope) * p.Vo_limit,
    )
    if not u_max[0] > 0.0:
        raise ConfigError("hover thrust is outside the actuator envelope")
    x_max = (0.02,) * 3 + (0.2,) * 3 + (math.radians(10.0),) * 2 + (10.0,) * 2
    return LqrWeights.from_diagonals(
        [1.0 / x**2 for x in x_max], [1.0 / (0.3 * u) ** 2 for u in u_max]
    )


@dataclass(frozen=True)
class LqrSolution:
    """Riccati solution P, gain K = R^-1 B'P, and diagnostics.

    ``care_residual`` is the Frobenius norm of A'P + PA - PBR^-1B'P + Q
    divided by the sum of the norms of its four terms (the usual relative
    residual for algebraic Riccati equations). ``zoh_spectral_radius`` is
    that of the closed loop sampled at ``CONTROL_RATE``; :func:`lqr_gain`
    sets it, :func:`solve_care` leaves it None.
    """

    K: np.ndarray
    P: np.ndarray
    closed_loop_eigs: np.ndarray
    care_residual: float
    zoh_spectral_radius: float | None = None


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
# CARE solver
# ---------------------------------------------------------------------------

def _pbh_full_rank(M: np.ndarray, n: int) -> bool:
    """Rank test with column normalization (robust to wildly scaled columns)."""
    M = M.copy()
    norms = np.linalg.norm(M, axis=0)
    nz = norms > 0.0
    M[:, nz] /= norms[nz]
    return np.linalg.matrix_rank(M) >= n


def _check_stabilizable_detectable(A, B, Q):
    n = A.shape[0]
    eigs = np.linalg.eigvals(A)
    # symmetric square-root factor of Q for the detectability test
    q_eigs, q_vecs = np.linalg.eigh(Q)
    keep = q_eigs > 1e-12 * max(1.0, float(q_eigs.max(initial=0.0)))
    C = (np.sqrt(q_eigs[keep])[:, None] * q_vecs[:, keep].T)
    I = np.eye(n)
    for lam in eigs:
        if lam.real < -1e-12 * max(1.0, abs(lam)):
            continue
        if not _pbh_full_rank(np.hstack([A - lam * I, B]).astype(complex), n):
            raise SynthesisError(
                f"(A, B) is not stabilizable: PBH rank defect at eigenvalue {lam:.6g}"
            )
        if C.size and not _pbh_full_rank(
            np.vstack([A - lam * I, C.astype(complex)]).T.conj(), n
        ):
            raise SynthesisError(
                f"(A, Q^1/2) is not detectable: PBH rank defect at eigenvalue {lam:.6g}"
            )
        if not C.size:
            raise SynthesisError("(A, Q^1/2) is not detectable: Q has no range")


def _care(A, B, Q, R):
    """Stabilizing CARE solution: the Hamiltonian's stable subspace, then Newton polish."""
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"R is not positive definite: {exc}") from exc
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    n = A.shape[0]
    lam, V = np.linalg.eig(np.block([[A, -G], [-Q, -A.T]]))
    # scale-free test: eigenvalues near the axis leave the stable subspace undefined
    if np.any(np.abs(lam.real) <= 1e-6 * np.abs(lam)):
        raise SynthesisError(
            "CARE solve failed: the Hamiltonian has eigenvalues on the imaginary axis"
        )
    U = V[:, lam.real < 0.0]
    if U.shape[1] != n or np.linalg.cond(U[:n]) > 1.0 / np.finfo(float).eps:
        raise SynthesisError("CARE solve failed: the stable subspace has singular U1")
    P = np.linalg.solve(U[:n].T, U[n:].T).real  # (U2 U1^-1)' = U1'^-1 U2'; P is symmetric
    P = 0.5 * (P + P.T)

    # Newton/Lyapunov refinement; also serves as the convergence certificate.
    # The relative residual normalizes by the sum of the term norms rather
    # than ||Q|| alone: when ||P|| >> ||Q|| the residual has a floating-point
    # floor near eps*||P G P|| that no solution method can beat, so a
    # Q-relative measure would reject solutions that are accurate to working
    # precision. ||P A|| = ||A^T P|| for symmetric P, hence the factor 2.
    def _residual(Pc):
        r = A.T @ Pc + Pc @ A - Pc @ G @ Pc + Q
        denom = (
            2.0 * float(np.linalg.norm(A.T @ Pc))
            + float(np.linalg.norm(Pc @ G @ Pc))
            + float(np.linalg.norm(Q))
        )
        return float(np.linalg.norm(r)) / max(denom, np.finfo(float).tiny), r

    rel, res = _residual(P)
    best_P, best_rel = P, rel
    I = np.eye(n)
    for _ in range(20):
        if best_rel <= 1e-13:
            break
        Acl = A - G @ P
        # Acl'X + X Acl = -res, row-major vectorized: (Acl' (x) I + I (x) Acl') vec X
        try:
            X = np.linalg.solve(np.kron(Acl.T, I) + np.kron(I, Acl.T), -res.ravel())
        except np.linalg.LinAlgError as exc:
            raise SynthesisError(f"Lyapunov refinement failed: {exc}") from exc
        X = X.reshape(n, n)
        P = P + X
        P = 0.5 * (P + P.T)
        rel, res = _residual(P)
        if rel < best_rel:
            best_P, best_rel = P, rel
        else:
            break  # no further improvement: at the attainable floor
    P, rel = best_P, best_rel
    if rel > 1e-8:
        raise SynthesisError(
            f"CARE residual {rel:.3e} exceeds 1e-8 after refinement"
        )

    K = np.linalg.solve(R, B.T @ P)
    cl_eigs = np.sort_complex(np.linalg.eigvals(A - B @ K))
    if np.any(cl_eigs.real >= 0.0):
        raise SynthesisError("closed loop is not Hurwitz")
    return P, K, cl_eigs, rel


def solve_care(model: LinearModel, weights: LqrWeights) -> LqrSolution:
    """Solve the CARE for the given model/weights and package the gain.

    Weights are jointly normalized by max(diag(R)) before solving (a
    mathematical no-op for K that conditions the Riccati solve); P is scaled
    back. A joint Q/R rescaling by a power of two is therefore an exact
    no-op numerically; any other factor changes K only by rounding.
    """
    A, B = model.A, model.B
    Q, R = weights.Q, weights.R
    if Q.shape != A.shape or R.shape != (B.shape[1], B.shape[1]):
        raise ValueError(
            f"weight shapes {Q.shape}/{R.shape} do not match model {A.shape}/{B.shape}"
        )
    _check_stabilizable_detectable(A, B, Q)
    s = float(np.max(np.diag(R)))  # > 0: LqrWeights holds R positive definite
    P_n, K, cl_eigs, rel = _care(A, B, Q / s, R / s)
    return LqrSolution(K=K, P=s * P_n, closed_loop_eigs=cl_eigs, care_residual=rel)


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


def _zoh_spectral_radius(model: LinearModel, K: np.ndarray, rate: float) -> float:
    """Spectral radius of the closed loop A_d - B_d K sampled at ``rate`` Hz."""
    Ad, Bd = _zoh(model.A, model.B, rate)
    return float(np.max(np.abs(np.linalg.eigvals(Ad - Bd @ K))))


def lqr_gain(p: VehicleParams, weights: LqrWeights | None = None) -> LqrSolution:
    """Hover gain for a vehicle, certified for the sampled loop.

    Analytic linearization + CARE solve; raises :class:`SynthesisError`
    unless the gain also stabilizes the model under a zero-order hold at
    ``CONTROL_RATE`` (spectral radius of A_d - B_d K below one), which the
    solution carries as ``zoh_spectral_radius``. Weights default to
    :func:`default_weights` of ``p``.
    """
    model = linearize_hover(p)
    sol = solve_care(model, weights or default_weights(p))
    rho = _zoh_spectral_radius(model, sol.K, CONTROL_RATE)
    if not rho < 1.0:
        raise SynthesisError(
            f"gain is unstable when sampled: ZOH spectral radius {rho:.4g} >= 1 "
            f"at {CONTROL_RATE:g} Hz"
        )
    return replace(sol, zoh_spectral_radius=rho)


# ---------------------------------------------------------------------------
# gain file I/O (plain CSV, row-major, full-precision decimal)
# ---------------------------------------------------------------------------

def write_gain_csv(path: str, K: np.ndarray) -> None:
    K = np.atleast_2d(np.asarray(K, dtype=float))
    text = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in K)
    atomic_write_text(path, text)


def read_gain_csv(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: bad gain entry ({exc})") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path}: ragged or empty gain matrix")
    K = np.array(rows)
    if not np.all(np.isfinite(K)):
        raise ValueError(f"{path}: non-finite gain entry")
    return K
