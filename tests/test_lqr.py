"""Linearization and discrete-Riccati synthesis checks.

The synthesized gain is checked against scipy's ordered-QZ
``solve_discrete_are`` and its Stein solve, and the ZOH blocks against
``expm``: test-only references that share no machinery with the solver
(structured doubling, then Newton polish). The hand cases have closed
forms: the scalar DARE's golden ratio, and the double integrator's CARE,
which the DARE with weights Q T and R T approaches as T -> 0.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

import oracles
from conftest import UNSTABLE_WEIGHTS, finite_diff_jacobians, reduced_dynamics
from flapsim import lqr
from flapsim.errors import ConfigError, SynthesisError
from flapsim.lqr import (
    CONTROL_RATE,
    _zoh,
    INPUT_LABELS,
    SIGMA_LABELS,
    LinearModel,
    LqrWeights,
    default_weights,
    linearize_hover,
    lqr_gain,
    read_gain_csv,
    solve_dare,
    write_gain_csv,
)

THRUST_IDX = (2, 5)            # d_z, w
ROLL_IDX = (1, 4, 6, 8)        # d_y, v, phi, p
PITCH_IDX = (0, 3, 7, 9)       # d_x, u, theta, q

# the rate of the random suites: ten samples a second on models whose
# fastest open-loop modes are a few rad/s
RANDOM_RATE = 10.0


def dare_residual(Ad, Bd, Q, R, P):
    # relative residual: ||A'PA - P - A'PB (R + B'PB)^-1 B'PA + Q|| over the
    # sum of the four term norms
    AtPA = Ad.T @ P @ Ad
    F = Ad.T @ P @ Bd @ np.linalg.solve(R + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
    res = AtPA - P - F + Q
    denom = (
        np.linalg.norm(AtPA)
        + np.linalg.norm(P)
        + np.linalg.norm(F)
        + np.linalg.norm(Q)
    )
    return np.linalg.norm(res) / denom


def scipy_gain(A, B, Q, R, rate):
    """scipy's DARE gain on the same ZOH model and jointly normalized weights."""
    Ad, Bd = oracles.zoh_discretize(A, B, 1.0 / rate)
    s = np.max(np.diag(R))
    P = linalg.solve_discrete_are(Ad, Bd, Q / s, R / s)
    return np.linalg.solve(R / s + Bd.T @ P @ Bd, Bd.T @ P @ Ad)


def test_linearize_hover_structure(params):
    m = linearize_hover(params)
    A, B = m.A, m.B
    assert A.shape == (10, 10) and B.shape == (10, 3)
    assert A[3, 7] == params.g == 9.81
    assert A[4, 6] == -params.g
    assert A[0, 3] == A[1, 4] == A[2, 5] == 1.0
    assert A[6, 8] == A[7, 9] == 1.0
    assert B[5, 0] == pytest.approx(1.0 / params.total_mass, rel=1e-12)
    assert B[8, 1] == pytest.approx(3.2051e8, rel=1e-4)
    assert B[8, 1] == pytest.approx(1.0 / params.J[0], rel=1e-12)
    assert B[9, 2] == pytest.approx(1.0 / params.J[1], rel=1e-12)
    # exactly 7 nonzero entries in A, 3 in B
    assert np.count_nonzero(A) == 7
    assert np.count_nonzero(B) == 3
    # the d_z row couples only to w
    row = A[2].copy()
    row[5] = 0.0
    assert np.all(row == 0.0)


def test_linearization_matches_finite_differences(params):
    m = linearize_hover(params)
    A_fd, B_fd = finite_diff_jacobians(params, h=1e-6)
    for M, M_fd in ((m.A, A_fd), (m.B, B_fd)):
        nz = M != 0.0
        assert np.all(np.abs(M_fd[nz] - M[nz]) <= 1e-6 * np.abs(M[nz]))
        assert np.all(np.abs(M_fd[~nz]) <= 1e-8)


def test_reduced_dynamics_matches_full_model_at_samples(params):
    # reduced flow equals the linear model to first order away from zero
    m = linearize_hover(params)
    rng = np.random.default_rng(51)
    for _ in range(20):
        sigma = 1e-5 * rng.normal(size=10)
        delta = np.array([1e-6, 1e-10, 1e-10]) * rng.normal(size=3)
        nl = reduced_dynamics(params, sigma, delta)
        lin = m.A @ sigma + m.B @ delta
        np.testing.assert_allclose(nl, lin, atol=1e-8)


def test_dare_scalar_hand_case():
    # A = 0, B = 1 at 1 Hz samples to a = b = 1: p^2 = p + 1, the golden ratio
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    sol = solve_dare(LinearModel([[0.0]], [[1.0]]), LqrWeights([[1.0]], [[1.0]]), 1.0)
    assert abs(sol.P[0, 0] - phi) <= 1e-10
    assert abs(sol.K[0, 0] - 1.0 / phi) <= 1e-10
    assert abs(sol.closed_loop_eigs[0] - 1.0 / phi**2) <= 1e-10
    assert sol.zoh_spectral_radius == abs(sol.closed_loop_eigs[0])
    assert sol.rate == 1.0


@pytest.mark.parametrize("rate", [1e2, 1e3, 1e4])
def test_dare_double_integrator_tends_to_the_care(rate):
    # weights Q T and R T: the sampled problem's cost tends to the continuous
    # one, whose P = [[sqrt 3, 1], [1, sqrt 3]] and K = [1, sqrt 3]; the error
    # falls as T (measured: 0.50 T in P and 1.00 T in K)
    s3 = math.sqrt(3.0)
    T = 1.0 / rate
    sol = solve_dare(
        LinearModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
        LqrWeights(T * np.eye(2), [[T]]),
        rate,
    )
    assert np.max(np.abs(sol.P - [[s3, 1.0], [1.0, s3]])) <= 2.0 * T
    assert np.max(np.abs(sol.K - [[1.0, s3]])) <= 2.0 * T


# the two 100-system random suites: Q from a square factor, R diagonal up to
# r_max. Seed 52 is this file's; seed 7 is acceptance item a01's.
RANDOM_SUITES = {
    52: (lambda L: L.T @ L, 3.0),
    7: (lambda L: L @ L.T + 1e-3 * np.eye(len(L)), 2.0),
}


def random_systems(seed):
    q_of, r_max = RANDOM_SUITES[seed]
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        Q = q_of(rng.normal(size=(n, n)))
        R = np.diag(rng.uniform(0.5, r_max, m))
        yield A, B, Q, R


def test_dare_random_stabilizable_systems():
    for A, B, Q, R in random_systems(52):
        sol = solve_dare(LinearModel(A, B), LqrWeights(Q, R), RANDOM_RATE)
        # independent recomputation of the certificate quantities
        Ad, Bd = oracles.zoh_discretize(A, B, 1.0 / RANDOM_RATE)
        assert dare_residual(Ad, Bd, Q, R, sol.P) <= 1e-8
        assert np.max(np.abs(np.linalg.eigvals(Ad - Bd @ sol.K))) < 1.0
        assert np.max(np.abs(sol.P - sol.P.T)) <= 1e-10 * np.linalg.norm(sol.P)
        assert np.min(np.linalg.eigvalsh(sol.P)) >= -1e-10 * np.linalg.norm(sol.P)


@pytest.mark.parametrize("seed", sorted(RANDOM_SUITES))
def test_dare_residual_no_worse_than_scipys(seed):
    for A, B, Q, R in random_systems(seed):
        Ad, Bd = _zoh(A, B, RANDOM_RATE)
        res = dare_residual(Ad, Bd, Q, R, solve_dare(LinearModel(A, B), LqrWeights(Q, R),
                                                     RANDOM_RATE).P)
        ref = dare_residual(Ad, Bd, Q, R, linalg.solve_discrete_are(Ad, Bd, Q, R))
        assert res <= 1e-8
        assert res <= max(10.0 * ref, 1e-12)


def test_slowly_sampled_model_is_refused_without_numpy_warnings():
    # system 72 of a01's suite sampled at 1 Hz, far slower than its modes
    # (A_d has eigenvalues near 300): the doubled iterates overflow, and the
    # residual certificate refuses what they leave with no RuntimeWarning
    A, B, Q, R = list(random_systems(7))[72]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SynthesisError, match=r"^DARE residual \S+ exceeds 1e-8$"):
            solve_dare(LinearModel(A, B), LqrWeights(Q, R), 1.0)


def test_stein_doubling_matches_scipys():
    # the Newton step's solve, X = H + A'XA by doubling with G = 0, against
    # scipy's Schur-form solve on random Schur-stable matrices up to n = 40
    rng = np.random.default_rng(53)
    for n in (1, 2, 10, 20, 40):
        A = rng.normal(size=(n, n))
        A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
        H = rng.normal(size=(n, n))
        H += H.T
        ref = linalg.solve_discrete_lyapunov(A.T, H)
        X = lqr._doubling(A, np.zeros((n, n)), H)
        assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("rate", [60.0, 120.0, 240.0, 480.0, 960.0])
def test_hover_gain_matches_scipys(params, rate):
    m = linearize_hover(params)
    w = default_weights(params)
    K = scipy_gain(m.A, m.B, w.Q, w.R, rate)
    gain = lqr_gain(params, rate=rate).K
    rel = np.max(np.abs(gain - K), axis=1) / np.max(np.abs(K), axis=1)
    assert np.all(rel <= 1e-12)


@pytest.mark.parametrize("rate", [240.0, 120.0, 60.0])
def test_zoh_matches_scipy_expm(params, rate):
    m = linearize_hover(params)
    n, k = m.B.shape
    M = np.zeros((n + k, n + k))
    M[:n, :n] = m.A
    M[:n, n:] = m.B
    E = linalg.expm(M / rate)
    Ad, Bd = _zoh(m.A, m.B, rate)
    for ours, ref in ((Ad, E[:n, :n]), (Bd, E[:n, n:])):  # B columns differ in scale by ~6e4
        assert np.all(np.max(np.abs(ours - ref), axis=0) <= 1e-12 * np.max(np.abs(ref), axis=0))


def test_robofly_solution_invariants(params, gain_solution):
    sol = gain_solution
    assert sol.K.shape == (3, 10)
    assert sol.rate == CONTROL_RATE
    assert sol.dare_residual <= 1e-8
    assert sol.zoh_spectral_radius == np.max(np.abs(sol.closed_loop_eigs)) < 1.0
    assert np.max(np.abs(sol.P - sol.P.T)) <= 1e-10 * np.linalg.norm(sol.P)
    assert np.min(np.linalg.eigvalsh(sol.P)) >= -1e-10 * np.linalg.norm(sol.P)
    m = linearize_hover(params)
    w = default_weights(params)
    Ad, Bd = oracles.zoh_discretize(m.A, m.B, 1.0 / CONTROL_RATE)
    assert dare_residual(Ad, Bd, w.Q, w.R, sol.P) <= 1e-8
    np.testing.assert_allclose(np.sort(np.abs(sol.closed_loop_eigs)),
                               np.sort(np.abs(np.linalg.eigvals(Ad - Bd @ sol.K))), rtol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q_exp=st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10),
    r_exp=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
)
def test_dare_hover_model_with_scaled_default_weights(params, q_exp, r_exp):
    # each diagonal entry of the default weights scaled by 10^U(-3, 3)
    m = linearize_hover(params)
    w = default_weights(params)
    Q = np.diag(np.diag(w.Q) * 10.0 ** np.asarray(q_exp))
    R = np.diag(np.diag(w.R) * 10.0 ** np.asarray(r_exp))
    sol = solve_dare(m, LqrWeights(Q, R), CONTROL_RATE)
    Ad, Bd = oracles.zoh_discretize(m.A, m.B, 1.0 / CONTROL_RATE)
    assert dare_residual(Ad, Bd, Q, R, sol.P) <= 1e-8
    assert np.max(np.abs(np.linalg.eigvals(Ad - Bd @ sol.K))) < 1.0


def test_gain_decoupling_sparsity(gain):
    for row, idx in ((0, THRUST_IDX), (1, ROLL_IDX), (2, PITCH_IDX)):
        mask = np.ones(10, dtype=bool)
        mask[list(idx)] = False
        assert np.all(gain[row, mask] == 0.0)
        assert np.all(np.abs(gain[row, ~mask]) > 0.0)


def test_gain_signs_drive_toward_setpoint(gain):
    # u = K (sigma_des - sigma): positive z error must raise thrust,
    # positive x error must pitch the nose down (positive pitch torque)
    assert gain[0, 2] > 0.0 and gain[0, 5] > 0.0
    assert gain[2, 0] > 0.0 and gain[2, 3] > 0.0
    # positive y error needs a negative roll
    assert gain[1, 1] < 0.0 and gain[1, 4] < 0.0


def test_gain_invariant_under_joint_weight_scaling(params, gain):
    w = default_weights(params)
    for alpha in (0.1, 10.0):
        scaled = LqrWeights(alpha * w.Q, alpha * w.R)
        K2 = lqr_gain(params, scaled).K
        assert np.max(np.abs(K2 - gain)) <= 1e-10 * max(1.0, np.max(np.abs(gain)))


def test_default_weights_values(params):
    w = default_weights(params)
    deg10 = math.radians(10.0)
    np.testing.assert_allclose(
        np.diag(w.Q),
        [2500.0] * 3 + [25.0] * 3 + [1.0 / deg10**2] * 2 + [0.01] * 2,
        rtol=1e-12,
    )
    # R = 1/(0.3 u_max)^2: thrust headroom above hover, then the torque limits
    u_max = [
        params.thrust_slope * params.A_limits[1] + params.thrust_intercept
        - params.total_mass * params.g,
        params.roll_slope * params.dA_limit,
        params.pitch_slope * params.Vo_limit,
    ]
    np.testing.assert_allclose(
        np.diag(w.R), [1.0 / (0.3 * u) ** 2 for u in u_max], rtol=1e-12
    )
    assert len(SIGMA_LABELS) == 10 and len(INPUT_LABELS) == 3


def test_default_weights_reject_profile_that_cannot_hover(params):
    heavy = replace(params, m=1e-3)
    with pytest.raises(ConfigError, match="hover thrust"):
        default_weights(heavy)


def test_default_gain_is_stable_when_sampled(params, gain):
    # independent ZOH route (tests/oracles.py) at the harness control rate
    m = linearize_hover(params)
    Ad, Bd = oracles.zoh_discretize(m.A, m.B, 1.0 / CONTROL_RATE)
    rho = np.max(np.abs(np.linalg.eigvals(Ad - Bd @ gain)))
    assert rho < 1.0


@pytest.mark.parametrize("rate", [60.0, 120.0, 480.0])
def test_lqr_gain_follows_the_rate(params, gain, rate):
    sol = lqr_gain(params, rate=rate)
    assert sol.rate == rate
    m = linearize_hover(params)
    Ad, Bd = oracles.zoh_discretize(m.A, m.B, 1.0 / rate)
    assert np.max(np.abs(np.linalg.eigvals(Ad - Bd @ sol.K))) < 1.0
    assert not np.allclose(sol.K, gain, rtol=1e-3)


def test_lqr_gain_certifies_the_old_stock_weights(params):
    # unit R on torques in N m, a million times their scale: the gain barely
    # acts, so the sampled loop is certified just inside the unit circle
    sol = lqr_gain(params, UNSTABLE_WEIGHTS)
    assert sol.dare_residual <= 1e-8
    assert sol.zoh_spectral_radius == pytest.approx(0.998683, abs=1e-6)
    # the torque asked per cm of position error, against the torque limits
    per_cm = 0.01 * np.abs(np.array([sol.K[1, 1], sol.K[2, 0]]))
    limits = np.array([abs(params.roll_slope) * params.dA_limit,
                       abs(params.pitch_slope) * params.Vo_limit])
    assert np.all(per_cm / limits < 1e-4)


def test_newton_polish_certifies_what_doubling_alone_cannot(params):
    # on the old stock weights the doubled P sits at a relative residual near
    # 1e-6; the Newton steps bring it under the 1e-8 certificate
    m = linearize_hover(params)
    Ad, Bd = _zoh(m.A, m.B, CONTROL_RATE)
    s = np.max(np.diag(UNSTABLE_WEIGHTS.R))
    Q, R = UNSTABLE_WEIGHTS.Q / s, UNSTABLE_WEIGHTS.R / s
    doubled = lqr._doubling(Ad, Bd @ np.linalg.solve(R, Bd.T), Q)
    assert dare_residual(Ad, Bd, Q, R, doubled) > 1e-7
    assert dare_residual(Ad, Bd, Q, R, lqr._dare(Ad, Bd, Q, R)[0]) <= 1e-8


def test_weights_validation():
    with pytest.raises(SynthesisError):
        LqrWeights(np.diag([1.0] * 9 + [-1e-6]), np.eye(3))     # indefinite Q
    with pytest.raises(SynthesisError):
        LqrWeights(np.eye(10), np.diag([1.0, 1.0, 0.0]))         # singular R
    asym = np.eye(10)
    asym[0, 1] = 1e-6
    with pytest.raises(SynthesisError):
        LqrWeights(asym, np.eye(3))
    with pytest.raises(ValueError):
        LqrWeights(np.ones((10, 3)), np.eye(3))
    with pytest.raises(ValueError):
        LqrWeights.from_diagonals([1.0, 2.0], [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["Q", "R"])
def test_weights_refuse_non_finite_entries_by_name(which, bad):
    # refused before the symmetry test, whose subtraction would warn on nan
    q, r = [1.0] * 10, [1.0] * 3
    (q if which == "Q" else r)[1] = bad
    with pytest.raises(ValueError, match=f"^{which} must be finite$"):
        LqrWeights.from_diagonals(q, r)


def test_unstabilizable_pair_rejected():
    A = np.diag([1.0, 2.0])
    B = np.array([[1.0], [0.0]])   # unstable mode 2 unreachable
    with pytest.raises(SynthesisError, match="stabilizable"):
        solve_dare(LinearModel(A, B), LqrWeights(np.eye(2), [[1.0]]), 10.0)


def test_undetectable_cost_rejected():
    A = np.diag([1.0, -1.0])
    with pytest.raises(SynthesisError, match="detectable"):
        solve_dare(LinearModel(A, np.eye(2)), LqrWeights(np.zeros((2, 2)), np.eye(2)), 10.0)


def test_pbh_runs_once_per_distinct_eigenvalue(params, monkeypatch):
    # the hover A_d is unit upper triangular, ten eigenvalues exactly 1: one
    # stabilizability and one detectability rank test decide them all
    calls = []

    def counted(M, n):
        calls.append(n)
        return full_rank(M, n)

    full_rank = lqr._pbh_full_rank
    monkeypatch.setattr(lqr, "_pbh_full_rank", counted)
    m = linearize_hover(params)
    assert np.linalg.eigvals(_zoh(m.A, m.B, CONTROL_RATE)[0]).tolist() == [1.0] * 10
    solve_dare(m, default_weights(params), CONTROL_RATE)
    assert len(calls) == 2


def test_barely_reached_integrator_refused_by_spectral_radius():
    # an integrator reached with b = 1e-17 is stabilizable, but its closed
    # loop 1 - 1e-17 rounds to 1: the sampled loop is not certified
    with pytest.raises(SynthesisError, match="spectral radius 1$"):
        solve_dare(LinearModel([[0.0]], [[1e-17]]), LqrWeights([[1.0]], [[1.0]]), 1.0)


def test_mismatched_weight_shapes_rejected():
    with pytest.raises(ValueError, match="do not match"):
        solve_dare(
            LinearModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
            LqrWeights(np.eye(3), [[1.0]]),
            10.0,
        )


@pytest.mark.parametrize("rate", [0.0, -240.0, math.inf, math.nan])
def test_bad_rates_rejected(rate):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        solve_dare(LinearModel([[0.0]], [[1.0]]), LqrWeights([[1.0]], [[1.0]]), rate)


def test_gain_csv_round_trip(tmp_path, gain):
    path = tmp_path / "gains.csv"
    write_gain_csv(str(path), gain)
    back = read_gain_csv(str(path))
    assert np.array_equal(back, gain)
    # writing the same matrix twice is byte-identical
    path2 = tmp_path / "gains2.csv"
    write_gain_csv(str(path2), gain)
    assert path.read_bytes() == path2.read_bytes()


def test_gain_csv_rejects_bad_files(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="ragged.csv:2: expected 2 columns, got 1"):
        read_gain_csv(str(ragged))
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("1.0,spam\n")
    with pytest.raises(ValueError, match="garbage.csv:1"):
        read_gain_csv(str(garbage))
    nonfinite = tmp_path / "inf.csv"
    nonfinite.write_text("1.0,inf\n")
    with pytest.raises(ValueError, match=re.escape("inf.csv:1: column 2 is not finite (inf)")):
        read_gain_csv(str(nonfinite))
    # blank lines count for the line number and hold no row
    late = tmp_path / "late.csv"
    late.write_text("\n1.0,2.0\n\n3.0,nan\n")
    with pytest.raises(ValueError, match=re.escape("late.csv:4: column 2 is not finite (nan)")):
        read_gain_csv(str(late))
    for text in ("", "\n  \n"):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        with pytest.raises(ValueError, match="empty.csv: no data rows"):
            read_gain_csv(str(empty))


def test_gain_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "gains.csv"
    path.write_text("\n1.0,2.0\n\n3.0,4.5\n\n")
    np.testing.assert_array_equal(read_gain_csv(str(path)), [[1.0, 2.0], [3.0, 4.5]])
