"""Release acceptance checklist: one test per item, run with ``pytest -v``.

Each test prints the measured quantities before asserting, so a failing
line carries the numbers. Items 4-6 encode the paper's flight-test-grade
tracking targets (hover RMS < 4.17 cm, circle RMS <= 2.8 cm with <= 10 %
saturation, pulse recovery within 2 s). They run on the stock gain of
``lqr_gain``, whose weights are normalized per channel and which is
designed and certified for the 240 Hz sampled loop; item 10 runs items 5
and 6 at 120 Hz on the gain designed for 120 Hz. The bounds are targets, not
calibrated expectations: a regression must show up as a failure here, not
as a moved bound.
"""

import dataclasses
import math
import time
from importlib import resources

import numpy as np
import pytest
from scipy import linalg

import oracles
from conftest import finite_diff_jacobians, make_trim_flight

from flapsim.dynamics import SimState, state_derivative
from flapsim.harness import load_scenario, metrics, run_scenario, scenario_from_dict
from flapsim.kinematics import (
    EulerAngles321,
    euler_to_quat,
    quat_to_rotmat,
    rotmat_to_euler,
    wrap_angle,
)
from flapsim.lqr import (
    LinearModel, LqrWeights, default_weights, linearize_hover, lqr_gain, solve_dare,
)
from flapsim.pipeline import ACCEL_AXES, estimate_body_offset, reconstruct_runlog, validate_model
from flapsim.vehicle import Wrench, hover_thrust, wrench_to_cmd


def dare_residual(Ad, Bd, Q, R, P):
    """Relative DARE residual, normalized by the sum of the term norms."""
    AtPA = Ad.T @ P @ Ad
    F = Ad.T @ P @ Bd @ np.linalg.solve(R + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
    res = AtPA - P - F + Q
    denom = (
        np.linalg.norm(AtPA)
        + np.linalg.norm(P)
        + np.linalg.norm(F)
        + np.linalg.norm(Q)
    )
    return float(np.linalg.norm(res) / denom)


def bundled(name):
    ref = resources.files("flapsim") / "scenarios" / f"{name}.scenario"
    with resources.as_file(ref) as path:
        return load_scenario(path)


@pytest.fixture(scope="module")
def circle_run(params, gain):
    t0 = time.monotonic()
    log = run_scenario(bundled("circle"), params, gain)
    return log, time.monotonic() - t0


@pytest.fixture(scope="module")
def disturbance_run(params, gain):
    t0 = time.monotonic()
    sc = bundled("disturbance")
    log = run_scenario(sc, params, gain)
    return log, time.monotonic() - t0, sc


# ---------------------------------------------------------------------------
# 1. Riccati solver accuracy
# ---------------------------------------------------------------------------


def test_a01_riccati_solver_accuracy(params):
    t0 = time.monotonic()

    # scalar case: a = b = q = r = 1 (A = 0, B = 1 sampled at 1 Hz)
    #   ->  p = (1 + sqrt(5)) / 2
    sol = solve_dare(
        LinearModel(np.array([[0.0]]), np.array([[1.0]])),
        LqrWeights(np.array([[1.0]]), np.array([[1.0]])),
        1.0,
    )
    assert abs(sol.P[0, 0] - (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-10

    # 100 random stabilizable systems up to n = 10, sampled at 10 Hz
    rng = np.random.default_rng(7)
    worst_res, worst_z = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        L = rng.normal(size=(n, n))
        Q = L @ L.T + 1e-3 * np.eye(n)
        R = np.diag(rng.uniform(0.5, 2.0, size=m))
        sol = solve_dare(LinearModel(A, B), LqrWeights(Q, R), 10.0)
        Ad, Bd = oracles.zoh_discretize(A, B, 0.1)
        worst_res = max(worst_res, dare_residual(Ad, Bd, Q, R, sol.P))
        worst_z = max(worst_z, float(np.max(np.abs(sol.closed_loop_eigs))))
    print(f"random suite: worst residual {worst_res:.3e}, worst |z| {worst_z:.6f}")
    assert worst_res <= 1e-8
    assert worst_z < 1.0

    # default vehicle against scipy's DARE on the same weights, 60 to 960 Hz
    model = linearize_hover(params)
    w = default_weights(params)
    s = np.max(np.diag(w.R))
    worst_rel = 0.0
    for rate in (60.0, 120.0, 240.0, 480.0, 960.0):
        Ad, Bd = oracles.zoh_discretize(model.A, model.B, 1.0 / rate)
        P = linalg.solve_discrete_are(Ad, Bd, w.Q / s, w.R / s)
        K_ref = np.linalg.solve(w.R / s + Bd.T @ P @ Bd, Bd.T @ P @ Ad)
        K = solve_dare(model, w, rate).K
        rel = np.max(np.max(np.abs(K - K_ref), axis=1) / np.max(np.abs(K_ref), axis=1))
        worst_rel = max(worst_rel, float(rel))
    print(f"vehicle K vs scipy's DARE, 60-960 Hz: worst row-relative {worst_rel:.3e}")
    assert worst_rel <= 1e-9

    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Hover linearization
# ---------------------------------------------------------------------------


def test_a02_linearization_matches_finite_differences(params):
    t0 = time.monotonic()
    model = linearize_hover(params)
    A_fd, B_fd = finite_diff_jacobians(params, h=1e-6)

    nz = model.A != 0.0
    rel_A = np.max(np.abs((A_fd[nz] - model.A[nz]) / model.A[nz]))
    zero_A = np.max(np.abs(A_fd[~nz]))
    nz = model.B != 0.0
    rel_B = np.max(np.abs((B_fd[nz] - model.B[nz]) / model.B[nz]))
    zero_B = np.max(np.abs(B_fd[~nz]))
    print(f"max relative FD mismatch: A {rel_A:.3e}, B {rel_B:.3e}")
    print(f"max |FD| where the model is zero: A {zero_A:.3e}, B {zero_B:.3e}")
    assert rel_A <= 1e-6
    assert rel_B <= 1e-6
    assert zero_A <= 1e-8
    assert zero_B <= 1e-8

    # pinned entries: du_dot/dtheta = g, dp_dot/dtau_r = 1/J_xx
    assert model.A[3, 7] == pytest.approx(9.81, rel=1e-12)
    assert model.B[8, 1] == pytest.approx(3.2051e8, rel=1e-4)
    assert model.B[8, 1] == pytest.approx(1.0 / params.J[0], rel=1e-14)

    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Hover equilibrium invariants
# ---------------------------------------------------------------------------


def test_a03_hover_equilibrium_invariants(params):
    t0 = time.monotonic()

    s0, w0 = SimState.at_rest(), Wrench(hover_thrust(params), 0.0, 0.0)
    dy = state_derivative(params, s0, w0)
    print(f"max |state derivative| at trim: {np.max(np.abs(dy)):.3e}")
    assert np.max(np.abs(dy)) <= 1e-12

    thrust = hover_thrust(params)
    print(f"hover thrust {thrust:.6e} N")
    assert thrust == pytest.approx(1.8247e-3, rel=5e-5)
    assert thrust == pytest.approx(params.total_mass * params.g, rel=1e-15)

    cmd, saturated = wrench_to_cmd(params, w0)
    assert not saturated and cmd.dA == 0.0 and cmd.Vo == 0.0
    amp = cmd.A
    print(f"hover amplitude {amp:.6f} V")
    assert amp == pytest.approx(129.17, abs=0.05)
    assert amp == pytest.approx(
        (thrust - params.thrust_intercept) / params.thrust_slope, rel=1e-12
    )

    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. Hover station-keeping
# ---------------------------------------------------------------------------


def _offset_hover(noise: bool, seed: int):
    d = {
        "name": "hover_offset",
        "duration": 2.0,
        "seed": seed,
        "initial": {"pos": [0.05, 0.0, 0.0]},
        "setpoint": {"kind": "constant", "pos": [0.0, 0.0, 0.0]},
    }
    if noise:
        d["noise"] = {"enabled": True}
    return scenario_from_dict(d)


def test_a04a_hover_from_5cm_offset_converges(params, gain):
    t0 = time.monotonic()
    log = run_scenario(_offset_hover(noise=False, seed=0), params, gain)
    final = float(np.linalg.norm(log.pos_w[-1] - log.sp_pos[-1]))
    elapsed = time.monotonic() - t0
    print(f"final residual after 2 s: {final:.4g} m  (elapsed {elapsed:.2f} s)")
    assert elapsed < 30.0
    assert final < 1e-3, (
        f"closed loop does not converge: {final:.3g} m after 2 s from a 5 cm offset"
    )


def test_a04b_hover_noise_sweep_rms(params, gain):
    t0 = time.monotonic()
    worst = (-1.0, -1)
    for seed in range(20):
        log = run_scenario(_offset_hover(noise=True, seed=seed), params, gain)
        rms = metrics(log).rms_pos_err
        if rms > worst[0]:
            worst = (rms, seed)
    elapsed = time.monotonic() - t0
    print(f"worst RMS over 20 seeds: {worst[0]*100:.2f} cm (seed {worst[1]}), "
          f"elapsed {elapsed:.1f} s")
    assert elapsed < 30.0
    assert worst[0] < 0.0417, (
        f"RMS position error {worst[0]*100:.1f} cm (seed {worst[1]}) exceeds "
        "the 4.17 cm target in a 20-seed sweep"
    )


# ---------------------------------------------------------------------------
# 5. Circle tracking
# ---------------------------------------------------------------------------


def test_a05a_circle_steady_state_rms(circle_run):
    log, wall = circle_run
    m = metrics(log, window=(log.t[-1] / 2.0, log.t[-1]))
    print(f"steady-state xy RMS {m.rms_xy*100:.2f} cm  (run wall {wall:.2f} s)")
    assert wall < 10.0
    assert m.rms_xy <= 0.028, (
        f"steady-state xy RMS {m.rms_xy*100:.1f} cm exceeds the 2.8 cm target"
    )


def test_a05b_circle_remains_bounded(circle_run):
    log, _ = circle_run
    # run_scenario guards at 10 m; completing the full 4.5 s means bounded
    assert len(log) == int(round(4.5 * bundled("circle").control_rate))
    r = float(np.max(np.linalg.norm(log.pos_w, axis=1)))
    print(f"max distance from origin {r:.2f} m")
    assert np.all(np.isfinite(log.pos_w))
    assert r < 10.0


def test_a05c_circle_saturation_duty(circle_run):
    log, _ = circle_run
    duty = metrics(log).saturation_duty
    print(f"saturation duty {duty*100:.1f} %")
    assert duty <= 0.10, (
        f"actuators saturated on {duty*100:.0f}% of ticks (target: <= 10%)"
    )


# ---------------------------------------------------------------------------
# 6. Disturbance recovery
# ---------------------------------------------------------------------------


def test_a06a_pulse_recovery_within_2s(disturbance_run):
    log, wall, sc = disturbance_run
    t_end = sc.disturbances[0].t_end
    m = metrics(log, window=(t_end, log.t[-1]))
    settle = m.settling_time
    print(f"settling after pulse: {settle} s  (run wall {wall:.2f} s)")
    assert wall < 10.0
    assert settle <= 2.0, (
        f"never returns to within 1 cm after the pulse (settling {settle} s)"
    )


def test_a06b_pulse_attitude_stays_under_60deg(disturbance_run):
    log, _, _ = disturbance_run
    max_att = math.degrees(metrics(log).max_attitude)
    print(f"peak tilt {max_att:.2f} deg")
    assert max_att < 60.0


# ---------------------------------------------------------------------------
# 10. A second rate: items 5 and 6 at 120 Hz, with the gain designed for it
# ---------------------------------------------------------------------------


def test_a10_circle_and_pulse_at_120hz_with_the_120hz_gain(params):
    t0 = time.monotonic()
    K = lqr_gain(params, rate=120.0).K
    circle = run_scenario(dataclasses.replace(bundled("circle"), control_rate=120.0), params, K)
    sc = dataclasses.replace(bundled("disturbance"), control_rate=120.0)
    pulse = run_scenario(sc, params, K)
    m = metrics(circle, window=(circle.t[-1] / 2.0, circle.t[-1]))
    duty = metrics(circle).saturation_duty
    settle = metrics(pulse, window=(sc.disturbances[0].t_end, pulse.t[-1])).settling_time
    max_att = math.degrees(metrics(pulse).max_attitude)
    elapsed = time.monotonic() - t0
    print(f"120 Hz: circle xy RMS {m.rms_xy*100:.3f} cm, saturation duty {duty*100:.1f} %, "
          f"settling after pulse {settle} s, peak tilt {max_att:.2f} deg "
          f"(elapsed {elapsed:.2f} s)")
    assert elapsed < 10.0
    assert m.rms_xy <= 0.028
    assert duty <= 0.10
    assert settle <= 2.0
    assert max_att < 60.0


# ---------------------------------------------------------------------------
# 7. Pipeline self-consistency
# ---------------------------------------------------------------------------


def test_a07_pipeline_self_consistency(params, openloop_log):
    t0 = time.monotonic()

    rep = validate_model(reconstruct_runlog(openloop_log), params)
    worst = float(np.max(rep.ratio))
    print("per-axis error/signal: "
          + ", ".join(f"{ax}={r:.4f}" for ax, r in zip(ACCEL_AXES, rep.ratio)))
    assert worst < 0.01

    tr = make_trim_flight(params, tilt_deg=5.0)
    off = estimate_body_offset(tr, takeoff_window=(0.1, 0.2))
    err = abs(math.degrees(off.tilt) - 5.0)
    print(f"recovered tilt {math.degrees(off.tilt):.4f} deg (err {err:.4f} deg)")
    assert err <= 0.1

    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_a08_bundled_scenarios_are_deterministic(params, gain, tmp_path):
    for name in ("hover", "circle", "disturbance"):
        sc = bundled(name)
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        run_scenario(sc, params, gain).write_csv(a)
        run_scenario(sc, params, gain).write_csv(b)
        assert a.read_bytes() == b.read_bytes(), f"{name} run is not reproducible"
        print(f"{name}: byte-identical across runs")


# ---------------------------------------------------------------------------
# 9. Kinematics round trips
# ---------------------------------------------------------------------------


def test_a09_kinematics_round_trips(params):
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    n = 100_000
    roll = rng.uniform(-math.pi, math.pi, size=n)
    pitch = rng.uniform(-1.5, 1.5, size=n)
    yaw = rng.uniform(-math.pi, math.pi, size=n)
    worst = 0.0
    for i in range(n):
        e = EulerAngles321(roll[i], pitch[i], yaw[i])
        e2 = rotmat_to_euler(quat_to_rotmat(euler_to_quat(e)))
        d = max(
            abs(wrap_angle(e2.roll - e.roll)),
            abs(e2.pitch - e.pitch),
            abs(wrap_angle(e2.yaw - e.yaw)),
        )
        if d > worst:
            worst = d
    print(f"worst euler->quat->rotmat->euler error: {worst:.3e} rad")
    assert worst <= 1e-9

    worst_rate = 0.0
    for _ in range(300):
        r, p_, y = rng.uniform(-1.2, 1.2, size=3)
        om = rng.uniform(-5.0, 5.0, size=3)
        s = SimState(np.zeros(3), np.zeros(3), EulerAngles321(r, p_, y), om)
        rates = state_derivative(params, s, Wrench(0.0, 0.0, 0.0))[6:9]
        fd = oracles.euler_rate_fd(r, p_, y, om)
        worst_rate = max(worst_rate, float(np.max(np.abs(rates - fd))))
    print(f"worst euler-rate mismatch vs FD propagation: {worst_rate:.3e}")
    assert worst_rate <= 1e-6

    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f} s")
    assert elapsed < 5.0
