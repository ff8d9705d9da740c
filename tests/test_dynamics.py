"""Equations of motion and integrator checks against a matrix-form reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flapsim.dynamics import (
    MAX_DT,
    STATE_DIM,
    SimState,
    UnmodeledTerms,
    _eom,
    _forcing,
    _plant,
    rk4_packed,
    rk4_step,
    state_derivative,
)
from flapsim.errors import DivergenceError, GimbalLockError
from flapsim.kinematics import EulerAngles321
from flapsim.vehicle import Wrench, hover_thrust


def random_state(rng):
    return SimState(
        rng.uniform(-1.0, 1.0, 3),
        rng.uniform(-2.0, 2.0, 3),
        EulerAngles321(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.3, 1.3),
            rng.uniform(-math.pi, math.pi),
        ),
        rng.uniform(-30.0, 30.0, 3),
    )


def test_state_vector_round_trip(params):
    rng = np.random.default_rng(41)
    for _ in range(50):
        s = random_state(rng)
        y = s.as_vector()
        assert y.shape == (STATE_DIM,)
        back = SimState.from_vector(y)
        assert np.array_equal(back.as_vector(), y)


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        SimState((math.nan, 0.0, 0.0), np.zeros(3), EulerAngles321(0, 0, 0), np.zeros(3))


def deriv(y, forcing, xp=None) -> tuple:
    """:func:`_eom` on a :func:`_forcing` result, at the 9 states ``y`` (body
    velocity, Euler angles, rates), as ``state_derivative`` calls it."""
    at, ap, aq, c = forcing
    return _eom(c, xp)(*y, at, ap, aq)


def hover_equilibrium(p):
    """Level rest and the wrench that holds it."""
    return SimState.at_rest(), Wrench(hover_thrust(p), 0.0, 0.0)


def test_hover_equilibrium_is_exact_fixed_point(params):
    s, w = hover_equilibrium(params)
    assert w.thrust == pytest.approx(1.8247e-3, rel=1e-4)
    assert w.tau_r == 0.0 and w.tau_p == 0.0
    assert (s.att.roll, s.att.pitch, s.att.yaw) == (0.0, 0.0, 0.0)
    d = state_derivative(params, s, w)
    assert np.linalg.norm(d) <= 1e-12


def test_rk4_at_equilibrium_is_identity(params):
    s, w = hover_equilibrium(params)
    out = rk4_step(params, s, w, dt=1e-3)
    # measured: the packed derivative cancels gravity bit-exactly here
    assert np.array_equal(out.as_vector(), s.as_vector())


def test_pitch_30deg_gives_half_g_forward_accel(params):
    s = SimState(np.zeros(3), np.zeros(3), EulerAngles321(0.0, math.pi / 6, 0.0),
                 np.zeros(3))
    d = state_derivative(params, s, Wrench(hover_thrust(params), 0.0, 0.0))
    assert d[3] == pytest.approx(4.905, abs=1e-9)


def test_roll_torque_angular_accel_example(params):
    s = SimState.at_rest()
    d = state_derivative(params, s, Wrench(0.0, 4.8e-6, 0.0))
    assert d[9] == pytest.approx(4.8e-6 / 3.12e-9, rel=1e-12)
    assert d[9] == pytest.approx(1538.5, abs=0.1)
    assert d[10] == 0.0 and d[11] == 0.0


def test_derivative_matches_matrix_reference(params):
    rng = np.random.default_rng(42)
    for _ in range(150):
        s = random_state(rng)
        w = Wrench(rng.uniform(0.0, 3e-3), rng.uniform(-1e-5, 1e-5),
                   rng.uniform(-1e-5, 1e-5))
        un = UnmodeledTerms(rng.uniform(-5.0, 5.0, 3), rng.uniform(-100.0, 100.0, 3))
        ext = rng.uniform(-1e-2, 1e-2, 3)
        y, sf, aa = s.as_vector()[3:].tolist(), un.specific_force, un.angular_accel
        # state_derivative is the unforced plant's derivative; a world force
        # reaches the equations of motion only through _plant, as the run
        # loop's pulses do
        unforced = _forcing(_plant(params, sf, aa), w.thrust, w.tau_r, w.tau_p)
        assert state_derivative(params, s, w, unmodeled=un).tolist() == list(deriv(y, unforced))
        forced = _forcing(_plant(params, sf, aa, ext), w.thrust, w.tau_r, w.tau_p)
        d = np.array(deriv(y, forced))
        ref = oracles.eom_reference(
            s.as_vector(), params.total_mass, params.J, params.g,
            (w.thrust, w.tau_r, w.tau_p),
            specific_force=un.specific_force, angular_accel=un.angular_accel,
            ext_force_w=ext,
        )
        # rounding level: 1.8e-15 of the largest entry over 5000 such draws
        assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("forced", [False, True], ids=["no_world_force", "world_force"])
def test_column_derivative_is_the_float_derivative_bit_for_bit(params, forced):
    # the pipeline's model check evaluates the equations of motion on whole
    # columns (xp=np); every entry must be what a float call gives for its row
    rng = np.random.default_rng(29 + forced)
    n = 400
    states = np.array([random_state(rng).as_vector() for _ in range(n)])
    thrust = rng.uniform(0.0, 3e-3, n)
    tau_r, tau_p = rng.uniform(-1e-5, 1e-5, (2, n))
    sf, aa = rng.uniform(-5.0, 5.0, 3).tolist(), rng.uniform(-100.0, 100.0, 3).tolist()
    force = rng.uniform(-1e-2, 1e-2, 3).tolist() if forced else [0.0, 0.0, 0.0]
    columns = deriv(states[:, 3:].T, _forcing(_plant(params, sf, aa, force), thrust, tau_r, tau_p),
                    xp=np)
    plant = _plant(params, sf, aa, force)
    for i in range(n):
        row = deriv(states[i, 3:].tolist(),
                    _forcing(plant, float(thrust[i]), float(tau_r[i]), float(tau_p[i])))
        assert np.array([c[i] for c in columns]).tobytes() == np.array(row).tobytes(), i


def test_negative_thrust_rejected(params):
    s = SimState.at_rest()
    with pytest.raises(ValueError):
        state_derivative(params, s, Wrench(-1e-6, 0.0, 0.0))
    with pytest.raises(ValueError):
        rk4_step(params, s, Wrench(-1e-6, 0.0, 0.0), dt=1e-4)


def test_dt_bounds(params):
    s, w = hover_equilibrium(params)
    with pytest.raises(ValueError):
        rk4_step(params, s, w, dt=0.0)
    with pytest.raises(ValueError):
        rk4_step(params, s, w, dt=-1e-4)
    with pytest.raises(ValueError):
        rk4_step(params, s, w, dt=MAX_DT * 1.2)
    rk4_step(params, s, w, dt=MAX_DT)   # boundary is allowed


def test_free_fall_velocity(params):
    s = SimState.at_rest()
    for _ in range(1000):
        s = rk4_step(params, s, Wrench(0.0, 0.0, 0.0), dt=1e-4)
    assert s.vel_b[2] == pytest.approx(-0.981, rel=1e-9)
    assert s.pos_w[2] == pytest.approx(-0.5 * 9.81 * 0.01, rel=1e-9)
    assert abs(s.vel_b[0]) < 1e-15 and abs(s.vel_b[1]) < 1e-15


def test_pure_roll_torque_double_integrator(params):
    # with q = r = 0 the roll axis is an exact double integrator
    accel = 4.8e-6 / params.J[0]
    s = SimState.at_rest()
    dt = 1e-4
    for _ in range(100):
        s = rk4_step(params, s, Wrench(0.0, 4.8e-6, 0.0), dt=dt)
    t = 100 * dt
    assert s.omega_b[0] == pytest.approx(accel * t, rel=1e-9)
    assert s.att.roll == pytest.approx(0.5 * accel * t * t, rel=1e-6)
    assert s.omega_b[1] == 0.0 and s.omega_b[2] == 0.0


def test_yaw_rate_constant_without_pq(params):
    s = SimState(np.zeros(3), np.array([0.1, -0.2, 0.0]),
                 EulerAngles321(0.0, 0.0, 0.3), np.array([0.0, 0.0, 0.7]))
    d = state_derivative(params, s, Wrench(hover_thrust(params), 0.0, 0.0))
    assert d[11] == 0.0
    for _ in range(200):
        s = rk4_step(params, s, Wrench(hover_thrust(params), 0.0, 0.0), dt=1e-4)
    assert s.omega_b[2] == pytest.approx(0.7, abs=1e-15)
    # yaw integrates the rate
    assert s.att.yaw == pytest.approx(0.3 + 0.7 * 0.02, rel=1e-9)


def test_ballistic_energy_conservation(params):
    mt = params.total_mass
    J = np.asarray(params.J)

    def energy(s):
        R = oracles.rotmat_321(s.att.roll, s.att.pitch, s.att.yaw)
        v_w = R @ s.vel_b
        return (0.5 * mt * float(v_w @ v_w)
                + mt * params.g * s.pos_w[2]
                + 0.5 * float(s.omega_b @ (J * s.omega_b)))

    s = SimState(np.array([0.0, 0.0, 0.5]), np.array([0.1, 0.0, -0.2]),
                 EulerAngles321(0.2, -0.1, 0.4), np.array([0.5, -0.3, 0.8]))
    e0 = energy(s)
    for _ in range(1000):
        s = rk4_step(params, s, Wrench(0.0, 0.0, 0.0), dt=1e-4)
    assert abs(energy(s) - e0) / abs(e0) < 1e-9


def test_rk4_fourth_order_convergence(params):
    w = Wrench(1.5 * hover_thrust(params), 3e-9, 2e-9)
    s0 = SimState(np.zeros(3), np.array([0.2, -0.1, 0.15]),
                  EulerAngles321(0.3, -0.2, 0.5), np.array([3.0, -2.0, 1.0]))

    def integrate(dt, t_end=0.1):
        s = s0
        for _ in range(int(round(t_end / dt))):
            s = rk4_step(params, s, w, dt=dt)
        return s.as_vector()

    ref = integrate(2.5e-3 / 16)
    err_coarse = np.linalg.norm(integrate(2.5e-3) - ref)
    err_fine = np.linalg.norm(integrate(1.25e-3) - ref)
    assert err_fine > 0.0
    ratio = err_coarse / err_fine
    assert 10.0 < ratio < 24.0


def test_chained_rk4_step_equals_chained_rk4_packed(params):
    # rk4_step rebuilds a SimState (and its Euler angles) every step; the
    # runner keeps the packed list. Both must follow the same trajectory.
    s = SimState((0.01, -0.02, 0.03), (0.1, -0.05, 0.02),
                 EulerAngles321(0.2, -0.1, 1.0), (1.0, -2.0, 3.0))
    w = Wrench(1.1 * hover_thrust(params), 2e-8, -1e-8)
    dt = 1.0 / (240.0 * 42)
    forcing = _forcing(_plant(params), w.thrust, w.tau_r, w.tau_p)
    y = s.as_vector().tolist()
    for _ in range(420):
        s = rk4_step(params, s, w, dt=dt)
        y = rk4_packed(y, dt, forcing)
    assert s.as_vector().tobytes() == np.array(y).tobytes()


def _floats(lo, hi, n=None):
    one = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return one if n is None else st.tuples(*[one] * n)


# Roll and yaw stay far enough inside (-pi, pi) that no stage crosses the
# wrap SimState applies, and pitch far enough from the gimbal guard that no
# stage reaches it, at the largest step and rates drawn.
@settings(max_examples=300, deadline=None)
@given(
    pos=_floats(-1.0, 1.0, 3),
    vel=_floats(-2.0, 2.0, 3),
    att=st.tuples(_floats(-2.4, 2.4), _floats(-1.0, 1.0), _floats(-2.4, 2.4)),
    omega=_floats(-20.0, 20.0, 3),
    thrust=_floats(0.0, 4e-3),
    torques=st.tuples(_floats(-2e-5, 2e-5), _floats(-7e-6, 7e-6)),
    specific_force=_floats(-1.0, 1.0, 3),
    angular_accel=_floats(-100.0, 100.0, 3),
    force=st.one_of(st.just((0.0, 0.0, 0.0)), _floats(-2e-3, 2e-3, 3)),
    dt=_floats(1e-6, MAX_DT),
)
def test_rk4_packed_is_textbook_rk4_over_state_derivative_bit_for_bit(
    params, pos, vel, att, omega, thrust, torques, specific_force, angular_accel, force, dt
):
    s = SimState(pos, vel, EulerAngles321(*att), omega)
    forcing = _forcing(_plant(params, specific_force, angular_accel, force), thrust, *torques)

    def f(y):
        # state_derivative's own body; a world force reaches the equations
        # of motion only through _plant
        return np.array(deriv(SimState.from_vector(y).as_vector()[3:].tolist(), forcing))

    out = rk4_packed(s.as_vector().tolist(), dt, forcing)
    assert np.array(out).tobytes() == oracles.rk4_textbook(f, s.as_vector(), dt).tobytes()


def test_divergence_error_on_overflow(params):
    # yaw spin never moves pitch, so the Coriolis overflow in the velocity
    # states is the first failure this state can produce
    s = SimState(np.zeros(3), np.array([1e308, 0.0, 0.0]),
                 EulerAngles321(0, 0, 0), np.array([0.0, 0.0, 1e8]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            rk4_step(params, s, Wrench(0.0, 0.0, 0.0), dt=1e-4)


def test_gimbal_lock_raised_when_step_crosses_guard(params):
    s = SimState(np.zeros(3), np.zeros(3), EulerAngles321(0.0, 1.5707, 0.0),
                 np.array([0.0, 10.0, 0.0]))
    with pytest.raises(GimbalLockError):
        rk4_step(params, s, Wrench(hover_thrust(params), 0.0, 0.0), dt=1e-4)


def test_unmodeled_terms_default_zero():
    un = UnmodeledTerms()
    assert np.array_equal(un.specific_force, np.zeros(3))
    assert np.array_equal(un.angular_accel, np.zeros(3))
