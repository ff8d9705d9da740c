"""Shared fixtures: default vehicle, synthesized gain, canned flight data.

The two generators here produce ground-truth flights used by the pipeline
and acceptance tests:

* ``make_openloop_log`` flies the nonlinear model open-loop under smooth
  sinusoidal wrench inputs, updating the wrench every physics substep so
  the logged per-tick wrench is exactly the input active at each sample
  instant.  That makes the log a clean self-consistency target for the
  reconstruction + model-validation path.
* ``make_trim_flight`` synthesizes a takeoff whose net specific force is
  tilted a known angle from the body z axis (a thrust-axis misalignment),
  which the body-offset estimator must recover.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

import oracles
from flapsim.dynamics import SimState, UnmodeledTerms, rk4_step, state_derivative
from flapsim.harness import RunLog
from flapsim.ioutil import table_text
from flapsim.kinematics import euler_to_quat
from flapsim.lqr import LqrWeights, linearize_hover, lqr_gain
from flapsim.pipeline import MOCAP_COLUMNS, MocapTrajectory
from flapsim.vehicle import Wrench, default_robofly_params, hover_thrust, wrench_to_cmd

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env() -> dict:
    """Environment for a subprocess that imports flapsim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def params():
    return default_robofly_params()


@pytest.fixture(scope="session")
def gain_solution(params):
    return lqr_gain(params)


@pytest.fixture(scope="session")
def gain(gain_solution):
    return gain_solution.K


# The stock weights before they were normalized per channel: unit R on
# torques in N m against inertias of ~3e-9 kg m^2. Their continuous gain
# had poles near -6.7e8 rad/s, which the 240 Hz loop cannot realize; their
# DARE gain is certified, at a spectral radius just under one.
UNSTABLE_WEIGHTS = LqrWeights.from_diagonals(
    [0.02, 0.02, 0.01, 0.1, 0.1, 0.1, 1.0, 1.0, 4.0, 4.0], [2.0, 1.0, 1.0]
)


@pytest.fixture(scope="session")
def unstable_gain(gain):
    """The default gain with its thrust row negated: a height error drives
    thrust further the wrong way. From a height offset no other channel is
    excited, so the vehicle leaves the 10 m envelope vertically with thrust
    saturated, the same way on every platform."""
    K = gain.copy()
    K[0] = -K[0]
    return K


def write_mocap_csv(path, tr: MocapTrajectory) -> None:
    """Write a trajectory as a mocap CSV: t, x, y, z, qw, qx, qy, qz."""
    Path(path).write_text(table_text(MOCAP_COLUMNS, tr.t, tr.pos_w, tr.quat), encoding="utf-8")


def reduced_dynamics(p, sigma, delta) -> np.ndarray:
    """The hover design flow of flapsim's own equations of motion (see oracles)."""
    return oracles.reduced_dynamics(
        lambda y, w: state_derivative(p, SimState.from_vector(y), Wrench(*w)),
        hover_thrust(p), sigma, delta)


def finite_diff_jacobians(p, h=1e-6):
    """Central-difference Jacobians (A, B) of :func:`reduced_dynamics` at hover."""
    n, m = 10, 3
    A = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        A[:, j] = (reduced_dynamics(p, e, np.zeros(m))
                   - reduced_dynamics(p, -e, np.zeros(m))) / (2.0 * h)
    B = np.empty((n, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        B[:, j] = (reduced_dynamics(p, np.zeros(n), e)
                   - reduced_dynamics(p, np.zeros(n), -e)) / (2.0 * h)
    return A, B


def make_openloop_log(p, duration=4.0, rate=240.0, substeps=42):
    """Open-loop flight under smooth sinusoidal thrust/torque inputs.

    Amplitudes are sized so the vehicle wanders without saturating or
    tumbling (peak tilt stays below ~25 deg over the default 4 s).
    """
    hov = hover_thrust(p)

    def wrench_at(t):
        return Wrench(
            hov + 5.0e-5 * math.sin(2 * math.pi * 1.5 * t),
            4.0e-9 * math.sin(2 * math.pi * 2.0 * t + 1.0),
            2.5e-9 * math.sin(2 * math.pi * 1.1 * t + 0.5),
        )

    n = int(round(duration * rate))
    T = 1.0 / rate
    dt = T / substeps
    s = SimState.at_rest()
    t_arr = np.empty(n)
    pos = np.empty((n, 3))
    eul = np.empty((n, 3))
    vel = np.empty((n, 3))
    omega = np.empty((n, 3))
    cmd = np.empty((n, 3))
    wr = np.empty((n, 3))
    for k in range(n):
        tk = k * T
        w0 = wrench_at(tk)
        c, _ = wrench_to_cmd(p, w0)
        t_arr[k] = tk
        pos[k] = s.pos_w
        eul[k] = (s.att.roll, s.att.pitch, s.att.yaw)
        vel[k] = s.vel_b
        omega[k] = s.omega_b
        cmd[k] = (c.A, c.dA, c.Vo)
        wr[k] = (w0.thrust, w0.tau_r, w0.tau_p)
        for i in range(substeps):
            s = rk4_step(p, s, wrench_at(tk + i * dt), dt=dt)
    z = np.zeros((n, 3))
    return RunLog(
        t=t_arr, pos_w=pos, euler=eul, vel_b=vel, omega_b=omega,
        sigma=np.zeros((n, 10)), sp_pos=z, sp_vel=z, cmd=cmd, wrench=wr,
        saturated=np.zeros(n, dtype=np.int64),
    )


def make_trim_flight(p, tilt_deg, duration=0.3, rate=240.0):
    """Takeoff whose specific force is tilted ``tilt_deg`` toward -y_b.

    Thrust magnitude is 1.3x hover; the lateral component is injected as
    an unmodeled body force so the attitude stays level while the net
    acceleration direction carries the misalignment.
    """
    n = int(round(duration * rate)) + 1
    G = 1.3 * hover_thrust(p)
    a = math.radians(tilt_deg)
    s = SimState.at_rest()
    w = Wrench(G * math.cos(a), 0.0, 0.0)
    un = UnmodeledTerms(
        specific_force=np.array([0.0, -G * math.sin(a) / p.total_mass, 0.0])
    )
    T = 1.0 / rate
    t_arr = np.empty(n)
    pos = np.empty((n, 3))
    quat = np.empty((n, 4))
    for k in range(n):
        t_arr[k] = k * T
        pos[k] = s.pos_w
        q = euler_to_quat(s.att).canonical()
        quat[k] = (q.w, q.x, q.y, q.z)
        if k < n - 1:
            for _ in range(4):
                s = rk4_step(p, s, w, unmodeled=un, dt=T / 4)
    return MocapTrajectory(t_arr, pos, quat)


@pytest.fixture(scope="session")
def openloop_log(params):
    return make_openloop_log(params)
