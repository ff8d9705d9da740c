"""The benchmark's workloads: inputs, one timed pass, output checks.

Each workload builds its inputs from the benchmark seed before anything is
timed; the program sees only those inputs. ``ops()`` returns one pass as a
list of operations, which the runner times one by one. ``check()`` then
inspects what that pass produced, untimed, and returns the number of
failed operations, output digests and the work done.

The checks rest on invariants that hold for any stabilizing or merely
non-diverging gain (runs complete, logs are finite, files round-trip,
re-runs are byte-identical, pipeline self-consistency), never on how well
the closed loop tracks, so they survive a change of LQR weights.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import traceback
from importlib import resources
from pathlib import Path

import numpy as np

from flapsim import cli, harness, lqr, pipeline
from flapsim.dynamics import SimState, UnmodeledTerms, rk4_step
from flapsim.kinematics import EulerAngles321, euler_to_quat
from flapsim.lqr import LqrWeights
from flapsim.vehicle import Wrench, default_robofly_params, hover_thrust, wrench_to_cmd

from spans import LOADED_SAMPLES

RATE = 240.0            # [Hz] control ticks and pose samples, every workload
RATIO_LIMIT = 0.01      # a07: per-axis model error / signal
TILT_TOL_DEG = 0.1      # a07: body-offset tilt recovery
TAKEOFF_WINDOW = (0.1, 0.2)

_SETUP_PREAMBLE = """\
import flapsim
from flapsim.lqr import lqr_gain
from flapsim.vehicle import BUILTIN_PROFILE, load_params
p = load_params(BUILTIN_PROFILE)
lqr_gain(p)
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _log_arrays(log):
    return (log.t, log.pos_w, log.euler, log.vel_b, log.omega_b, log.sigma,
            log.sp_pos, log.sp_vel, log.cmd, log.wrench)


def _log_digest(log) -> str:
    h = hashlib.sha256()
    for a in (*_log_arrays(log), log.saturated):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _finite(log) -> bool:
    return all(np.all(np.isfinite(a)) for a in _log_arrays(log))


def _guarded(fn):
    """Run one operation; an exception becomes its result instead of
    ending the run, so it counts as one failed operation."""
    try:
        return fn()
    except Exception as exc:
        traceback.print_exc()
        return exc


def _not_run(result):
    """Why an operation produced no result to check, or None."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if result is None:
        return "did not run"
    return None


def _fail(workload: str, what: str, why: str) -> None:
    print(f"{workload}: {what} failed: {why}", file=sys.stderr)


def _csv_line(values) -> str:
    return ",".join(repr(float(v)) for v in values) + "\n"


class Scenarios:
    """The three bundled scenarios through ``flapsim simulate <name> --quiet``.

    The scenario files fix their own seeds, so the benchmark seed does not
    change this workload's inputs.
    """

    name = "scenarios"
    NAMES = ("hover", "circle", "disturbance")

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.out = work / "out"
        self.out.mkdir()
        self.p = default_robofly_params()
        scs = [self._load(n) for n in self.NAMES]
        self.ticks = [int(round(sc.duration * sc.control_rate)) for sc in scs]
        self.substeps = [sc.physics_substeps for sc in scs]
        self.n_ops = len(self.NAMES)
        self.flight_s = sum(sc.duration for sc in scs)
        self.facts = {"gain_sha256": _sha256(lqr.lqr_gain(self.p).K.tobytes())}
        self.rcs: dict = {}

    def _load(self, name):
        ref = resources.files("flapsim") / "scenarios" / f"{name}.scenario"
        with resources.as_file(ref) as path:
            return harness.load_scenario(path, self.p)

    def setup_code(self) -> str:
        return _SETUP_PREAMBLE + f"""\
from importlib import resources
from flapsim.harness import load_scenario
for name in {self.NAMES!r}:
    ref = resources.files("flapsim") / "scenarios" / f"{{name}}.scenario"
    with resources.as_file(ref) as path:
        load_scenario(path, p)
"""

    def ops(self, tracer) -> list:
        self.rcs = {}

        def simulate(name):
            argv = ["simulate", name, "--quiet", "--out", str(self.out)]

            def op():
                self.rcs[name] = _guarded(lambda: tracer.call("cli.main", cli.main, argv))
            return op

        return [simulate(n) for n in self.NAMES]

    def check(self):
        failed, digests, ticks, steps = 0, {}, 0, 0
        for name, n_ticks, substeps in zip(self.NAMES, self.ticks, self.substeps):
            path = self.out / f"{name}_runlog.csv"
            rc = self.rcs.get(name)
            why = _not_run(rc)
            if why is None and rc != 0:
                why = f"exit code {rc}"
            elif why is None:
                text = path.read_bytes()
                log = pipeline.load_runlog_csv(path)
                if len(log) != n_ticks:
                    why = f"{len(log)} of {n_ticks} ticks logged"
                elif not _finite(log):
                    why = "non-finite values in the run log"
                elif log.to_csv_text().encode("utf-8") != text:
                    why = "run-log CSV does not round-trip through load_runlog_csv"
                digests[path.name] = _sha256(text)
                ticks += len(log)
                steps += len(log) * substeps
            path.unlink(missing_ok=True)  # a later failing pass must not see this file
            if why:
                failed += 1
                _fail(self.name, name, why)
        work = {"harness.ticks": ticks, "dynamics.rk4_steps": steps, "pipeline.samples": 0}
        return failed, digests, work


def bryson_weights(p) -> LqrWeights:
    """Bryson-normalized LQR weights of ROADMAP item 1.

    Q = diag(1/x_max^2) with x_max = 2 cm, 0.2 m/s, 10 deg and 10 rad/s;
    R = diag(1/(0.3 u_max)^2) with u_max the thrust headroom above hover
    and the two torque limits. The fastest closed-loop pole is 174 rad/s,
    which the 240 Hz loop realizes. The stock weights place poles near
    -6.7e8 rad/s: under sensor noise the 5 cm offset hover then rolls past
    90 deg and falls, and about one member in a few hundred leaves the
    10 m position guard within 2 s (member seed 1815255171 does at tick
    390), so a sweep on that gain fails on some benchmark seeds.
    """
    u_max = (p.thrust_slope * p.A_limits[1] + p.thrust_intercept - hover_thrust(p),
             abs(p.roll_slope) * p.dA_limit, abs(p.pitch_slope) * p.Vo_limit)
    x_max = (0.02,) * 3 + (0.2,) * 3 + (math.radians(10.0),) * 2 + (10.0,) * 2
    return LqrWeights.from_diagonals([1.0 / x**2 for x in x_max],
                                     [1.0 / (0.3 * u) ** 2 for u in u_max])


def _member_config(seed: int, duration: float) -> dict:
    """One a04b sweep member: noisy hover from a 5 cm offset."""
    return {
        "name": f"hover_offset_{seed}",
        "duration": duration,
        "seed": seed,
        "physics_substeps": Sweep.SUBSTEPS,
        "initial": {"pos": [0.05, 0.0, 0.0]},
        "setpoint": {"kind": "constant", "pos": [0.0, 0.0, 0.0]},
        "noise": {"enabled": True},
    }


class Sweep:
    """The a04b experiment: seeded noisy offset hovers, one shared gain.

    The gain is synthesized with ``bryson_weights``, not the stock
    weights, so that every member stays near hover whatever the seed.
    """

    name = "sweep"
    SUBSTEPS = 4

    def __init__(self, work: Path, seed: int, smoke: bool):
        members, duration = (2, 0.5) if smoke else (20, 2.0)
        rng = random.Random(seed)
        self.configs = [_member_config(rng.randrange(2**31), duration) for _ in range(members)]
        self.p = default_robofly_params()
        self.weights = bryson_weights(self.p)
        self.members = [harness.scenario_from_dict(c, self.p) for c in self.configs]
        self.member_ticks = int(round(duration * RATE))
        self.n_ops = members
        self.flight_s = members * duration
        self.facts = {"member_seeds": [c["seed"] for c in self.configs]}
        self.K = None
        self.logs: list = []
        self._rerun = 0

    def setup_code(self) -> str:
        return _SETUP_PREAMBLE + f"""\
from flapsim.harness import scenario_from_dict
for cfg in {self.configs!r}:
    scenario_from_dict(cfg, p)
"""

    def ops(self, tracer) -> list:
        self.logs = [None] * len(self.members)

        def gain():
            self.K = _guarded(lambda: tracer.call(
                "lqr.gain", lqr.lqr_gain, self.p, self.weights
            ).K)

        def member(i):
            def op():
                if isinstance(self.K, Exception):  # no gain: every member fails
                    self.logs[i] = self.K
                    return
                self.logs[i] = _guarded(lambda: tracer.call(
                    "harness.run", harness.run_scenario, self.members[i], self.p, self.K
                ))
            return op

        return [gain] + [member(i) for i in range(len(self.members))]

    def check(self):
        failed, digests, ticks = 0, {}, 0
        for cfg, log in zip(self.configs, self.logs):
            why = _not_run(log)
            if why is None and len(log) != self.member_ticks:
                why = f"{len(log)} of {self.member_ticks} ticks"
            elif why is None and not _finite(log):
                why = "non-finite values in the run log"
            elif why is None:
                digests[cfg["name"]] = _log_digest(log)
                ticks += len(log)
            if why:
                failed += 1
                _fail(self.name, cfg["name"], why)
        # re-run one member (a different one each pass): byte-identical log
        j = self._rerun % len(self.members)
        self._rerun += 1
        name = self.configs[j]["name"]
        if name in digests:
            again = _guarded(lambda: harness.run_scenario(self.members[j], self.p, self.K))
            if _not_run(again) or _log_digest(again) != digests[name]:
                failed += 1
                _fail(self.name, name, "re-run log is not byte-identical")
        if not isinstance(self.K, Exception):
            self.facts["gain_sha256"] = _sha256(np.asarray(self.K).tobytes())
        work = {"harness.ticks": ticks, "dynamics.rk4_steps": ticks * self.SUBSTEPS,
                "pipeline.samples": 0}
        return failed, digests, work


def openloop_flight(p, rng, n: int):
    """Bounded open-loop pose flight of ``n`` samples at 240 Hz.

    Roll and pitch torques are the small-angle feedforward of sinusoidal
    attitudes, and the initial rates and velocities match them, so body
    rates and attitudes are zero-mean and no flight drifts towards the
    gimbal guard. Inputs are held over each RK4 step at their value at the
    step's midpoint, so the command logged at a sample instant is the
    centred average of the input the vehicle felt around it.
    """
    hov = hover_thrust(p)
    Jx, Jy, _ = p.J
    a_r, a_p = np.radians(rng.uniform(3.0, 8.0, 2))
    w_r, w_p, w_t = 2.0 * math.pi * rng.uniform(0.6, 1.6, 3)
    f_r, f_p, f_t = rng.uniform(0.0, 2.0 * math.pi, 3)
    b = rng.uniform(0.01, 0.04)
    trim = hov * (1.0 + (a_r**2 + a_p**2) / 4.0)  # mean thrust lost to tilt

    def wrench_at(t):
        return Wrench(trim * (1.0 + b * math.sin(w_t * t + f_t)),
                      -Jx * a_r * w_r**2 * math.sin(w_r * t + f_r),
                      -Jy * a_p * w_p**2 * math.sin(w_p * t + f_p))

    g = p.g
    s = SimState(
        np.zeros(3),
        np.array([-g * a_p * math.cos(f_p) / w_p, g * a_r * math.cos(f_r) / w_r,
                  -trim * b * math.cos(f_t) / (p.total_mass * w_t)]),
        EulerAngles321(a_r * math.sin(f_r), a_p * math.sin(f_p), 0.0),
        np.array([a_r * w_r * math.cos(f_r), a_p * w_p * math.cos(f_p), 0.0]),
    )
    T = 1.0 / RATE
    pose, cmds = [], []
    for k in range(n):
        t = k * T
        c, _ = wrench_to_cmd(p, wrench_at(t))
        q = euler_to_quat(s.att).canonical()
        pose.append(_csv_line((t, *s.pos_w, q.w, q.x, q.y, q.z)))
        cmds.append(_csv_line((t, c.A, c.dA, c.Vo)))
        s = rk4_step(p, s, wrench_at(t + 0.5 * T), dt=T)
    return pose, cmds


def trim_flight(p, tilt_deg: float, duration: float = 0.3):
    """Takeoff whose specific force is tilted ``tilt_deg`` from body z.

    1.3x hover thrust, with the lateral part injected as an unmodeled body
    force so the attitude stays level (the shape of ``make_trim_flight``
    in the test suite).
    """
    n = int(round(duration * RATE)) + 1
    G = 1.3 * hover_thrust(p)
    a = math.radians(tilt_deg)
    w = Wrench(G * math.cos(a), 0.0, 0.0)
    un = UnmodeledTerms(specific_force=np.array([0.0, -G * math.sin(a) / p.total_mass, 0.0]))
    s = SimState.at_rest()
    T = 1.0 / RATE
    pose = []
    for k in range(n):
        q = euler_to_quat(s.att).canonical()
        pose.append(_csv_line((k * T, *s.pos_w, q.w, q.x, q.y, q.z)))
        for _ in range(4):
            s = rk4_step(p, s, w, unmodeled=un, dt=T / 4)
    return pose


class FlightData:
    """Mocap flights through ``flapsim validate`` and ``flapsim envelope``,
    plus body-offset estimation on trim takeoffs."""

    name = "flight_data"

    def __init__(self, work: Path, seed: int, smoke: bool):
        n_flights, n_samples, n_trims = (2, 300, 1) if smoke else (24, 1250, 4)
        rng = np.random.default_rng(seed)
        p = default_robofly_params()
        inputs = work / "in"
        inputs.mkdir()
        self.flights = []  # (mocap path, command path, output dir)
        for i in range(n_flights):
            pose, cmds = openloop_flight(p, rng, n_samples)
            mocap, cmd = inputs / f"flight{i:02d}.csv", inputs / f"flight{i:02d}_cmd.csv"
            out = work / f"out{i:02d}"
            mocap.write_text("t,x,y,z,qw,qx,qy,qz\n" + "".join(pose), encoding="utf-8")
            cmd.write_text("t,A,dA,Vo\n" + "".join(cmds), encoding="utf-8")
            out.mkdir()
            self.flights.append((str(mocap), str(cmd), out))
        self.trims = []  # (path, true tilt in degrees)
        trim_samples = 0
        for j in range(n_trims):
            tilt = float(rng.uniform(2.0, 10.0))
            pose = trim_flight(p, tilt)
            path = inputs / f"trim{j}.csv"
            path.write_text("t,x,y,z,qw,qx,qy,qz\n" + "".join(pose), encoding="utf-8")
            self.trims.append((str(path), tilt))
            trim_samples += len(pose)
        self.n_ops = n_flights + n_trims
        self.flight_s = (n_flights * n_samples + trim_samples) / RATE
        # validate and envelope each load every flight; the trims load once
        self.loaded = 2 * n_flights * n_samples + trim_samples
        self.facts = {"trim_tilts_deg": [t for _, t in self.trims]}
        self.rcs: list = []
        self.offsets: list = []

    def setup_code(self) -> str:
        paths = [m for m, _, _ in self.flights] + [c for _, c, _ in self.flights]
        return _SETUP_PREAMBLE + f"""\
from flapsim.pipeline import load_mocap_csv, reconstruct
for path in {paths!r}:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
reconstruct(load_mocap_csv({self.trims[0][0]!r}))
"""

    def ops(self, tracer) -> list:
        self.rcs = [None] * len(self.flights)
        self.offsets = [None] * len(self.trims)

        def flight(i):
            mocap, cmd, out = self.flights[i]
            validate = ["validate", mocap, "--commands", cmd, "--quiet", "--out", str(out)]
            envelope = ["envelope", mocap, "--quiet", "--out", str(out)]

            def op():
                self.rcs[i] = _guarded(lambda: (tracer.call("cli.main", cli.main, validate),
                                                tracer.call("cli.main", cli.main, envelope)))
            return op

        def trim(j):
            def offset():
                tr = tracer.call("pipeline.load", pipeline.load_mocap_csv, self.trims[j][0],
                                 counter=LOADED_SAMPLES)
                return tracer.call("pipeline.offset", pipeline.estimate_body_offset, tr,
                                   TAKEOFF_WINDOW)

            def op():
                self.offsets[j] = _guarded(offset)
            return op

        return [flight(i) for i in range(len(self.flights))] + [trim(j) for j in range(len(self.trims))]

    def check(self):
        failed, digests = 0, {}
        for (mocap, _, out), rcs in zip(self.flights, self.rcs):
            flight = Path(mocap).stem
            series_path, envelope_path = out / "validation_series.csv", out / "envelope.csv"
            why = _not_run(rcs)
            if why is None and rcs != (0, 0):
                why = f"exit codes {rcs}"
            elif why is None:
                series = np.loadtxt(series_path, delimiter=",", skiprows=1, ndmin=2)
                meas, pred = series[:, 1::2], series[:, 2::2]
                err = np.sqrt(np.mean((meas - pred) ** 2, axis=0))
                ratio = err / np.maximum(np.sqrt(np.mean(meas**2, axis=0)), 1e-12)
                mass = np.loadtxt(envelope_path, delimiter=",", skiprows=1, ndmin=2)[:, 4].sum()
                if not np.all(ratio < RATIO_LIMIT):
                    why = f"error/signal {np.round(ratio, 5).tolist()} not all < {RATIO_LIMIT}"
                elif mass != len(series):
                    why = f"envelope mass {mass:g} != {len(series)} samples"
                digests[f"{flight}/validation_series.csv"] = _sha256(series_path.read_bytes())
                digests[f"{flight}/envelope.csv"] = _sha256(envelope_path.read_bytes())
            for path in (series_path, envelope_path):
                path.unlink(missing_ok=True)  # a later failing pass must not see these
            if why:
                failed += 1
                _fail(self.name, flight, why)
        for (path, tilt), off in zip(self.trims, self.offsets):
            why = _not_run(off)
            if why is None and abs(math.degrees(off.tilt) - tilt) > TILT_TOL_DEG:
                why = f"tilt {math.degrees(off.tilt):.4f} deg, true {tilt:.4f} deg"
            if why:
                failed += 1
                _fail(self.name, Path(path).stem, why)
        work = {"harness.ticks": 0, "dynamics.rk4_steps": 0, "pipeline.samples": self.loaded}
        return failed, digests, work


WORKLOADS = {w.name: w for w in (Scenarios, Sweep, FlightData)}
