"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program. Each wrap point names a
calling module and the attribute that module looks up for the next layer
(``flapsim.harness._rk4_packed``, ``flapsim.cli.reconstruct``, ...). For
the length of a traced pass the attribute is replaced by a timing wrapper;
afterwards the original is put back, so untraced passes run the program
unmodified.

The program is single-threaded, so spans nest on one stack, and a span's
self time is its duration minus the time its direct child spans cover.
Only aggregates are kept in memory: per span name the count, busy time and
self time, plus a few work counters.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time


# work counters: (name, amount taken from the call's arguments and result)
LOADED_SAMPLES = ("pipeline.samples", lambda args, result: len(result))
WRITTEN_BYTES = ("ioutil.bytes", lambda args, result: len(args[1].encode("utf-8")))

# spans opened by the benchmark's own calls (see Tracer.call)
BENCH_SPANS = ("cli.main", "pipeline.offset")


_KINEMATICS_FROM_HARNESS = ("euler_to_quat", "euler_to_rotmat", "quat_from_rotvec", "quat_multiply")
_KINEMATICS_FROM_CONTROLLER = ("quat_multiply", "quat_to_rotmat", "quat_to_rotvec", "rotmat_to_euler")
_KINEMATICS_FROM_PIPELINE = (
    "quat_from_rotvec", "quat_multiply", "quat_to_rotmat", "quat_to_rotvec", "rotmat_to_euler",
)

# (calling module, attribute, span name, optional counter).
# "Class.method" wraps a method of a class defined in that module; the
# program calls it on instances it got from that module.
WRAP_POINTS = (
    # cli -> lqr, harness, pipeline, ioutil
    ("flapsim.cli", "lqr_gain", "lqr.gain", None),
    ("flapsim.cli", "load_scenario", "harness.load", None),
    ("flapsim.cli", "run_scenario", "harness.run", None),
    ("flapsim.harness", "RunLog.write_csv", "harness.csv", None),
    ("flapsim.cli", "load_mocap_csv", "pipeline.load", LOADED_SAMPLES),
    ("flapsim.cli", "load_command_csv", "pipeline.load", None),
    ("flapsim.cli", "load_runlog_csv", "pipeline.load", None),
    ("flapsim.cli", "reconstruct", "pipeline.reconstruct", None),
    ("flapsim.cli", "reconstruct_runlog", "pipeline.reconstruct", None),
    ("flapsim.pipeline", "ReconstructedStates.attach_commands", "pipeline.attach", None),
    ("flapsim.cli", "validate_model", "pipeline.validate", None),
    ("flapsim.cli", "flight_envelope", "pipeline.envelope", None),
    ("flapsim.pipeline", "ValidationReport.write_series_csv", "pipeline.write", None),
    ("flapsim.pipeline", "EnvelopeGrid.write_csv", "pipeline.write", None),
    ("flapsim.cli", "atomic_write_text", "ioutil.write", WRITTEN_BYTES),
    # harness -> controller, dynamics, kinematics, ioutil
    ("flapsim.harness", "assemble_ctrl_state", "controller.sense", None),
    ("flapsim.controller", "ConstantSchedule.__call__", "controller.schedule", None),
    ("flapsim.controller", "CircleSchedule.__call__", "controller.schedule", None),
    ("flapsim.controller", "CsvSchedule.__call__", "controller.schedule", None),
    ("flapsim.harness", "control_step", "controller.decide", None),
    ("flapsim.harness", "_rk4_packed", "dynamics.rk4", None),
    *(("flapsim.harness", n, "kinematics", None) for n in _KINEMATICS_FROM_HARNESS),
    ("flapsim.harness", "atomic_write_text", "ioutil.write", WRITTEN_BYTES),
    # controller -> kinematics, vehicle
    *(("flapsim.controller", n, "kinematics", None) for n in _KINEMATICS_FROM_CONTROLLER),
    ("flapsim.controller", "wrench_to_cmd", "vehicle.map", None),
    ("flapsim.controller", "cmd_to_wrench", "vehicle.map", None),
    # pipeline -> dynamics, vehicle, kinematics, ioutil
    ("flapsim.pipeline", "state_derivative", "dynamics.deriv", None),
    ("flapsim.pipeline", "cmd_to_wrench", "vehicle.map", None),
    *(("flapsim.pipeline", n, "kinematics", None) for n in _KINEMATICS_FROM_PIPELINE),
    ("flapsim.pipeline", "atomic_write_text", "ioutil.write", WRITTEN_BYTES),
)


class Tracer:
    """Aggregating span recorder; inactive until :meth:`installed` is entered.

    ``stats[name]`` is ``[count, busy_s, self_s]``. A span name is in
    ``stats`` only if the benchmark opens it itself (``BENCH_SPANS``) or at
    least one of its wrap points was found, so a name the program no longer
    has shows up as an absent metric, never a crash.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._active = False
        self._patches = []  # (owner, attribute, original, wrapper)
        for span in BENCH_SPANS:
            self.stats[span] = [0, 0.0, 0.0]
        for module_name, attr, span, counter in WRAP_POINTS:
            owner, original = _resolve(module_name, attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.stats.setdefault(span, [0, 0.0, 0.0])
            if counter is not None:
                self.counters.setdefault(counter[0], 0)
            self._patches.append((owner, attr.rpartition(".")[2], original,
                                  self._wrap(original, span, counter)))

    def _wrap(self, fn, span, counter):
        stats = self.stats[span]
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result

        return traced

    def call(self, span, fn, *args, counter=None):
        """Call ``fn`` from the benchmark itself, as a span while tracing."""
        if not self._active:
            return fn(*args)
        self.stats.setdefault(span, [0, 0.0, 0.0])
        if counter is not None:
            self.counters.setdefault(counter[0], 0)
        return self._wrap(fn, span, counter)(*args)

    @contextlib.contextmanager
    def installed(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self._active = True
        try:
            yield self
        finally:
            self._active = False
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)


def _resolve(module_name, attr):
    """(owner, function) for a wrap point, or (None, None) if it is gone.

    Only plain functions are wrapped: replacing a class by a function
    would break ``isinstance`` checks in the program.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            return None, None
    fn = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if not inspect.isfunction(fn):
        return None, None
    return owner, fn


def layer_metrics(tracer: Tracer, passes: int, work: dict) -> tuple[dict, list]:
    """Per-layer metrics per traced pass, and the list of fallbacks used.

    ``work`` is what one untraced pass did (``harness.ticks``,
    ``dynamics.rk4_steps``, ``pipeline.samples``). Counts are taken from
    the spans, so they can be checked against ``work``; times are divided
    by the work the workload is known to do, so they compare across
    workloads and a missing span cannot turn them into 0. A metric whose
    spans were not found is left out. When the integrator wrap point is
    gone, integrate time falls back to the run span's self time (run minus
    sense, decide and kinematics) spread over the pass's RK4 steps, and
    ``harness.self_us`` is left out. A layer the workload does not
    exercise reads 0.
    """
    st = tracer.stats
    out: dict[str, float] = {}
    fallbacks: list[str] = []
    ticks = work["harness.ticks"] * passes
    steps = work["dynamics.rk4_steps"] * passes
    samples = work["pipeline.samples"] * passes

    def have(*names):
        return all(n in st for n in names)

    def n(name):
        return st[name][0]

    def busy(name):
        return st[name][1]

    def own(name):
        return st[name][2]

    def per(total, units, scale):
        return total / units * scale if units else 0.0

    if have("controller.sense"):
        out["harness.ticks"] = n("controller.sense") / passes
        out["controller.sense_us"] = per(busy("controller.sense"), ticks, 1e6)
    if have("harness.run"):
        out["harness.tick_us"] = per(busy("harness.run"), ticks, 1e6)
    if have("dynamics.rk4"):
        out["dynamics.rk4_steps"] = n("dynamics.rk4") / passes
        out["dynamics.rk4_us"] = per(busy("dynamics.rk4"), steps, 1e6)
        if have("harness.run"):
            out["harness.self_us"] = per(own("harness.run"), ticks, 1e6)
            out["dynamics.rk4_share"] = per(busy("dynamics.rk4"), busy("harness.run"), 1.0)
    elif have("harness.run"):
        fallbacks.append("dynamics.rk4")
        out["dynamics.rk4_us"] = per(own("harness.run"), steps, 1e6)
        out["dynamics.rk4_share"] = per(own("harness.run"), busy("harness.run"), 1.0)
    if have("dynamics.deriv"):
        out["dynamics.deriv_calls"] = n("dynamics.deriv") / passes
        out["dynamics.deriv_us"] = per(busy("dynamics.deriv"), n("dynamics.deriv"), 1e6)
    if have("controller.decide", "controller.schedule"):
        out["controller.decide_us"] = per(
            busy("controller.decide") + busy("controller.schedule"), ticks, 1e6
        )
    if have("vehicle.map"):
        out["vehicle.map_calls"] = n("vehicle.map") / passes
        out["vehicle.map_us"] = per(busy("vehicle.map"), n("vehicle.map"), 1e6)
    if have("kinematics"):
        out["kinematics.calls"] = n("kinematics") / passes
        out["kinematics.us"] = per(busy("kinematics"), n("kinematics"), 1e6)
    if have("lqr.gain"):
        out["lqr.calls"] = n("lqr.gain") / passes
        out["lqr.gain_ms"] = per(busy("lqr.gain"), n("lqr.gain"), 1e3)
    if have("harness.csv"):
        out["harness.csv_ms"] = per(busy("harness.csv"), n("harness.csv"), 1e3)
    if have("ioutil.write"):
        out["ioutil.write_ms"] = per(busy("ioutil.write"), n("ioutil.write"), 1e3)
        out["ioutil.bytes"] = tracer.counters.get("ioutil.bytes", 0) / passes
    if "pipeline.samples" in tracer.counters:
        out["pipeline.samples"] = tracer.counters["pipeline.samples"] / passes
    for stage in ("load", "reconstruct", "attach", "validate", "envelope", "write"):
        if have(f"pipeline.{stage}"):
            out[f"pipeline.{stage}_us"] = per(busy(f"pipeline.{stage}"), samples, 1e6)
    if have("pipeline.offset"):
        out["pipeline.offset_ms"] = per(busy("pipeline.offset"), n("pipeline.offset"), 1e3)
    if have("cli.main"):
        out["cli.self_ms"] = per(own("cli.main"), n("cli.main"), 1e3)
    return out, fallbacks
