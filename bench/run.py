#!/usr/bin/env python3
"""flapsim benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 bench/run.py --workload scenarios --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed. A run builds the workload's inputs from ``--seed``, times the
set-up of a fresh interpreter several times, does one warm-up pass, then
repeats timed passes for about ``--seconds`` seconds, checking each pass's
outputs. Every time is taken at nominal machine speed (see ``Clock``).
``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus the tracing overhead.

Stdout ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is ``{"facts": ...}`` with output digests
and machine facts. See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
MIN_PASSES = 3
REF_SECONDS = 0.004  # reference kernel time at nominal machine speed
REF_SAMPLES = 3      # reference kernel runs after each timed operation, at least,
REF_SHARE = 0.03     # ... and for at least this share of the operation's time,
REF_MAX_SAMPLES = 30  # ... up to this many runs
# numpy/scipy would otherwise start one BLAS thread per core
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "sim_rate": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


PER_LAYER_UNITS = {
    "harness.ticks": "count",
    "harness.tick_us": "us",
    "harness.self_us": "us",
    "harness.csv_ms": "ms",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_us": "us",
    "dynamics.rk4_share": "ratio",
    "dynamics.deriv_calls": "count",
    "dynamics.deriv_us": "us",
    "controller.sense_us": "us",
    "controller.decide_us": "us",
    "vehicle.map_calls": "count",
    "vehicle.map_us": "us",
    "kinematics.calls": "count",
    "kinematics.us": "us",
    "lqr.calls": "count",
    "lqr.gain_ms": "ms",
    "ioutil.write_ms": "ms",
    "ioutil.bytes": "bytes",
    "pipeline.samples": "count",
    "pipeline.load_us": "us",
    "pipeline.reconstruct_us": "us",
    "pipeline.attach_us": "us",
    "pipeline.validate_us": "us",
    "pipeline.envelope_us": "us",
    "pipeline.write_us": "us",
    "pipeline.offset_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead": "ratio",
}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scenarios", "sweep", "flight_data"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up, few passes")
    return ap.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


class Clock:
    """Times operations in host seconds at the nominal machine speed.

    After every operation the reference kernel runs at least
    ``REF_SAMPLES`` times, and for at least ``REF_SHARE`` of the
    operation's time. The operation's raw time is divided by the speed
    factor the kernel saw just before and just after it (median kernel
    time over ``REF_SECONDS``), so drift in the machine's speed cancels
    out.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.refs: list[float] = []
        self._before = self._sample()

    def _sample(self, op_seconds: float = 0.0) -> list[float]:
        out = []
        while len(out) < REF_SAMPLES or (
            sum(out) < REF_SHARE * op_seconds and len(out) < REF_MAX_SAMPLES
        ):
            t0 = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - t0)
        self.refs += out
        return out

    def time(self, fn) -> tuple[float, float]:
        """(raw seconds, seconds at nominal speed) of one call of ``fn``."""
        t0 = time.perf_counter()
        fn()
        raw = time.perf_counter() - t0
        after = self._sample(raw)
        speed = statistics.median(self._before + after) / REF_SECONDS
        self._before = after
        return raw, raw / speed

    def time_pass(self, ops) -> tuple[float, float]:
        raw = scaled = 0.0
        for op in ops:
            r, s = self.time(op)
            raw += r
            scaled += s
        return raw, scaled


def _setup_child(code: str):
    """A fresh interpreter running ``code`` to completion."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    return lambda: subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120
    )


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "flapsim" / "__init__.py").is_file():
        print(f"error: no flapsim sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import flapsim

    if Path(flapsim.__file__).resolve().parent != SRC / "flapsim":
        print(f"error: imported flapsim from {flapsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from reference import reference_kernel
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    facts = machine_facts(args.seed)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, args.smoke)
        clock = Clock(reference_kernel)
        setup_child = _setup_child(wl.setup_code())
        setup = [clock.time(setup_child) for _ in range(1 if args.smoke else SETUP_REPS)]
        tracer = Tracer()
        for op in wl.ops(tracer):  # warm-up: lazy imports, first-touch allocations
            op()
        wl.check()

        min_passes = 1 if args.smoke else MIN_PASSES
        untraced, traced = [], []  # (raw s, nominal s) per pass
        attempted = failed = 0
        expected = None
        t_start = time.perf_counter()
        while True:
            tracing = bool(args.trace) and len(untraced) > len(traced)
            if tracing:
                with tracer.installed():
                    traced.append(clock.time_pass(wl.ops(tracer)))
            else:
                untraced.append(clock.time_pass(wl.ops(tracer)))
            f, digests, done = wl.check()
            attempted += wl.n_ops
            failed += f
            if not tracing:
                expected = done
            if args.trace and len(traced) < len(untraced):
                continue  # traced passes pair up with untraced ones
            if len(untraced) < min_passes:
                continue
            typical = statistics.median(r for r, _ in untraced + traced)
            if time.perf_counter() - t_start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass

    correct = failed == 0
    if args.trace:
        metrics, fallbacks = layer_metrics(tracer, len(traced), expected)
        # span times are raw; bring them to nominal speed like the pass times
        scale = sum(s for _, s in traced) / sum(r for r, _ in traced)
        for name in metrics:
            if PER_LAYER_UNITS.get(name) in ("us", "ms"):
                metrics[name] *= scale
        metrics["trace.overhead"] = (
            statistics.median(s for _, s in traced) / statistics.median(s for _, s in untraced) - 1.0
        )
        for key, want in expected.items():
            if key in metrics and metrics[key] != want:
                correct = False
                print(f"traced {key} = {metrics[key]:g} per pass, untraced work = {want}",
                      file=sys.stderr)
        facts["missing_wrap_points"] = tracer.missing
        facts["fallbacks"] = fallbacks
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "sim_rate": statistics.median(wl.flight_s / s for _, s in untraced),
            "setup_s": statistics.median(s for _, s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    facts.update(wl.facts)
    facts.update({
        "workload": args.workload,
        "speed_factor": statistics.median(clock.refs) / REF_SECONDS,
        "pass_raw_s": [r for r, _ in untraced],
        "pass_nominal_s": [s for _, s in untraced],
        "traced_pass_nominal_s": [s for _, s in traced],
        "setup_raw_s": [r for r, _ in setup],
        "digests": digests,
    })

    print(f"flapsim bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)}")
    for name, value in metrics.items():
        print(f"  {name:<24s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<24s} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted})")
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
