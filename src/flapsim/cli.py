"""Command-line front end: gain synthesis, scenario simulation, model
validation against flight data, and flight-envelope statistics.

Exit codes are a stable scripting contract: 0 success, 1 input/usage
error, 2 numerical failure (synthesis breakdown or a diverged run). All
output files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from importlib import resources

import numpy as np

from .errors import ConfigError, DivergenceError, SynthesisError
from .harness import RUNLOG_COLUMNS, load_scenario, loop_jacobian, metrics, run_scenario
from .ioutil import atomic_write_text, read_header
from .lqr import (
    INPUT_LABELS,
    SIGMA_LABELS,
    LqrWeights,
    default_weights,
    lqr_gain,
    read_gain_csv,
    write_gain_csv,
)
from .pipeline import (
    CUTOFF_HZ,
    ValidationReport,
    flight_envelope,
    load_command_csv,
    load_mocap_csv,
    load_runlog_csv,
    reconstruct,
    reconstruct_runlog,
    validate_model,
)
from .vehicle import BUILTIN_PROFILE, load_params

__all__ = ["main"]

BUNDLED_SCENARIOS = ("hover", "circle", "disturbance")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse calls sys.exit(2) on bad input; remap to the exit-1 contract
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _cutoff(text: str) -> float:
    """``--cutoff`` in Hz, refused at parse time unless finite and > 0."""
    try:
        hz = float(text)
    except ValueError:
        hz = math.nan
    if not (math.isfinite(hz) and hz > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return hz


@functools.cache  # the tree never changes; parse_args keeps no state in it
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--params",
        default=BUILTIN_PROFILE,
        help=f"vehicle parameter YAML, or the built-in profile {BUILTIN_PROFILE!r}",
    )
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress stdout reports")
    flight = argparse.ArgumentParser(add_help=False)
    flight.add_argument("data", nargs="+", help="run-log CSVs and/or mocap pose CSVs")
    flight.add_argument("--cutoff", type=_cutoff, default=CUTOFF_HZ,
                        help="filter cutoff Hz (default %(default)g)")

    ap = _Parser(prog="flapsim", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gains", parents=[common],
                       help="synthesize the hover LQR gain for the 240 Hz loop")
    g.add_argument("--q", help="comma-separated 10-entry state weight diagonal")
    g.add_argument("--r", help="comma-separated 3-entry input weight diagonal")

    s = sub.add_parser("simulate", parents=[common], help="run a closed-loop scenario")
    s.add_argument("scenario", help=f"scenario file path or bundled name {BUNDLED_SCENARIOS}")
    s.add_argument("--gains", help="gain CSV (default: synthesize with default weights "
                   "at the scenario's control rate)")
    s.add_argument("--seed", type=int, help="override the scenario seed")
    s.add_argument("--noise", choices=("on", "off"), help="override the scenario noise flag")
    s.add_argument(
        "--check-step",
        action="store_true",
        help="also rerun at twice the substeps and print the largest log difference",
    )

    v = sub.add_parser("validate", parents=[common, flight],
                       help="compare flight data with the model")
    v.add_argument(
        "--commands",
        action="append",
        default=[],
        help="command CSV (t,A,dA,Vo) for each mocap input, in order",
    )

    sub.add_parser("envelope", parents=[common, flight], help="tilt/speed visit histogram")
    return ap


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _parse_diag(text: str, n: int, what: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise _UsageError(f"--{what}: {exc}") from None
    if vals.shape != (n,):
        raise _UsageError(f"--{what}: expected {n} comma-separated entries, got {len(vals)}")
    if not np.all(np.isfinite(vals)):
        raise _UsageError(f"--{what}: entries must be finite, got {text!r}")
    return vals


def _weights_from_args(args, p) -> LqrWeights:
    defaults = default_weights(p)
    q = np.diag(defaults.Q).copy() if args.q is None else _parse_diag(args.q, 10, "q")
    r = np.diag(defaults.R).copy() if args.r is None else _parse_diag(args.r, 3, "r")
    if np.any(r <= 0.0):
        raise _UsageError("--r: R must be positive definite (all diagonal entries > 0)")
    if np.any(q < 0.0):
        raise _UsageError("--q: Q diagonal entries must be >= 0")
    return LqrWeights.from_diagonals(q, r)


def _cmd_gains(args) -> int:
    p = load_params(args.params)
    sol = lqr_gain(p, _weights_from_args(args, p))
    J, tick_rho = loop_jacobian(p, sol.K, sol.rate)
    out = _ensure_outdir(args.out)
    gain_path = os.path.join(out, "gains.csv")
    write_gain_csv(gain_path, sol.K)
    write_gain_csv(os.path.join(out, "gains_P.csv"), sol.P)

    residual = f"dare residual (relative): {sol.dare_residual:.3e}"
    rho = f"exact-state spectral radius at {sol.rate:g} Hz: {sol.zoh_spectral_radius:.6f}"
    tick = f"tick spectral radius with the estimator at {sol.rate:g} Hz: {tick_rho:.6f}"
    lines = [
        "hover LQR synthesis",
        f"params: {args.params}",
        f"states: {', '.join(SIGMA_LABELS)}",
        f"inputs: {', '.join(INPUT_LABELS)}",
        f"synthesized and certified at {sol.rate:g} Hz (discrete Riccati, zero-order hold)",
        residual,
        rho,
        tick,
    ]
    tick_eigs = np.linalg.eigvals(J)  # its structural zeros read below 1e-11
    for title, eigs in (("exact-state closed-loop", sol.closed_loop_eigs),
                        ("tick Jacobian's nonzero", tick_eigs[abs(tick_eigs) > 1e-8])):
        lines.append(f"{title} eigenvalues (z-plane), with |z|:")
        lines += [f"  {z.real:+.6e} {z.imag:+.6e}j  |z| {abs(z):.6f}"
                  for z in sorted(eigs, key=abs, reverse=True)]
    atomic_write_text(os.path.join(out, "gains_report.txt"), "\n".join(lines) + "\n")
    if not args.quiet:
        print(f"gain written to {gain_path}")
        print(residual, rho, tick, sep="\n")
    return 0


def _resolve_scenario(name: str, p):
    """A scenario file or bundled name; ``p`` scales its g-unit pulses.

    Only a regular file takes precedence over a bundled name, so the
    directory ``simulate hover --out hover`` leaves does not hide ``hover``.
    """
    if os.path.isfile(name):
        return load_scenario(name, p)
    base = name[: -len(".scenario")] if name.endswith(".scenario") else name
    if os.sep not in name and base in BUNDLED_SCENARIOS:
        ref = resources.files("flapsim") / "scenarios" / f"{base}.scenario"
        with resources.as_file(ref) as path:
            return load_scenario(path, p)
    raise FileNotFoundError(
        f"scenario {name!r} is neither a file nor one of the bundled "
        f"scenarios {BUNDLED_SCENARIOS}"
    )


def _cmd_simulate(args) -> int:
    import dataclasses

    p = load_params(args.params)
    sc = _resolve_scenario(args.scenario, p)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    if args.noise is not None:
        sc = dataclasses.replace(
            sc, noise=dataclasses.replace(sc.noise, enabled=(args.noise == "on"))
        )
    K = read_gain_csv(args.gains) if args.gains else lqr_gain(p, rate=sc.control_rate).K
    out = _ensure_outdir(args.out)
    try:
        log = run_scenario(sc, p, K)
    except DivergenceError as exc:
        if exc.partial_log is not None:
            partial = os.path.join(out, f"{sc.name}_runlog_partial.csv")
            exc.partial_log.write_csv(partial)
            print(f"run diverged; partial log written to {partial}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = os.path.join(out, f"{sc.name}_runlog.csv")
    log.write_csv(path)
    if not args.quiet:
        print(f"run log written to {path}  ({len(log)} ticks, seed {sc.seed})")
        print(metrics(log).to_text())
    if args.check_step:
        from .harness import step_error

        n = sc.physics_substeps
        d_pos, d_att = step_error(sc, p, K, coarse=log)
        print(f"step check: {n} vs {2 * n} substeps per tick: max position difference "
              f"{d_pos:.3e} m, max attitude difference {d_att:.3e} rad")
    return 0


def _is_runlog_file(path: str) -> bool:
    return read_header(path) == RUNLOG_COLUMNS


def _reconstruct_each(paths, commands, cutoff_hz: float, p):
    """Reconstruct the input files one by one; mocap files take the command CSVs
    in order, and command CSVs left over are refused before any reconstruction."""
    is_log = [_is_runlog_file(path) for path in paths]
    unused = commands[is_log.count(False):]
    if unused:
        raise _UsageError(f"--commands: no mocap input takes {', '.join(unused)}")
    commands = iter(commands)
    for path, log in zip(paths, is_log):
        if log:
            yield reconstruct_runlog(load_runlog_csv(path), cutoff_hz)
            continue
        rs = reconstruct(load_mocap_csv(path), cutoff_hz)
        command_path = next(commands, None)
        if command_path is not None:
            rs = rs.attach_commands(*load_command_csv(command_path), p)
        yield rs


def _stack_reports(reports) -> ValidationReport:
    if len(reports) == 1:
        return reports[0]
    ts, offset = [], 0.0
    for r in reports:
        ts.append(r.t - r.t[0] + offset)
        span = r.t[-1] - r.t[0]
        offset += span + (span / max(len(r.t) - 1, 1))  # one nominal gap sample
    return ValidationReport(
        t=np.concatenate(ts),
        measured=np.vstack([r.measured for r in reports]),
        predicted=np.vstack([r.predicted for r in reports]),
    )


def _cmd_validate(args) -> int:
    p = load_params(args.params)
    reports = []
    for path, rs in zip(args.data, _reconstruct_each(args.data, args.commands, args.cutoff, p)):
        if rs.wrench is None:
            raise ConfigError(
                f"{path}: no wrench available — mocap inputs need a --commands CSV"
            )
        reports.append(validate_model(rs, p))
    report = _stack_reports(reports)
    out = _ensure_outdir(args.out)
    report.write_series_csv(os.path.join(out, "validation_series.csv"))
    atomic_write_text(os.path.join(out, "validation_report.txt"), report.to_text() + "\n")
    if not args.quiet:
        print(report.to_text())
        print(f"series written to {os.path.join(out, 'validation_series.csv')}")
    return 0


def _cmd_envelope(args) -> int:
    p = load_params(args.params)
    grid = None
    for rs in _reconstruct_each(args.data, [], args.cutoff, p):
        g = flight_envelope(rs)
        grid = g if grid is None else grid.merge(g)
    out = _ensure_outdir(args.out)
    path = os.path.join(out, "envelope.csv")
    grid.write_csv(path)
    if not args.quiet:
        occupied = int(np.count_nonzero(grid.counts))
        print(
            f"envelope written to {path}  ({grid.total()} samples, "
            f"{occupied} occupied bins)"
        )
    return 0


_DISPATCH = {
    "gains": _cmd_gains,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "envelope": _cmd_envelope,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        # covers schema errors, bad CLI values, malformed, missing or unreadable
        # input files and output paths that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SynthesisError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
