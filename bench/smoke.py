#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (about two minutes).

Run from the repository root::

    python3 bench/smoke.py

For every workload in BENCHMARK.json and both trace modes it runs
``bench/run.py --smoke`` and checks the result line: exactly the keys
``correct, attempted, failed, metrics``, a correct run with no failures,
and exactly the metric names and units BENCHMARK.json declares for that
mode. It then checks that the benchmark exits non-zero without printing a
result in a directory that holds only BENCHMARK.json and the benchmark's
own files. Exits 1 on the first problem. It is not part of the test
suite: it runs the program for real and takes too long for that.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"{where}: not a clean run: {result}\n{proc.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        sys.exit(f"{where}: metrics/units {got} differ from BENCHMARK.json {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            sys.exit(f"{where}: {name} = {m['value']!r} is not a finite number")
    if not trace and any(result["metrics"][k]["value"] <= 0 for k in declared):
        sys.exit(f"{where}: an end-to-end metric is not positive: {result['metrics']}")
    print(f"ok  {where}: {result['attempted']} ops")


def check_fails_without_program(spec: dict) -> None:
    bare = ROOT / ".bench_work" / f"smoke-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit(f"bare checkout: exit code {proc.returncode}, stdout {proc.stdout!r}")
        print("ok  bare checkout fails without printing a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()  # only if no benchmark run is using it
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_fails_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
