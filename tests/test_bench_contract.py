"""The benchmark under bench/ imports the program and wraps some of its calls.

An API move that would crash ``bench/run.py`` or silently drop one of its
per-layer timing spans fails here instead.
"""

from pathlib import Path

import pytest

from flapsim.harness import run_scenario, scenario_from_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_bench_imports_and_finds_every_wrap_point(spans):
    import workloads  # noqa: F401  (imports the program names the workloads use)

    assert spans.Tracer().missing == []


def test_traced_run_counts_one_sense_per_tick_and_one_rk4_per_substep(spans, params, gain):
    # bench/run.py marks a traced run incorrect unless these counts equal
    # the work of an untraced pass
    sc = scenario_from_dict(
        {"name": "traced", "duration": 0.1, "physics_substeps": 4, "seed": 5,
         "noise": {"enabled": True},
         "setpoint": {"kind": "circle", "radius": 0.1, "speed": 0.25}},
        params,
    )
    tracer = spans.Tracer()
    with tracer.installed():
        log = run_scenario(sc, params, gain)
    ticks = len(log)
    assert ticks == 24
    assert tracer.stats["controller.sense"][0] == ticks
    assert tracer.stats["controller.schedule"][0] == ticks
    assert tracer.stats["dynamics.rk4"][0] == ticks * 4


@pytest.mark.parametrize(
    "extra",
    [
        # starts and ends inside substeps of ticks 2 and 7: each edge splits its
        # substep in two, one RK4 step more per edge
        {"disturbances": [{"t_start": 0.0105, "duration": 0.02, "magnitude_g": 0.1,
                           "direction": [0.0, 1.0, 0.0]}]},
    ],
    ids=["pulse"],
)
def test_traced_run_spans_every_tick_branch(spans, params, gain, extra):
    sc = scenario_from_dict(
        {"name": "traced", "duration": 0.05, "physics_substeps": 4, "seed": 7,
         "noise": {"enabled": True}, "initial": {"pos": [0.01, 0.0, 0.0]},
         "setpoint": {"kind": "constant"}, **extra},
        params,
    )
    tracer = spans.Tracer()
    assert tracer.missing == []
    with tracer.installed():
        log = run_scenario(sc, params, gain)
    ticks = len(log)
    assert ticks == 12
    assert tracer.stats["controller.sense"][0] == ticks
    assert tracer.stats["controller.schedule"][0] == ticks
    assert tracer.stats["controller.decide"][0] == ticks
    assert tracer.stats["dynamics.rk4"][0] == ticks * 4 + 2
