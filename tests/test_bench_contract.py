"""The benchmark under bench/ imports the program and wraps some of its calls.

An API move that would crash ``bench/run.py`` or silently drop one of its
per-layer timing spans fails here instead.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_imports_and_finds_every_wrap_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads  # noqa: F401  (imports the program names the workloads use)

    assert spans.Tracer().missing == []
