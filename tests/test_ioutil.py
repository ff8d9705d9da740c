"""The table writer: ioutil's float kernel against repr, byte for byte."""

import re
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import oracles
from conftest import src_env
from flapsim import ioutil
from flapsim.errors import ConfigError
from flapsim.harness import RUNLOG_FIELDS, load_scenario, run_scenario
from flapsim.ioutil import _float_cells, _yaml_loader, read_table, rows_text, table_text
from flapsim.lqr import read_gain_csv, write_gain_csv
from flapsim.pipeline import reconstruct_runlog, validate_model
from flapsim.vehicle import load_params

WIDTH = 8  # values per row in the oracle tables


def _around(x, ulps=3) -> np.ndarray:
    """x and its neighbours up to ``ulps`` doubles away on either side."""
    out = [np.asarray(x, dtype=float)]
    for direction in (np.inf, -np.inf):
        y = out[0]
        for _ in range(ulps):
            with np.errstate(over="ignore"):  # past the largest double is inf
                y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate([v.ravel() for v in out])


def oracle_values(seed: int) -> dict:
    """The value families the kernel is checked on, 4e5 values in all."""
    rng = np.random.default_rng(seed)
    exps = np.arange(-1074, 1024)
    switches = [1e-4, 1e-5, 1e15, 1e16, 1e17]  # repr changes layout at 1e-4 and 1e16
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e-100, 1e-99, 1e-98, 9.999999999999999e98, 1e99, 1e100,
             0.1, 0.2, 0.3, 1 / 3, 2 / 3, 9.5, 123456789.0, 1e22, 1e23, 2.0**53 + 2]
    families = {
        "bit patterns": rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64),
        "40 decades": 10.0 ** rng.uniform(-20.0, 20.0, 60000),
        "k/240": np.arange(40000) / 240.0,
        "0-6 decimals": np.concatenate(
            [np.round(rng.uniform(0.0, 1e3, 4000), d) for d in range(7)]
            + [np.round(rng.uniform(0.0, 1.0, 4000), d) for d in range(7)]
        ),
        "powers of two": _around(np.ldexp(1.0, exps), ulps=1),
        "powers of ten": _around(10.0 ** np.arange(-101, 102), ulps=3),
        "subnormals": np.concatenate([rng.integers(1, 2**52, 2000).view(np.float64),
                                      np.arange(1, 50).view(np.float64)]),
        "layout switches": np.concatenate([
            _around(np.array(switches) * rng.uniform(0.999, 1.001, (200, 5)), ulps=1),
            _around(switches, ulps=4),
        ]),
        "edges": _around(edges, ulps=3),
    }
    return {name: np.concatenate([v, -v]) if name != "bit patterns" else v
            for name, v in families.items()}


def _rows(values) -> np.ndarray:
    pad = -len(values) % WIDTH
    return np.concatenate([values, np.full(pad, 0.5)]).reshape(-1, WIDTH)


def assert_repr_join(values) -> None:
    """table_text of a 2-D float array is the repr join, byte for byte."""
    columns = [f"c{j}" for j in range(values.shape[1])]
    got = table_text(columns, values)
    want = oracles.table_text_by_repr(columns, values.tolist())
    if got != want:
        for row, g, w in zip(values, got.split("\n")[1:], want.split("\n")[1:]):
            for x, gv, wv in zip(row, g.split(","), w.split(",")):
                assert gv == wv, f"{float(x).hex()}: wrote {gv!r}, repr gives {wv!r}"
        assert got == want


VALUES = oracle_values(20260)


@pytest.mark.parametrize("family", list(VALUES))
def test_table_text_is_the_repr_join_byte_for_byte(family):
    assert_repr_join(_rows(VALUES[family]))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48),
       width=st.integers(1, 4))
def test_table_text_on_raw_bit_patterns(bits, width):
    values = np.array(bits + [0] * (-len(bits) % width), dtype=np.uint64).view(np.float64)
    assert_repr_join(values.reshape(-1, width))


def test_non_finite_cells_are_written_as_repr_writes_them():
    values = np.array([[np.nan, 1.5, -np.inf], [np.inf, -np.nan, 0.1]])
    assert rows_text(values) == "nan,1.5,-inf\ninf,nan,0.1\n"
    assert_repr_join(values)


def test_integer_blocks_are_written_as_integers():
    ints = np.array([0, 7, -3, 10**17 - 1, 10**17, -(10**18), 2**63 - 1, -(2**63)], np.int64)
    floats = np.linspace(-1.0, 1.0, len(ints))
    flags = np.arange(len(ints)) % 2 == 0
    text = table_text(("t", "n", "u", "flag", "x"), floats, ints, np.full(len(ints), 9, np.uint8),
                      flags, np.column_stack([floats]))
    want = [[t, n, 9, int(f), t] for t, n, f in zip(floats.tolist(), ints.tolist(), flags)]
    assert text == oracles.table_text_by_repr(("t", "n", "u", "flag", "x"), want)
    # the dtype decides: integral floats stay floats
    assert rows_text(np.array([1.0, 2.0]), np.array([1, 2])) == "1.0,1\n2.0,2\n"
    assert rows_text(np.array([[1, -2], [30, 4]])) == "1,-2\n30,4\n"
    with pytest.raises(ValueError, match="int64 range"):
        rows_text(np.array([2**64 - 1], np.uint64))


def test_integer_cells_go_through_the_kernel_up_to_2_53_and_str_beyond():
    # every power of two and of ten and their neighbours, both signs, with the
    # int64 limits: below 2**53 the kernel writes them, from 2**53 on str does,
    # from the integer as given
    base = [2**k for k in range(63)] + [10**k for k in range(19)]
    near = {v + d for v in base for d in (-1, 0, 1) if v + d <= 2**63 - 1}
    ints = np.array(sorted(near | {-v for v in near} | {-(2**63)}), np.int64)
    flags = np.arange(len(ints)) % 3 == 0
    want = "".join(f"{v},{int(f)}\n" for v, f in zip(ints.tolist(), flags.tolist()))
    assert rows_text(ints, flags) == want
    # below 1e15 none is left to str, a power of two included; above, an end of
    # its interval can land on an integer, which leaves the cell to str
    small = ints.astype(float)
    assert not np.any(_float_cells(small[np.abs(small) < 1e15])[-1])


def test_table_text_refuses_rows_that_do_not_fit_the_header(tmp_path):
    # a file read_table refuses is never written
    with pytest.raises(ValueError, match="rows have 1 values; the header has 2 columns"):
        table_text(("a", "b"), [[1.0]])
    with pytest.raises(ValueError, match="rows have 3 values; the header has 2 columns"):
        table_text(("a", "b"), np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="different row counts"):
        table_text(("a", "b"), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        table_text(("a",), np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match="no columns"):
        rows_text(np.zeros((2, 0)))
    assert table_text(("t", "a"), np.zeros((0, 2))) == "t,a\n"
    f = tmp_path / "t.csv"
    f.write_text(table_text(("t", "a"), [[0.0, 1.0], [0.5, -2.0]]))
    np.testing.assert_array_equal(read_table(f, ("t", "a")), [[0.0, 1.0], [0.5, -2.0]])


def test_gain_csv_is_the_repr_join(tmp_path, gain_solution):
    for name, matrix in (("K", gain_solution.K), ("P", gain_solution.P)):
        path = tmp_path / f"{name}.csv"
        write_gain_csv(str(path), matrix)
        assert path.read_text() == "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())
        assert np.array_equal(read_gain_csv(str(path)), matrix)


def _fallback_share(values) -> float:
    """The share of non-zero cells the kernel leaves to repr."""
    values = np.asarray(values, dtype=float).ravel()
    return np.count_nonzero(_float_cells(values)[-1]) / np.count_nonzero(values)


@pytest.mark.parametrize("name", ["hover", "circle", "disturbance"])
def test_fast_path_carries_the_bundled_run_logs(name, params, gain):
    ref = resources.files("flapsim") / "scenarios" / f"{name}.scenario"
    with resources.as_file(ref) as path:
        log = run_scenario(load_scenario(path), params, gain)
    floats = np.column_stack([getattr(log, f) for f, _ in RUNLOG_FIELDS if f != "saturated"])
    assert _fallback_share(floats) <= 0.01


def test_fast_path_carries_a_validation_series(params, openloop_log):
    rep = validate_model(reconstruct_runlog(openloop_log), params)
    assert _fallback_share(np.column_stack([rep.t, rep.measured, rep.predicted])) <= 0.01


def test_writer_tables_are_built_on_the_first_write():
    # a run that writes no table never builds the kernel's tables
    code = (
        "import flapsim\n"
        "from flapsim import ioutil\n"
        "from flapsim.harness import Scenario\n"
        "from flapsim.controller import ConstantSchedule\n"
        "from flapsim.dynamics import SimState\n"
        "from flapsim.lqr import lqr_gain\n"
        "p = flapsim.default_robofly_params()\n"
        "sc = Scenario('quiet', 0.05, SimState.at_rest((0.01, 0.0, 0.0)),\n"
        "              ConstantSchedule((0.0, 0.0, 0.0)))\n"
        "flapsim.run_scenario(sc, p, lqr_gain(p).K)\n"
        "tables = (ioutil._scale_table, ioutil._layout_masks, ioutil._tail_words)\n"
        "print([t.cache_info().currsize for t in tables])\n"
        "assert ioutil.rows_text([0.5, -1e-7, 3.0e20], [1, 2, 3]) == '0.5,1\\n-1e-07,2\\n3e+20,3\\n'\n"
        "print([t.cache_info().currsize for t in tables])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[0, 0, 0]", "[1, 1, 1]"]


@pytest.fixture(params=[
    yaml.SafeLoader,
    pytest.param(getattr(yaml, "CSafeLoader", None), marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML built without libyaml")),
], ids=["python", "libyaml"])
def yaml_loader(request, monkeypatch):
    # YamlLoader on each PyYAML safe loader it may be built on, also as read_yaml's loader
    loader = _yaml_loader(request.param)
    monkeypatch.setattr(ioutil, "YamlLoader", loader)
    return loader


def test_yaml_loader_is_built_on_libyaml_where_pyyaml_has_it():
    base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert issubclass(ioutil.YamlLoader, base)


@pytest.mark.parametrize("text, value", [
    ("150e-6", 150e-6), ("5e-4", 5e-4), ("1.0e3", 1000.0), ("-.5E+2", -50.0), ("2_0e1", 200.0),
    ("1e400", float("inf")),
    # as YAML 1.1 reads them
    ("1.5e-4", 1.5e-4), ("1.0e+3", 1000.0), ("1_000", 1000), (".inf", float("inf")),
    ("'5e-4'", "5e-4"), ("e5", "e5"), ("1e", "1e"), ("1e-", "1e-"), ("0x1e3", 0x1e3),
])
def test_yaml_loader_reads_exponent_numbers_as_floats(yaml_loader, text, value):
    got = yaml.load(f"v: {text}\n", Loader=yaml_loader)["v"]
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("load, text, key, line, column", [
    (load_scenario, "name: dup\nduration: 0.1\nseed: 1\nsetpoint: {kind: constant}\nseed: 2\n",
     "seed", 5, 1),
    (load_scenario, "name: dup\nduration: 0.1\nnoise:\n  enabled: true\n"
     "setpoint: {kind: constant}\nnoise:\n  pos_sigma: 1.0e-3\n", "noise", 6, 1),
    (lambda path: load_params(str(path)), "m: 1.5e-4\nm_M: 4.0e-5\nm: 2.0e-4\n", "m", 3, 1),
    # a mapping that is only ever merged, never built on its own
    (load_scenario, "name: dup\nduration: 0.1\nsetpoint: {kind: constant}\ndisturbances:\n"
     "  - <<: {t_start: 0.02, duration: 0.01,\n         t_start: 0.03}\n"
     "    magnitude_g: 0.5\n    direction: [1, 0, 0]\n", "t_start", 6, 10),
], ids=["scenario_seed_twice", "scenario_noise_twice", "params_m_twice", "merge_source_twice"])
def test_yaml_loader_refuses_a_repeated_key_by_name_and_line(
        tmp_path, yaml_loader, load, text, key, line, column):
    # PyYAML alone keeps the last value: seed 2, the second noise section, m = 2e-4
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"duplicate key '{key}'\n  in \"{path}\", "
                                                    f"line {line}, column {column}")):
        load(path)


def test_yaml_loader_merges_keys_and_keeps_yamls_unhashable_key_error(tmp_path, yaml_loader):
    path = tmp_path / "merge.scenario"
    # a key stated after a merge overrides the merged one, also where the merged
    # mapping was itself built with a merge
    path.write_text(
        "name: merge\nduration: 0.1\nsetpoint: {kind: constant}\ndisturbances:\n"
        "  - &pulse {t_start: 0.02, duration: 0.01, magnitude_g: 0.5, direction: [1, 0, 0]}\n"
        "  - &later\n    <<: *pulse\n    t_start: 0.05\n"
        "  - <<: *later\n    duration: 0.02\n")
    first, second, third = load_scenario(path).disturbances
    assert (first.t_start, second.t_start, third.t_start) == (0.02, 0.05, 0.05)
    assert (third.t_end - third.t_start) == pytest.approx(0.02)
    assert np.array_equal(first.force_w, second.force_w)
    with pytest.raises(yaml.constructor.ConstructorError, match="found unhashable key"):
        yaml.load("? [1, 2]\n: 3\n", Loader=yaml_loader)
