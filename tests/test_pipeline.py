"""Offline pipeline tests: mocap I/O, reconstruction, validation, envelope."""

import math
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import make_trim_flight, src_env, write_mocap_csv
from flapsim.errors import ConfigError, GimbalLockError, SchemaError
from flapsim.ioutil import read_table, table_text
from flapsim.harness import RUNLOG_COLUMNS, Scenario, run_scenario
from flapsim.controller import ConstantSchedule, Setpoint
from flapsim.dynamics import SimState, state_derivative
from flapsim.kinematics import (
    EulerAngles321,
    Quaternion,
    euler_to_quat,
    euler_to_rotmat,
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotvec,
    rotmat_to_euler,
)
from flapsim.pipeline import (
    CUTOFF_HZ,
    FILTER_BLOCK,
    EnvelopeGrid,
    MocapTrajectory,
    _butter,
    _filtfilt,
    _stitch_hemisphere,
    estimate_body_offset,
    flight_envelope,
    load_command_csv,
    load_mocap_csv,
    load_runlog_csv,
    reconstruct,
    reconstruct_runlog,
    trajectory_from_runlog,
    validate_model,
)
from flapsim.vehicle import ActuatorCmd, Wrench, cmd_to_wrench, hover_thrust, wrench_to_cmd


def constant_trajectory(n=120, pos=(0.1, 0.2, 0.3), euler=(0.0, 0.0, 0.0), rate=240.0):
    t = np.arange(n) / rate
    q = euler_to_quat(EulerAngles321(*euler)).canonical()
    quat = np.tile([q.w, q.x, q.y, q.z], (n, 1))
    return MocapTrajectory(t, np.tile(pos, (n, 1)), quat, source="synthetic")


def test_import_flapsim_leaves_scipy_signal_unloaded():
    # scipy is slow to import; the filtered reconstruction designs and
    # applies its Butterworth filter with numpy alone, so no scipy module loads
    code = ("import sys, numpy as np, flapsim, flapsim.cli\n"
            "from flapsim.pipeline import MocapTrajectory, reconstruct\n"
            "n = 200\n"
            "t = np.arange(n) / 240.0\n"
            "pos = np.column_stack([np.sin(t), np.cos(t), t])\n"
            "tr = MocapTrajectory(t, pos, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)))\n"
            "assert len(reconstruct(tr)) == n - 2 * 24\n"  # filtered: 24 trimmed per end
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# mocap files
# ---------------------------------------------------------------------------


def test_load_mocap_minimal(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text(
        "t,x,y,z,qw,qx,qy,qz\n"
        "0.0,0.0,0.0,0.0,1.0,0.0,0.0,0.0\n"
        "  \n"
        "0.01,0.001,0.0,0.0,1.0,0.0,0.0,0.0\n"
    )
    tr = load_mocap_csv(f)
    assert len(tr) == 2
    assert tr.sample_rate == pytest.approx(100.0, rel=1e-9)
    assert tr.source == str(f)
    assert tr.gap_indices == ()
    tr2 = load_mocap_csv(f, source="flight-3")
    assert tr2.source == "flight-3"


def test_load_mocap_canonicalizes_negated_quaternions(tmp_path):
    s = math.sqrt(0.5)
    f = tmp_path / "m.csv"
    f.write_text(
        "t,x,y,z,qw,qx,qy,qz\n"
        f"0.0,0,0,0,{-s},0.0,0.0,{-s}\n"
        "0.01,0,0,0,1.0,0.0,0.0,0.0\n"
    )
    tr = load_mocap_csv(f)
    np.testing.assert_allclose(tr.quat[0], [s, 0.0, 0.0, s], atol=1e-12)
    assert np.all(tr.quat[:, 0] >= 0.0)


def test_load_mocap_scalar_last_header(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text(
        "t,x,y,z,qx,qy,qz,qw\n"
        "0.0,1,2,3,0.0,0.0,0.0,1.0\n"
        "0.01,1,2,3,0.0,0.0,0.0,1.0\n"
    )
    tr = load_mocap_csv(f)
    np.testing.assert_array_equal(tr.quat[0], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(tr.pos_w[0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "text,match",
    [
        ("", "empty file"),
        ("t,x,y,z\n", "does not match"),
        ("t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n", "at least 2 data rows"),
        ("t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0\n", ":2: expected 8 columns"),
        ("t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.01,zero,0,0,1,0,0,0\n", ":3:"),
        (
            "t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0,0,0,0,1,0,0,0\n",
            "not strictly increasing",
        ),
        (
            "t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.01,0,0,0,0.5,0,0,0\n",
            "not unit",
        ),
        ("t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.01,0,nan,0,1,0,0,0\n", ":3: y is not finite"),
        (
            "t,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n\n0.02,0,0,0,1,0,0,0\n0.01,0,0,0,1,0,0,0\n",
            ":5: timestamps not strictly increasing",
        ),
    ],
)
def test_load_mocap_rejects(tmp_path, text, match):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(SchemaError, match=match):
        load_mocap_csv(f)


def test_mocap_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    n = 20
    t = np.arange(n) / 240.0
    pos = rng.normal(size=(n, 3)) * 0.1
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1)[:, None]
    tr = MocapTrajectory(t, pos, quat)
    f = tmp_path / "rt.csv"
    write_mocap_csv(f, tr)
    back = load_mocap_csv(f)
    np.testing.assert_array_equal(back.t, tr.t)
    np.testing.assert_array_equal(back.pos_w, tr.pos_w)
    # quaternions are re-normalized on load; only ulp-level drift allowed
    np.testing.assert_allclose(back.quat, tr.quat, atol=1e-15)
    # with quaternions of exactly unit norm, read -> write gives the same bytes
    unit = np.array([[0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0], [0.6, 0.0, 0.0, -0.8]])
    write_mocap_csv(f, MocapTrajectory(t, pos, unit[np.arange(n) % 3]))
    again = tmp_path / "again.csv"
    write_mocap_csv(again, load_mocap_csv(f))
    assert again.read_bytes() == f.read_bytes()


def test_mocap_gap_detection():
    t = np.concatenate([np.arange(10) / 240.0, [10.0 / 240.0 + 5.0 / 240.0]])
    n = len(t)
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    tr = MocapTrajectory(t, np.zeros((n, 3)), quat)
    assert tr.gap_indices == (9,)
    with pytest.raises(ValueError, match="timing gap"):
        reconstruct(tr)


def test_trajectory_from_runlog_matches_truth(params, gain):
    sched = ConstantSchedule(Setpoint.hold((0.0, 0.0, 0.0)))
    init = SimState((0.01, 0.0, 0.0), (0, 0, 0), EulerAngles321(0, 0, 0), (0, 0, 0))
    sc = Scenario(name="short", duration=0.1, initial=init, schedule=sched)
    log = run_scenario(sc, params, gain)
    tr = trajectory_from_runlog(log)
    assert tr.source == "short"
    np.testing.assert_array_equal(tr.t, log.t)
    np.testing.assert_array_equal(tr.pos_w, log.pos_w)
    q5 = euler_to_quat(EulerAngles321(*log.euler[5])).canonical()
    np.testing.assert_allclose(tr.quat[5], [q5.w, q5.x, q5.y, q5.z], atol=1e-15)


def test_load_runlog_csv_rejects(tmp_path):
    f = tmp_path / "r.csv"
    f.write_text("t,x,y\n")
    with pytest.raises(SchemaError, match=":1: header 't,x,y' does not match"):
        load_runlog_csv(f)
    from flapsim.harness import RUNLOG_COLUMNS

    header = ",".join(RUNLOG_COLUMNS)
    f.write_text(header + "\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_runlog_csv(f)
    row = ",".join(["0.0"] * len(RUNLOG_COLUMNS))
    f.write_text(header + "\n" + row + "\n" + row + "\n")
    with pytest.raises(SchemaError, match=":3: timestamps not strictly increasing"):
        load_runlog_csv(f)
    bad = ",".join(["1.0"] * (len(RUNLOG_COLUMNS) - 1) + ["nan"])
    f.write_text(header + "\n" + row + "\n\n" + bad + "\n")
    with pytest.raises(SchemaError, match=":4: saturated is not finite"):
        load_runlog_csv(f)


@pytest.mark.parametrize("flag", ["0.7", "-3"])
def test_load_runlog_csv_rejects_saturated_other_than_0_and_1(tmp_path, flag):
    from flapsim.harness import RUNLOG_COLUMNS

    row = ",".join(["0.0"] * len(RUNLOG_COLUMNS))
    bad = ",".join(["1.0"] * (len(RUNLOG_COLUMNS) - 1) + [flag])
    f = tmp_path / "r.csv"
    f.write_text(",".join(RUNLOG_COLUMNS) + "\n" + row + "\n" + bad + "\n")
    with pytest.raises(SchemaError, match=rf":3: saturated must be 0 or 1 \({float(flag)!r}\)"):
        load_runlog_csv(f)


def test_load_command_csv(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("t,A,dA,Vo\n0.0,129.0,0.0,0.0\n\n0.5,130.0,1.0,-2.0\n")
    t, cmds = load_command_csv(f)
    np.testing.assert_array_equal(t, [0.0, 0.5])
    np.testing.assert_array_equal(cmds[1], [130.0, 1.0, -2.0])
    f.write_text("time,A,dA,Vo\n0,0,0,0\n")
    with pytest.raises(SchemaError, match="does not match"):
        load_command_csv(f)
    f.write_text("t,A,dA,Vo\n0.5,129,0,0\n0.1,129,0,0\n")
    with pytest.raises(SchemaError, match=":3: timestamps not strictly increasing"):
        load_command_csv(f)
    f.write_text("t,A,dA,Vo\n0.0,129,0,0\n0.5,129,nan,0\n")
    with pytest.raises(SchemaError, match=":3: dA is not finite"):
        load_command_csv(f)
    f.write_text("t,A,dA,Vo\n")
    with pytest.raises(SchemaError, match="no data rows"):
        load_command_csv(f)


# ---------------------------------------------------------------------------
# table reader against the line-by-line float() reader
# ---------------------------------------------------------------------------

_SMALL_TABLE = (("t", "a", "flag"), ("flag",))
_LOSSLESS = (repr, "{:.16e}".format, "{:.16E}".format, " {!r} ".format, "\t{!r}".format)


def _value_token(draw, name, binary, plain):
    if name in binary:
        return draw(st.sampled_from(["0", "1", "1.0", "0e0", " 1 ", "-0", "1E0"]))
    if draw(st.booleans()):
        k = draw(st.integers(-(10**7), 10**7))
        forms = ["{:d}", " {:d}", "{:d}.", "{:d}e-3"] + ([] if plain else ["{:_d}"])
        return draw(st.sampled_from(forms)).format(k)
    x = draw(st.floats(-1e307, 1e307))  # '{:+.3g}' of 1.79e308 would overflow
    return draw(st.sampled_from(_LOSSLESS + ("{:+.3g}".format, "{:.5E}".format)))(x)


@st.composite
def _tables(draw, min_rows=1):
    """(columns, binary, header line, data lines as [(is_row, text)], line ending).

    A plain table has no whitespace-only line and no '1_000' token, the
    forms that numpy's reader refuses and ``float()`` accepts.
    """
    columns, binary = draw(st.sampled_from([_SMALL_TABLE, (RUNLOG_COLUMNS, ("saturated",))]))
    plain = draw(st.booleans())
    blanks = [""] if plain else ["", "  ", "\t"]
    steps = draw(st.lists(st.floats(1e-6, 10.0), min_size=min_rows, max_size=5))
    lines = []
    for t in np.cumsum(steps).tolist():
        lines += [(False, b) for b in draw(st.lists(st.sampled_from(blanks), max_size=2))]
        tokens = [draw(st.sampled_from(_LOSSLESS))(t)]
        tokens += [_value_token(draw, name, binary, plain) for name in columns[1:]]
        lines.append((True, ",".join(tokens)))
    pad = draw(st.sampled_from(["", " "]))
    header = ",".join(pad + c + pad for c in columns)
    return columns, binary, header, lines, draw(st.sampled_from(["\n", "\r\n"]))


def _both_readers(path, columns, binary):
    """What read_table and the reference reader give: (header, rows) or the error text."""
    try:
        ref = oracles.read_table_by_line(path, columns, binary=binary)
    except ValueError as exc:
        ref = str(exc)
    try:
        got = read_table(path, columns, binary=binary)
    except SchemaError as exc:
        got = str(exc)
    return got, ref


def _write_table(tmp_path_factory, header, lines, eol):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(eol.join([header, *(text for _, text in lines), ""]).encode())
    return path


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_read_table_matches_line_reader_on_valid_tables(tmp_path_factory, table):
    columns, binary, header, lines, eol = table
    path = _write_table(tmp_path_factory, header, lines, eol)
    got, ref = _both_readers(path, columns, binary)
    assert not isinstance(ref, str), ref
    assert got[0] == ref[0] == columns
    assert got[1].shape == ref[1].shape == (sum(r for r, _ in lines), len(columns))
    assert got[1].dtype == np.float64 and got[1].tobytes() == ref[1].tobytes()


_FAULTS = ("short", "long", "token", "nonfinite", "late", "binary", "comment")


@settings(max_examples=100, deadline=None)
@given(table=_tables(min_rows=2), fault=st.sampled_from(_FAULTS), data=st.data())
def test_read_table_matches_line_reader_on_malformed_tables(tmp_path_factory, table, fault, data):
    columns, binary, header, lines, eol = table
    rows = [i for i, (is_row, _) in enumerate(lines) if is_row]
    i = data.draw(st.sampled_from(rows[1:]))
    fields = lines[i][1].split(",")
    j = data.draw(st.integers(0, len(fields) - 1))
    if fault == "short":
        del fields[j]
    elif fault == "long":
        fields.insert(j, "0")
    elif fault == "token":
        fields[j] = data.draw(st.sampled_from(["x", "", "1..2", "0x10", "1e", "--1", "1 2", "nan(1)"]))
    elif fault == "nonfinite":
        fields[j] = data.draw(st.sampled_from(["nan", "-nan", "inf", "-inf", " Infinity"]))
    elif fault == "late":
        fields[0] = lines[rows[rows.index(i) - 1]][1].split(",")[0]
    elif fault == "binary":
        fields[columns.index(binary[0])] = data.draw(st.sampled_from(["0.5", "2", "-1", "1e-300"]))
    else:  # a '#' line is data like any other, and not a number
        lines.insert(i, (False, data.draw(st.sampled_from(["# note", "#" + lines[i][1]]))))
    if fault != "comment":
        lines[i] = (True, ",".join(fields))
    path = _write_table(tmp_path_factory, header, lines, eol)
    got, ref = _both_readers(path, columns, binary)
    assert isinstance(ref, str)
    assert got == ref and ref.startswith(f"{path}:")


@pytest.mark.parametrize("body", ["", "\n", "\n\n", "  \n\t\n", "\r\n"])
def test_read_table_header_only_is_no_data_rows(tmp_path, body):
    f = tmp_path / "h.csv"
    f.write_text("t,a\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError) as exc:
            read_table(f, ("t", "a"))
    assert str(exc.value) == f"{f}: no data rows"


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


_STITCH_STEPS = st.sampled_from(["random", "negate", "axis", "-axis", "nan"])


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_STITCH_STEPS, min_size=1, max_size=30), seed=st.integers(0, 2**32 - 1))
@example(steps=["axis", "axis", "negate", "-axis", "random", "nan", "random"], seed=0)
def test_stitch_hemisphere_matches_loop(steps, seed):
    # neighbouring unit axes have a dot of exactly +-0, which resets the sign
    rng = np.random.default_rng(seed)
    quat = rng.normal(size=(len(steps), 4))
    for i, step in enumerate(steps):
        if step == "negate" and i:
            quat[i] = -quat[i - 1]
        elif step.endswith("axis"):
            quat[i] = np.eye(4)[i % 4] * (-1.0 if step[0] == "-" else 1.0)
        elif step == "nan":
            quat[i, i % 4] = np.nan
    got = _stitch_hemisphere(quat)
    assert got.tobytes() == oracles.stitch_hemisphere_loop(quat).tobytes()


def test_reconstruct_constant_pose_is_static():
    rs = reconstruct(constant_trajectory(n=120))
    assert len(rs) == 120 - 2 * 24  # 2 cutoff periods trimmed per end at 240 Hz
    np.testing.assert_allclose(rs.pos_w, np.tile([0.1, 0.2, 0.3], (len(rs), 1)), atol=1e-9)
    np.testing.assert_allclose(rs.vel_w, 0.0, atol=1e-9)
    np.testing.assert_allclose(rs.vel_b, 0.0, atol=1e-9)
    np.testing.assert_allclose(rs.omega_b, 0.0, atol=1e-9)
    np.testing.assert_allclose(rs.accel_body, 0.0, atol=1e-9)
    np.testing.assert_allclose(rs.euler, 0.0, atol=1e-9)


def test_reconstruct_free_fall_acceleration():
    rate = 240.0
    t = np.arange(240) / rate
    pos = np.zeros((240, 3))
    pos[:, 2] = -0.5 * 9.81 * t**2
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (240, 1))
    rs = reconstruct(MocapTrajectory(t, pos, quat))
    mid = len(rs) // 2
    assert rs.accel_w[mid, 2] == pytest.approx(-9.81, rel=1e-3)
    assert rs.accel_body[mid, 2] == pytest.approx(-9.81, rel=1e-3)
    assert rs.vel_w[mid, 2] == pytest.approx(-9.81 * rs.t[mid], rel=1e-3)


def test_reconstruct_zero_phase_filtering():
    # a 2 Hz tone passes the 20 Hz zero-phase filter without lag or droop
    rate = 240.0
    t = np.arange(480) / rate
    pos = np.zeros((480, 3))
    pos[:, 0] = 0.05 * np.sin(2.0 * math.pi * 2.0 * t)
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (480, 1))
    rs = reconstruct(MocapTrajectory(t, pos, quat))
    ref = 0.05 * np.sin(2.0 * math.pi * 2.0 * rs.t)
    np.testing.assert_allclose(rs.pos_w[:, 0], ref, atol=5e-5)
    # velocity should match the analytic derivative mid-window
    vref = 0.05 * 2.0 * math.pi * 2.0 * np.cos(2.0 * math.pi * 2.0 * rs.t)
    mid = slice(len(rs) // 4, 3 * len(rs) // 4)
    np.testing.assert_allclose(rs.vel_w[mid, 0], vref[mid], rtol=5e-3, atol=1e-4)


def test_reconstruct_short_trajectory_rejected():
    with pytest.raises(ValueError, match="too short"):
        reconstruct(constant_trajectory(n=8))


def test_reconstruct_cutoff_above_nyquist_rejected():
    tr = constant_trajectory(n=40, rate=30.0)
    for cutoff in (20.0, math.inf):
        with pytest.raises(ConfigError, match="is not below Nyquist"):
            reconstruct(tr, cutoff_hz=cutoff)
    # exactly Nyquist is refused however the rate inferred from the
    # timestamps rounds (at 100 and 250 Hz it reads below nominal)
    for rate in (30.0, 100.0, 120.0, 240.0, 250.0, 960.0):
        with pytest.raises(ConfigError, match="is not below Nyquist"):
            reconstruct(constant_trajectory(n=40, rate=rate), cutoff_hz=rate / 2)
    assert len(reconstruct(constant_trajectory(n=40, rate=240.0), cutoff_hz=119.9)) == 40 - 2 * 8


@pytest.mark.parametrize("order", range(1, 9))
def test_butter_is_scipys_bit_for_bit(order):
    from scipy.signal import butter

    for wn in (0.01, 1 / 24, 0.1, 1 / 6, 0.25, 0.5, 0.7, 0.9, 0.99):
        b, a = _butter(order, wn)
        b_ref, a_ref = butter(order, wn)
        np.testing.assert_array_equal(b, b_ref)
        np.testing.assert_array_equal(a, a_ref)


@pytest.mark.parametrize("order", range(1, 5))
def test_filtfilt_matches_scipy(order):
    from scipy.signal import filtfilt

    rng = np.random.default_rng(order)
    for wn in (1 / 24, 1 / 6, 0.4, 0.9):
        b, a = _butter(order, wn)
        for n in (9, 10, 16, 100, 1250):
            # random walks with offsets, as positions and quaternion components drift
            x = np.cumsum(rng.normal(size=(n, 7)), axis=0) + rng.normal(0.0, 10.0, 7)
            padlen = min(3 * len(a), n - 1)
            want = filtfilt(b, a, x, axis=0, padlen=padlen)
            got = _filtfilt(b, a, x, padlen)
            assert got.shape == x.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.max(np.abs(x)))


def test_order_2_filtfilt_matches_sosfiltfilt_at_every_cutoff():
    # at order 2 the transfer-function form keeps every digit that scipy's
    # second-order sections keep, down to the lowest cutoffs; this is why
    # reconstruct fixes its order at 2
    from scipy.signal import butter, sosfiltfilt

    rng = np.random.default_rng(2)
    for wn in (5e-4, 1e-3, 4e-3, 0.01, 1 / 24, 0.1, 0.25, 0.5, 0.9):
        b, a = _butter(2, wn)
        sos = butter(2, wn, output="sos")
        for n in (9, 100, 2400):
            x = np.cumsum(rng.normal(size=(n, 7)), axis=0) + rng.normal(0.0, 10.0, 7)
            padlen = min(3 * len(a), n - 1)
            want = sosfiltfilt(sos, x, axis=0, padtype="odd", padlen=padlen)
            got = _filtfilt(b, a, x, padlen)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.max(np.abs(x)))


# one block; padded lengths (9 samples a side) of L - 1, L and L + 1; the same
# unpadded; and many blocks with a ragged last one
FILTER_LENGTHS = (9, FILTER_BLOCK - 19, FILTER_BLOCK - 18, FILTER_BLOCK - 17,
                  FILTER_BLOCK - 1, FILTER_BLOCK, FILTER_BLOCK + 1, 2500)


# at 2.4 Hz the impulse response outlasts a block, so the carry between blocks
# matters; the per-sample loop's own rounding grows there (8.6e-14 at worst)
@pytest.mark.parametrize("cutoff_hz, tol", [(CUTOFF_HZ, 1e-14), (2.4, 1e-12)])
@pytest.mark.parametrize("n", FILTER_LENGTHS)
def test_filtfilt_matches_direct_recursion(n, cutoff_hz, tol):
    b, a = _butter(2, cutoff_hz / 120.0)
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.normal(size=(n, 7)), axis=0) + rng.normal(0.0, 10.0, 7)
    padlen = min(3 * len(a), n - 1)
    got = _filtfilt(b, a, x, padlen)
    assert got.shape == x.shape
    want = oracles.filtfilt_direct(b, a, x, padlen)
    err = np.max(np.abs(got - want), axis=0) / np.max(np.abs(x), axis=0)
    assert np.all(err < tol), err


@pytest.mark.parametrize("n", FILTER_LENGTHS)
def test_filtfilt_passes_a_constant_unchanged(n):
    # the default filter's DC gain is 1 to within a rounding, so a constant
    # (its start-up state is the steady state) comes back as it went in
    b, a = _butter(2, CUTOFF_HZ / 120.0)
    c = np.array([0.1, -2.5, 1e3, 0.7071067811865476, -1e-4, 3.0, 123456.789])
    got = _filtfilt(b, a, np.tile(c, (n, 1)), min(3 * len(a), n - 1))
    np.testing.assert_allclose(got, np.tile(c, (n, 1)), rtol=1e-15, atol=0)


def test_cutoff_validation_and_margins():
    tr = constant_trajectory(n=120)
    for cutoff in (0.0, -5.0, math.nan):
        with pytest.raises(ConfigError, match="filter cutoff must be positive"):
            reconstruct(tr, cutoff_hz=cutoff)
    assert len(reconstruct(tr, cutoff_hz=20.0)) == 120 - 2 * 24
    assert len(reconstruct(tr, cutoff_hz=60.0)) == 120 - 2 * 8  # floor
    # unfiltered, only the one-sided difference samples are trimmed
    assert len(reconstruct(constant_trajectory(n=40), cutoff_hz=None)) == 36


def test_attach_wrench_zero_order_hold():
    rs = reconstruct(constant_trajectory(n=120))
    t_src = np.array([0.0, 0.3])
    w_src = np.array([[1e-3, 0.0, 0.0], [2e-3, 0.0, 0.0]])
    rs2 = rs.attach_wrench(t_src, w_src)
    assert rs.wrench is None  # original untouched
    before = rs2.wrench[rs2.t < 0.3]
    after = rs2.wrench[rs2.t >= 0.3]
    assert np.all(before[:, 0] == 1e-3)
    assert np.all(after[:, 0] == 2e-3)
    with pytest.raises(ValueError, match="empty or mismatched"):
        rs.attach_wrench(np.array([0.0]), w_src)
    # validate_model would clamp a NaN thrust to 0 and report a -g error
    with pytest.raises(ValueError, match="wrench series has non-finite values"):
        rs.attach_wrench(t_src, [[np.nan, 0.0, 0.0], [2e-3, 0.0, 0.0]])


def test_attach_commands_maps_through_actuator_fits(params):
    rs = reconstruct(constant_trajectory(n=120))
    ref, _ = wrench_to_cmd(params, Wrench(hover_thrust(params), 0.0, 0.0))
    rs2 = rs.attach_commands([0.0], [[ref.A, ref.dA, ref.Vo]], params)
    np.testing.assert_allclose(rs2.wrench[:, 0], hover_thrust(params), rtol=1e-9)
    np.testing.assert_array_equal(rs2.wrench[:, 1:], 0.0)
    np.testing.assert_allclose(rs2.cmd[:, 0], ref.A)
    with pytest.raises(ValueError, match="empty or mismatched"):
        rs.attach_commands([], np.zeros((0, 3)), params)
    with pytest.raises(ValueError, match="command series has non-finite values"):
        rs.attach_commands([0.0], [[ref.A, np.inf, ref.Vo]], params)


@pytest.mark.parametrize(
    "t_src, match",
    [([0.0, 1.0, 0.5], "times not strictly increasing at sample 2"),
     ([0.0, 0.0, 0.5], "times not strictly increasing at sample 1"),
     ([0.0, np.nan, 0.5], "times must be finite")],
    ids=["unsorted", "repeated", "nan"],
)
def test_attach_rejects_bad_source_times(params, t_src, match):
    rs = reconstruct(constant_trajectory(n=120))
    with pytest.raises(ValueError, match="wrench " + match):
        rs.attach_wrench(t_src, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="command " + match):
        rs.attach_commands(t_src, np.zeros((3, 3)), params)


# ---------------------------------------------------------------------------
# body-offset estimation
# ---------------------------------------------------------------------------


def test_offset_estimator_identity_for_aligned_flight(params):
    tr = make_trim_flight(params, 0.0)
    off = estimate_body_offset(tr, (0.06, 0.24))
    assert off.tilt < 1e-6
    np.testing.assert_allclose(off.rotation, np.eye(3), atol=1e-6)


def test_offset_estimator_recovers_five_degrees(params):
    tr = make_trim_flight(params, 5.0)
    off = estimate_body_offset(tr, (0.06, 0.24))
    assert math.degrees(off.tilt) == pytest.approx(5.0, abs=0.1)
    # the rotation moves the body z-axis by exactly the tilt angle
    z_moved = off.rotation @ np.array([0.0, 0.0, 1.0])
    assert float(z_moved @ [0.0, 0.0, 1.0]) == pytest.approx(math.cos(off.tilt), rel=1e-9)


def test_offset_estimator_rejects_large_tilt(params):
    tr = make_trim_flight(params, 35.0)
    with pytest.raises(ValueError, match="exceeds 30 deg"):
        estimate_body_offset(tr, (0.06, 0.24))


def test_offset_estimator_rejects_hover_window():
    with pytest.raises(ValueError, match="hover/rest"):
        estimate_body_offset(constant_trajectory(n=240), (0.2, 0.8))


def test_offset_estimator_rejects_free_fall():
    t = np.arange(240) / 240.0
    pos = np.zeros((240, 3))
    pos[:, 2] = -0.5 * 9.81 * t**2
    quat = np.tile([1.0, 0.0, 0.0, 0.0], (240, 1))
    tr = MocapTrajectory(t, pos, quat)
    with pytest.raises(ValueError, match="free-fall"):
        estimate_body_offset(tr, (0.2, 0.8))


def test_offset_estimator_window_validation(params):
    tr = make_trim_flight(params, 5.0)
    with pytest.raises(ValueError, match="positive length"):
        estimate_body_offset(tr, (0.2, 0.2))
    with pytest.raises(ValueError, match="no overlap"):
        estimate_body_offset(tr, (5.0, 6.0))


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------


def test_validate_model_explains_openloop_flight(params, openloop_log):
    rs = reconstruct_runlog(openloop_log)
    rep = validate_model(rs, params)
    assert rep.measured.shape == rep.predicted.shape == (len(rs), 6)
    # the reconstruction chain reproduces the model's own accelerations
    # to within a couple percent of signal on every driven axis
    assert float(np.max(rep.ratio)) < 0.02
    txt = rep.to_text()
    assert "u_dot" in txt and "error/signal" in txt


def test_validate_model_worsens_with_measurement_noise(params, openloop_log):
    rs_clean = reconstruct_runlog(openloop_log)
    rep_clean = validate_model(rs_clean, params)
    tr = trajectory_from_runlog(openloop_log)
    rng = np.random.default_rng(4)
    noisy = MocapTrajectory(
        tr.t, tr.pos_w + rng.normal(0.0, 0.5e-3, tr.pos_w.shape), tr.quat
    )
    rs_noisy = reconstruct(noisy).attach_wrench(openloop_log.t, openloop_log.wrench)
    rep_noisy = validate_model(rs_noisy, params)
    # translational axes degrade measurably
    assert np.all(rep_noisy.rms_error[0:3] > rep_clean.rms_error[0:3])


def test_validate_model_requires_wrench(params, openloop_log):
    rs = reconstruct(trajectory_from_runlog(openloop_log))
    with pytest.raises(ValueError, match="no command/wrench"):
        validate_model(rs, params)


def test_validate_model_window(params, openloop_log):
    rs = reconstruct_runlog(openloop_log)
    rep = validate_model(rs, params, window=(1.0, 2.0))
    assert rep.t[0] >= 1.0 and rep.t[-1] <= 2.0
    with pytest.raises(ValueError, match="no samples"):
        validate_model(rs, params, window=(50.0, 60.0))


def test_validation_series_csv(tmp_path, params, openloop_log):
    rs = reconstruct_runlog(openloop_log)
    rep = validate_model(rs, params, window=(1.0, 1.1))
    f = tmp_path / "series.csv"
    rep.write_series_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0].startswith("t,meas_u_dot,pred_u_dot")
    assert len(lines) == len(rep.t) + 1
    columns = tuple(lines[0].split(","))
    header, rows = read_table(f, columns)
    assert table_text(header, rows.tolist()) == f.read_text()


# ---------------------------------------------------------------------------
# flight envelope
# ---------------------------------------------------------------------------


def test_envelope_hover_mass_in_origin_bin():
    rs = reconstruct(constant_trajectory(n=120))
    grid = flight_envelope(rs)
    assert grid.total() == len(rs)
    assert grid.counts[0, 0] == len(rs)


def test_envelope_bins_constructed_flight():
    # constant 31 deg pitch, constant 0.41 m/s body-x speed
    rate = 240.0
    n = 240
    t = np.arange(n) / rate
    e = EulerAngles321(0.0, math.radians(31.0), 0.0)
    R = euler_to_rotmat(e)
    q = euler_to_quat(e).canonical()
    vel_w = R @ np.array([0.41, 0.0, 0.0])
    pos = np.outer(t, vel_w)
    quat = np.tile([q.w, q.x, q.y, q.z], (n, 1))
    rs = reconstruct(MocapTrajectory(t, pos, quat))
    grid = flight_envelope(rs)
    # tilt bin [30, 35) deg is row 6; speed bin [0.40, 0.45) is column 8
    assert grid.counts[6, 8] == grid.total() == len(rs)
    horiz = flight_envelope(rs, speed_mode="horizontal")
    assert horiz.counts[6, 8] == horiz.total()


def test_envelope_clips_outliers_conserving_mass():
    rs = reconstruct(constant_trajectory(n=120))
    fast = rs.__class__(
        t=rs.t, pos_w=rs.pos_w, quat=rs.quat, euler=rs.euler,
        vel_w=rs.vel_w, vel_b=rs.vel_b + np.array([5.0, 0.0, 0.0]),
        omega_b=rs.omega_b, accel_w=rs.accel_w,
        accel_body=rs.accel_body, alpha_body=rs.alpha_body,
    )
    grid = flight_envelope(fast)
    assert grid.total() == len(rs)
    assert grid.counts[0, -1] == len(rs)  # clipped into the outermost speed bin


def test_envelope_merge_and_csv(tmp_path):
    rs = reconstruct(constant_trajectory(n=120))
    a = flight_envelope(rs)
    b = flight_envelope(rs)
    merged = a.merge(b)
    assert merged.total() == 2 * len(rs)
    other = flight_envelope(rs, tilt_edges_deg=[0.0, 45.0, 90.0])
    with pytest.raises(ValueError, match="different edges"):
        a.merge(other)
    f = tmp_path / "env.csv"
    merged.write_csv(f)
    lines = f.read_text().splitlines()
    assert lines[0] == "tilt_lo_deg,tilt_hi_deg,speed_lo,speed_hi,count"
    assert len(lines) == 1 + 12 * 16
    total = sum(int(ln.split(",")[-1]) for ln in lines[1:])
    assert total == merged.total()
    # read -> write gives the same bytes, the counts written as integers
    rows = np.loadtxt(f, delimiter=",", skiprows=1)
    back = EnvelopeGrid(
        np.append(rows[::16, 0], rows[-1, 1]),
        np.append(rows[:16, 2], rows[15, 3]),
        rows[:, 4].astype(np.int64).reshape(12, 16),
    )
    again = tmp_path / "again.csv"
    back.write_csv(again)
    assert again.read_bytes() == f.read_bytes()


def test_envelope_validation():
    rs = reconstruct(constant_trajectory(n=120))
    with pytest.raises(ValueError, match="speed_mode"):
        flight_envelope(rs, speed_mode="vertical")
    with pytest.raises(ValueError, match="edges"):
        flight_envelope(rs, tilt_edges_deg=[10.0, 5.0])
    with pytest.raises(ValueError, match="edges"):
        flight_envelope(rs, speed_edges=[0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="edges must be finite"):
            flight_envelope(rs, tilt_edges_deg=[0.0, 30.0, bad])
        with pytest.raises(ValueError, match="edges must be finite"):
            flight_envelope(rs, speed_edges=[0.0, 0.4, bad])


# ---------------------------------------------------------------------------
# whole-array stages against the scalar kinematics, row by row
# ---------------------------------------------------------------------------


def scalar_reconstruction(tr):
    """Hemisphere-stitched quaternions, Euler angles, body velocity and body
    rates of an unfiltered ``reconstruct``, one sample at a time with the
    scalar kinematics functions (untrimmed)."""
    quat = tr.quat.copy()
    for i in range(1, len(quat)):
        if np.dot(quat[i - 1], quat[i]) < 0.0:
            quat[i] *= -1.0
    vel_w = np.gradient(tr.pos_w, tr.t, axis=0)
    euler, vel_b = [], []
    for q, v in zip(quat, vel_w):
        R = quat_to_rotmat(Quaternion(*q))
        e = rotmat_to_euler(R)
        euler.append((e.roll, e.pitch, e.yaw))
        vel_b.append(R.T @ v)

    def rate(i0, i1):
        w, x, y, z = quat[i0]
        dq = quat_multiply(Quaternion(w, -x, -y, -z), Quaternion(*quat[i1]))
        return quat_to_rotvec(dq.canonical().normalized()) / (tr.t[i1] - tr.t[i0])

    n = len(quat)
    omega = [rate(0, 1), *(rate(i - 1, i + 1) for i in range(1, n - 1)), rate(n - 2, n - 1)]
    return quat, np.array(euler), np.array(vel_b), np.array(omega)


def assert_matches_scalar(tr):
    """An unfiltered reconstruction agrees with the scalar oracle within 1e-12."""
    rs = reconstruct(tr, cutoff_hz=None)  # trims 2 samples per end
    quat, euler, vel_b, omega = (a[2:-2] for a in scalar_reconstruction(tr))
    np.testing.assert_array_equal(rs.quat, quat)
    np.testing.assert_allclose(rs.euler, euler, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rs.vel_b, vel_b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rs.omega_b, omega, rtol=0, atol=1e-12)
    return rs


def spinning_trajectory(euler0, omega_b, n, rate=240.0, pos_rate=(0.3, -0.2, 0.1)):
    """Constant body rate from a 321 attitude: q_k = q0 * exp(omega_b t_k)."""
    t = np.arange(n) / rate
    q0 = euler_to_quat(EulerAngles321(*euler0))
    quat = []
    for tk in t:
        q = quat_multiply(q0, quat_from_rotvec(np.asarray(omega_b) * tk))
        quat.append((q.w, q.x, q.y, q.z))
    return MocapTrajectory(t, np.outer(t, pos_rate), np.array(quat))


angles = st.floats(-math.pi, math.pi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    euler0=st.tuples(angles, st.floats(-1.4, 1.4), angles),
    axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    speed=st.floats(100.0, 200.0),
    n=st.integers(24, 40),
)
def test_reconstruct_matches_scalar_kinematics_through_sign_flips(euler0, axis, speed, n):
    # over (n - 1) / 240 s at >= 100 rad/s the attitude turns by more than
    # 2 pi, so the canonical (w >= 0) samples change sign along the way
    tr = spinning_trajectory(euler0, speed * np.asarray(axis) / np.linalg.norm(axis), n)
    dots = np.einsum("ij,ij->i", tr.quat[:-1], tr.quat[1:])
    assert np.any(dots < 0.0)
    try:
        scalar_reconstruction(tr)
    except GimbalLockError:
        with pytest.raises(GimbalLockError):
            reconstruct(tr, cutoff_hz=None)
        return
    assert_matches_scalar(tr)


def test_reconstruct_rates_through_the_small_rotation_branch():
    # a still first half (zero relative rotation) and a 1e-8 rad/s drift,
    # both below the log map's 1e-9 switch, then a fast turn above it
    still = spinning_trajectory((0.3, -0.2, 2.0), (0.0, 0.0, 0.0), 20)
    drift = spinning_trajectory((0.3, -0.2, 2.0), (1e-8, -2e-8, 1e-8), 20)
    turn = spinning_trajectory((0.3, -0.2, 2.0), (1.0, 2.0, -3.0), 20)
    quat = np.vstack([still.quat, drift.quat[1:], turn.quat[1:]])
    tr = MocapTrajectory(np.arange(len(quat)) / 240.0, np.zeros((len(quat), 3)), quat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 0/0 must not be evaluated on the still samples
        rs = assert_matches_scalar(tr)
    assert np.all(rs.omega_b[:16] == 0.0)
    assert 0.0 < np.max(np.abs(rs.omega_b[20:34])) < 1e-7


@pytest.mark.parametrize(
    "quat, angle",
    [((0.0, 1.0, 0.0, 0.0), 0), ((-0.0, 1.0, 0.0, -0.0), 0),
     ((0.0, 0.0, 0.0, 1.0), 2), ((-0.0, -0.0, 0.0, 1.0), 2)],
    ids=["roll+pi", "roll-pi", "yaw+pi", "yaw-pi"],
)
def test_reconstruct_maps_minus_pi_to_pi(quat, angle):
    # signed zeros steer atan2 onto exactly +pi or -pi; wrap_angle maps -pi to +pi
    tr = MocapTrajectory(np.arange(12) / 240.0, np.zeros((12, 3)), np.tile(quat, (12, 1)))
    rs = assert_matches_scalar(tr)
    assert np.all(rs.euler[:, angle] == math.pi)


@pytest.mark.parametrize("roll, yaw", [(math.pi, -math.pi), (-math.pi, math.pi), (4.0, -3.5)])
def test_trajectory_from_runlog_and_validate_model_match_scalar_at_pi(params, openloop_log, roll, yaw):
    def at(euler):
        euler = euler.copy()
        euler[::7, 0] = roll
        euler[3::7, 2] = yaw
        return euler

    euler = at(openloop_log.euler)
    tr = trajectory_from_runlog(replace(openloop_log, euler=euler))
    for i in (0, 3, 5, 7):
        q = euler_to_quat(EulerAngles321(*euler[i])).canonical()
        np.testing.assert_allclose(tr.quat[i], [q.w, q.x, q.y, q.z], rtol=0, atol=1e-12)
    # validate_model evaluates the derivative code of state_derivative, bit for bit
    rs = reconstruct_runlog(openloop_log)
    rs = replace(rs, euler=at(rs.euler))
    rep = validate_model(rs, params)
    for i in (0, 3, 5, 7, 100):
        s = SimState(rs.pos_w[i], rs.vel_b[i], EulerAngles321(*rs.euler[i]), rs.omega_b[i])
        w = Wrench(max(0.0, rs.wrench[i, 0]), rs.wrench[i, 1], rs.wrench[i, 2])
        ydot = state_derivative(params, s, w)
        np.testing.assert_array_equal(rep.predicted[i], ydot[[3, 4, 5, 9, 10, 11]])


def test_attach_commands_and_envelope_match_scalar(params, openloop_log):
    rs = reconstruct_runlog(openloop_log)
    cmds = openloop_log.cmd.copy()
    cmds[5, 0] = 10.0  # thrust fit below zero: clamps
    rs = rs.attach_commands(openloop_log.t, cmds, params)
    for i in range(0, len(rs), 37):
        k = np.searchsorted(openloop_log.t, rs.t[i], side="right") - 1
        w = cmd_to_wrench(params, ActuatorCmd(*cmds[k]))
        np.testing.assert_array_equal(rs.cmd[i], cmds[k])
        np.testing.assert_array_equal(rs.wrench[i], [w.thrust, w.tau_r, w.tau_p])
    direct = reconstruct(trajectory_from_runlog(openloop_log)).attach_commands([0.0, 0.02], cmds[4:6], params)
    assert direct.wrench[0, 0] == 0.0
    # envelope tilt comes from R[2, 2] of each sample's rotation matrix
    tilt = [math.degrees(math.acos(quat_to_rotmat(Quaternion(*q))[2, 2])) for q in rs.quat]
    speed = np.linalg.norm(rs.vel_b, axis=1)
    edges = ([0.0, 5.0, 10.0, 90.0], [0.0, 0.5, 1.0, 100.0])
    grid = flight_envelope(rs, *edges)
    expected, _, _ = np.histogram2d(tilt, speed, bins=edges)
    np.testing.assert_array_equal(grid.counts, expected)


def pitch_up_to_vertical(n=120, k90=60, rate=240.0):
    """Pitch ramps from level to exactly 90 deg at sample ``k90``, then holds."""
    pitch = np.minimum(np.arange(n), k90) * (0.5 * math.pi / k90)
    quat = np.column_stack([np.cos(0.5 * pitch), np.zeros(n), np.sin(0.5 * pitch), np.zeros(n)])
    return MocapTrajectory(np.arange(n) / rate, np.zeros((n, 3)), quat)


def test_reconstruct_names_the_first_sample_at_the_gimbal_guard():
    tr = pitch_up_to_vertical()
    with pytest.raises(GimbalLockError, match=r"sample 60 \(t = 0\.25 s\): pitch 1\.5707"):
        reconstruct(tr, cutoff_hz=None)
    with pytest.raises(GimbalLockError, match="singularity"):
        reconstruct(tr)


def test_validate_at_the_gimbal_guard_exits_1(tmp_path, capsys):
    from flapsim.cli import main

    tr = pitch_up_to_vertical()
    mocap, cmd = tmp_path / "vertical.csv", tmp_path / "cmd.csv"
    write_mocap_csv(mocap, tr)
    cmd.write_text("t,A,dA,Vo\n0.0,130.0,0.0,0.0\n")
    assert main(["validate", str(mocap), "--commands", str(cmd), "--out", str(tmp_path)]) == 1
    assert "of the +/-pi/2 singularity" in capsys.readouterr().err
    assert not (tmp_path / "validation_report.txt").exists()


PER_SAMPLE_NAMES = ("quat_from_rotvec", "quat_multiply", "quat_to_rotmat", "quat_to_rotvec",
                    "rotmat_to_euler", "cmd_to_wrench", "state_derivative")


def test_pipeline_stage_calls_do_not_grow_with_samples(monkeypatch, params, openloop_log):
    import flapsim.pipeline as pipeline

    calls = dict.fromkeys(PER_SAMPLE_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in PER_SAMPLE_NAMES:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    full = trajectory_from_runlog(openloop_log)
    counts = []
    for n in (300, 600):
        calls.update(dict.fromkeys(calls, 0))
        tr = MocapTrajectory(full.t[:n], full.pos_w[:n], full.quat[:n])
        rs = pipeline.reconstruct(tr).attach_commands(openloop_log.t[:n], openloop_log.cmd[:n], params)
        pipeline.validate_model(rs, params)
        pipeline.flight_envelope(rs)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
