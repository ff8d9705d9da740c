"""The CSV table format (README "File formats"), atomic file writes and the
YAML reader of scenario and parameter files.

The gain CSV, a headerless matrix, is not such a table (``lqr.read_gain_csv``),
but :func:`rows_text` writes its rows as it writes a table's.
"""

from __future__ import annotations

import functools
import os
import re
import tempfile

import numpy as np
import yaml

from .errors import ConfigError, SchemaError

__all__ = ["YamlLoader", "atomic_write_text", "fmt", "read_header", "read_table", "read_yaml",
           "rows_text", "table_text"]


def fmt(x: float) -> str:
    """Full-precision decimal for a float (round-trips exactly)."""
    return repr(float(x))


def _header(line: str) -> tuple:
    return tuple(h.strip() for h in line.split(","))


def read_header(path) -> tuple:
    """The column names of a table file, parsed as :func:`read_table` parses them."""
    with open(path, "r", encoding="utf-8") as fh:
        return _header(fh.readline())


def read_table(path, columns, *, min_rows=1, binary=()) -> np.ndarray:
    """Read a table file whose header is ``columns`` as an (n >= min_rows, width) float array.

    Every value is read as ``float()`` reads it, and blank lines are
    skipped. Values in the ``binary`` columns must be 0 or 1. Failures
    raise SchemaError ``path:line: ...``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = _header(lines[0])
    if header != tuple(columns):
        raise SchemaError(
            f"{path}:1: header {','.join(header)!r} does not match {','.join(columns)!r}"
        )
    width = len(header)
    body = lines[1:]
    rows = None
    if any(body):  # loadtxt warns on a body with no data
        # numpy's C reader rounds as float() does and accepts no token that
        # float() refuses; comments=None keeps a '#' line an error
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if rows is None or rows.shape[1] != width:
        # the reference reader: it names the failing line, and it accepts the
        # few forms float() takes and loadtxt refuses (whitespace-only lines,
        # '1_000', non-ASCII digits)
        rows = _rows_by_line(path, body, width)
    if len(rows) < min_rows:
        what = "no data rows" if not len(rows) else f"needs at least {min_rows} data rows"
        raise SchemaError(f"{path}: {what}")
    rows = np.asarray(rows, dtype=float)
    finite = np.isfinite(rows)
    if not finite.all():
        k, j = (int(i[0]) for i in np.nonzero(~finite))
        raise SchemaError(
            f"{path}:{_row_lineno(body, k)}: {header[j]} is not finite ({fmt(rows[k, j])})"
        )
    late = np.nonzero(np.diff(rows[:, 0]) <= 0.0)[0]
    if len(late):
        k = int(late[0]) + 1
        raise SchemaError(f"{path}:{_row_lineno(body, k)}: timestamps not strictly increasing")
    for name in binary:
        j = header.index(name)
        bad = np.nonzero((rows[:, j] != 0.0) & (rows[:, j] != 1.0))[0]
        if len(bad):
            k = int(bad[0])
            raise SchemaError(
                f"{path}:{_row_lineno(body, k)}: {name} must be 0 or 1 ({fmt(rows[k, j])})"
            )
    return rows


def _rows_by_line(path, body, width) -> list:
    """Data rows of ``body`` parsed line by line with ``float()``."""
    rows = []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise SchemaError(f"{path}:{lineno}: expected {width} columns, got {len(parts)}")
        try:
            rows.append(list(map(float, parts)))
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return rows


def _row_lineno(body, k: int) -> int:
    """File line number of data row ``k``.

    Either reader keeps exactly the lines that are not blank: loadtxt skips
    empty lines and refuses whitespace-only ones, which sends the body to
    the line-by-line reader.
    """
    return [i for i, line in enumerate(body, start=2) if line.strip()][k]


def table_text(columns, *blocks) -> str:
    """Table file text: the header line naming ``columns``, then :func:`rows_text`.

    Raises ValueError unless the blocks hold one value per column.
    """
    blocks = _as_blocks(blocks)
    width = sum(b.shape[1] for b in blocks)
    if width != len(columns):
        raise ValueError(f"rows have {width} values; the header has {len(columns)} columns")
    return ",".join(columns) + "\n" + rows_text(*blocks)


def rows_text(*blocks) -> str:
    """One line per row, values separated by ``,``.

    The blocks are the columns left to right, each an array with one entry
    per row: 1-D for one column, 2-D for several. A block of integer or bool
    dtype is written as integers; every other value as the float64 that
    ``repr`` writes, the shortest text that reads back to the same double.
    """
    blocks = _as_blocks(blocks)
    if not sum(b.shape[1] for b in blocks):
        raise ValueError("no columns")
    if len({len(b) for b in blocks}) != 1:
        raise ValueError(f"blocks with different row counts {[len(b) for b in blocks]}")
    if any(b.dtype.kind == "u" and np.any(b > np.iinfo(np.int64).max) for b in blocks):
        raise ValueError("integers beyond the int64 range")
    columns = [b[:, j] for b in blocks for j in range(b.shape[1])]
    is_int = np.array([c.dtype.kind in "biu" for c in columns])
    values = np.concatenate(blocks, axis=1, dtype=np.float64, casting="unsafe")
    sep = np.full(len(columns), ord(",") << 40, np.uint64)
    sep[-1] = ord("\n") << 40
    step = max(1, _BLOCK_CELLS // len(columns))
    return b"".join(
        _rows_bytes(values[r:r + step], is_int, sep, [c[r:r + step] for c in columns])
        for r in range(0, len(values), step)
    ).decode("ascii")


def _as_blocks(blocks) -> list:
    out = []
    for b in blocks:
        b = np.asarray(b)
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2:
            raise ValueError(f"a block must be 1-D or 2-D, not {b.ndim}-D")
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# float64 -> the text repr gives, for a whole block at once; an integer
# column's cells take the integer layout
#
# |x| = f * 2**e (f in [0.5, 1)) is scaled by 10**k to S in [1e16, 1e17),
# held as a double-double (Dekker's split and two-product; no FMA needed).
# The doubles next to x are 2H away, H = 2**(e - 54) * 10**k after scaling,
# so the decimals that read back to x are those in [S - H, S + H]. The
# shortest is a multiple of the largest power of ten 10**j with a multiple
# in there; of those, the one nearest S. A cell whose answer hangs on a
# decision closer than _NEAR to a boundary (an interval end on an integer,
# a tie in the rounding), on a lopsided interval (x a power of two) or on a
# magnitude outside the scale table is written by repr itself, as is every
# non-finite value. Zero is written directly.
# ---------------------------------------------------------------------------

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_E10_MIN, _E10_MAX = -98, 98  # floor(log10|x|) the scale table covers
_NEAR = 2.0**-30
_BLOCK_CELLS = 4096  # cells formatted at once, which keeps the working arrays near 1 MB


@functools.cache
def _scale_table():
    """10**k for k = 16 - e10, e10 from _E10_MAX down to _E10_MIN, as
    double-doubles (hi, lo), with hi split in two 26-bit halves.

    Like the layout tables below it is built on the first write, not at
    import: a run that writes no table never holds it."""
    hi, lo = [], []
    for k in range(16 - _E10_MAX, 17 - _E10_MIN):
        if k >= 0:
            h = float(10**k)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
        hi.append(h)
    hi, lo = np.array(hi), np.array(lo)
    c = hi * 134217729.0
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _float_cells(x):
    """The text of float64 values ``x`` as (neg, digits, n, mode, exp10, fallback).

    ``digits`` is the shortest significand, n digits long, padded with zeros
    to 17; ``mode`` picks its layout (see _LAYOUT) and ``exp10`` is the
    exponent of its first digit. ``fallback`` marks the cells left to repr.
    """
    i, s_floor, s_frac, top, width, fallback = _scaled(np.abs(x))
    j = _shortest_power(top, width)
    # the multiple of 10**j nearest S, as q * 10**j
    pj = _POW10[j]
    q = s_floor // pj
    off = (2 * (s_floor - q * pj) - pj).astype(np.float64) + 2.0 * s_frac  # 2 (S - q pj) - pj
    fallback |= np.abs(off) < 2.0 * _NEAR
    q += off > 0.0
    length = 16 + (q * pj >= _POW10[16]) + (q * pj >= _POW10[17])  # digits of q * 10**j
    n = length - j
    exp10 = length - 1 - (16 - _E10_MAX) - i  # within 1 of floor(log10|x|): two digits
    zero = x == 0.0
    fallback &= ~zero
    fallback |= ~np.isfinite(x)
    blank = fallback | zero
    q[blank] = 0
    n[blank] = 1
    exp10[blank] = 0
    # repr's layout: 0.000ddd from 1e-4, positional below 1e16, else d.ddde+XX
    mode = np.where((exp10 >= -4) & (exp10 < 16), exp10 + 4, _EXP)
    return np.signbit(x), q * _POW10[17 - n], n, mode, exp10, fallback


def _scaled(a):
    """S = a * 10**k in [1e16, 1e17) and the interval [S - H, S + H] of the
    decimals that read back to ``a`` (> 0), in integers.

    Returns the scale table index i (k = 16 - _E10_MAX + i), floor(S), its
    fraction, floor(S + H), the number of integers in (S - H, S + H] and
    the cells no integer answer can be trusted for. ``a`` is overwritten.
    """
    with np.errstate(divide="ignore"):
        e10 = np.floor(np.log10(a))
    fallback = ~((e10 >= _E10_MIN) & (e10 <= _E10_MAX))
    a[fallback] = 1.0
    e10[fallback] = 0.0
    frac, e2 = np.frexp(a)
    # a power of two, whose gap below is half the gap above; that moves no
    # answer for an integer below 2**53, the one integer in its interval
    fallback |= (frac == 0.5) & ((a >= 2.0**53) | (a != np.floor(a)))
    scale_hi, scale_lo, _, _ = _scale_table()
    i = (_E10_MAX - e10).astype(np.int64)  # log10 can be one off near a power of ten
    p = a * scale_hi[i]
    i += p < 1e16
    i -= p >= 1e17
    fallback |= (i < 0) | (i >= len(scale_hi))
    np.clip(i, 0, len(scale_hi) - 1, out=i)
    p, s_lo = _scale(a, i)
    top, width, near = _interval(p, s_lo, np.ldexp(scale_hi[i], e2 - 54),
                                 np.ldexp(scale_lo[i], e2 - 54))
    fallback |= near
    s_int = np.floor(s_lo)
    s_lo -= s_int
    return i, p.astype(np.int64) + s_int.astype(np.int64), s_lo, top, width, fallback


def _scale(a, i):
    """a * 10**k as p + s_lo, p = a * hi rounded (an integer >= 2**53), by
    Dekker's split and two-product."""
    scale_hi, scale_lo, scale_hi_hi, scale_hi_lo = _scale_table()
    hi, hi_hi, hi_lo = scale_hi[i], scale_hi_hi[i], scale_hi_lo[i]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * hi
    return p, ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * scale_lo[i]


def _interval(p, s_lo, h_hi, h_lo):
    """floor(S + H), the count of integers in (S - H, S + H], and where an
    end of the interval is within _NEAR of an integer, for S = p + s_lo and
    H = h_hi + h_lo."""
    u = p + h_hi
    u_lo = (h_hi - (u - p)) + s_lo + h_lo           # S + H = u + u_lo
    v = p - h_hi
    v_lo = ((p - v) - h_hi) + s_lo - h_lo           # S - H = v + v_lo
    u_int, v_int = np.floor(u_lo), np.ceil(v_lo)
    top = u.astype(np.int64) + u_int.astype(np.int64)
    width = top - v.astype(np.int64) - v_int.astype(np.int64) + 1  # top - (ceil(S - H) - 1)
    u_lo -= u_int
    v_int -= v_lo
    return top, width, (u_lo < _NEAR) | (u_lo > 1.0 - _NEAR) | (v_int < _NEAR) | (v_int > 1.0 - _NEAR)


def _shortest_power(top, width):
    """The largest j with a multiple of 10**j among the ``width`` integers
    up to ``top``: those with top % 10**j < width."""
    j = (top - top // 10 * 10 < width).astype(np.int64)
    j += top - top // 100 * 100 < width
    # width is under 100, so j > 2 only where top ends in zeros
    far = np.flatnonzero(j == 2)
    if len(far):
        top, width = top[far], width[far]
        j_in, j_out = np.full(len(far), 2, np.int64), np.full(len(far), 18, np.int64)
        for _ in range(4):
            mid = (j_in + j_out) >> 1
            has = top % _POW10[mid] < width
            j_in = np.where(has, mid, j_in)
            j_out = np.where(has, j_out, mid)
        j[far] = j_in
    return j


# A cell's text is picked out of a 48-byte layout, six little-endian words:
#   bytes  0-7   '-' '0' '.' '0' '0' '0'           sign, a leading "0.000"
#   bytes  8-39  d1 '.' d2 '.' ... d16 '.'         digits, each with a point after it
#   bytes 40-47  d17 'e' '+' X X sep               last digit, exponent, separator
# _layout_masks()[n * _MODES + mode] is 0xff at the bytes a cell of n digits in that
# mode keeps: mode 0-19 is positional with the first digit at 10**(mode - 4),
# _EXP is d.ddde+XX and _INT the digits alone.
# A byte not kept becomes 0, and 0 bytes are deleted from the result, so the
# sign, always kept, is written only for negative cells.
_LAYOUT = 48
_SEP = 45
_EXP, _INT, _MODES = 20, 21, 22
_WORD0 = int.from_bytes(b"\0" + b"0.000\0\0", "little")


@functools.cache
def _layout_masks() -> np.ndarray:
    n = np.arange(18)[:, None, None]
    mode = np.arange(_MODES)[None, :, None]
    b = np.arange(_LAYOUT)[None, None, :]
    decpt = mode - 3  # digits before the point
    lead, fixed, exp = mode <= 3, (mode >= 4) & (mode < _EXP), mode == _EXP
    pair = (b >= 8) & (b < 40)
    digit = np.where(pair & (b % 2 == 0), (b - 6) // 2, np.where(b == 40, 17, 0))
    point = np.where(pair & (b % 2 == 1), (b - 7) // 2, 0)
    keep = (
        (b == 0)
        | (lead & ((b == 1) | (b == 2) | ((b >= 3) & (b < 3 - decpt))))
        | ((digit >= 1) & (digit <= np.where(fixed, np.maximum(n, decpt + 1), n)))
        | (fixed & (point == decpt))
        | (exp & (((point == 1) & (n > 1)) | ((b >= 41) & (b < _SEP))))
        | (b == _SEP)
    )
    return (keep * np.uint8(0xFF)).view("<u8").reshape(-1, 6)


@functools.cache
def _tail_words() -> np.ndarray:
    """Word 5 less its separator, for exponents -99..99 and a last digit of 0."""
    e = np.arange(-99, 100)
    return (ord("0") | ord("e") << 8 | np.where(e < 0, ord("-"), ord("+")) << 16
            | (abs(e) // 10 + ord("0")) << 24 | (abs(e) % 10 + ord("0")) << 32).astype(np.uint64)


def _digit_words(d):
    """Words 1-4 of the layout for 17-digit significands ``d``, and d17."""
    # int64 % is not the fast division numpy does for //, so x - x // m * m
    head = d // 10
    groups = np.empty((len(d), 4), np.int64)
    high = head // 10**8
    low = head - high * 10**8
    groups[:, 0] = high // 10**4
    groups[:, 1] = high - groups[:, 0] * 10**4
    groups[:, 2] = low // 10**4
    groups[:, 3] = low - groups[:, 2] * 10**4
    # 4 digits to 2 + 2 in 32-bit lanes (x // 100 = x * 5243 >> 19 below 10**4),
    # then 2 to 1 + 1 in 16-bit lanes (x // 10 = x * 103 >> 10 below 100)
    out = groups.view(np.uint64)
    high = out * np.uint64(5243)
    high >>= np.uint64(19)
    out -= high * np.uint64(100)
    out <<= np.uint64(32)
    out |= high
    np.multiply(out, np.uint64(103), out=high)
    high >>= np.uint64(10)
    high &= np.uint64(0x0000000F0000000F)
    out -= high * np.uint64(10)
    out <<= np.uint64(16)
    out |= high
    out |= np.uint64(0x2E302E302E302E30)  # '0' + digit, then '.'
    return out, d - head * 10


def _rows_bytes(values, is_int, sep, columns) -> bytes:
    """The text of a run of rows ``values`` whose ``is_int`` columns are
    written as integers; ``columns`` holds each column as given and ``sep``
    its separator, placed in word 5."""
    rows, width = values.shape
    x = values.ravel()
    neg, digits, n, mode, exp10, fallback = _float_cells(x)
    # below 2**53 an integer is its own double, whose shortest digits are the
    # integer's: exp10 + 1 of them, with no point; above, str writes it
    whole = np.tile(is_int, rows)
    fallback |= whole & (np.abs(x) >= 2.0**53)
    n = np.where(whole & ~fallback, exp10 + 1, n)
    mode[whole] = _INT
    src = _layout_masks()[n * _MODES + mode]
    src[:, 0] &= np.where(neg, _WORD0 | ord("-"), _WORD0).astype(np.uint64)
    words, last = _digit_words(digits)
    src[:, 1:5] &= words
    tail = _tail_words()[exp10 + 99]
    tail |= last.view(np.uint64)
    tail.reshape(rows, width)[:] |= sep
    src[:, 5] &= tail
    k = np.flatnonzero(fallback)
    if len(k):  # the cells repr (str for an integer) writes, padded with 0 bytes
        texts = list(map(repr, x[k].tolist()))
        for i in np.flatnonzero(whole[k]).tolist():
            row, col = divmod(int(k[i]), width)
            texts[i] = str(int(columns[col][row]))
        padded = "".join(t.ljust(_SEP, "\0") for t in texts).encode("ascii")
        src.view(np.uint8)[k, :_SEP] = np.frombuffer(padded, np.uint8).reshape(-1, _SEP)
    return src.tobytes().translate(None, b"\0")


def atomic_write_text(path: str, text: str) -> None:
    """Write a text file via a sibling temp file + rename.

    Readers never observe a half-written file, and two identical writes
    produce byte-identical results.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class _YamlRules:
    """What :class:`YamlLoader` adds to a PyYAML safe loader: it reads a number in
    exponent form (``150e-6``) as a float, where YAML 1.1 reads a string, and
    refuses a mapping that states a key twice, where it keeps the last value;
    merge keys (``<<: *base``) still merge."""

    def construct_document(self, root):
        # every mapping once, as composed, before any is built: building one
        # flattens its merge sources in place, so a later look would see merged keys
        todo, seen = [root], set()
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            if isinstance(node, yaml.SequenceNode):
                todo += node.value
            elif isinstance(node, yaml.MappingNode):
                keys = set()
                for key, value in node.value:
                    if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                        k = self.construct_object(key)
                        if k in keys:
                            raise yaml.MarkedYAMLError(None, None, f"duplicate key {k!r}",
                                                       key.start_mark)
                        keys.add(k)
                    todo += (key, value)
        return super().construct_document(root)


def _yaml_loader(base: type) -> type:
    """:class:`_YamlRules` on the PyYAML safe loader ``base``."""
    loader = type("YamlLoader", (_YamlRules, base), {"__doc__": _YamlRules.__doc__})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(\.[0-9]+|[0-9][0-9_]*(\.[0-9_]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    return loader


# libyaml's parser and composer where PyYAML was built with it, the pure-Python ones otherwise
YamlLoader = _yaml_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def read_yaml(path) -> dict:
    """The mapping a scenario or parameter file holds, read with :class:`YamlLoader`.

    Raises ConfigError ``path: not valid YAML (...)`` for text YAML refuses,
    and SchemaError ``path: file must contain a mapping`` for any other document.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=YamlLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: file must contain a mapping")
    return data
