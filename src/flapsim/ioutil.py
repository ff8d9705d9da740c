"""The CSV table format (README "File formats") and atomic file writes.

The gain CSV, a headerless matrix, is not such a table (``lqr.read_gain_csv``).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import SchemaError

__all__ = ["atomic_write_text", "fmt", "read_header", "read_table", "table_text"]


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


def table_text(columns, rows) -> str:
    """Table file text from rows of Python floats and ints (``ndarray.tolist()``).

    Floats are written as :func:`fmt` writes them, ints as integers.
    """
    return "\n".join([",".join(columns), *(",".join(map(repr, row)) for row in rows), ""])


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
