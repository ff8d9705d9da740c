"""Check that ioutil.rows_text writes 1e7 random float64 bit patterns exactly
as repr writes them, and 1e6 random int64 values beside a bool column as str
writes int(value); print the first value it does not.

Most random patterns lie outside the kernel's scale table and take the repr
fallback, so this also checks the fallback splice; about a minute. The
integers have log-uniform magnitudes and both signs, with +-(2**53 - 1),
+-2**53, +-(2**53 + 1) and the int64 limits among them: below 2**53 the
kernel writes them from their double, above it str does.
Run with the package installed, or with PYTHONPATH=src from the repo root.
"""

import numpy as np

from flapsim.ioutil import rows_text

print("numpy", np.__version__)
rng = np.random.default_rng(20260)
for _ in range(10):
    x = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    got = rows_text(x)
    if got != "\n".join(map(repr, x.tolist())) + "\n":
        for v, g in zip(x.tolist(), got.split("\n")):
            if g != repr(v):
                raise SystemExit(f"first mismatch: {v.hex()} written as {g!r}, repr gives {v!r}")
print("1e7 random bit patterns: every value written as repr writes it")

n = 10**6
bits = rng.integers(0, 64, n)  # the magnitude is below 2**bits
ints = rng.integers(0, 2**63 - 1, n, dtype=np.int64, endpoint=True) >> (63 - bits)
ints *= rng.choice(np.array([-1, 1]), n)
edges = [2**53 - 1, 2**53, 2**53 + 1]
ints[:9] = [*edges, *(-v for v in edges), 0, np.iinfo(np.int64).max, np.iinfo(np.int64).min]
flags = rng.random(n) < 0.5
got = rows_text(ints, flags).split("\n")
for k, (v, f) in enumerate(zip(ints.tolist(), flags.tolist())):
    if got[k] != f"{v},{int(f)}":
        raise SystemExit(f"first mismatch: row {v},{f} written as {got[k]!r}")
print("1e6 random int64 values and a bool column: every value written as str writes it")
