"""Check that ioutil.rows_text writes 1e7 random float64 bit patterns exactly
as repr writes them, and print the hex of the first value it does not.

Most random patterns lie outside the kernel's scale table and take the repr
fallback, so this also checks the fallback splice; about a minute.
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
