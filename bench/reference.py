"""Frozen reference kernel that measures how fast the machine runs right now.

On a shared host the same code can run 1.8x slower from one minute to the
next, and every part of a Python program slows by about the same factor.
The benchmark runs this kernel a few times between timed operations and
divides each operation's time by the speed factor the kernel saw around
it (see ``run.py``), which removes most of that drift.

The kernel mixes the kinds of work flapsim does: scalar float math in
plain functions, small numpy arrays, frozen dataclasses, float formatting
and parsing, and a vectorized numpy pass. It does not import flapsim, so
no change to the program changes it. Do not edit it: its run time defines
the scale of every reported time (``REF_SECONDS`` in ``run.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Quat:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.w, self.x, self.y, self.z)):
            raise ValueError("non-finite quaternion")


def _qmul(a: _Quat, b: _Quat) -> _Quat:
    return _Quat(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def _deriv(y, m, J, tau):
    u, v, w = y[3], y[4], y[5]
    phi, th, psi = y[6], y[7], y[8]
    p, q, r = y[9], y[10], y[11]
    cr, sr = math.cos(phi), math.sin(phi)
    cp, sp = math.cos(th), math.sin(th)
    cy, sy = math.cos(psi), math.sin(psi)
    return [
        cy * cp * u, sy * cp * v, -sp * w,
        9.81 * sp - (q * w - r * v),
        -9.81 * cp * sr - (r * u - p * w),
        -9.81 * cp * cr + tau / m,
        p + sr * sp / cp * q, cr * q - sr * r, (sr * q + cr * r) / cp,
        tau / J - q * r, -r * p, 0.1 * p * q,
    ]


def reference_kernel() -> float:
    """About 4 ms of mixed work on a 2 GHz Xeon core; returns a checksum."""
    y = np.zeros(12)
    y[6] = 0.01
    att = _Quat(1.0, 0.0, 0.0, 0.0)
    step = _Quat(0.99995, 0.01, 0.0, 0.0)
    lines = []
    for _ in range(60):
        for _ in range(4):
            k1 = _deriv(y, 1.0, 1.0, 1e-3)
            y1 = y + 0.5e-3 * np.asarray(k1)
            k2 = _deriv(y1, 1.0, 1.0, 1e-3)
            y = y + 1e-3 * (np.asarray(k1) + np.asarray(k2)) * 0.5
        att = _qmul(att, step)
        m = np.array([[att.w, att.x, att.y], [att.x, att.w, att.z], [att.y, att.z, att.w]])
        y[0:3] = m.T @ y[0:3] * 0.5
        lines.append(",".join(repr(float(v)) for v in y))
    vals = [float(t) for line in lines for t in line.split(",")]
    a = np.asarray(vals).reshape(-1, 12)
    return float(np.sum(np.gradient(a, axis=0)))
