"""Timing that cancels the host's changing speed.

On the 2-core host this benchmark was tuned on, identical work ran up to 3x
slower for stretches of seconds to minutes, with no steal time reported: other
tenants share the cores' caches and memory.  A fixed reference kernel (this
file's own numpy and pure-Python code, about 1 ms) runs right before and right
after each timed call.  The call's wall time divided by the kernel's mean time,
times REF_SECONDS, is the call's cost in seconds of a reference host on which
the kernel takes REF_SECONDS.  Over four minutes of that noise, the median of
such costs over five passes moved by 4% (interquartile range over sliding
windows) where the median wall time moved by 10-15%.
"""

from __future__ import annotations

import time

import numpy as np

REF_SECONDS = 1e-3
_ROWS = np.random.default_rng(0).standard_normal((64, 64))


def reference_kernel():
    """Small-array numpy calls and interpreter work, in the mix a simulated round has."""
    total = 0.0
    acc = {}
    for i in range(120):
        row = _ROWS[i % 64]
        total += float(np.sum(np.exp(-np.abs(row)))) + float(row[np.argsort(row)[3]])
        acc[i % 7] = acc.get(i % 7, 0.0) + (i * 0.5) ** 0.5
    return total + sum(acc.values())


def _kernel_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed(fn):
    """(result, wall seconds, reference-host seconds) of one call of fn."""
    before = _kernel_seconds()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = _kernel_seconds()
    return out, wall, wall / (0.5 * (before + after)) * REF_SECONDS
