"""Wall time corrected for the machine's momentary speed.

On a few cores of a shared host the same computation runs up to about 1.5x
faster or slower from one moment to the next, in phases that last from one
operation to minutes, set by other tenants' load. No statistic over raw
timings within one run removes a phase that covers the run, and two sets of
runs minutes apart then disagree by more than any useful bound.

So a fixed reference kernel runs right before and right after every timed
piece of work, and the piece's wall time is scaled by ``REFERENCE_S`` over
the mean of those two kernel times. The result reads as the time the work
would take on a machine where the kernel takes ``REFERENCE_S``. The kernel
is numpy and Python only and calls no code of the program under test, so a
change to the program moves the work's time and not the kernel's, and shows
in full. The kernel mixes a small matrix product, a partial sort, a
Python-level loop and an elementwise exponential, as one comparison of the
program does; of the kernels tried, its time tracked the program's best
across the machine's phases.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from time import perf_counter
from types import SimpleNamespace

import numpy as np

REFERENCE_S = 0.001  # about the kernel's time on the 2-vCPU Xeon the bounds were set on
_A = np.random.default_rng(12345).random((16, 64))
_B = np.random.default_rng(54321).random((64, 48))


def kernel_s(reps: int = 20) -> float:
    """Seconds taken by the fixed reference kernel."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(reps):
        s = _A @ _B
        top = np.argsort(s, axis=None)[::-1][:12]
        rows, cols = np.unravel_index(top, s.shape)
        for r, c in zip(rows, cols):
            acc += math.cos(s[r, c]) * 0.5
        acc += float(np.exp(-s).sum())
    return perf_counter() - t0


class Clock:
    """Times pieces of work, each corrected by the kernel timed around it.

    ``raw_s`` and ``s`` total the raw and the corrected seconds of every
    piece; ``kernels_s`` holds every kernel timing, in order.
    """

    def __init__(self):
        self.kernels_s = [kernel_s()]
        self.raw_s = 0.0
        self.s = 0.0

    @contextmanager
    def timed(self):
        """Time the block; the yielded lap gets ``raw_s`` and ``s`` on exit."""
        lap = SimpleNamespace(raw_s=0.0, s=0.0)
        t0 = perf_counter()
        try:
            yield lap
        finally:
            lap.raw_s = perf_counter() - t0
            before = self.kernels_s[-1]
            self.kernels_s.append(kernel_s())
            lap.s = lap.raw_s * 2.0 * REFERENCE_S / (before + self.kernels_s[-1])
            self.raw_s += lap.raw_s
            self.s += lap.s


class NullClock:
    """Stands in for a Clock where nothing is timed."""

    def timed(self):
        return nullcontext(SimpleNamespace(raw_s=0.0, s=0.0))
