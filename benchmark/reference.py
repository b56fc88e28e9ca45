"""A fixed pure-Python kernel that gauges how fast the host runs now.

On a shared machine the speed of one core drifts: the same codimlab job
was seen to take 0.65 s to 1.34 s within one minute, with CPU time
following wall time, so no process-local clock removes it.  The worker
times this kernel about twice a second while a pass runs, from a timer
signal, so it also samples inside long jobs, and reports the pass time
in units of the kernel's mean time.  Host drift then cancels, since it
slows the kernel and the jobs alike.

The kernel does the kinds of work codimlab does (Fraction row
reduction, tuple-keyed dict updates) but imports nothing from codimlab,
so a change to the program cannot move it.  Garbage collection is off
while it runs, so the size of codimlab's heap does not move it either.
"""
from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.5


def kernel() -> tuple:
    n = 16
    rows = [[Fraction((i * 7 + j * 13) % 17 - 8, (i + j) % 5 + 1)
             for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    counts = {}
    for i in range(10000):
        key = (i % 97, i % 89, i % 5)
        counts[key] = counts.get(key, 0) + i * 3 // 7
    return rank, len(counts)


def time_kernel() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostGauge:
    """Times the kernel once on entry and then every INTERVAL_S."""

    def __init__(self):
        self.samples = []

    def _sample(self, _signum=None, _frame=None):
        self.samples.append(time_kernel())

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
