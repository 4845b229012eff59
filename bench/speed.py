"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, so raw pass times spread too widely to gate a
regression.  While a timed region runs, a SIGALRM handler in the main
thread runs a fixed reference kernel every ``PERIOD`` seconds and records
how long it took.  The kernel imitates sjgeo's mix (interpreter work and
small-array numpy calls) but never calls sjgeo or BLAS, so neither a
change to the library nor a change to BLAS threading moves it.

Each stretch of work between two samples is scaled by
``NOMINAL_S / (duration of the nearest sample)``: the result is the time
the stretch would have taken on a host that runs the kernel in
``NOMINAL_S``.  The handler's own time is excluded from both the raw and
the corrected figures.
"""

from __future__ import annotations

import bisect
import resource
import signal
import time

import numpy as np

PERIOD = 0.1
NOMINAL_S = 1.3e-3      # kernel time on the 2-core x86-64 VM the bounds were set on, unloaded

_M = np.linspace(0.0, 1.0, 9).reshape(3, 3) + 1j


def reference_kernel() -> float:
    acc = 0.0
    for i in range(100):
        b = _M * (1.0 + i * 1e-6)
        acc += float(np.abs(b - b.conj().T).max()) + sum(k * k for k in range(16))
        d = np.einsum("ij,jk->ik", b, b.T)    # numpy's own loop, no BLAS
        acc += float(np.sqrt(np.abs(np.concatenate([d.ravel(), d.real.ravel()]))).sum())
    return acc


def _cpu_time() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)   # all threads, BLAS included
    return ru.ru_utime + ru.ru_stime


class SpeedSampler:
    """Context manager that samples host speed while it is active."""

    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cpu: list[float] = []       # CPU time used by each sample
        self._previous = None
        self._busy = False
        self._spent = 0.0                 # total time inside the handler

    def _tick(self, signum, frame):
        if self._busy:                    # a late signal inside the handler
            return
        self._busy = True
        c0, t0 = _cpu_time(), time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._ends.append(t1)
        self._cpu.append(_cpu_time() - c0)
        self._spent += t1 - t0
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._tick(None, None)            # so every region has a sample before it
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_clock(self) -> float:
        """perf_counter without the time spent sampling, for the tracer."""
        return time.perf_counter() - self._spent

    def measure(self, fn):
        """Run fn(); return (result, wall, cpu, corrected wall, corrected cpu)."""
        c0, t0 = _cpu_time(), time.perf_counter()
        result = fn()
        t1, c1 = time.perf_counter(), _cpu_time()
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        wall = wall_fixed = 0.0
        seg_start = t0
        # Segments end at each sample inside [t0, t1] and at t1 itself; each
        # is scaled by the sample that ends it, the last one by the one before.
        for k in range(lo, hi + 1):
            seg_end = self._starts[k] if k < hi else t1
            ref = k if k < hi else hi - 1
            wall += seg_end - seg_start
            wall_fixed += (seg_end - seg_start) * NOMINAL_S / (self._ends[ref] - self._starts[ref])
            if k < hi:
                seg_start = self._ends[k]
        cpu = (c1 - c0) - sum(self._cpu[lo:hi])
        return result, wall, cpu, wall_fixed, cpu * wall_fixed / wall
