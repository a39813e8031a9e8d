"""Host-speed reference for timings taken on a shared machine.

On a few vCPUs of a shared host the same code runs up to twice as slow for
stretches of ten seconds and more, while other tenants load the host; CPU
time slows with wall time, so neither can tell the program's cost from the
host's state. A background thread therefore times a fixed reference kernel
every PERIOD_S seconds while operations run. The kernel uses no markercal
code: small numpy matrix products driven from a Python loop, the same mix of
interpreter and tiny-array work as the tracker and the selection loops.

``Sampler.factor(start, end)`` is REF_NOMINAL_S over the mean kernel time
sampled around the interval. A wall time multiplied by it reads as the same
time on a host where one kernel call takes REF_NOMINAL_S. A faster program
lowers the normalised time by the same share as its wall time; a slower or
faster host moves both the kernel and the program and mostly cancels out.
"""

from __future__ import annotations

import bisect
import sys
import threading
import time

import numpy as np

REF_NOMINAL_S = 2.0e-3  # kernel time that normalised timings are scaled to
PERIOD_S = 0.25  # seconds between samples
WINDOW_S = 1.0  # an interval is normalised by the samples this close to it
# The sampler takes the GIL at most this often, so a sample is not cut short
# by the main thread asking for it back (the default interval is 5 ms).
SWITCH_INTERVAL_S = 0.05

_MATS = [np.random.default_rng(12345).standard_normal((8, 8)) for _ in range(400)]


def _kernel() -> float:
    acc = [float((m @ m.T).trace()) for m in _MATS]
    acc.sort()
    return acc[0]


def sample() -> float:
    """Seconds of one kernel call, the faster of two back-to-back calls."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Times the kernel in a background thread while the context is open.

    One sample is also taken in the calling thread on entry and on exit, so
    every interval inside the context has a sample within PERIOD_S of it.
    """

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample, perf_counter
        self.values: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)
        self._old_interval = sys.getswitchinterval()

    def _take(self) -> None:
        start = time.perf_counter()
        value = sample()
        self.times.append(start + value)
        self.values.append(value)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._take()

    def __enter__(self) -> "Sampler":
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        self._take()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._old_interval)
        self._take()

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean sample within WINDOW_S of [start, end].

        Falls back to the nearest sample when none is that close. Call it
        after the context has closed.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo >= hi:
            mid = 0.5 * (start + end)
            i = min(range(len(self.times)), key=lambda j: abs(self.times[j] - mid))
            lo, hi = i, i + 1
        return REF_NOMINAL_S / float(np.mean(self.values[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        """The interval's wall time, normalised to the host speed."""
        return (end - start) * self.factor(start, end)

    def summary(self) -> dict:
        ms = 1000.0 * np.asarray(self.values)
        return {"samples": len(ms), "median_ms": float(np.median(ms)),
                "min_ms": float(ms.min()), "max_ms": float(ms.max())}
