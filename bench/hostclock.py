"""Host-normalised time: wall time corrected for the speed of a shared host.

On a shared host the same single-threaded code runs up to twice as slowly
for seconds at a time while neighbours load the machine, and process CPU time
slows with it.  A ``HostClock`` measures that speed while the workload runs:
every ``PERIOD_S`` a timer signal runs a fixed reference loop (code of this
harness, not of the package) between two bytecodes of the workload and
records how long it took.  The rolling median of those loop times, over
``WINDOW`` neighbouring samples, is the host's slowness at that moment.

``seconds(t0, t1)`` turns a ``perf_counter`` interval into host-normalised
seconds: the wall time of the workload's own code in the interval (the
reference loops are left out), each stretch between two samples scaled by
``REFERENCE_S`` over the slowness there.  A normalised second is the time on
a host where one reference loop takes ``REFERENCE_S``.  Code of the package
that gets slower or faster moves the figure by the same factor, since the
reference loop does not change with it.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List

import numpy as np

PERIOD_S = 0.025
WINDOW = 7
# nominal time of one reference loop; about its time on an idle 2-vCPU VM
REFERENCE_S = 0.00025

_REF_X = np.arange(8.0)
_REF_RNG = np.random.default_rng(0)


def reference_loop() -> float:
    """Fixed work of the package's kind: interpreter arithmetic on dicts and ints,
    then interpreted calls into numpy on tiny arrays.

    A busy host slows these two kinds of work by different factors, and the
    package's phases mix them in different shares; a loop of one kind alone
    misjudges the phases made mostly of the other.
    """
    s = 0.0
    d = {}
    for i in range(1000):
        d[i & 63] = i * i % 7
    for i in range(60):
        v = np.exp(_REF_X - (i % 3))
        s += float(v[i & 7]) + _REF_RNG.random()
    return s + len(d)


class HostClock:
    """Samples the host's speed on a timer signal while the context is open."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._points = np.zeros(0)
        self._cum = np.zeros(0)
        self._slope = np.zeros(0)
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside a sample is dropped
            return
        self._busy = True
        t0 = perf_counter()
        reference_loop()
        self.ends.append(perf_counter())
        self.starts.append(t0)
        self._busy = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._freeze()

    def slowness(self) -> np.ndarray:
        """Rolling median of the reference loop's time over REFERENCE_S, per sample."""
        loop = np.array(self.ends) - np.array(self.starts)
        half = WINDOW // 2
        padded = np.pad(loop, half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
        return np.median(windows, axis=1) / REFERENCE_S

    def _freeze(self) -> None:
        """Cumulative normalised time at every sample's start and end."""
        starts, ends = np.array(self.starts), np.array(self.ends)
        slow = self.slowness()
        n = len(starts)
        points = np.empty(2 * n)
        points[0::2], points[1::2] = starts, ends
        # slope after each point: 0 inside a sample, 1/slowness in the gap after it
        slope = np.zeros(2 * n)
        slope[1:-1:2] = 2.0 / (slow[:-1] + slow[1:])
        slope[-1] = 1.0 / slow[-1]
        cum = np.zeros(2 * n)
        cum[1:] = np.cumsum(np.diff(points) * slope[:-1])
        self._points, self._cum, self._slope = points, cum, slope
        self._first_slope = 1.0 / slow[0]

    def _at(self, t: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self._points, t, side="right") - 1
        before = k < 0
        k = np.maximum(k, 0)
        out = self._cum[k] + (t - self._points[k]) * self._slope[k]
        return np.where(before, (t - self._points[0]) * self._first_slope, out)

    def seconds(self, t0, t1):
        """Host-normalised length of [t0, t1] (scalars or arrays of perf_counter stamps)."""
        out = self._at(np.asarray(t1, dtype=float)) - self._at(np.asarray(t0, dtype=float))
        return float(out) if np.ndim(out) == 0 else out
