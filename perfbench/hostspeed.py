"""The host's speed, sampled during the timed work itself.

The host of a small VM changes speed by tens of percent from one second to
the next, and from one minute to the next.  `HostSpeed` times a fixed
reference computation every `interval_s` seconds from a SIGALRM handler
while sampling is on, so the samples come from inside each timed call, and
`timed` returns a call's time without the handler's share together with the
median reference time during it.  A time scaled by `nominal / reference`
then reads as the time on a host where the reference takes `nominal`.

The reference shares no code with the package and its data stay in the
first-level cache, so a change to the package moves the timed calls but not
the reference.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

_SMALL = np.linspace(-1.0, 1.0, 64)


def reference_work() -> float:
    """About 1 ms of interpreter arithmetic and numpy calls on a 64-element
    array, the two kinds of work most of the package's time goes to."""
    total = 0.0
    for i in range(8000):
        total += i * 0.5
    for _ in range(80):
        total += float(_SMALL.max()) + int((_SMALL > 0.0).sum())
    return total


class HostSpeed:
    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.samples: list[float] = []  # seconds per reference run
        self.handler_s = 0.0  # time spent in the reference runs

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every `interval_s` seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """(fn()'s result, its seconds without the reference runs, the median
        reference seconds during it).  One more sample is taken right after
        the call, so a call shorter than the interval has one too."""
        first, spent = len(self.samples), self.handler_s
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0 - (self.handler_s - spent)
        self.sample()
        return result, seconds, statistics.median(self.samples[first:])
