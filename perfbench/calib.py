"""Host-speed reference for the ma6 benchmark.

On the shared 2-core host the benchmark was written on, the speed of each
core flips between a fast and a slow state (about 1.8x apart) every few
seconds, while the ratio between two pure-Python workloads run on the same
core stays within a few percent.  A sampler on the other core does not
track it.  So a timed op is measured against a fixed pure-Python reference
loop run in the same process: one sample just before the op, one just
after, and, for ops running in this process, one every ``PERIOD_S`` of CPU
time while the op runs (a ``SIGVTALRM`` handler; its time is subtracted
from the op).  The op's latency is reported at the reference speed:

    latency = raw × NOMINAL_S / mean(reference samples over the op)

A change to ma6 moves the raw time and leaves the reference loop alone, so
it shows in full; a slow state of the host moves both and cancels.  Raw
times are reported beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# median speed_sample() on the reference host (2-core Intel Xeon, Python 3.11.7)
NOMINAL_S = 0.00035
# a sample slower than this was preempted, not slowed
MAX_SAMPLE_S = 3 * NOMINAL_S
PERIOD_S = 0.05


def reference():
    """Fixed work in the mix ma6 does: Fraction arithmetic, dicts, tuples."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, 80):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i
    return acc, tuple(sorted(counts.items()))


def _timed_references(n):
    """Times of n reference loops after one untimed loop, which refills the
    caches the op evicted; the collector is paused so that garbage the op
    left is not collected inside a timed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        ts = []
        for _ in range(n):
            t0 = time.perf_counter()
            reference()
            ts.append(time.perf_counter() - t0)
        return ts
    finally:
        if enabled:
            gc.enable()


def speed_sample():
    """Median time of five reference loops, in seconds."""
    return sorted(_timed_references(5))[2]


class Speedometer:
    """Times ops against the reference loop.

    ``start()`` right before an op and ``stop()`` right after it; ``stop``
    returns (raw seconds, seconds at the reference speed).  Use as a context
    manager to sample during in-process ops as well.  ``overhead`` is all the
    time spent sampling, for a parent that timed this process from outside.
    """

    def __init__(self):
        self.ticks = []
        self.stolen = 0.0
        self.overhead = 0.0
        self._last = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._old)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks += _timed_references(1)
        dt = time.perf_counter() - t0
        self.stolen += dt
        self.overhead += dt

    def _sample(self):
        overhead, t0 = self.overhead, time.perf_counter()
        self._last = speed_sample()
        self.overhead = overhead + time.perf_counter() - t0

    def start(self):
        if self._last is None:
            self._sample()
        self._mark = (len(self.ticks), self.stolen, self._last)
        self._t0 = time.perf_counter()

    def stop(self):
        t1 = time.perf_counter()
        n, stolen, before = self._mark
        raw = t1 - self._t0 - (self.stolen - stolen)
        self._sample()
        ref = [before, self._last] + [t for t in self.ticks[n:] if t <= MAX_SAMPLE_S]
        return raw, raw * NOMINAL_S * len(ref) / sum(ref)

    def clock_ns(self):
        """``perf_counter_ns`` less the time spent in ticks, so that spans
        timed with it while this Speedometer samples exclude the samples."""
        return time.perf_counter_ns() - round(self.stolen * 1e9)

    def report(self, raw, scaled):
        """What a parent timing this process from outside needs."""
        return {"overhead_s": self.overhead, "factor": scaled / raw}


def scale_outside(raw, report):
    """Scale a time a parent measured around a child that sent ``report``."""
    return (raw - report["overhead_s"]) * report["factor"]
