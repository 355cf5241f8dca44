"""Wall time scaled by the host's speed, measured while the run goes on.

The benchmark shares a few cores of a host whose speed wanders: the same
pure-Python loop takes from 1x to about 2x its best time, in stretches of
seconds to minutes.  A wall-clock pass time therefore follows the host as
much as the program.  ``HostClock`` samples the host's speed during the run:
every ``PERIOD`` seconds a SIGALRM handler times a fixed probe loop.  A
stretch of wall time between two probes is scaled by ``PROBE_REF_S`` over
the mean duration of those two probes, and the probes' own time is left
out.  A time on this clock is thus the time the work would have taken had
the host run the probe in ``PROBE_REF_S`` throughout; the probe code is the
benchmark's own, so a change to hamsurf moves it not at all.

Timestamps are taken with ``perf_counter`` while the clock runs and mapped
onto the scaled time line with ``at`` once it has stopped.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD = 0.025        # seconds of wall time between probes
PROBE_LOOPS = 8000
PROBE_REF_S = 0.0009  # the probe's duration on an unloaded core of the reference host


def probe():
    """A fixed dict-and-integer loop, about the mix of hamsurf's own code."""
    d = {}
    for i in range(PROBE_LOOPS):
        k = i % 613
        d[k] = d.get(k, 0) + i
    return d


class HostClock:
    """Use as a context manager around the whole run; then call ``at``."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.starts, self.ends = [], []
        self._cum = None
        self._old = None

    def _probe(self, *_):
        start = perf_counter()
        probe()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        # scale of the gap after probe i: reference over the mean of probes i, i+1
        self._scale = [2 * PROBE_REF_S / (a + b) for a, b in zip(durations, durations[1:])]
        self._cum = [0.0]
        for i, scale in enumerate(self._scale):
            self._cum.append(self._cum[-1] + (self.starts[i + 1] - self.ends[i]) * scale)
        return False

    def at(self, t):
        """Scaled time of the ``perf_counter`` reading ``t``, taken while the clock ran."""
        i = bisect.bisect_right(self.ends, t) - 1
        if i < 0:
            return (t - self.ends[0]) * self._scale[0]
        if i == len(self._scale):
            return self._cum[i] + (t - self.ends[i]) * self._scale[-1]
        return self._cum[i] + (min(t, self.starts[i + 1]) - self.ends[i]) * self._scale[i]

    def scaled(self, start, end):
        return self.at(end) - self.at(start)

    def slowdown(self):
        """Median probe duration over the reference: 1 on an unloaded host."""
        durations = sorted(e - s for s, e in zip(self.starts, self.ends))
        return durations[len(durations) // 2] / PROBE_REF_S
