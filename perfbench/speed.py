"""Machine speed, sampled while the work runs.

On a shared VM one core's speed swings by a factor of two within a second
(another tenant on the same physical core), more than any useful regression
bound.  So while a process works, a SIGALRM handler times a short reference
computation every INTERVAL_S, and each operation's time is reported scaled
to a machine on which that computation takes REFERENCE_S:

    scaled = (measured - time in the handler) * REFERENCE_S * mean(1 / sample)

``mean(1 / sample)`` is the process's average speed over the operation's
interval.  An operation shorter than MIN_SAMPLES intervals is scaled by the
last MIN_SAMPLES samples up to its end.  The reference is exact rational
arithmetic on ``fractions.Fraction``, the kind of work the library does: on a
2-core Xeon VM, repeated cold LS enumerations of A2 (2,2) spread 0.35 to 0.41
(IQR over median) measured and 0.03 to 0.05 scaled, while an integer-only
loop as the reference left 0.10 to 0.13.  The reference shares no code with
mvcrystals, so a change to the library moves scaled times exactly as it
moves measured ones.  Result files keep the measured times beside them.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 50e-6  # about the reference's time on that VM when nothing contends
INTERVAL_S = 0.01
MIN_SAMPLES = 5


def reference():
    """About 50 microseconds of exact rational arithmetic and hashing."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 12):
        acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3)
        table[(k, k % 7)] = acc
    return acc


class Sampler:
    """Reference samples of one process: start time and duration of each."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the workload's garbage is not machine speed
        try:
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def start(self):
        """Take MIN_SAMPLES samples now, then one every INTERVAL_S."""
        for _ in range(MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0, t1):
        """(measured, scaled) seconds of the work done between t0 and t1."""
        i = bisect_left(self.starts, t0)
        j = bisect_right(self.starts, t1)
        busy = (t1 - t0) - sum(self.durations[i:j])
        return busy, scaled(busy, self.durations[max(0, min(i, j - MIN_SAMPLES)):j])


def scaled(busy, durations):
    """``busy`` seconds at the mean speed these reference durations show,
    in seconds at the reference speed."""
    return busy * REFERENCE_S * sum(1 / d for d in durations) / len(durations)
