"""Machine speed, sampled while a benchmark runs.

The 2-vCPU VMs this benchmark was built on share cores with other
tenants.  Their speed toggles by about 25% within a second and drifts by
up to 1.5x between periods of a minute; steal time does not show it.
Identical runs of fixture-cli differed by 16 to 21% in wall time (IQR
over median).  A fixed pure-Python loop of about 1.5 ms, timed between
jobs, drifts with them, so the benchmark reports each job in reference
seconds:

    measured seconds * REF_S / mean(loop time just before, just after)

and keeps the measured seconds and the factor in each run's detail line.
The loop never calls fuzzyqp, so a change to the library moves the
reported times in the same proportion as the measured ones.
"""
from __future__ import annotations

import statistics
import time

REF_S = 1.4e-3  # loop time that defines a factor of 1 (a typical value on that VM)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - start


def factor(samples) -> float:
    """Multiply measured seconds by this to get reference seconds."""
    return REF_S / statistics.mean(samples)


class Timer:
    """Times a sequence of calls, each between two loop samples."""

    def __init__(self):
        self.cal = [calibrate()]
        self.measured: list[float] = []
        self.scaled: list[float] = []

    def time(self, fn, *args):
        """Call fn(*args) and record its time; exceptions propagate, timed."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.cal.append(calibrate())
            self.measured.append(elapsed)
            self.scaled.append(elapsed * factor(self.cal[-2:]))

    @property
    def overall(self) -> float:
        """Time-weighted factor of all calls so far."""
        return sum(self.scaled) / sum(self.measured)
