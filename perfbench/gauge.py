"""CPU-speed gauge: a fixed pure-Python loop timed while the benchmark lifts.

On a shared host the speed of a vCPU swings with what the neighbours on its
core do, often by half within a second. On the 2-vCPU host this benchmark was
defined on, 34-second `sound` runs read 38.0 to 57.2 KB/s over ten seeds,
and process CPU time swung with wall time, so no amount of in-run
repetition removes it. The benchmark therefore reads this gauge every
SAMPLE_S seconds while it lifts and reports each lift time rescaled to a CPU
on which the reference loop takes REFERENCE_S: a lift that ran while the
loop took 10% longer than REFERENCE_S is counted at 1/1.1 of its wall time.
The same ten runs read 57.0 to 61.8 KB/s rescaled.

The loop uses nothing from evmlift, so a change to the lifter moves only the
lift time, never the gauge. It runs with the cyclic collector off, so the
size of the lifter's heap cannot make the gauge slower.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

# About the median of gauge() on the host the benchmark was defined on
# (2 vCPU, Python 3.11.7), where its median read 1.9 to 4.0 ms from run to
# run. It only sets the scale the rescaled times are read in.
REFERENCE_S = 0.0025
REPEATS = 3
SAMPLE_S = 0.2


def reference_loop() -> int:
    """Dict, set and tuple work like the lifter's, on a small fixed input."""
    table: dict[tuple[int, int], int] = {}
    seen = set()
    total = 0
    for i in range(6000):
        key = (i % 311, i & 7)
        table[key] = table.get(key, 0) + 1
        if i % 3 == 0:
            seen.add(key)
        total += len(table) - len(seen)
    return total


def gauge() -> float:
    """Median seconds of REPEATS runs of the reference loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_loop()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


class SpeedScale:
    """A timeline of gauge reads, and wall time rescaled by it.

    Between two reads the speed is taken as constant: wall time there counts
    at REFERENCE_S over the mean of the two reads. Time spent in the reads
    counts as nothing. Inside sampling() a timer signal reads the gauge every
    SAMPLE_S seconds, so a lift longer than that is rescaled by the speed
    the host had while it ran, not only at its ends.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.readings: list[float] = []
        self._reading = False
        self.read()

    def read(self) -> float:
        """Read the gauge now and put it on the timeline."""
        if self._reading:  # a timer signal that arrived during a read
            return self.readings[-1]
        self._reading = True
        try:
            start = time.perf_counter()
            seconds = gauge()
            self.ends.append(time.perf_counter())
            self.starts.append(start)
            self.readings.append(seconds)
        finally:
            self._reading = False
        return seconds

    def factor(self) -> float:
        """Read the gauge; the factor for the time since the previous read."""
        previous = self.readings[-1]
        return REFERENCE_S / ((previous + self.read()) / 2)

    @contextmanager
    def sampling(self):
        """Read the gauge every SAMPLE_S seconds, and once more at the end."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.read())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.read()

    def rescale(self, start: float, end: float) -> tuple[float, float]:
        """Rescaled and wall seconds of [start, end], less the gauge reads in it.

        Needs a read that ends before `start` and one that starts after `end`.
        """
        if not self.ends[0] <= start <= end <= self.starts[-1]:
            raise ValueError("interval outside the gauge timeline")
        scaled = wall = 0.0
        k = bisect.bisect_right(self.ends, start) - 1
        while k + 1 < len(self.readings) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                wall += overlap
                scaled += overlap * REFERENCE_S / ((self.readings[k] + self.readings[k + 1]) / 2)
            k += 1
        return scaled, wall
