"""A fixed pure-Python loop whose time is a yardstick for host speed.

A shared host alternates between fast and slow phases that last from
seconds to minutes, and CPU time moves with wall time.  So every child
process times this loop right after its set-up and, for a run, again right
after its items, and the benchmark reports its times scaled to a host on
which the loop takes ``REFERENCE_S``: ``time * REFERENCE_S / loop time``.
The loop never calls the package, so a change to the program moves a
scaled time by the same share as the raw one; the raw medians are kept in
the summary line.
"""

import statistics
import time

# About the median loop time on a 2-CPU host with Python 3.11.7, where 316
# timings ranged from 7.6 to 14.6 ms.
REFERENCE_S = 0.01125


def calibration_s():
    """Median time of five runs of a fixed integer loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100000):
            acc = (acc * 31 + i) % 1000003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(samples):
    """Factor that takes a time measured beside ``samples`` (loop times of
    ``calibration_s()``) to the reference host."""
    return REFERENCE_S / statistics.mean(samples)
