"""The machine's current speed, measured with a fixed reference loop.

The test machine's speed swings by up to 2x within seconds and drifts over
minutes, far more than the program varies between runs.  So every timed op
is bracketed by two runs of a fixed pure-Python loop (dicts, integer
arithmetic, a keyed sort: the same kinds of work as the program), and its
time is scaled to a machine on which that loop takes REF_S:

    scaled = measured * REF_S / (mean of the loop's two bracketing times)

A change to the program moves the scaled time as it moves the measured one;
a change in the machine's speed moves both the op and the loop and cancels.
This module uses only the standard library and imports nothing from the
program, so no change to the program can change the loop.
"""

import statistics
import time

REF_S = 0.001  # scaled times are seconds on a machine that runs one loop in 1 ms


def _loop():
    table = {}
    total = 0
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += (i * i) % 7
    sorted(range(2000, 0, -1), key=lambda x: x % 101)
    return total


def loop_s():
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def steady_loop_s():
    """Median of five runs, for a fresh process whose first runs are cold."""
    return statistics.median(loop_s() for _ in range(5))


def scale(seconds, loop_before, loop_after):
    """``seconds`` measured between two loop times, scaled to REF_S."""
    return seconds * REF_S * 2.0 / (loop_before + loop_after)
