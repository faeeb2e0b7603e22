"""How fast the core is right now, for scaling measured times.

The cores of a shared machine change speed by a third or more from second
to second (CPU time and wall time rise together, so the core is slower, not
descheduled).  The benchmark times a fixed pure-Python loop, close in kind
to gammalab's own loops, next to every measured interval, and reports each
time scaled to the loop's reference time:

    scaled = measured * REF_S / yardstick_time_next_to_it

(with the yardstick times on either side of the interval, and on each CPU
the work may use, combined as a mean speed).

Scaled seconds are the seconds the same work takes while the loop runs in
REF_S, the loop's time on an uncontended core of the machine the benchmark
was written on (a 2-vCPU Intel Xeon at 2.0 GHz).  The loop never changes
with the program, so a change to the program moves scaled times as it moves
raw ones, while a change in the core's speed moves both the interval and
the yardstick and cancels.
"""

from __future__ import annotations

import math
import os
import time

REF_S = 2.5e-3
_N = 10_000


def yardstick() -> float:
    """Seconds for one pass of the fixed loop on the current core."""
    log1p = math.log1p
    t0 = time.perf_counter()
    acc = comp = 0.0
    for j in range(1, _N):
        t = j / (j * j + 2.0) - log1p(1.0 / j)
        y = t - comp
        s = acc + y
        comp = (s - acc) - y
        acc = s
    return time.perf_counter() - t0


def scale(*yard_s: float) -> float:
    """Factor from measured to scaled seconds, from yardstick times taken
    next to the interval: REF_S times their mean speed."""
    return REF_S * sum(1.0 / y for y in yard_s) / len(yard_s)


def yardstick_all_cpus() -> float:
    """Yardstick time at the mean speed of the CPUs this process may run
    on; work spread over them goes at the sum of their speeds."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return yardstick()
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(yardstick())
    finally:
        os.sched_setaffinity(0, cpus)
    return len(times) / sum(1.0 / t for t in times)
