"""A fixed piece of pure-Python work that times how fast the host runs now.

On a shared host the same job takes a different CPU time from one minute to
the next: the speed of the virtual CPU swings by up to two times with the
load of other tenants, and a whole run can fall in a fast or a slow spell.
The benchmark times `reference_work` between every two jobs, and before the
first and after the last, on the same CPU, and reports each job at one fixed
host speed with `scaled` and the mean of the two reference times around it.
The work does what the program's inner loops do (exact rational arithmetic
on small matrices, tuple-keyed dicts) and does not touch the program, so a
change to the program moves the jobs and leaves the reference alone.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction as F

# Median CPU seconds of one `reference_work()` on the 2-core x86 box where
# the benchmark was defined, so scaled times read as seconds on that box.
REFERENCE_S = 0.025

_MATRIX = [[F(1 + (3 * i + j) % 5, 1 + (i + 2 * j) % 4) for j in range(5)] for i in range(5)]


def reference_work() -> int:
    m = _MATRIX
    for _ in range(20):
        # m <- m * m, renormalised so that the numbers stay small
        m = [[sum((m[i][k] * m[k][j] for k in range(5)), F(0)) for j in range(5)] for i in range(5)]
        top = max(abs(x) for row in m for x in row)
        m = [[F(round(x / top * 97), 1 + (i + j) % 6) for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    table = {}
    for i in range(14000):
        key = (i % 37, i % 11, i % 3)
        table[key] = table.get(key, 0) + i
    return len(table) + sum(x.denominator for row in m for x in row)


def reference_seconds() -> float:
    """CPU seconds of one `reference_work()`, with the garbage collector off so
    that the size of the program's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        reference_work()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(cpu_s: float, ref_s: float, sensitivity: float) -> float:
    """CPU seconds measured while the reference took ref_s, brought to the
    host speed at which the reference takes REFERENCE_S.  `sensitivity` is
    how far the measured work follows the reference: the slope of log(its
    CPU time) on log(reference time) as host speed swings.  Work that waits
    on memory more than the reference does speeds up less in a fast spell,
    and has a slope below 1."""
    return cpu_s * (REFERENCE_S / ref_s) ** sensitivity
