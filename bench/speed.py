"""Machine speed, measured with fixed reference loops, to scale timings by.

The hosts this benchmark runs on are shared: the time a fixed piece of work
takes swings by 1.5 to 2x over phases of tens of seconds (CPU time with it,
so it is not steal), which no length of run averages out.  So the benchmark
times, next to what it measures, a reference loop that does not depend on
the package, and reports every time metric scaled to the speed at which that
loop takes its nominal time:

    scaled = measured * nominal / reference_time

with the reference timed close in time to the measurement.  A change to the
package changes `measured` and not the reference, so it shows in full; a
slow phase of the host moves both and cancels.

Ops are scaled by `reference()` (a pure-Python float loop plus a small numpy
three-term recurrence, the two kinds of work the package does; nominal
REF_MS).  Imports and set-ups are scaled by `python_reference()` alone
(nominal PY_REF_MS), which needs no numpy and so can run in the measured
process before the import; it is timed in CPU time of the calling thread,
because once numpy is loaded its BLAS threads can preempt that thread for a
varying share of the wall time.
This module imports numpy only when `reference()` first runs.
"""

from __future__ import annotations

import statistics
import time

# Nominal times, in ms, on a quiet 2.1 GHz Xeon vCPU; the scaled metrics are
# what a run would read at that speed.
REF_MS = 0.5
PY_REF_MS = 0.2

_x = None  # the recurrence's argument array, made on first use


def _python_loop() -> float:
    s, x = 0.0, 1.0
    for i in range(1, 3000):
        x = x * 0.999 + 1.0 / i
        if x > s:
            s = x
    return s


def _numpy_recurrence() -> float:
    global _x
    if _x is None:
        import numpy as np

        _x = np.linspace(0.0, 1.0, 64)
    p0, p1 = _x * 0.0 + 1.0, _x.copy()
    for n in range(1, 120):
        p0, p1 = p1, ((2 * n + 1) * _x * p1 - n * p0) / (n + 1)
    return float(p1[-1])


def reference() -> tuple[float, float]:
    """Run the op reference loop once; returns its (wall, CPU) seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _python_loop()
    _numpy_recurrence()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def python_reference(runs: int = 25) -> float:
    """Median CPU seconds of the calling thread over `runs` pure-Python
    reference loops."""
    times = []
    for _ in range(runs):
        cpu0 = time.thread_time()
        _python_loop()
        times.append(time.thread_time() - cpu0)
    return statistics.median(times)
