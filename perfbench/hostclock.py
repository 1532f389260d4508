"""Host-normalised timing for a shared, noisy machine.

On the shared 2-vCPU test host, other tenants slow every CPU-bound
process by up to 1.7x, in phases that last from seconds to minutes.
No choice of statistic over one run removes a slow phase that covers
the whole run. A fixed pure-Python reference loop, timed just before
and just after each measured call, slows down in step with the call.
Each call's wall time is therefore divided by the host slowdown the
two reference timings show, relative to :data:`REFERENCE_S`.

The reference loop is benchmark code: no change to the repository can
make it faster or slower, so a regression still shows in full.
"""

from __future__ import annotations

import time

#: Iterations of the reference loop (about 4 ms on the test host).
REFERENCE_LOOPS = 20000
#: The loop's fastest time on the 2-vCPU test host (Python 3.11.7).
#: Only ratios between runs matter; this keeps results in seconds.
REFERENCE_S = 0.0040


def reference_s() -> float:
    """Seconds the fixed reference work takes now (fastest of two)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(REFERENCE_LOOPS):
            key = (i * 7919) & 4095
            table[key] = table.get(key, 0) + i
            total += table[key] & 255
        best = min(best, time.perf_counter() - start)
    return best


def slowdown() -> float:
    """How much slower than :data:`REFERENCE_S` the host runs now."""
    return reference_s() / REFERENCE_S


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call, its wall time divided by the
    host slowdown measured just before and just after it."""
    before = reference_s()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - start
    after = reference_s()
    return wall * 2 * REFERENCE_S / (before + after), result
