"""Nominal seconds: times measured in units of a fixed reference loop.

On the reference machine (a 2-vCPU VM) the host's speed swings by about
1.5x, both from one second to the next and for minutes at a time.  That
moves raw times further than any bound the benchmark could set.  So every
reported time is divided by the time of a reference loop run right before
and right after it, in the same process.  The result is then multiplied
by REF_NOMINAL_S, the nominal time of one loop.  Raw seconds stay in the
info line of each run.
"""

from __future__ import annotations

import math
import time

REF_ITERATIONS = 7000  # about 1 ms on the reference machine when its host is quiet
REF_REPEATS = 3
REF_NOMINAL_S = 1e-3


def reference_seconds() -> float:
    """Fastest of REF_REPEATS runs of a fixed loop of float arithmetic.

    The loop allocates no container, so garbage left by the program under
    test cannot slow it down.
    """
    best = math.inf
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(REF_ITERATIONS):
            acc += math.exp(-((i % 50) * 0.02) ** 2)
        best = min(best, time.perf_counter() - start)
    return best


def nominal(seconds: float, ref_before: float, ref_after: float) -> float:
    """Raw seconds converted to nominal seconds by the bracketing loops."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
