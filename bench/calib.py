"""Host-noise probe: a fixed amount of interpreter and NumPy work, timed.

Run before and after every workload.  The program under test is not
involved, so two readings that disagree mean the host changed phase
(frequency scaling, a noisy neighbour) and the run's numbers are suspect.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOISY_GAP", "calibrate_ms", "is_noisy"]

NOISY_GAP = 0.10
_REPEATS = 9


def _work() -> float:
    total = 0
    table: dict[int, int] = {}
    for index in range(60_000):
        table[index & 1023] = total
        total = (total + ((index * 31) ^ (total >> 3))) & 0xFFFFFFFF
    # Element-wise NumPy only: a threaded BLAS call would leave a worker
    # spinning on the other core and the probe would time its own echo.
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(8):
        values = np.sqrt(values * values + 1.0)
    return float(values.sum()) + total


def calibrate_ms() -> float:
    """Lower-quartile wall time of the fixed work unit, in milliseconds.

    Interference only ever slows the unit down, so the third-fastest of
    nine repeats shrugs off the sub-second hiccups that made a median of
    five swing by 30% on an otherwise steady host.
    """
    timings = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _work()
        timings.append((time.perf_counter() - start) * 1e3)
    return sorted(timings)[2]


def is_noisy(before_ms: float, after_ms: float) -> bool:
    return abs(after_ms - before_ms) / min(before_ms, after_ms) > NOISY_GAP
