"""Estimators and the calibration kernel of the perf benchmark.

Depends on nothing in ``repro``: the rules that turn raw timings into
reported numbers must not move when the program does.

The host this benchmark was sized on (2 shared vCPUs) changes speed
under the program: user-mode code runs at one of a few discrete speeds
(1x, ~1.2x, ~1.5x, ~1.8x slower) that switch every 50 ms to several
minutes, wall time and CPU time alike.  Raw throughput of one commit
therefore spreads by 7-23 % between runs (``baseline/`` holds the
paired raw and reference-clock numbers).  What tracks the speed is a
fixed kernel of interpreter and array work that touches no program
code, so:

* the kernel is read between any two operations, and an operation's
  times are put on the **reference clock**: multiplied by
  ``CALIB_REFERENCE_MS`` over the mean of the two kernel readings around
  it.  Reported times are what the program would have taken at the speed
  at which the kernel takes ``CALIB_REFERENCE_MS``; raw times and kernel
  readings are kept beside them in the run record.
* of a run's identical rounds only the **quiet half** counts: the
  ``ceil(R/2)`` rounds with the shortest raw wall time.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

def quiet_half(round_times: Sequence[float]) -> List[int]:
    """Indices of the fastest ``ceil(R/2)`` rounds, in run order (ties
    go to the earlier round)."""
    if not round_times:
        raise ValueError("no rounds to choose from")
    keep = math.ceil(len(round_times) / 2)
    fastest = sorted(range(len(round_times)),
                     key=lambda index: (round_times[index], index))[:keep]
    return sorted(fastest)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between the two nearest
    ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile range as a share of the
    median — the figure the acceptance rule bounds."""
    middle = statistics.median(values)
    if len(values) < 2:
        return {"median": middle, "q1": middle, "q3": middle, "iqr_frac": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": middle, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / middle if middle else 0.0}


# -- calibration -------------------------------------------------------------

#: what :func:`calibrate` reads on the sizing host at its full speed;
#: the speed every reported time is referred to
CALIB_REFERENCE_MS = 4.3

_CALIB_KEYS = 20_000
_CALIB_ARRAY = np.arange(200_000, dtype=np.int64)


def calibrate() -> float:
    """Milliseconds one fixed dict-and-numpy kernel takes right now.

    The same interpreter work (dict inserts, lookups, integer
    arithmetic) and the same array work (modulo, scatter-add) on every
    call, touching no program code — so it tells a slow machine from a
    slow program.
    """
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for key in range(_CALIB_KEYS):
        table[key * 7919 % 10007] = key
    total = 0
    for key in range(_CALIB_KEYS):
        total += table.get(key % 10007, 0)
    codes = _CALIB_ARRAY % 977
    sums = np.zeros(977, dtype=np.int64)
    np.add.at(sums, codes, _CALIB_ARRAY)
    if int(sums.sum()) != int(_CALIB_ARRAY.sum()) or total < 0:
        raise AssertionError("calibration kernel computed a wrong sum")
    return (time.perf_counter() - started) * 1000.0


def reading(runs: int = 1) -> float:
    """The mean of ``runs`` kernel runs, after one that is thrown away:
    the first run after program code re-warms the caches that code left
    cold and reads 5-13 % high, by an amount that depends on the code."""
    calibrate()
    return statistics.fmean(calibrate() for _ in range(runs))


def reference_factor(*readings_ms: float) -> float:
    """What to multiply a time by to put it on the reference clock,
    given the kernel readings taken around it."""
    return CALIB_REFERENCE_MS * len(readings_ms) / sum(readings_ms)
