"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between the
    closest ranks, the same rule as ``numpy.percentile``'s default."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must lie in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile; a
    percentile is worth reporting when at least ten do."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
