"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from collections.abc import Sequence

TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0, 50.0)
"""Percentiles a tail may be reported at, highest first."""

BEYOND = 10
"""A percentile is reported only with at least this many samples above it."""


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile (``level`` in 0..100) of non-empty *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_level(count: int, levels: Sequence[float] = TAIL_LEVELS) -> float | None:
    """Highest percentile with at least :data:`BEYOND` of *count* samples above it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for level in levels:
        if count - math.ceil(level / 100.0 * count) >= BEYOND:
            return level
    return None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
