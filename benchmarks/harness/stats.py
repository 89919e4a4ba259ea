"""Order statistics the harness reports: medians, percentiles, spreads."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    """The median; 0.0 for an empty sample (a metric not measured)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    return float(ordered[round(fraction * (len(ordered) - 1))])


def spread_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same statistic the acceptance driver takes over ten runs
    (``statistics.quantiles(values, n=4)``); 0.0 when fewer than two
    samples exist or the median is zero.
    """
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle) if middle else 0.0
