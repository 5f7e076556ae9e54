"""Order statistics used by every metric (no numpy: the row workloads
must run without it)."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q={q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` pooled samples lie strictly above rank ``q``."""
    return count - 1 - math.floor(q * (count - 1))


median = statistics.median


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; every value must be > 0."""
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
