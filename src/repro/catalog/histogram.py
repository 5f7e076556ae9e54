"""Equi-depth histograms for range selectivity.

The min/max linear interpolation the estimator falls back to assumes
uniform values; an equi-depth histogram (every bucket holds the same
number of rows) prices ranges correctly under skew.  Histograms are built
at load time from a bounded sample, the way Ignite's statistics collection
amortises its cost.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

#: Bucket count: enough resolution for benchmark predicates, tiny to store.
DEFAULT_BUCKETS = 64

#: Histograms are built from at most this many sampled values.
MAX_SAMPLE = 4096


class EquiDepthHistogram:
    """Bucket boundaries such that each bucket holds ~1/n of the rows."""

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Sequence):
        if len(boundaries) < 2:
            raise ValueError("histogram needs at least two boundaries")
        if boundaries[0] == boundaries[-1]:
            # A constant column yields boundaries with a single distinct
            # value; such a "histogram" prices every range at 0 or 1.
            # Callers must fall back to the linear estimate instead
            # (EquiDepthHistogram.build returns None for this case).
            raise ValueError("histogram boundaries need two distinct values")
        self.boundaries = list(boundaries)

    @property
    def bucket_count(self) -> int:
        return len(self.boundaries) - 1

    @staticmethod
    def build(
        values: Sequence, buckets: int = DEFAULT_BUCKETS
    ) -> Optional["EquiDepthHistogram"]:
        """Build from non-null ``values``; None when there is nothing to
        summarise — empty, single-valued or constant columns (whose
        sorted sample has no two distinct values) need no histogram and
        must fall back to the linear estimate.
        """
        data = [v for v in values if v is not None]
        if len(data) < 2:
            return None
        if len(data) > MAX_SAMPLE:
            step = len(data) / MAX_SAMPLE
            data = [data[int(i * step)] for i in range(MAX_SAMPLE)]
        data.sort()
        if data[0] == data[-1]:
            # Constant (or constant-after-sampling) column: every
            # boundary would coincide.
            return None
        buckets = min(buckets, len(data) - 1)
        boundaries = [
            data[round(i * (len(data) - 1) / buckets)]
            for i in range(buckets + 1)
        ]
        return EquiDepthHistogram(boundaries)

    # -- estimation -----------------------------------------------------------

    def fraction_below(self, value) -> float:
        """Estimated fraction of rows with column value < ``value``."""
        bounds = self.boundaries
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        index = bisect.bisect_right(bounds, value) - 1
        index = min(index, len(bounds) - 2)
        low, high = bounds[index], bounds[index + 1]
        within = 0.5
        try:
            if high != low:
                within = (as_number(value) - as_number(low)) / (
                    as_number(high) - as_number(low)
                )
        except (TypeError, ValueError):
            pass
        within = min(1.0, max(0.0, within))
        return (index + within) / self.bucket_count

    def range_fraction(self, low=None, high=None) -> float:
        """Estimated fraction of rows in [low, high] (open ends allowed)."""
        below_high = 1.0 if high is None else self.fraction_below(high)
        below_low = 0.0 if low is None else self.fraction_below(low)
        return max(0.0, below_high - below_low)


def as_number(value) -> float:
    """Coerce a statistics value (a boundary, a min/max, a predicate
    literal) to a number; ISO dates map to a pseudo-ordinal."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        if len(value) == 10 and value[4] == "-" and value[7] == "-":
            year, month, day = value.split("-")
            return int(year) * 372.0 + int(month) * 31.0 + int(day)
        raise ValueError(f"non-numeric value {value!r}")
    raise TypeError(type(value).__name__)
