"""Table and column statistics.

Ignite "already tracks metadata related to the data it is storing (schemas,
cardinality, etc.)" and serves it to Calcite through provider hooks
(Section 3.2).  The reproduction computes the same statistics directly from
the stored data when a table is loaded: row counts and, per column, the
number of distinct values, min/max and null count.  The join-size
estimators in :mod:`repro.stats` consume these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.catalog.histogram import EquiDepthHistogram


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column."""

    distinct_count: int
    null_count: int = 0
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    #: Equi-depth histogram for range selectivity; None for columns with
    #: too few distinct values (or incomparable types) to summarise.
    histogram: Optional[EquiDepthHistogram] = None


@dataclass
class TableStats:
    """Statistics for one table: cardinality plus per-column stats."""

    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def distinct_count(self, name: str) -> Optional[int]:
        stats = self.column(name)
        return stats.distinct_count if stats else None


def compute_table_stats(
    rows: Sequence[Tuple], column_names: Iterable[str]
) -> TableStats:
    """Scan ``rows`` once and compute full statistics.

    This is what Ignite's statistics collection ("statistics enabled" in the
    paper's methodology, Section 6.1) produces for the planner.
    """
    names = [n.lower() for n in column_names]
    row_count = len(rows)
    if row_count == 0:
        columns = {n: ColumnStats(distinct_count=0) for n in names}
        return TableStats(row_count=0, columns=columns)

    distinct = [set() for _ in names]
    nulls = [0] * len(names)
    mins: list = [None] * len(names)
    maxs: list = [None] * len(names)
    for row in rows:
        for i, value in enumerate(row):
            if value is None:
                nulls[i] += 1
                continue
            distinct[i].add(value)
            if mins[i] is None or value < mins[i]:
                mins[i] = value
            if maxs[i] is None or value > maxs[i]:
                maxs[i] = value

    columns = {}
    for i, name in enumerate(names):
        histogram = None
        if len(distinct[i]) > 1:
            # Sample rows (not distinct values) so bucket depths reflect
            # the actual value frequencies.
            sample_step = max(1, row_count // 4096)
            sample = [
                row[i] for row in rows[::sample_step] if row[i] is not None
            ]
            histogram = EquiDepthHistogram.build(sample)
        columns[name] = ColumnStats(
            distinct_count=len(distinct[i]),
            null_count=nulls[i],
            min_value=mins[i],
            max_value=maxs[i],
            histogram=histogram,
        )
    return TableStats(row_count=row_count, columns=columns)
