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
from operator import itemgetter
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.catalog.histogram import EquiDepthHistogram
from repro.common.ordering import NullsLast, orderable


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
    """Compute full statistics over ``rows``, one column at a time.

    This is what Ignite's statistics collection ("statistics enabled" in the
    paper's methodology, Section 6.1) produces for the planner.  Min and
    max are the first least and greatest non-NULL values; a column mixing
    kinds (ints with strings) takes them under the engine's total order
    and gets no histogram, since raw ``<`` cannot order it.
    """
    names = [n.lower() for n in column_names]
    row_count = len(rows)
    if row_count == 0:
        columns = {n: ColumnStats(distinct_count=0) for n in names}
        return TableStats(row_count=0, columns=columns)

    # Sample rows (not distinct values) so bucket depths reflect the
    # actual value frequencies.
    sample_step = max(1, row_count // 4096)
    columns = {}
    for i, name in enumerate(names):
        column = list(map(itemgetter(i), rows))
        nulls = column.count(None)
        present = [v for v in column if v is not None] if nulls else column
        distinct = set(present)
        low = high = histogram = None
        if present:
            one_kind = orderable(distinct) or len(set(map(type, distinct))) == 1
            key = None if one_kind else NullsLast
            low, high = min(present, key=key), max(present, key=key)
            if len(distinct) > 1 and one_kind:
                histogram = EquiDepthHistogram.build(
                    [v for v in column[::sample_step] if v is not None]
                )
        columns[name] = ColumnStats(
            distinct_count=len(distinct),
            null_count=nulls,
            min_value=low,
            max_value=high,
            histogram=histogram,
        )
    return TableStats(row_count=row_count, columns=columns)
