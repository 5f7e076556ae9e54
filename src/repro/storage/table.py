"""In-memory table storage: hash partitions, replicas and sorted indexes.

Reproduces Ignite's storage model in the paper's configuration ("partitioned
cache mode with zero backups", Section 6.1):

* a *partitioned* table hash-distributes rows over ``P`` partitions using
  its affinity key; partitions are assigned round-robin to sites;
* a *replicated* table keeps a full copy at every site (TPC-H's NATION and
  REGION are small enough that the reproduction replicates them, matching
  the "replicated base relation has one partition" note under Alg. 2);
* secondary indexes are per-partition sorted row lists, giving the engine
  ordered access paths and range pruning.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.schema import IndexDef, TableSchema
from repro.catalog.statistics import TableStats, compute_table_stats
from repro.common.errors import StorageError
from repro.common.ordering import NullsLast, sort_rows

Row = Tuple

# Keyed seed for string affinity hashing.  Distinct from the sketch engine's
# DEFAULT_SEED so affinity placement and sketch estimates stay uncorrelated.
AFFINITY_SEED = 0xAF1717

# Lazily bound to repro.stats.sketches.value_hash: repro.stats imports the
# estimator, which imports the store, which imports this module, so a
# top-level import would be circular.
_value_hash = None


def _stable_hash(value: object) -> int:
    """A ``PYTHONHASHSEED``-independent stand-in for ``hash``.

    Ints (and int-valued floats/bools) keep Python's identity hash, so the
    dense TPC-H surrogate keys spread over partitions exactly as before.
    Strings — whose builtin hash is salted per process — route through the
    sketch engine's keyed blake2b hash instead.  Tuples (multi-column
    affinity routing) rehash each unstable component first; Python's tuple
    hash combiner itself is unsalted, so an all-int tuple keeps its builtin
    hash bit-for-bit.
    """
    global _value_hash
    if isinstance(value, str):
        if _value_hash is None:
            from repro.stats.sketches import value_hash

            _value_hash = value_hash
        return _value_hash(value, AFFINITY_SEED)
    if isinstance(value, tuple):
        return hash(tuple(
            _stable_hash(v) if isinstance(v, (str, tuple)) else v
            for v in value
        ))
    return hash(value)


def affinity_partition(value: object, partition_count: int) -> int:
    """Map an affinity-key value to a partition.

    Deterministic across interpreter runs regardless of ``PYTHONHASHSEED``:
    seeded traces and fault schedules replay against identical placements
    even for string affinity keys (see :func:`_stable_hash`).
    """
    return _stable_hash(value) % partition_count


class PartitionIndex:
    """A sorted index over one partition's rows.

    Rows are kept sorted by the index key; ``scan`` yields them in key
    order and ``range_scan`` prunes with binary search on the leading key.
    """

    def __init__(self, key_positions: Sequence[int], rows: Iterable[Row]):
        self.key_positions = tuple(key_positions)
        first = self.key_positions[0]
        # Sorted through the engine's total order: NULL keys sort last and
        # mixed-type keys cannot raise TypeError at index-build time.
        decorated = sort_rows(rows, [(p, True) for p in self.key_positions])
        self.rows: List[Row] = decorated
        self._leading_keys = [NullsLast(row[first]) for row in decorated]
        # First slot whose leading key is NULL: bounded range scans stop
        # here, because NULL satisfies no range predicate.
        self._first_null = bisect.bisect_left(
            self._leading_keys, NullsLast(None)
        )

    def scan(self) -> List[Row]:
        return self.rows

    def range_bounds(
        self, low: Optional[object] = None, high: Optional[object] = None,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> Tuple[int, int]:
        """The ``[start, end)`` slice of sorted positions whose leading
        index key lies within [low, high].

        NULL keys sort after every value and never satisfy a range
        predicate, so any bounded scan excludes the trailing NULL run.
        The columnar backend slices its cached index batches with these
        bounds instead of re-batching ``range_scan``'s row lists.
        """
        keys = self._leading_keys
        start = 0
        end = len(keys)
        if low is not None or high is not None:
            end = self._first_null
        if low is not None:
            if low_inclusive:
                start = bisect.bisect_left(keys, NullsLast(low), 0, end)
            else:
                start = bisect.bisect_right(keys, NullsLast(low), 0, end)
        if high is not None:
            if high_inclusive:
                end = bisect.bisect_right(keys, NullsLast(high), 0, end)
            else:
                end = bisect.bisect_left(keys, NullsLast(high), 0, end)
        return start, max(start, end)

    def range_scan(
        self, low: Optional[object] = None, high: Optional[object] = None,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> List[Row]:
        """Rows whose leading index key lies within [low, high]."""
        start, end = self.range_bounds(low, high, low_inclusive, high_inclusive)
        return self.rows[start:end]

    def __len__(self) -> int:
        return len(self.rows)


class TableData:
    """The stored rows of one table plus its indexes and statistics."""

    def __init__(
        self,
        schema: TableSchema,
        rows: Sequence[Row],
        partition_count: int,
        site_count: int,
        adapter: Optional[object] = None,
    ):
        if partition_count < 1 or site_count < 1:
            raise StorageError("partition_count and site_count must be >= 1")
        self.schema = schema
        self.site_count = site_count
        # The storage adapter backing this table.  ``None`` until the store
        # attaches one; scans treat that the same as the native adapter.
        self.adapter = adapter
        for row in rows:
            if len(row) != schema.width:
                raise StorageError(
                    f"row width {len(row)} != schema width {schema.width} "
                    f"for table {schema.name}"
                )
        if schema.replicated:
            # One logical partition, copied to every site.
            self.partition_count = 1
            self.partitions: List[List[Row]] = [list(rows)]
            self.partition_sites = [tuple(range(site_count))]
        else:
            self.partition_count = partition_count
            self.partitions = [[] for _ in range(partition_count)]
            key_pos = schema.affinity_index
            for row in rows:
                part = affinity_partition(row[key_pos], partition_count)
                self.partitions[part].append(row)
            if adapter is not None:
                # Adapters may override placement (a remote source keeps
                # every partition behind one gateway site, for example).
                self.partition_sites = adapter.partition_sites(
                    partition_count, site_count
                )
            else:
                # Round-robin partition placement over sites.
                self.partition_sites = [
                    (p % site_count,) for p in range(partition_count)
                ]
        self.stats: TableStats = compute_table_stats(rows, schema.column_names)
        # index name -> per-partition PartitionIndex
        self.indexes: Dict[str, List[PartitionIndex]] = {}
        for index in schema.indexes.values():
            self._build_index(index)

    # -- layout ---------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.stats.row_count

    def partitions_at_site(self, site: int) -> List[int]:
        """Partition ids stored (or replicated) at ``site``."""
        return [
            p for p, sites in enumerate(self.partition_sites) if site in sites
        ]

    def partition_site_count(self) -> int:
        """Number of distinct sites holding a partition of this table.

        For a replicated table this is 1, matching Alg. 2's convention that
        "a replicated base relation has one partition": replication offers
        no extra parallelism because every site already sees all rows.
        """
        if self.schema.replicated:
            return 1
        sites = {s for part in self.partition_sites for s in part}
        return max(1, len(sites))

    # -- indexes ----------------------------------------------------------------

    def _build_index(self, index: IndexDef) -> None:
        positions = [self.schema.column_index(c) for c in index.columns]
        self.indexes[index.name] = [
            PartitionIndex(positions, part) for part in self.partitions
        ]

    def add_index(self, name: str, columns: Sequence[str]) -> None:
        """Define and build a secondary index after load."""
        index = self.schema.add_index(name, columns)
        self._build_index(index)

    def index(self, name: str) -> List[PartitionIndex]:
        try:
            return self.indexes[name]
        except KeyError:
            raise StorageError(
                f"no index {name} on table {self.schema.name}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableData({self.schema.name}, rows={self.row_count}, "
            f"partitions={self.partition_count})"
        )
