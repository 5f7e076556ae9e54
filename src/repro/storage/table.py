"""In-memory table storage: hash partitions, replicas and sorted indexes.

Reproduces Ignite's storage model in the paper's configuration ("partitioned
cache mode with zero backups", Section 6.1):

* a *partitioned* table hash-distributes rows over ``P`` partitions using
  its affinity key; partitions are assigned round-robin to sites;
* a *replicated* table keeps a full copy at every site (TPC-H's NATION and
  REGION are small enough that the reproduction replicates them, matching
  the "replicated base relation has one partition" note under Alg. 2);
* secondary indexes are per-partition sorted row lists, giving the engine
  ordered access paths and range pruning.  An index holds no per-row key
  objects: range pruning bisects the sorted rows with a probe that
  compares its value with each row's leading key.

Each partition's rows are stored once, as tuples.  The columnar backend
adds one copy per (table, site partition set) — the site batch
(``exec.columnar._site_batch``) — and serves every index scan of those
partitions as a sorted index view of it, sliced by ``range_bounds``.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.schema import IndexDef, TableSchema
from repro.catalog.statistics import TableStats, compute_table_stats
from repro.common.errors import ExecutionError, StorageError
from repro.common.hashing import value_hash
from repro.common.ordering import sort_rows

Row = Tuple

# Keyed seed for string affinity hashing.  Distinct from the sketch engine's
# DEFAULT_SEED so affinity placement and sketch estimates stay uncorrelated.
AFFINITY_SEED = 0xAF1717


def _stable_hash(value: object) -> int:
    """A ``PYTHONHASHSEED``-independent stand-in for ``hash``.

    Ints (and int-valued floats/bools) keep Python's identity hash, so the
    dense TPC-H surrogate keys spread over partitions exactly as before.
    Strings — whose builtin hash is salted per process — route through the
    keyed blake2b :func:`~repro.common.hashing.value_hash` instead.  Tuples (multi-column
    affinity routing) rehash each unstable component first; Python's tuple
    hash combiner itself is unsalted, so an all-int tuple keeps its builtin
    hash bit-for-bit.
    """
    if isinstance(value, str):
        return value_hash(value, AFFINITY_SEED)
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


#: ``hash(n) == n`` exactly for ints in ``[0, 2**61 - 1)`` (CPython
#: reduces int hashes modulo this Mersenne prime).
_INT_HASH_MODULUS = (1 << 61) - 1


def affinity_partitions(columns: Sequence, partition_count: int):
    """:func:`affinity_partition` of every row of columnar key ``columns``
    (one per key part, a tuple key when there are several), as an int64
    vector — the form a columnar hash exchange routes by.

    One fast path: a single NULL-free integer column whose values lie in
    ``[0, 2**61 - 1)`` is its own hash, so its partitions are
    ``values % partition_count``.  Every other key — strings, floats,
    bools, NULLs, negative or huge ints, multi-column keys — calls the
    scalar function once per distinct value or tuple, so both forms agree
    row by row.
    """
    # Imported lazily: the row backend must work without numpy.
    import numpy as np

    if len(columns) == 1:
        column = columns[0]
        values = column.values
        if (
            values.dtype.kind == "i"
            and column.mask is None
            and (
                not len(values)
                or (values.min() >= 0 and values.max() < _INT_HASH_MODULUS)
            )
        ):
            return values % partition_count
        keys = column.to_list()
    else:
        keys = list(zip(*(column.to_list() for column in columns)))
    partition_of = {
        key: affinity_partition(key, partition_count)
        for key in dict.fromkeys(keys)
    }
    return np.fromiter(
        map(partition_of.__getitem__, keys), np.int64, count=len(keys)
    )


def failover_owner(
    partition: int, site_count: int, alive: Sequence[int]
) -> int:
    """The site serving ``partition`` given the surviving ``alive`` sites.

    The one placement rule, shared by table layout, scans, hash routing
    and task re-dispatch, so ``hash[affinity]`` means "partition ``p``
    lives where exchanges send ``p``" on every table.  The owner is the
    round-robin site; a dead owner's partition fails over to
    ``alive[partition % len(alive)]`` (a promoted backup copy).
    """
    if not alive:
        raise ExecutionError("no surviving sites to own partitions")
    owner = partition % site_count
    if owner in alive:
        return owner
    return alive[partition % len(alive)]


class _KeyProbe:
    """A leading-key value that ``bisect`` compares with sorted rows
    directly: ``row < probe`` reaches ``__gt__`` once the tuple declines,
    ``probe < row`` reaches ``__lt__``.  Both are ``NullsLast.__lt__``
    inlined (NULL greatest, incomparable kinds by type name) — a call or
    a wrapper per probe would cost more than the bisect — so a search
    wraps no row's key, and the index keeps no key per row."""

    __slots__ = ("position", "value")

    def __init__(self, position: int, value: object):
        self.position = position
        self.value = value

    def __gt__(self, row: Row) -> bool:
        a, b = row[self.position], self.value
        if a is None:
            return False
        if b is None:
            return True
        try:
            return a < b
        except TypeError:
            return type(a).__name__ < type(b).__name__

    def __lt__(self, row: Row) -> bool:
        a, b = self.value, row[self.position]
        if a is None:
            return False
        if b is None:
            return True
        try:
            return a < b
        except TypeError:
            return type(a).__name__ < type(b).__name__


class PartitionIndex:
    """A sorted index over one partition's rows.

    Rows are kept sorted by the index key; ``scan`` yields them in key
    order and ``range_scan`` prunes with binary search on the leading key.
    """

    def __init__(self, key_positions: Sequence[int], rows: Iterable[Row]):
        self.key_positions = tuple(key_positions)
        # Sorted through the engine's total order: NULL keys sort last and
        # mixed-type keys cannot raise TypeError at index-build time.
        self.rows: List[Row] = sort_rows(
            rows, [(p, True) for p in self.key_positions]
        )
        # First slot whose leading key is NULL: bounded range scans stop
        # here, because NULL satisfies no range predicate.
        self._first_null = self._bisect(bisect.bisect_left, None, len(self.rows))

    def _bisect(self, search, value: object, end: int) -> int:
        return search(self.rows, _KeyProbe(self.key_positions[0], value), 0, end)

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
        start = 0
        end = len(self.rows)
        if low is not None or high is not None:
            end = self._first_null
        if low is not None:
            search = bisect.bisect_left if low_inclusive else bisect.bisect_right
            start = self._bisect(search, low, end)
        if high is not None:
            search = bisect.bisect_right if high_inclusive else bisect.bisect_left
            end = self._bisect(search, high, end)
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
        # The storage adapter backing this table (how it is scanned, not
        # where it lives).  ``None`` until the store attaches one; scans
        # treat that the same as the native adapter.
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
            self.partition_sites = [
                (failover_owner(p, site_count, range(site_count)),)
                for p in range(partition_count)
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
