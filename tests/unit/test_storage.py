"""Unit tests for the partitioned in-memory store."""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.errors import StorageError
from repro.storage.store import DataStore
from repro.storage.table import PartitionIndex, TableData, affinity_partition

COLS = [
    Column("id", ColumnType.INTEGER),
    Column("grp", ColumnType.INTEGER),
    Column("val", ColumnType.DOUBLE),
]


def make_rows(n):
    return [(i, i % 7, float(i) / 2) for i in range(n)]


class TestPartitioning:
    def test_every_row_lands_in_exactly_one_partition(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, make_rows(100), partition_count=8, site_count=4)
        total = sum(len(p) for p in data.partitions)
        assert total == 100
        assert data.partition_count == 8

    def test_partition_assignment_follows_affinity_hash(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, make_rows(50), partition_count=8, site_count=4)
        for part_id, partition in enumerate(data.partitions):
            for row in partition:
                assert affinity_partition(row[0], 8) == part_id

    def test_partitions_assigned_round_robin_to_sites(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, make_rows(10), partition_count=8, site_count=4)
        assert data.partition_sites == [((p % 4),) for p in range(8)]
        assert data.partitions_at_site(1) == [1, 5]

    def test_partition_site_count(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, make_rows(10), partition_count=8, site_count=4)
        assert data.partition_site_count() == 4

    def test_affinity_on_non_pk_column(self):
        schema = TableSchema("t", COLS, ["id"], affinity_key="grp")
        data = TableData(schema, make_rows(70), partition_count=4, site_count=2)
        for part_id, partition in enumerate(data.partitions):
            for row in partition:
                assert affinity_partition(row[1], 4) == part_id


class TestReplication:
    def test_replicated_table_has_one_partition_everywhere(self):
        schema = TableSchema("t", COLS, ["id"], replicated=True)
        data = TableData(schema, make_rows(10), partition_count=8, site_count=4)
        assert data.partition_count == 1
        for site in range(4):
            assert data.partitions_at_site(site) == [0]

    def test_replicated_partition_site_count_is_one(self):
        """Alg. 2's convention: a replicated relation has one partition."""
        schema = TableSchema("t", COLS, ["id"], replicated=True)
        data = TableData(schema, make_rows(10), partition_count=8, site_count=4)
        assert data.partition_site_count() == 1


class TestValidation:
    def test_row_width_mismatch_rejected(self):
        schema = TableSchema("t", COLS, ["id"])
        with pytest.raises(StorageError):
            TableData(schema, [(1, 2)], partition_count=4, site_count=2)

    def test_bad_partition_count_rejected(self):
        schema = TableSchema("t", COLS, ["id"])
        with pytest.raises(StorageError):
            TableData(schema, [], partition_count=0, site_count=2)


class TestIndexes:
    def test_index_scan_is_sorted(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, make_rows(60), partition_count=4, site_count=2)
        data.add_index("by_val", ["val"])
        for partition_index in data.index("by_val"):
            values = [r[2] for r in partition_index.scan()]
            assert values == sorted(values)

    def test_range_scan_bounds(self):
        index = PartitionIndex([0], [(i,) for i in range(20)])
        assert [r[0] for r in index.range_scan(5, 8)] == [5, 6, 7, 8]
        assert [r[0] for r in index.range_scan(5, 8, low_inclusive=False)] == [6, 7, 8]
        assert [r[0] for r in index.range_scan(5, 8, high_inclusive=False)] == [5, 6, 7]

    def test_range_scan_open_ends(self):
        index = PartitionIndex([0], [(i,) for i in range(10)])
        assert len(index.range_scan(None, 3)) == 4
        assert len(index.range_scan(7, None)) == 3
        assert len(index.range_scan(None, None)) == 10

    def test_range_scan_with_duplicates(self):
        index = PartitionIndex([0], [(1,), (2,), (2,), (3,)])
        assert len(index.range_scan(2, 2)) == 2

    def test_missing_index_raises(self):
        schema = TableSchema("t", COLS, ["id"])
        data = TableData(schema, [], partition_count=2, site_count=2)
        with pytest.raises(StorageError):
            data.index("ghost")


class TestDataStore:
    def test_create_and_query(self):
        store = DataStore(site_count=4, partitions_per_table=8)
        schema = TableSchema("t", COLS, ["id"])
        store.create_table(schema, make_rows(30))
        assert store.has_table("t")
        assert store.row_count("t") == 30
        assert store.table_names() == ["t"]

    def test_stats_computed_on_load(self):
        store = DataStore(site_count=2)
        store.create_table(TableSchema("t", COLS, ["id"]), make_rows(30))
        stats = store.table("t").stats
        assert stats.row_count == 30
        assert stats.distinct_count("grp") == 7

    def test_unknown_table_raises(self):
        with pytest.raises(StorageError):
            DataStore(site_count=2).table("ghost")

    def test_bad_site_count_rejected(self):
        with pytest.raises(StorageError):
            DataStore(site_count=0)
