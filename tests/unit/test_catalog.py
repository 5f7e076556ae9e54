"""Unit tests for schemas, catalog and statistics."""

import pytest

from repro.catalog.schema import Catalog, Column, TableSchema
from repro.catalog.statistics import compute_table_stats
from repro.catalog.types import ColumnType
from repro.common.errors import CatalogError

COLS = [
    Column("id", ColumnType.INTEGER),
    Column("name", ColumnType.VARCHAR),
    Column("amount", ColumnType.DOUBLE),
]


class TestTableSchema:
    def test_basic_properties(self):
        schema = TableSchema("t", COLS, ["id"])
        assert schema.width == 3
        assert schema.column_names == ["id", "name", "amount"]
        assert schema.column_index("NAME") == 1
        assert schema.column("amount").type is ColumnType.DOUBLE

    def test_affinity_defaults_to_first_pk_column(self):
        schema = TableSchema("t", COLS, ["id"])
        assert schema.affinity_key == "id"
        assert schema.affinity_index == 0

    def test_explicit_affinity_key(self):
        schema = TableSchema("t", COLS, ["id", "name"], affinity_key="name")
        assert schema.affinity_index == 1

    def test_replicated_table_has_no_affinity(self):
        schema = TableSchema("t", COLS, ["id"], replicated=True)
        assert schema.affinity_key is None
        assert schema.affinity_index is None

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", COLS + [Column("id", ColumnType.INTEGER)], ["id"])

    def test_unknown_pk_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", COLS, ["missing"])

    def test_unknown_affinity_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", COLS, ["id"], affinity_key="missing")

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [], ["id"])

    def test_invalid_column_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("not a name", ColumnType.INTEGER)

    def test_unknown_column_lookup_raises(self):
        schema = TableSchema("t", COLS, ["id"])
        with pytest.raises(CatalogError):
            schema.column_index("ghost")


class TestIndexes:
    def test_add_index(self):
        schema = TableSchema("t", COLS, ["id"])
        index = schema.add_index("by_name", ["name"])
        assert index.columns == ("name",)
        assert "by_name" in schema.indexes

    def test_duplicate_index_rejected(self):
        schema = TableSchema("t", COLS, ["id"])
        schema.add_index("i", ["name"])
        with pytest.raises(CatalogError):
            schema.add_index("i", ["amount"])

    def test_index_on_unknown_column_rejected(self):
        schema = TableSchema("t", COLS, ["id"])
        with pytest.raises(CatalogError):
            schema.add_index("i", ["ghost"])


class TestCatalog:
    def test_register_and_lookup(self):
        catalog = Catalog()
        schema = TableSchema("t", COLS, ["id"])
        catalog.register(schema)
        assert catalog.table("T") is schema
        assert catalog.has_table("t")
        assert catalog.table_names() == ["t"]

    def test_duplicate_registration_rejected(self):
        catalog = Catalog()
        catalog.register(TableSchema("t", COLS, ["id"]))
        with pytest.raises(CatalogError):
            catalog.register(TableSchema("t", COLS, ["id"]))

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("ghost")


class TestStatistics:
    def test_row_count_and_distinct(self):
        rows = [(1, "a", 1.0), (2, "a", 2.0), (3, "b", 2.0)]
        stats = compute_table_stats(rows, ["id", "name", "amount"])
        assert stats.row_count == 3
        assert stats.distinct_count("id") == 3
        assert stats.distinct_count("name") == 2
        assert stats.distinct_count("amount") == 2

    def test_min_max(self):
        rows = [(5,), (1,), (9,)]
        stats = compute_table_stats(rows, ["v"])
        column = stats.column("v")
        assert column.min_value == 1
        assert column.max_value == 9

    def test_null_counting(self):
        rows = [(None,), (1,), (None,)]
        stats = compute_table_stats(rows, ["v"])
        column = stats.column("v")
        assert column.null_count == 2
        assert column.distinct_count == 1

    def test_empty_table(self):
        stats = compute_table_stats([], ["a", "b"])
        assert stats.row_count == 0
        assert stats.distinct_count("a") == 0

    def test_unknown_column_returns_none(self):
        stats = compute_table_stats([(1,)], ["a"])
        assert stats.column("zzz") is None
        assert stats.distinct_count("zzz") is None
