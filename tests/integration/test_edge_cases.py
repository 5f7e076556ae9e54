"""Edge cases and failure injection across the whole pipeline."""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import SystemConfig
from repro.common.errors import CatalogError, ValidationError
from repro.core.cluster import IgniteCalciteCluster, QueryStatus

I = ColumnType.INTEGER
D = ColumnType.DOUBLE
S = ColumnType.VARCHAR


@pytest.fixture
def cluster():
    c = IgniteCalciteCluster.ic_plus(sites=4)
    c.create_table(
        TableSchema(
            "t", [Column("k", I), Column("g", I), Column("v", D)], ["k"]
        ),
        [(i, i % 3, float(i)) for i in range(30)],
    )
    c.create_table(
        TableSchema("empty", [Column("k", I), Column("v", D)], ["k"]), []
    )
    c.create_table(
        TableSchema(
            "nullable",
            [Column("k", I), Column("v", D, nullable=True)],
            ["k"],
        ),
        [(1, 1.0), (2, None), (3, None), (4, 4.0)],
    )
    return c


class TestEmptyTables:
    def test_scan_empty(self, cluster):
        assert cluster.sql("select k from empty").rows == []

    def test_scalar_aggregates_over_empty(self, cluster):
        rows = cluster.sql(
            "select count(*), sum(v), avg(v), min(v), max(v) from empty"
        ).rows
        assert rows == [(0, None, None, None, None)]

    def test_group_by_over_empty_yields_nothing(self, cluster):
        assert cluster.sql("select k, count(*) from empty group by k").rows == []

    def test_join_with_empty_side(self, cluster):
        rows = cluster.sql(
            "select t.k from t, empty e where t.k = e.k"
        ).rows
        assert rows == []

    def test_left_join_with_empty_right(self, cluster):
        rows = cluster.sql(
            "select t.k, e.v from t left join empty e on t.k = e.k"
        ).rows
        assert len(rows) == 30
        assert all(r[1] is None for r in rows)

    def test_anti_join_with_empty_right_keeps_everything(self, cluster):
        rows = cluster.sql(
            "select k from t where k not in (select k from empty)"
        ).rows
        assert len(rows) == 30

    def test_exists_on_empty_drops_everything(self, cluster):
        rows = cluster.sql(
            "select t.k from t where exists "
            "(select * from empty e where e.k = t.k)"
        ).rows
        assert rows == []

    def test_scalar_subquery_over_empty_is_null(self, cluster):
        # v > NULL is never true.
        rows = cluster.sql(
            "select k from t where v > (select avg(v) from empty)"
        ).rows
        assert rows == []


class TestNulls:
    def test_aggregates_skip_nulls(self, cluster):
        rows = cluster.sql(
            "select count(*), count(v), sum(v), avg(v) from nullable"
        ).rows
        assert rows == [(4, 2, 5.0, 2.5)]

    def test_where_null_comparison_filters_out(self, cluster):
        rows = cluster.sql("select k from nullable where v > 0").rows
        assert sorted(r[0] for r in rows) == [1, 4]

    def test_is_null_predicate(self, cluster):
        rows = cluster.sql("select k from nullable where v is null").rows
        assert sorted(r[0] for r in rows) == [2, 3]

    def test_is_not_null_predicate(self, cluster):
        rows = cluster.sql("select k from nullable where v is not null").rows
        assert sorted(r[0] for r in rows) == [1, 4]


class TestDegenerateShapes:
    def test_limit_zero(self, cluster):
        assert cluster.sql("select k from t order by k limit 0").rows == []

    def test_limit_larger_than_table(self, cluster):
        assert len(cluster.sql("select k from t limit 999").rows) == 30

    def test_self_join(self, cluster):
        rows = cluster.sql(
            "select a.k from t a, t b where a.k = b.k"
        ).rows
        assert len(rows) == 30

    def test_filter_matching_nothing(self, cluster):
        assert cluster.sql("select k from t where k = -1").rows == []

    def test_constant_true_filter(self, cluster):
        assert len(cluster.sql("select k from t where 1 = 1").rows) == 30

    def test_constant_false_filter(self, cluster):
        assert cluster.sql("select k from t where 1 = 2").rows == []

    def test_single_row_table(self):
        c = IgniteCalciteCluster.ic_plus(sites=4)
        c.create_table(
            TableSchema("one", [Column("k", I)], ["k"]), [(42,)]
        )
        assert c.sql("select k from one").rows == [(42,)]

    def test_duplicate_rows_survive(self, cluster):
        c = IgniteCalciteCluster.ic_plus(sites=2)
        c.create_table(
            TableSchema(
                "dup", [Column("k", I), Column("v", I)], ["k", "v"],
            ),
            [(1, 1), (1, 1), (1, 1)],
        )
        # Same PK values are allowed here (storage is a heap, not a map);
        # all copies flow through the engine.
        assert len(c.sql("select v from dup").rows) == 3


class TestMixedKindColumn:
    """A nullable VARCHAR column that also holds an int loads — its
    statistics take min and max under the engine's total order, where an
    int sorts before a string — and WHERE / ORDER BY / MIN / MAX over it
    come back classified, with the same rows on both backends and with or
    without an index on it: a range predicate or MIN/MAX that Python
    cannot order (``3 < 'a'`` raises ``TypeError``) falls back to that
    total order, the one the index range scan already uses."""

    QUERIES = {
        "select k, v from m where v = 'a'": [(1, "a")],
        "select k from m where v is null": [(3,)],
        "select k, v from m where v is not null order by v": [(2, 3), (1, "a")],
        "select k, v from m order by v desc, k": [(3, None), (1, "a"), (2, 3)],
        "select k from m where v < 5": [(2,)],
        "select k from m where v > 'a'": [],
        "select min(v), max(v) from m": [(3, "a")],
    }

    @pytest.mark.parametrize("indexed", [False, True], ids=["heap", "indexed"])
    def test_loads_and_answers_on_both_backends(self, execution_backend, indexed):
        c = IgniteCalciteCluster.ic_plus(
            sites=4, execution_backend=execution_backend
        )
        c.create_table(
            TableSchema("m", [Column("k", I), Column("v", S, nullable=True)], ["k"]),
            [(1, "a"), (2, 3), (3, None)],
        )
        if indexed:
            c.create_index("m", "m_v", ["v"])
        stats = c.store.table("m").stats.column("v")
        assert (stats.min_value, stats.max_value) == (3, "a")
        assert (stats.distinct_count, stats.null_count) == (2, 1)
        assert stats.histogram is None
        for sql, want in self.QUERIES.items():
            outcome = c.try_sql(sql)
            assert outcome.status is QueryStatus.OK, (sql, outcome.error)
            assert outcome.rows == want, sql


class TestErrorPaths:
    def test_unknown_table(self, cluster):
        outcome = cluster.try_sql("select x from ghost")
        assert outcome.status is QueryStatus.ERROR or not outcome.ok

    def test_unknown_table_raises_catalog_error(self, cluster):
        with pytest.raises(CatalogError):
            cluster.sql("select x from ghost")

    def test_unknown_column_raises(self, cluster):
        with pytest.raises(ValidationError):
            cluster.sql("select nope from t")

    def test_aggregate_in_where_raises(self, cluster):
        with pytest.raises(ValidationError):
            cluster.sql("select k from t where sum(v) > 1")
