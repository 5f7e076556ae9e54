"""Unit tests for SQL-to-relational conversion and decorrelation."""

import pytest

from repro.catalog.schema import Catalog, Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.errors import (
    PlannerDefectError,
    UnsupportedSqlError,
    ValidationError,
)
from repro.rel.logical import (
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    walk,
)
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql.parser import parse

I = ColumnType.INTEGER
D = ColumnType.DOUBLE
S = ColumnType.VARCHAR


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        TableSchema(
            "emp",
            [Column("emp_id", I), Column("dept_id", I), Column("salary", D)],
            ["emp_id"],
        )
    )
    cat.register(
        TableSchema(
            "dept",
            [Column("dept_id", I), Column("dept_name", S)],
            ["dept_id"],
        )
    )
    cat.register(
        TableSchema(
            "sales",
            [Column("sale_id", I), Column("emp_id", I), Column("amount", D)],
            ["sale_id"],
        )
    )
    return cat


def convert(catalog, sql):
    return SqlToRelConverter(catalog).convert(parse(sql))


def nodes_of(plan, cls):
    return [n for n in walk(plan) if isinstance(n, cls)]


class TestBasics:
    def test_scan_project(self, catalog):
        plan = convert(catalog, "select emp_id from emp")
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.input, LogicalTableScan)
        assert plan.fields == ("emp_id",)

    def test_star_expansion(self, catalog):
        plan = convert(catalog, "select * from emp")
        assert plan.width == 3

    def test_where_becomes_filter(self, catalog):
        plan = convert(catalog, "select emp_id from emp where salary > 100")
        assert nodes_of(plan, LogicalFilter)

    def test_qualified_and_unqualified_names(self, catalog):
        plan = convert(
            catalog, "select e.salary, dept_id from emp e where e.emp_id = 1"
        )
        assert plan.fields == ("salary", "dept_id")

    def test_unknown_column_raises(self, catalog):
        with pytest.raises(ValidationError):
            convert(catalog, "select ghost from emp")

    def test_ambiguous_column_raises(self, catalog):
        with pytest.raises(ValidationError):
            convert(catalog, "select dept_id from emp, dept")

    def test_duplicate_alias_raises(self, catalog):
        with pytest.raises(ValidationError):
            convert(catalog, "select e.emp_id from emp e, dept e")

    def test_comma_join_is_cross_join(self, catalog):
        plan = convert(catalog, "select e.emp_id from emp e, dept d")
        joins = nodes_of(plan, LogicalJoin)
        assert len(joins) == 1
        assert joins[0].condition is None

    def test_explicit_join_condition(self, catalog):
        plan = convert(
            catalog,
            "select e.emp_id from emp e join dept d on e.dept_id = d.dept_id",
        )
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.condition is not None
        assert join.join_type is JoinType.INNER

    def test_left_join(self, catalog):
        plan = convert(
            catalog,
            "select e.emp_id from emp e left join sales s on e.emp_id = s.emp_id",
        )
        assert nodes_of(plan, LogicalJoin)[0].join_type is JoinType.LEFT

    def test_order_and_limit(self, catalog):
        plan = convert(
            catalog, "select emp_id from emp order by emp_id desc limit 3"
        )
        assert isinstance(plan, LogicalSort)
        assert plan.fetch == 3
        assert plan.sort_keys == ((0, False),)

    def test_order_by_position(self, catalog):
        plan = convert(catalog, "select emp_id, salary from emp order by 2")
        assert plan.sort_keys == ((1, True),)

    def test_order_by_out_of_range_position(self, catalog):
        with pytest.raises(ValidationError):
            convert(catalog, "select emp_id from emp order by 5")

    def test_distinct_becomes_aggregate(self, catalog):
        plan = convert(catalog, "select distinct dept_id from emp")
        aggs = nodes_of(plan, LogicalAggregate)
        assert aggs and aggs[0].group_keys == (0,)
        assert not aggs[0].agg_calls


class TestAggregation:
    def test_group_by_with_aggregates(self, catalog):
        plan = convert(
            catalog,
            "select dept_id, sum(salary), count(*) from emp group by dept_id",
        )
        agg = nodes_of(plan, LogicalAggregate)[0]
        assert agg.group_keys == (0,)
        assert len(agg.agg_calls) == 2

    def test_duplicate_agg_calls_are_shared(self, catalog):
        plan = convert(
            catalog,
            "select dept_id, sum(salary), sum(salary) / count(*) "
            "from emp group by dept_id",
        )
        agg = nodes_of(plan, LogicalAggregate)[0]
        assert len(agg.agg_calls) == 2  # sum and count, not two sums

    def test_scalar_aggregate_without_group_by(self, catalog):
        plan = convert(catalog, "select max(salary) from emp")
        agg = nodes_of(plan, LogicalAggregate)[0]
        assert agg.group_keys == ()

    def test_group_by_expression(self, catalog):
        plan = convert(
            catalog,
            "select dept_id + 1, count(*) from emp group by dept_id + 1",
        )
        assert nodes_of(plan, LogicalAggregate)

    def test_having_becomes_filter_over_aggregate(self, catalog):
        plan = convert(
            catalog,
            "select dept_id from emp group by dept_id having count(*) > 2",
        )
        filters = nodes_of(plan, LogicalFilter)
        assert any(
            isinstance(f.input, LogicalAggregate) for f in filters
        )

    def test_ungrouped_column_raises(self, catalog):
        with pytest.raises(ValidationError):
            convert(catalog, "select salary, count(*) from emp group by dept_id")

    def test_order_by_aggregate_alias(self, catalog):
        plan = convert(
            catalog,
            "select dept_id, sum(salary) as total from emp "
            "group by dept_id order by total desc",
        )
        assert isinstance(plan, LogicalSort)
        assert plan.sort_keys == ((1, False),)


class TestSubqueries:
    def test_correlated_exists_becomes_semi_join(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp e where exists "
            "(select * from sales s where s.emp_id = e.emp_id)",
        )
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.join_type is JoinType.SEMI
        assert join.correlate_origin

    def test_not_exists_becomes_anti_join(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp e where not exists "
            "(select * from sales s where s.emp_id = e.emp_id)",
        )
        assert nodes_of(plan, LogicalJoin)[0].join_type is JoinType.ANTI

    def test_uncorrelated_in_subquery_is_not_a_correlate(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp where dept_id in "
            "(select dept_id from dept)",
        )
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.join_type is JoinType.SEMI
        assert not join.correlate_origin

    def test_not_in_becomes_anti_join(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp where dept_id not in "
            "(select dept_id from dept)",
        )
        assert nodes_of(plan, LogicalJoin)[0].join_type is JoinType.ANTI

    def test_in_subquery_with_grouping(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp where emp_id in "
            "(select s.emp_id from sales s group by s.emp_id "
            "having sum(s.amount) > 100)",
        )
        assert nodes_of(plan, LogicalAggregate)

    def test_uncorrelated_scalar_subquery(self, catalog):
        plan = convert(
            catalog,
            "select emp_id from emp where salary > "
            "(select avg(salary) from emp)",
        )
        agg = nodes_of(plan, LogicalAggregate)[0]
        assert agg.group_keys == ()
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.condition is None  # single-row cross join

    def test_correlated_scalar_aggregate_decorrelates(self, catalog):
        plan = convert(
            catalog,
            "select e.emp_id from emp e where e.salary > "
            "(select avg(s.amount) from sales s where s.emp_id = e.emp_id)",
        )
        agg = nodes_of(plan, LogicalAggregate)[0]
        assert agg.group_keys == (0,)  # grouped by the correlation key
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.correlate_origin
        assert join.join_type is JoinType.INNER

    def test_non_equality_correlation_in_exists(self, catalog):
        plan = convert(
            catalog,
            "select e1.emp_id from emp e1 where exists "
            "(select * from emp e2 where e2.dept_id = e1.dept_id "
            "and e2.emp_id <> e1.emp_id)",
        )
        join = nodes_of(plan, LogicalJoin)[0]
        assert join.join_type is JoinType.SEMI
        assert "<>" in join.condition.digest()

    def test_scalar_subquery_must_be_bare_aggregate(self, catalog):
        with pytest.raises(UnsupportedSqlError):
            convert(
                catalog,
                "select emp_id from emp where salary > "
                "(select 2 * avg(salary) from emp)",
            )

    def test_correlated_scalar_with_grouping_unsupported(self, catalog):
        with pytest.raises(UnsupportedSqlError):
            convert(
                catalog,
                "select e.emp_id from emp e where e.salary > "
                "(select avg(s.amount) from sales s "
                "where s.emp_id = e.emp_id group by s.sale_id)",
            )

    def test_q20_shape_trips_planner_defect(self, catalog):
        sql = (
            "select emp_id from emp where emp_id in "
            "(select s.emp_id from sales s where s.amount > "
            "(select avg(s2.amount) from sales s2 where s2.emp_id = s.emp_id))"
        )
        with pytest.raises(PlannerDefectError):
            convert(catalog, sql)

    def test_derived_table(self, catalog):
        plan = convert(
            catalog,
            "select d.total from (select dept_id, sum(salary) as total "
            "from emp group by dept_id) as d where d.total > 10",
        )
        assert plan.fields == ("total",)
