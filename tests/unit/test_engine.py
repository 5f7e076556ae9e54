"""Unit tests for the execution engine's orchestration layer."""

import pytest

from repro.common import constants
from repro.common.config import SystemConfig
from repro.exec.engine import ExecutionEngine
from repro.planner.volcano import QueryPlanner
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql.parser import parse

from helpers import make_company_store


@pytest.fixture(scope="module")
def store():
    return make_company_store()


def run(store, config, sql):
    logical = SqlToRelConverter(store.catalog).convert(parse(sql))
    plan = QueryPlanner(store, config).plan(logical)
    return ExecutionEngine(store, config).execute(plan)


class TestAccounting:
    def test_distributed_plan_creates_multi_site_tasks(self, store):
        result = run(
            store, SystemConfig.ic_plus(),
            "select dept_id, count(*) from emp group by dept_id",
        )
        sites = {t.site for t in result.task_graph.tasks}
        assert len(sites) > 1

    def test_fragment_stats_cover_all_fragments(self, store):
        result = run(
            store, SystemConfig.ic_plus(),
            "select e.name from emp e, sales s where e.emp_id = s.emp_id",
        )
        assert len(result.fragments) >= 2
        assert any(f.units > 0 for f in result.fragments)

    def test_broadcast_ships_one_copy_per_site(self, store):
        """Joining against the replicated dept table ships nothing; the
        partitioned emp table must ship when gathered to one site."""
        local = run(
            store, SystemConfig.ic_plus(),
            "select e.name, d.dept_name from emp e, dept d "
            "where e.dept_id = d.dept_id",
        )
        assert local.rows_shipped < store.row_count("emp") * 2

    def test_variant_fragments_multiply_tasks(self):
        # Needs enough per-site work to clear the VARIANT_MIN_UNITS guard.
        from helpers import make_company_store

        big = make_company_store(employees=8000, sales=20000)
        sql = "select dept_id, count(*) from emp group by dept_id"
        single = run(big, SystemConfig.ic_plus(), sql)
        multi = run(big, SystemConfig.ic_plus_m(), sql)
        assert len(multi.task_graph.tasks) > len(single.task_graph.tasks)

    def test_tiny_fragments_skip_variants(self, store):
        """Below VARIANT_MIN_UNITS per site, no variant tasks are spawned."""
        sql = "select count(*) from dept"
        single = run(store, SystemConfig.ic_plus(), sql)
        multi = run(store, SystemConfig.ic_plus_m(), sql)
        assert len(multi.task_graph.tasks) == len(single.task_graph.tasks)

    def test_three_threads_configuration(self, store):
        config = SystemConfig.ic_plus_m(threads=3)
        result = run(
            store, config,
            "select dept_id, count(*) from emp group by dept_id",
        )
        assert result.rows  # still correct with n=3

    def test_makespan_consistent_with_units(self, store):
        from repro.common.constants import CORE_UNITS_PER_SECOND

        result = run(store, SystemConfig.ic_plus(), "select count(*) from emp")
        lower = result.task_graph.critical_path_units() / CORE_UNITS_PER_SECOND
        assert result.simulated_seconds >= lower - 1e-9


class TestRuntimeLimit:
    def test_limit_is_wall_clock_not_per_site(self, store, monkeypatch):
        """The limit must not stretch with cluster size."""
        sql = (
            "select e1.name from emp e1, sales s1 "
            "where e1.salary * s1.amount > 999999999999.0"
        )
        monkeypatch.setattr(constants, "RUNTIME_LIMIT_SECONDS", 0.001)
        from repro.common.errors import ExecutionTimeoutError

        with pytest.raises(ExecutionTimeoutError):
            run(store, SystemConfig.ic_plus(sites=4), sql)

    def test_generous_limit_allows_cross_products(self, store, monkeypatch):
        monkeypatch.setattr(constants, "RUNTIME_LIMIT_SECONDS", 3600)
        result = run(
            store, SystemConfig.ic_plus(),
            "select count(*) from emp e1, dept d where e1.salary > d.budget",
        )
        assert result.rows[0][0] > 0


class TestDeterminism:
    def test_repeated_execution_is_identical(self, store):
        sql = "select dept_id, sum(salary) from emp group by dept_id"
        a = run(store, SystemConfig.ic_plus_m(), sql)
        b = run(store, SystemConfig.ic_plus_m(), sql)
        assert a.simulated_seconds == b.simulated_seconds
        assert a.total_units == b.total_units
        assert sorted(a.rows) == sorted(b.rows)
