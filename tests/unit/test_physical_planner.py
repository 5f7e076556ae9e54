"""Unit tests for the trait-driven physical planner."""

import pytest

from repro.common.config import SystemConfig
from repro.cost.model import CostModel
from repro.exec.physical import (
    AggPhase,
    PhysExchange,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    walk_physical,
)
from repro.planner.budget import PlanningBudget
from repro.planner.physical import PhysicalPlanner, ReqKind, Requirement
from repro.rel.expr import BinaryOp, ColRef, Literal, make_conjunction
from repro.rel.logical import (
    AggCall,
    AggFunc,
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalSort,
    LogicalTableScan,
)
from repro.rel.traits import Collation
from repro.stats.estimator import Estimator

from helpers import make_company_store


@pytest.fixture(scope="module")
def store():
    return make_company_store()


def planner_for(store, config):
    estimator = Estimator(store, config.fixed_join_estimation)
    return PhysicalPlanner(
        store, config, estimator, CostModel(config), PlanningBudget(10**7)
    )


def scan(store, table):
    schema = store.table(table).schema
    return LogicalTableScan(table, table, schema.column_names)


def ops(plan, cls):
    return [n for n in walk_physical(plan) if isinstance(n, cls)]


class TestScans:
    def test_partitioned_scan_native_distribution(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(scan(store, "emp"), Requirement.any())
        assert isinstance(plan, PhysTableScan)
        assert plan.distribution.is_hash
        assert plan.distribution.keys == (0,)

    def test_replicated_scan_is_broadcast(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(scan(store, "dept"), Requirement.any())
        assert plan.distribution.is_broadcast

    def test_single_requirement_inserts_exchange(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(scan(store, "emp"), Requirement.single())
        assert isinstance(plan, PhysExchange)
        assert plan.distribution.is_single

    def test_replicated_scan_satisfies_single_without_exchange(self, store):
        """Table 1: broadcast satisfies single — no shipping needed."""
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(scan(store, "dept"), Requirement.single())
        assert not ops(plan, PhysExchange)

    def test_collation_requirement_uses_index(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        from repro.rel.traits import Collation

        req = Requirement(collation=Collation(((0, True),)))
        plan = planner.plan(scan(store, "emp"), req)
        assert ops(plan, PhysIndexScan)
        assert not ops(plan, PhysSort)

    def test_collation_without_index_sorts(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        from repro.rel.traits import Collation

        req = Requirement(collation=Collation(((3, True),)))
        plan = planner.plan(scan(store, "emp"), req)
        assert ops(plan, PhysSort)


class TestJoins:
    def _join(self, store):
        emp = scan(store, "emp")
        sales = scan(store, "sales")
        condition = BinaryOp("=", ColRef(0), ColRef(5 + 1))
        return LogicalJoin(emp, sales, condition)

    def test_baseline_has_no_hash_join(self, store):
        planner = planner_for(store, SystemConfig.ic())
        plan = planner.plan(self._join(store), Requirement.single())
        assert not ops(plan, PhysHashJoin)
        assert ops(plan, PhysMergeJoin) or ops(plan, PhysNestedLoopJoin)

    def test_improved_uses_hash_join(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(self._join(store), Requirement.single())
        assert ops(plan, PhysHashJoin)

    def test_non_equi_condition_forces_nested_loop(self, store):
        emp = scan(store, "emp")
        sales = scan(store, "sales")
        condition = BinaryOp("<", ColRef(3), ColRef(5 + 2))
        join = LogicalJoin(emp, sales, condition)
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(join, Requirement.single())
        assert ops(plan, PhysNestedLoopJoin)
        assert not ops(plan, PhysHashJoin)

    def test_broadcast_mapping_keeps_large_side_local(self, store):
        """Section 5.1.1: the small relation ships, the large stays put."""
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(self._join(store), Requirement.any())
        exchanges = ops(plan, PhysExchange)
        # Whatever ships must be far smaller than the sales table.
        sales_rows = store.row_count("sales")
        assert all(e.rows_est < sales_rows for e in exchanges)

    def test_semi_join_planned(self, store):
        emp = scan(store, "emp")
        sales = scan(store, "sales")
        join = LogicalJoin(
            emp, sales, BinaryOp("=", ColRef(0), ColRef(6)), JoinType.SEMI
        )
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(join, Requirement.single())
        join_ops = ops(plan, PhysHashJoin) + ops(plan, PhysMergeJoin) + ops(
            plan, PhysNestedLoopJoin
        )
        assert join_ops
        assert all(j.join_type is JoinType.SEMI for j in join_ops)


class TestAggregates:
    def _agg(self, store, distinct=False):
        emp = scan(store, "emp")
        call = AggCall(AggFunc.SUM, ColRef(3), distinct=distinct)
        return LogicalAggregate(emp, (1,), (call,))

    def test_splittable_aggregate_goes_map_reduce(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(self._agg(store), Requirement.single())
        phases = {a.phase for a in ops(plan, PhysHashAggregate)}
        assert phases == {AggPhase.MAP, AggPhase.REDUCE}

    def test_distinct_aggregate_forces_single_phase(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(
            self._agg(store, distinct=True), Requirement.single()
        )
        aggs = ops(plan, PhysHashAggregate) + ops(plan, PhysSortAggregate)
        assert {a.phase for a in aggs} == {AggPhase.SINGLE}

    def test_scalar_aggregate(self, store):
        emp = scan(store, "emp")
        agg = LogicalAggregate(emp, (), (AggCall(AggFunc.COUNT, None),))
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(agg, Requirement.single())
        assert plan.distribution.is_single


class TestSorts:
    def test_distributed_sort_uses_merging_exchange(self, store):
        node = LogicalSort(scan(store, "emp"), ((3, True),))
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(node, Requirement.single())
        merging = [
            e for e in ops(plan, PhysExchange) if e.collation.is_sorted
        ]
        local_sorts = ops(plan, PhysSort)
        # Either a partially distributed sort (sort locally, merge) or a
        # gather-then-sort plan; both must end up single and sorted.
        assert plan.distribution.is_single or merging
        assert local_sorts

    def test_fetch_limits_rows(self, store):
        node = LogicalSort(scan(store, "emp"), ((3, False),), fetch=5)
        planner = planner_for(store, SystemConfig.ic_plus())
        plan = planner.plan(node, Requirement.single())
        assert plan.rows_est <= 5


class TestMemoAndBudget:
    def test_memoisation_reuses_plans(self, store):
        planner = planner_for(store, SystemConfig.ic_plus())
        node = scan(store, "emp")
        first = planner.plan(node, Requirement.single())
        second = planner.plan(node, Requirement.single())
        assert first is second

    def test_budget_charges(self, store):
        config = SystemConfig.ic_plus()
        estimator = Estimator(store, True)
        budget = PlanningBudget(10**7)
        planner = PhysicalPlanner(
            store, config, estimator, CostModel(config), budget
        )
        planner.plan(scan(store, "emp"), Requirement.single())
        assert budget.spent > 0

    def test_budget_exhaustion_raises(self, store):
        from repro.common.errors import PlanningTimeoutError

        config = SystemConfig.ic_plus()
        estimator = Estimator(store, True)
        planner = PhysicalPlanner(
            store, config, estimator, CostModel(config), PlanningBudget(1)
        )
        emp = scan(store, "emp")
        sales = scan(store, "sales")
        join = LogicalJoin(emp, sales, BinaryOp("=", ColRef(0), ColRef(6)))
        with pytest.raises(PlanningTimeoutError):
            planner.plan(join, Requirement.single())


def test_requirements_and_collations_hash_like_their_values():
    """Both keep their hash after computing it once; equal values still
    hash and compare equal, whether interned or built directly, and the
    hash is the dataclass one of the compared fields."""
    keys = ((0, True), (2, False))
    collation = Collation(keys)
    assert collation == Collation(keys) and hash(collation) == hash(Collation(keys))
    assert hash(collation) == hash((keys,))
    assert collation != Collation(keys[:1])
    built = Requirement(ReqKind.ANY, (), Collation(keys))
    assert Requirement.any(collation) is Requirement.any(Collation(keys))
    assert Requirement.any(collation) == built and hash(Requirement.any(collation)) == hash(built)
    assert hash(built) == hash((ReqKind.ANY, (), collation))
    assert Requirement.hash([1, 2]) == Requirement(ReqKind.HASH, (1, 2))
    assert hash(Requirement.hash([1, 2])) == hash(Requirement(ReqKind.HASH, (1, 2)))
    assert Requirement.hash([1, 2]) != Requirement.any_hash([1, 2])
    assert Requirement.single() != Requirement.single(collation)
    assert {Requirement.broadcast(): 1}[Requirement(ReqKind.BROADCAST)] == 1
