"""``rel.logical.column_origin``: the planner's one column-lineage walk."""

import pytest

from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS
from repro.common.errors import ReproError
from repro.planner.budget import PlanningBudget
from repro.planner.hep import HepPlanner
from repro.planner.rules import stage_one_passes
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import (
    AggCall,
    AggFunc,
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalValues,
    column_origin,
    walk,
)

COLUMNS = ("id", "grp", "val")


def scan(alias="t", **pushed):
    return LogicalTableScan("t", alias, COLUMNS, **pushed)


def equi(left, right, join_type=JoinType.INNER):
    condition = BinaryOp("=", ColRef(0), ColRef(left.width))
    return LogicalJoin(left, right, condition, join_type)


def name_of(origin):
    node, position = origin
    return node.column_names[position]


class TestResolution:
    def test_scan_resolves_to_itself(self):
        t = scan()
        assert column_origin(t, 2) == (t, 2)
        assert column_origin(t, 2)[0] is t

    def test_self_joined_aliases_resolve_to_different_scans(self):
        a, b = scan("a"), scan("b")
        join = equi(a, b)
        left, right = column_origin(join, 1), column_origin(join, a.width + 1)
        assert left[0] is a and right[0] is b
        assert left[1] == right[1] == 1

    def test_one_alias_in_two_scopes_is_two_scan_nodes(self):
        """Equal digests, different nodes: identity tells them apart."""
        outer, inner = scan("t"), scan("t")
        join = equi(outer, inner)
        assert outer == inner
        assert column_origin(join, 0)[0] is outer
        assert column_origin(join, outer.width)[0] is inner

    @pytest.mark.parametrize("join_type", [JoinType.SEMI, JoinType.ANTI])
    def test_semi_and_anti_joins_never_resolve_into_the_right_input(
        self, join_type
    ):
        left, right = scan("l"), scan("r")
        join = equi(left, right, join_type)
        assert join.width == left.width
        for column in range(join.width):
            assert column_origin(join, column)[0] is left

    def test_left_join_right_column_resolves_to_its_base_column(self):
        left, right = scan("l"), scan("r")
        join = equi(left, right, JoinType.LEFT)
        assert column_origin(join, left.width + 2) == (right, 2)

    def test_aggregate_group_keys_resolve_and_results_do_not(self):
        t = scan()
        agg = LogicalAggregate(t, (1, 0), (AggCall(AggFunc.SUM, ColRef(2)),))
        assert column_origin(agg, 0) == (t, 1)
        assert column_origin(agg, 1) == (t, 0)
        assert column_origin(agg, 2) is None

    def test_computed_projections_do_not_resolve(self):
        t = scan()
        project = LogicalProject(
            t,
            (ColRef(2), BinaryOp("+", ColRef(0), Literal(1))),
            ("val", "next_id"),
        )
        assert column_origin(project, 0) == (t, 2)
        assert column_origin(project, 1) is None

    def test_pushed_project_scan_maps_to_the_right_column_name(self):
        t = LogicalTableScan("t", "t", ("val", "id"), pushed_project=(2, 0))
        above = LogicalFilter(t, BinaryOp(">", ColRef(0), Literal(5)))
        assert name_of(column_origin(above, 0)) == "val"
        assert name_of(column_origin(above, 1)) == "id"

    def test_constant_relations_do_not_resolve(self):
        assert column_origin(LogicalValues([(1,)], ["x"]), 0) is None


class TestPreserving:
    """``preserving=True`` stops at whatever can change the key multiset."""

    def test_stops_at_filter_join_aggregate_and_limited_sort(self):
        t = scan()
        blockers = [
            LogicalFilter(t, BinaryOp(">", ColRef(0), Literal(5))),
            equi(t, scan("u")),
            LogicalAggregate(t, (0,), ()),
            LogicalSort(t, ((0, True),), fetch=3),
            LogicalSort(t, ((0, True),), offset=2),
        ]
        for node in blockers:
            assert column_origin(node, 0) == (t, 0), node
            assert column_origin(node, 0, preserving=True) is None, node

    def test_passes_a_plain_sort_and_a_column_projection(self):
        t = scan()
        chain = LogicalSort(
            LogicalProject(t, (ColRef(2), ColRef(0)), ("val", "id")),
            ((0, True),),
        )
        assert column_origin(chain, 0, preserving=True) == (t, 2)
        assert column_origin(chain, 1, preserving=True) == (t, 0)


def _hep_optimised(cluster, sql):
    tree = cluster.parse_to_logical(sql)
    budget = PlanningBudget(cluster.config.planning_budget)
    config = cluster.config
    for rules in stage_one_passes(
        config.filter_correlate_rule, config.join_condition_simplification
    ):
        tree = HepPlanner(rules, budget).optimize(tree)
    return tree


def _benchmark_plans():
    config = PRESETS["IC+"](4)
    workloads = (
        (load_tpch_cluster, [spec.sql for _, spec in sorted(QUERIES.items())]),
        (load_ssb_cluster, [spec.sql for _, spec in sorted(SSB_QUERIES.items())]),
    )
    for load, queries in workloads:
        cluster = load(config, 0.02)
        for sql in queries:
            try:
                yield _hep_optimised(cluster, sql)
            except ReproError:
                continue  # Q15 (views) and Q20 (the planner defect) do not convert


def test_every_output_column_of_the_benchmark_plans_traces_into_its_tree():
    plans = columns = resolved = 0
    for tree in _benchmark_plans():
        plans += 1
        nodes = list(walk(tree))
        for node in nodes:
            for column in range(node.width):
                for preserving in (False, True):
                    origin = column_origin(node, column, preserving)
                    columns += 1
                    if origin is None:
                        continue
                    resolved += 1
                    found, position = origin
                    assert isinstance(found, LogicalTableScan)
                    assert any(found is n for n in nodes)
                    assert 0 <= position < found.width
    assert plans >= 33 and resolved > columns // 4
