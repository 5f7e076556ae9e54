"""Unit tests for the logical optimisation rules."""

import pytest

from repro.planner.hep import HepPlanner
from repro.planner.rules import (
    FilterAggregateTransposeRule,
    FilterCorrelateRule,
    FilterIntoJoinRule,
    FilterJoinTransposeRule,
    FilterMergeRule,
    FilterProjectTransposeRule,
    FilterSortTransposeRule,
    JoinConditionPushRule,
    JoinConditionSimplificationRule,
    ProjectMergeRule,
    stage_one_passes,
    substitute_refs,
)
from repro.rel.expr import (
    BinaryOp,
    ColRef,
    Literal,
    make_conjunction,
    make_disjunction,
)
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
)

SCAN_A = LogicalTableScan("ta", "a", ["x", "y", "z"])
SCAN_B = LogicalTableScan("tb", "b", ["u", "v"])


def eq(i, j):
    return BinaryOp("=", ColRef(i), ColRef(j))


def lit(i, value):
    return BinaryOp("=", ColRef(i), Literal(value))


class TestFilterMerge:
    def test_merges_stacked_filters(self):
        node = LogicalFilter(LogicalFilter(SCAN_A, lit(0, 1)), lit(1, 2))
        merged = FilterMergeRule().apply(node)
        assert isinstance(merged, LogicalFilter)
        assert isinstance(merged.input, LogicalTableScan)
        assert "AND" in merged.condition.digest()

    def test_no_match_returns_none(self):
        assert FilterMergeRule().apply(LogicalFilter(SCAN_A, lit(0, 1))) is None


class TestFilterProjectTranspose:
    def test_inlines_projection(self):
        project = LogicalProject(
            SCAN_A, [BinaryOp("+", ColRef(0), Literal(1))], ["xp"]
        )
        node = LogicalFilter(project, lit(0, 5))
        pushed = FilterProjectTransposeRule().apply(node)
        assert isinstance(pushed, LogicalProject)
        inner_filter = pushed.input
        assert isinstance(inner_filter, LogicalFilter)
        assert "($0 + 1)" in inner_filter.condition.digest()


class TestProjectRules:
    def test_project_merge_composes(self):
        inner = LogicalProject(SCAN_A, [ColRef(2), ColRef(0)], ["z", "x"])
        outer = LogicalProject(inner, [ColRef(1)], ["x"])
        merged = ProjectMergeRule().apply(outer)
        assert isinstance(merged.input, LogicalTableScan)
        assert merged.exprs[0].index == 0


class TestFilterIntoJoin:
    def test_condition_moves_into_inner_join(self):
        join = LogicalJoin(SCAN_A, SCAN_B, None)
        node = LogicalFilter(join, eq(0, 3))
        merged = FilterIntoJoinRule().apply(node)
        assert isinstance(merged, LogicalJoin)
        assert merged.condition is not None

    def test_skips_correlate_joins(self):
        join = LogicalJoin(SCAN_A, SCAN_B, None, correlate_origin=True)
        node = LogicalFilter(join, eq(0, 3))
        assert FilterIntoJoinRule().apply(node) is None

    def test_skips_left_joins(self):
        join = LogicalJoin(SCAN_A, SCAN_B, eq(0, 3), JoinType.LEFT)
        node = LogicalFilter(join, lit(0, 1))
        assert FilterIntoJoinRule().apply(node) is None


class TestJoinConditionPush:
    def test_one_sided_conjuncts_pushed(self):
        condition = make_conjunction([eq(0, 3), lit(1, 5), lit(4, 9)])
        join = LogicalJoin(SCAN_A, SCAN_B, condition)
        pushed = JoinConditionPushRule().apply(join)
        assert isinstance(pushed.left, LogicalFilter)
        assert isinstance(pushed.right, LogicalFilter)
        # The right-side filter is re-indexed to the right input's frame.
        assert pushed.right.condition.digest() == "($1 = 9)"
        assert pushed.condition.digest() == eq(0, 3).digest()

    def test_anti_join_left_conjunct_not_pushed(self):
        """Anti joins emit left rows *failing* the condition; a left-only
        ON conjunct must stay put."""
        condition = make_conjunction([eq(0, 3), lit(1, 5)])
        join = LogicalJoin(SCAN_A, SCAN_B, condition, JoinType.ANTI)
        pushed = JoinConditionPushRule().apply(join)
        assert pushed is None or not isinstance(pushed.left, LogicalFilter)

    def test_anti_join_right_conjunct_is_pushed(self):
        condition = make_conjunction([eq(0, 3), lit(4, 9)])
        join = LogicalJoin(SCAN_A, SCAN_B, condition, JoinType.ANTI)
        pushed = JoinConditionPushRule().apply(join)
        assert isinstance(pushed.right, LogicalFilter)


class TestFilterJoinTranspose:
    def test_splits_filter_across_inner_join(self):
        join = LogicalJoin(SCAN_A, SCAN_B, eq(0, 3))
        node = LogicalFilter(join, make_conjunction([lit(0, 1), lit(3, 2)]))
        pushed = FilterJoinTransposeRule().apply(node)
        assert isinstance(pushed, LogicalJoin)
        assert isinstance(pushed.left, LogicalFilter)
        assert isinstance(pushed.right, LogicalFilter)

    def test_left_join_right_conjunct_stays(self):
        join = LogicalJoin(SCAN_A, SCAN_B, eq(0, 3), JoinType.LEFT)
        node = LogicalFilter(join, lit(3, 2))
        pushed = FilterJoinTransposeRule().apply(node)
        assert pushed is None

    def test_semi_join_filter_pushes_to_left(self):
        join = LogicalJoin(SCAN_A, SCAN_B, eq(0, 3), JoinType.SEMI)
        node = LogicalFilter(join, lit(0, 1))
        pushed = FilterJoinTransposeRule().apply(node)
        assert isinstance(pushed, LogicalJoin)
        assert isinstance(pushed.left, LogicalFilter)

    def test_correlate_join_blocks_standard_pushdown(self):
        join = LogicalJoin(
            SCAN_A, SCAN_B, eq(0, 3), JoinType.SEMI, correlate_origin=True
        )
        node = LogicalFilter(join, lit(0, 1))
        assert FilterJoinTransposeRule().apply(node) is None


class TestFilterCorrelate:
    """The missing FILTER_CORRELATE rule (Section 4.1)."""

    def test_pushes_past_semi_correlate(self):
        join = LogicalJoin(
            SCAN_A, SCAN_B, eq(0, 3), JoinType.SEMI, correlate_origin=True
        )
        node = LogicalFilter(join, lit(0, 1))
        pushed = FilterCorrelateRule().apply(node)
        assert isinstance(pushed, LogicalJoin)
        assert isinstance(pushed.left, LogicalFilter)

    def test_inner_correlate_pushes_left_only_conjuncts(self):
        join = LogicalJoin(
            SCAN_A, SCAN_B, eq(0, 3), JoinType.INNER, correlate_origin=True
        )
        condition = make_conjunction([lit(0, 1), lit(4, 2)])
        pushed = FilterCorrelateRule().apply(LogicalFilter(join, condition))
        assert isinstance(pushed, LogicalFilter)  # right-side part remains
        inner_join = pushed.input
        assert isinstance(inner_join.left, LogicalFilter)

    def test_ignores_plain_joins(self):
        join = LogicalJoin(SCAN_A, SCAN_B, eq(0, 3), JoinType.SEMI)
        assert FilterCorrelateRule().apply(LogicalFilter(join, lit(0, 1))) is None


class TestFilterSortAggregateTranspose:
    def test_pushes_below_sort_without_fetch(self):
        node = LogicalFilter(LogicalSort(SCAN_A, ((0, True),)), lit(0, 1))
        pushed = FilterSortTransposeRule().apply(node)
        assert isinstance(pushed, LogicalSort)
        assert isinstance(pushed.input, LogicalFilter)

    def test_fetch_blocks_push(self):
        node = LogicalFilter(
            LogicalSort(SCAN_A, ((0, True),), fetch=5), lit(0, 1)
        )
        assert FilterSortTransposeRule().apply(node) is None

    def test_group_key_conjunct_pushes_below_aggregate(self):
        agg = LogicalAggregate(SCAN_A, (1,), (AggCall(AggFunc.COUNT, None),))
        node = LogicalFilter(agg, lit(0, 7))  # references group key 0
        pushed = FilterAggregateTransposeRule().apply(node)
        assert isinstance(pushed, LogicalAggregate)
        inner = pushed.input
        assert isinstance(inner, LogicalFilter)
        assert inner.condition.digest() == "($1 = 7)"  # remapped to input

    def test_aggregate_value_conjunct_stays(self):
        agg = LogicalAggregate(SCAN_A, (1,), (AggCall(AggFunc.COUNT, None),))
        node = LogicalFilter(agg, lit(1, 7))  # references the count column
        assert FilterAggregateTransposeRule().apply(node) is None


class TestConditionSimplification:
    """Section 5.2."""

    def _or_of_ands(self):
        common = eq(0, 3)
        return make_disjunction(
            [
                make_conjunction([common, lit(1, 1)]),
                make_conjunction([common, lit(1, 2)]),
            ]
        )

    def test_join_condition_is_factored(self):
        join = LogicalJoin(SCAN_A, SCAN_B, self._or_of_ands())
        rewritten = JoinConditionSimplificationRule().apply(join)
        assert rewritten is not None
        digest = rewritten.condition.digest()
        assert digest.startswith("(($0 = $3) AND")

    def test_filter_condition_is_factored(self):
        node = LogicalFilter(LogicalJoin(SCAN_A, SCAN_B, None), self._or_of_ands())
        rewritten = JoinConditionSimplificationRule().apply(node)
        assert rewritten is not None

    def test_no_common_conjunct_is_noop(self):
        join = LogicalJoin(
            SCAN_A, SCAN_B, make_disjunction([lit(0, 1), lit(1, 2)])
        )
        assert JoinConditionSimplificationRule().apply(join) is None


class TestStageOnePasses:
    def test_baseline_has_three_passes_without_filter_correlate(self):
        passes = stage_one_passes(False, False)
        assert len(passes) == 3
        names = {r.name for group in passes for r in group}
        assert "FilterCorrelate" not in names
        assert "JoinConditionSimplification" not in names

    def test_improved_passes_add_the_new_rules(self):
        passes = stage_one_passes(True, True)
        names = {r.name for group in passes for r in group}
        assert "FilterCorrelate" in names
        assert "JoinConditionSimplification" in names

    def test_hep_planner_reaches_fixpoint(self):
        join = LogicalJoin(SCAN_A, SCAN_B, None)
        tree = LogicalFilter(join, make_conjunction([eq(0, 3), lit(0, 1), lit(3, 2)]))
        for rules in stage_one_passes(True, True):
            tree = HepPlanner(rules).optimize(tree)
        # Filters ended up on the scans, equi condition on the join.
        assert isinstance(tree, LogicalJoin)
        assert isinstance(tree.left, LogicalFilter)
        assert isinstance(tree.right, LogicalFilter)


class TestSubstituteRefs:
    def test_substitution(self):
        expr = BinaryOp("+", ColRef(0), ColRef(1))
        result = substitute_refs(expr, [Literal(10), ColRef(5)])
        assert result.digest() == "(10 + $5)"
