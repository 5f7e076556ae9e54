"""Logical optimisation rules.

A *rule* consumes a single operator and produces a semantically equivalent
replacement (Section 3.1).  The HepPlanner applies these to fixpoint; the
Volcano stage uses a further set for join-order permutation.

The library reproduces the rules the paper's narrative depends on:

* standard filter pushdown (merge, past project/sort/aggregate, into join
  conditions, down join sides) — present in both IC and IC+;
* ``FILTER_CORRELATE`` — pushes a filter past a correlation, i.e. past the
  semi/anti joins the converter creates for subqueries.  Missing from the
  baseline's first planning stage (Section 4.1), so IC leaves filters near
  the root and every operator in between does unnecessary work;
* join-condition simplification (Section 5.2) — factors a conjunct common
  to every branch of an OR out of the disjunction, after which it can be
  pushed down or used as an equi-join key, rescuing Q19 from a
  nested-loop join over the full cross product.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.rel import expr as rex
from repro.rel.expr import ColRef, Expr, Literal, make_conjunction, shift_refs
from repro.rel.logical import (
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    RelNode,
)


class Rule:
    """Base class: ``apply`` returns a replacement node or None."""

    #: Rule name used in planner traces and tests.
    name = "rule"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


def substitute_refs(expr: Expr, exprs: Sequence[Expr]) -> Expr:
    """Replace each ``ColRef(i)`` in ``expr`` with ``exprs[i]`` (inlining a
    projection into a condition above it)."""
    if isinstance(expr, ColRef):
        return exprs[expr.index]
    children = expr.children()
    if not children:
        return expr
    return expr.with_children([substitute_refs(c, exprs) for c in children])


class FilterMergeRule(Rule):
    """Filter over Filter -> one Filter with the AND of both conditions."""

    name = "FilterMerge"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalFilter):
            return None
        condition = make_conjunction([node.condition, child.condition])
        assert condition is not None
        return LogicalFilter(child.input, condition)


class FilterProjectTransposeRule(Rule):
    """Push a Filter below a Project by inlining the projected expressions."""

    name = "FilterProjectTranspose"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalProject):
            return None
        pushed = substitute_refs(node.condition, child.exprs)
        return child.copy([LogicalFilter(child.input, pushed)])


class ProjectMergeRule(Rule):
    """Project over Project -> one Project with composed expressions."""

    name = "ProjectMerge"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalProject):
            return None
        child = node.input
        if not isinstance(child, LogicalProject):
            return None
        composed = [substitute_refs(e, child.exprs) for e in node.exprs]
        return LogicalProject(child.input, composed, node.fields)


class FilterIntoJoinRule(Rule):
    """Filter over inner Join -> merge the condition into the join.

    This is what turns the converter's ``Filter(cross join)`` trees into
    proper equi-joins the physical planner can implement with hash/merge
    algorithms.
    """

    name = "FilterIntoJoin"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalJoin):
            return None
        if child.join_type is not JoinType.INNER or child.correlate_origin:
            return None
        condition = make_conjunction([child.condition, node.condition])
        return LogicalJoin(child.left, child.right, condition, child.join_type)


class JoinConditionPushRule(Rule):
    """Push one-sided conjuncts of an inner join condition to the inputs."""

    name = "JoinConditionPush"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalJoin):
            return None
        if node.join_type not in (JoinType.INNER, JoinType.SEMI, JoinType.ANTI):
            return None
        if node.condition is None or node.correlate_origin:
            return None
        left_width = node.left.width
        left_parts: List[Expr] = []
        right_parts: List[Expr] = []
        keep: List[Expr] = []
        for conjunct in rex.split_conjunction(node.condition):
            side = rex.is_literal_condition(conjunct, left_width)
            if side == "left" and node.join_type is not JoinType.ANTI:
                # An anti join *emits* left rows that fail the condition,
                # so a left-only ON conjunct must not become a filter.
                left_parts.append(conjunct)
            elif side == "right":
                right_parts.append(shift_refs(conjunct, -left_width))
            else:
                keep.append(conjunct)
        if not left_parts and not right_parts:
            return None
        left = node.left
        right = node.right
        if left_parts:
            left = LogicalFilter(left, make_conjunction(left_parts))
        if right_parts:
            right = LogicalFilter(right, make_conjunction(right_parts))
        return LogicalJoin(left, right, make_conjunction(keep), node.join_type)


class FilterJoinTransposeRule(Rule):
    """Push Filter conjuncts below an inner/left join where possible.

    For LEFT joins only left-side conjuncts may move (right-side ones see
    post-join NULLs).  Cross-side conjuncts stay put for non-inner joins.
    """

    name = "FilterJoinTranspose"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalJoin):
            return None
        if child.correlate_origin:
            return None  # only FILTER_CORRELATE sees through a correlate
        if child.join_type not in (
            JoinType.INNER, JoinType.LEFT, JoinType.SEMI, JoinType.ANTI
        ):
            return None
        left_width = child.left.width
        left_parts: List[Expr] = []
        right_parts: List[Expr] = []
        keep: List[Expr] = []
        for conjunct in rex.split_conjunction(node.condition):
            side = rex.is_literal_condition(conjunct, left_width)
            if side == "left":
                # Valid for every join type: for semi/anti/left the output
                # left columns are exactly the input left columns, and for
                # anti a pre-filter on the left only narrows which rows are
                # tested, identical to filtering afterwards.
                left_parts.append(conjunct)
            elif side == "right" and child.join_type is JoinType.INNER:
                right_parts.append(shift_refs(conjunct, -left_width))
            else:
                keep.append(conjunct)
        if not left_parts and not right_parts:
            return None
        left = child.left
        right = child.right
        if left_parts:
            left = LogicalFilter(left, make_conjunction(left_parts))
        if right_parts:
            right = LogicalFilter(right, make_conjunction(right_parts))
        new_join = LogicalJoin(left, right, child.condition, child.join_type)
        remainder = make_conjunction(keep)
        if remainder is None:
            return new_join
        return LogicalFilter(new_join, remainder)


class FilterCorrelateRule(Rule):
    """The missing FILTER_CORRELATE rule (Section 4.1).

    Pushes a filter past a *correlation* — in this reproduction, the
    semi/anti joins produced by subquery decorrelation, whose output is
    exactly the left input.  Without it, filters that belong on the base
    relations sit above the correlation and every operator in between
    processes tuples that should have been discarded much earlier.
    """

    name = "FilterCorrelate"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalJoin) or not child.correlate_origin:
            return None
        if child.join_type in (JoinType.SEMI, JoinType.ANTI):
            # Semi/anti output == left input: the whole condition moves.
            pushed = LogicalFilter(child.left, node.condition)
            return LogicalJoin(
                pushed, child.right, child.condition, child.join_type,
                correlate_origin=True,
            )
        # Decorrelated scalar-aggregate joins are inner correlates whose
        # output also carries the aggregate columns; only conjuncts that
        # reference the left side alone may move.
        left_width = child.left.width
        pushable: List[Expr] = []
        keep: List[Expr] = []
        for conjunct in rex.split_conjunction(node.condition):
            if rex.is_literal_condition(conjunct, left_width) == "left":
                pushable.append(conjunct)
            else:
                keep.append(conjunct)
        if not pushable:
            return None
        pushed_join = LogicalJoin(
            LogicalFilter(child.left, make_conjunction(pushable)),
            child.right,
            child.condition,
            child.join_type,
            correlate_origin=True,
        )
        remainder = make_conjunction(keep)
        if remainder is None:
            return pushed_join
        return LogicalFilter(pushed_join, remainder)


class FilterSortTransposeRule(Rule):
    """Push a Filter below a Sort without fetch/offset (order is preserved)."""

    name = "FilterSortTranspose"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if (
            not isinstance(child, LogicalSort)
            or child.fetch is not None
            or child.offset is not None
        ):
            return None
        return child.copy([LogicalFilter(child.input, node.condition)])


class FilterAggregateTransposeRule(Rule):
    """Push group-key-only conjuncts of a HAVING filter below the Aggregate."""

    name = "FilterAggregateTranspose"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        child = node.input
        if not isinstance(child, LogicalAggregate) or not child.group_keys:
            return None
        key_count = len(child.group_keys)
        pushable: List[Expr] = []
        keep: List[Expr] = []
        for conjunct in rex.split_conjunction(node.condition):
            refs = rex.references(conjunct)
            if refs and all(r < key_count for r in refs):
                remapped = rex.remap_refs(
                    conjunct, lambda i: child.group_keys[i]
                )
                pushable.append(remapped)
            else:
                keep.append(conjunct)
        if not pushable:
            return None
        filtered = LogicalFilter(child.input, make_conjunction(pushable))
        new_agg = child.copy([filtered])
        remainder = make_conjunction(keep)
        if remainder is None:
            return new_agg
        return LogicalFilter(new_agg, remainder)


class JoinConditionSimplificationRule(Rule):
    """Section 5.2: factor common conjuncts out of OR-of-AND predicates.

    ``(c1 & c2) | (c1 & c3)  ->  c1 & (c2 | c3)``.  Once ``c1`` is outside
    the OR, JoinConditionPush can turn a literal ``c1`` into an input
    filter, and an equality ``c1`` becomes an extractable equi-join key —
    letting the planner replace the nested-loop join (Q19's rescue).

    Applies to join conditions and to filter conditions (the same
    predicate may sit in either place depending on rule order).
    """

    name = "JoinConditionSimplification"

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if isinstance(node, LogicalJoin) and node.condition is not None:
            rewritten = self._simplify(node.condition)
            if rewritten is not None:
                return LogicalJoin(
                    node.left, node.right, rewritten, node.join_type
                )
            return None
        if isinstance(node, LogicalFilter):
            rewritten = self._simplify(node.condition)
            if rewritten is not None:
                return LogicalFilter(node.input, rewritten)
            return None
        return None

    def _simplify(self, condition: Expr) -> Optional[Expr]:
        changed = False
        conjuncts: List[Expr] = []
        for conjunct in rex.split_conjunction(condition):
            factored = rex.factor_common_conjuncts(conjunct)
            if factored is not None:
                conjuncts.extend(rex.split_conjunction(factored))
                changed = True
            else:
                conjuncts.append(conjunct)
        if not changed:
            return None
        return make_conjunction(conjuncts)


# ---------------------------------------------------------------------------
# Rule sets: the three stage-1 Hep passes (Section 3.2.1) and extras
# ---------------------------------------------------------------------------


def stage_one_passes(
    filter_correlate: bool, condition_simplification: bool
) -> List[List[Rule]]:
    """The three HepPlanner rule groups of the first optimisation stage.

    The baseline runs the standard pushdown rules; ``filter_correlate``
    adds the missing FILTER_CORRELATE rule (Section 4.1) and
    ``condition_simplification`` adds the Section 5.2 rewrite.
    """
    pass_one: List[Rule] = [
        FilterMergeRule(),
        FilterProjectTransposeRule(),
        ProjectMergeRule(),
    ]
    pass_two: List[Rule] = [
        FilterMergeRule(),
        FilterIntoJoinRule(),
        JoinConditionPushRule(),
        FilterJoinTransposeRule(),
        FilterAggregateTransposeRule(),
        FilterSortTransposeRule(),
        FilterProjectTransposeRule(),
    ]
    if filter_correlate:
        pass_two.append(FilterCorrelateRule())
    pass_three: List[Rule] = [
        FilterMergeRule(),
        FilterIntoJoinRule(),
        JoinConditionPushRule(),
        FilterProjectTransposeRule(),
        ProjectMergeRule(),
    ]
    if condition_simplification:
        pass_three.insert(0, JoinConditionSimplificationRule())
        pass_three.append(FilterJoinTransposeRule())
        if filter_correlate:
            pass_three.append(FilterCorrelateRule())
    return [pass_one, pass_two, pass_three]
