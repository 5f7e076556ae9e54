"""The reference executor: the trusted oracle for differential checks.

A deliberately simple interpreter for *logical* plans: one node type at a
time, whole tables in memory, no fragments, no exchanges, no traits, no
cost model, no work-unit accounting.  Whatever the distributed engine
returns for a query must equal (as a multiset) what this executor returns
for the same logical plan — any divergence is a planner or executor bug.

The only concession to practicality is the join: when the join condition
contains equi-key conjuncts the interpreter matches via a hash table on
the key columns instead of scanning the cross product, so TPC-H-sized
differential runs finish in seconds.  The semantics are identical to the
nested loop (SQL null semantics: a NULL key never matches), and the
fallback nested loop remains the definition for non-equi conditions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.common.ordering import NullsLast
from repro.exec.aggregates import AggregateEvaluator
from repro.rel.expr import (
    compile_expr,
    extract_equi_keys,
    make_conjunction,
    references,
    shift_refs,
    split_conjunction,
)
from repro.rel.logical import (
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalValues,
    RelNode,
)
from repro.storage.store import DataStore

Row = Tuple
Rows = List[Row]


def push_filters(node: RelNode) -> RelNode:
    """Push filter conjuncts through inner joins (semantics-preserving).

    The raw SQL-to-rel output of a comma join is a cross join with the
    whole WHERE clause as a Filter on top; evaluating that literally
    materialises the cross product.  This is the one rewrite the oracle
    performs itself — a ~30-line textbook rule, deliberately independent
    of the planner's Hep pass so a pushdown bug there still shows up as a
    differential mismatch rather than being mirrored by the oracle.
    """
    if isinstance(node, LogicalFilter):
        child = push_filters(node.input)
        if (
            isinstance(child, LogicalJoin)
            and child.join_type is JoinType.INNER
        ):
            left_width = child.left.width
            left_parts: List = []
            right_parts: List = []
            join_parts: List = []
            for conjunct in split_conjunction(node.condition):
                refs = references(conjunct)
                if refs and max(refs) < left_width:
                    left_parts.append(conjunct)
                elif refs and min(refs) >= left_width:
                    right_parts.append(shift_refs(conjunct, -left_width))
                else:
                    join_parts.append(conjunct)
            left = child.left
            if left_parts:
                left = push_filters(
                    LogicalFilter(left, make_conjunction(left_parts))
                )
            right = child.right
            if right_parts:
                right = push_filters(
                    LogicalFilter(right, make_conjunction(right_parts))
                )
            condition = make_conjunction([child.condition] + join_parts)
            return LogicalJoin(
                left,
                right,
                condition,
                JoinType.INNER,
                correlate_origin=child.correlate_origin,
            )
        if isinstance(child, LogicalJoin) and child.join_type in (
            JoinType.SEMI,
            JoinType.ANTI,
            JoinType.LEFT,
        ):
            # These joins emit left rows unchanged (SEMI/ANTI filter them,
            # LEFT pads them), so a conjunct over left columns commutes
            # with the join.  Without this, a filter stranded above a
            # decorrelated IN/EXISTS (TPC-H Q18/Q21/Q22) leaves the left
            # side an unfiltered cross product.
            left_width = child.left.width
            left_parts: List = []
            keep: List = []
            for conjunct in split_conjunction(node.condition):
                refs = references(conjunct)
                if refs and max(refs) < left_width:
                    left_parts.append(conjunct)
                else:
                    keep.append(conjunct)
            if left_parts:
                left = push_filters(
                    LogicalFilter(child.left, make_conjunction(left_parts))
                )
                joined = LogicalJoin(
                    left,
                    child.right,
                    child.condition,
                    child.join_type,
                    correlate_origin=child.correlate_origin,
                )
                if keep:
                    return LogicalFilter(joined, make_conjunction(keep))
                return joined
        if child is node.input:
            return node
        return LogicalFilter(child, node.condition)
    children = [push_filters(c) for c in node.inputs]
    if all(new is old for new, old in zip(children, node.inputs)):
        return node
    return node.copy(children)


class ReferenceExecutor:
    """Single-node, single-threaded ground-truth interpreter."""

    def __init__(self, store: DataStore):
        self.store = store

    def execute(self, plan: RelNode) -> Rows:
        """Evaluate a logical plan tree over the store's tables."""
        return self._eval(push_filters(plan))

    # -- dispatch -----------------------------------------------------------

    def _eval(self, node: RelNode) -> Rows:
        if isinstance(node, LogicalTableScan):
            return self._scan(node)
        if isinstance(node, LogicalValues):
            return [tuple(row) for row in node.rows]
        if isinstance(node, LogicalFilter):
            rows = self._eval(node.input)
            predicate = compile_expr(node.condition, test=True)
            return [row for row in rows if predicate(row)]
        if isinstance(node, LogicalProject):
            rows = self._eval(node.input)
            fns = [compile_expr(e) for e in node.exprs]
            return [tuple(fn(row) for fn in fns) for row in rows]
        if isinstance(node, LogicalJoin):
            return self._join(node)
        if isinstance(node, LogicalAggregate):
            return self._aggregate(node)
        if isinstance(node, LogicalSort):
            return self._sort(node)
        raise ExecutionError(
            f"reference executor cannot evaluate {type(node).__name__}"
        )

    # -- operators ----------------------------------------------------------

    def _scan(self, node: LogicalTableScan) -> Rows:
        data = self.store.table(node.table)
        rows: Rows = []
        for partition in data.partitions:
            rows.extend(partition)
        # Pushed-down work travels inside the scan node.  The oracle
        # honours the semantic parts — filter (over the original row) and
        # projection — but deliberately ignores ``pushed_fetch``: it is a
        # per-partition over-approximation whose exact cut the retained
        # engine-side Sort/Limit applies, which the oracle evaluates from
        # the full row set.
        if node.pushed_filter is not None:
            predicate = compile_expr(node.pushed_filter, test=True)
            rows = [row for row in rows if predicate(row)]
        if node.pushed_project is not None:
            positions = node.pushed_project
            rows = [tuple(row[i] for i in positions) for row in rows]
        return rows

    def _join(self, node: LogicalJoin) -> Rows:
        left = self._eval(node.left)
        right = self._eval(node.right)
        left_width = node.left.width
        pairs, residual_list = extract_equi_keys(node.condition, left_width)
        if pairs:
            matcher = self._equi_matches(left, right, pairs, residual_list)
        else:
            matcher = self._loop_matches(left, right, node.condition)
        out: Rows = []
        pad = (None,) * node.right.width
        join_type = node.join_type
        for left_row, matches in matcher:
            if join_type is JoinType.INNER:
                for right_row in matches:
                    out.append(left_row + right_row)
            elif join_type is JoinType.LEFT:
                if matches:
                    for right_row in matches:
                        out.append(left_row + right_row)
                else:
                    out.append(left_row + pad)
            elif join_type is JoinType.SEMI:
                if matches:
                    out.append(left_row)
            elif join_type is JoinType.ANTI:
                if not matches:
                    out.append(left_row)
            else:  # pragma: no cover - exhaustive over JoinType
                raise ExecutionError(f"unknown join type {join_type}")
        return out

    def _equi_matches(self, left, right, pairs, residual_list):
        """Yield (left_row, matching right rows) via hash matching."""
        left_keys = tuple(lk for lk, _ in pairs)
        right_keys = tuple(rk for _, rk in pairs)
        residual = make_conjunction(residual_list)
        residual_fn = compile_expr(residual, test=True) if residual is not None else None
        table: Dict[Tuple, Rows] = {}
        for row in right:
            key = tuple(row[k] for k in right_keys)
            if any(v is None for v in key):
                continue  # a NULL key matches nothing
            table.setdefault(key, []).append(row)
        for left_row in left:
            key = tuple(left_row[k] for k in left_keys)
            if any(v is None for v in key):
                yield left_row, []
                continue
            bucket = table.get(key, [])
            if residual_fn is None:
                yield left_row, bucket
            else:
                yield left_row, [
                    r for r in bucket if residual_fn(left_row + r)
                ]

    def _loop_matches(self, left, right, condition):
        """Yield (left_row, matching right rows) via the nested loop."""
        predicate = compile_expr(condition, test=True) if condition is not None else None
        for left_row in left:
            if predicate is None:
                yield left_row, list(right)
            else:
                yield left_row, [
                    r for r in right if predicate(left_row + r)
                ]

    def _aggregate(self, node: LogicalAggregate) -> Rows:
        rows = self._eval(node.input)
        evaluator = AggregateEvaluator(node.agg_calls)
        groups: Dict[Tuple, list] = {}
        for row in rows:
            key = tuple(row[k] for k in node.group_keys)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = evaluator.new_group()
                groups[key] = accumulators
            evaluator.accumulate(accumulators, row)
        if not node.group_keys and not groups:
            # A scalar aggregate over an empty input still yields one row.
            groups[()] = evaluator.new_group()
        return [key + evaluator.results(acc) for key, acc in groups.items()]

    def _sort(self, node: LogicalSort) -> Rows:
        rows = list(self._eval(node.input))
        # Stable multi-key sort: apply the keys in reverse significance,
        # comparing through the engine's single total order (NULLS LAST,
        # mixed-type safe) so the oracle agrees with the engine on ties
        # and NULL placement.
        for index, ascending in reversed(node.sort_keys):
            rows.sort(
                key=lambda row, i=index: NullsLast(row[i]),
                reverse=not ascending,
            )
        if node.offset is not None:
            rows = rows[node.offset :]
        if node.fetch is not None:
            rows = rows[: node.fetch]
        return rows
