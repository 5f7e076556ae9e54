"""Cardinality estimation: the metadata provider hooks Ignite gives Calcite.

Section 3.1 explains that Calcite retrieves table statistics and estimation
algorithms through provider functions; Ignite overrides the defaults with
custom algorithms fed by its collected metadata.  This module implements
that provider layer for the reproduction:

* row counts and per-column distinct counts propagated through the plan;
* predicate selectivity heuristics (equality via distinct counts, ranges,
  LIKE, IN, OR);
* **two** join result-size estimators —

  - :func:`legacy_join_size`: the original Ignite algorithm with the edge
    case Section 4.1 documents: "if the estimated cardinality of either
    join input was very small, the estimated join result cardinality would
    always be 1", which cascades through join chains and tricks the
    planner into nested-loop plans;
  - :func:`swami_schiefer_join_size`: the replacement (Eq. 3),
    ``|A| * |B| / max(d_A, d_B)``.

The plan facts an estimate reads are each stated once elsewhere and
consulted here, as Calcite's providers consult one another (column
origins feed selectivity, NDV and row count): *which base column is this*
is :func:`repro.rel.logical.column_origin`, reached only through
:meth:`Estimator._column_stats` — the one point where an estimate resolves
its statistic (histogram, min/max, Count-Min, AGMS); *is this a column
compared with a literal* is :func:`repro.rel.expr.column_vs_literal`, of
which the estimator keeps only its policy (pairing range bounds into
intervals).  :meth:`Estimator.distinct_count` propagates with its own
clamps and is the one walk that stays.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.catalog.histogram import as_number
from repro.catalog.statistics import ColumnStats
from repro.rel import expr as rex
from repro.rel.expr import (
    BinaryOp,
    ColRef,
    Expr,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
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
    column_origin,
)
from repro.storage.store import DataStore

#: Inputs at or below this estimated cardinality trigger the legacy
#: algorithm's degenerate "result is 1 row" answer (Section 4.1).
LEGACY_SMALL_INPUT = 12.0

#: Default selectivities for predicate shapes with no usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.15
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.25
DEFAULT_OTHER_SELECTIVITY = 0.25


def legacy_join_size(
    left_rows: float,
    right_rows: float,
    left_distinct: Optional[float],
    right_distinct: Optional[float],
) -> float:
    """Ignite's original join-size estimate, defect included.

    For healthy inputs it behaves like a textbook selectivity estimate, but
    when either input's estimated cardinality is very small it collapses to
    1 — the edge case that produces chains of predicted N x 1 joins and
    hence nested-loop plans (Section 4.1).
    """
    if left_rows <= LEGACY_SMALL_INPUT or right_rows <= LEGACY_SMALL_INPUT:
        return 1.0
    denominator = max(left_distinct or 1.0, right_distinct or 1.0, 1.0)
    return max(1.0, left_rows * right_rows / denominator)


def swami_schiefer_join_size(
    left_rows: float,
    right_rows: float,
    left_distinct: Optional[float],
    right_distinct: Optional[float],
) -> float:
    """Eq. 3: ``|A| * |B| / max(d_A, d_B)``.

    Exact when at least one join column is uniformly distributed [Rosenthal
    1981], and free of the small-input edge case.
    """
    d_left = left_distinct if left_distinct and left_distinct > 0 else 1.0
    d_right = right_distinct if right_distinct and right_distinct > 0 else 1.0
    return max(1.0, left_rows * right_rows / max(d_left, d_right))


class Estimator:
    """Plan-level cardinality estimation over a :class:`DataStore`.

    ``fixed_join_estimation`` selects between the legacy and Eq. 3 join
    estimators (the Section 4.1 fix).  Results are memoised per node
    digest, the analogue of Calcite's metadata cache.
    """

    def __init__(
        self,
        store: DataStore,
        fixed_join_estimation: bool,
        feedback=None,
        sketches=None,
    ):
        self._store = store
        self._fixed = fixed_join_estimation
        #: Optional :class:`repro.adaptive.feedback.FeedbackRegistry`:
        #: observed actual cardinalities override the statistical guess
        #: for operators whose signature was executed before.
        self._feedback = feedback
        #: Optional :class:`repro.stats.sketch_registry.SketchRegistry`:
        #: HLL distinct counts, CMS frequencies and AGMS join sizes refine
        #: the statistical guesses below.  Sketches never override
        #: feedback: :meth:`row_count` consults ``_feedback_override``
        #: before any sketch-informed computation runs.
        self._sketches = sketches
        self._row_cache: Dict[str, float] = {}

    # -- row counts --------------------------------------------------------------

    def row_count(self, node: RelNode) -> float:
        digest = node.digest()
        cached = self._row_cache.get(digest)
        if cached is None:
            override = self._feedback_override(node)
            if override is not None:
                cached = override
            else:
                cached = max(1.0, self._row_count(node))
            self._row_cache[digest] = cached
        return cached

    def _feedback_override(self, node: RelNode) -> Optional[float]:
        if self._feedback is None:
            return None
        observed = self._feedback.row_override(node)
        if observed is None:
            return None
        from repro.obs.metrics import get_registry, tenant_labels

        get_registry().inc("adaptive.feedback_overrides", **tenant_labels())
        return max(1.0, float(observed))

    def _row_count(self, node: RelNode) -> float:
        if isinstance(node, LogicalTableScan):
            rows = float(self._store.row_count(node.table))
            if node.pushed_filter is not None:
                # A pushed predicate references the table's original
                # full-width row; estimate it against a plain scan so
                # column tracing sees base positions.
                rows *= self.selectivity(
                    node.pushed_filter, self._plain_scan(node)
                )
            if node.pushed_fetch is not None:
                data = self._store.table(node.table)
                rows = min(
                    rows,
                    float(node.pushed_fetch * max(1, data.partition_count)),
                )
            return rows
        if isinstance(node, LogicalValues):
            return float(len(node.rows))
        if isinstance(node, LogicalFilter):
            input_rows = self.row_count(node.input)
            return input_rows * self.selectivity(node.condition, node.input)
        if isinstance(node, LogicalProject):
            return self.row_count(node.input)
        if isinstance(node, LogicalSort):
            rows = self.row_count(node.input)
            if node.offset is not None:
                rows = max(0.0, rows - float(node.offset))
            if node.fetch is not None:
                rows = min(rows, float(node.fetch))
            return rows
        if isinstance(node, LogicalAggregate):
            return self._aggregate_rows(node)
        if isinstance(node, LogicalJoin):
            return self.join_size(node)
        if node.inputs:
            return self.row_count(node.inputs[0])
        return 1.0

    def _plain_scan(self, node: LogicalTableScan) -> LogicalTableScan:
        """A pushdown-free full-width scan of the same table/alias."""
        schema = self._store.table(node.table).schema
        return LogicalTableScan(node.table, node.alias, schema.column_names)

    def _aggregate_rows(self, node: LogicalAggregate) -> float:
        input_rows = self.row_count(node.input)
        if not node.group_keys:
            return 1.0
        groups = 1.0
        for key in node.group_keys:
            distinct = self.distinct_count(node.input, key)
            groups *= distinct if distinct else math.sqrt(input_rows)
        return max(1.0, min(groups, input_rows))

    # -- join estimation -----------------------------------------------------------

    def join_size(self, node: LogicalJoin) -> float:
        left_rows = self.row_count(node.left)
        right_rows = self.row_count(node.right)
        left_width = node.left.width
        pairs, remainder = rex.extract_equi_keys(node.condition, left_width)

        if node.join_type in (JoinType.SEMI, JoinType.ANTI):
            fraction = 0.5
            if pairs:
                left_key, _ = pairs[0]
                distinct = self.distinct_count(node.left, left_key)
                if distinct:
                    fraction = min(1.0, right_rows / max(distinct, 1.0))
            if node.join_type is JoinType.ANTI:
                fraction = 1.0 - fraction * 0.5
            return max(1.0, left_rows * fraction)

        if not pairs:
            # Pure cross join or non-equi condition: selectivity heuristics.
            selectivity = 1.0
            for conjunct in remainder:
                selectivity *= self._conjunct_selectivity(conjunct, node)
            return max(1.0, left_rows * right_rows * selectivity)

        estimator = swami_schiefer_join_size if self._fixed else legacy_join_size
        result = None
        for left_key, right_key in pairs:
            estimate = self._sketch_join_size(node, left_key, right_key)
            if estimate is None:
                d_left = self.distinct_count(node.left, left_key)
                d_right = self.distinct_count(node.right, right_key)
                estimate = estimator(left_rows, right_rows, d_left, d_right)
            result = estimate if result is None else min(result, estimate)
        assert result is not None
        for conjunct in remainder:
            result *= self._conjunct_selectivity(conjunct, node)
        if node.join_type is JoinType.LEFT:
            result = max(result, left_rows)
        return max(1.0, result)

    # -- sketch consultation ----------------------------------------------------------

    def _sketch_join_size(
        self, node: LogicalJoin, left_key: int, right_key: int
    ) -> Optional[float]:
        """AGMS inner-product estimate for one equi pair, when possible.

        Only sound when both keys resolve to base-table columns through
        *cardinality-preserving* chains (scans, column projections,
        fetch-less sorts): a filter in between changes the key multiset,
        and the base-table sketch would answer for the wrong stream.
        """
        if self._sketches is None:
            return None
        left = self._column_stats(node.left, left_key, preserving=True)
        right = self._column_stats(node.right, right_key, preserving=True)
        if left is None or right is None:
            return None
        estimate = self._sketches.join_inner_product(
            left[0], left[1], right[0], right[1]
        )
        if estimate is None:
            return None
        return max(1.0, estimate)

    def _sketch_equality_fraction(
        self, input_node: RelNode, column: int, literal: object
    ) -> Optional[float]:
        """CMS-estimated selectivity of ``column = literal``.

        The fraction is measured on the *base table* and applied to the
        input under the usual conjunct-independence assumption — same
        contract as the histogram range fractions, but frequency-exact on
        skewed columns where ``1/NDV`` is off by the skew factor.
        """
        if self._sketches is None:
            return None
        base = self._column_stats(input_node, column)
        if base is None:
            return None
        return self._sketches.equality_fraction(base[0], base[1], literal)

    def _column_stats(
        self, node: RelNode, column: int, preserving: bool = False
    ) -> Optional[Tuple[str, str, Optional[ColumnStats]]]:
        """``(table, column name, load-time statistics)`` of the base
        column behind an output column, or None when it has none.

        The one place an estimate resolves its statistic: the histogram,
        min/max, Count-Min and AGMS lookups all name their base column
        through here (``preserving`` as in :func:`column_origin`).
        """
        origin = column_origin(node, column, preserving)
        if origin is None:
            return None
        scan, position = origin
        name = scan.column_names[position]
        return scan.table, name, self._store.table(scan.table).stats.column(name)

    # -- distinct values --------------------------------------------------------------

    def distinct_count(self, node: RelNode, column: int) -> Optional[float]:
        """Estimated distinct values in ``column`` of ``node``'s output."""
        if isinstance(node, LogicalTableScan):
            name = node.column_names[column]
            if self._sketches is not None:
                estimate = self._sketches.table_distinct(node.table, name)
                if estimate is not None:
                    return estimate
            distinct = self._store.table(node.table).stats.distinct_count(name)
            return float(distinct) if distinct else None
        if self._sketches is not None:
            # An operator whose output crossed a fragment seam before has
            # an online-refreshed HLL keyed by its signature — the exact
            # distinct count of the intermediate, not a propagated guess.
            observed = self._sketches.operator_distinct(node, column)
            if observed is not None:
                return min(observed, self.row_count(node))
        if isinstance(node, LogicalFilter):
            inner = self.distinct_count(node.input, column)
            if inner is None:
                return None
            return min(inner, self.row_count(node))
        if isinstance(node, LogicalProject):
            expr = node.exprs[column]
            if isinstance(expr, ColRef):
                return self.distinct_count(node.input, expr.index)
            refs = rex.references(expr)
            if len(refs) == 1:
                return self.distinct_count(node.input, next(iter(refs)))
            return None
        if isinstance(node, LogicalSort):
            return self.distinct_count(node.input, column)
        if isinstance(node, LogicalAggregate):
            if column < len(node.group_keys):
                inner = self.distinct_count(
                    node.input, node.group_keys[column]
                )
                if inner is None:
                    return None
                return min(inner, self.row_count(node))
            return None
        if isinstance(node, LogicalJoin):
            # No row-count clamp here: join_size consults distinct counts
            # while the join's own row count is being computed, and the
            # clamp would recurse into it.
            left_width = node.left.width
            if node.join_type.projects_right and column >= left_width:
                return self.distinct_count(node.right, column - left_width)
            return self.distinct_count(node.left, column)
        if node.inputs:
            return self.distinct_count(node.inputs[0], column)
        return None

    # -- selectivity -------------------------------------------------------------------

    def selectivity(self, condition: Optional[Expr], input_node: RelNode) -> float:
        if condition is None:
            return 1.0
        # Paired range bounds on the same column (``d >= lo AND d < hi``)
        # are estimated jointly as an interval — treating them as
        # independent grossly overestimates narrow windows like TPC-H's
        # one-month date ranges.
        intervals: Dict[int, list] = {}
        rest: list = []
        for conjunct in rex.split_conjunction(condition):
            bound = self._range_bound(conjunct)
            if bound is not None:
                intervals.setdefault(bound[0], []).append(bound)
            else:
                rest.append(conjunct)
        selectivity = 1.0
        for column, bounds in intervals.items():
            if len(bounds) >= 2:
                selectivity *= self._interval_selectivity(
                    column, bounds, input_node
                )
            else:
                rest.append(bounds[0][3])
        for conjunct in rest:
            selectivity *= self._conjunct_selectivity(conjunct, input_node)
        return max(1e-7, min(1.0, selectivity))

    def _range_bound(self, conjunct: Expr):
        """``(column, kind, literal, original)`` for range conjuncts."""
        sarg = rex.column_vs_literal(conjunct)
        if sarg is None or sarg[1] in ("=", "<>"):
            return None
        column, op, literal = sarg
        kind = "hi" if op in ("<", "<=") else "lo"
        return (column.index, kind, literal, conjunct)

    def _interval_selectivity(
        self, column: int, bounds, input_node: RelNode
    ) -> float:
        lows = [b[2] for b in bounds if b[1] == "lo"]
        highs = [b[2] for b in bounds if b[1] == "hi"]
        histogram, column_bounds = self._range_stats(input_node, column)
        if histogram is not None:
            try:
                fraction = histogram.range_fraction(
                    max(lows) if lows else None,
                    min(highs) if highs else None,
                )
                return max(1e-4, min(1.0, fraction))
            except (TypeError, ValueError):
                pass
        if column_bounds is None:
            return DEFAULT_RANGE_SELECTIVITY ** max(1, len(bounds) - 1)
        try:
            low = as_number(column_bounds[0])
            high = as_number(column_bounds[1])
            span = high - low
            if span <= 0:
                return DEFAULT_RANGE_SELECTIVITY
            effective_low = max([as_number(v) for v in lows], default=low)
            effective_high = min([as_number(v) for v in highs], default=high)
        except (TypeError, ValueError):
            return DEFAULT_RANGE_SELECTIVITY
        fraction = (effective_high - max(effective_low, low)) / span
        return max(1e-4, min(1.0, fraction))

    def _conjunct_selectivity(self, conjunct: Expr, input_node: RelNode) -> float:
        """Selectivity of one conjunct, always clamped into [0, 1].

        The clamp is the estimator-wide guarantee that no predicate shape
        — however the branches below combine (NOT of OR of IN ...) — can
        estimate more output rows than input rows or a negative count.
        """
        return min(1.0, max(0.0, self._conjunct_raw(conjunct, input_node)))

    def _conjunct_raw(self, conjunct: Expr, input_node: RelNode) -> float:
        if isinstance(conjunct, BinaryOp):
            if conjunct.op == "OR":
                # Inclusion-exclusion, not a sum: summing disjuncts lets
                # wide OR predicates exceed 1.0 and estimate more output
                # rows than input rows.
                left = self._conjunct_selectivity(conjunct.left, input_node)
                right = self._conjunct_selectivity(conjunct.right, input_node)
                return min(1.0, left + right - left * right)
            if conjunct.op == "AND":
                return self.selectivity(conjunct, input_node)
            if conjunct.op in rex.COMPARISONS:
                return self._comparison_selectivity(conjunct, input_node)
        if isinstance(conjunct, UnaryOp) and conjunct.op == "NOT":
            return 1.0 - self._conjunct_selectivity(conjunct.operand, input_node)
        if isinstance(conjunct, InList):
            base = self._in_selectivity(conjunct, input_node)
            return 1.0 - base if conjunct.negated else base
        if isinstance(conjunct, LikeExpr):
            base = DEFAULT_LIKE_SELECTIVITY
            return 1.0 - base if conjunct.negated else base
        if isinstance(conjunct, IsNull):
            return 0.1 if not conjunct.negated else 0.9
        if isinstance(conjunct, Literal):
            return 1.0 if conjunct.value else 0.0
        return DEFAULT_OTHER_SELECTIVITY

    def _in_selectivity(self, conjunct: InList, input_node: RelNode) -> float:
        if isinstance(conjunct.operand, ColRef):
            column = conjunct.operand.index
            if self._sketches is not None:
                base = self._column_stats(input_node, column)
                if base is not None:
                    # Sum of per-value CMS frequencies: IN lists mixing
                    # hot and absent values price each member by its true
                    # weight instead of a uniform 1/NDV each.
                    total = 0.0
                    for value in conjunct.values:
                        fraction = self._sketches.equality_fraction(
                            base[0], base[1], value
                        )
                        if fraction is None:
                            total = None
                            break
                        total += fraction
                    if total is not None:
                        return min(1.0, total)
            distinct = self.distinct_count(input_node, column)
            if distinct:
                return min(1.0, len(conjunct.values) / distinct)
        return min(1.0, len(conjunct.values) * DEFAULT_EQ_SELECTIVITY)

    def _comparison_selectivity(
        self, conjunct: BinaryOp, input_node: RelNode
    ) -> float:
        sarg = rex.column_vs_literal(conjunct)
        if sarg is None:
            # Column-to-column comparisons (join-ish residuals).
            if conjunct.op == "=":
                return DEFAULT_EQ_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        column, op, literal = sarg
        if op in ("=", "<>"):
            equal = self._equality_selectivity(input_node, column.index, literal)
            return equal if op == "=" else 1.0 - equal
        return self._range_selectivity(column, literal, op, input_node)

    def _equality_selectivity(
        self, input_node: RelNode, column: int, literal: object
    ) -> float:
        """``column = literal``: Count-Min frequency, else 1/NDV, else the
        default."""
        fraction = self._sketch_equality_fraction(input_node, column, literal)
        if fraction is not None:
            return fraction
        distinct = self.distinct_count(input_node, column)
        if distinct:
            return 1.0 / max(distinct, 1.0)
        return DEFAULT_EQ_SELECTIVITY

    def _range_selectivity(
        self, column: ColRef, literal: object, op: str, input_node: RelNode
    ) -> float:
        histogram, bounds = self._range_stats(input_node, column.index)
        if histogram is not None:
            try:
                below = histogram.fraction_below(literal)
            except (TypeError, ValueError):
                below = None
            if below is not None:
                if op in ("<", "<="):
                    return max(1e-4, below)
                return max(1e-4, 1.0 - below)
        if bounds is None:
            return DEFAULT_RANGE_SELECTIVITY
        low, high = bounds
        try:
            span = as_number(high) - as_number(low)
            if span <= 0:
                return DEFAULT_RANGE_SELECTIVITY
            position = (as_number(literal) - as_number(low)) / span
        except (TypeError, ValueError):
            return DEFAULT_RANGE_SELECTIVITY
        position = min(1.0, max(0.0, position))
        if op in ("<", "<="):
            return max(1e-4, position)
        return max(1e-4, 1.0 - position)

    def _range_stats(self, node: RelNode, column: int):
        """``(equi-depth histogram, (min, max))`` of the base column, each
        None where the column has none."""
        base = self._column_stats(node, column)
        stats = base[2] if base else None
        if stats is None:
            return None, None
        if stats.min_value is None:
            return stats.histogram, None
        return stats.histogram, (stats.min_value, stats.max_value)
