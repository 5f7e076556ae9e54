"""Logical relational operators: the query tree Calcite's parser produces.

Logical operators are agnostic to the execution environment (Section 3.1);
physical counterparts with distribution/collation traits live in
:mod:`repro.exec.physical`.  Nodes are immutable; rules produce rewritten
copies via :meth:`RelNode.copy`.
"""

from __future__ import annotations

import enum
import functools
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.rel.expr import ColRef, Expr


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    #: Semi/anti joins are produced by subquery decorrelation (EXISTS / IN).
    SEMI = "semi"
    ANTI = "anti"

    @property
    def projects_right(self) -> bool:
        """Whether the join's output includes right-input columns."""
        return self in (JoinType.INNER, JoinType.LEFT)


class RelNode:
    """Base class for all relational operators (logical and physical)."""

    def __init__(self, inputs: Sequence["RelNode"], fields: Sequence[str]):
        self.inputs: Tuple[RelNode, ...] = tuple(inputs)
        self.fields: Tuple[str, ...] = tuple(fields)
        self._digest: Optional[str] = None

    # -- structure -------------------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.fields)

    def copy(self, inputs: Sequence["RelNode"]) -> "RelNode":
        """Clone this node with new inputs (same operator parameters)."""
        raise NotImplementedError

    def digest(self) -> str:
        """A canonical string identifying this subtree up to equivalence.

        Built once per node from the inputs' (equally cached) digests:
        nodes do not change after construction, and rewrites go through
        :meth:`copy`, whose result is a new node with a digest of its own.
        """
        digest = self._digest
        if digest is None:
            digest = self._digest = self._build_digest()
        return digest

    def _build_digest(self) -> str:
        raise NotImplementedError

    def explain(self, indent: int = 0) -> str:
        """Multi-line plan rendering for humans."""
        pad = "  " * indent
        line = pad + self._explain_self()
        lines = [line]
        for child in self.inputs:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def _explain_self(self) -> str:
        return type(self).__name__

    def __eq__(self, other) -> bool:
        return isinstance(other, RelNode) and self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._explain_self()


class ScanColumns:
    """Mixin of the scan nodes, logical and physical, whose ``fields`` are
    ``alias.column`` strings."""

    @functools.cached_property
    def column_names(self) -> Tuple[str, ...]:
        """The base-table column behind each output field, by position
        (a ``pushed_project`` scan lists exactly its subset)."""
        return tuple(f.split(".", 1)[1] for f in self.fields)


class LogicalTableScan(ScanColumns, RelNode):
    """Scan of a base table; ``alias`` disambiguates self-joins.

    Storage adapters that advertise pushdown capabilities can absorb work
    into the scan itself (the Calcite adapter convention — Bodo's
    ``SnowflakeFilter``/``SnowflakeSort`` pattern):

    * ``pushed_filter`` — a predicate over the table's *original* full-width
      row, applied by the adapter before rows leave the source;
    * ``pushed_project`` — original column positions the adapter returns
      (``fields`` then lists exactly that subset, keeping the original
      ``alias.column`` names so statistics tracing still resolves);
    * ``pushed_fetch`` — a per-partition row-prefix cap (a LIMIT absorbed
      at the source; the engine-side Sort/Limit is always retained, so the
      cap is a sound over-approximation).

    All three default to "absent", and digests/EXPLAIN only mention them
    when set, so un-pushed plans stay byte-identical to historical ones.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        column_names: Sequence[str],
        pushed_filter: Optional[Expr] = None,
        pushed_project: Optional[Sequence[int]] = None,
        pushed_fetch: Optional[int] = None,
    ):
        self.table = table.lower()
        self.alias = alias.lower()
        self.pushed_filter = pushed_filter
        self.pushed_project = (
            tuple(pushed_project) if pushed_project is not None else None
        )
        self.pushed_fetch = pushed_fetch
        fields = [f"{self.alias}.{c.lower()}" for c in column_names]
        super().__init__(inputs=(), fields=fields)

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalTableScan":
        if inputs:
            raise ValidationError("scan takes no inputs")
        return LogicalTableScan(
            self.table, self.alias, self.column_names,
            pushed_filter=self.pushed_filter,
            pushed_project=self.pushed_project,
            pushed_fetch=self.pushed_fetch,
        )

    @property
    def has_pushdown(self) -> bool:
        """Whether the adapter absorbed any work into this scan."""
        return (
            self.pushed_filter is not None
            or self.pushed_project is not None
            or self.pushed_fetch is not None
        )

    def pushdown_digest(self) -> str:
        """Shared digest suffix describing pushed work ('' when none)."""
        extras = []
        if self.pushed_filter is not None:
            extras.append(f"filter={self.pushed_filter.digest()}")
        if self.pushed_project is not None:
            extras.append(f"project={list(self.pushed_project)}")
        if self.pushed_fetch is not None:
            extras.append(f"fetch={self.pushed_fetch}")
        if not extras:
            return ""
        return ", pushed[" + ", ".join(extras) + "]"

    def _build_digest(self) -> str:
        return f"Scan({self.table} as {self.alias}{self.pushdown_digest()})"

    def _explain_self(self) -> str:
        return (
            f"LogicalTableScan(table={self.table}, alias={self.alias}"
            f"{self.pushdown_digest()})"
        )


class LogicalFilter(RelNode):
    """Row filter; output schema equals input schema."""

    def __init__(self, input_node: RelNode, condition: Expr):
        super().__init__(inputs=(input_node,), fields=input_node.fields)
        self.condition = condition

    @property
    def input(self) -> RelNode:
        return self.inputs[0]

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalFilter":
        (child,) = inputs
        return LogicalFilter(child, self.condition)

    def _build_digest(self) -> str:
        return f"Filter({self.condition.digest()}, {self.inputs[0].digest()})"

    def _explain_self(self) -> str:
        return f"LogicalFilter(condition={self.condition.digest()})"


class LogicalProject(RelNode):
    """Computes output expressions over the input row."""

    def __init__(
        self, input_node: RelNode, exprs: Sequence[Expr], names: Sequence[str]
    ):
        if len(exprs) != len(names):
            raise ValidationError("project exprs/names length mismatch")
        super().__init__(inputs=(input_node,), fields=names)
        self.exprs: Tuple[Expr, ...] = tuple(exprs)

    @property
    def input(self) -> RelNode:
        return self.inputs[0]

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalProject":
        (child,) = inputs
        return LogicalProject(child, self.exprs, self.fields)

    def _build_digest(self) -> str:
        inner = ", ".join(e.digest() for e in self.exprs)
        return f"Project([{inner}], {self.inputs[0].digest()})"

    def _explain_self(self) -> str:
        inner = ", ".join(e.digest() for e in self.exprs)
        return f"LogicalProject({inner})"


class LogicalJoin(RelNode):
    """A join; ``condition`` references the concatenated left+right row.

    ``correlate_origin`` marks joins produced by decorrelating a
    *correlated* subquery — Calcite's ``LogicalCorrelate`` shape.  Standard
    filter-pushdown rules do not see through a correlate; only the
    FILTER_CORRELATE rule (missing from the baseline, Section 4.1) moves
    filters past these joins.
    """

    def __init__(
        self,
        left: RelNode,
        right: RelNode,
        condition: Optional[Expr],
        join_type: JoinType = JoinType.INNER,
        correlate_origin: bool = False,
    ):
        if join_type.projects_right:
            fields = list(left.fields) + list(right.fields)
        else:
            fields = list(left.fields)
        super().__init__(inputs=(left, right), fields=fields)
        self.condition = condition
        self.join_type = join_type
        self.correlate_origin = correlate_origin

    @property
    def left(self) -> RelNode:
        return self.inputs[0]

    @property
    def right(self) -> RelNode:
        return self.inputs[1]

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalJoin":
        left, right = inputs
        return LogicalJoin(
            left, right, self.condition, self.join_type, self.correlate_origin
        )

    def _build_digest(self) -> str:
        cond = self.condition.digest() if self.condition else "true"
        marker = "corr " if self.correlate_origin else ""
        return (
            f"Join({marker}{self.join_type.value}, {cond}, "
            f"{self.left.digest()}, {self.right.digest()})"
        )

    def _explain_self(self) -> str:
        cond = self.condition.digest() if self.condition else "true"
        return f"LogicalJoin(type={self.join_type.value}, condition={cond})"


class AggFunc(enum.Enum):
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


class AggCall:
    """One aggregate call: function, argument expression, distinct flag."""

    def __init__(
        self,
        func: AggFunc,
        arg: Optional[Expr],
        distinct: bool = False,
        name: str = "",
    ):
        if func is not AggFunc.COUNT and arg is None:
            raise ValidationError(f"{func.value} requires an argument")
        self.func = func
        self.arg = arg
        self.distinct = distinct
        self.name = name or func.value
        arg_digest = arg.digest() if arg is not None else "*"
        self._digest = f"{func.value}({'distinct ' if distinct else ''}{arg_digest})"

    def digest(self) -> str:
        return self._digest

    def __eq__(self, other) -> bool:
        return isinstance(other, AggCall) and self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest())


class LogicalAggregate(RelNode):
    """GROUP BY + aggregate calls; a *reduction operator* in Section 5.3."""

    def __init__(
        self,
        input_node: RelNode,
        group_keys: Sequence[int],
        agg_calls: Sequence[AggCall],
    ):
        self.group_keys: Tuple[int, ...] = tuple(group_keys)
        self.agg_calls: Tuple[AggCall, ...] = tuple(agg_calls)
        fields = [input_node.fields[k] for k in self.group_keys]
        fields += [call.name for call in self.agg_calls]
        super().__init__(inputs=(input_node,), fields=fields)

    @property
    def input(self) -> RelNode:
        return self.inputs[0]

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalAggregate":
        (child,) = inputs
        return LogicalAggregate(child, self.group_keys, self.agg_calls)

    def _build_digest(self) -> str:
        calls = ", ".join(c.digest() for c in self.agg_calls)
        return (
            f"Aggregate(keys={list(self.group_keys)}, [{calls}], "
            f"{self.inputs[0].digest()})"
        )

    def _explain_self(self) -> str:
        calls = ", ".join(c.digest() for c in self.agg_calls)
        return f"LogicalAggregate(keys={list(self.group_keys)}, calls=[{calls}])"


class LogicalSort(RelNode):
    """ORDER BY with optional LIMIT (``fetch``) and OFFSET (``offset``)."""

    def __init__(
        self,
        input_node: RelNode,
        sort_keys: Sequence[Tuple[int, bool]],
        fetch: Optional[int] = None,
        offset: Optional[int] = None,
    ):
        super().__init__(inputs=(input_node,), fields=input_node.fields)
        self.sort_keys: Tuple[Tuple[int, bool], ...] = tuple(sort_keys)
        self.fetch = fetch
        self.offset = offset

    @property
    def input(self) -> RelNode:
        return self.inputs[0]

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalSort":
        (child,) = inputs
        return LogicalSort(child, self.sort_keys, self.fetch, self.offset)

    def _build_digest(self) -> str:
        keys = [f"{i}{'' if asc else 'd'}" for i, asc in self.sort_keys]
        # Offset is rare; keep the digest byte-stable for offset-free plans
        # so plan-cache keys and golden EXPLAIN snapshots do not churn.
        extra = f", offset={self.offset}" if self.offset is not None else ""
        return (
            f"Sort(keys={keys}, fetch={self.fetch}{extra}, "
            f"{self.inputs[0].digest()})"
        )

    def _explain_self(self) -> str:
        keys = [f"${i}{'' if asc else ' DESC'}" for i, asc in self.sort_keys]
        extra = f", offset={self.offset}" if self.offset is not None else ""
        return f"LogicalSort(keys={keys}, fetch={self.fetch}{extra})"


class LogicalValues(RelNode):
    """A constant relation (used for single-row subquery scaffolding)."""

    def __init__(self, rows: Sequence[Tuple], names: Sequence[str]):
        super().__init__(inputs=(), fields=names)
        self.rows: Tuple[Tuple, ...] = tuple(tuple(r) for r in rows)

    def copy(self, inputs: Sequence[RelNode]) -> "LogicalValues":
        return LogicalValues(self.rows, self.fields)

    def _build_digest(self) -> str:
        return f"Values({self.rows!r})"

    def _explain_self(self) -> str:
        return f"LogicalValues({len(self.rows)} rows)"


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


def walk(node: RelNode):
    """Pre-order traversal of a plan tree."""
    yield node
    for child in node.inputs:
        yield from walk(child)


def count_joins(node: RelNode) -> int:
    """Total join operators in the tree (Section 4.3's second condition)."""
    return sum(1 for n in walk(node) if isinstance(n, LogicalJoin))


def max_nested_joins(node: RelNode) -> int:
    """Deepest chain of joins stacked on one another (first condition)."""

    def depth(n: RelNode) -> int:
        child_depth = max((depth(c) for c in n.inputs), default=0)
        if isinstance(n, LogicalJoin):
            return child_depth + 1
        return child_depth

    return depth(node)


def scans_in(node: RelNode) -> List[LogicalTableScan]:
    return [n for n in walk(node) if isinstance(n, LogicalTableScan)]


def column_origin(
    node: RelNode, column: int, preserving: bool = False
) -> Optional[Tuple[LogicalTableScan, int]]:
    """The base-table column that output ``column`` of ``node`` copies:
    ``(scan, position in the scan's output)``, or None for a computed
    column, an aggregate result or a constant relation.

    This is the only lineage walk in the planner; the returned scan is the
    node of the tree itself, so the two sides of a self-join stay apart.
    ``scan.column_names[position]`` names the column.  With ``preserving``
    the walk stops at anything that can change the column's value
    *multiset* — a filter, join, aggregate or FETCH/OFFSET sort — which is
    what a whole-table synopsis (an AGMS sketch) needs to stay sound.
    """
    while True:
        if isinstance(node, LogicalTableScan):
            return node, column
        if isinstance(node, LogicalProject):
            expr = node.exprs[column]
            if not isinstance(expr, ColRef):
                return None
            node, column = node.input, expr.index
        elif isinstance(node, LogicalSort):
            if preserving and (node.fetch is not None or node.offset is not None):
                return None
            node = node.input
        elif preserving:
            return None
        elif isinstance(node, LogicalFilter):
            node = node.input
        elif isinstance(node, LogicalJoin):
            left_width = node.left.width
            if node.join_type.projects_right and column >= left_width:
                node, column = node.right, column - left_width
            else:
                node = node.left
        elif isinstance(node, LogicalAggregate) and column < len(node.group_keys):
            node, column = node.input, node.group_keys[column]
        else:
            return None
