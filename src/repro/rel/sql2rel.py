"""SQL AST to logical relational algebra conversion.

This is the analogue of Calcite's ``SqlToRelConverter``: it resolves names
against the catalog, builds the initial (unoptimised) query tree (Figure 2
of the paper) and — like Calcite — rewrites subqueries into relational
form:

* ``EXISTS`` / ``NOT EXISTS``  -> semi / anti join against the outer plan;
* ``x IN (subquery)``          -> semi join on the subquery output column;
* correlated scalar aggregate  -> grouped aggregate joined on the
  correlation keys (classic decorrelation);
* uncorrelated scalar aggregate-> single-row subplan cross-joined in.

The converter deliberately emits *naive* trees: plain WHERE conjuncts are
applied as a Filter **above** the subquery-derived joins, exactly where
Calcite's initial tree leaves filters relative to correlations.  Pushing
that filter past a semi/anti join is the job of the ``FILTER_CORRELATE``
rule that the baseline system is missing (Section 4.1) — which is how the
reproduction recreates the Q4/Q22 behaviour.

It also reproduces the unresolved planner defect that forces the paper to
disable TPC-H Q20 (Section 6): converting an ``IN`` subquery whose body
contains a further *correlated* scalar subquery raises
:class:`PlannerDefectError` on every system variant, as in the paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.catalog.schema import Catalog
from repro.common.errors import (
    PlannerDefectError,
    UnsupportedSqlError,
    ValidationError,
)
from repro.rel import expr as rex
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    make_conjunction,
    shift_refs,
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
    RelNode,
)
from repro.rel.logical import LogicalTableScan
from repro.sql import ast

_AGG_FUNCS = {
    "sum": AggFunc.SUM,
    "count": AggFunc.COUNT,
    "avg": AggFunc.AVG,
    "min": AggFunc.MIN,
    "max": AggFunc.MAX,
}


class Scope:
    """Name-resolution scope: binding name -> (offset, column names).

    Scopes chain to their parent for correlated references; ``resolve``
    reports the nesting *level* (0 = current scope, 1 = immediate outer).
    """

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._bindings: List[Tuple[str, List[str], int]] = []
        self._width = 0

    def add(self, binding: str, column_names: Sequence[str]) -> None:
        binding = binding.lower()
        if any(b == binding for b, _, _ in self._bindings):
            raise ValidationError(f"duplicate table alias {binding}")
        self._bindings.append((binding, [c.lower() for c in column_names], self._width))
        self._width += len(column_names)

    @property
    def width(self) -> int:
        return self._width

    def try_resolve(
        self, qualifier: Optional[str], column: str
    ) -> Optional[Tuple[int, int]]:
        """Return ``(level, index)`` or None if unresolvable."""
        column = column.lower()
        qualifier = qualifier.lower() if qualifier else None
        scope: Optional[Scope] = self
        level = 0
        while scope is not None:
            matches = []
            for binding, cols, offset in scope._bindings:
                if qualifier is not None and binding != qualifier:
                    continue
                if column in cols:
                    matches.append(offset + cols.index(column))
            if len(matches) > 1:
                raise ValidationError(f"ambiguous column reference {column}")
            if matches:
                return (level, matches[0])
            scope = scope.parent
            level += 1
        return None

    def resolve(self, qualifier: Optional[str], column: str) -> Tuple[int, int]:
        result = self.try_resolve(qualifier, column)
        if result is None:
            name = f"{qualifier}.{column}" if qualifier else column
            raise ValidationError(f"unknown column {name}")
        return result

    def field_name(self, index: int) -> str:
        for binding, cols, offset in self._bindings:
            if offset <= index < offset + len(cols):
                return f"{binding}.{cols[index - offset]}"
        raise ValidationError(f"no field at index {index}")


class SqlToRelConverter:
    """Converts parsed SELECT statements into logical plans."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._anon = 0

    # -- public API ---------------------------------------------------------

    def convert(self, select: ast.Select) -> RelNode:
        plan, _ = self._convert_select(select, outer=None)
        return plan

    # -- FROM clause -----------------------------------------------------------

    def _convert_select(
        self, select: ast.Select, outer: Optional[Scope]
    ) -> Tuple[RelNode, Scope]:
        plan, scope = self._build_from(select.from_items, outer)
        plan = self._apply_where(plan, scope, _ast_conjuncts(select.where))
        plan = self._build_projection(plan, scope, select)
        return plan, scope

    def _build_from(
        self, from_items: Sequence[ast.TableExpr], outer: Optional[Scope]
    ) -> Tuple[RelNode, Scope]:
        if not from_items:
            raise ValidationError("FROM clause is empty")
        scope = Scope(parent=outer)
        plan: Optional[RelNode] = None
        for item in from_items:
            plan = self._convert_table(item, plan, scope)
        assert plan is not None
        return plan, scope

    def _convert_table(
        self, item: ast.TableExpr, plan: Optional[RelNode], scope: Scope
    ) -> RelNode:
        if isinstance(item, ast.TableRef):
            schema = self.catalog.table(item.name)
            node: RelNode = LogicalTableScan(
                schema.name, item.binding, schema.column_names
            )
            scope.add(item.binding, schema.column_names)
        elif isinstance(item, ast.SubqueryRef):
            subplan, _ = self._convert_select(item.select, outer=None)
            # Re-alias the derived table's columns under its binding name.
            names = [f.split(".")[-1] for f in subplan.fields]
            node = LogicalProject(
                subplan,
                [ColRef(i, n) for i, n in enumerate(subplan.fields)],
                [f"{item.binding}.{n}" for n in names],
            )
            scope.add(item.binding, names)
        elif isinstance(item, ast.JoinExpr):
            left = self._convert_table(item.left, plan, scope)
            # The ON condition may reference both sides, so convert the
            # right side first, then the condition against the grown scope.
            right_start = scope.width
            right = self._convert_table(item.right, None, scope)
            condition = (
                self._convert_expr(item.condition, scope)
                if item.condition is not None
                else None
            )
            join_type = JoinType.LEFT if item.kind == "left" else JoinType.INNER
            if plan is not None and left is not plan:
                raise ValidationError("malformed join tree")
            return LogicalJoin(left, right, condition, join_type)
        else:  # pragma: no cover - parser produces only the above
            raise ValidationError(f"unsupported FROM item {item!r}")
        if plan is None:
            return node
        return LogicalJoin(plan, node, None, JoinType.INNER)

    # -- WHERE clause ---------------------------------------------------------------

    def _apply_where(
        self, plan: RelNode, scope: Scope, conjuncts: Sequence[ast.SqlExpr]
    ) -> RelNode:
        """Subquery-derived joins first; the plain filter goes on top —
        exactly where the unoptimised Calcite tree leaves it, so pushing
        it down requires the FILTER_CORRELATE rule (Section 4.1)."""
        plain: List[ast.SqlExpr] = []
        scalar_filters: List[Expr] = []
        for conjunct in conjuncts:
            if _contains_subquery(conjunct):
                plan = self._apply_subquery_conjunct(
                    plan, scope, conjunct, scalar_filters
                )
            else:
                plain.append(conjunct)
        conjuncts = [self._convert_expr(c, scope) for c in plain]
        condition = make_conjunction(conjuncts + scalar_filters)
        if condition is not None:
            plan = LogicalFilter(plan, condition)
        return plan

    def _apply_subquery_conjunct(
        self,
        plan: RelNode,
        scope: Scope,
        conjunct: ast.SqlExpr,
        scalar_filters: List[Expr],
    ) -> RelNode:
        if isinstance(conjunct, ast.ExistsExpr):
            return self._apply_exists(plan, scope, conjunct)
        if isinstance(conjunct, ast.InExpr) and conjunct.subquery is not None:
            return self._apply_in_subquery(plan, scope, conjunct)
        if isinstance(conjunct, ast.Binary) and conjunct.op in rex.MIRRORED:
            left_sub = isinstance(conjunct.left, ast.ScalarSubquery)
            right_sub = isinstance(conjunct.right, ast.ScalarSubquery)
            if left_sub == right_sub:
                raise UnsupportedSqlError(
                    "exactly one side of a scalar-subquery comparison "
                    "must be a subquery"
                )
            if left_sub:
                op = rex.MIRRORED[conjunct.op]
                other, subquery = conjunct.right, conjunct.left
            else:
                op = conjunct.op
                other, subquery = conjunct.left, conjunct.right
            assert isinstance(subquery, ast.ScalarSubquery)
            return self._apply_scalar_comparison(
                plan, scope, op, other, subquery.subquery, scalar_filters
            )
        raise UnsupportedSqlError(
            f"unsupported subquery predicate: {type(conjunct).__name__}"
        )

    # EXISTS / NOT EXISTS ----------------------------------------------------------

    def _apply_exists(
        self, plan: RelNode, scope: Scope, exists: ast.ExistsExpr
    ) -> RelNode:
        subplan, correlated = self._convert_correlated_body(exists.subquery, scope)
        condition = self._correlation_condition(plan.width, scope, subplan, correlated)
        join_type = JoinType.ANTI if exists.negated else JoinType.SEMI
        return LogicalJoin(
            plan, subplan, condition, join_type,
            correlate_origin=bool(correlated),
        )

    def _apply_in_subquery(
        self, plan: RelNode, scope: Scope, in_expr: ast.InExpr
    ) -> RelNode:
        subquery = in_expr.subquery
        assert subquery is not None
        self._check_q20_defect(subquery)
        subplan, correlated = self._convert_correlated_body(subquery, scope)
        # Value column: the subquery's (single) select item.
        if len(subquery.items) != 1:
            raise UnsupportedSqlError("IN subquery must select one column")
        operand = self._convert_expr(in_expr.operand, scope)
        value_ref = ColRef(plan.width, subplan.fields[0])
        condition_parts = [BinaryOp("=", operand, value_ref)]
        corr = self._correlation_condition(plan.width, scope, subplan, correlated)
        if corr is not None:
            condition_parts.append(corr)
        condition = make_conjunction(condition_parts)
        join_type = JoinType.ANTI if in_expr.negated else JoinType.SEMI
        return LogicalJoin(
            plan, subplan, condition, join_type,
            correlate_origin=bool(correlated),
        )

    def _check_q20_defect(self, subquery: ast.Select) -> None:
        """Reproduce the unresolved Q20 planning bug (Section 6).

        Converting an IN subquery whose WHERE contains a *correlated scalar
        subquery* trips the defect, matching "Query 20 contained an
        unresolved bug in the planning code".
        """
        for conjunct in _ast_conjuncts(subquery.where):
            for node in _walk_ast(conjunct):
                if isinstance(node, ast.ScalarSubquery):
                    raise PlannerDefectError(
                        "planner defect: IN subquery containing a scalar "
                        "subquery fails to plan (unresolved Ignite+Calcite "
                        "bug; TPC-H Q20)"
                    )

    # Scalar subquery comparison -------------------------------------------------------

    def _apply_scalar_comparison(
        self,
        plan: RelNode,
        scope: Scope,
        op: str,
        other: ast.SqlExpr,
        subquery: ast.Select,
        scalar_filters: List[Expr],
    ) -> RelNode:
        agg_item = self._single_aggregate_item(subquery)
        inner_plan, inner_scope = self._build_from(subquery.from_items, scope)
        inner_conjuncts, correlated = self._split_correlation(subquery, inner_scope)
        inner_plan = self._apply_where(inner_plan, inner_scope, inner_conjuncts)

        func = _AGG_FUNCS[agg_item.name]
        arg_expr = (
            self._convert_expr(agg_item.args[0], inner_scope)
            if agg_item.args
            else None
        )
        outer_width = plan.width

        if not correlated:
            # Uncorrelated: a single-row aggregate subplan, cross-joined in.
            pre_exprs = [arg_expr] if arg_expr is not None else []
            pre = LogicalProject(
                inner_plan, pre_exprs, [f"$agg_arg{self._next_anon()}"] if pre_exprs else []
            ) if pre_exprs else inner_plan
            call = AggCall(func, ColRef(0) if arg_expr is not None else None,
                           distinct=agg_item.distinct, name="$scalar")
            agg = LogicalAggregate(pre, (), (call,))
            joined = LogicalJoin(plan, agg, None, JoinType.INNER)
            outer_expr = self._convert_expr(other, scope)
            scalar_filters.append(
                BinaryOp(op, outer_expr, ColRef(outer_width, "$scalar"))
            )
            return joined

        # Correlated: group the subplan by the correlation keys, aggregate,
        # and inner-join the outer plan on those keys (decorrelation).
        inner_key_exprs: List[Expr] = []
        outer_key_exprs: List[Expr] = []
        for corr_op, outer_ast, inner_ast in correlated:
            if corr_op != "=":
                raise UnsupportedSqlError(
                    "correlated scalar subquery requires equality correlation"
                )
            inner_key_exprs.append(self._convert_expr(inner_ast, inner_scope))
            outer_key_exprs.append(self._convert_expr(outer_ast, scope))
        pre_exprs = list(inner_key_exprs)
        pre_names = [f"$ck{i}" for i in range(len(inner_key_exprs))]
        if arg_expr is not None:
            pre_exprs.append(arg_expr)
            pre_names.append("$agg_arg")
        pre = LogicalProject(inner_plan, pre_exprs, pre_names)
        call = AggCall(
            func,
            ColRef(len(inner_key_exprs)) if arg_expr is not None else None,
            distinct=agg_item.distinct,
            name="$scalar",
        )
        agg = LogicalAggregate(pre, tuple(range(len(inner_key_exprs))), (call,))
        join_parts = [
            BinaryOp("=", outer_key, ColRef(outer_width + i, f"$ck{i}"))
            for i, outer_key in enumerate(outer_key_exprs)
        ]
        joined = LogicalJoin(
            plan, agg, make_conjunction(join_parts), JoinType.INNER,
            correlate_origin=True,
        )
        outer_expr = self._convert_expr(other, scope)
        value_index = outer_width + len(inner_key_exprs)
        scalar_filters.append(BinaryOp(op, outer_expr, ColRef(value_index, "$scalar")))
        return joined

    def _single_aggregate_item(self, subquery: ast.Select) -> ast.FunctionCall:
        if (
            len(subquery.items) != 1
            or not isinstance(subquery.items[0].expr, ast.FunctionCall)
            or subquery.items[0].expr.name not in _AGG_FUNCS
            or subquery.group_by
        ):
            raise UnsupportedSqlError(
                "scalar subquery must be a single ungrouped aggregate"
            )
        return subquery.items[0].expr

    # Correlation machinery -------------------------------------------------------------

    def _split_correlation(
        self, subquery: ast.Select, inner_scope: Scope
    ) -> Tuple[List[ast.SqlExpr], List[Tuple[str, ast.SqlExpr, ast.SqlExpr]]]:
        """Split the subquery WHERE into inner-only conjuncts and
        correlation triples ``(op, outer_side_ast, inner_side_ast)``."""
        inner_conjuncts: List[ast.SqlExpr] = []
        correlated: List[Tuple[str, ast.SqlExpr, ast.SqlExpr]] = []
        for conjunct in _ast_conjuncts(subquery.where):
            level = self._conjunct_level(conjunct, inner_scope)
            if level == 0:
                inner_conjuncts.append(conjunct)
                continue
            if level > 1:
                raise UnsupportedSqlError(
                    "correlation deeper than one level is unsupported"
                )
            if not isinstance(conjunct, ast.Binary) or conjunct.op not in rex.MIRRORED:
                raise UnsupportedSqlError(
                    "correlated predicate must be a simple comparison"
                )
            left_level = self._conjunct_level(conjunct.left, inner_scope)
            right_level = self._conjunct_level(conjunct.right, inner_scope)
            if left_level == 1 and right_level == 0:
                correlated.append((rex.MIRRORED[conjunct.op], conjunct.left, conjunct.right))
            elif left_level == 0 and right_level == 1:
                correlated.append((conjunct.op, conjunct.right, conjunct.left))
            else:
                raise UnsupportedSqlError(
                    "correlated comparison must reference exactly one outer "
                    "and one inner column"
                )
        return inner_conjuncts, correlated

    def _conjunct_level(self, conjunct: ast.SqlExpr, scope: Scope) -> int:
        level = 0
        for node in _walk_ast(conjunct):
            if isinstance(node, ast.Identifier):
                resolved = scope.resolve(node.qualifier, node.column)
                level = max(level, resolved[0])
        return level

    def _convert_correlated_body(
        self, subquery: ast.Select, outer_scope: Scope
    ) -> Tuple[RelNode, List[Tuple[str, ast.SqlExpr, ast.SqlExpr, Scope]]]:
        """Convert an EXISTS/IN subquery body.

        Returns the subplan (projecting the select items, so field 0 is the
        IN value column) plus the correlation triples with the inner scope
        they must be converted against.
        """
        plan, inner_scope = self._build_from(subquery.from_items, outer_scope)
        inner_conjuncts, correlated = self._split_correlation(subquery, inner_scope)
        if not correlated and (
            subquery.group_by
            or subquery.having is not None
            or any(_contains_aggregate(i.expr) for i in subquery.items)
        ):
            # Uncorrelated body with aggregation (e.g. TPC-H Q18's IN over a
            # grouped HAVING subquery): convert it as a full SELECT.
            full_plan, _ = self._convert_select(subquery, outer=None)
            return full_plan, []
        # Inner conjuncts may themselves contain subqueries (nested INs,
        # correlated scalar aggregates — TPC-H Q20's shape); route them
        # through the same subquery machinery against the inner scope.
        plan = self._apply_where(plan, inner_scope, inner_conjuncts)
        # Project the select items so IN sees its value column at index 0,
        # followed by any correlation columns the join condition needs.
        exprs: List[Expr] = []
        names: List[str] = []
        for item in subquery.items:
            if isinstance(item.expr, ast.FunctionCall) and item.expr.star:
                continue  # EXISTS (SELECT * ...): no value column needed
            exprs.append(self._convert_expr(item.expr, inner_scope))
            names.append(item.alias or f"$c{len(names)}")
        corr_out: List[Tuple[str, ast.SqlExpr, "_ProjectedInner", Scope]] = []
        for corr_op, outer_ast, inner_ast in correlated:
            position = len(exprs)
            exprs.append(self._convert_expr(inner_ast, inner_scope))
            names.append(f"$corr{position}")
            corr_out.append((corr_op, outer_ast, _ProjectedInner(position), inner_scope))
        if not exprs:
            # EXISTS(SELECT * FROM t) with no correlation: keep one column.
            exprs = [ColRef(0, plan.fields[0])]
            names = [plan.fields[0].split(".")[-1]]
        return LogicalProject(plan, exprs, names), corr_out

    def _correlation_condition(
        self,
        outer_width: int,
        outer_scope: Scope,
        subplan: RelNode,
        correlated: List[Tuple[str, ast.SqlExpr, object, Scope]],
    ) -> Optional[Expr]:
        parts: List[Expr] = []
        for corr_op, outer_ast, inner_pos, _scope in correlated:
            assert isinstance(inner_pos, _ProjectedInner)
            outer_expr = self._convert_expr(outer_ast, outer_scope)
            inner_ref = ColRef(
                outer_width + inner_pos.position,
                subplan.fields[inner_pos.position],
            )
            parts.append(BinaryOp(corr_op, outer_expr, inner_ref))
        return make_conjunction(parts)

    # -- SELECT list / GROUP BY ------------------------------------------------------------

    def _build_projection(
        self, plan: RelNode, scope: Scope, select: ast.Select
    ) -> RelNode:
        has_aggregate = bool(select.group_by) or any(
            _contains_aggregate(item.expr) for item in select.items
        ) or (select.having is not None and _contains_aggregate(select.having))

        if has_aggregate:
            return self._build_aggregate(plan, scope, select)

        exprs: List[Expr] = []
        names: List[str] = []
        for item in select.items:
            if isinstance(item.expr, ast.FunctionCall) and item.expr.star:
                for index, field in enumerate(plan.fields):
                    exprs.append(ColRef(index, field))
                    names.append(field)
                continue
            exprs.append(self._convert_expr(item.expr, scope))
            names.append(item.alias or _display_name(item.expr, len(names)))
        result: RelNode = LogicalProject(plan, exprs, names)
        if select.distinct:
            result = LogicalAggregate(result, tuple(range(len(names))), ())
        result = self._apply_order_limit(
            result, select, names,
            lambda e: self._convert_expr(e, scope),
        )
        return result

    def _build_aggregate(
        self, plan: RelNode, scope: Scope, select: ast.Select
    ) -> RelNode:
        group_rex = [self._convert_expr(g, scope) for g in select.group_by]
        group_digests = [g.digest() for g in group_rex]

        agg_calls_ast: List[ast.FunctionCall] = []
        agg_digests: List[str] = []

        def collect(expr: ast.SqlExpr) -> None:
            for node in _walk_ast(expr):
                if isinstance(node, ast.FunctionCall) and node.name in _AGG_FUNCS:
                    digest = self._agg_digest(node, scope)
                    if digest not in agg_digests:
                        agg_digests.append(digest)
                        agg_calls_ast.append(node)

        for item in select.items:
            collect(item.expr)
        if select.having is not None:
            collect(select.having)
        for order in select.order_by:
            collect(order.expr)

        # Pre-projection: group keys then aggregate arguments.
        pre_exprs: List[Expr] = list(group_rex)
        pre_names: List[str] = [f"$g{i}" for i in range(len(group_rex))]
        agg_calls: List[AggCall] = []
        for pos, call_ast in enumerate(agg_calls_ast):
            func = _AGG_FUNCS[call_ast.name]
            if call_ast.star or not call_ast.args:
                agg_calls.append(
                    AggCall(func, None, distinct=call_ast.distinct, name=f"$a{pos}")
                )
                continue
            arg = self._convert_expr(call_ast.args[0], scope)
            arg_index = len(pre_exprs)
            pre_exprs.append(arg)
            pre_names.append(f"$arg{pos}")
            agg_calls.append(
                AggCall(
                    func,
                    ColRef(arg_index, f"$arg{pos}"),
                    distinct=call_ast.distinct,
                    name=f"$a{pos}",
                )
            )
        pre = LogicalProject(plan, pre_exprs, pre_names)
        agg = LogicalAggregate(pre, tuple(range(len(group_rex))), tuple(agg_calls))

        def rewrite(expr: ast.SqlExpr) -> Expr:
            """Rewrite a post-aggregation expression over agg outputs."""
            if isinstance(expr, ast.FunctionCall) and expr.name in _AGG_FUNCS:
                digest = self._agg_digest(expr, scope)
                index = agg_digests.index(digest)
                return ColRef(len(group_rex) + index, f"$a{index}")
            # A whole group-by expression?
            try:
                converted = self._convert_expr(expr, scope)
            except ValidationError:
                converted = None
            if converted is not None and converted.digest() in group_digests:
                index = group_digests.index(converted.digest())
                return ColRef(index, f"$g{index}")
            # Recurse into compound expressions.
            if isinstance(expr, ast.Binary):
                return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, ast.Unary):
                return UnaryOp(expr.op, rewrite(expr.operand))
            if isinstance(expr, ast.Case):
                whens = [(rewrite(c), rewrite(v)) for c, v in expr.whens]
                default = rewrite(expr.default) if expr.default else Literal(None)
                return CaseExpr(whens, default)
            if isinstance(expr, ast.NumberLiteral):
                return Literal(expr.value)
            if isinstance(expr, ast.StringLiteral):
                return Literal(expr.value)
            raise ValidationError(
                f"expression {expr!r} is neither aggregated nor grouped"
            )

        result: RelNode = agg
        if select.having is not None:
            result = LogicalFilter(result, rewrite(select.having))

        exprs: List[Expr] = []
        names: List[str] = []
        for item in select.items:
            exprs.append(rewrite(item.expr))
            names.append(item.alias or _display_name(item.expr, len(names)))
        result = LogicalProject(result, exprs, names)
        if select.distinct:
            result = LogicalAggregate(result, tuple(range(len(names))), ())
        result = self._apply_order_limit(result, select, names, rewrite)
        del rewrite  # a recursive closure and its own cell form a cycle: break it
        return result

    def _apply_order_limit(
        self,
        plan: RelNode,
        select: ast.Select,
        output_names: Sequence[str],
        exprs: Optional[Callable[[ast.SqlExpr], Expr]],
    ) -> RelNode:
        offset = select.offset or None  # normalise OFFSET 0 away
        if not select.order_by and select.limit is None and offset is None:
            return plan
        keys: List[Tuple[int, bool]] = []
        for order in select.order_by:
            index = self._resolve_order_expr(order.expr, plan, output_names, exprs)
            keys.append((index, order.ascending))
        return LogicalSort(plan, keys, select.limit, offset)

    def _resolve_order_expr(
        self,
        expr: ast.SqlExpr,
        plan: RelNode,
        output_names: Sequence[str],
        rewrite: Optional[Callable[[ast.SqlExpr], Expr]],
    ) -> int:
        # Positional (ORDER BY 1).
        if isinstance(expr, ast.NumberLiteral) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(output_names):
                raise ValidationError(f"ORDER BY position {expr.value} out of range")
            return index
        # Alias or output column name.
        if isinstance(expr, ast.Identifier) and expr.qualifier is None:
            name = expr.column.lower()
            lowered = [n.lower() for n in output_names]
            if name in lowered:
                return lowered.index(name)
            suffixes = [n.lower().split(".")[-1] for n in output_names]
            if suffixes.count(name) == 1:
                return suffixes.index(name)
        # Expression matching one of the projected expressions.
        if rewrite is not None:
            converted = rewrite(expr)
            project = plan
            while not isinstance(project, LogicalProject):
                project = project.inputs[0]
            for index, proj_expr in enumerate(project.exprs):
                if proj_expr.digest() == converted.digest():
                    return index
        raise ValidationError(f"cannot resolve ORDER BY expression {expr!r}")

    # -- expressions ------------------------------------------------------------------------

    def _convert_expr(self, expr: ast.SqlExpr, scope: Scope) -> Expr:
        if isinstance(expr, ast.Identifier):
            level, index = scope.resolve(expr.qualifier, expr.column)
            if level != 0:
                raise ValidationError(
                    f"correlated reference {expr.column} used outside a "
                    "supported correlation position"
                )
            return ColRef(index, scope.field_name(index))
        if isinstance(expr, ast.NumberLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return Literal(expr.value)
        if isinstance(expr, ast.NullLiteral):
            return Literal(None)
        if isinstance(expr, ast.Binary):
            return BinaryOp(
                expr.op,
                self._convert_expr(expr.left, scope),
                self._convert_expr(expr.right, scope),
            )
        if isinstance(expr, ast.Unary):
            return UnaryOp(expr.op, self._convert_expr(expr.operand, scope))
        if isinstance(expr, ast.FunctionCall):
            if expr.name in _AGG_FUNCS:
                raise ValidationError(
                    f"aggregate {expr.name} in a non-aggregate context"
                )
            name = {"substr": "SUBSTRING"}.get(expr.name, expr.name).upper()
            return FuncCall(name, [self._convert_expr(a, scope) for a in expr.args])
        if isinstance(expr, ast.Case):
            whens = [
                (self._convert_expr(c, scope), self._convert_expr(v, scope))
                for c, v in expr.whens
            ]
            default = (
                self._convert_expr(expr.default, scope)
                if expr.default is not None
                else Literal(None)
            )
            return CaseExpr(whens, default)
        if isinstance(expr, ast.InExpr):
            if expr.subquery is not None:
                raise UnsupportedSqlError(
                    "IN subquery outside of a top-level WHERE conjunct"
                )
            operand = self._convert_expr(expr.operand, scope)
            values = []
            for value in expr.values or []:
                converted = self._convert_expr(value, scope)
                if not isinstance(converted, Literal):
                    raise UnsupportedSqlError("IN list must contain literals")
                values.append(converted.value)
            return InList(operand, values, expr.negated)
        if isinstance(expr, ast.BetweenExpr):
            operand = self._convert_expr(expr.operand, scope)
            low = self._convert_expr(expr.low, scope)
            high = self._convert_expr(expr.high, scope)
            between = BinaryOp(
                "AND", BinaryOp(">=", operand, low), BinaryOp("<=", operand, high)
            )
            if expr.negated:
                return UnaryOp("NOT", between)
            return between
        if isinstance(expr, ast.LikeExprAst):
            return LikeExpr(
                self._convert_expr(expr.operand, scope), expr.pattern, expr.negated
            )
        if isinstance(expr, ast.IsNullExpr):
            return IsNull(self._convert_expr(expr.operand, scope), expr.negated)
        if isinstance(expr, (ast.ExistsExpr, ast.ScalarSubquery)):
            raise UnsupportedSqlError(
                "subquery outside of a top-level WHERE conjunct"
            )
        raise ValidationError(f"unsupported expression {expr!r}")

    def _agg_digest(self, call: ast.FunctionCall, scope: Scope) -> str:
        if call.star or not call.args:
            arg = "*"
        else:
            arg = self._convert_expr(call.args[0], scope).digest()
        return f"{call.name}({'distinct ' if call.distinct else ''}{arg})"

    def _next_anon(self) -> int:
        self._anon += 1
        return self._anon


class _ProjectedInner:
    """Marks a correlation column's position within the subquery projection."""

    __slots__ = ("position",)

    def __init__(self, position: int):
        self.position = position


# ---------------------------------------------------------------------------
# AST analysis helpers
# ---------------------------------------------------------------------------


def _ast_conjuncts(expr: Optional[ast.SqlExpr]) -> List[ast.SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _ast_conjuncts(expr.left) + _ast_conjuncts(expr.right)
    return [expr]


def _walk_ast(expr: ast.SqlExpr):
    yield expr
    if isinstance(expr, ast.Binary):
        yield from _walk_ast(expr.left)
        yield from _walk_ast(expr.right)
    elif isinstance(expr, ast.Unary):
        yield from _walk_ast(expr.operand)
    elif isinstance(expr, ast.FunctionCall):
        for arg in expr.args:
            yield from _walk_ast(arg)
    elif isinstance(expr, ast.Case):
        for cond, value in expr.whens:
            yield from _walk_ast(cond)
            yield from _walk_ast(value)
        if expr.default is not None:
            yield from _walk_ast(expr.default)
    elif isinstance(expr, ast.InExpr):
        yield from _walk_ast(expr.operand)
        for value in expr.values or []:
            yield from _walk_ast(value)
    elif isinstance(expr, ast.BetweenExpr):
        yield from _walk_ast(expr.operand)
        yield from _walk_ast(expr.low)
        yield from _walk_ast(expr.high)
    elif isinstance(expr, (ast.LikeExprAst, ast.IsNullExpr)):
        yield from _walk_ast(expr.operand)


def _contains_subquery(expr: ast.SqlExpr) -> bool:
    return any(
        isinstance(node, (ast.ExistsExpr, ast.ScalarSubquery))
        or (isinstance(node, ast.InExpr) and node.subquery is not None)
        for node in _walk_ast(expr)
    )


def _contains_aggregate(expr: ast.SqlExpr) -> bool:
    return any(
        isinstance(node, ast.FunctionCall) and node.name in _AGG_FUNCS
        for node in _walk_ast(expr)
    )


def _display_name(expr: ast.SqlExpr, position: int) -> str:
    if isinstance(expr, ast.Identifier):
        return expr.column
    return f"expr{position}"
