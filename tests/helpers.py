"""Shared test utilities.

``naive_execute`` is an independent, deliberately simple interpreter for
*logical* plans — scans read whole tables, joins are nested loops, no
distribution, no optimisation.  It serves as the correctness oracle for
differential tests: whatever the optimised, fragmented, distributed engine
returns must match what this ten-line-per-operator evaluator returns.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.exec.aggregates import AggregateEvaluator
from repro.exec.operators import sort_rows
from repro.rel.expr import compile_expr
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


def naive_execute(node: RelNode, store: DataStore) -> List[Tuple]:
    """Evaluate a logical plan with zero cleverness."""
    if isinstance(node, LogicalTableScan):
        data = store.table(node.table)
        rows: List[Tuple] = []
        for partition in data.partitions:
            rows.extend(partition)
        return rows
    if isinstance(node, LogicalValues):
        return list(node.rows)
    if isinstance(node, LogicalFilter):
        rows = naive_execute(node.input, store)
        predicate = compile_expr(node.condition)
        return [r for r in rows if predicate(r)]
    if isinstance(node, LogicalProject):
        rows = naive_execute(node.input, store)
        fns = [compile_expr(e) for e in node.exprs]
        return [tuple(fn(r) for fn in fns) for r in rows]
    if isinstance(node, LogicalJoin):
        left = naive_execute(node.left, store)
        right = naive_execute(node.right, store)
        predicate = (
            compile_expr(node.condition) if node.condition is not None else None
        )
        out: List[Tuple] = []
        pad = (None,) * node.right.width
        for lrow in left:
            matched = False
            for rrow in right:
                combined = lrow + rrow
                if predicate is None or predicate(combined):
                    matched = True
                    if node.join_type.projects_right:
                        out.append(combined)
                    else:
                        break
            if node.join_type is JoinType.SEMI and matched:
                out.append(lrow)
            elif node.join_type is JoinType.ANTI and not matched:
                out.append(lrow)
            elif node.join_type is JoinType.LEFT and not matched:
                out.append(lrow + pad)
        return out
    if isinstance(node, LogicalAggregate):
        rows = naive_execute(node.input, store)
        evaluator = AggregateEvaluator(node.agg_calls)
        groups: Dict[Tuple, list] = {}
        for row in rows:
            key = tuple(row[k] for k in node.group_keys)
            acc = groups.get(key)
            if acc is None:
                acc = evaluator.new_group()
                groups[key] = acc
            evaluator.accumulate(acc, row)
        if not node.group_keys and not groups:
            groups[()] = evaluator.new_group()
        return [key + evaluator.results(acc) for key, acc in groups.items()]
    if isinstance(node, LogicalSort):
        rows = naive_execute(node.input, store)
        if node.sort_keys:
            rows = sort_rows(rows, node.sort_keys)
        if node.fetch is not None:
            rows = rows[: node.fetch]
        return rows
    raise TypeError(f"naive_execute cannot handle {type(node).__name__}")


def normalise(rows: Sequence[Tuple], ordered: bool = False) -> List[Tuple]:
    """Canonical form for result comparison (rounding floats)."""

    def canon(value):
        if isinstance(value, float):
            return round(value, 6)
        return value

    canonical = [tuple(canon(v) for v in row) for row in rows]
    if ordered:
        return canonical
    return sorted(canonical, key=repr)


# ---------------------------------------------------------------------------
# A tiny reusable test database
# ---------------------------------------------------------------------------

EMP_COLUMNS = [
    Column("emp_id", ColumnType.INTEGER),
    Column("dept_id", ColumnType.INTEGER),
    Column("name", ColumnType.VARCHAR),
    Column("salary", ColumnType.DOUBLE),
    Column("hired", ColumnType.DATE),
]

DEPT_COLUMNS = [
    Column("dept_id", ColumnType.INTEGER),
    Column("dept_name", ColumnType.VARCHAR),
    Column("budget", ColumnType.DOUBLE),
]

SALES_COLUMNS = [
    Column("sale_id", ColumnType.INTEGER),
    Column("emp_id", ColumnType.INTEGER),
    Column("amount", ColumnType.DOUBLE),
    Column("region", ColumnType.VARCHAR),
]


def make_company_store(
    sites: int = 4,
    employees: int = 120,
    departments: int = 8,
    sales: int = 500,
    seed: int = 5,
    partitions: int = 8,
    dept_skew: float = 0.0,
    sales_skew: float = 0.0,
    correlated_regions: bool = False,
) -> DataStore:
    """A small three-table database exercising joins and aggregates.

    ``dept_skew`` / ``sales_skew`` put that fraction of employees into
    department 1 / of sales onto employee 1 (a Zipf-like hot key that
    wrecks uniform-selectivity estimates); ``correlated_regions`` makes
    ``sales.region`` a pure function of ``emp_id`` instead of an
    independent draw, so a region predicate correlates with the join
    key.  All three default off and are applied as seeded post-passes,
    so the base dataset is byte-identical to the knob-free one.
    """
    rng = random.Random(seed)
    store = DataStore(site_count=sites, partitions_per_table=partitions)
    dept_rows = [
        (d, f"dept{d}", round(rng.uniform(1e4, 9e4), 2))
        for d in range(1, departments + 1)
    ]
    emp_rows = [
        (
            e,
            rng.randrange(1, departments + 1),
            f"emp{e}",
            round(rng.uniform(3e4, 2e5), 2),
            f"{rng.randrange(1990, 2024)}-{rng.randrange(1, 13):02d}-15",
        )
        for e in range(1, employees + 1)
    ]
    sales_rows = [
        (
            s,
            rng.randrange(1, employees + 1),
            round(rng.uniform(10, 5000), 2),
            rng.choice(["north", "south", "east", "west"]),
        )
        for s in range(1, sales + 1)
    ]
    if dept_skew:
        skew_rng = random.Random(seed ^ 0x5EED)
        emp_rows = [
            (e, 1, name, salary, hired)
            if skew_rng.random() < dept_skew
            else (e, d, name, salary, hired)
            for (e, d, name, salary, hired) in emp_rows
        ]
    if sales_skew:
        skew_rng = random.Random(seed ^ 0x5A1E)
        sales_rows = [
            (s, 1, amount, region)
            if skew_rng.random() < sales_skew
            else (s, e, amount, region)
            for (s, e, amount, region) in sales_rows
        ]
    if correlated_regions:
        regions = ["north", "south", "east", "west"]
        sales_rows = [
            (s, e, amount, regions[e % 4])
            for (s, e, amount, _region) in sales_rows
        ]
    store.create_table(
        TableSchema("dept", DEPT_COLUMNS, ["dept_id"], replicated=True),
        dept_rows,
    )
    store.create_table(TableSchema("emp", EMP_COLUMNS, ["emp_id"]), emp_rows)
    store.create_table(
        TableSchema(
            "sales", SALES_COLUMNS, ["sale_id"], affinity_key="sale_id"
        ),
        sales_rows,
    )
    store.create_index("emp", "emp_pk", ["emp_id"])
    store.create_index("sales", "sales_emp", ["emp_id"])
    return store


def make_company_cluster(config, **data_knobs):
    """An IgniteCalciteCluster over the company data set.

    ``data_knobs`` pass through to :func:`make_company_store` (e.g.
    ``sales_skew=0.9`` for the mid-query re-optimization scenarios).
    """
    from repro.core.cluster import IgniteCalciteCluster

    cluster = IgniteCalciteCluster(config)
    source = make_company_store(
        sites=config.sites,
        partitions=config.partitions_per_table,
        **data_knobs,
    )
    for name in source.table_names():
        data = source.table(name)
        rows = [row for part in data.partitions for row in part]
        cluster.create_table(_clone_schema(data.schema), rows)
    cluster.create_index("emp", "emp_pk", ["emp_id"])
    cluster.create_index("sales", "sales_emp", ["emp_id"])
    return cluster


#: Five spellings of one predicate on the indexed column of
#: :func:`make_indexed_cluster`'s table; the last leaves a residual filter
#: above the index range scan.
INDEXED_EQUALITY_SPELLINGS = (
    "g = 3",
    "3 = g",
    "g >= 3 and g <= 3",
    "g between 3 and 3",
    "g = 3 and v < 50",
)


def make_indexed_cluster(config):
    """A cluster holding ``t(id, g, v)``, 4,000 rows, indexed on ``g``
    (50 values): a predicate on ``g`` plans as an index range scan."""
    from repro.core.cluster import IgniteCalciteCluster

    cluster = IgniteCalciteCluster(config)
    columns = [Column(name, ColumnType.BIGINT) for name in ("id", "g", "v")]
    cluster.create_table(
        TableSchema("t", columns, ["id"]),
        [(i, i % 50, i % 100) for i in range(4000)],
    )
    cluster.create_index("t", "t_g", ["g"])
    return cluster


def _clone_schema(schema: TableSchema) -> TableSchema:
    return TableSchema(
        schema.name,
        schema.columns,
        schema.primary_key,
        affinity_key=schema.affinity_key,
        replicated=schema.replicated,
        adapter=schema.adapter,
    )


def make_federated_store(
    sites: int = 4,
    partitions: int = 8,
    seed: int = 5,
    **data_knobs,
) -> DataStore:
    """The company data set spread across all three storage adapters.

    ``emp`` stays on the native row store, ``sales`` moves to the
    columnar file adapter and ``dept`` (replicated) to the simulated
    remote catalog — so any emp/sales/dept join is a cross-source
    federated query.  Row contents are byte-identical to
    :func:`make_company_store` with the same knobs.
    """
    source = make_company_store(
        sites=sites, partitions=partitions, seed=seed, **data_knobs
    )
    store = DataStore(site_count=sites, partitions_per_table=partitions)
    adapters = {"emp": "native", "sales": "columnfile", "dept": "remote"}
    for name in source.table_names():
        data = source.table(name)
        rows = [row for part in data.partitions for row in part]
        schema = TableSchema(
            data.schema.name,
            data.schema.columns,
            data.schema.primary_key,
            affinity_key=data.schema.affinity_key,
            replicated=data.schema.replicated,
            adapter=adapters[name],
        )
        store.create_table(schema, rows)
    store.create_index("emp", "emp_pk", ["emp_id"])
    return store


# ---------------------------------------------------------------------------
# Reference (recursive) plan facts
# ---------------------------------------------------------------------------
#
# Physical nodes derive their cumulative cost, exchange flag, leaf
# partition sites and digest once, at construction.  These are the
# recursive definitions the planner used before that, kept here as the
# oracle the cached values are compared against bit for bit.


def reference_total_cost(node):
    """Eq. 1 by recursion: self cost, then each input's subtree, in order."""
    total = node.self_cost
    for child in node.inputs:
        total = total + reference_total_cost(child)
    return total


def reference_has_exchange(node) -> bool:
    if getattr(node, "is_exchange", False):
        return True
    return any(reference_has_exchange(child) for child in node.inputs)


def reference_leaf_partition_sites(node) -> int:
    sites = getattr(node, "partition_site_count", None)
    if sites is not None:
        return sites
    child_sites = [reference_leaf_partition_sites(c) for c in node.inputs]
    if not child_sites:
        return 1
    return min(child_sites)


def reference_distribution_factor(node) -> float:
    """Algorithm 2 by recursion."""
    if reference_has_exchange(node):
        return 1.0
    return float(reference_leaf_partition_sites(node))


def reference_digest(node) -> str:
    """The digest by full recursion.

    Every cached digest in ``node``'s tree is set aside first, so each
    node's ``_build_digest`` runs again over inputs that are themselves
    rebuilt; the cached values are put back afterwards.
    """
    saved = []

    def set_aside(n):
        saved.append((n, n._digest))
        n._digest = None
        for child in n.inputs:
            set_aside(child)

    set_aside(node)
    try:
        return node.digest()
    finally:
        for n, digest in saved:
            n._digest = digest


def reference_expr_digest(expr) -> str:
    """An expression's digest rebuilt from fresh nodes (no cached slot)."""
    from repro.rel.expr import ColRef, Literal

    def fresh(e):
        if isinstance(e, ColRef):
            return ColRef(e.index, e.name)
        if isinstance(e, Literal):
            return Literal(e.value)
        return e.with_children([fresh(c) for c in e.children()])

    return fresh(expr).digest()


# ---------------------------------------------------------------------------
# Expression oracle (PR 18)
# ---------------------------------------------------------------------------
#
# ``repro.rel.expr`` compiles an expression to Python source.  This is the
# closure tree it replaced — one lambda per node, walked per row — kept as
# the oracle the generated code is compared against, value for value and
# exception type for exception type.  It carries the same two evaluation
# contexts: under ``test`` (a filter or join condition) AND/OR are Python's
# short-circuit operators, everywhere else they are three-valued.


def _null_safe(fn):
    """SQL semantics: any comparison/arithmetic with NULL yields NULL
    (both operands are evaluated first)."""

    def wrapped(a, b):
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapped


_REFERENCE_BINARY_OPS = {
    "=": _null_safe(lambda a, b: a == b),
    "<>": _null_safe(lambda a, b: a != b),
    "<": _null_safe(lambda a, b: a < b),
    "<=": _null_safe(lambda a, b: a <= b),
    ">": _null_safe(lambda a, b: a > b),
    ">=": _null_safe(lambda a, b: a >= b),
    "+": _null_safe(lambda a, b: a + b),
    "-": _null_safe(lambda a, b: a - b),
    "*": _null_safe(lambda a, b: a * b),
    "/": _null_safe(lambda a, b: a / b),
}


def _kleene_and(left, right):
    def evaluate(row):
        a = left(row)
        if a is not None and not a:
            return a  # FALSE decides
        b = right(row)
        if a:
            return b
        return b if b is not None and not b else None

    return evaluate


def _kleene_or(left, right):
    def evaluate(row):
        a = left(row)
        if a:
            return a  # TRUE decides
        b = right(row)
        if b or a is not None:
            return b
        return None

    return evaluate


def reference_compile_expr(expr, test: bool = False):
    """Compile an expression tree into a ``row -> value`` closure tree."""
    from repro.rel import expr as rex

    compile_ = reference_compile_expr
    if isinstance(expr, rex.ColRef):
        index = expr.index
        return lambda row: row[index]
    if isinstance(expr, rex.Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, rex.BinaryOp):
        if expr.op in ("AND", "OR"):
            left = compile_(expr.left, test)
            right = compile_(expr.right, test)
            if not test:
                return (_kleene_and if expr.op == "AND" else _kleene_or)(left, right)
            if expr.op == "AND":
                return lambda row: left(row) and right(row)
            return lambda row: left(row) or right(row)
        left = compile_(expr.left)
        right = compile_(expr.right)
        fn = _REFERENCE_BINARY_OPS[expr.op]
        return lambda row: fn(left(row), right(row))
    if isinstance(expr, rex.UnaryOp):
        operand = compile_(expr.operand)
        if expr.op == "NOT":
            return lambda row: None if (v := operand(row)) is None else not v
        return lambda row: None if (v := operand(row)) is None else -v
    if isinstance(expr, rex.FuncCall):
        fn = rex.SCALAR_FUNCTIONS[expr.name]
        args = [compile_(a) for a in expr.args]
        if expr.name == "COALESCE":
            return lambda row: fn(*[a(row) for a in args])

        def call(row):
            values = [a(row) for a in args]
            if any(v is None for v in values):
                return None
            return fn(*values)

        return call
    if isinstance(expr, rex.CaseExpr):
        whens = [(compile_(c, True), compile_(v, test)) for c, v in expr.whens]
        default = compile_(expr.default, test)

        def case(row):
            for cond, value in whens:
                if cond(row):
                    return value(row)
            return default(row)

        return case
    if isinstance(expr, rex.InList):
        operand = compile_(expr.operand)
        values = expr.values
        if expr.negated:
            return lambda row: operand(row) not in values
        return lambda row: operand(row) in values
    if isinstance(expr, rex.LikeExpr):
        operand = compile_(expr.operand)
        matcher = expr._matcher
        if expr.negated:
            return lambda row: (
                None if (v := operand(row)) is None else not matcher(v)
            )
        return lambda row: None if (v := operand(row)) is None else matcher(v)
    if isinstance(expr, rex.IsNull):
        operand = compile_(expr.operand)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    raise TypeError(f"cannot compile expression {expr!r}")


# ---------------------------------------------------------------------------
# Ordering oracles (PR 18)
# ---------------------------------------------------------------------------
#
# The row interpreter compares raw values where a key column allows it.
# These are the definitions it must agree with: every comparison through
# ``NullsLast``, one stable pass per sort key, the merge join walking
# wrapped keys row by row.


def reference_sort_rows(rows, keys):
    from repro.common.ordering import NullsLast

    result = list(rows)
    for index, ascending in reversed(list(keys)):
        result.sort(key=lambda row, i=index: NullsLast(row[i]), reverse=not ascending)
    return result


def reference_merge_join(left, right, pairs, join_type, residual_fn, right_width):
    from repro.common.ordering import NullsLast, ordering_key

    left_keys = tuple(lk for lk, _ in pairs)
    right_keys = tuple(rk for _, rk in pairs)
    out = []
    pad = (None,) * right_width
    i = j = 0
    while i < len(left):
        raw = tuple(left[i][k] for k in left_keys)
        key = tuple(NullsLast(v) for v in raw)
        while j < len(right) and ordering_key(right[j], right_keys) < key:
            j += 1
        block_end = j
        if None not in raw:
            while (
                block_end < len(right)
                and ordering_key(right[block_end], right_keys) == key
            ):
                block_end += 1
        while i < len(left) and tuple(left[i][k] for k in left_keys) == raw:
            left_row = left[i]
            matched = False
            for right_row in right[j:block_end]:
                combined = left_row + right_row
                if residual_fn is None or residual_fn(combined):
                    matched = True
                    if join_type.projects_right:
                        out.append(combined)
                    else:
                        break
            if join_type is JoinType.SEMI and matched:
                out.append(left_row)
            elif join_type is JoinType.ANTI and not matched:
                out.append(left_row)
            elif join_type is JoinType.LEFT and not matched:
                out.append(left_row + pad)
            i += 1
    return out


def reference_aggregate_rows(rows, group_keys, calls, phase, runs):
    """An aggregate node's output by the ``AggAccumulator`` state machines
    (what the row interpreter ran before its generated loop)."""
    from repro.exec.physical import AggPhase

    evaluator = AggregateEvaluator(calls)
    groups: List[Tuple[Tuple, list]] = []
    by_key: Dict[Tuple, list] = {}
    for row in rows:
        key = tuple(row[k] for k in group_keys)
        if runs:
            acc = groups[-1][1] if groups and groups[-1][0] == key else None
        else:
            acc = by_key.get(key)
        if acc is None:
            acc = by_key[key] = evaluator.new_group()
            groups.append((key, acc))
        if phase is AggPhase.REDUCE:
            evaluator.merge_row(acc, row, len(group_keys))
        else:
            evaluator.accumulate(acc, row)
    if not group_keys and not groups and phase is not AggPhase.MAP:
        groups.append(((), evaluator.new_group()))
    finalize = evaluator.partials if phase is AggPhase.MAP else evaluator.results
    return [key + finalize(acc) for key, acc in groups]


# ---------------------------------------------------------------------------
# Reference (sort-based) keyed kernels of the columnar backend
# ---------------------------------------------------------------------------
#
# The columnar join probe addresses a table directly and grouping
# scatters first occurrences when the key codes are dense.  These are the
# kernels it ran before that — a stable argsort with two binary searches,
# and two rounds of ``np.unique`` — which the direct-address forms must
# reproduce array for array.


def reference_equi_candidates(left, right, pairs):
    import numpy as np
    from repro.exec.columnar import _join_codes

    lcodes, rcodes = _join_codes(left, right, pairs)
    order = np.argsort(rcodes, kind="stable")
    sorted_codes = rcodes[order]
    starts = np.searchsorted(sorted_codes, lcodes, side="left")
    ends = np.searchsorted(sorted_codes, lcodes, side="right")
    counts = ends - starts
    counts[lcodes < 0] = 0
    total = int(counts.sum())
    offsets = np.zeros(len(counts), dtype=np.int64)
    if len(counts):
        np.cumsum(counts[:-1], out=offsets[1:])
    cand_left = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos_in_bucket = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    cand_right = order[pos_in_bucket + np.repeat(starts, counts)]
    return cand_left, cand_right, counts, offsets, pos_in_bucket


def reference_group_ids(batch, keys):
    import numpy as np
    from repro.exec.columnar import _dict_codes

    combined = np.zeros(batch.length, dtype=np.int64)
    for key in keys:
        col = batch.column(key)
        if col.kind == "O":
            codes, count = _dict_codes(col.to_list())
        else:
            uniques, inv = np.unique(col.values, return_inverse=True)
            codes, count = inv.astype(np.int64, copy=True), len(uniques)
            if col.mask is not None:
                codes[col.mask] = count
                count += 1
        combined = combined * count + codes
    uniques, first_idx, inv = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[order] = np.arange(len(uniques), dtype=np.int64)
    return rank[inv.astype(np.int64, copy=False)], len(uniques), first_idx[order]
