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


def census_sort_rows(rows, keys):
    """``sort_rows`` as it was before it went raw-first: a pass over each
    key column's kinds (``orderable``) picks raw or ``NullsLast`` keys."""
    from operator import itemgetter

    from repro.common.ordering import orderable, ordering_key

    result = list(rows)
    if len({ascending for _, ascending in keys}) == 1:
        passes = [(tuple(index for index, _ in keys), keys[0][1])]
    else:
        passes = [((index,), ascending) for index, ascending in reversed(keys)]
    for positions, ascending in passes:
        if all(orderable(map(itemgetter(p), result)) for p in positions):
            key = itemgetter(*positions)
        else:
            key = lambda row, positions=positions: ordering_key(row, positions)
        result.sort(key=key, reverse=not ascending)
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


def per_row_join_kernel(node, name, params, condition, head, candidates):
    """The row join generator as it was before its probe became one
    comprehension: ``head`` ends in the ``for l in ...:`` over left rows
    and finds ``candidates``; each left row then runs its own loop or
    comprehension.  Returns ``(rows, tested)`` as the engine's does."""
    from repro.rel.expr import KernelBuilder

    width = node.left.width
    builder = KernelBuilder(lambda i: f"l[{i}]" if i < width else f"r[{i - width}]")
    test = None if condition is None else builder.render(condition, test=True)
    join_type = node.join_type
    if join_type.projects_right:
        where = "" if test is None else f" if {test}"
        body = [
            f"tested += len({candidates})",
            f"m = [l + r for r in {candidates}{where}]",
        ]
        if join_type is JoinType.INNER:
            body.append("out += m")
        else:
            pad = builder.bind((None,) * node.right.width)
            body += ["if m:", "    out += m", "else:", f"    out.append(l + {pad})"]
    elif test is None:
        keep = candidates if join_type is JoinType.SEMI else f"not {candidates}"
        body = [f"if {keep}:", "    out.append(l)"]
    else:
        body = [f"for r in {candidates}:", "    tested += 1", f"    if {test}:"]
        if join_type is JoinType.SEMI:  # emit on the first match
            body += ["        out.append(l)", "        break"]
        else:  # ANTI: emit when the loop finds none
            body += ["        break", "else:", "    out.append(l)"]
    lines = ["out = []", "tested = 0", *head, *(f"    {line}" for line in body)]
    return builder.function(name, params, lines + ["return out, tested"])


def _per_row_key(row, positions):
    if len(positions) == 1:
        return f"{row}[{positions[0]}]"
    return "(" + "".join(f"{row}[{p}], " for p in positions) + ")"


def per_row_nested_loop_join(node, left, right):
    """``(rows, tested)`` of the pre-comprehension nested-loop kernel."""
    kernel = per_row_join_kernel(
        node, "nested_loop_join", "left, right", node.condition,
        ["for l in left:"], "right",
    )
    return kernel(left, right)


def per_row_hash_join(node, left, right):
    """``(rows, tested)`` of the pre-comprehension hash-join kernel."""
    left_keys = [lk for lk, _ in node.pairs]
    right_keys = [rk for _, rk in node.pairs]
    null_free = "k is not None" if len(right_keys) == 1 else "None not in k"
    head = [
        "table = {}",
        "for r in right:",
        f"    k = {_per_row_key('r', right_keys)}",
        f"    if {null_free}:",
        "        if k in table:",
        "            table[k].append(r)",
        "        else:",
        "            table[k] = [r]",
        "get = table.get",
        "for l in left:",
        f"    bucket = get({_per_row_key('l', left_keys)}, ())",
    ]
    kernel = per_row_join_kernel(
        node, "hash_join", "left, right", node.residual, head, "bucket"
    )
    return kernel(left, right)


def walking_merge_join(node, left, right):
    """The row merge join as it was before it ran the hash-join kernel:
    a block walk over the two sorted key columns, raw where ``orderable``
    says raw ``<`` is the total order, through ``ordering_key`` otherwise.
    Returns the rows."""
    from itertools import repeat
    from operator import itemgetter

    from repro.common.ordering import orderable, ordering_key

    left_keys = [lk for lk, _ in node.pairs]
    right_keys = [rk for _, rk in node.pairs]
    lkeys = list(map(itemgetter(*left_keys), left))
    if all(
        orderable(map(itemgetter(lk), left), map(itemgetter(rk), right))
        for lk, rk in node.pairs
    ):
        rkeys = list(map(itemgetter(*right_keys), right))
        nulls = repeat(False)
    else:
        single = len(left_keys) == 1
        nulls = [key is None if single else None in key for key in lkeys]
        lkeys = [ordering_key(row, left_keys) for row in left]
        rkeys = [ordering_key(row, right_keys) for row in right]
    head = [
        "j, n = 0, len(right)",
        "block = prev = None",
        "for l, key, null in zip(left, lkeys, nulls):",
        "    if block is None or key != prev:",
        "        prev = key",
        "        while j < n and rkeys[j] < key:",
        "            j += 1",
        "        end = j",
        "        while end < n and rkeys[end] == key:",
        "            end += 1",
        "        block = () if null else right[j:end]",
    ]
    kernel = per_row_join_kernel(
        node, "merge_join", "left, right, lkeys, rkeys, nulls", node.residual,
        head, "block",
    )
    return kernel(left, right, lkeys, rkeys, nulls)[0]


def eager_nested_loop_join(node, site, ctx, left, right):
    """The row nested-loop join handler as it was before a condition-free
    inner join returned a deferred ``CrossProduct``: every join, cross
    products included, runs the generated kernel and returns a list."""
    from repro.common import charges

    ctx.precheck(node, site, charges.nested_loop_pairs(len(left), len(right)))
    return per_row_nested_loop_join(node, left, right)[0]


def eager_row_handlers():
    """The row backend's handler table with :func:`eager_nested_loop_join`
    (run it with ``operators.run_operator``)."""
    from repro.exec import operators
    from repro.exec.physical import PhysNestedLoopJoin

    return {**operators._HANDLERS, PhysNestedLoopJoin: eager_nested_loop_join}


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


def unreduced_equi_candidates(left, right, pairs):
    """The probe as it ran before the semi-join reduction: direct
    addressing over every build row when the codes are dense (within
    ``columnar._DENSE_SPAN`` slots per row, read at call time), the
    stable sorted probe otherwise.  The reduced kernel must return its
    five arrays exactly."""
    import numpy as np
    from repro.exec import columnar

    n_left, n_right = left.length, right.length
    if n_left == 0 or n_right == 0:
        none, zeros = np.empty(0, np.int64), np.zeros(n_left, np.int64)
        return none, none, zeros, zeros.copy(), none
    lcodes, rcodes = columnar._join_codes(left, right, pairs)
    slots = columnar._code_count(lcodes, rcodes) + 1
    if (
        slots <= columnar._DENSE_SPAN * (n_left + n_right)
        and slots * n_right < columnar._CODE_LIMIT
    ):
        build, rows = rcodes + 1, np.arange(n_right, dtype=np.int64)
        sizes = np.bincount(build, minlength=slots)
        starts = lcodes + 1
        counts = sizes[starts]
        if sizes[1:].max(initial=0) <= 1:
            order = np.zeros(slots, np.int64)
            order[build] = rows
        else:
            order = np.sort(build * n_right + rows) % n_right
            starts = (np.cumsum(sizes) - sizes)[starts]
    else:
        order = np.argsort(rcodes, kind="stable")
        sorted_codes = rcodes[order]
        starts = np.searchsorted(sorted_codes, lcodes, side="left")
        counts = np.searchsorted(sorted_codes, lcodes, side="right") - starts
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


# ---------------------------------------------------------------------------
# LIKE of the columnar backend, before it ran on the stored leaf columns
# ---------------------------------------------------------------------------


def eager_eval_like(expr, batch):
    """``_eval_like`` as it was before it ran once per stored leaf
    column: the operand is read (gathered, concatenated) and an object
    column converted to ``U`` on every call.  Raises
    ``columnar._Fallback`` where that did (non-string values)."""
    import numpy as np
    from repro.exec.columnar import Column, _Fallback, _eval_vec

    operand = _eval_vec(expr.operand, batch)
    pattern = expr.pattern
    if operand.kind == "U":
        values = operand.values
    elif operand.kind == "O":
        lst = operand.values.tolist()
        if not lst:
            return Column(np.zeros(0, np.bool_))
        types = set(map(type, lst))
        types.discard(type(None))
        if types - {str}:
            raise _Fallback
        values = np.array(
            ["" if v is None else v for v in lst]
            if operand.mask is not None
            else lst
        )
    else:
        raise _Fallback
    if "_" not in pattern:
        pieces = pattern.split("%")
        if len(pieces) == 1:
            out = values == pieces[0]
        else:
            prefix, suffix = pieces[0], pieces[-1]
            middles = [p for p in pieces[1:-1] if p]
            n = len(values)
            out = np.ones(n, dtype=np.bool_)
            if prefix:
                out &= np.strings.startswith(values, prefix)
            if suffix:
                out &= np.strings.endswith(values, suffix)
            if middles or prefix or suffix:
                limit = np.strings.str_len(values) - len(suffix)
                pos = np.full(n, len(prefix), dtype=limit.dtype)
                for mid in middles:
                    found = np.strings.find(values, mid, pos, limit)
                    hit = found >= 0
                    out &= hit
                    pos = np.where(hit, found + len(mid), pos)
                out &= pos <= limit
    else:
        matcher = expr._matcher
        out = np.fromiter(
            (matcher(v) for v in values.tolist()), np.bool_, count=len(values)
        )
    out = np.asarray(out, dtype=np.bool_)
    if expr.negated:
        out = ~out
    return Column(out, operand.mask)


# ---------------------------------------------------------------------------
# Eager concatenation of the columnar backend
# ---------------------------------------------------------------------------


def eager_concat_columns(columns):
    """``concat_columns`` as it was before it returned a chunked column:
    every part is read (gathered, if deferred) and concatenated at once.
    The oracle the chunked concatenation must match by ``kind``, ``len``,
    ``to_list`` and mask."""
    import numpy as np
    from repro.exec.columnar import Column

    if len(columns) == 1:
        return columns[0]
    if len({c.kind for c in columns}) > 1:
        total = sum(len(c) for c in columns)
        values = np.empty(total, dtype=object)
        pos = 0
        for c in columns:
            values[pos : pos + len(c)] = c.to_list()
            pos += len(c)
        mask = np.concatenate([c.null_mask() for c in columns])
        return Column(values, mask)
    values = np.concatenate([c.values for c in columns])
    if any(c.mask is not None for c in columns):
        mask = np.concatenate([c.null_mask() for c in columns])
    else:
        mask = None
    return Column(values, mask)


# ---------------------------------------------------------------------------
# Eager winner search of the physical planner
# ---------------------------------------------------------------------------
#
# ``PhysicalPlanner._winner`` walks a group's alternatives ranked by their
# own cost, prices the enforcers each needs only while it could still win,
# and returns priced records that become nodes only in the plan that ships.
# These are the searches it replaced:
#
# * ``eager_winner`` builds every alternative, builds its enforcers on it
#   (``eager_enforce``), and keeps the built plan of least cumulative cost
#   — the oracle the priced search is compared against plan for plan, tick
#   for tick and cost bit for cost bit.  Install it with
#   ``monkeypatch.setattr(PhysicalPlanner, "_winner", eager_winner)``.
# * ``linear_cheapest`` prices the enforcers on every candidate in list
#   order and keeps the first strict minimum: what the bounded walk must
#   choose, alternative for alternative.


def eager_enforce(planner, plan, req):
    """``plan`` (a node) under real enforcer nodes for whatever ``req``
    needs."""
    from repro.exec.physical import PhysExchange, PhysSort
    from repro.rel.traits import EMPTY_COLLATION

    exchange_cost, sort_cost = planner._enforcers(plan, req, {})
    rows, wanted = plan.rows_est, req.collation
    if exchange_cost is not None:
        merge = (
            plan.collation
            if wanted.is_sorted and plan.collation.satisfies(wanted)
            else EMPTY_COLLATION
        )
        plan = PhysExchange(plan, req.target, merge).costed(rows, exchange_cost)
    if sort_cost is not None:
        plan = PhysSort(plan, wanted.keys).costed(rows, sort_cost)
    return plan


def linear_cheapest(planner, candidates, req):
    """``(position, enforced total)`` of the first candidate of least
    cumulative cost under ``req``, every candidate priced."""
    memo: dict = {}
    best = least = None
    for index, plan in enumerate(candidates):
        exchange_cost, sort_cost = planner._enforcers(plan, req, memo)
        total = plan.total_cost()
        if exchange_cost is not None:
            total = exchange_cost + total
        if sort_cost is not None:
            total = sort_cost + total
        if best is None or total.value < least.value:  # the first strict minimum
            best, least = index, total
    return best, least


def eager_winner(planner, node, build, req, charge_each):
    digest = node.digest()
    alternatives = planner._groups.get(digest)
    if alternatives is None:
        alternatives = planner._groups[digest] = build(node)
    if charge_each:
        planner._budget.charge(len(alternatives))
    built = [p.build() if hasattr(p, "build") else p for p in alternatives]
    enforced = [eager_enforce(planner, p, req) for p in built]
    return min(enforced, key=lambda p: p.total_cost().value)


# ---------------------------------------------------------------------------
# Character-loop SQL lexer
# ---------------------------------------------------------------------------
#
# ``repro.sql.lexer.tokenize`` matches one compiled alternation per token.
# This is the character loop it replaced, kept as the oracle the token
# stream — types, values, lines, columns and error positions — is
# compared against.

#: Number tokens are ASCII: ``str.isdigit`` accepts ``²``, which ``int`` rejects.
_REFERENCE_DIGITS = frozenset("0123456789")

_REFERENCE_SYMBOLS = (
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", ".", "+", "-", "*",
    "/", ";",
)


def reference_tokenize(sql: str):
    from repro.common.errors import SqlSyntaxError
    from repro.sql.lexer import KEYWORDS, Token, TokenType

    tokens = []
    pos = 0
    line = 1
    line_start = 0
    length = len(sql)

    def column() -> int:
        return pos - line_start + 1

    while pos < length:
        ch = sql[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if ch == "-" and pos + 1 < length and sql[pos + 1] == "-":
            while pos < length and sql[pos] != "\n":
                pos += 1
            continue
        if ch == "'":
            start_col = column()
            pos += 1
            chunks = []
            while True:
                if pos >= length:
                    raise SqlSyntaxError("unterminated string", line, start_col)
                if sql[pos] == "'":
                    if pos + 1 < length and sql[pos + 1] == "'":
                        chunks.append("'")
                        pos += 2
                        continue
                    pos += 1
                    break
                chunks.append(sql[pos])
                pos += 1
            tokens.append(Token(TokenType.STRING, "".join(chunks), line, start_col))
            continue
        if ch in _REFERENCE_DIGITS or (ch == "." and sql[pos + 1:pos + 2] in _REFERENCE_DIGITS):
            start = pos
            start_col = column()
            seen_dot = False
            while pos < length and (sql[pos] in _REFERENCE_DIGITS or (sql[pos] == "." and not seen_dot)):
                if sql[pos] == ".":
                    # ``1.`` followed by an identifier is a qualified name,
                    # not a decimal; only treat the dot as decimal when a
                    # digit follows.
                    if sql[pos + 1:pos + 2] not in _REFERENCE_DIGITS:
                        break
                    seen_dot = True
                pos += 1
            text = sql[start:pos]
            value = float(text) if "." in text else int(text)
            tokens.append(Token(TokenType.NUMBER, value, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = column()
            while pos < length and (sql[pos].isalnum() or sql[pos] == "_"):
                pos += 1
            word = sql[start:pos].lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, word, line, start_col))
            continue
        matched = False
        for symbol in _REFERENCE_SYMBOLS:
            if sql.startswith(symbol, pos):
                value = "<>" if symbol == "!=" else symbol
                tokens.append(Token(TokenType.SYMBOL, value, line, column()))
                pos += len(symbol)
                matched = True
                break
        if not matched:
            raise SqlSyntaxError(f"unexpected character {ch!r}", line, column())

    tokens.append(Token(TokenType.EOF, "", line, column()))
    return tokens


# ---------------------------------------------------------------------------
# Merged index order and per-row key bisect of the storage indexes
# ---------------------------------------------------------------------------
#
# The columnar backend serves an index scan as an index view of the site
# batch, stably sorted by the index key, and ``PartitionIndex`` bisects
# through a view that wraps only the keys it probes.  These are what they
# replaced: the partitions' sorted index streams merged by the row path
# and rebuilt as a batch, and a bisect over a list holding one
# ``NullsLast`` per row — the oracles the views are compared against.


def merged_index_batch(data, index_name, partitions):
    """One site's rows of ``partitions`` in index order, as a full-width
    batch built from the row path's merge of the index streams."""
    from repro.exec.columnar import _table_plan, from_rows
    from repro.exec.operators import merge_sorted

    indexes = data.index(index_name)
    keys = [(k, True) for k in indexes[0].key_positions]
    rows = merge_sorted([indexes[p].rows for p in partitions], keys)
    return from_rows(rows, data.schema.width, _table_plan(data))


def reference_range_bounds(
    index, low=None, high=None, low_inclusive=True, high_inclusive=True
):
    """``PartitionIndex.range_bounds`` over a list of wrapped leading keys."""
    import bisect

    from repro.common.ordering import NullsLast

    first = index.key_positions[0]
    keys = [NullsLast(row[first]) for row in index.rows]
    start, end = 0, len(keys)
    if low is not None or high is not None:
        end = bisect.bisect_left(keys, NullsLast(None))
    if low is not None:
        probe = bisect.bisect_left if low_inclusive else bisect.bisect_right
        start = probe(keys, NullsLast(low), 0, end)
    if high is not None:
        probe = bisect.bisect_right if high_inclusive else bisect.bisect_left
        end = probe(keys, NullsLast(high), 0, end)
    return start, max(start, end)


# ---------------------------------------------------------------------------
# Comparisons, AND/OR and projections of the columnar backend, before they
# compared against scalar literals, skipped the masks of NULL-free AND/OR
# and picked the columns of ColRef-only projections
# ---------------------------------------------------------------------------


def literal_column_eval(expr, batch, test: bool = False):
    """``columnar._eval_vec`` with every binary operator, at any depth,
    evaluated by :func:`literal_column_eval_binary`."""
    from repro.exec.columnar import _eval_vec
    from repro.rel.expr import BinaryOp

    if isinstance(expr, BinaryOp):
        return literal_column_eval_binary(expr, batch, test)
    return _eval_vec(expr, batch, test)


def _literal_column_on_subset(expr, batch, indices, test: bool = False):
    """``columnar._eval_on_subset``: ``eval_expr`` — the row evaluator
    where the vectorized one falls back — on the rows ``indices``."""
    from repro.exec.columnar import (
        ColumnBatch,
        _Fallback,
        _take_columns,
        column_from_values,
    )
    from repro.rel.expr import references

    refs = references(expr)
    columns = _take_columns(
        [col if i in refs else None for i, col in enumerate(batch.columns)],
        indices,
    )
    subset = ColumnBatch(columns, int(len(indices)))
    try:
        return literal_column_eval(expr, subset, test)
    except _Fallback:
        fn = compile_expr(expr, test)
        return column_from_values([fn(row) for row in subset.partial_rows(refs)])


def literal_column_eval_binary(expr, batch, test: bool = False):
    """``_eval_binary`` as it was: a literal operand is a full column
    (``_literal_column``) and AND/OR always combine the null masks."""
    import numpy as np
    from repro.exec.columnar import Column, _Fallback, _can_raise, _kleene

    op = expr.op
    n = batch.length
    if op in ("AND", "OR"):
        left = literal_column_eval(expr.left, batch, test)
        if left.kind != "b":
            raise _Fallback
        lnull = left.null_mask()
        ltrue = left.values & ~lnull
        if not _can_raise(expr.right):
            right = literal_column_eval(expr.right, batch, test)
            if right.kind != "b":
                raise _Fallback
            rnull = right.null_mask()
            return _kleene(op, ltrue, lnull, right.values & ~rnull, rnull)
        if op == "OR":
            decided = ltrue
        else:
            decided = ~ltrue if test else ~(ltrue | lnull)
        sub = np.flatnonzero(~decided)
        rtrue = np.zeros(n, np.bool_)
        rnull = np.zeros(n, np.bool_)
        if sub.size:
            right = _literal_column_on_subset(expr.right, batch, sub, test)
            if right.kind != "b":
                raise _Fallback
            rnull[sub] = right.null_mask()
            rtrue[sub] = right.values & ~rnull[sub]
        return _kleene(op, ltrue, lnull, rtrue, rnull)

    left = literal_column_eval(expr.left, batch)
    right = literal_column_eval(expr.right, batch)
    lk, rk = left.kind, right.kind
    numeric = ("b", "i", "f")
    if not ((lk in numeric and rk in numeric) or (lk == "U" and rk == "U")):
        raise _Fallback
    null = None
    if left.mask is not None or right.mask is not None:
        null = left.null_mask() | right.null_mask()
    lv, rv = left.values, right.values
    if op == "=":
        return Column(lv == rv, null)
    if op == "<>":
        return Column(lv != rv, null)
    if op == "<":
        return Column(lv < rv, null)
    if op == "<=":
        return Column(lv <= rv, null)
    if op == ">":
        return Column(lv > rv, null)
    if op == ">=":
        return Column(lv >= rv, null)
    if lk == "U" or rk == "U":
        raise _Fallback
    if op == "+":
        return Column(lv + rv, null)
    if op == "-":
        return Column(lv - rv, null)
    if op == "*":
        return Column(lv * rv, null)
    if op == "/":
        valid = ~null if null is not None else np.ones(n, np.bool_)
        if bool(np.any((rv == 0) & valid)):
            raise ZeroDivisionError("division by zero")
        safe = np.where(valid, rv, 1)
        return Column(lv / safe, null)
    raise _Fallback


def evaluating_project(node, site, ctx, batch):
    """The columnar ``_exec_project`` as it was: ``eval_expr`` per
    expression, a ``ColRef`` included."""
    from repro.exec.columnar import ColumnBatch, eval_expr

    return ColumnBatch([eval_expr(e, batch) for e in node.exprs], batch.length)


# ---------------------------------------------------------------------------
# Columnar aggregate columns, one kernel per phase
# ---------------------------------------------------------------------------
#
# Before one kernel served every phase, SINGLE and MAP read the argument in
# ``_agg_columns`` and REDUCE merged the partial states in ``_reduce_columns``.
# ``phased_agg_columns`` dispatches to those two, verbatim, as the oracle the
# folded kernel must equal column for column (values, kind and mask).  Both
# read MIN/MAX from ``_group_minmax`` as it was then, a per-group list of
# Python values, also verbatim below.


def _group_minmax(group_ids, n_groups, col, is_min):
    """Per-group MIN/MAX preserving the stored values' Python types."""
    import numpy as np
    from repro.common.ordering import NullsLast
    from repro.rel.expr import TOTAL_ORDER

    valid = ~col.null_mask()
    out: list = [None] * n_groups
    if col.kind == "O":
        gids, values = group_ids.tolist(), col.to_list()
        if TOTAL_ORDER.get():  # see ``run_operator``
            values = [v if v is None else NullsLast(v) for v in values]
        for i, value in enumerate(values):
            if value is None:
                continue
            g = gids[i]
            current = out[g]
            if current is None or (
                value < current if is_min else value > current
            ):
                out[g] = value
        if TOTAL_ORDER.get():
            return [None if v is None else v.value for v in out]
        return out
    values = col.values[valid]
    gids = group_ids[valid]
    if len(values) == 0:
        return out
    uniques, inv = np.unique(values, return_inverse=True)
    sentinel = len(uniques) if is_min else -1
    codes = np.full(n_groups, sentinel, dtype=np.int64)
    reducer = np.minimum if is_min else np.maximum
    reducer.at(codes, gids, inv.astype(np.int64, copy=False))
    found = codes != sentinel
    winners = uniques[codes[found]].tolist()
    for slot, value in zip(np.flatnonzero(found).tolist(), winners):
        out[slot] = value
    return out


def phased_agg_columns(node, batch, group_ids, n_groups):
    from repro.exec.physical import AggPhase

    if node.phase is AggPhase.REDUCE:
        return _reduce_partial_columns(node, batch, group_ids, n_groups)
    return _single_or_map_columns(node, batch, group_ids, n_groups)


def _distinct_keep(gids, col):
    """Indices of first-occurrence distinct ``(group, value)`` pairs.

    Reproduces the row accumulator's ``_seen`` set: within each group
    only the first row carrying each value survives, and the surviving
    indices stay in row order so float sums accumulate in the identical
    sequence.  ``col`` must already be the NULL-free argument subset.
    """
    import numpy as np

    n = len(gids)
    if n == 0:
        return np.empty(0, np.int64)
    if col.kind == "O":
        seen = set()
        keep: List[int] = []
        for i, (g, v) in enumerate(zip(gids.tolist(), col.to_list())):
            if (g, v) not in seen:
                seen.add((g, v))
                keep.append(i)
        return np.asarray(keep, dtype=np.int64)
    _, inv = np.unique(col.values, return_inverse=True)
    inv = inv.astype(np.int64, copy=False)
    pair = gids * (int(inv.max(initial=0)) + 1) + inv
    _, first = np.unique(pair, return_index=True)
    return np.sort(first)


def _single_or_map_columns(node, batch, group_ids, n_groups):
    import numpy as np
    from repro.common.errors import ExecutionError
    from repro.exec.columnar import column_from_values, eval_expr
    from repro.exec.physical import AggPhase
    from repro.rel.logical import AggFunc

    is_map = node.phase is AggPhase.MAP
    columns = []
    for call in node.agg_calls:
        func = call.func
        if is_map and call.distinct:
            raise ExecutionError("distinct aggregates cannot be split")
        if call.arg is None:  # COUNT(*)
            counts = np.bincount(group_ids, minlength=n_groups)
            if call.distinct:
                # The row accumulator dedupes the ``True`` sentinel.
                counts = np.minimum(counts, 1)
            values = [int(c) for c in counts.tolist()]
            columns.append(column_from_values(values, "i"))
            continue
        arg = eval_expr(call.arg, batch)
        valid = ~arg.null_mask()
        gids = group_ids[valid]
        if call.distinct and func is not AggFunc.MIN and func is not AggFunc.MAX:
            # MIN/MAX are dedup-invariant; COUNT/SUM/AVG are not.
            sub = arg.take(np.flatnonzero(valid))
            keep = _distinct_keep(gids, sub)
            gids = gids[keep]
            arg_values = sub.values[keep]
        else:
            arg_values = arg.values[valid]
        if func is AggFunc.COUNT:
            counts = np.bincount(gids, minlength=n_groups)
            columns.append(column_from_values(
                [int(c) for c in counts.tolist()], "i"
            ))
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            weights = np.asarray(arg_values, dtype=np.float64)
            sums = np.bincount(gids, weights=weights, minlength=n_groups)
            counts = np.bincount(gids, minlength=n_groups)
            if is_map:
                values = [
                    (float(s), int(c))
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            elif func is AggFunc.SUM:
                values = [
                    float(s) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            else:
                values = [
                    float(s) / int(c) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            columns.append(column_from_values(values))
        else:  # MIN / MAX
            values = _group_minmax(
                group_ids, n_groups, arg, func is AggFunc.MIN
            )
            columns.append(column_from_values(values))
    return columns


def _reduce_partial_columns(node, batch, group_ids, n_groups):
    import numpy as np
    from repro.exec.columnar import column_from_values
    from repro.rel.logical import AggFunc

    offset = len(node.group_keys)
    columns = []
    for index, call in enumerate(node.agg_calls):
        func = call.func
        col = batch.column(offset + index)
        n = len(col)
        if func is AggFunc.COUNT:
            acc = np.zeros(n_groups, dtype=np.int64)
            if col.kind in ("i", "b"):
                np.add.at(acc, group_ids, col.values.astype(np.int64, copy=False))
            else:
                for g, v in zip(group_ids.tolist(), col.to_list()):
                    acc[g] += v
            columns.append(column_from_values(
                [int(v) for v in acc.tolist()], "i"
            ))
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            partials = col.to_list()
            comp_sum = np.fromiter(
                (p[0] if p is not None else 0.0 for p in partials),
                np.float64,
                count=n,
            )
            comp_count = np.fromiter(
                (p[1] if p is not None else 0 for p in partials),
                np.int64,
                count=n,
            )
            sums = np.bincount(group_ids, weights=comp_sum, minlength=n_groups)
            counts = np.bincount(
                group_ids, weights=comp_count, minlength=n_groups
            ).astype(np.int64)
            if func is AggFunc.SUM:
                values = [
                    float(s) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            else:
                values = [
                    float(s) / int(c) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            columns.append(column_from_values(values))
        else:  # MIN / MAX over value-or-None partials
            columns.append(column_from_values(_group_minmax(
                group_ids, n_groups, col, func is AggFunc.MIN
            )))
    return columns
