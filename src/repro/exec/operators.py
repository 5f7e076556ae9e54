"""The operator shell and the row backend: one fragment tree at one site.

:func:`run_operator` is the one interpreter loop both backends run under.
It evaluates a node's inputs left to right, calls the backend's handler as
a pure transform of those inputs, records rows in and out under the node's
plan-time ``op_id``, and charges the *work units* the charge spec
(:mod:`repro.common.charges`) states for that operator type — so the row
and the columnar backend cannot disagree on simulated time, and the
planner's cost model reads the same functions.  The context enforces the
runtime limit — the analogue of the paper's four-hour cap — and
nested-loop joins pre-check their pair count so a doomed baseline plan
(Q17/Q19/Q21 on IC) aborts immediately instead of grinding.

The row handlers below consume and produce lists of Python tuples.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import charges
from repro.common.constants import (
    AFS,
    NETWORK_ROWS_PER_MESSAGE,
    NETWORK_UNITS_PER_BYTE,
    NETWORK_UNITS_PER_MESSAGE,
)
from repro.common.errors import ExecutionError, ExecutionTimeoutError
from repro.common.ordering import orderable, ordering_key, sort_rows
from repro.exec.aggregates import aggregate_kernel
from repro.exec.fragments import PhysReceiver
from repro.exec.physical import (
    AggPhase,
    PhysAggregateBase,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
)
from repro.obs.metrics import get_registry
from repro.rel.expr import KernelBuilder
from repro.rel.logical import JoinType
from repro.storage.adapters import compile_pushdown, scan_charge
from repro.storage.store import DataStore

Row = Tuple
Rows = List[Row]


class ExecContext:
    """Shared state for one query execution: data, buffers, accounting."""

    def __init__(
        self,
        store: DataStore,
        limit_units: float,
        alive_sites: Optional[Sequence[int]] = None,
    ):
        self.store = store
        self.limit_units = limit_units
        self.total_units = 0.0
        #: (op_id, site) -> [rows in, rows out, work units].  Rows in are
        #: the children's outputs (the conservation property tests pin
        #: that) plus what ``record_input`` adds for receivers and
        #: adapter scans.
        self.ops: Dict[Tuple[int, int], list] = defaultdict(
            lambda: [0, 0, 0.0]
        )
        #: The fragment currently being interpreted (set by the engine).
        self.current_fragment: Optional[int] = None
        #: (fragment id, site) -> peak buffered bytes (hash tables, sort
        #: buffers, receiver concatenation) observed while interpreting.
        self.fragment_memory: Dict[Tuple[int, int], float] = {}
        #: (exchange id, site) -> inbound streams, in the sending
        #: backend's own form (row lists, or columnar batches).
        self.inbound: Dict[Tuple[int, int], list] = {}
        #: total network units charged (reporting).
        self.network_units = 0.0
        #: rows shipped over the network (reporting).
        self.rows_shipped = 0
        #: Surviving sites (None = every site is up).  When a site is dead,
        #: its partitions fail over to survivors via ``failover_owner`` so
        #: scans and hash routing agree on placement.
        self.alive_sites: Optional[Tuple[int, ...]] = (
            tuple(alive_sites) if alive_sites is not None else None
        )

    def partitions_for(self, data, site: int) -> List[int]:
        """Partitions ``site`` reads for ``data``, including failed-over
        partitions of dead sites (the re-partitioned inputs)."""
        if self.alive_sites is None or data.schema.replicated:
            return data.partitions_at_site(site)
        alive = self.alive_sites
        if len(alive) == data.site_count:
            return data.partitions_at_site(site)
        from repro.faults.injector import failover_owner

        return [
            p
            for p in range(data.partition_count)
            if failover_owner(p, data.site_count, alive) == site
        ]

    def charge(self, node: PhysNode, site: int, units: float) -> None:
        self.total_units += units
        self.ops[node.op_id, site][2] += units
        if self.total_units > self.limit_units:
            raise ExecutionTimeoutError(
                "simulated execution exceeded the runtime limit",
                limit=self.limit_units,
                elapsed=self.total_units,
            )

    def precheck(self, node: PhysNode, site: int, units: float) -> None:
        """Abort *before* doing work that would certainly exceed the limit."""
        if self.total_units + units > self.limit_units:
            self.charge(node, site, units)  # raises

    def record_input(self, node: PhysNode, site: int, rows: int) -> None:
        """Input that is no child's output: delivered or source-read rows."""
        self.ops[node.op_id, site][0] += rows

    def note_memory(self, site: int, byte_count: float) -> None:
        """Report a buffer allocation; keeps the per-fragment high water."""
        if self.current_fragment is None:
            return
        key = (self.current_fragment, site)
        current = self.fragment_memory.get(key, 0.0)
        if byte_count > current:
            self.fragment_memory[key] = byte_count

    def deliver(self, exchange_id: int, site: int, stream) -> None:
        self.inbound.setdefault((exchange_id, site), []).append(stream)


def _compiled(node: PhysNode, attr: str, factory: Callable):
    cached = node.__dict__.get(attr)
    if cached is None:
        cached = factory()
        node.__dict__[attr] = cached
    return cached


def run_operator(handlers: dict, node: PhysNode, site: int, ctx: ExecContext):
    """The operator shell: interpret ``node`` at ``site`` with a backend's
    ``handlers`` and account for it.

    A handler is a pure transform ``handler(node, site, ctx, *inputs)`` of
    its already-evaluated inputs; it returns its output, or ``(output,
    detail)`` when the charge needs something only it saw (see
    ``_CHARGES``).  Outputs only need ``len()``.
    """
    handler = handlers.get(type(node))
    if handler is None:
        raise ExecutionError(f"no interpreter for {type(node).__name__}")
    inputs = [run_operator(handlers, child, site, ctx) for child in node.inputs]
    out = handler(node, site, ctx, *inputs)
    detail = None
    if type(out) is tuple:
        out, detail = out
    counts = [len(rows) for rows in inputs]
    cell = ctx.ops[node.op_id, site]
    cell[0] += sum(counts)
    cell[1] += len(out)
    ctx.charge(node, site, _CHARGES[type(node)](counts, len(out), detail))
    return out


def execute_node(node: PhysNode, site: int, ctx: ExecContext) -> Rows:
    """Run the fragment tree under ``node`` at ``site`` on the row backend."""
    return run_operator(_HANDLERS, node, site, ctx)


# -- scans --------------------------------------------------------------------


def adapter_scan(
    node: PhysTableScan, site: int, ctx: ExecContext, data
) -> Optional[Tuple[Rows, Tuple]]:
    """``site``'s partitions of ``data`` read through the table's adapter,
    honouring pushdown — or None for a native table with nothing pushed,
    which each backend reads its own (historical, fast) way.

    Returns ``(rows, detail)``; the detail (adapter costs, source-side rows
    read *before* any pushed filter/project/fetch applied, partition
    requests) is what ``_CHARGES`` bills and ``adapter.rows_scanned``
    counts.  Shared by both backends: one scan trace, one charge.
    """
    adapter = data.adapter
    pushed = _compiled(node, "_pushed_scan", lambda: compile_pushdown(node))
    if adapter is None or (adapter.name == "native" and pushed is None):
        return None
    partitions = ctx.partitions_for(data, site)
    scanned = 0
    rows: Rows = []
    for partition in partitions:
        read, out = adapter.scan_partition(data, partition, pushed)
        scanned += read
        rows.extend(out)
    ctx.record_input(node, site, scanned)
    registry = get_registry()
    labels = {"adapter": adapter.name, "table": node.table}
    registry.inc("adapter.rows_scanned", scanned, **labels)
    registry.inc("adapter.rows_out", len(rows), **labels)
    return rows, (adapter.costs, scanned, max(1, len(partitions)))


def _exec_table_scan(node: PhysTableScan, site: int, ctx: ExecContext):
    data = ctx.store.table(node.table)
    scan = adapter_scan(node, site, ctx, data)
    if scan is not None:
        return scan
    rows: Rows = []
    for partition in ctx.partitions_for(data, site):
        rows.extend(data.partitions[partition])
    return rows


def _exec_index_scan(node: PhysIndexScan, site: int, ctx: ExecContext) -> Rows:
    data = ctx.store.table(node.table)
    indexes = data.index(node.index_name)
    partitions = ctx.partitions_for(data, site)
    if node.is_range_scan:
        streams = [
            indexes[partition].range_scan(
                node.low, node.high, node.low_inclusive, node.high_inclusive
            )
            for partition in partitions
        ]
    else:
        streams = [indexes[partition].scan() for partition in partitions]
    return merge_sorted(
        streams, [(k, True) for k in indexes[0].key_positions] if indexes else ()
    )


def merge_sorted(streams: Sequence[Rows], keys: Sequence[Tuple[int, bool]]) -> Rows:
    """Merge streams that are each sorted by ``keys``.  A stable sort of
    their concatenation is the k-way merge (ties keep stream order), and
    Timsort finds the sorted runs itself."""
    if len(streams) == 1:
        return list(streams[0])
    return sort_rows(chain.from_iterable(streams), keys)


def _exec_receiver(node: PhysReceiver, site: int, ctx: ExecContext) -> Rows:
    streams = ctx.inbound.get((node.exchange_id, site), [])
    keys = node.collation.keys if node.collation.is_sorted else ()
    rows = merge_sorted(streams, keys)
    ctx.record_input(node, site, sum(len(s) for s in streams))
    ctx.note_memory(site, len(rows) * node.width * AFS)
    return rows


# -- row-at-a-time operators ------------------------------------------------------
#
# Each handler runs one kernel generated from its node's expressions
# (``KernelBuilder``) and cached on the node: the loop and the expressions
# in it are one piece of Python source, with no call per row.  Handlers
# transform inputs into output; the shell does the accounting.


def _filter_kernel(node: PhysFilter) -> Callable[[Rows], Rows]:
    builder = KernelBuilder()
    test = builder.render(node.condition, test=True)
    body = [f"return [row for row in rows if {test}]"]
    return builder.function("filter", "rows", body)


def _exec_filter(node: PhysFilter, site: int, ctx: ExecContext, rows: Rows) -> Rows:
    return _compiled(node, "_kernel", lambda: _filter_kernel(node))(rows)


def _project_kernel(node: PhysProject) -> Callable[[Rows], Rows]:
    builder = KernelBuilder()
    items = "".join(f"{builder.render(expr)}, " for expr in node.exprs)
    body = [f"return [({items}) for row in rows]"]
    return builder.function("project", "rows", body)


def _exec_project(node: PhysProject, site: int, ctx: ExecContext, rows: Rows) -> Rows:
    return _compiled(node, "_kernel", lambda: _project_kernel(node))(rows)


def _exec_values(node: PhysValues, site: int, ctx: ExecContext) -> Rows:
    return list(node.rows)


# -- joins ------------------------------------------------------------------------


def _join_kernel(
    node, name: str, params: str, condition, head: Sequence[str], candidates: str
) -> Callable:
    """Generate one join loop, specialised to the node's join type.

    ``head`` are the source lines up to and including the ``for l in
    ...:`` over left rows plus whatever finds ``candidates`` (the right
    rows ``l`` may match); the condition is tested on ``(l, r)`` without
    building ``l + r`` for a failing pair.  The kernel returns the output
    rows and how many candidates were tested (hash join bills them).
    """
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


def _exec_nested_loop_join(
    node: PhysNestedLoopJoin, site: int, ctx: ExecContext, left: Rows, right: Rows
) -> Rows:
    # Pre-check: a hopeless nested-loop plan must abort without grinding
    # through the cross product (the paper's four-hour timeout analogue).
    ctx.precheck(node, site, charges.nested_loop_pairs(len(left), len(right)))
    kernel = _compiled(
        node,
        "_kernel",
        lambda: _join_kernel(
            node, "nested_loop_join", "left, right", node.condition,
            ["for l in left:"], "right",
        ),
    )
    return kernel(left, right)[0]


def _key_source(row: str, positions: Sequence[int]) -> str:
    if len(positions) == 1:
        return f"{row}[{positions[0]}]"
    return "(" + "".join(f"{row}[{p}], " for p in positions) + ")"


def _hash_join_kernel(node: PhysHashJoin) -> Callable:
    left_keys = [lk for lk, _ in node.pairs]
    right_keys = [rk for _, rk in node.pairs]
    # Build phase on the right input (Section 5.1.2).  NULL join keys are
    # never inserted: SQL ``NULL = NULL`` is not true, so a None key can
    # match nothing — probes with a None component miss the table outright.
    null_free = "k is not None" if len(right_keys) == 1 else "None not in k"
    head = [
        "table = {}",
        "for r in right:",
        f"    k = {_key_source('r', right_keys)}",
        f"    if {null_free}:",
        "        if k in table:",
        "            table[k].append(r)",
        "        else:",
        "            table[k] = [r]",
        "get = table.get",
        "for l in left:",
        f"    bucket = get({_key_source('l', left_keys)}, ())",
    ]
    return _join_kernel(node, "hash_join", "left, right", node.residual, head, "bucket")


def _exec_hash_join(
    node: PhysHashJoin, site: int, ctx: ExecContext, left: Rows, right: Rows
) -> Tuple[Rows, int]:
    """Returns the output and the bucket candidates tested (billed)."""
    kernel = _compiled(node, "_kernel", lambda: _hash_join_kernel(node))
    ctx.note_memory(site, len(right) * node.right.width * AFS)
    return kernel(left, right)


def _merge_join_kernel(node: PhysMergeJoin) -> Callable:
    # ``lkeys``/``rkeys`` are the two sorted key columns; consecutive
    # left rows with one key share the block of right rows carrying it.
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
        # SQL NULL = NULL is not true: a NULL-keyed left row matches no
        # right block (and NULL-keyed right rows match nothing).
        "        block = () if null else right[j:end]",
    ]
    params = "left, right, lkeys, rkeys, nulls"
    return _join_kernel(node, "merge_join", params, node.residual, head, "block")


def _exec_merge_join(
    node: PhysMergeJoin, site: int, ctx: ExecContext, left: Rows, right: Rows
) -> Rows:
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
        # Ordered comparisons go through the engine's total order (NULLS
        # LAST, mixed-type safe) so a None key can't raise TypeError.
        single = len(left_keys) == 1
        nulls = [key is None if single else None in key for key in lkeys]
        lkeys = [ordering_key(row, left_keys) for row in left]
        rkeys = [ordering_key(row, right_keys) for row in right]
    kernel = _compiled(node, "_kernel", lambda: _merge_join_kernel(node))
    return kernel(left, right, lkeys, rkeys, nulls)[0]


# -- sort / limit ---------------------------------------------------------------------


def apply_offset_fetch(
    rows: Rows, offset: Optional[int], fetch: Optional[int]
) -> Tuple[Rows, int]:
    """Slice ``rows`` by OFFSET/FETCH; also return the rows *consumed*.

    The operator walks (and must be charged for) every row up to
    ``offset + fetch``, including the ones the offset discards — only the
    tail beyond the fetch boundary goes untouched.
    """
    skip = offset or 0
    if fetch is None:
        return rows[skip:], len(rows)
    end = skip + fetch
    return rows[skip:end], min(len(rows), end)


def _exec_sort(node: PhysSort, site: int, ctx: ExecContext, rows: Rows) -> Rows:
    ctx.note_memory(site, len(rows) * node.width * AFS)
    out = sort_rows(rows, node.keys)
    if node.fetch is not None or node.offset is not None:
        out, _ = apply_offset_fetch(out, node.offset, node.fetch)
    return out


def exec_limit(node: PhysLimit, site: int, ctx: ExecContext, rows):
    """Both backends' LIMIT (``rows`` is anything sliceable): the output
    and the rows consumed (billed) — rows skipped by the offset were
    still read and counted."""
    return apply_offset_fetch(rows, node.offset, node.fetch)


# -- aggregates ----------------------------------------------------------------------


def _aggregate_kernel(node: PhysAggregateBase, runs: bool) -> Callable[[Rows], Rows]:
    """``runs`` groups consecutive equal keys (sort aggregate), not hashes."""
    return _compiled(
        node,
        "_kernel",
        lambda: aggregate_kernel(node.group_keys, node.agg_calls, node.phase, runs),
    )


def _exec_hash_aggregate(
    node: PhysHashAggregate, site: int, ctx: ExecContext, rows: Rows
) -> Rows:
    out = _aggregate_kernel(node, runs=False)(rows)
    ctx.note_memory(site, len(out) * node.width * AFS)
    return out


def _exec_sort_aggregate(
    node: PhysSortAggregate, site: int, ctx: ExecContext, rows: Rows
) -> Rows:
    if node.phase is AggPhase.REDUCE:
        raise ExecutionError("sort aggregate does not implement REDUCE")
    return _aggregate_kernel(node, runs=True)(rows)


# -- sender-side routing helper ----------------------------------------------------------


def stream_rows(stream) -> Rows:
    """A fragment's output as row tuples, whichever backend produced it."""
    return stream if isinstance(stream, list) else stream.to_rows()


def network_messages(rows: int) -> int:
    """Messages a sender batches ``rows`` into, per target."""
    return max(1, rows // NETWORK_ROWS_PER_MESSAGE) if rows else 0


def network_units_for(rows: int, width: int, copies: int = 1) -> float:
    """Work units to serialise and ship ``rows`` to ``copies`` targets."""
    byte_units = rows * width * AFS * NETWORK_UNITS_PER_BYTE
    return copies * (
        byte_units + network_messages(rows) * NETWORK_UNITS_PER_MESSAGE
    )


#: The charge spec per physical operator type: work units from (input row
#: counts, output rows, the detail the handler reported).  Only formulas
#: from :mod:`repro.common.charges` (adapter scans: the adapter's
#: ``scan_charge``) appear on the right.
_CHARGES = {
    PhysTableScan: lambda ins, out, adapter: (
        charges.pass_through(out) if adapter is None
        else scan_charge(adapter[0], adapter[1], out, adapter[2])
    ),
    PhysIndexScan: lambda ins, out, _: charges.index_scan(out),
    PhysReceiver: lambda ins, out, _: charges.pass_through(out),
    PhysFilter: lambda ins, out, _: charges.filter(*ins),
    PhysProject: lambda ins, out, _: charges.pass_through(*ins),
    PhysValues: lambda ins, out, _: charges.pass_through(out),
    PhysNestedLoopJoin: lambda ins, out, _: charges.nested_loop_join(*ins, out),
    PhysHashJoin: lambda ins, out, tested: charges.hash_join(*ins, out, tested),
    PhysMergeJoin: lambda ins, out, _: charges.merge_join_charged(*ins, out),
    PhysSort: lambda ins, out, _: charges.sort(*ins),
    PhysLimit: lambda ins, out, consumed: charges.pass_through(consumed),
    PhysHashAggregate: lambda ins, out, _: charges.hash_aggregate(*ins, out),
    PhysSortAggregate: lambda ins, out, _: charges.sort_aggregate(*ins, out),
}

_HANDLERS = {
    PhysTableScan: _exec_table_scan,
    PhysIndexScan: _exec_index_scan,
    PhysReceiver: _exec_receiver,
    PhysFilter: _exec_filter,
    PhysProject: _exec_project,
    PhysValues: _exec_values,
    PhysNestedLoopJoin: _exec_nested_loop_join,
    PhysHashJoin: _exec_hash_join,
    PhysMergeJoin: _exec_merge_join,
    PhysSort: _exec_sort,
    PhysLimit: exec_limit,
    PhysHashAggregate: _exec_hash_aggregate,
    PhysSortAggregate: _exec_sort_aggregate,
}
