"""Mid-query re-optimization: intra-query adaptivity at pipeline breakers.

PR 5's adaptive layer corrects cardinalities *between* executions; this
module corrects them *within* one, following the plan-based adaptive
query processing line of work ("Systematic Evaluation of Plan-based
Adaptive Query Processing", "Revisiting Runtime Dynamic Optimization for
Join Queries").  Every non-root fragment boundary is a materialization
point: the fragment has fully produced its output (a hash-join build
side, an aggregation, a sort, an exchange send), so its *true*
cardinality is known before any consumer runs.  The engine calls
:meth:`MidQueryController.checkpoint` there; when the observed q-error
exceeds ``SystemConfig.midquery_replan_q_error_threshold`` the controller

1. converts the un-executed plan suffix (the root fragment's tree,
   descending through exchange seams into other un-executed fragments)
   back to a logical tree;
2. installs each *executed* input as a new replicated leaf table
   (``__mq_<n>``) whose rows are the captured fragment output — loading
   computes exact statistics, so the re-planner sees truth, not guesses;
3. re-enters the full two-stage planner (Hep + Volcano) on that suffix;
4. re-fragments the new physical suffix, numbering its fragments,
   exchanges and operators past the ids in use, wires its task-graph
   dependencies to the executed prefix, and hands it back for splicing.

Cost honesty: the planner-budget ticks the re-plan consumed and the
shipping needed to replicate the materialized intermediates are charged
to the triggering fragment's root at the coordinator, so simulated
makespans include the price of adaptivity.

Correctness over coverage: any suffix shape the converter does not
recognise (an executed MAP-phase aggregate whose partial states cannot
be re-read from a table, a LIMIT over unordered input, ...) declines the
re-plan — the static plan keeps running, which is always correct.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common import charges
from repro.common.config import SystemConfig
from repro.common.errors import ReproError, StorageError
from repro.exec.fragments import (
    Fragment,
    PhysReceiver,
    SeamObserver,
    exchange_producers,
    fragment_plan,
)
from repro.exec.operators import network_units_for, stream_rows
from repro.exec.physical import (
    AggPhase,
    PhysAggregateBase,
    PhysFilter,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysTableScan,
    PhysValues,
)
from repro.obs.metrics import get_registry, q_error
from repro.obs.trace import get_tracer
from repro.rel.expr import BinaryOp, ColRef, make_conjunction
from repro.rel.logical import (
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

#: Work units charged per planner-budget tick spent re-planning, so the
#: re-optimization itself shows up in the simulated makespan.
REPLAN_UNITS_PER_TICK = 1.0

#: Suffix re-plans allowed per query: re-planning is charged to the
#: makespan, so unbounded re-planning could thrash.
MAX_REPLANS = 2

#: Prefix of the temp tables holding materialized intermediates.
TEMP_PREFIX = "__mq_"

class _Unconvertible(Exception):
    """The suffix contains a shape the converter declines to re-plan."""


#: Receiver and materialized-scan digests collapse to one token so two
#: suffixes compare by *shape* (join order, build sides, operators), not
#: by which leaf kind feeds them.
_LEAF_RE = re.compile(
    r"PReceiver\(#\d+\)\[[^\]]*\]|PScan\(__mq_\d+/[^)]*\)\[[^\]]*\]"
)
_ID_RE = re.compile(r"#\d+")


class MidQueryController(SeamObserver):
    """Per-execution coordinator of mid-query re-optimization: the seam
    observer the engine attaches to a run when
    ``SystemConfig.midquery_reoptimization`` is set (which runs get
    observers at all is ``ExecutionEngine._observers``'s decision).
    """

    def __init__(self, store: DataStore, config: SystemConfig):
        self.store = store
        self.config = config
        self.threshold = config.midquery_replan_q_error_threshold
        self.replans_done = 0
        #: Temp tables installed in ``store`` (dropped by :meth:`close`).
        self.temp_tables: List[str] = []
        #: fragment id -> site -> captured pre-routing output rows.
        self._outputs: Dict[int, Dict[int, List[Tuple]]] = {}
        #: Executed fragment id -> temp table name (reused across replans).
        self._temp_names: Dict[int, str] = {}
        #: Temp table name -> producing fragment id (task-graph deps).
        self._temp_producer: Dict[str, int] = {}
        #: Temps promised during conversion, installed only if it succeeds.
        self._pending: List[Tuple[Fragment, str]] = []
        self._reserved: set = set()
        self._temp_counter = 0

    # -- capture ------------------------------------------------------------

    def capture(self, fragment: Fragment, site: int, out) -> None:
        """Record one site's pre-routing output of a non-root fragment
        (a row list or a columnar batch), as rows of its own."""
        self._outputs.setdefault(fragment.fragment_id, {})[site] = list(
            stream_rows(out)
        )

    def _rows_of(self, fragment: Fragment) -> List[Tuple]:
        """The fragment's full logical output, union'd across sites.

        A broadcast-distributed root produces a full copy at every site,
        so one site's capture is the whole relation; anything else
        partitions the output across the producing sites.
        """
        by_site = self._outputs.get(fragment.fragment_id, {})
        if not by_site:
            return []
        if fragment.root.distribution.is_broadcast:
            return by_site[min(by_site)]
        rows: List[Tuple] = []
        for site in sorted(by_site):
            rows.extend(by_site[site])
        return rows

    # -- the checkpoint ------------------------------------------------------

    def checkpoint(
        self,
        fragments: List[Fragment],
        index: int,
        ctx,
        coordinator: int,
    ) -> Optional[List[Fragment]]:
        """Materialization point after ``fragments[index]`` completed.

        Returns the re-planned suffix to splice in place of
        ``fragments[index + 1:]``, or None (estimate close enough, replan
        budget exhausted, or the suffix declined conversion).
        """
        fragment = fragments[index]
        registry = get_registry()
        registry.inc("midquery.checkpoints")
        actual = len(self._rows_of(fragment))
        q = q_error(fragment.root.rows_est, actual)
        if q <= self.threshold:
            return None
        registry.inc("midquery.triggers")
        if self.replans_done >= MAX_REPLANS:
            return None
        tracer = get_tracer()
        with tracer.span(
            "midquery-replan", fragment=fragment.fragment_id
        ) as span:
            span.attrs["q_error"] = round(q, 2)
            try:
                new_fragments, budget_spent, shipping, shipped_rows = (
                    self._replan(fragments, index)
                )
            except _Unconvertible as exc:
                self._pending.clear()
                registry.inc("midquery.declined")
                span.attrs["declined"] = str(exc)
                return None
            except ReproError as exc:
                # e.g. the re-plan exhausted the planning budget: keep
                # executing the static plan, which is always correct.
                self._pending.clear()
                registry.inc("midquery.declined")
                span.attrs["declined"] = type(exc).__name__
                return None
            self.replans_done += 1
            registry.inc("midquery.replans")
            # Charge the re-optimization where it happened: planning ticks
            # plus the shipping that replicated the intermediates, on the
            # triggering fragment's root at the coordinator.  Every suffix
            # task depends on this fragment, so the makespan serializes
            # behind the re-plan exactly as a real engine would.
            units = budget_spent * REPLAN_UNITS_PER_TICK + shipping
            ctx.charge(fragment.root, coordinator, units)
            ctx.network_units += shipping
            ctx.rows_shipped += shipped_rows
            tracer.advance(units)
            span.attrs["units"] = units
            span.attrs["budget_spent"] = budget_spent
        old_digest = self._suffix_digest(fragments[index + 1:])
        new_digest = self._suffix_digest(new_fragments)
        if old_digest != new_digest:
            registry.inc("midquery.plan_switches")
        return new_fragments

    # -- re-planning ---------------------------------------------------------

    def _replan(
        self, fragments: Sequence[Fragment], index: int
    ) -> Tuple[List[Fragment], float, float, int]:
        """(new suffix, budget ticks, shipping units, rows shipped)."""
        # Imported lazily: the planner imports repro.adaptive.signature.
        from repro.planner.volcano import QueryPlanner

        executed = {f.fragment_id for f in fragments[: index + 1]}
        suffix_logical = self._to_logical(
            fragments[-1].root, exchange_producers(fragments), executed
        )
        shipping, shipped_rows = self._install_pending_temps()
        planner = QueryPlanner(self.store, self.config)
        new_physical = planner.plan(suffix_logical)
        new_fragments = fragment_plan(new_physical, *self._free_ids(fragments))
        if self.config.verify_execution:
            # Imported lazily: repro.verify imports the engine.
            from repro.verify.invariants import PlanValidator

            PlanValidator().check(new_physical, new_fragments)
        trigger_id = fragments[index].fragment_id
        self._wire_dependencies(new_fragments, trigger_id)
        for new_fragment in new_fragments:
            new_fragment.replanned = True
        return (
            new_fragments,
            float(planner.last_budget_spent),
            shipping,
            shipped_rows,
        )

    @staticmethod
    def _free_ids(old_fragments: Sequence[Fragment]) -> Tuple[int, int, int]:
        """First fragment / exchange / operator id past every id in use,
        so spliced fragments never collide with the executed prefix (or
        with a previous splice)."""
        exchange_ids = [
            f.sender.exchange_id
            for f in old_fragments
            if f.sender is not None
        ]
        return (
            max(f.fragment_id for f in old_fragments) + 1,
            max(exchange_ids) + 1 if exchange_ids else 0,
            max(op.op_id for f in old_fragments for op in f.operators()) + 1,
        )

    def _wire_dependencies(
        self, new_fragments: List[Fragment], trigger_id: int
    ) -> None:
        """Honest makespan edges for the spliced suffix.

        A fragment scanning a materialized temp depends on the executed
        fragment that produced it, and *every* suffix fragment depends on
        the triggering fragment: the re-plan decision (whose cost is
        charged there) happened after it finished, so no suffix task may
        be scheduled earlier.
        """
        for fragment in new_fragments:
            deps = list(fragment.child_ids)
            for op in fragment.operators():
                if isinstance(op, PhysTableScan):
                    producer = self._temp_producer.get(op.table)
                    if producer is not None and producer not in deps:
                        deps.append(producer)
            if trigger_id not in deps:
                deps.append(trigger_id)
            fragment.child_ids = deps

    # -- physical-to-logical conversion ---------------------------------------

    def _to_logical(
        self,
        node: PhysNode,
        producers: Dict[int, Fragment],
        executed: set,
    ) -> RelNode:
        """Convert the un-executed physical suffix back to logical form.

        Receivers fed by executed fragments become scans of materialized
        temp tables; receivers fed by un-executed fragments are
        transparent (the converter descends into the producer's tree).
        Conversions are whitelisted: an unrecognised shape raises
        :class:`_Unconvertible` and the replan is declined.
        """

        def convert(n: PhysNode) -> RelNode:
            return self._to_logical(n, producers, executed)

        if isinstance(node, PhysReceiver):
            producer = producers.get(node.exchange_id)
            if producer is None:
                raise _Unconvertible(f"unknown exchange #{node.exchange_id}")
            if producer.fragment_id in executed:
                temp = self._temp_scan(producer)
                if node.collation.keys:
                    # A merging receiver: the temp holds the producer's
                    # sorted runs end to end, so the order is restated.
                    return LogicalSort(temp, node.collation.keys)
                return temp
            return convert(producer.root)
        if isinstance(node, (PhysTableScan, PhysIndexScan)):
            scan = LogicalTableScan(node.table, node.alias, node.column_names)
            if isinstance(node, PhysIndexScan) and node.is_range_scan:
                # The predicate the scan absorbed, as it was written.
                return LogicalFilter(scan, node.bound_condition)
            return scan
        if isinstance(node, PhysFilter):
            return LogicalFilter(convert(node.input), node.condition)
        if isinstance(node, PhysProject):
            return LogicalProject(convert(node.input), node.exprs, node.fields)
        if isinstance(node, (PhysHashJoin, PhysMergeJoin)):
            left_width = node.left.width
            equi = [
                BinaryOp("=", ColRef(lk), ColRef(left_width + rk))
                for lk, rk in node.pairs
            ]
            condition = make_conjunction(equi + [node.residual])
            return LogicalJoin(
                convert(node.left), convert(node.right), condition,
                node.join_type,
            )
        if isinstance(node, PhysNestedLoopJoin):
            return LogicalJoin(
                convert(node.left), convert(node.right), node.condition,
                node.join_type,
            )
        if isinstance(node, PhysAggregateBase):
            if node.phase is AggPhase.SINGLE:
                return LogicalAggregate(
                    convert(node.input), node.group_keys, node.agg_calls
                )
            if node.phase is AggPhase.REDUCE:
                # Collapse REDUCE-over-MAP back to the original aggregate
                # (the physical planner splits one LogicalAggregate into
                # the two phases, both carrying the original calls).  An
                # executed MAP half cannot be collapsed: its temp would
                # hold partial states, not input rows.
                inner = node.input
                if isinstance(inner, PhysReceiver):
                    producer = producers.get(inner.exchange_id)
                    if producer is None or producer.fragment_id in executed:
                        raise _Unconvertible("executed MAP-phase aggregate")
                    inner = producer.root
                if (
                    isinstance(inner, PhysAggregateBase)
                    and inner.phase is AggPhase.MAP
                ):
                    return LogicalAggregate(
                        convert(inner.input),
                        inner.group_keys,
                        inner.agg_calls,
                    )
            raise _Unconvertible(f"aggregate phase {node.phase.value}")
        if isinstance(node, PhysSort):
            return LogicalSort(
                convert(node.input), node.keys, node.fetch, node.offset
            )
        if isinstance(node, PhysLimit):
            # A limit over ordered input is a fetch/offset on that order;
            # over unordered input the chosen rows are plan-dependent, so
            # re-planning could legitimately change the answer — decline.
            keys = node.input.collation.keys
            if not keys:
                raise _Unconvertible("LIMIT over unordered input")
            return LogicalSort(
                convert(node.input), keys, node.fetch, node.offset
            )
        if isinstance(node, PhysValues):
            return LogicalValues(node.rows, node.fields)
        raise _Unconvertible(type(node).__name__)

    # -- materialization -------------------------------------------------------

    def _temp_scan(self, producer: Fragment) -> LogicalTableScan:
        width = producer.root.width
        if width == 0:
            raise _Unconvertible("zero-width intermediate")
        name = self._temp_names.get(producer.fragment_id)
        if name is None:
            name = self._fresh_name()
            self._temp_names[producer.fragment_id] = name
            self._pending.append((producer, name))
        return LogicalTableScan(name, name, [f"c{j}" for j in range(width)])

    def _fresh_name(self) -> str:
        while True:
            name = f"{TEMP_PREFIX}{self._temp_counter}"
            self._temp_counter += 1
            if not self.store.has_table(name) and name not in self._reserved:
                self._reserved.add(name)
                return name

    def _install_pending_temps(self) -> Tuple[float, int]:
        """Create the promised temp tables; (shipping units, rows shipped).

        The captured rows land as a *replicated* table: every site gets a
        full copy, exactly what installing an intermediate as a broadcast-
        native leaf means, and the shipping for those copies is what the
        caller charges to the makespan.  Loading runs the normal
        statistics collection, so the re-planner sees exact row counts,
        distinct counts and min/max for every column.
        """
        shipping = 0.0
        shipped_rows = 0
        for producer, name in self._pending:
            rows = self._rows_of(producer)
            width = producer.root.width
            columns = [
                Column(f"c{j}", self._infer_type(rows, j), nullable=True)
                for j in range(width)
            ]
            schema = TableSchema(name, columns, ["c0"], replicated=True)
            self.store.create_table(schema, rows)
            self.temp_tables.append(name)
            self._temp_producer[name] = producer.fragment_id
            copies = self.config.sites
            shipping += charges.exchange(len(rows)) + network_units_for(
                len(rows), width, copies
            )
            shipped_rows += len(rows) * copies
        self._pending = []
        return shipping, shipped_rows

    @staticmethod
    def _infer_type(rows: List[Tuple], index: int) -> ColumnType:
        for row in rows:
            value = row[index]
            if value is None:
                continue
            if isinstance(value, bool):
                return ColumnType.BOOLEAN
            if isinstance(value, int):
                return ColumnType.BIGINT
            if isinstance(value, float):
                return ColumnType.DOUBLE
            return ColumnType.VARCHAR
        return ColumnType.VARCHAR

    # -- cleanup & reporting ---------------------------------------------------

    def close(self) -> None:
        """Drop every temp this execution installed."""
        for name in self.temp_tables:
            try:
                self.store.drop_table(name)
            except StorageError:
                pass
        self.temp_tables.clear()

    @staticmethod
    def _suffix_digest(fragments: Sequence[Fragment]) -> str:
        text = "; ".join(f.root.digest() for f in fragments)
        return _ID_RE.sub("#?", _LEAF_RE.sub("LEAF", text))
