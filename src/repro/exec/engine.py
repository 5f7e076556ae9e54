"""The distributed execution engine.

Executes a fragmented physical plan over the data store, producing both
the *actual result rows* (fragments interpreted per site over real
partitions, senders routing rows exactly as Ignite's exchanges do) and a
*task graph* whose durations come from the work units the operators
charged.  The simulated cluster scheduler turns the task graph into a
latency; the benchmark harness replays task graphs for the multi-client
experiments.

Multithreaded (variant-fragment) execution is accounted per Section 5.3:
eligible fragments become ``n`` parallel tasks per site whose durations
follow the splitter/duplicator classification (:mod:`repro.exec.variants`),
plus the setup and re-read overheads the paper attributes to dynamic
sub-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common import charges
from repro.common.config import SystemConfig
from repro.common.constants import (
    AFS,
    CORE_UNITS_PER_SECOND,
    FRAGMENT_SETUP_UNITS,
    RPTC,
    VARIANT_MIN_UNITS,
    VARIANT_SETUP_UNITS,
    VARIANT_SPLIT_UNITS_PER_ROW,
)
from repro.common.errors import (
    ExchangeLostError,
    ExecutionError,
    FragmentOomError,
    QueryDeadlineError,
    SiteFailureError,
)
from repro.cluster.scheduler import (
    TaskGraph,
    simulate_makespan,
    simulate_makespan_with_faults,
)
from repro.faults.injector import FaultInjector, failover_owner
from repro.obs.metrics import get_registry, q_error
from repro.obs.trace import get_tracer
from repro.exec.fragments import Fragment, PhysReceiver, fragment_plan
from repro.exec.operators import (
    ExecContext,
    execute_node,
    network_messages,
    network_units_for,
    stream_rows,
)
from repro.exec.physical import PhysNode
from repro.exec.variants import SOURCE, plan_variants
from repro.rel.traits import Distribution, satisfies
from repro.storage.store import DataStore
from repro.storage.table import affinity_partition

#: The site that receives SINGLE-distribution data and serves results.
COORDINATOR = 0

#: Fixed parallelism assumed when converting the wall-clock runtime limit
#: into a work-unit budget (see ExecutionEngine.execute).
RUNTIME_LIMIT_PARALLELISM = 4


@dataclass
class FragmentStats:
    """Per-fragment execution statistics (for reports and tests)."""

    fragment_id: int
    sites: List[int]
    rows_out: int
    units: float
    variants: int
    #: Peak buffered bytes across the fragment's sites (hash tables, sort
    #: buffers, receiver concatenation) — the memory high-water mark.
    mem_bytes: float = 0.0


class OperatorActuals(NamedTuple):
    """What one operator actually did, summed over its sites."""

    rows_out: int
    units: float
    #: The children's outputs; delivered rows for receivers, source-read
    #: rows for adapter scans.
    rows_in: int


def fold_actuals(
    fragments: Sequence[Fragment],
    fragment_sites: Dict[int, List[int]],
    ctx: ExecContext,
) -> Dict[int, OperatorActuals]:
    """op_id -> actuals over ``fragments``: the context's per-(operator,
    site) cells summed over each fragment's sites.  The one fold every
    exit of ``execute`` — success, deadline, failure — reports through;
    plain ints, floats and tuples, so it serialises."""
    actuals: Dict[int, OperatorActuals] = {}
    for fragment in fragments:
        sites = fragment_sites[fragment.fragment_id]
        for op in fragment.operators():
            rows_in = rows_out = 0
            units = 0.0
            for site in sites:
                cell = ctx.ops[op.op_id, site]
                rows_in += cell[0]
                rows_out += cell[1]
                units += cell[2]
            actuals[op.op_id] = OperatorActuals(rows_out, units, rows_in)
    return actuals


@dataclass
class ExecutionResult:
    """Everything one query execution produced."""

    rows: List[Tuple]
    fields: List[str]
    task_graph: TaskGraph
    simulated_seconds: float
    total_units: float
    network_units: float
    rows_shipped: int
    fragments: List[FragmentStats] = field(default_factory=list)
    #: The executed fragments with per-operator actuals (EXPLAIN ANALYZE).
    fragment_trees: List[Fragment] = field(default_factory=list)
    #: op_id -> (rows out, work units, rows in) across sites.
    operator_actuals: Dict[int, OperatorActuals] = field(default_factory=dict)
    #: The query completed but not at full strength: it started with dead
    #: sites (inputs re-partitioned onto survivors) and/or lost tasks to a
    #: mid-flight crash that were re-dispatched.
    degraded: bool = False
    #: Tasks restarted on surviving sites after losing theirs.
    redispatched_tasks: int = 0

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def explain_analyze(self) -> str:
        """The executed plan annotated with actual rows and work units.

        Like EXPLAIN ANALYZE: planner estimates (``rows~``) side by side
        with what execution actually produced, fragment by fragment, plus
        the per-operator q-error (``max(est/actual, actual/est)``) that
        scores the estimate.
        """
        lines: List[str] = []
        for fragment in self.fragment_trees:
            if fragment.is_root:
                head = "RootFragment"
            else:
                sender = fragment.sender
                head = (
                    f"Fragment #{fragment.fragment_id} -> "
                    f"sender({sender.target})"
                )
            if fragment.replanned:
                head += "  [midquery replanned]"
            lines.append(head)
            lines.extend(self._annotate(fragment.root, indent=1))
        return "\n".join(lines)

    def _annotate(self, node, indent: int) -> List[str]:
        actual = self.operator_actuals.get(node.op_id)
        suffix = ""
        if actual is not None:
            q = q_error(node.rows_est, actual.rows_out)
            suffix = (
                f"  [actual rows={actual.rows_out}, "
                f"units={actual.units:,.0f}, q-err={q:.2f}]"
            )
        lines = ["  " * indent + node._explain_self() + suffix]
        for child in node.inputs:
            lines.extend(self._annotate(child, indent + 1))
        return lines

    def q_errors(self):
        """``(operator, q-error)`` for every executed operator.

        Broadcast-distribution operators are excluded: their recorded
        actual is summed over every site holding a copy, so a perfectly
        estimated broadcast input would still score q-error == site
        count.  (EXPLAIN ANALYZE keeps showing the raw numbers.)
        """
        for fragment in self.fragment_trees:
            for op in fragment.operators():
                actual = self.operator_actuals.get(op.op_id)
                if actual is None:
                    continue
                distribution = getattr(op, "distribution", None)
                if distribution is not None and distribution.is_broadcast:
                    continue
                yield op, q_error(op.rows_est, actual.rows_out)

    def max_q_error(self) -> float:
        """The worst per-operator q-error of the executed plan."""
        return max((q for _, q in self.q_errors()), default=1.0)


class ExecutionEngine:
    """Executes physical plans for one cluster configuration."""

    def __init__(self, store: DataStore, config: SystemConfig, sketches=None):
        self.store = store
        self.config = config
        #: Optional :class:`repro.stats.sketch_registry.SketchRegistry`:
        #: rows crossing non-root fragment seams are harvested into its
        #: operator-level HLLs after every successful fault-free run.
        self.sketches = sketches
        #: ``(completed fragments, their operator actuals)`` of the most
        #: recent execution that *raised* mid-run, for feedback to harvest
        #: (a query that times out on a bad plan is precisely the one whose
        #: true cardinalities matter most); None otherwise.
        self.last_partial: Optional[
            Tuple[List[Fragment], Dict[int, OperatorActuals]]
        ] = None

    # -- public API ------------------------------------------------------------

    def execute(
        self,
        plan: PhysNode,
        *,
        injector: Optional[FaultInjector] = None,
        at: float = 0.0,
    ) -> ExecutionResult:
        """Execute ``plan``; with an ``injector``, under its fault schedule.

        ``at`` is the query's submission time on the chaos clock: sites
        already dead then are excluded up front (their partitions fail over
        to survivors), crash/slowdown events later than ``at`` are replayed
        against the task-graph simulation, and one-shot faults (exchange
        drops, fragment OOM kills) due at ``at`` fire during this attempt.
        """
        # First, so that an execution that fails before running anything
        # cannot leave the previous query's partial to be harvested again.
        self.last_partial = None
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span("fragment") as span:
            fragments = fragment_plan(plan)
            span.attrs["fragments"] = len(fragments)
        if self.config.verify_execution:
            # Imported lazily: repro.verify imports this module.
            from repro.verify.invariants import PlanValidator

            PlanValidator().check(plan, fragments)
        # The runtime limit is a wall-clock cap.  A runaway nested-loop
        # join is serial per site, so the chargeable parallelism is fixed
        # (the paper's 4-hour cap did not stretch with cluster size), not
        # proportional to the site count.
        limit_units = (
            self.config.runtime_limit_seconds
            * CORE_UNITS_PER_SECOND
            * RUNTIME_LIMIT_PARALLELISM
        )
        alive: Optional[List[int]] = None
        coordinator = COORDINATOR
        if injector is not None:
            alive = injector.alive_sites(self.config.sites, at)
            if not alive:
                raise SiteFailureError(
                    "no surviving sites to execute on", at=at
                )
            coordinator = COORDINATOR if COORDINATOR in alive else alive[0]
        ctx = ExecContext(self.store, limit_units, alive_sites=alive)
        if self.config.execution_backend == "columnar":
            # Imported lazily: the row backend must work without numpy.
            from repro.exec.columnar import execute_columnar

            run_fragment = execute_columnar
        else:
            run_fragment = execute_node
        midquery = None
        if self.config.midquery_reoptimization and injector is None:
            # Imported lazily: repro.adaptive imports the planner, which
            # imports this module.  Fault-injected runs stay static so
            # chaos replays remain deterministic.
            from repro.adaptive.midquery import MidQueryController

            midquery = MidQueryController(self.store, self.config)
        result_rows: Optional[List[Tuple]] = None
        fragment_sites: Dict[int, List[int]] = {}
        completed: List[Fragment] = []
        # Sketch refresh taps the same seams as mid-query capture; fault-
        # injected runs stay untouched so chaos replays are deterministic.
        # (fragment, that site's output in the backend's own form)
        seam_captures: Optional[List[Tuple[Fragment, object]]] = (
            [] if self.sketches is not None and injector is None else None
        )

        try:
            with tracer.span("execute"):
                index = 0
                while index < len(fragments):
                    fragment = fragments[index]
                    if injector is not None and injector.take_fragment_oom(
                        fragment.fragment_id, at
                    ):
                        raise FragmentOomError(
                            f"fragment #{fragment.fragment_id} was OOM-killed",
                            fragment_id=fragment.fragment_id,
                        )
                    sites = self._fragment_sites(fragment, alive, coordinator)
                    fragment_sites[fragment.fragment_id] = sites
                    ctx.current_fragment = fragment.fragment_id
                    units_before = ctx.total_units
                    with tracer.span(
                        f"fragment#{fragment.fragment_id}", sites=len(sites)
                    ) as span:
                        for site in sites:
                            out = run_fragment(fragment.root, site, ctx)
                            if fragment.is_root:
                                result_rows = stream_rows(out)
                            else:
                                if midquery is not None:
                                    midquery.capture(fragment, site, out)
                                if seam_captures is not None:
                                    seam_captures.append((fragment, out))
                                self._route(
                                    fragment, site, out, ctx, coordinator,
                                    injector, at,
                                )
                        tracer.advance(ctx.total_units - units_before)
                        span.attrs["units"] = ctx.total_units - units_before
                    completed.append(fragment)
                    # A completed non-root fragment is a materialization
                    # point: its true cardinality is known before any
                    # consumer runs.  Past the q-error threshold the
                    # controller re-plans the un-executed suffix and we
                    # splice the new fragments in.
                    if midquery is not None and not fragment.is_root:
                        new_suffix = midquery.checkpoint(
                            fragments, index, ctx, coordinator
                        )
                        if new_suffix is not None:
                            fragments[index + 1:] = new_suffix
                    index += 1
                ctx.current_fragment = None
        except Exception:
            if completed:
                self.last_partial = (
                    completed, fold_actuals(completed, fragment_sites, ctx)
                )
            raise
        finally:
            if midquery is not None:
                midquery.drop_temp_tables()

        assert result_rows is not None
        graph, stats = self._build_task_graph(
            fragments, fragment_sites, ctx, injector, at
        )
        redispatched = 0
        events = injector.scheduler_events() if injector is not None else ()
        if events:
            makespan, redispatched = simulate_makespan_with_faults(
                graph,
                self.config.sites,
                self.config.cores_per_site,
                events,
                at=at,
                redispatch=self.config.failover_redispatch,
            )
        else:
            makespan = simulate_makespan(
                graph, self.config.sites, self.config.cores_per_site
            )
        actuals = fold_actuals(fragments, fragment_sites, ctx)
        deadline = self.config.query_deadline_seconds
        if deadline is not None and makespan > deadline:
            # The work is done and every actual is known — feed them to
            # adaptive re-planning even though the query misses its SLO.
            self.last_partial = (completed, actuals)
            raise QueryDeadlineError(
                f"query ran {makespan:.3f}s simulated, past its "
                f"{deadline:.3f}s deadline",
                limit=deadline,
                elapsed=makespan,
            )
        if seam_captures:
            self.sketches.harvest(
                fragments,
                [(fragment, stream_rows(out)) for fragment, out in seam_captures],
            )
        degraded = redispatched > 0 or (
            alive is not None and len(alive) < self.config.sites
        )
        for fragment in fragments:
            for op in fragment.operators():
                actual = actuals[op.op_id]
                op_name = type(op).__name__
                registry.inc("operator.rows_out", actual.rows_out, op=op_name)
                registry.inc("operator.rows_in", actual.rows_in, op=op_name)
        for stat in stats:
            stat.mem_bytes = max(
                (
                    ctx.fragment_memory.get((stat.fragment_id, site), 0.0)
                    for site in stat.sites
                ),
                default=0.0,
            )
            registry.gauge_max(
                "fragment.mem_highwater_bytes",
                stat.mem_bytes,
                fragment=stat.fragment_id,
            )
        registry.inc("exec.queries")
        registry.inc("exec.result_rows", len(result_rows))
        registry.inc("exec.rows_shipped", ctx.rows_shipped)
        registry.inc("exec.work_units", ctx.total_units)
        registry.inc("exec.network_units", ctx.network_units)
        if redispatched:
            registry.inc("exec.redispatched_tasks", redispatched)
        if degraded:
            registry.inc("exec.degraded_queries")
        result = ExecutionResult(
            rows=result_rows,
            fields=list(plan.fields),
            task_graph=graph,
            simulated_seconds=makespan,
            total_units=ctx.total_units,
            network_units=ctx.network_units,
            rows_shipped=ctx.rows_shipped,
            fragments=stats,
            fragment_trees=list(fragments),
            operator_actuals=actuals,
            degraded=degraded,
            redispatched_tasks=redispatched,
        )
        if self.config.verify_execution:
            from repro.verify.invariants import check_execution_result

            check_execution_result(result)
        return result

    # -- fragment placement ---------------------------------------------------------

    def _fragment_sites(
        self,
        fragment: Fragment,
        alive: Optional[List[int]] = None,
        coordinator: int = COORDINATOR,
    ) -> List[int]:
        """The processing sites a fragment is sent to (Section 3.2.3).

        With dead sites, distributed fragments run on the survivors only
        and the coordinator role falls to the lowest surviving site.
        """
        dist = fragment.root.distribution
        if satisfies(dist, Distribution.single()):
            return [coordinator]
        if alive is not None:
            return list(alive)
        return list(range(self.config.sites))

    # -- routing ------------------------------------------------------------------------

    def _route(
        self,
        fragment: Fragment,
        site: int,
        out,
        ctx: ExecContext,
        coordinator: int = COORDINATOR,
        injector: Optional[FaultInjector] = None,
        at: float = 0.0,
    ) -> None:
        """Ship one site's fragment output (a row list or a columnar
        batch): single and broadcast exchanges hand it over as it is,
        hash exchanges read its rows into per-destination lists."""
        sender = fragment.sender
        assert sender is not None
        if injector is not None and injector.take_exchange_drop(
            sender.exchange_id, at
        ):
            raise ExchangeLostError(
                f"exchange #{sender.exchange_id} dropped its stream "
                f"from site {site}",
                exchange_id=sender.exchange_id,
            )
        target = sender.target
        width = fragment.root.width
        root = fragment.root
        destinations = (
            list(ctx.alive_sites)
            if ctx.alive_sites is not None
            else list(range(self.config.sites))
        )
        if target.is_single:
            ctx.deliver(sender.exchange_id, coordinator, out)
            copies = 1
        elif target.is_broadcast:
            for destination in destinations:
                ctx.deliver(sender.exchange_id, destination, out)
            copies = len(destinations)
        elif target.is_hash:
            buckets: Dict[int, List[Tuple]] = {
                destination: [] for destination in destinations
            }
            keys = target.keys
            partitions = self.store.partitions_per_table
            sites = self.config.sites
            alive = ctx.alive_sites
            if alive is not None and len(alive) < sites:
                def owner(partition: int) -> int:
                    return failover_owner(partition, sites, alive)
            else:
                def owner(partition: int) -> int:
                    return partition % sites
            rows = stream_rows(out)
            if len(keys) == 1:
                key = keys[0]
                for row in rows:
                    partition = affinity_partition(row[key], partitions)
                    buckets[owner(partition)].append(row)
            else:
                for row in rows:
                    value = tuple(row[k] for k in keys)
                    partition = affinity_partition(value, partitions)
                    buckets[owner(partition)].append(row)
            for destination, bucket in buckets.items():
                ctx.deliver(sender.exchange_id, destination, bucket)
            copies = 1
        else:
            raise ExecutionError(f"cannot route to distribution {target}")
        shipped = len(out)
        network = network_units_for(shipped, width, copies)
        ctx.charge(root, site, charges.exchange(shipped) + network)
        ctx.network_units += network
        ctx.rows_shipped += shipped * copies
        registry = get_registry()
        registry.inc(
            "exchange.rows", shipped * copies, exchange=sender.exchange_id
        )
        registry.inc(
            "exchange.bytes",
            shipped * width * AFS * copies,
            exchange=sender.exchange_id,
        )
        registry.inc(
            "exchange.batches",
            network_messages(shipped) * copies,
            exchange=sender.exchange_id,
        )

    # -- task graph ------------------------------------------------------------------------

    def _build_task_graph(
        self,
        fragments: Sequence[Fragment],
        fragment_sites: Dict[int, List[int]],
        ctx: ExecContext,
        injector: Optional[FaultInjector] = None,
        at: float = 0.0,
    ) -> Tuple[TaskGraph, List[FragmentStats]]:
        graph = TaskGraph()
        fragment_tasks: Dict[int, List[int]] = {}
        stats: List[FragmentStats] = []
        variants_requested = max(1, self.config.variant_fragments)

        for fragment in fragments:
            sites = fragment_sites[fragment.fragment_id]
            deps: List[int] = []
            for child_id in fragment.child_ids:
                deps.extend(fragment_tasks.get(child_id, ()))
            variant_plan = (
                plan_variants(fragment) if variants_requested > 1 else None
            )
            # An injected exchange delay stretches every task of the
            # producing fragment: the shipment occupies its pipeline for
            # the extra time.
            delay_units = 0.0
            if injector is not None and fragment.sender is not None:
                delay_units = (
                    injector.exchange_delay_seconds(
                        fragment.sender.exchange_id, at
                    )
                    * CORE_UNITS_PER_SECOND
                )
            task_ids: List[int] = []
            fragment_units = 0.0
            rows_out = 0
            operators = list(fragment.operators())
            for site in sites:
                rows_out += ctx.ops[fragment.root.op_id, site][1]
                per_op = [ctx.ops[op.op_id, site][2] for op in operators]
                site_units = sum(per_op)
                fragment_units += site_units
                if variant_plan is None or site_units < VARIANT_MIN_UNITS:
                    # Too little work at this site to amortise the variant
                    # setup and re-read overheads: keep it single-threaded.
                    task_ids.append(
                        graph.add(
                            site,
                            site_units + FRAGMENT_SETUP_UNITS + delay_units,
                            deps,
                        )
                    )
                    continue
                source_rows = self._source_rows(
                    fragment, site, ctx, variant_plan
                )
                overhead = (
                    VARIANT_SETUP_UNITS
                    + source_rows * VARIANT_SPLIT_UNITS_PER_ROW
                )
                for _ in range(variants_requested):
                    duration = overhead + FRAGMENT_SETUP_UNITS + delay_units
                    for op, units in zip(operators, per_op):
                        factor = variant_plan.factor(op, variants_requested)
                        duration += units * factor
                    task_ids.append(graph.add(site, duration, deps))
            fragment_tasks[fragment.fragment_id] = task_ids
            stats.append(
                FragmentStats(
                    fragment_id=fragment.fragment_id,
                    sites=list(sites),
                    rows_out=rows_out,
                    units=fragment_units,
                    variants=1 if variant_plan is None else variants_requested,
                )
            )
        return graph, stats

    def _source_rows(
        self, fragment: Fragment, site: int, ctx: ExecContext, variant_plan
    ) -> float:
        """Rows read by the fragment's sources at ``site`` (re-read cost)."""
        rows = 0.0
        for op in fragment.operators():
            if variant_plan.scaling.get(op.op_id) == SOURCE:
                rows += ctx.ops[op.op_id, site][2] / RPTC
        return rows
