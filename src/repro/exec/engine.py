"""The distributed execution engine.

Executes a fragmented physical plan over the data store, producing both
the *actual result rows* (fragments interpreted per site over real
partitions, senders routing rows exactly as Ignite's exchanges do) and a
*task graph* whose durations come from the work units the operators
charged.  The simulated cluster scheduler turns the task graph into a
latency; the benchmark harness replays task graphs for the multi-client
experiments.

One query is four steps over one per-query record (:class:`_Run`):
**prepare** (fragment — once per plan, kept on its root as
``prepared_fragments`` — who is alive, backend, observers), **run
fragments** (interpret and route, calling the
:class:`~repro.exec.fragments.SeamObserver` list at every non-root
seam), **simulate** (task graph, makespan, deadline) and **report**
(metrics, :class:`ExecutionResult`).  A fault-free run is the run under
the empty fault schedule, so liveness, coordinator choice, routing and
task delays have one code path; mid-query re-planning and the sketch
refresh are observers, attached — or, under faults, not — in
``ExecutionEngine._observers``.  The engine keeps nothing between
queries: a failed run hands its completed prefix to cardinality feedback
on the exception it raises (``ExecutionError.partial``).

Multithreaded (variant-fragment) execution is accounted per Section 5.3:
eligible fragments become ``n`` parallel tasks per site whose durations
follow the splitter/duplicator classification (:mod:`repro.exec.variants`),
plus the setup and re-read overheads the paper attributes to dynamic
sub-partitioning.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.adaptive.midquery import MidQueryController
from repro.common import charges, constants
from repro.common.config import SystemConfig
from repro.common.constants import (
    AFS,
    CORE_UNITS_PER_SECOND,
    CORES_PER_SITE,
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
from repro.faults.injector import FaultInjector
from repro.obs.metrics import get_registry, q_error
from repro.obs.trace import get_tracer
from repro.exec.fragments import Fragment, SeamObserver, fragment_plan
from repro.exec.operators import (
    ExecContext,
    execute_node,
    network_messages,
    network_units_for,
    stream_rows,
)
from repro.exec.physical import PhysNode
from repro.exec.variants import SOURCE, plan_variants
from repro.storage.store import DataStore
from repro.storage.table import affinity_partition, failover_owner
from repro.verify.invariants import PlanValidator, check_execution_result

#: The site that receives SINGLE-distribution data and serves results.
COORDINATOR = 0

#: Fixed parallelism assumed when converting the wall-clock runtime limit
#: into a work-unit budget (see ExecutionEngine.execute).
RUNTIME_LIMIT_PARALLELISM = 4


@lru_cache(maxsize=1024)
def _partition_owners(
    partitions: int, sites: int, alive: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Each partition's ``failover_owner``, once per shape and survivors."""
    return tuple(failover_owner(p, sites, alive) for p in range(partitions))


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


@dataclass
class ExecutionResult:
    """Everything one query execution produced."""

    rows: List[Tuple]
    fields: List[str]
    task_graph: TaskGraph = field(default_factory=TaskGraph)
    simulated_seconds: float = 0.0
    total_units: float = 0.0
    network_units: float = 0.0
    rows_shipped: int = 0
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


@dataclass
class _Run:
    """Everything one ``execute`` call knows, handed from step to step;
    the engine itself holds nothing between queries."""

    plan: PhysNode
    #: The fault schedule; a fault-free run carries the empty one.
    injector: FaultInjector
    #: Submission time on the chaos clock.
    at: float
    #: In execution order; an observer's checkpoint may replace the tail.
    fragments: List[Fragment]
    #: Accounting and buffers; ``ctx.alive_sites`` is who executes.
    ctx: ExecContext
    #: Receives SINGLE-distribution data and serves the result.
    coordinator: int
    #: The backend's ``(root, site, ctx) -> output`` entry point.
    run_fragment: Callable
    observers: List[SeamObserver]
    fragment_sites: Dict[int, List[int]] = field(default_factory=dict)
    completed: List[Fragment] = field(default_factory=list)
    #: [rows, bytes, batches] the run's exchanges shipped, for
    #: ``_publish``; None until one routes.
    shipped: Optional[list] = None
    result_rows: Optional[List[Tuple]] = None
    # -- filled in by the simulate step --
    graph: Optional[TaskGraph] = None
    stats: List[FragmentStats] = field(default_factory=list)
    makespan: float = 0.0
    redispatched: int = 0

    def actuals(self) -> Dict[int, OperatorActuals]:
        """op_id -> actuals of the fragments completed so far: the
        context's per-(operator, site) cells summed over each fragment's
        sites.  The one fold every exit of ``execute`` — success, deadline,
        failure — reports through; plain ints, floats and tuples, so it
        serialises."""
        actuals: Dict[int, OperatorActuals] = {}
        ops = self.ctx.ops
        for fragment in self.completed:
            sites = self.fragment_sites[fragment.fragment_id]
            for op in fragment.operators():
                rows_in = rows_out = 0
                units = 0.0
                for site in sites:
                    cell = ops[op.op_id, site]
                    rows_in += cell[0]
                    rows_out += cell[1]
                    units += cell[2]
                actuals[op.op_id] = OperatorActuals(rows_out, units, rows_in)
        return actuals


class ExecutionEngine:
    """Executes physical plans for one cluster configuration."""

    def __init__(self, store: DataStore, config: SystemConfig, sketches=None):
        self.store = store
        self.config = config
        #: Optional :class:`repro.stats.sketch_registry.SketchRegistry`,
        #: refreshed at fragment seams (see :meth:`_observers`).
        self.sketches = sketches

    # -- public API ------------------------------------------------------------

    def execute(
        self,
        plan: PhysNode,
        *,
        injector: Optional[FaultInjector] = None,
        at: float = 0.0,
    ) -> ExecutionResult:
        """Execute ``plan``: prepare -> run fragments -> simulate -> report.

        The run is under ``injector``'s fault schedule; none given means
        the empty schedule.  ``at`` is the submission time on the chaos
        clock: sites already dead then are excluded up front (their
        partitions fail over to survivors), crash/slowdown events later
        than ``at`` are replayed against the task-graph simulation, and
        one-shot faults (exchange drops, fragment OOM kills) due at ``at``
        fire during this attempt.  An :class:`ExecutionError` that ends
        the run carries the completed prefix as ``partial``.
        """
        run = self._prepare(plan, injector or FaultInjector(), at)
        # Row tuples are never cycles, yet the collector would walk the live
        # ones again and again: pause it (unless the caller did), and run the
        # young collection the run made due once it and its streams are freed.
        paused = gc.isenabled()
        gc.disable()
        try:
            try:
                with get_tracer().span("execute"):
                    self._run_fragments(run)
            except ExecutionError as exc:
                if run.completed:
                    exc.partial = (run.completed, run.actuals())
                raise
            finally:
                for observer in run.observers:
                    observer.close()
                self._publish(run)
            self._simulate(run)
            return self._report(run)
        finally:
            del run
            if paused:
                gc.enable()
                if gc.get_count()[0] > gc.get_threshold()[0]:
                    gc.collect(1)

    # -- step 1: prepare ------------------------------------------------------------

    def _prepare(
        self, plan: PhysNode, injector: FaultInjector, at: float
    ) -> _Run:
        """Fragment the plan, decide who is alive and which backend and
        observers this run gets.

        A plan is fragmented once, on its first execution (a cached plan's
        repeats reuse the list); each run gets its own copy of the list,
        which an observer's splice may change without touching the kept one.
        """
        with get_tracer().span("fragment") as span:
            prepared = plan.prepared_fragments
            if prepared is None:
                prepared = plan.prepared_fragments = fragment_plan(plan)
            fragments = list(prepared)
            span.attrs["fragments"] = len(fragments)
        if self.config.verify_execution:
            PlanValidator().check(plan, fragments)
        # The runtime limit is a wall-clock cap.  A runaway nested-loop
        # join is serial per site, so the chargeable parallelism is fixed
        # (the paper's 4-hour cap did not stretch with cluster size), not
        # proportional to the site count.
        limit_units = (
            constants.RUNTIME_LIMIT_SECONDS
            * CORE_UNITS_PER_SECOND
            * RUNTIME_LIMIT_PARALLELISM
        )
        alive = injector.alive_sites(self.config.sites, at)
        if not alive:
            raise SiteFailureError("no surviving sites to execute on", at=at)
        if self.config.execution_backend == "columnar":
            # Imported lazily: the row backend must work without numpy.
            from repro.exec.columnar import execute_columnar as run_fragment
        else:
            run_fragment = execute_node
        return _Run(
            plan=plan,
            injector=injector,
            at=at,
            fragments=fragments,
            ctx=ExecContext(self.store, limit_units, alive_sites=alive),
            coordinator=COORDINATOR if COORDINATOR in alive else alive[0],
            run_fragment=run_fragment,
            observers=self._observers(injector),
        )

    def _observers(self, injector: FaultInjector) -> List[SeamObserver]:
        """The seam observers of one run, in calling order.

        The one place they are attached, and so the one statement of the
        exclusion: a run under a non-empty fault schedule executes
        statically — no mid-query re-planning, no sketch refresh — so that
        chaos replays stay byte-identical.
        """
        observers: List[SeamObserver] = []
        if injector.schedule:
            return observers
        if self.config.midquery_reoptimization:
            observers.append(MidQueryController(self.store, self.config))
        if self.sketches is not None:
            observers.append(self.sketches.seam_harvest())
        return observers

    # -- step 2: run fragments ------------------------------------------------------

    def _run_fragments(self, run: _Run) -> None:
        """Interpret every fragment at its sites, children first, routing
        each non-root output to its consumers."""
        tracer = get_tracer()
        fragments, ctx = run.fragments, run.ctx
        index = 0
        while index < len(fragments):
            fragment = fragments[index]
            if run.injector.take_fragment_oom(fragment.fragment_id, run.at):
                raise FragmentOomError(
                    f"fragment #{fragment.fragment_id} was OOM-killed",
                    fragment_id=fragment.fragment_id,
                )
            # The processing sites (Section 3.2.3): the coordinator — the
            # lowest survivor if site 0 is dead — or every survivor.
            sites = list(ctx.alive_sites)
            if fragment.at_one_site:
                sites = [run.coordinator]
            run.fragment_sites[fragment.fragment_id] = sites
            ctx.current_fragment = fragment.fragment_id
            units_before = ctx.total_units
            with tracer.span(
                f"fragment#{fragment.fragment_id}", sites=len(sites)
            ) as span:
                for site in sites:
                    out = run.run_fragment(fragment.root, site, ctx)
                    if fragment.is_root:
                        run.result_rows = stream_rows(out)
                        continue
                    for observer in run.observers:
                        observer.capture(fragment, site, out)
                    self._route(run, fragment, site, out)
                tracer.advance(ctx.total_units - units_before)
                span.attrs["units"] = ctx.total_units - units_before
            run.completed.append(fragment)
            if not fragment.is_root:
                # A materialisation point: the fragment's true cardinality
                # is known before any consumer runs, and an observer may
                # answer it with a re-planned suffix to splice in.
                for observer in run.observers:
                    new_suffix = observer.checkpoint(
                        fragments, index, ctx, run.coordinator
                    )
                    if new_suffix is not None:
                        fragments[index + 1:] = new_suffix
            index += 1
        ctx.current_fragment = None
        assert run.result_rows is not None

    def _route(self, run: _Run, fragment: Fragment, site: int, out) -> None:
        """Ship one site's fragment output (a row list or a columnar
        batch): single and broadcast exchanges hand it over as it is,
        hash exchanges split it per destination — row lists by a tuple
        loop, batches into index views (``columnar.hash_views``)."""
        sender = fragment.sender
        assert sender is not None
        if run.injector.take_exchange_drop(sender.exchange_id, run.at):
            raise ExchangeLostError(
                f"exchange #{sender.exchange_id} dropped its stream "
                f"from site {site}",
                exchange_id=sender.exchange_id,
            )
        ctx = run.ctx
        target = sender.target
        width = fragment.root.width
        alive = ctx.alive_sites
        if target.is_single:
            ctx.deliver(sender.exchange_id, run.coordinator, out)
            copies = 1
        elif target.is_broadcast:
            for destination in alive:
                ctx.deliver(sender.exchange_id, destination, out)
            copies = len(alive)
        elif target.is_hash:
            keys = target.keys
            partitions = self.store.partitions_per_table
            owners = _partition_owners(partitions, self.config.sites, alive)
            if not isinstance(out, list):
                # Imported lazily: the row backend must work without numpy.
                from repro.exec.columnar import hash_views

                buckets = hash_views(out, keys, owners, alive)
            else:
                buckets = {dest: [] for dest in alive}
                if len(keys) == 1:
                    key = keys[0]
                    for row in out:
                        partition = affinity_partition(row[key], partitions)
                        buckets[owners[partition]].append(row)
                else:
                    for row in out:
                        value = tuple(row[k] for k in keys)
                        partition = affinity_partition(value, partitions)
                        buckets[owners[partition]].append(row)
            for destination, bucket in buckets.items():
                ctx.deliver(sender.exchange_id, destination, bucket)
            copies = 1
        else:
            raise ExecutionError(f"cannot route to distribution {target}")
        shipped = len(out)
        network = network_units_for(shipped, width, copies)
        ctx.charge(fragment.root, site, charges.exchange(shipped) + network)
        ctx.network_units += network
        ctx.rows_shipped += shipped * copies
        totals = run.shipped
        if totals is None:
            totals = run.shipped = [0, 0.0, 0]
        totals[0] += shipped * copies
        totals[1] += shipped * width * AFS * copies
        totals[2] += network_messages(shipped) * copies

    @staticmethod
    def _publish(run: _Run) -> None:
        """The run's exchange counters, once, on every way out of it."""
        if run.shipped is not None:
            rows, size, batches = run.shipped
            registry = get_registry()
            registry.inc("exchange.rows", rows)
            registry.inc("exchange.bytes", size)
            registry.inc("exchange.batches", batches)

    # -- step 3: simulate -----------------------------------------------------------

    def _simulate(self, run: _Run) -> None:
        """Turn the charged work into a task graph and a makespan, and
        hold the makespan against the query deadline."""
        run.graph, run.stats = self._build_task_graph(run)
        events = run.injector.scheduler_events()
        if events:
            run.makespan, run.redispatched = simulate_makespan_with_faults(
                run.graph,
                self.config.sites,
                CORES_PER_SITE,
                events,
                at=run.at,
                redispatch=self.config.failover_redispatch,
            )
        else:
            run.makespan = simulate_makespan(
                run.graph, self.config.sites, CORES_PER_SITE
            )
        deadline = self.config.query_deadline_seconds
        if deadline is not None and run.makespan > deadline:
            error = QueryDeadlineError(
                f"query ran {run.makespan:.3f}s simulated, past its "
                f"{deadline:.3f}s deadline",
                limit=deadline,
                elapsed=run.makespan,
            )
            # The work is done and every actual is known — feed them to
            # adaptive re-planning even though the query misses its SLO.
            error.partial = (run.completed, run.actuals())
            raise error

    def _build_task_graph(
        self, run: _Run
    ) -> Tuple[TaskGraph, List[FragmentStats]]:
        ops = run.ctx.ops
        graph = TaskGraph()
        fragment_tasks: Dict[int, List[int]] = {}
        stats: List[FragmentStats] = []

        for fragment in run.fragments:
            sites = run.fragment_sites[fragment.fragment_id]
            deps: List[int] = []
            for child_id in fragment.child_ids:
                deps.extend(fragment_tasks.get(child_id, ()))
            variants, factors, sources = self._variants(fragment)
            # An injected exchange delay stretches every task of the
            # producing fragment: the shipment occupies its pipeline for
            # the extra time.
            delay_units = 0.0
            if fragment.sender is not None:
                delay_units = (
                    run.injector.exchange_delay_seconds(
                        fragment.sender.exchange_id, run.at
                    )
                    * CORE_UNITS_PER_SECOND
                )
            task_ids: List[int] = []
            fragment_units = 0.0
            rows_out = 0
            operators = fragment.operators()
            root_id = fragment.root.op_id
            for site in sites:
                rows_out += ops[root_id, site][1]
                per_op = [ops[op.op_id, site][2] for op in operators]
                site_units = sum(per_op)
                fragment_units += site_units
                if factors is None or site_units < VARIANT_MIN_UNITS:
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
                # Every variant re-reads the sources' rows.
                source_rows = 0.0
                for position in sources:
                    source_rows += per_op[position] / RPTC
                duration = (
                    VARIANT_SETUP_UNITS
                    + source_rows * VARIANT_SPLIT_UNITS_PER_ROW
                    + FRAGMENT_SETUP_UNITS
                    + delay_units
                )
                for units, factor in zip(per_op, factors):
                    duration += units * factor
                for _ in range(variants):
                    task_ids.append(graph.add(site, duration, deps))
            fragment_tasks[fragment.fragment_id] = task_ids
            stats.append(
                FragmentStats(
                    fragment_id=fragment.fragment_id,
                    sites=list(sites),
                    rows_out=rows_out,
                    units=fragment_units,
                    variants=1 if factors is None else variants,
                )
            )
        return graph, stats

    def _variants(self, fragment: Fragment) -> tuple:
        """``fragment.variants`` for the configured variant count, kept."""
        requested = max(1, self.config.variant_fragments)
        kept = fragment.variants
        if kept is None or kept[0] != requested:
            plan = plan_variants(fragment) if requested > 1 else None
            factors = sources = None
            if plan is not None:
                operators = fragment.operators()
                factors = [plan.factor(op, requested) for op in operators]
                kinds = [plan.scaling.get(op.op_id) for op in operators]
                sources = [i for i, kind in enumerate(kinds) if kind == SOURCE]
            kept = fragment.variants = (requested, factors, sources)
        return kept

    # -- step 4: report -------------------------------------------------------------

    def _report(self, run: _Run) -> ExecutionResult:
        """Tell the observers the run succeeded, publish its metrics and
        assemble the result."""
        for observer in run.observers:
            observer.finish(run.fragments)
        ctx = run.ctx
        actuals = run.actuals()
        degraded = (
            run.redispatched > 0 or len(ctx.alive_sites) < self.config.sites
        )
        flows: Dict[str, list] = {}  # operator type -> [rows out, rows in]
        for fragment in run.fragments:
            for op in fragment.operators():
                actual = actuals[op.op_id]
                flow = flows.get(type(op).__name__)
                if flow is None:
                    flow = flows[type(op).__name__] = [0, 0]
                flow[0] += actual.rows_out
                flow[1] += actual.rows_in
        registry = get_registry()
        for op_name, (rows_out, rows_in) in flows.items():
            registry.inc("operator.rows_out", rows_out, op=op_name)
            registry.inc("operator.rows_in", rows_in, op=op_name)
        for stat in run.stats:
            stat.mem_bytes = max(
                (
                    ctx.fragment_memory.get((stat.fragment_id, site), 0.0)
                    for site in stat.sites
                ),
                default=0.0,
            )
            registry.gauge_max("fragment.mem_highwater_bytes", stat.mem_bytes)
        registry.inc("exec.queries")
        registry.inc("exec.result_rows", len(run.result_rows))
        registry.inc("exec.rows_shipped", ctx.rows_shipped)
        registry.inc("exec.work_units", ctx.total_units)
        registry.inc("exec.network_units", ctx.network_units)
        if run.redispatched:
            registry.inc("exec.redispatched_tasks", run.redispatched)
        if degraded:
            registry.inc("exec.degraded_queries")
        result = ExecutionResult(
            rows=run.result_rows,
            fields=list(run.plan.fields),
            task_graph=run.graph,
            simulated_seconds=run.makespan,
            total_units=ctx.total_units,
            network_units=ctx.network_units,
            rows_shipped=ctx.rows_shipped,
            fragments=run.stats,
            fragment_trees=list(run.fragments),
            operator_actuals=actuals,
            degraded=degraded,
            redispatched_tasks=run.redispatched,
        )
        if self.config.verify_execution:
            check_execution_result(result)
        return result
