"""The multi-tenant query server: one event loop over the simulated clock.

:class:`QueryServer` turns the single-query engine into a traffic-serving
system.  Arrivals from the seeded traffic generators are injected into an
extended :class:`~repro.cluster.scheduler.WorkloadSimulator` as timed
events; each arrival is offered to the admission controller; admitted
requests are planned and executed through the cluster facade (so the plan
cache, cardinality feedback and all planner flags behave exactly as they
do for single queries, now under contention) and their task graphs are
submitted to the *shared* simulator, where fragments from concurrently
admitted queries contend for the same per-site cores.

The work-unit cost accounting is untouched: a query admitted to an idle
cluster with no competition completes in exactly its single-query
makespan (the regression pin the serve tests enforce).  Under load,
per-query latency decomposes as ``latency = queue_wait + execution``
where execution starts when the query's first task gets a core.

Resilience: an optional mid-run site crash is applied to the shared
simulator.  With failover re-dispatch on (``config.failover_redispatch``,
the default), affected queries finish ``DEGRADED``; with it off, only
the queries whose fragments touch the dead site — in flight at the
crash, or dispatched after it — fail (``FAILED_SITE``) and are retried
with exponential backoff up to ``config.max_retries`` times, their
surviving-site replays remapped exactly like the engine's failover.  Queries with no fragments on the
dead site are untouched — the blast radius is per-query, never
per-cluster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.scheduler import TaskGraph, WorkloadSimulator
from repro.common.constants import CORES_PER_SITE
from repro.common.errors import ReproError, SiteFailureError
from repro.core.cluster import IgniteCalciteCluster, QueryStatus
from repro.faults.chaos import RetryPolicy
from repro.faults.injector import failover_owner
from repro.obs.metrics import get_registry, tenant_scope
from repro.obs.trace import Tracer
from repro.serve.admission import (
    REASON_QUEUE_FULL,
    REASON_SHED,
    AdmissionController,
)
from repro.serve.traffic import QueryRequest, TenantSpec, TrafficGenerator


class ServeError(ReproError):
    """The serving layer was driven incorrectly."""


@dataclass
class ServeRecord:
    """One request's complete fate in a serving run."""

    tenant: str
    template: str
    request_id: int
    status: QueryStatus
    arrival: float
    #: When admission dispatched the request (None = rejected before).
    dispatched: Optional[float] = None
    completed: Optional[float] = None
    #: completion - arrival (None unless the query produced rows).
    latency: Optional[float] = None
    #: Everything before the first task of the final attempt got a core:
    #: admission wait + core wait + failed attempts + retry backoff.
    queue_wait: Optional[float] = None
    #: completion - first task start of the successful attempt.
    execution_seconds: Optional[float] = None
    attempts: int = 1
    cache_hit: bool = False
    degraded: bool = False
    #: Why admission refused (``queue_full`` / ``shed``), else "".
    reject_reason: str = ""
    #: Sites the query's task graph placed work on.
    sites: Tuple[int, ...] = ()
    #: Result rows (populated only when the server keeps rows).
    rows: Optional[List[Tuple]] = None
    #: Per-request queued/admitted/execute span tree (when tracing).
    trace: Optional[Tracer] = None

    @property
    def succeeded(self) -> bool:
        return self.latency is not None


@dataclass
class ServeResult:
    """Everything one serving run produced, in arrival order."""

    system: str
    sites: int
    seed: int
    policy: str
    horizon: float
    makespan: float = 0.0
    max_queue_depth: int = 0
    records: List[ServeRecord] = field(default_factory=list)

    @property
    def completed(self) -> List[ServeRecord]:
        return [r for r in self.records if r.succeeded]

    @property
    def rejected(self) -> List[ServeRecord]:
        return [r for r in self.records if r.status is QueryStatus.REJECTED]


@dataclass
class _Inflight:
    """A dispatched request riding the shared simulator."""

    request: QueryRequest
    record: ServeRecord
    graph: TaskGraph
    rows: List[Tuple]
    #: Submission time of the current attempt.
    submitted: float


class QueryServer:
    """Serves multi-tenant traffic against one cluster on one sim clock."""

    def __init__(
        self,
        cluster: IgniteCalciteCluster,
        tenants: Sequence[TenantSpec],
        seed: int = 0,
        keep_rows: bool = False,
        record_traces: bool = False,
        site_crashes: Sequence[Tuple[int, float]] = (),
    ):
        if not tenants:
            raise ServeError("a serving run needs at least one tenant")
        self.cluster = cluster
        self.config = cluster.config
        if cluster.fault_injector.schedule:
            # Serving-layer crashes live on the shared simulator; a cluster
            # fault schedule would also disable the plan cache (chaos
            # bypass) and double-inject faults per attempt.
            raise ServeError(
                "serve a fault-free cluster; pass site_crashes instead of "
                "config.faults"
            )
        self.tenants = {spec.name: spec for spec in tenants}
        self.seed = seed
        self.keep_rows = keep_rows
        self.record_traces = record_traces
        self.site_crashes = tuple(site_crashes)
        self.redispatch = self.config.failover_redispatch
        self._traffic = TrafficGenerator(tenants, seed=seed)
        self._retry_policy = RetryPolicy(
            max_retries=self.config.max_retries, seed=seed
        )
        self._tags = itertools.count()
        self._inflight: Dict[int, _Inflight] = {}
        self.admission: Optional[AdmissionController] = None
        self.simulator: Optional[WorkloadSimulator] = None
        self._horizon = 0.0
        self._records: List[ServeRecord] = []

    # -- the run -----------------------------------------------------------

    def run(self, duration: float) -> ServeResult:
        """Serve ``duration`` simulated seconds of traffic, then drain.

        Arrivals stop at ``duration``; already-queued and in-flight work
        is allowed to finish, so the makespan may exceed the horizon.
        """
        if duration <= 0:
            raise ServeError("serving duration must be > 0 seconds")
        self._horizon = duration
        self._records = []
        self._inflight = {}
        self.admission = AdmissionController.from_config(
            self.config, list(self.tenants.values())
        )
        simulator = WorkloadSimulator(
            self.config.sites,
            CORES_PER_SITE,
            redispatch_on_failure=self.redispatch,
        )
        simulator.on_complete = self._on_complete
        if not self.redispatch:
            simulator.on_tag_failed = self._on_tag_failed
        for site, at in self.site_crashes:
            simulator.schedule_crash(site, at)
        self.simulator = simulator
        for request in self._traffic.open_loop_schedule(duration):
            self._schedule_arrival(request)
        for spec in self.tenants.values():
            if spec.is_closed_loop:
                for request in self._traffic.first_arrivals(spec):
                    if request.arrival < duration:
                        self._schedule_arrival(request)
        simulator.run()
        # Belt and braces: a pathological policy could leave queued work
        # with nothing in flight to trigger the next pump.
        while len(self.admission) and not self._inflight:
            before = len(self.admission)
            self._pump(simulator.now)
            simulator.run()
            if len(self.admission) == before and not self._inflight:
                raise ServeError("admission wedged with queued requests")
        result = ServeResult(
            system=self.config.name,
            sites=self.config.sites,
            seed=self.seed,
            policy=self.config.serve_policy,
            horizon=duration,
            makespan=simulator.now,
            max_queue_depth=self.admission.max_queue_depth,
            records=sorted(
                self._records, key=lambda r: (r.arrival, r.request_id)
            ),
        )
        return result

    # -- arrivals ----------------------------------------------------------

    def _schedule_arrival(self, request: QueryRequest) -> None:
        self.simulator.schedule_event(
            request.arrival, lambda: self._on_arrival(request)
        )

    def _on_arrival(self, request: QueryRequest) -> None:
        now = self.simulator.now
        get_registry().inc("serve.arrivals", tenant=request.tenant)
        if not self.admission.offer(request, now):
            self._record_rejection(request, REASON_QUEUE_FULL, now)
            return
        self._pump(now)

    def _pump(self, now: float) -> None:
        """Shed overdue work, then admit while slots and queue allow."""
        for shed in self.admission.shed(now):
            self._record_rejection(shed, REASON_SHED, now)
        while True:
            request = self.admission.admit(now)
            if request is None:
                return
            self._dispatch(request, now)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, request: QueryRequest, now: float) -> None:
        with tenant_scope(request.tenant):
            outcome = self.cluster.try_sql(request.sql)
        record = ServeRecord(
            tenant=request.tenant,
            template=request.template,
            request_id=request.request_id,
            status=outcome.status,
            arrival=request.arrival,
            dispatched=now,
            cache_hit=outcome.plan_cached,
        )
        if not outcome.succeeded:
            # Planning failures, unsupported SQL, runtime-limit timeouts:
            # deterministic per query, never retried, slot freed at once.
            record.completed = now
            self._finish_record(record, request, now)
            self._pump(now)
            return
        graph = outcome.result.task_graph
        record.sites = tuple(
            sorted({task.site % self.config.sites for task in graph.tasks})
        )
        rows = outcome.result.rows if self.keep_rows else []
        entry = _Inflight(
            request=request,
            record=record,
            graph=graph,
            rows=rows,
            submitted=now,
        )
        if not self.redispatch and self._touches_down_site(graph):
            # The planner is crash-blind (placement by partition), so a
            # post-crash dispatch can land fragments on the dead site.
            # With failover off that attempt fails exactly like an
            # in-flight victim: retried (remapped to the backup owners)
            # while budget remains, FAILED_SITE after.
            self._fail_attempt(entry, now)
            return
        self._submit_attempt(entry)

    def _submit_attempt(self, entry: _Inflight) -> None:
        tag = next(self._tags)
        self._inflight[tag] = entry
        self.simulator.submit(entry.graph, at=entry.submitted, tag=tag)

    # -- completion --------------------------------------------------------

    def _on_complete(self, tag: int, now: float) -> None:
        entry = self._inflight.pop(tag, None)
        if entry is None:
            return
        record, request = entry.record, entry.request
        sim_wait = self.simulator.queue_wait(tag)
        record.completed = now
        record.latency = now - request.arrival
        record.execution_seconds = now - (entry.submitted + sim_wait)
        record.queue_wait = record.latency - record.execution_seconds
        record.degraded = record.degraded or tag in self.simulator.degraded_tags
        if record.attempts > 1:
            record.status = QueryStatus.RETRIED
        elif record.degraded:
            record.status = QueryStatus.DEGRADED
        else:
            record.status = QueryStatus.OK
        if self.keep_rows:
            record.rows = entry.rows
        registry = get_registry()
        registry.observe("serve.latency", record.latency, tenant=record.tenant)
        registry.observe(
            "serve.queue_wait", record.queue_wait, tenant=record.tenant
        )
        registry.observe(
            "serve.execution", record.execution_seconds, tenant=record.tenant
        )
        self._finish_record(record, request, now)
        self._pump(now)

    def _on_tag_failed(self, tag: int, error: SiteFailureError) -> None:
        entry = self._inflight.pop(tag, None)
        if entry is None:
            return
        self._fail_attempt(entry, self.simulator.now)

    def _fail_attempt(self, entry: _Inflight, now: float) -> None:
        """An attempt lost fragments to a dead site: retry or give up."""
        record, request = entry.record, entry.request
        retry_index = record.attempts - 1  # 0-based upcoming retry
        if retry_index < self._retry_policy.max_retries:
            record.attempts += 1
            get_registry().inc("serve.retries", tenant=record.tenant)
            delay = self._retry_policy.delay(
                retry_index, salt=request.request_id
            )
            entry.graph = self._remap_graph(entry.graph)
            entry.submitted = now + delay
            self.simulator.schedule_event(
                entry.submitted, lambda: self._submit_attempt(entry)
            )
            return
        record.status = QueryStatus.FAILED_SITE
        record.completed = now
        self._finish_record(record, request, now)
        self._pump(now)

    def _touches_down_site(self, graph: TaskGraph) -> bool:
        alive, sites = self.simulator.alive_sites(), self.config.sites
        return len(alive) < sites and any(
            task.site % sites not in alive for task in graph.tasks
        )

    def _remap_graph(self, graph: TaskGraph) -> TaskGraph:
        """``graph`` with every task on a dead site moved to that site's
        failover owner (``faults.injector.failover_owner``); the graph
        itself when no task moved."""
        alive, sites = self.simulator.alive_sites(), self.config.sites
        if not alive:
            return graph  # submit() raises "all sites failed"
        remapped = TaskGraph()
        moved = False
        for task in graph.tasks:
            site = failover_owner(task.site % sites, sites, alive)
            moved = moved or site != task.site % sites
            remapped.add(site, task.units, task.deps)
        return remapped if moved else graph

    # -- record plumbing ---------------------------------------------------

    def _record_rejection(
        self, request: QueryRequest, reason: str, now: float
    ) -> None:
        record = ServeRecord(
            tenant=request.tenant,
            template=request.template,
            request_id=request.request_id,
            status=QueryStatus.REJECTED,
            arrival=request.arrival,
            completed=now,
            reject_reason=reason,
        )
        self._records.append(record)
        get_registry().inc(
            "serve.completed", tenant=record.tenant, status=record.status.value
        )
        self._trace_record(record)
        self._continue_closed_loop(request, now)

    def _finish_record(
        self, record: ServeRecord, request: QueryRequest, now: float
    ) -> None:
        self._records.append(record)
        self.admission.finish(request)
        get_registry().inc(
            "serve.completed", tenant=record.tenant, status=record.status.value
        )
        self._trace_record(record)
        self._continue_closed_loop(request, now)

    def _continue_closed_loop(self, request: QueryRequest, now: float) -> None:
        if request.client is None:
            return
        spec = self.tenants[request.tenant]
        nxt = self._traffic.next_think(spec, request.client, now)
        if nxt.arrival < self._horizon:
            self._schedule_arrival(nxt)

    def _trace_record(self, record: ServeRecord) -> None:
        """A queued -> admitted -> execute span tree for one request."""
        if not self.record_traces:
            return
        tracer = Tracer()
        tracer.advance(record.arrival)
        with tracer.span(
            "request",
            tenant=record.tenant,
            template=record.template,
            status=record.status.value,
        ):
            with tracer.span("queued"):
                if record.queue_wait:
                    tracer.advance(record.queue_wait)
            if record.status is not QueryStatus.REJECTED:
                with tracer.span("admitted", attempts=record.attempts):
                    pass
                with tracer.span("execute"):
                    if record.execution_seconds:
                        tracer.advance(record.execution_seconds)
        record.trace = tracer
