"""The simulated cluster scheduler.

Turns work units into simulated time: each (fragment, site[, variant])
becomes a task with a duration; sites have a fixed number of cores; a
discrete-event simulation computes when every task runs.  Fragments are
bulk-synchronous — a fragment's tasks start once all tasks of its child
fragments finish — a documented simplification (DESIGN.md) that affects all
system variants equally.

The same scheduler powers the multi-client Average Query Latency
experiment (Table 3): terminals submit queries closed-loop, tasks from
concurrent queries contend for the same cores, and the 2x thread
oversubscription of IC+M shows up as queueing delay exactly as the paper
describes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.constants import CORE_UNITS_PER_SECOND
from repro.common.errors import ExecutionError, SiteFailureError
from repro.obs.metrics import get_registry
from repro.storage.table import failover_owner


@dataclass
class SimTask:
    """One schedulable unit of work at one site."""

    task_id: int
    site: int
    units: float
    deps: Tuple[int, ...] = ()

    @property
    def duration(self) -> float:
        return self.units / CORE_UNITS_PER_SECOND


@dataclass
class TaskGraph:
    """A query's task graph; replayable for workload simulations."""

    tasks: List[SimTask] = field(default_factory=list)

    def add(self, site: int, units: float, deps: Sequence[int] = ()) -> int:
        task_id = len(self.tasks)
        self.tasks.append(SimTask(task_id, site, units, tuple(deps)))
        return task_id

    @property
    def total_units(self) -> float:
        return sum(t.units for t in self.tasks)

    def critical_path_units(self) -> float:
        """Longest dependency chain (infinite-core lower bound)."""
        memo: Dict[int, float] = {}

        def longest(task_id: int) -> float:
            cached = memo.get(task_id)
            if cached is not None:
                return cached
            task = self.tasks[task_id]
            best = max(
                (longest(d) for d in task.deps), default=0.0
            )
            memo[task_id] = best + task.units
            return memo[task_id]

        return max((longest(t.task_id) for t in self.tasks), default=0.0)


def simulate_makespan(
    graph: TaskGraph, sites: int, cores_per_site: int
) -> float:
    """Simulated seconds to complete one query alone on the cluster."""
    simulator = WorkloadSimulator(sites, cores_per_site)
    simulator.submit(graph, at=0.0, tag=0)
    simulator.run()
    return simulator.completion_time(0)


def simulate_makespan_with_faults(
    graph: TaskGraph,
    sites: int,
    cores_per_site: int,
    events: Sequence[Tuple[float, str, Tuple]] = (),
    at: float = 0.0,
    redispatch: bool = True,
) -> Tuple[float, int]:
    """Makespan of one query submitted at ``at`` under fault events.

    ``events`` are ``(time, kind, payload)`` triples in *absolute*
    simulated time — ``("crash", (site,))`` or ``("slow", (site, factor))``
    — typically from :meth:`repro.faults.injector.FaultInjector.scheduler_events`.
    Returns ``(makespan, redispatched)`` where ``redispatched`` counts the
    tasks restarted on surviving sites; raises
    :class:`~repro.common.errors.SiteFailureError` when ``redispatch`` is
    off and a crash loses work (or when every site dies).
    """
    simulator = WorkloadSimulator(
        sites, cores_per_site, redispatch_on_failure=redispatch
    )
    for time, kind, payload in events:
        if kind == "crash":
            simulator.schedule_crash(payload[0], time)
        elif kind == "slow":
            simulator.schedule_slowdown(payload[0], payload[1], time)
        else:
            raise ExecutionError(f"unknown fault event kind {kind!r}")
    simulator.submit(graph, at=at, tag=0)
    simulator.run()
    return simulator.completion_time(0) - at, simulator.redispatched_tasks


class WorkloadSimulator:
    """Discrete-event simulation of tasks on a multi-site cluster.

    Supports dynamic submission: a callback fired when a tagged task graph
    completes may submit more work (the closed-loop terminals of the AQL
    experiment, Section 6.3).
    """

    def __init__(
        self,
        sites: int,
        cores_per_site: int,
        redispatch_on_failure: bool = True,
    ):
        if sites < 1 or cores_per_site < 1:
            raise ExecutionError("sites and cores_per_site must be >= 1")
        self.sites = sites
        self.cores_per_site = cores_per_site
        #: When a site dies, migrate its lost/queued tasks to survivors
        #: (restarting them from scratch).  With this off, a crash that
        #: loses work raises :class:`SiteFailureError` instead — the query
        #: fails and the resilience layer may retry it.
        self.redispatch_on_failure = redispatch_on_failure
        self._now = 0.0
        self._ids = itertools.count()
        self._pending_deps: Dict[int, int] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._tasks: Dict[int, SimTask] = {}
        self._release: Dict[int, float] = {}
        self._ready: List[Tuple[float, int, int]] = []  # (release, seq, id)
        self._running: List[Tuple[float, int]] = []  # (finish, id)
        self._free_cores = [cores_per_site] * sites
        self._site_queues: List[List[Tuple[float, int, int]]] = [
            [] for _ in range(sites)
        ]
        self._seq = itertools.count()
        self._tag_of: Dict[int, int] = {}
        self._open_tasks: Dict[int, int] = {}
        self._completions: Dict[int, float] = {}
        self._submit_times: Dict[int, float] = {}
        #: tag -> time its first task started executing (queue-wait split).
        self._first_start: Dict[int, float] = {}
        self.on_complete: Optional[Callable[[int, float], None]] = None
        # -- generic timed events (the serving layer's arrival clock) -------
        #: (time, seq, callback) heap, interleaved with task completions in
        #: time order; lets repro.serve inject arrivals/admission decisions
        #: at exact simulated times.
        self._event_heap: List[Tuple[float, int, Callable[[], None]]] = []
        # -- fault state ----------------------------------------------------
        self._down = [False] * sites
        self._speed = [1.0] * sites
        #: (time, seq, kind, payload) discrete fault events, a heap.
        self._fault_heap: List[Tuple[float, int, str, Tuple]] = []
        self._running_site: Dict[int, int] = {}  # task id -> executing site
        #: Tasks restarted on a surviving site after losing theirs.
        self.redispatched_tasks = 0
        #: Crash events that actually took a site down.
        self.crashes_fired = 0
        #: Tags that lost tasks to a crash and had them re-dispatched —
        #: they completed, but below full strength.
        self.degraded_tags: Set[int] = set()
        #: tag -> the SiteFailureError that killed it (per-tag failure mode).
        self.failed_tags: Dict[int, SiteFailureError] = {}
        #: With re-dispatch off, a crash normally fails the whole run; when
        #: this callback is set, only the tags with unfinished tasks on the
        #: dead site are cancelled (and reported here) — the serving layer's
        #: blast-radius containment.
        self.on_tag_failed: Optional[Callable[[int, SiteFailureError], None]] = None
        self._finished_tasks: Set[int] = set()
        self._cancelled_tasks: Set[int] = set()

    # -- fault scheduling -------------------------------------------------------

    def schedule_crash(self, site: int, at: float) -> None:
        """Site ``site`` dies at simulated time ``at`` (permanently)."""
        self._schedule_fault(at, "crash", (site,))

    def schedule_slowdown(self, site: int, factor: float, at: float) -> None:
        """Site ``site`` retires work ``factor``x slower from ``at`` on.

        Tasks already in flight keep their finish times (a documented
        simplification); tasks dispatched after the event are stretched.
        """
        if factor <= 0:
            raise ExecutionError("slowdown factor must be > 0")
        self._schedule_fault(at, "slow", (site, factor))

    def _schedule_fault(self, at: float, kind: str, payload: Tuple) -> None:
        if not 0 <= payload[0] < self.sites:
            raise ExecutionError(f"fault targets unknown site {payload[0]}")
        heapq.heappush(self._fault_heap, (at, next(self._seq), kind, payload))

    def alive_sites(self) -> List[int]:
        """The sites no crash has taken down, in site order."""
        return [s for s in range(self.sites) if not self._down[s]]

    def _route_site(self, site: int) -> int:
        """Where a task placed at ``site`` actually runs (failover remap)."""
        if not self._down[site]:
            return site
        alive = self.alive_sites()
        if not alive:
            raise SiteFailureError(
                "all sites have failed", site=site, at=self._now
            )
        if not self.redispatch_on_failure:
            raise SiteFailureError(
                f"site {site} is down and re-dispatch is disabled",
                site=site,
                at=self._now,
            )
        return failover_owner(site, self.sites, alive)

    def _apply_fault(self, kind: str, payload: Tuple) -> None:
        if kind == "slow":
            site, factor = payload
            self._speed[site] = 1.0 / factor
            return
        (site,) = payload
        if self._down[site]:
            return
        self._down[site] = True
        self.crashes_fired += 1
        get_registry().inc("scheduler.crashes_fired", site=site)
        self._free_cores[site] = 0
        lost = sorted(
            tid for tid, s in self._running_site.items() if s == site
        )
        queued = sorted(self._site_queues[site])
        self._site_queues[site] = []
        if not self.redispatch_on_failure:
            if self.on_tag_failed is not None:
                # Per-tag failure mode: cancel only the queries that still
                # have unfinished tasks placed on the dead site; everything
                # else keeps running.
                self._fail_tags_on(site)
                return
            if lost or queued:
                raise SiteFailureError(
                    f"site {site} died holding {len(lost)} running and "
                    f"{len(queued)} queued task(s)",
                    site=site,
                    at=self._now,
                )
        for tid, task in self._tasks.items():
            if (
                task.site == site
                and tid not in self._finished_tasks
                and tid not in self._cancelled_tasks
                and self._tag_of[tid] in self._open_tasks
            ):
                self.degraded_tags.add(self._tag_of[tid])
        if lost:
            lost_set = set(lost)
            self._running = [
                (finish, tid)
                for finish, tid in self._running
                if tid not in lost_set
            ]
            heapq.heapify(self._running)
            for tid in lost:
                del self._running_site[tid]
                self.redispatched_tasks += 1
                self._enqueue(tid, self._now)
        for release, _, tid in queued:
            self.redispatched_tasks += 1
            self._enqueue(tid, max(release, self._now))
        if lost or queued:
            get_registry().inc(
                "scheduler.redispatched_tasks", len(lost) + len(queued)
            )

    def _fail_tags_on(self, site: int) -> None:
        """Cancel every tag with an unfinished task placed on ``site``."""
        affected = set()
        for tid, task in self._tasks.items():
            if tid in self._finished_tasks or tid in self._cancelled_tasks:
                continue
            if task.site == site and self._tag_of[tid] in self._open_tasks:
                affected.add(self._tag_of[tid])
        for tag in sorted(affected):
            self._fail_tag(
                tag,
                SiteFailureError(
                    f"site {site} died with unfinished tasks of tag {tag}",
                    site=site,
                    at=self._now,
                ),
            )

    def _fail_tag(self, tag: int, error: SiteFailureError) -> None:
        """Remove every unfinished task of ``tag`` from the simulation."""
        doomed = {
            tid
            for tid, t in self._tag_of.items()
            if t == tag
            and tid not in self._finished_tasks
            and tid not in self._cancelled_tasks
        }
        self._cancelled_tasks.update(doomed)
        for site in range(self.sites):
            queue = self._site_queues[site]
            if any(tid in doomed for _, _, tid in queue):
                self._site_queues[site] = [
                    entry for entry in queue if entry[2] not in doomed
                ]
                heapq.heapify(self._site_queues[site])
        if any(tid in doomed for _, tid in self._running):
            self._running = [
                (finish, tid)
                for finish, tid in self._running
                if tid not in doomed
            ]
            heapq.heapify(self._running)
        for tid in doomed:
            site = self._running_site.pop(tid, None)
            if site is not None and not self._down[site]:
                self._free_cores[site] += 1
        del self._open_tasks[tag]
        self.failed_tags[tag] = error
        get_registry().inc("scheduler.failed_tags")
        if self.on_tag_failed is not None:
            self.on_tag_failed(tag, error)

    def _process_due_faults(self) -> None:
        while self._fault_heap and self._fault_heap[0][0] <= self._now:
            _, _, kind, payload = heapq.heappop(self._fault_heap)
            self._apply_fault(kind, payload)

    # -- timed events -----------------------------------------------------------

    def schedule_event(self, at: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``at`` (during :meth:`run`).

        Events interleave with task completions and fault events in time
        order; ties go fault, then event, then completion.  The callback
        runs with the simulator clock at ``at`` and may submit new task
        graphs or schedule further events — this is how the serving layer
        drives open-loop arrivals and admission decisions.
        """
        if at < 0:
            raise ExecutionError("event time must be >= 0")
        heapq.heappush(self._event_heap, (at, next(self._seq), callback))

    # -- submission -------------------------------------------------------------

    def submit(self, graph: TaskGraph, at: float, tag: int) -> None:
        """Instantiate ``graph`` with release time ``at`` under ``tag``."""
        if tag in self._open_tasks:
            raise ExecutionError(f"tag {tag} already has an open submission")
        mapping: Dict[int, int] = {}
        self._submit_times[tag] = at
        self._open_tasks[tag] = len(graph.tasks)
        if not graph.tasks:
            # An empty graph completes instantly — but it still completes:
            # closed-loop clients block on the callback, so drop it and the
            # workload wedges.  Clear the open entry first so the callback
            # may resubmit under the same tag.
            self._completions[tag] = at
            self._first_start.setdefault(tag, at)
            del self._open_tasks[tag]
            if self.on_complete is not None:
                self.on_complete(tag, at)
            return
        for task in graph.tasks:
            global_id = next(self._ids)
            mapping[task.task_id] = global_id
        for task in graph.tasks:
            global_id = mapping[task.task_id]
            deps = [mapping[d] for d in task.deps]
            instance = SimTask(
                global_id, task.site % self.sites, task.units, tuple(deps)
            )
            self._tasks[global_id] = instance
            self._tag_of[global_id] = tag
            self._release[global_id] = at
            self._pending_deps[global_id] = len(deps)
            for dep in deps:
                self._dependents.setdefault(dep, []).append(global_id)
            if not deps:
                self._enqueue(global_id, at)

    def _enqueue(self, task_id: int, when: float) -> None:
        task = self._tasks[task_id]
        site = self._route_site(task.site)
        release = max(when, self._release[task_id])
        heapq.heappush(
            self._site_queues[site], (release, next(self._seq), task_id)
        )

    # -- simulation loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until all work drains (or simulated ``until`` is passed).

        Fault events scheduled via ``schedule_crash``/``schedule_slowdown``
        and timed events from ``schedule_event`` are interleaved with task
        completions in time order; on a tie the fault is applied first (a
        task cannot finish on a site at the very instant the site dies),
        then events, then completions.
        """
        self._process_due_faults()
        self._dispatch()
        while (
            self._running
            or self._event_heap
            or (self._fault_heap and self._open_tasks)
        ):
            next_finish = self._running[0][0] if self._running else math.inf
            next_event = (
                self._event_heap[0][0] if self._event_heap else math.inf
            )
            next_fault = (
                self._fault_heap[0][0] if self._fault_heap else math.inf
            )
            if next_fault <= next_event and next_fault <= next_finish:
                at, _, kind, payload = heapq.heappop(self._fault_heap)
                if until is not None and at > until:
                    self._now = until
                    return self._now
                self._now = max(self._now, at)
                self._apply_fault(kind, payload)
                self._process_due_faults()
                self._dispatch()
                continue
            if next_event <= next_finish:
                if until is not None and next_event > until:
                    self._now = until
                    return self._now
                at, _, callback = heapq.heappop(self._event_heap)
                self._now = max(self._now, at)
                callback()
                self._process_due_faults()
                self._dispatch()
                continue
            finish, task_id = self._running[0]
            if until is not None and finish > until:
                self._now = until
                return self._now
            heapq.heappop(self._running)
            self._now = max(self._now, finish)
            site = self._running_site.pop(task_id)
            self._free_cores[site] += 1
            self._finish_task(task_id)
            self._dispatch()
        return self._now

    def _finish_task(self, task_id: int) -> None:
        self._finished_tasks.add(task_id)
        tag = self._tag_of[task_id]
        self._open_tasks[tag] -= 1
        if self._open_tasks[tag] == 0:
            del self._open_tasks[tag]
            self._completions[tag] = self._now
            if self.on_complete is not None:
                self.on_complete(tag, self._now)
        for dependent in self._dependents.get(task_id, ()):  # release deps
            self._pending_deps[dependent] -= 1
            if self._pending_deps[dependent] == 0:
                self._enqueue(dependent, self._now)

    def _dispatch(self) -> None:
        if not self._running:
            # Idle cluster: jump forward to the earliest release across
            # *all* sites.  Jumping to the first non-empty queue's head
            # (the old behaviour) could skip past earlier releases at
            # later-numbered sites, starting those tasks late.  Never jump
            # past a pending fault or timed event: both must be applied
            # before any task the jump would start (run() handles it next).
            heads = [q[0][0] for q in self._site_queues if q]
            if heads:
                jump = min(heads)
                blocked = (
                    self._fault_heap and self._fault_heap[0][0] <= jump
                ) or (self._event_heap and self._event_heap[0][0] <= jump)
                if not blocked:
                    self._now = max(self._now, jump)
        for site in range(self.sites):
            if self._down[site]:
                continue
            queue = self._site_queues[site]
            while self._free_cores[site] > 0 and queue:
                release, _, task_id = queue[0]
                if release > self._now:
                    break
                heapq.heappop(queue)
                self._free_cores[site] -= 1
                task = self._tasks[task_id]
                tag = self._tag_of[task_id]
                if tag not in self._first_start:
                    self._first_start[tag] = self._now
                duration = task.duration / self._speed[site]
                self._running_site[task_id] = site
                heapq.heappush(
                    self._running, (self._now + duration, task_id)
                )

    # -- results ------------------------------------------------------------------------

    def completion_time(self, tag: int) -> float:
        if tag not in self._completions:
            if tag not in self._submit_times:
                raise ExecutionError(
                    f"unknown tag {tag}: never submitted to this simulator"
                )
            if tag in self.failed_tags:
                raise ExecutionError(
                    f"tag {tag} failed and will never complete: "
                    f"{self.failed_tags[tag]}"
                )
            raise ExecutionError(
                f"tag {tag} has not completed (submitted at "
                f"{self._submit_times[tag]:.3f}s; did run() finish?)"
            )
        return self._completions[tag]

    def latency(self, tag: int) -> float:
        """Completion minus submission for ``tag`` (queue wait included)."""
        if tag not in self._submit_times:
            raise ExecutionError(
                f"unknown tag {tag}: never submitted to this simulator"
            )
        return self.completion_time(tag) - self._submit_times[tag]

    def queue_wait(self, tag: int) -> float:
        """Seconds ``tag`` waited for its first task to start executing.

        The serving layer's latency split: ``latency == queue_wait +
        (completion - first task start)``.  Zero for a query submitted to
        an idle cluster.
        """
        if tag not in self._submit_times:
            raise ExecutionError(
                f"unknown tag {tag}: never submitted to this simulator"
            )
        if tag not in self._first_start:
            raise ExecutionError(
                f"tag {tag} has not started executing (still queued, "
                "failed, or run() has not reached its release time)"
            )
        return self._first_start[tag] - self._submit_times[tag]

    @property
    def now(self) -> float:
        return self._now
