"""Admission control and run-queue scheduling for the serving layer.

A bounded run queue sits between the traffic generators and the cluster.
Arrivals are *offered*; an offer is refused outright (``REJECTED``,
reason ``queue_full``) when the queue is at its configured depth.  When
execution slots free up the controller *admits* the next queued request
according to its policy:

* ``fifo`` — strict arrival order;
* ``priority`` — highest tenant priority first, FIFO within a priority
  level (a starvation-prone but SLO-friendly policy: the overload
  experiments show the high-priority tenant's p99 staying low while the
  low-priority tenant queues);
* ``wfq`` — weighted fair queueing across tenants: each tenant accrues
  virtual service ``1/weight`` per admitted query and the tenant with the
  least accrued service goes next, which bounds any tenant's share of the
  cluster to its weight fraction under sustained overload.

Two more gates apply at admission time: a global concurrency cap, a
per-tenant slot cap, and deadline-based shedding — a request that has
already waited longer than ``serve_shed_wait_seconds`` is dropped
(``REJECTED``, reason ``shed``) instead of dispatched, on the theory that
its caller has long since timed out.

Everything is deterministic: ties break on arrival sequence, then tenant
name.  Metrics: ``serve.offered`` / ``serve.rejected{reason=}`` /
``serve.admitted`` counters (tenant-labelled) and the
``serve.queue_depth`` high-water gauge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.obs.metrics import get_registry
from repro.serve.traffic import QueryRequest, TenantSpec

#: The admission policies ``SystemConfig.serve_policy`` accepts.
POLICIES = ("fifo", "priority", "wfq")

#: Rejection reasons recorded on ServeRecord and the metrics label.
REASON_QUEUE_FULL = "queue_full"
REASON_SHED = "shed"


class AdmissionError(ReproError):
    """Invalid admission configuration."""


@dataclass
class _TenantState:
    """Per-tenant admission bookkeeping."""

    spec: TenantSpec
    slots: int  # 0 = uncapped
    running: int = 0
    #: Accrued virtual service for WFQ (1/weight per admitted query).
    virtual_service: float = 0.0


@dataclass
class _QueueItem:
    request: QueryRequest
    seq: int
    enqueued_at: float


class AdmissionController:
    """Bounded, policy-ordered run queue with per-tenant concurrency caps."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        policy: str = "fifo",
        queue_depth: int = 0,
        max_concurrent: int = 0,
        shed_wait_seconds: Optional[float] = None,
    ):
        if policy not in POLICIES:
            raise AdmissionError(
                f"unknown admission policy {policy!r} "
                f"(choose from {', '.join(POLICIES)})"
            )
        if queue_depth < 0 or max_concurrent < 0:
            raise AdmissionError("admission caps must be >= 0 (0 = unbounded)")
        if shed_wait_seconds is not None and shed_wait_seconds < 0:
            raise AdmissionError("shed wait must be >= 0 seconds")
        self.policy = policy
        self.queue_depth = queue_depth
        self.max_concurrent = max_concurrent
        self.shed_wait_seconds = shed_wait_seconds
        self._tenants: Dict[str, _TenantState] = {}
        for spec in tenants:
            self._tenants[spec.name] = _TenantState(spec=spec, slots=spec.slots)
        self._queue: List[_QueueItem] = []
        self._seq = itertools.count()
        self.running_total = 0
        #: Deepest the run queue ever got (bounded-queue acceptance proof).
        self.max_queue_depth = 0

    @staticmethod
    def from_config(
        config: SystemConfig, tenants: Sequence[TenantSpec]
    ) -> "AdmissionController":
        return AdmissionController(
            tenants,
            policy=config.serve_policy,
            queue_depth=config.serve_queue_depth,
            max_concurrent=config.serve_max_concurrent,
            shed_wait_seconds=config.serve_shed_wait_seconds,
        )

    # -- state -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    def _state(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise AdmissionError(f"unknown tenant {tenant!r}") from None

    # -- the offer / admit / finish lifecycle ------------------------------

    def offer(self, request: QueryRequest, now: float) -> bool:
        """Queue an arriving request; False = rejected (queue full)."""
        state = self._state(request.tenant)
        registry = get_registry()
        registry.inc("serve.offered", tenant=request.tenant)
        if self.queue_depth and len(self._queue) >= self.queue_depth:
            registry.inc(
                "serve.rejected",
                tenant=request.tenant,
                reason=REASON_QUEUE_FULL,
            )
            return False
        del state  # validated only
        self._queue.append(
            _QueueItem(request=request, seq=next(self._seq), enqueued_at=now)
        )
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        registry.gauge_max("serve.queue_depth", float(len(self._queue)))
        return True

    def shed(self, now: float) -> List[QueryRequest]:
        """Drop queued requests whose wait exceeded the shed deadline."""
        if self.shed_wait_seconds is None:
            return []
        overdue = [
            item
            for item in self._queue
            if now - item.request.arrival > self.shed_wait_seconds
        ]
        if not overdue:
            return []
        doomed = {item.seq for item in overdue}
        self._queue = [item for item in self._queue if item.seq not in doomed]
        registry = get_registry()
        for item in overdue:
            registry.inc(
                "serve.rejected", tenant=item.request.tenant, reason=REASON_SHED
            )
        return [item.request for item in overdue]

    def admit(self, now: float) -> Optional[QueryRequest]:
        """Pop the next runnable request per policy, or None.

        Respects the global concurrency cap and per-tenant slot caps; a
        tenant at its cap is skipped, not blocked — lower-ranked tenants
        may overtake it (work conservation).
        """
        if self.max_concurrent and self.running_total >= self.max_concurrent:
            return None
        eligible = [
            item
            for item in self._queue
            if self._has_slot(item.request.tenant)
        ]
        if not eligible:
            return None
        item = min(eligible, key=self._rank)
        self._queue.remove(item)
        self._start(item.request)
        get_registry().inc("serve.admitted", tenant=item.request.tenant)
        return item.request

    def _has_slot(self, tenant: str) -> bool:
        state = self._state(tenant)
        return not state.slots or state.running < state.slots

    def _rank(self, item: _QueueItem) -> Tuple:
        request = item.request
        if self.policy == "priority":
            return (-request.priority, item.seq, request.tenant)
        if self.policy == "wfq":
            state = self._state(request.tenant)
            return (state.virtual_service, item.seq, request.tenant)
        return (item.seq, request.tenant)

    def _start(self, request: QueryRequest) -> None:
        state = self._state(request.tenant)
        state.running += 1
        self.running_total += 1
        state.virtual_service += 1.0 / state.spec.weight

    def finish(self, request: QueryRequest) -> None:
        """Release the slots held by a dispatched request."""
        state = self._state(request.tenant)
        if state.running <= 0 or self.running_total <= 0:
            raise AdmissionError(
                f"finish without matching admit for tenant {request.tenant!r}"
            )
        state.running -= 1
        self.running_total -= 1
