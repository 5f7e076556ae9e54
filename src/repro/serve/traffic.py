"""Deterministic, seedable traffic generators for multi-tenant serving.

Three arrival models, all driven by per-tenant ``random.Random`` streams
seeded from ``(seed, tenant name)`` so a workload replays bit-identically:

* :class:`PoissonArrivals` — open-loop: exponential inter-arrival times
  at a fixed rate, the memoryless baseline of every serving benchmark;
* :class:`BurstyArrivals` — open-loop on/off (interrupted Poisson): the
  process alternates exponentially-distributed ON bursts at a high rate
  with OFF gaps at a low (default zero) rate, modelling diurnal spikes
  and thundering herds;
* :class:`ClosedLoopArrivals` — a fixed population of think-time clients
  per tenant: each client submits, waits for its answer, thinks for an
  exponentially-distributed pause, and submits again (the Table 3 AQL
  terminals, generalised to tenants).

A :class:`TenantSpec` bundles the arrival process with the tenant's query
mix (weighted SQL templates drawn from any suite — TPC-H, SSB or ad-hoc),
its priority and its fair-share weight.  :class:`TrafficGenerator` turns
the open-loop specs into a single time-ordered request schedule and hands
closed-loop tenants' next arrivals out one at a time; the server replays
both onto the simulated clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ReproError


class TrafficError(ReproError):
    """Invalid traffic specification (bad rate, empty mix, ...)."""


@dataclass(frozen=True)
class QueryTemplate:
    """One weighted SQL template in a tenant's query mix."""

    name: str
    sql: str
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise TrafficError(
                f"template {self.name!r} weight must be > 0, got {self.weight}"
            )


@dataclass(frozen=True)
class PoissonArrivals:
    """Open-loop Poisson arrivals at ``rate`` queries per simulated second."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise TrafficError(f"Poisson rate must be > 0, got {self.rate}")

    def times(self, rng: random.Random, horizon: float) -> Iterator[float]:
        t = rng.expovariate(self.rate)
        while t < horizon:
            yield t
            t += rng.expovariate(self.rate)


@dataclass(frozen=True)
class BurstyArrivals:
    """On/off modulated Poisson: bursts at ``on_rate``, gaps at ``off_rate``.

    Phase durations are exponential with means ``mean_on_seconds`` and
    ``mean_off_seconds``; the process starts in an ON phase.
    """

    on_rate: float
    mean_on_seconds: float
    mean_off_seconds: float
    off_rate: float = 0.0

    def __post_init__(self):
        if self.on_rate <= 0:
            raise TrafficError(f"on_rate must be > 0, got {self.on_rate}")
        if self.off_rate < 0:
            raise TrafficError(f"off_rate must be >= 0, got {self.off_rate}")
        if self.mean_on_seconds <= 0 or self.mean_off_seconds <= 0:
            raise TrafficError("burst phase means must be > 0")

    def times(self, rng: random.Random, horizon: float) -> Iterator[float]:
        t = 0.0
        on = True
        while t < horizon:
            mean = self.mean_on_seconds if on else self.mean_off_seconds
            phase_end = min(horizon, t + rng.expovariate(1.0 / mean))
            rate = self.on_rate if on else self.off_rate
            if rate > 0:
                next_at = t + rng.expovariate(rate)
                while next_at < phase_end:
                    yield next_at
                    next_at += rng.expovariate(rate)
            t = phase_end
            on = not on


@dataclass(frozen=True)
class ClosedLoopArrivals:
    """``clients`` think-time terminals per tenant (closed loop).

    Each client's first request arrives at a seeded offset in
    ``[0, mean_think_seconds)`` (de-synchronising the population), and
    every subsequent request arrives one exponential think time after the
    previous one completes.  The server drives the loop via
    :meth:`TrafficGenerator.next_think`.
    """

    clients: int
    mean_think_seconds: float

    def __post_init__(self):
        if self.clients < 1:
            raise TrafficError(f"clients must be >= 1, got {self.clients}")
        if self.mean_think_seconds < 0:
            raise TrafficError("mean think time must be >= 0")


ArrivalProcess = Union[PoissonArrivals, BurstyArrivals, ClosedLoopArrivals]


@dataclass(frozen=True)
class TenantSpec:
    """One simulated tenant: identity, mix, arrivals, priority, shares."""

    name: str
    templates: Tuple[QueryTemplate, ...]
    arrivals: ArrivalProcess
    #: Higher wins under the ``priority`` admission policy.
    priority: int = 0
    #: Fair share under the ``wfq`` policy (relative to other tenants).
    weight: float = 1.0
    #: Cap on the tenant's concurrently executing queries (0 = uncapped).
    slots: int = 0

    def __post_init__(self):
        if not self.templates:
            raise TrafficError(f"tenant {self.name!r} has an empty query mix")
        if self.weight <= 0:
            raise TrafficError(
                f"tenant {self.name!r} weight must be > 0, got {self.weight}"
            )
        if self.slots < 0:
            raise TrafficError(
                f"tenant {self.name!r} slots must be >= 0, got {self.slots}"
            )

    @property
    def is_closed_loop(self) -> bool:
        return isinstance(self.arrivals, ClosedLoopArrivals)


@dataclass
class QueryRequest:
    """One query submission attempt flowing through the serving pipeline."""

    tenant: str
    request_id: int
    template: str
    sql: str
    arrival: float
    priority: int = 0
    weight: float = 1.0
    #: Closed-loop client index within the tenant (None for open loop).
    client: Optional[int] = None


class TrafficGenerator:
    """Deterministic request streams for a set of tenants.

    All randomness comes from per-purpose ``random.Random`` instances
    seeded with ``f"{seed}/{tenant}/<purpose>"``, so the same (tenants,
    seed, horizon) triple always yields the same schedule regardless of
    the order the server consumes it in.
    """

    def __init__(self, tenants: Sequence[TenantSpec], seed: int = 0):
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise TrafficError(f"duplicate tenant names in {names}")
        self.tenants = tuple(tenants)
        self.seed = seed
        self._mix_rngs: Dict[str, random.Random] = {
            t.name: random.Random(f"{seed}/{t.name}/mix") for t in tenants
        }
        self._think_rngs: Dict[str, random.Random] = {
            t.name: random.Random(f"{seed}/{t.name}/think") for t in tenants
        }
        self._next_id = 0

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def draw_template(self, tenant: TenantSpec) -> QueryTemplate:
        """One weighted draw from the tenant's query mix."""
        rng = self._mix_rngs[tenant.name]
        weights = [t.weight for t in tenant.templates]
        return rng.choices(tenant.templates, weights=weights, k=1)[0]

    def _request(
        self, tenant: TenantSpec, at: float, client: Optional[int] = None
    ) -> QueryRequest:
        template = self.draw_template(tenant)
        return QueryRequest(
            tenant=tenant.name,
            request_id=self._fresh_id(),
            template=template.name,
            sql=template.sql,
            arrival=at,
            priority=tenant.priority,
            weight=tenant.weight,
            client=client,
        )

    # -- open loop ---------------------------------------------------------

    def open_loop_schedule(self, horizon: float) -> List[QueryRequest]:
        """Every open-loop request below ``horizon``, in arrival order.

        Arrival times are drawn tenant by tenant (each from its own seeded
        stream) and then merged, so adding a tenant never perturbs another
        tenant's schedule.
        """
        requests: List[Tuple[float, int, TenantSpec]] = []
        for tenant in self.tenants:
            if tenant.is_closed_loop:
                continue
            rng = random.Random(f"{self.seed}/{tenant.name}/arrivals")
            for index, at in enumerate(tenant.arrivals.times(rng, horizon)):
                requests.append((at, index, tenant))
        requests.sort(key=lambda item: (item[0], item[2].name, item[1]))
        return [self._request(tenant, at) for at, _, tenant in requests]

    # -- closed loop -------------------------------------------------------

    def first_arrivals(self, tenant: TenantSpec) -> List[QueryRequest]:
        """The initial request of each closed-loop client of ``tenant``."""
        if not isinstance(tenant.arrivals, ClosedLoopArrivals):
            raise TrafficError(f"tenant {tenant.name!r} is open-loop")
        spec = tenant.arrivals
        rng = random.Random(f"{self.seed}/{tenant.name}/arrivals")
        out = []
        for client in range(spec.clients):
            offset = (
                rng.random() * spec.mean_think_seconds
                if spec.mean_think_seconds > 0
                else 0.0
            )
            out.append(self._request(tenant, offset, client=client))
        return out

    def next_think(
        self, tenant: TenantSpec, client: int, completed_at: float
    ) -> QueryRequest:
        """The client's next request, one think time after ``completed_at``."""
        if not isinstance(tenant.arrivals, ClosedLoopArrivals):
            raise TrafficError(f"tenant {tenant.name!r} is open-loop")
        mean = tenant.arrivals.mean_think_seconds
        think = (
            self._think_rngs[tenant.name].expovariate(1.0 / mean)
            if mean > 0
            else 0.0
        )
        return self._request(tenant, completed_at + think, client=client)


def even_template_mix(
    queries: Dict[str, str], limit: int = 0
) -> Tuple[QueryTemplate, ...]:
    """An equal-weight mix over ``queries`` (first ``limit`` ids, 0 = all)."""
    names = sorted(queries)
    if limit > 0:
        names = names[:limit]
    return tuple(QueryTemplate(name, queries[name]) for name in names)
