"""The LRU plan cache: one entry per statement text.

Entries are keyed by the exact SQL text of a SELECT and hold what the
front end and the planner made of it: its logical plan, so a repeat skips
parse and sql2rel, and its physical plan, so a repeat skips Hep and
Volcano.  Physical plans embed constants (filter conditions, index-scan
bounds), and the key is the text those constants were spelled in, so an
entry is only ever served to the statement it was planned for.  When
feedback drops a plan for a re-plan the entry keeps its logical plan and
its slot, and the next run plans it again from there.

Metrics (process-wide registry):

* ``plan_cache.hits`` — a cached plan served;
* ``plan_cache.misses`` — a SELECT planned while the cache serves,
  counted before planning (so a planning failure is still a miss);
* ``plan_cache.evictions`` — plans dropped by LRU capacity eviction;
* ``plan_cache.invalidations`` — plans dropped by DDL;
* ``plan_cache.replans`` — feedback-driven drops (observed q-error over
  threshold), counted by the controller.

When a request is served inside a :func:`repro.obs.metrics.tenant_scope`
(the multi-tenant serving layer), every series additionally carries a
``tenant`` label, attributing hits/misses/evictions to the tenant whose
query caused them.  The cache itself stays shared across tenants — one
entry per statement cluster-wide — so DDL invalidation clears every
tenant's view at once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry, tenant_labels
from repro.rel.logical import RelNode

DEFAULT_CAPACITY = 64


@dataclass
class CacheEntry:
    """One statement's logical plan and cached physical plan."""

    logical: RelNode
    #: None once feedback dropped it: the next run re-plans ``logical``.
    plan: Optional[PhysNode]
    #: True when the plan was planned *with* feedback overrides active —
    #: i.e. it is already the product of a replan.
    replanned: bool = False


class PlanCache:
    """LRU over statement texts."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, sql: str) -> Optional[CacheEntry]:
        """The entry for ``sql``, now the most recently used; no metric."""
        entry = self._entries.get(sql)
        if entry is not None:
            self._entries.move_to_end(sql)
        return entry

    def serve(self, entry: Optional[CacheEntry]) -> Optional[PhysNode]:
        """The plan a looked-up SELECT runs (a hit), or None when it has
        to be planned (a miss)."""
        if entry is None or entry.plan is None:
            get_registry().inc("plan_cache.misses", **tenant_labels())
            return None
        get_registry().inc("plan_cache.hits", **tenant_labels())
        return entry.plan

    def peek(self, sql: str) -> Optional[CacheEntry]:
        """The entry for ``sql`` without touching LRU order or metrics."""
        return self._entries.get(sql)

    def store(self, sql: str, entry: CacheEntry) -> None:
        self._entries[sql] = entry
        self._entries.move_to_end(sql)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            if evicted.plan is not None:
                get_registry().inc("plan_cache.evictions", **tenant_labels())

    def clear(self) -> int:
        """Drop everything (DDL invalidation); returns the plans dropped."""
        dropped = sum(e.plan is not None for e in self._entries.values())
        if dropped:
            get_registry().inc("plan_cache.invalidations", dropped, **tenant_labels())
        self._entries.clear()
        return dropped
