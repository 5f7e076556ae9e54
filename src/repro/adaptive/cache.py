"""The LRU plan cache.

Entries are keyed by the parameterised plan signature
(:func:`repro.adaptive.signature.plan_signature`) and guarded by the
literal vector the plan was built with: physical plans embed literals
(filter conditions, index-scan bounds), so an entry is only served when
the incoming query binds *exactly* the same constants.  A literal
mismatch counts as a miss and the subsequent store replaces the entry —
one slot per plan shape, holding the most recently planned binding.

Metrics (process-wide registry):

* ``plan_cache.hits`` / ``plan_cache.misses`` — lookup outcomes
  (a literal mismatch is a miss);
* ``plan_cache.evictions`` — LRU capacity evictions;
* ``plan_cache.invalidations`` — entries dropped by DDL;
* ``plan_cache.replans`` — feedback-driven evictions (observed q-error
  over threshold), counted by the controller.

When a request is served inside a :func:`repro.obs.metrics.tenant_scope`
(the multi-tenant serving layer), every series additionally carries a
``tenant`` label, attributing hits/misses/evictions to the tenant whose
query caused them.  The cache itself stays shared across tenants — one
entry per plan shape cluster-wide — so DDL invalidation clears every
tenant's view at once.

The cache also holds the **statement cache**: exact SQL text -> the
:class:`Prepared` form of a SELECT (its logical plan and plan signature),
so a repeated statement skips parse, sql2rel and signing before it asks
for its plan.  It is a second LRU under the same capacity, cleared with
the plans, and moves no metric: a hit is counted once, by the plan lookup
that follows.  Exact text, not a literal-stripped shape: plans are
literal-guarded, so a shape key would save nothing more.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro.adaptive.signature import PlanSignature
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry, tenant_labels
from repro.rel.logical import RelNode

DEFAULT_CAPACITY = 64


class Prepared(NamedTuple):
    """What the front end made of one SELECT's text, kept for its repeats."""

    logical: RelNode
    signature: PlanSignature


@dataclass
class CacheEntry:
    """One cached physical plan and its provenance."""

    key: str
    literals: Tuple
    plan: PhysNode
    #: Planner-budget ticks the original planning spent (what a hit saves).
    budget_spent: int = 0
    #: Lookups served from this entry.
    hits: int = 0
    #: Worst observed q-error across executions of this plan (1.0 until
    #: the first execution reports back).
    observed_q_error: float = 1.0
    #: True when the entry was planned *with* feedback overrides active —
    #: i.e. it is already the product of a replan.
    replanned: bool = field(default=False)


class PlanCache:
    """Literal-guarded LRU over plan signatures."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: SQL text -> its prepared statement (the statement cache).
        self._statements: "OrderedDict[str, Prepared]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def statement(self, sql: str) -> Optional[Prepared]:
        """The prepared form of ``sql``, if this exact text was prepared."""
        prepared = self._statements.get(sql)
        if prepared is not None:
            self._statements.move_to_end(sql)
        return prepared

    def prepare(self, sql: str, prepared: Prepared) -> None:
        self._statements[sql] = prepared
        if len(self._statements) > self.capacity:
            self._statements.popitem(last=False)

    def lookup(self, key: str, literals: Tuple) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None or entry.literals != literals:
            get_registry().inc("plan_cache.misses", **tenant_labels())
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        get_registry().inc("plan_cache.hits", **tenant_labels())
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key`` without touching LRU order or metrics."""
        return self._entries.get(key)

    def store(self, entry: CacheEntry) -> None:
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            get_registry().inc("plan_cache.evictions", **tenant_labels())

    def evict(self, key: str) -> bool:
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> int:
        """Drop everything (DDL invalidation): plans and prepared
        statements; returns the plan entries dropped."""
        dropped = len(self._entries)
        if dropped:
            get_registry().inc("plan_cache.invalidations", dropped, **tenant_labels())
        self._entries.clear()
        self._statements.clear()
        return dropped
