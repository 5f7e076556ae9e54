"""Per-cluster coordination of the plan cache and feedback loop.

One :class:`AdaptiveController` hangs off each
:class:`~repro.core.cluster.IgniteCalciteCluster` whose config enables
``plan_cache`` and/or ``cardinality_feedback``.  The cluster's statement
pipeline asks it for a cached plan before running the planner, hands it
every successful execution result (and the completed prefix of a failed
one) for harvesting, and tells it about DDL.  Which queries reach it at
all is the pipeline's decision, made once per query.

Replan policy: when an execution of a *cached* plan reports a
``max_q_error()`` above ``replan_q_error_threshold`` (and feedback is
enabled, so replanning can actually produce a different answer), the
entry is evicted and the next occurrence of the query is planned afresh
with the estimator consulting the harvested actuals.  An entry that is
itself the product of a replan is not evicted again — feedback has
already said its piece, and evicting in a loop would plan the same plan
forever.  DDL (``create_table`` / ``create_index`` / ``create_view``)
wipes the cache — plans and prepared statements — and the feedback
registry: coarse, but never stale.
"""

from __future__ import annotations

import weakref
from typing import Optional, Set, Tuple

from repro.adaptive.cache import CacheEntry, PlanCache
from repro.adaptive.feedback import FeedbackRegistry
from repro.adaptive.signature import PlanSignature, plan_signature
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry, tenant_labels
from repro.rel.logical import RelNode

#: Live controllers, tracked so the test suite can wipe adaptive state
#: between tests (order independence) without keeping controllers alive.
_LIVE_CONTROLLERS: "weakref.WeakSet[AdaptiveController]" = weakref.WeakSet()


def reset_adaptive_state() -> None:
    """Clear every live plan cache and feedback registry (test hook)."""
    for controller in list(_LIVE_CONTROLLERS):
        controller.reset()


class AdaptiveController:
    """Plan cache + feedback registry for one cluster."""

    def __init__(self, config):
        self.config = config
        self.cache: Optional[PlanCache] = (
            PlanCache() if config.plan_cache else None
        )
        self.feedback: Optional[FeedbackRegistry] = (
            FeedbackRegistry() if config.cardinality_feedback else None
        )
        self.threshold: float = config.replan_q_error_threshold
        #: Keys evicted for excessive q-error and not yet re-stored; the
        #: replacement entry is marked ``replanned``.
        self._pending_replans: Set[str] = set()
        _LIVE_CONTROLLERS.add(self)

    @staticmethod
    def from_config(config) -> Optional["AdaptiveController"]:
        if not (config.plan_cache or config.cardinality_feedback):
            return None
        return AdaptiveController(config)

    # -- the serve path ----------------------------------------------------

    def lookup(
        self, logical: RelNode, signature: Optional[PlanSignature] = None
    ) -> Tuple[Optional[PlanSignature], Optional[PhysNode]]:
        """(signature, cached plan or None) for one logical plan; a
        prepared statement brings its ``signature`` along.

        The signature is None when the cache is disabled (feedback-only
        mode), in which case nothing is ever served or stored.
        """
        if self.cache is None:
            return None, None
        if signature is None:
            signature = plan_signature(logical)
        entry = self.cache.lookup(signature.key, signature.literals)
        return signature, entry.plan if entry is not None else None

    def store(
        self,
        signature: Optional[PlanSignature],
        plan: PhysNode,
        budget_spent: int,
    ) -> None:
        if self.cache is None or signature is None:
            return
        replanned = signature.key in self._pending_replans
        self._pending_replans.discard(signature.key)
        self.cache.store(
            CacheEntry(
                key=signature.key,
                literals=signature.literals,
                plan=plan,
                budget_spent=budget_spent,
                replanned=replanned,
            )
        )

    # -- the observe path --------------------------------------------------

    def observe(self, signature: Optional[PlanSignature], result) -> None:
        """Harvest one successful execution; maybe evict for replan.

        ``signature`` is the plan signature the executed plan was planned
        under (None when the cache is off or the plan bypassed it).
        Degraded results are ignored outright: failover re-dispatch
        re-reads partitions, which distorts per-operator actuals and the
        q-errors computed from them.
        """
        if result.degraded:
            return
        if self.feedback is not None:
            self.feedback.harvest(result.fragment_trees, result.operator_actuals)
        if self.cache is None or signature is None:
            return
        key = signature.key
        entry = self.cache.peek(key)
        if entry is None:
            return
        q = result.max_q_error()
        entry.observed_q_error = max(entry.observed_q_error, q)
        if (
            self.feedback is not None
            and not entry.replanned
            and q > self.threshold
        ):
            self.cache.evict(key)
            self._pending_replans.add(key)
            get_registry().inc("plan_cache.replans", **tenant_labels())

    def harvest_partial(self, partial) -> None:
        """Feed the completed prefix of a *failed* execution to feedback.

        ``partial`` is the ``ExecutionError.partial`` of the error that
        ended the run (None when nothing had completed).  The fragments
        completed before a failure, deadline or shed verdict carry true
        cardinalities — exactly the evidence the next planning of the
        same query needs to avoid failing the same way.
        """
        if self.feedback is None or partial is None:
            return
        if self.feedback.harvest(*partial):
            get_registry().inc("adaptive.feedback_partial_harvests")

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """DDL hook: drop every cached plan and every observation."""
        if self.cache is not None:
            self.cache.clear()
        if self.feedback is not None:
            self.feedback.clear()
        self._pending_replans.clear()

    def reset(self) -> None:
        """Test-isolation hook: like invalidate, but metrics-silent."""
        if self.cache is not None:
            self.cache._entries.clear()
            self.cache._statements.clear()
        if self.feedback is not None:
            self.feedback.clear()
        self._pending_replans.clear()
