"""Per-cluster coordination of the plan cache and feedback loop.

One :class:`AdaptiveController` hangs off each
:class:`~repro.core.cluster.IgniteCalciteCluster` whose config enables
``plan_cache`` and/or ``cardinality_feedback``.  The cluster's statement
pipeline looks a statement's text up in the one cache before parsing it,
asks for the cached plan before running the planner, hands it every
successful execution result (and the completed prefix of a failed one)
for harvesting, and tells it about DDL.  Which queries reach it at all
is the pipeline's decision, made once per query.

Replan policy: when an execution of a *cached* plan reports a
``max_q_error()`` above ``replan_q_error_threshold`` (and feedback is
enabled, so replanning can actually produce a different answer), the
entry's plan is dropped and the next run of the statement plans its
logical plan afresh with the estimator consulting the harvested actuals.
An entry that is itself the product of a replan is not dropped again —
feedback has already said its piece, and dropping in a loop would plan
the same plan forever.  DDL (``create_table`` / ``drop_table`` /
``create_index``) wipes the cache and the feedback registry: coarse, but
never stale.
"""

from __future__ import annotations

from typing import Optional

from repro.adaptive.cache import CacheEntry, PlanCache
from repro.adaptive.feedback import FeedbackRegistry
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry, tenant_labels
from repro.rel.logical import RelNode


def reset_adaptive_state() -> None:
    """No-op kept for old callers: each cluster owns its cache and feedback."""


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

    @staticmethod
    def from_config(config) -> Optional["AdaptiveController"]:
        if not (config.plan_cache or config.cardinality_feedback):
            return None
        return AdaptiveController(config)

    # -- the serve path ----------------------------------------------------

    def lookup(self, sql: str) -> Optional[CacheEntry]:
        """The cache entry of this exact statement text, or None (never
        stored, or the cache is disabled: feedback-only mode)."""
        if self.cache is None:
            return None
        return self.cache.lookup(sql)

    def serve(self, entry: Optional[CacheEntry]) -> Optional[PhysNode]:
        """The cached plan of a SELECT about to be planned, or None."""
        if self.cache is None:
            return None
        return self.cache.serve(entry)

    def store(self, sql: str, logical: RelNode, plan: PhysNode) -> None:
        if self.cache is None:
            return
        # A SELECT is planned under a text the cache already holds only
        # after feedback dropped that entry's plan.
        replanned = self.cache.peek(sql) is not None
        self.cache.store(sql, CacheEntry(logical, plan, replanned=replanned))

    # -- the observe path --------------------------------------------------

    def observe(self, sql: str, result) -> None:
        """Harvest one successful execution of ``sql``; maybe drop its
        cached plan for a replan.

        Degraded results are ignored outright: failover re-dispatch
        re-reads partitions, which distorts per-operator actuals and the
        q-errors computed from them.
        """
        if result.degraded or self.feedback is None:
            return
        self.feedback.harvest(result.fragment_trees, result.operator_actuals)
        entry = self.cache.peek(sql) if self.cache is not None else None
        if (
            entry is not None
            and not entry.replanned
            and result.max_q_error() > self.threshold
        ):
            entry.plan = None
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
            get_registry().inc(
                "adaptive.feedback_partial_harvests", **tenant_labels()
            )

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """DDL hook: drop every cached plan and every observation."""
        if self.cache is not None:
            self.cache.clear()
        if self.feedback is not None:
            self.feedback.clear()
