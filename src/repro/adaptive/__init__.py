"""Adaptive re-planning: plan caching plus runtime cardinality feedback.

The paper's planner fixes (Section 4) are *static*: every query is planned
from scratch against load-time statistics, and the q-errors EXPLAIN
ANALYZE surfaces are observed but never acted on.  This package closes
that loop, following the runtime-dynamic-optimisation line of work
(Pavlopoulou et al.):

* :mod:`repro.adaptive.signature` — deterministic plan signatures: the
  normalised logical plan with literals parameterised out (the cache key)
  and canonical per-operator signatures that match across the logical and
  physical operator families (the feedback key);
* :mod:`repro.adaptive.cache` — an LRU plan cache consulted by
  ``IgniteCalciteCluster._plan``; a hit skips Hep+Volcano entirely
  (zero planner-budget ticks);
* :mod:`repro.adaptive.feedback` — a registry of observed per-operator
  cardinalities harvested from :class:`~repro.exec.engine.ExecutionResult`
  actuals; the estimator consults it on the next planning of the same
  operator signature;
* :mod:`repro.adaptive.controller` — the per-cluster coordinator: serve /
  store / invalidate cache entries, harvest feedback after execution, and
  evict-for-replan when a cached plan's observed ``max_q_error()``
  exceeds the configured threshold.

Everything is off by default (``SystemConfig.plan_cache`` /
``SystemConfig.cardinality_feedback``); with both flags off no code path
in this package runs.
"""

from repro.adaptive.cache import CacheEntry, PlanCache
from repro.adaptive.controller import AdaptiveController, reset_adaptive_state
from repro.adaptive.feedback import FeedbackRegistry
from repro.adaptive.midquery import MidQueryController
from repro.adaptive.signature import (
    PlanSignature,
    operator_signature,
    plan_signature,
)

__all__ = [
    "AdaptiveController",
    "CacheEntry",
    "FeedbackRegistry",
    "MidQueryController",
    "PlanCache",
    "PlanSignature",
    "operator_signature",
    "plan_signature",
    "reset_adaptive_state",
]
