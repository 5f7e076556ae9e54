"""Adaptive re-planning: plan caching plus runtime cardinality feedback.

The paper's planner fixes (Section 4) are *static*: every query is planned
from scratch against load-time statistics, and the q-errors EXPLAIN
ANALYZE surfaces are observed but never acted on.  This package closes
that loop, following the runtime-dynamic-optimisation line of work
(Pavlopoulou et al.):

* :mod:`repro.adaptive.cache` — one LRU plan cache keyed by statement
  text, consulted by ``IgniteCalciteCluster._run_statement``: a repeated
  SELECT gets its logical plan back without parse or sql2rel, and its
  physical plan without Hep+Volcano (zero planner-budget ticks);
* :mod:`repro.adaptive.signature` — canonical per-operator signatures
  that match across the logical and physical operator families (the
  feedback key);
* :mod:`repro.adaptive.feedback` — a registry of observed per-operator
  cardinalities harvested from :class:`~repro.exec.engine.ExecutionResult`
  actuals; the estimator consults it on the next planning of the same
  operator signature;
* :mod:`repro.adaptive.controller` — the per-cluster coordinator: serve /
  store / invalidate cache entries, harvest feedback after execution, and
  drop a cached plan for a replan when its observed ``max_q_error()``
  exceeds the configured threshold.

Everything is off by default (``SystemConfig.plan_cache`` /
``SystemConfig.cardinality_feedback``); with both flags off no code path
in this package runs.
"""

# perfbench imports this no-op from the package (each cluster owns its state).
from repro.adaptive.controller import reset_adaptive_state  # noqa: F401
