"""System configuration: the feature switches behind IC, IC+ and IC+M.

The paper evaluates three system variants (Section 6.1):

* **IC** — stock Apache Ignite 2.16 + Calcite, including all the defects
  Section 4 documents.
* **IC+** — IC with the query-planner fixes (Section 4), the join execution
  optimisations (Section 5.1) and join-condition simplification (Section
  5.2).  The paper notes these changes are interdependent, so they toggle
  together in the presets; the ablation benchmarks flip the ones they
  study one at a time (the three cost-model fixes of Sections 4.1-4.2 are
  one flag, ``cost_model_fixes``: nothing ablates them separately).
* **IC+M** — IC+ plus multithreaded execution plans (Section 5.3) with the
  dual-threaded configuration the paper found best.

Every behavioural difference between the variants is expressed as a flag on
:class:`SystemConfig`; a field exists only because some caller varies it
(``tests/unit/test_config.py`` pins the count).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple


def _default_backend() -> str:
    """Default execution backend, overridable per-process.

    ``REPRO_EXECUTION_BACKEND=columnar`` flips every config constructed
    afterwards (the tier-1 CI job uses it to run the whole unit suite
    under the vectorized backend without touching call sites).
    """
    return os.environ.get("REPRO_EXECUTION_BACKEND", "row")


@dataclass(frozen=True)
class SystemConfig:
    """Immutable configuration of one Ignite+Calcite system variant."""

    # ----- identification ---------------------------------------------------
    name: str = "custom"

    # ----- cluster shape (Section 6.1 methodology) ---------------------------
    sites: int = 4
    #: Hash partitions per partitioned table (spread evenly over sites).
    partitions_per_table: int = 8

    # ----- Section 4.1: planner stability fixes ------------------------------
    #: Use the Swami-Schiefer estimate (Eq. 3) instead of the legacy
    #: algorithm whose small-input edge case pins join cardinality at 1.
    fixed_join_estimation: bool = False
    #: Include the FILTER_CORRELATE rule in the first (Hep) planning stage.
    filter_correlate_rule: bool = False

    # ----- Sections 4.1-4.2: cost model -----------------------------------------
    #: The three cost-model fixes together: the exchange's multi-target
    #: penalty is applied (the baseline compares against a shadowed
    #: constant and never does), memory/network are charged in
    #: unit-normalised rows (Eq. 5) instead of bytes (Eq. 4), and the
    #: distribution factor (Alg. 2) rewards partitioned execution.
    cost_model_fixes: bool = False

    # ----- Section 4.3: planner exploration -----------------------------------
    #: Two-phase (logical then physical) optimisation instead of the
    #: single-phase mix of all 52 rules.
    two_phase_optimization: bool = False
    #: Rule-application budget standing in for Calcite's planning limits.
    planning_budget: int = 600_000

    # ----- Section 5.1: join execution ----------------------------------------
    #: Add the broadcast (fully distributed) join distribution mapping.
    broadcast_join_mapping: bool = False
    #: Enable the in-memory hash-join operator.
    hash_join: bool = False

    # ----- Section 5.2: join-condition simplification --------------------------
    join_condition_simplification: bool = False

    # ----- Section 5.3: multithreaded execution plans ---------------------------
    #: Variant fragments per fragment (1 = no multithreading; paper's best
    #: configuration is 2).
    variant_fragments: int = 1

    # ----- execution limits -----------------------------------------------------
    #: Simulated-seconds limit per query; the analogue of the paper's 4 h
    #: wall-clock cap that baseline Q17/Q19/Q21 plans exceeded.  Scaled to
    #: the mini data sizes: ~10-300x a well-planned query's latency, as the
    #: paper's 4 h cap was relative to second-to-minute query times.
    runtime_limit_seconds: float = 15.0

    # ----- faults & resilience (repro.faults) -------------------------------------
    #: The fault schedule: a tuple of frozen fault specs from
    #: :mod:`repro.faults.injector` (SiteCrash, SiteSlowdown, ExchangeDelay,
    #: ExchangeDrop, FragmentOom), each pinned to a simulated time.  Empty
    #: means the happy path the paper's Section 6 tables assume.
    faults: Tuple = ()
    #: Re-dispatch work lost to a dead site onto the survivors (re-reading
    #: the dead site's partitions from their backup owners).  Off, a
    #: mid-query crash fails the query with ``FAILED_SITE`` instead.
    failover_redispatch: bool = True
    #: Retries per failed query (site failure / lost exchange / deadline),
    #: with exponential backoff between attempts
    #: (:class:`repro.faults.chaos.RetryPolicy`).  0 = fail fast.
    max_retries: int = 0
    #: Per-query deadline in simulated wall-clock seconds (None = no
    #: deadline).  Distinct from ``runtime_limit_seconds``: the runtime
    #: limit caps a plan's *work*, the deadline caps elapsed time including
    #: queueing, slow sites and failover re-execution.
    query_deadline_seconds: Optional[float] = None

    # ----- observability (repro.obs) ----------------------------------------------
    #: Record a hierarchical trace (parse -> hep -> volcano -> execute
    #: spans on the simulated clock) for every query; retrievable from
    #: ``IgniteCalciteCluster.last_trace`` and dumped by ``repro-bench
    #: trace``.  Off by default: the inert tracer records no spans.
    tracing: bool = False

    # ----- adaptive re-planning (repro.adaptive) -----------------------------------
    #: Serve repeat queries from the literal-guarded LRU plan cache: a hit
    #: skips both planning stages (zero planner-budget ticks).  EXPLAIN,
    #: traced queries and fault-injected runs always bypass the cache.
    plan_cache: bool = False
    #: Harvest per-operator actual cardinalities after every successful
    #: execution and let the estimator override its statistical guesses
    #: with them on the next planning of the same operator signature.
    cardinality_feedback: bool = False
    #: The q-error (``max(est/actual, actual/est)``) past which both
    #: adaptive mechanisms re-plan: a cached plan whose execution reports
    #: ``max_q_error()`` above it is evicted and replanned with
    #: feedback-corrected cardinalities (requires both ``plan_cache`` and
    #: ``cardinality_feedback``), and a materialization point observed
    #: above it has its plan suffix re-planned mid-query.
    replan_q_error_threshold: float = 8.0

    # ----- mid-query re-optimization (repro.adaptive.midquery) ----------------------
    #: Re-optimize *within* a query at pipeline breakers: after each
    #: non-root fragment materializes (hash-join build sides, aggregation
    #: and sort fragments, exchange sends), the engine compares the true
    #: cardinality against the planner's estimate; past
    #: ``replan_q_error_threshold``, the un-executed plan suffix is
    #: re-entered through Volcano with the materialized intermediate
    #: installed as a new leaf table carrying exact statistics, and the
    #: new physical suffix is spliced into the fragment/task graph.  Off
    #: by default: with the flag off, plans, makespans and traces are
    #: byte-identical to the static path.  Fault-injected runs always
    #: execute statically.
    midquery_reoptimization: bool = False

    # ----- sketch-based statistics (repro.stats.sketches) ---------------------------
    #: Consult seeded Fast-AGMS / Count-Min / HyperLogLog sketches in the
    #: cardinality estimator: HLL distinct counts replace the catalog NDVs
    #: in the Eq. 3 join estimator, CMS frequencies replace the ``1/NDV``
    #: uniformity assumption for equality/IN predicates, and AGMS inner
    #: products answer base equi-join sizes directly.  Sketches are built
    #: per column on first consultation after load and refreshed online at
    #: fragment seams; estimates compose with (but never override) the
    #: cardinality-feedback actuals.  Off by default: with the flag off,
    #: plans, makespans and ticks are bit-identical to the sketch-free
    #: system.
    sketch_statistics: bool = False

    # ----- pluggable storage adapters (repro.storage.adapters) ----------------------
    #: Run the adapter-pushdown Hep pass: filter conjuncts, pure-column
    #: projections and keyless LIMIT prefixes are absorbed into the scans
    #: of tables whose storage adapter advertises the matching capability.
    #: The native in-memory adapter declines every capability, so plans
    #: over native-only schemas are byte-identical with the flag on or off;
    #: default-on therefore only affects ``CREATE TABLE ... USING``-routed
    #: tables.
    adapter_pushdown: bool = True

    # ----- multi-tenant serving (repro.serve) --------------------------------------
    #: Run-queue ordering for the serving layer's admission controller:
    #: ``fifo`` (arrival order), ``priority`` (higher tenant priority
    #: first, FIFO within a priority), or ``wfq`` (weighted fair queueing
    #: across tenants by their weights).
    serve_policy: str = "fifo"
    #: Queries executing concurrently across the cluster (0 = unbounded).
    #: 1 serialises the workload — each query then reproduces its
    #: single-query makespan exactly.
    serve_max_concurrent: int = 0
    #: Bounded run queue: arrivals beyond this many waiting queries are
    #: REJECTED outright (0 = unbounded, admission never rejects).
    serve_queue_depth: int = 0
    #: Per-tenant cap on concurrently executing queries (0 = uncapped;
    #: a TenantSpec may override per tenant).
    serve_tenant_slots: int = 0
    #: Deadline-based shedding: a queued query still waiting after this
    #: many simulated seconds is REJECTED instead of dispatched (None =
    #: never shed).
    serve_shed_wait_seconds: Optional[float] = None

    # ----- execution backend (repro.exec.columnar) --------------------------------
    #: ``"row"`` interprets fragments tuple-at-a-time (the faithful model
    #: of Ignite's iterator engine); ``"columnar"`` executes the same
    #: physical plans over numpy column vectors.  Both charge identical
    #: work units per operator, so simulated makespans are backend-
    #: independent — only real wall-clock changes.
    execution_backend: str = field(default_factory=_default_backend)

    # ----- correctness harness ---------------------------------------------------
    #: Check every query as it runs (repro.verify): the engine validates
    #: the plan it is about to execute and the result it assembled, and
    #: the statement pipeline diffs the rows it is about to return — from
    #: whatever plan ran: cached, re-planned, degraded — against the
    #: single-node reference executor.  Nothing is planned or executed
    #: twice, so the flag composes with every other one.  EXPLAIN
    #: [ANALYZE] returns plan text and stays unverified.
    verify_execution: bool = False

    # ----- defects kept in both systems ------------------------------------------
    #: TPC-H Q20's planner defect is unresolved in the paper for *all*
    #: variants; flipping this documents what "fixed" would mean.
    q20_defect_fixed: bool = False
    #: SQL VIEW support (unsupported in Ignite+Calcite; TPC-H Q15's
    #: blocker).  Enabling it is a beyond-the-paper extension.
    views_supported: bool = False

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ----- presets ---------------------------------------------------------------

    @staticmethod
    def ic(sites: int = 4, **overrides) -> "SystemConfig":
        """The baseline system: stock Ignite 2.16 + Calcite."""
        return SystemConfig(name="IC", sites=sites).with_(**overrides)

    @staticmethod
    def ic_plus(sites: int = 4, **overrides) -> "SystemConfig":
        """IC plus Section 4, 5.1 and 5.2 improvements."""
        return SystemConfig(
            name="IC+",
            sites=sites,
            fixed_join_estimation=True,
            filter_correlate_rule=True,
            cost_model_fixes=True,
            two_phase_optimization=True,
            broadcast_join_mapping=True,
            hash_join=True,
            join_condition_simplification=True,
        ).with_(**overrides)

    @staticmethod
    def ic_plus_m(sites: int = 4, threads: int = 2, **overrides) -> "SystemConfig":
        """IC+ augmented with multithreaded (variant-fragment) execution."""
        base = SystemConfig.ic_plus(sites=sites)
        return base.with_(name="IC+M", variant_fragments=threads, **overrides)


#: The three variants evaluated in the paper, keyed by their names.
PRESETS = {
    "IC": SystemConfig.ic,
    "IC+": SystemConfig.ic_plus,
    "IC+M": SystemConfig.ic_plus_m,
}
