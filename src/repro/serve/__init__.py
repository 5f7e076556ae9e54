"""Multi-tenant serving: traffic, admission control, scheduling, SLOs.

The serving subsystem turns the single-query reproduction into a system
that serves sustained multi-tenant traffic on the simulated clock:

* :mod:`repro.serve.traffic` — seedable open-loop (Poisson, bursty
  on/off) and closed-loop (think-time clients) arrival processes,
  multiplexed over per-tenant query mixes;
* :mod:`repro.serve.admission` — a bounded run queue with FIFO /
  priority / weighted-fair admission, per-tenant concurrency caps and
  deadline shedding (``REJECTED`` outcomes);
* :mod:`repro.serve.server` — the event loop that plans admitted queries
  through the cluster facade (plan cache and feedback live) and executes
  their task graphs on one shared
  :class:`~repro.cluster.scheduler.WorkloadSimulator`, so concurrent
  queries contend for the same per-site cores while a solo query's
  makespan stays bit-identical to the single-query path;
* :mod:`repro.serve.slo` — per-tenant and global p50/p95/p99, throughput,
  queue-wait breakdown, rejection and plan-cache hit rates, versioned as
  the ``repro-serve/v1`` artefact the CLI emits.

Driven by ``repro-bench serve`` (see :mod:`repro.bench.serve`).
"""

from repro.serve.admission import (
    POLICIES,
    REASON_QUEUE_FULL,
    REASON_SHED,
    AdmissionController,
    AdmissionError,
)
from repro.serve.server import QueryServer, ServeError, ServeRecord, ServeResult
from repro.serve.slo import (
    GLOBAL_TENANT,
    SLO_SCHEMA,
    SloReport,
    TenantSlo,
    validate_slo_artefact,
)
from repro.serve.traffic import (
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
    QueryRequest,
    QueryTemplate,
    TenantSpec,
    TrafficError,
    TrafficGenerator,
    even_template_mix,
)

__all__ = [
    "POLICIES",
    "REASON_QUEUE_FULL",
    "REASON_SHED",
    "AdmissionController",
    "AdmissionError",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "GLOBAL_TENANT",
    "PoissonArrivals",
    "QueryRequest",
    "QueryServer",
    "QueryTemplate",
    "SLO_SCHEMA",
    "ServeError",
    "ServeRecord",
    "ServeResult",
    "SloReport",
    "TenantSlo",
    "TenantSpec",
    "TrafficError",
    "TrafficGenerator",
    "even_template_mix",
    "validate_slo_artefact",
]
