"""SLO reporting for serving runs: percentiles, throughput, rejections.

Distils a :class:`~repro.serve.server.ServeResult` into the numbers an
operator would put on a dashboard: per-tenant and global p50/p95/p99
latency (linear-interpolation percentiles via
:meth:`repro.obs.metrics.HistogramSummary.percentile`), throughput,
mean queue-wait vs execution breakdown, rejection rate and plan-cache
hit rate.  The JSON artefact is versioned (``repro-serve/v1``) and
:func:`validate_slo_artefact` is the schema gate the ``repro-bench serve
--smoke`` tier-1 check enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.obs.metrics import HistogramSummary
from repro.serve.admission import REASON_QUEUE_FULL, REASON_SHED
from repro.serve.server import ServeRecord, ServeResult

#: Version tag stamped into every SLO artefact.
SLO_SCHEMA = "repro-serve/v1"

#: The pseudo-tenant aggregating every tenant's traffic.
GLOBAL_TENANT = "*"


@dataclass
class TenantSlo:
    """One tenant's (or the global ``*`` row's) service-level numbers."""

    tenant: str
    offered: int = 0
    completed: int = 0
    rejected: int = 0
    rejected_queue_full: int = 0
    rejected_shed: int = 0
    failed: int = 0
    degraded: int = 0
    retried: int = 0
    p50_seconds: Optional[float] = None
    p95_seconds: Optional[float] = None
    p99_seconds: Optional[float] = None
    mean_latency_seconds: Optional[float] = None
    mean_queue_wait_seconds: Optional[float] = None
    mean_execution_seconds: Optional[float] = None
    throughput_qps: float = 0.0
    rejection_rate: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0


@dataclass
class SloReport:
    """The full SLO picture of one serving run on one system variant."""

    system: str
    sites: int
    seed: int
    policy: str
    horizon: float
    makespan: float
    max_queue_depth: int
    tenants: List[TenantSlo] = field(default_factory=list)

    @staticmethod
    def from_result(result: ServeResult) -> "SloReport":
        report = SloReport(
            system=result.system,
            sites=result.sites,
            seed=result.seed,
            policy=result.policy,
            horizon=result.horizon,
            makespan=result.makespan,
            max_queue_depth=result.max_queue_depth,
        )
        by_tenant: Dict[str, List[ServeRecord]] = {}
        for record in result.records:
            by_tenant.setdefault(record.tenant, []).append(record)
        for tenant in sorted(by_tenant):
            report.tenants.append(
                _tenant_slo(tenant, by_tenant[tenant], result.makespan)
            )
        report.tenants.append(
            _tenant_slo(GLOBAL_TENANT, result.records, result.makespan)
        )
        return report

    def tenant(self, name: str) -> TenantSlo:
        for row in self.tenants:
            if row.tenant == name:
                return row
        raise KeyError(f"no SLO row for tenant {name!r}")

    @property
    def overall(self) -> TenantSlo:
        return self.tenant(GLOBAL_TENANT)

    def to_dict(self) -> Dict:
        return {
            "schema": SLO_SCHEMA,
            "system": self.system,
            "sites": self.sites,
            "seed": self.seed,
            "policy": self.policy,
            "horizon_seconds": self.horizon,
            "makespan_seconds": self.makespan,
            "max_queue_depth": self.max_queue_depth,
            "tenants": [asdict(row) for row in self.tenants],
        }

    def to_text(self) -> str:
        header = (
            f"{'tenant':<10} {'offered':>7} {'done':>5} {'rej':>4} "
            f"{'fail':>4} {'p50':>8} {'p95':>8} {'p99':>8} "
            f"{'qwait':>8} {'qps':>6} {'cache':>6}"
        )
        lines = [
            f"serve SLO — system={self.system} sites={self.sites} "
            f"policy={self.policy} seed={self.seed} "
            f"horizon={self.horizon:.1f}s makespan={self.makespan:.2f}s "
            f"max_queue_depth={self.max_queue_depth}",
            header,
            "-" * len(header),
        ]
        for row in self.tenants:
            lines.append(
                f"{row.tenant:<10} {row.offered:>7} {row.completed:>5} "
                f"{row.rejected:>4} {row.failed:>4} "
                f"{_fmt(row.p50_seconds):>8} {_fmt(row.p95_seconds):>8} "
                f"{_fmt(row.p99_seconds):>8} "
                f"{_fmt(row.mean_queue_wait_seconds):>8} "
                f"{row.throughput_qps:>6.2f} "
                f"{row.cache_hit_rate * 100:>5.1f}%"
            )
        return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def _tenant_slo(
    tenant: str, records: List[ServeRecord], makespan: float
) -> TenantSlo:
    row = TenantSlo(tenant=tenant, offered=len(records))
    latencies = HistogramSummary()
    queue_waits = HistogramSummary()
    executions = HistogramSummary()
    dispatched = 0
    for record in records:
        if record.dispatched is not None:
            dispatched += 1
            if record.cache_hit:
                row.cache_hits += 1
            else:
                row.cache_misses += 1
        if record.reject_reason == REASON_QUEUE_FULL:
            row.rejected_queue_full += 1
        elif record.reject_reason == REASON_SHED:
            row.rejected_shed += 1
        if record.succeeded:
            row.completed += 1
            latencies.observe(record.latency)
            queue_waits.observe(record.queue_wait)
            executions.observe(record.execution_seconds)
            if record.degraded:
                row.degraded += 1
            if record.attempts > 1:
                row.retried += 1
        elif not record.reject_reason:
            row.failed += 1
    row.rejected = row.rejected_queue_full + row.rejected_shed
    if latencies.count:
        row.p50_seconds = latencies.percentile(0.50)
        row.p95_seconds = latencies.percentile(0.95)
        row.p99_seconds = latencies.percentile(0.99)
        row.mean_latency_seconds = latencies.total / latencies.count
        row.mean_queue_wait_seconds = queue_waits.total / queue_waits.count
        row.mean_execution_seconds = executions.total / executions.count
    if makespan > 0:
        row.throughput_qps = row.completed / makespan
    if row.offered:
        row.rejection_rate = row.rejected / row.offered
    if dispatched:
        row.cache_hit_rate = row.cache_hits / dispatched
    return row


#: Fields every tenant row of a v1 artefact must carry: all of them, so
#: the emitted row and the validator cannot drift apart.
_ROW_REQUIRED = tuple(f.name for f in fields(TenantSlo))

_TOP_REQUIRED = (
    "schema",
    "system",
    "sites",
    "seed",
    "policy",
    "horizon_seconds",
    "makespan_seconds",
    "max_queue_depth",
    "tenants",
)


def validate_slo_artefact(obj: Dict) -> List[str]:
    """Schema-check one SLO artefact dict; returns human-readable violations.

    An empty list means the artefact is well-formed ``repro-serve/v1``:
    all required keys present, counts consistent, percentiles ordered and
    rates within [0, 1].
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"artefact must be a dict, got {type(obj).__name__}"]
    for key in _TOP_REQUIRED:
        if key not in obj:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems
    if obj["schema"] != SLO_SCHEMA:
        problems.append(
            f"schema is {obj['schema']!r}, expected {SLO_SCHEMA!r}"
        )
    rows = obj["tenants"]
    if not isinstance(rows, list) or not rows:
        return problems + ["tenants must be a non-empty list"]
    if not any(
        isinstance(r, dict) and r.get("tenant") == GLOBAL_TENANT for r in rows
    ):
        problems.append(f"no global {GLOBAL_TENANT!r} tenant row")
    for row in rows:
        if not isinstance(row, dict):
            problems.append("tenant row is not a dict")
            continue
        name = row.get("tenant", "<unnamed>")
        for key in _ROW_REQUIRED:
            if key not in row:
                problems.append(f"tenant {name!r}: missing {key!r}")
        if any(key not in row for key in _ROW_REQUIRED):
            continue
        if row["completed"] + row["rejected"] + row["failed"] > row["offered"]:
            problems.append(
                f"tenant {name!r}: completed+rejected+failed exceeds offered"
            )
        for rate_key in ("rejection_rate", "cache_hit_rate"):
            rate = row[rate_key]
            if not 0.0 <= rate <= 1.0:
                problems.append(f"tenant {name!r}: {rate_key} {rate} not in [0, 1]")
        percentiles = [
            row.get(k) for k in ("p50_seconds", "p95_seconds", "p99_seconds")
        ]
        present = [p for p in percentiles if p is not None]
        if len(present) not in (0, 3):
            problems.append(f"tenant {name!r}: partial percentile set")
        elif present and not (present[0] <= present[1] <= present[2]):
            problems.append(
                f"tenant {name!r}: percentiles not monotone: {present}"
            )
        if row["completed"] > 0 and not present:
            problems.append(
                f"tenant {name!r}: completed queries but no percentiles"
            )
    return problems
