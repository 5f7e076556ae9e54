"""The ``repro-bench serve`` driver: multi-tenant traffic per system.

Builds N tenants over a benchmark query pool (TPC-H or SSB), runs the
same seeded traffic against each requested system variant (IC / IC+ /
IC+M) on the serving event loop, and reports per-tenant SLOs side by
side — the serving-layer analogue of the Table 3 average-latency
experiment, with admission control and percentiles instead of means.

Tenant construction is deterministic: ``tenant0`` has the highest
priority and the largest fair-share weight, descending from there, so
the ``priority`` and ``wfq`` admission policies have observable effect
out of the box.  All tenants share one query mix (an even-weight slice
of the pool) so cross-system latency differences come from planning and
execution, not mix skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.common.config import PRESETS, SystemConfig
from repro.common.errors import ReproError
from repro.serve.slo import SloReport, validate_slo_artefact
from repro.serve.server import QueryServer, ServeResult
from repro.serve.traffic import (
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
    TenantSpec,
    even_template_mix,
)

#: Version tag of the multi-system bench artefact.
SERVE_BENCH_SCHEMA = "repro-serve-bench/v1"

#: Arrival-model names ``--arrivals`` accepts.
ARRIVAL_MODELS = ("poisson", "bursty", "closed")


class ServeBenchError(ReproError):
    """Invalid serve-bench parameters."""


def build_tenants(
    queries: Dict[str, str],
    tenants: int = 2,
    rate: float = 1.0,
    arrivals: str = "poisson",
    limit: int = 0,
    clients: int = 2,
    mean_think_seconds: float = 1.0,
) -> List[TenantSpec]:
    """``tenants`` specs over an even mix of ``queries``.

    ``tenant0`` gets the highest priority and weight; every tenant gets
    the same arrival process at the same ``rate`` (queries/second for the
    open-loop models), so priority effects are visible at equal load.
    """
    if tenants < 1:
        raise ServeBenchError(f"need >= 1 tenant, got {tenants}")
    if arrivals not in ARRIVAL_MODELS:
        raise ServeBenchError(
            f"unknown arrival model {arrivals!r} "
            f"(choose from {', '.join(ARRIVAL_MODELS)})"
        )
    templates = even_template_mix(queries, limit)
    specs = []
    for index in range(tenants):
        if arrivals == "poisson":
            process = PoissonArrivals(rate=rate)
        elif arrivals == "bursty":
            process = BurstyArrivals(
                on_rate=rate * 4.0,
                mean_on_seconds=2.0,
                mean_off_seconds=6.0,
            )
        else:
            process = ClosedLoopArrivals(
                clients=clients, mean_think_seconds=mean_think_seconds
            )
        specs.append(
            TenantSpec(
                name=f"tenant{index}",
                templates=templates,
                arrivals=process,
                priority=tenants - 1 - index,
                weight=float(tenants - index),
            )
        )
    return specs


@dataclass
class ServeBenchResult:
    """Per-system serving runs of one seeded traffic schedule."""

    seed: int
    duration: float
    reports: Dict[str, SloReport] = field(default_factory=dict)
    results: Dict[str, ServeResult] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "schema": SERVE_BENCH_SCHEMA,
            "seed": self.seed,
            "duration_seconds": self.duration,
            "systems": {
                name: report.to_dict()
                for name, report in self.reports.items()
            },
        }

    def to_text(self) -> str:
        blocks = [
            self.reports[name].to_text() for name in sorted(self.reports)
        ]
        return "\n\n".join(blocks)

    def validate(self) -> List[str]:
        """Schema-check every embedded per-system SLO artefact."""
        problems: List[str] = []
        if not self.reports:
            return ["serve bench produced no system reports"]
        for name, report in sorted(self.reports.items()):
            for problem in validate_slo_artefact(report.to_dict()):
                problems.append(f"[{name}] {problem}")
        return problems


def run_serve_bench(
    loader: Callable[[SystemConfig, float], object],
    systems: Sequence[str],
    sf: float,
    tenants: Sequence[TenantSpec],
    duration: float,
    seed: int = 0,
    sites: int = 4,
    policy: str = "fifo",
    max_concurrent: int = 0,
    queue_depth: int = 0,
    tenant_slots: int = 0,
    shed_wait_seconds: float = None,
    plan_cache: bool = True,
) -> ServeBenchResult:
    """Serve the same seeded traffic against each system variant (the
    query mix travels inside ``tenants``)."""
    unknown = [s for s in systems if s not in PRESETS]
    if unknown:
        raise ServeBenchError(
            f"unknown system(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(PRESETS))})"
        )
    bench = ServeBenchResult(seed=seed, duration=duration)
    for name in systems:
        config = PRESETS[name](sites).with_(
            plan_cache=plan_cache,
            cardinality_feedback=plan_cache,
            serve_policy=policy,
            serve_max_concurrent=max_concurrent,
            serve_queue_depth=queue_depth,
            serve_tenant_slots=tenant_slots,
            serve_shed_wait_seconds=shed_wait_seconds,
        )
        cluster = loader(config, sf)
        server = QueryServer(cluster, tenants, seed=seed)
        result = server.run(duration)
        bench.results[name] = result
        bench.reports[name] = SloReport.from_result(result)
    return bench
