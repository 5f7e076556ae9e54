"""Measurement primitives mirroring the paper's methodology (Section 6.1-6.3).

* :func:`measure_response_times` — per-query response time: a warm-up
  execution followed by measured executions (:func:`measure_query`); the
  mean simulated latency is the query's time for that (system, sites,
  scale factor) cell.  Per-query *performance gain* over a baseline
  system is averaged across scale factors, exactly how Figures 7-10 are
  built (by :class:`repro.bench.reporting.PaperRun`, the one caller).

* :func:`run_aql` — the Average Query Latency test (Table 3): one or more
  closed-loop *terminals* submit randomised queries until the test
  duration elapses; AQL is the arithmetic mean latency of all completed
  requests.  Executions are replayed as task graphs inside one shared
  cluster simulation, so concurrent queries contend for the same cores —
  which is where IC+M's 2x thread oversubscription shows up, as in the
  paper.

The engine is deterministic, so repeated measured executions return
identical latencies; ``repeats`` exists for methodological fidelity and
defaults to 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.scheduler import TaskGraph, WorkloadSimulator
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster, QueryOutcome, QueryStatus
from repro.obs.metrics import get_registry


@dataclass
class QueryMeasurement:
    """One query's outcome in one configuration cell."""

    query: str
    status: QueryStatus
    latency: Optional[float]  # mean simulated seconds, None on failure
    #: Registry counters this measurement moved (see
    #: :meth:`repro.obs.metrics.MetricsRegistry.delta_since`).
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class ResponseTimeResult:
    """All per-query measurements for one (system, sites) configuration."""

    #: (query id, scale factor) -> measurement
    cells: Dict[Tuple[str, float], QueryMeasurement] = field(default_factory=dict)

    def latency(self, query: str, scale_factor: float) -> Optional[float]:
        cell = self.cells.get((query, scale_factor))
        return cell.latency if cell else None

    def mean_gain_over(
        self, baseline: "ResponseTimeResult", query: str,
        scale_factors: Sequence[float],
    ) -> Optional[float]:
        """Average speedup across scale factors (the Figure 7/8 metric).

        None when the baseline failed the query at every scale factor
        (the paper omits those bars).
        """
        gains = []
        for sf in scale_factors:
            base = baseline.latency(query, sf)
            ours = self.latency(query, sf)
            if base is not None and ours is not None:
                gains.append(base / ours)
        if not gains:
            return None
        return sum(gains) / len(gains)


def measure_query(
    cluster: IgniteCalciteCluster, name: str, sql: str, repeats: int = 1
) -> QueryMeasurement:
    """Warm-up plus ``repeats - 1`` measured executions of one query."""
    registry = get_registry()
    before = registry.snapshot()
    warmup = cluster.try_sql(sql)  # warm-up execution (Section 6.2)
    if not warmup.ok:
        return QueryMeasurement(
            name, warmup.status, None, registry.delta_since(before)
        )
    latencies = [warmup.simulated_seconds]
    for _ in range(repeats - 1):
        outcome = cluster.try_sql(sql)
        latencies.append(outcome.simulated_seconds)
    # The warm-up itself is excluded from the mean when extra repeats
    # were measured (paper: warm-up + three measured executions).
    measured = latencies[1:] if len(latencies) > 1 else latencies
    return QueryMeasurement(
        name,
        QueryStatus.OK,
        sum(measured) / len(measured),
        registry.delta_since(before),
    )


def measure_response_times(
    loader: Callable[[SystemConfig, float], IgniteCalciteCluster],
    queries: Dict[str, str],
    config: SystemConfig,
    scale_factors: Sequence[float],
    repeats: int = 1,
) -> ResponseTimeResult:
    """The per-query response-time experiment for one configuration."""
    result = ResponseTimeResult()
    for sf in scale_factors:
        cluster = loader(config, sf)
        for name, sql in queries.items():
            result.cells[(name, sf)] = measure_query(
                cluster, name, sql, repeats
            )
    return result


# ---------------------------------------------------------------------------
# Average Query Latency (Table 3)
# ---------------------------------------------------------------------------


@dataclass
class AqlResult:
    system: str
    sites: int
    clients: int
    completed: int
    average_latency: float


def run_aql(
    cluster: IgniteCalciteCluster,
    queries: Dict[str, str],
    clients: int,
    duration_seconds: float = 300.0,
    seed: int = 42,
) -> AqlResult:
    """The Section 6.3 AQL experiment on an already-loaded cluster.

    Each terminal submits queries drawn at random (with replacement) from
    ``queries`` back-to-back until ``duration_seconds`` of simulated time
    elapse.  Task graphs are captured once per query (the warm-up
    execution) and replayed into a shared cluster simulation.
    """
    rng = random.Random(seed)
    graphs: Dict[str, TaskGraph] = {}
    for name, sql in queries.items():
        outcome: QueryOutcome = cluster.try_sql(sql)
        if not outcome.ok:
            raise RuntimeError(
                f"AQL workload query {name} failed: {outcome.status.value}"
            )
        assert outcome.result is not None
        graphs[name] = outcome.result.task_graph

    names = sorted(graphs)
    config = cluster.config
    simulator = WorkloadSimulator(config.sites, config.cores_per_site)
    latencies: List[float] = []
    next_tag = [0]
    tag_terminal: Dict[int, int] = {}

    def submit(terminal: int, at: float) -> None:
        tag = next_tag[0]
        next_tag[0] += 1
        tag_terminal[tag] = terminal
        simulator.submit(graphs[rng.choice(names)], at=at, tag=tag)

    def on_complete(tag: int, now: float) -> None:
        latencies.append(simulator.latency(tag))
        terminal = tag_terminal.pop(tag)
        if now < duration_seconds:
            submit(terminal, now)

    simulator.on_complete = on_complete
    for terminal in range(clients):
        submit(terminal, 0.0)
    simulator.run()
    if not latencies:
        raise RuntimeError("no queries completed in the AQL window")
    return AqlResult(
        system=config.name,
        sites=config.sites,
        clients=clients,
        completed=len(latencies),
        average_latency=sum(latencies) / len(latencies),
    )
