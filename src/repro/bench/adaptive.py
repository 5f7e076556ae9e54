"""Benchmark driver for the adaptive re-planning layer.

Measures what the plan cache and cardinality feedback loop actually buy
on repeat executions of a fixed workload:

* **planning-time savings** — planner budget ticks charged on the first
  execution versus on repeats (a cache hit skips Hep+Volcano entirely,
  so a repeat that hits spends exactly zero ticks);
* **estimate quality** — the executed plan's worst per-operator q-error
  on the first run versus the last, showing whether harvested actuals
  (and a feedback-driven replan, when one fires) tightened the
  estimates;
* **safety** — result rows of every repeat are diffed against the first
  execution under the bench row convention (``core.same_rows``); the
  adaptive layer must never change answers.  A run that fails in one of
  the classified ways (the paper's IC failure matrix) is reported by its
  status and ends that query's repeats — a failure is not a divergence.

Each execution is one ``core.observe``: counters are read off the
metrics registry as that execution's delta, the same counters
``repro-bench`` reports elsewhere, so the harness observes the system
rather than instrumenting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.bench.core import observe, same_rows
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster


@dataclass
class AdaptiveMeasurement:
    """One query's adaptive behaviour over ``repeats`` executions."""

    query: str
    #: Planner budget ticks charged per execution (index 0 = first run).
    budget_ticks: List[int] = field(default_factory=list)
    #: Plan-cache hits per execution (0 or 1 each).
    cache_hits: List[int] = field(default_factory=list)
    #: Worst per-operator q-error per execution.
    q_errors: List[float] = field(default_factory=list)
    #: Feedback-driven replans observed across the whole sequence.
    replans: int = 0
    #: Estimator row overrides consumed across the whole sequence.
    overrides: int = 0
    #: Every repeat returned the first execution's rows.
    rows_stable: bool = True
    #: Status of the run that returned no rows ("" when none failed).
    failed: str = ""

    @property
    def first_ticks(self) -> int:
        return self.budget_ticks[0] if self.budget_ticks else 0

    @property
    def repeat_ticks(self) -> int:
        """Total ticks spent planning after the first execution."""
        return sum(self.budget_ticks[1:])

    @property
    def q_error_first(self) -> float:
        return self.q_errors[0] if self.q_errors else 1.0

    @property
    def q_error_last(self) -> float:
        return self.q_errors[-1] if self.q_errors else 1.0


@dataclass
class AdaptiveBenchResult:
    """The full sweep: one measurement per workload query."""

    system: str
    sites: int
    repeats: int
    measurements: Dict[str, AdaptiveMeasurement] = field(default_factory=dict)

    @property
    def total_first_ticks(self) -> int:
        return sum(m.first_ticks for m in self.measurements.values())

    @property
    def total_repeat_ticks(self) -> int:
        return sum(m.repeat_ticks for m in self.measurements.values())

    @property
    def rows_stable(self) -> bool:
        return all(m.rows_stable for m in self.measurements.values())

    def to_text(self) -> str:
        lines = [
            f"adaptive bench: {self.system} @ {self.sites} sites, "
            f"{self.repeats} executions per query",
            f"{'query':<8} {'ticks(1st)':>10} {'ticks(rest)':>11} "
            f"{'hits':>5} {'replans':>7} {'q-err 1st':>10} {'q-err last':>10} "
            f"{'rows':>6}",
        ]
        for name in sorted(self.measurements):
            m = self.measurements[name]
            lines.append(
                f"{name:<8} {m.first_ticks:>10} {m.repeat_ticks:>11} "
                f"{sum(m.cache_hits):>5} {m.replans:>7} "
                f"{m.q_error_first:>10.2f} {m.q_error_last:>10.2f} "
                f"{m.failed or ('ok' if m.rows_stable else 'DIFF'):>6}"
            )
        saved = self.total_first_ticks * (self.repeats - 1)
        spent = self.total_repeat_ticks
        lines.append(
            f"planning ticks after first run: {spent} "
            f"(vs {saved} without a plan cache)"
        )
        lines.append(
            "rows stable across repeats: "
            + ("yes" if self.rows_stable else "NO — adaptive layer broke answers")
        )
        return "\n".join(lines)


def run_adaptive(
    loader: Callable[[SystemConfig, float], IgniteCalciteCluster],
    queries: Dict[str, str],
    config: SystemConfig,
    scale_factor: float,
    repeats: int = 3,
) -> AdaptiveBenchResult:
    """Execute each query ``repeats`` times on one adaptive cluster.

    ``config`` should enable ``plan_cache`` and/or
    ``cardinality_feedback``; with both off the harness still runs and
    simply reports zero hits and identical tick counts — a useful
    baseline column.
    """
    if repeats < 2:
        raise ValueError("run_adaptive needs at least 2 repeats")
    cluster = loader(config, scale_factor)
    result = AdaptiveBenchResult(
        system=config.name, sites=config.sites, repeats=repeats
    )
    for name, sql in queries.items():
        measurement = AdaptiveMeasurement(query=name)
        reference_rows = None
        for _ in range(repeats):
            run = observe(cluster, sql)
            if run.failure:
                measurement.failed = run.outcome.status.value
                break
            measurement.budget_ticks.append(run.count("planner.budget_spent_sum"))
            measurement.cache_hits.append(run.count("plan_cache.hits"))
            measurement.q_errors.append(run.outcome.result.max_q_error())
            measurement.replans += run.count("plan_cache.replans")
            measurement.overrides += run.count("adaptive.feedback_overrides")
            if reference_rows is None:
                reference_rows = run.rows
            elif not same_rows(run.rows, reference_rows, ordered=False):
                measurement.rows_stable = False
        result.measurements[name] = measurement
    return result


def default_workload(queries: Dict[str, str], limit: int = 8) -> Dict[str, str]:
    """A bounded, deterministic slice of a benchmark's query set."""
    out: Dict[str, str] = {}
    for name in sorted(queries)[:limit]:
        out[name] = queries[name]
    return out
