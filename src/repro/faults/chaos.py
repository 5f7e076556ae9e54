"""The chaos harness: a workload under a fault schedule, with recovery.

``run_chaos`` submits a workload's queries one after another on a single
simulated *chaos clock*.  Each query gets the cluster's resilience
treatment:

* a failed attempt (site failure, lost exchange, OOM-killed fragment,
  blown deadline) is retried up to ``config.max_retries`` times with
  exponential backoff — the backoff wait advances the chaos clock, so
  later faults in the schedule can hit the retry;
* a successful attempt that ran below full strength is recorded as
  ``DEGRADED``; a success that needed retries as ``RETRIED``;
* every recovered result is (optionally, default on) diffed against the
  single-node reference executor
  (:func:`~repro.verify.differential.oracle_detail`) — the whole point of
  graceful degradation is *correct* answers from a wounded cluster, and
  the oracle is the proof.

The report carries availability, retry counts and latency percentiles,
the resilience-side counterparts of the paper's Table 3 AQL numbers.
Everything is deterministic: same cluster, same schedule, same seed —
same report.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import (
    ExecutionTimeoutError,
    QueryDeadlineError,
    SiteFailureError,
)
from repro.core.cluster import IgniteCalciteCluster, QueryOutcome, QueryStatus
from repro.obs.metrics import get_registry, percentile
from repro.verify.differential import oracle_detail

#: Failure statuses worth retrying: transient (a consumed one-shot fault
#: will not refire) or possibly transient (a deadline blown by contention
#: or failover).  Planner failures and unsupported SQL are deterministic
#: and never retried.
RETRYABLE = frozenset({QueryStatus.FAILED_SITE, QueryStatus.TIMED_OUT})


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: wait ``base * factor**k`` before retry ``k``.

    ``jitter`` adds a deterministic, seed-derived fraction of the wait
    (0 disables it) so retry storms de-synchronise without breaking
    replayability.
    """

    #: The first retry waits this long (simulated seconds) ...
    base_seconds: float = 0.25
    #: ... and each further retry multiplies the wait by this.
    factor: float = 2.0
    max_retries: int = 2
    jitter: float = 0.0
    seed: int = 0

    def delay(self, retry: int, salt: int = 0) -> float:
        """Simulated seconds to wait before retry number ``retry`` (0-based)."""
        if retry < 0:
            raise ValueError("retry index must be >= 0")
        wait = self.base_seconds * (self.factor ** retry)
        if self.jitter:
            rng = random.Random((self.seed << 32) ^ (retry << 16) ^ salt)
            wait *= 1.0 + self.jitter * rng.random()
        return wait


@dataclass
class ChaosRecord:
    """One query's fate in a chaos run."""

    name: str
    sql: str
    status: QueryStatus
    attempts: int
    submitted_at: float
    completed_at: float
    #: Simulated seconds of the successful attempt (None when the query
    #: ultimately failed).
    latency: Optional[float]
    degraded: bool = False
    #: None = not checked (failed query, or oracle off); else the verdict
    #: of the differential check against the ReferenceExecutor.
    oracle_ok: Optional[bool] = None
    oracle_detail: str = ""

    @property
    def succeeded(self) -> bool:
        return self.latency is not None

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def elapsed(self) -> float:
        """Wall-clock simulated seconds including failed attempts+backoff."""
        return self.completed_at - self.submitted_at


@dataclass
class ChaosReport:
    """Aggregate outcome of one chaos run."""

    system: str
    sites: int
    seed: int
    records: List[ChaosRecord] = field(default_factory=list)
    #: Chaos-clock time when the last query finished (or gave up).
    makespan: float = 0.0

    @property
    def availability(self) -> float:
        """Fraction of queries that eventually produced rows."""
        if not self.records:
            return 1.0
        return sum(1 for r in self.records if r.succeeded) / len(self.records)

    @property
    def total_retries(self) -> int:
        return sum(r.retries for r in self.records)

    @property
    def status_counts(self) -> Dict[str, int]:
        return dict(Counter(r.status.value for r in self.records))

    @property
    def oracle_clean(self) -> bool:
        """No checked query diverged from the reference executor."""
        return all(r.oracle_ok is not False for r in self.records)

    def percentiles(
        self, qs: Tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> Dict[float, float]:
        latencies = [r.latency for r in self.records if r.latency is not None]
        if not latencies:
            return {}
        return {q: percentile(latencies, q) for q in qs}

    def to_text(self) -> str:
        """The CLI rendering: stable, diffable across identical runs."""
        lines = [
            f"chaos report: system={self.system} sites={self.sites} "
            f"seed={self.seed}",
            f"queries={len(self.records)} "
            f"availability={self.availability * 100:.1f}% "
            f"retries={self.total_retries} "
            f"makespan={self.makespan:.3f}s",
        ]
        counts = self.status_counts
        lines.append(
            "outcomes: "
            + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        )
        pcts = self.percentiles()
        if pcts:
            lines.append(
                "latency: "
                + "  ".join(
                    f"p{int(q)}={value:.4f}s" for q, value in pcts.items()
                )
            )
        checked = [r for r in self.records if r.oracle_ok is not None]
        if checked:
            bad = [r for r in checked if not r.oracle_ok]
            lines.append(
                f"oracle: {len(checked) - len(bad)}/{len(checked)} "
                "recovered results match the reference executor"
            )
            for record in bad:
                lines.append(
                    f"  DIVERGED {record.name}: {record.oracle_detail}"
                )
        for record in self.records:
            flags = []
            if record.degraded:
                flags.append("degraded")
            if record.retries:
                flags.append(f"retries={record.retries}")
            suffix = f" ({', '.join(flags)})" if flags else ""
            cell = (
                f"{record.latency:.4f}s"
                if record.latency is not None
                else record.status.value
            )
            lines.append(f"  {record.name:<8} {cell}{suffix}")
        return "\n".join(lines)


def run_chaos(
    cluster: IgniteCalciteCluster,
    queries: Dict[str, str],
    seed: int = 0,
    shuffle: bool = True,
    verify_oracle: bool = True,
) -> ChaosReport:
    """Run ``queries`` on ``cluster`` under its configured fault schedule.

    The cluster's :class:`~repro.common.config.SystemConfig` supplies both
    the schedule (``faults``) and the resilience policy (``max_retries``,
    ``query_deadline_seconds``, ``failover_redispatch``).
    """
    config = cluster.config
    policy = RetryPolicy(max_retries=config.max_retries, seed=seed)
    cluster.fault_injector.reset()
    names = sorted(queries)
    if shuffle:
        random.Random(seed).shuffle(names)
    report = ChaosReport(
        system=config.name, sites=config.sites, seed=seed
    )
    clock = 0.0
    for name in names:
        sql = queries[name]
        submitted = clock
        attempts = 0
        while True:
            attempts += 1
            outcome: QueryOutcome = cluster.try_sql(sql, at=clock)
            if outcome.succeeded:
                clock += outcome.result.simulated_seconds
                break
            clock += _failed_attempt_seconds(outcome, clock, config)
            retry = attempts - 1  # 0-based index of the upcoming retry
            if outcome.status not in RETRYABLE or retry >= policy.max_retries:
                break
            get_registry().inc("chaos.retries", query=name)
            clock += policy.delay(retry, salt=_salt(name))
        status = outcome.status
        if outcome.succeeded and attempts > 1:
            status = QueryStatus.RETRIED
        record = ChaosRecord(
            name=name,
            sql=sql,
            status=status,
            attempts=attempts,
            submitted_at=submitted,
            completed_at=clock,
            latency=(
                outcome.result.simulated_seconds if outcome.succeeded else None
            ),
            degraded=bool(outcome.result and outcome.result.degraded),
        )
        if verify_oracle and outcome.succeeded:
            record.oracle_detail = oracle_detail(
                cluster.store, cluster.parse_to_logical(sql), outcome.rows
            )
            record.oracle_ok = not record.oracle_detail
        report.records.append(record)
    report.makespan = clock
    return report


def _salt(name: str) -> int:
    # hash() is process-salted for strings; crc32 keeps jitter replayable.
    return zlib.crc32(name.encode("utf-8"))


def _failed_attempt_seconds(
    outcome: QueryOutcome, clock: float, config
) -> float:
    """Chaos-clock seconds a failed attempt burned before dying."""
    error = outcome.error
    if isinstance(error, SiteFailureError) and error.at:
        return max(0.0, error.at - clock)
    if isinstance(error, QueryDeadlineError):
        return error.limit
    if isinstance(error, ExecutionTimeoutError):
        return config.runtime_limit_seconds
    # Row-phase faults (lost exchange, OOM kill) fail fast.
    return 0.0

