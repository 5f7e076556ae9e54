"""Integration tests for the fault-injection and resilience layer.

The fast smoke test (one injected site failure, end to end, recovered
answer checked against the oracle) runs in the default tier-1 sweep; the
heavier schedules are marked ``chaos``.
"""

import pytest

from helpers import make_company_cluster
from repro.common import constants
from repro.common.config import SystemConfig
from repro.core.cluster import QueryStatus
from repro.faults.chaos import run_chaos
from repro.faults.injector import (
    ExchangeDrop,
    FragmentOom,
    SiteCrash,
    random_schedule,
)

WORKLOAD = {
    "join": (
        "select e.name, s.amount from emp e, sales s "
        "where e.emp_id = s.emp_id and s.amount > 2500"
    ),
    "agg": (
        "select region, count(*), sum(amount) from sales "
        "group by region order by region"
    ),
    "scan": "select emp_id, name from emp where salary > 150000",
}


def chaos_config(**overrides):
    return SystemConfig.ic_plus(4).with_(**overrides)


class TestSmoke:
    def test_single_site_failure_end_to_end(self):
        # The tier-1 smoke: site 1 dies almost immediately, every query
        # still answers, and every answer matches the fault-free run.
        config = chaos_config(
            faults=(SiteCrash(site=1, at=0.001),), max_retries=2
        )
        report = run_chaos(
            make_company_cluster(config), WORKLOAD, seed=0
        )
        assert report.availability == 1.0
        assert report.oracle_clean
        assert all(r.succeeded for r in report.records)
        # At least the queries submitted after the crash ran degraded.
        assert any(r.degraded for r in report.records)

    def test_fault_free_run_is_all_ok(self):
        report = run_chaos(
            make_company_cluster(chaos_config()), WORKLOAD, seed=0
        )
        assert report.status_counts == {"ok": len(WORKLOAD)}
        assert report.total_retries == 0
        assert report.oracle_clean


class TestDeterminism:
    def test_same_seed_same_report(self):
        config = chaos_config(
            faults=(SiteCrash(site=2, at=0.0005),), max_retries=2
        )
        first = run_chaos(make_company_cluster(config), WORKLOAD, seed=3)
        second = run_chaos(make_company_cluster(config), WORKLOAD, seed=3)
        assert first.to_text() == second.to_text()

    def test_injector_reset_between_runs_on_one_cluster(self):
        # One-shot faults re-arm per run: the same cluster object must
        # produce the same report twice.
        config = chaos_config(
            faults=(ExchangeDrop(exchange_id=-1, at=0.0),), max_retries=2
        )
        cluster = make_company_cluster(config)
        first = run_chaos(cluster, WORKLOAD, seed=1)
        second = run_chaos(cluster, WORKLOAD, seed=1)
        assert first.to_text() == second.to_text()
        assert first.total_retries >= 1

    @pytest.mark.chaos
    def test_random_schedule_replay(self):
        schedule = random_schedule(
            seed=11, sites=4, horizon_seconds=0.02, crashes=2, slowdowns=1
        )
        config = chaos_config(faults=schedule, max_retries=3)
        first = run_chaos(make_company_cluster(config), WORKLOAD, seed=11)
        second = run_chaos(make_company_cluster(config), WORKLOAD, seed=11)
        assert first.to_text() == second.to_text()
        assert first.availability == 1.0
        assert first.oracle_clean


class TestRetrySemantics:
    def test_oom_killed_fragment_recovers_on_retry(self):
        config = chaos_config(
            faults=(FragmentOom(fragment_id=-1, at=0.0),), max_retries=1
        )
        report = run_chaos(
            make_company_cluster(config), WORKLOAD, seed=0, shuffle=False
        )
        first = report.records[0]
        assert first.status is QueryStatus.RETRIED
        assert first.attempts == 2
        assert first.oracle_ok
        # Backoff advanced the chaos clock beyond the pure execution time.
        assert first.elapsed > first.latency

    def test_retries_exhausted_leaves_failure_status(self):
        # Three one-shot OOMs against one allowed retry: the first query
        # burns both attempts and fails; the next query consumes the third
        # OOM, retries, and succeeds.
        config = chaos_config(
            faults=(
                FragmentOom(fragment_id=-1, at=0.0),
                FragmentOom(fragment_id=-1, at=0.0),
                FragmentOom(fragment_id=-1, at=0.0),
            ),
            max_retries=1,
        )
        report = run_chaos(
            make_company_cluster(config), WORKLOAD, seed=0, shuffle=False
        )
        first, second = report.records[0], report.records[1]
        assert not first.succeeded
        assert first.status is QueryStatus.FAILED_SITE
        assert first.attempts == 2
        assert second.status is QueryStatus.RETRIED
        assert report.availability == pytest.approx(2 / 3)


class TestBudgetExhaustion:
    def test_timed_out_leaks_no_partial_rows(self, monkeypatch):
        # The work-unit budget dies mid-fragment: the outcome must be
        # TIMED_OUT with no result object, and reading rows must raise
        # rather than surface whatever the operators had produced so far.
        monkeypatch.setattr(constants, "RUNTIME_LIMIT_SECONDS", 1e-9)
        cluster = make_company_cluster(chaos_config())
        outcome = cluster.try_sql(WORKLOAD["join"])
        assert outcome.status is QueryStatus.TIMED_OUT
        assert outcome.result is None
        with pytest.raises(RuntimeError):
            outcome.rows
        with pytest.raises(RuntimeError):
            outcome.simulated_seconds

    def test_timed_out_is_retryable_but_stays_failed(self, monkeypatch):
        monkeypatch.setattr(constants, "RUNTIME_LIMIT_SECONDS", 1e-9)
        config = chaos_config(max_retries=2)
        report = run_chaos(
            make_company_cluster(config),
            {"join": WORKLOAD["join"]},
            seed=0,
            shuffle=False,
        )
        record = report.records[0]
        assert record.status is QueryStatus.TIMED_OUT
        assert record.attempts == 3  # initial try + both retries
        assert not record.succeeded
        assert report.availability == 0.0


class TestDeadline:
    def test_deadline_fails_queries_the_budget_allows(self):
        # A deadline tighter than any query's makespan: everything times
        # out even though the work-unit budget is untouched.
        config = chaos_config(query_deadline_seconds=1e-9, max_retries=0)
        report = run_chaos(
            make_company_cluster(config), WORKLOAD, seed=0, verify_oracle=False
        )
        assert report.availability == 0.0
        assert set(report.status_counts) == {"timeout"}

    def test_loose_deadline_changes_nothing(self):
        config = chaos_config(query_deadline_seconds=60.0)
        report = run_chaos(
            make_company_cluster(config), WORKLOAD, seed=0
        )
        assert report.availability == 1.0
        assert report.status_counts == {"ok": len(WORKLOAD)}
