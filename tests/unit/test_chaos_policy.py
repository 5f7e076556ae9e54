"""Unit tests for the retry policy, deadline accounting and percentiles."""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import (
    ExecutionTimeoutError,
    QueryDeadlineError,
    SiteFailureError,
)
from repro.core.cluster import QueryOutcome, QueryStatus
from repro.faults.chaos import (
    ChaosRecord,
    ChaosReport,
    RetryPolicy,
    _failed_attempt_seconds,
)
from repro.obs.metrics import percentile


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_seconds=0.25, factor=2.0)
        assert policy.delay(0) == pytest.approx(0.25)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)

    def test_total_backoff_sums_the_series(self):
        policy = RetryPolicy(base_seconds=0.1, factor=3.0)
        total = sum(policy.delay(retry) for retry in range(3))
        assert total == pytest.approx(0.1 + 0.3 + 0.9)

    def test_negative_retry_index_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)

    def test_jitter_zero_is_exact(self):
        assert RetryPolicy(jitter=0.0).delay(4) == RetryPolicy().delay(4)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_seconds=1.0, factor=1.0, jitter=0.5, seed=9)
        first = policy.delay(0, salt=123)
        assert first == policy.delay(0, salt=123)  # replayable
        assert 1.0 <= first <= 1.5
        assert first != policy.delay(0, salt=124)  # salt de-synchronises


class TestFailedAttemptAccounting:
    def test_site_failure_burns_time_up_to_the_crash(self):
        outcome = QueryOutcome(
            QueryStatus.FAILED_SITE,
            error=SiteFailureError("boom", site=1, at=2.0),
        )
        config = SystemConfig.ic_plus(4)
        assert _failed_attempt_seconds(outcome, 0.5, config) == pytest.approx(1.5)
        # A crash in the past costs the attempt nothing extra.
        assert _failed_attempt_seconds(outcome, 3.0, config) == 0.0

    def test_deadline_burns_the_deadline(self):
        outcome = QueryOutcome(
            QueryStatus.TIMED_OUT,
            error=QueryDeadlineError("deadline", limit=1.25),
        )
        config = SystemConfig.ic_plus(4)
        assert _failed_attempt_seconds(outcome, 0.0, config) == pytest.approx(1.25)

    def test_budget_timeout_burns_the_runtime_limit(self):
        outcome = QueryOutcome(
            QueryStatus.TIMED_OUT, error=ExecutionTimeoutError("budget")
        )
        config = SystemConfig.ic_plus(4)
        assert _failed_attempt_seconds(outcome, 0.0, config) == pytest.approx(
            config.runtime_limit_seconds
        )

    def test_row_phase_faults_fail_fast(self):
        outcome = QueryOutcome(QueryStatus.FAILED_SITE, error=None)
        assert _failed_attempt_seconds(outcome, 0.0, SystemConfig.ic(4)) == 0.0


class TestPercentile:
    def test_nearest_rank_on_known_sample(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 50.0) == 30.0
        assert percentile(values, 95.0) == 50.0
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 50.0

    def test_even_sized_samples_take_the_lower_middle(self):
        # Nearest rank is ceil(q/100 * n): the p50 of an even-sized pool
        # is its lower middle value whatever n is (banker's rounding of a
        # fractional index picked the 3rd of 4 but also the 3rd of 6).
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50.0) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 95.0) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 95.0) == 6.0

    def test_returned_value_is_always_observed(self):
        values = [3.0, 1.0, 2.0]
        for q in (1, 33, 50, 66, 99):
            assert percentile(values, q) in values

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_latency_percentiles_keys(self):
        records = [
            ChaosRecord(f"q{i}", "select 1", QueryStatus.OK, 1, 0.0, s, s)
            for i, s in enumerate((1.0, 2.0, 3.0))
        ]
        summary = ChaosReport("IC+", 4, 0, records).percentiles()
        assert summary == {50.0: 2.0, 95.0: 3.0, 99.0: 3.0}
