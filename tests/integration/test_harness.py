"""Integration tests for the benchmark harness (Section 6.1-6.3 methodology)."""

import pytest

from repro.bench.harness import measure_response_times, run_aql
from repro.bench.reporting import AQL_WORKLOAD
from repro.bench.tpch import IC_FAILING_QUERY_IDS, QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig
from repro.core.cluster import QueryStatus

AQL_QUERIES = {
    f"Q{qid}": QUERIES[qid].sql
    for qid in (1, 3, 6, 12, 14)
}


def _measure(config, queries, scale_factors, repeats=1):
    return measure_response_times(
        load_tpch_cluster, queries, config, scale_factors, repeats
    )


class TestResponseTimeHarness:
    def test_measures_and_classifies(self):
        queries = {"Q1": QUERIES[1].sql, "Q2": QUERIES[2].sql}
        result = _measure(SystemConfig.ic(4), queries, (0.1,))
        assert result.latency("Q1", 0.1) > 0
        assert result.latency("Q2", 0.1) is None
        assert result.cells[("Q2", 0.1)].status is QueryStatus.PLANNING_FAILED

    def test_mean_gain_over(self):
        queries = {"Q6": QUERIES[6].sql}
        base = _measure(SystemConfig.ic(4), queries, (0.1, 0.2))
        improved = _measure(SystemConfig.ic_plus(4), queries, (0.1, 0.2))
        gain = improved.mean_gain_over(base, "Q6", (0.1, 0.2))
        assert gain == pytest.approx(1.0, rel=0.1)

    def test_gain_none_when_baseline_always_fails(self):
        queries = {"Q2": QUERIES[2].sql}
        base = _measure(SystemConfig.ic(4), queries, (0.1,))
        improved = _measure(SystemConfig.ic_plus(4), queries, (0.1,))
        assert improved.mean_gain_over(base, "Q2", (0.1,)) is None

    def test_repeats_are_deterministic(self):
        queries = {"Q6": QUERIES[6].sql}
        config = SystemConfig.ic_plus(4)
        a = _measure(config, queries, (0.1,), repeats=1).latency("Q6", 0.1)
        b = _measure(config, queries, (0.1,), repeats=3).latency("Q6", 0.1)
        assert a == pytest.approx(b)


class TestAql:
    @pytest.fixture(scope="class")
    def cluster(self):
        return load_tpch_cluster(SystemConfig.ic_plus(4), 0.1)

    def test_basic_run(self, cluster):
        result = run_aql(cluster, AQL_QUERIES, clients=2, duration_seconds=60)
        assert result.completed > 0
        assert result.average_latency > 0
        assert result.clients == 2

    def test_more_clients_complete_more_queries(self, cluster):
        two = run_aql(cluster, AQL_QUERIES, clients=2, duration_seconds=60)
        eight = run_aql(cluster, AQL_QUERIES, clients=8, duration_seconds=60)
        assert eight.completed > two.completed

    def test_contention_raises_latency(self, cluster):
        two = run_aql(cluster, AQL_QUERIES, clients=2, duration_seconds=120)
        sixteen = run_aql(cluster, AQL_QUERIES, clients=16, duration_seconds=120)
        assert sixteen.average_latency > two.average_latency

    def test_deterministic_for_fixed_seed(self, cluster):
        a = run_aql(cluster, AQL_QUERIES, clients=4, duration_seconds=60, seed=9)
        b = run_aql(cluster, AQL_QUERIES, clients=4, duration_seconds=60, seed=9)
        assert a.average_latency == pytest.approx(b.average_latency)
        assert a.completed == b.completed

    def test_failing_query_raises(self, cluster_ic=None):
        ic = load_tpch_cluster(SystemConfig.ic(4), 0.1)
        with pytest.raises(RuntimeError):
            run_aql(ic, {"Q2": QUERIES[2].sql}, clients=1, duration_seconds=10)

    def test_paper_workload_excludes_baseline_casualties(self):
        assert set(IC_FAILING_QUERY_IDS) == {2, 5, 9, 17, 19, 21}
        assert len(AQL_WORKLOAD) == 14
        assert not {f"Q{qid}" for qid in IC_FAILING_QUERY_IDS} & set(AQL_WORKLOAD)


