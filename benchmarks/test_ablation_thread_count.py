"""Ablation: how many variant fragments per fragment? (Section 6.2.3)

"When testing different multi-threaded configurations, a dual-threaded
configuration had the best performance."  This bench reproduces the
trade-off behind that choice: isolated query latency keeps improving until
the per-site execution slots saturate, but under concurrent clients every
extra thread is pure oversubscription — two threads capture most of the
single-query gain while limiting the contention damage.
"""

from __future__ import annotations

import statistics

from repro.bench.harness import run_aql
from repro.bench.reporting import AQL_WORKLOAD, TPCH_WORKLOAD
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig

SF = 0.5
THREADS = (1, 2, 3, 4, 8)


def test_ablation_thread_count(benchmark, capsys):
    single = {}
    loaded = {}
    for threads in THREADS:
        cluster = load_tpch_cluster(
            SystemConfig.ic_plus_m(4, threads=threads), SF
        )
        latencies = []
        for sql in TPCH_WORKLOAD.values():
            outcome = cluster.try_sql(sql)
            if outcome.ok:
                latencies.append(outcome.simulated_seconds)
        single[threads] = statistics.mean(latencies)
        loaded[threads] = run_aql(
            cluster, AQL_WORKLOAD, clients=4, duration_seconds=300
        ).average_latency

    lines = ["", "Ablation: variant fragments per fragment (Section 6.2.3)"]
    lines.append("threads  single-query mean   AQL @ 4 clients")
    for threads in THREADS:
        lines.append(
            f"{threads:<8} {single[threads]:>17.4f} {loaded[threads]:>17.4f}"
        )
    with capsys.disabled():
        print("\n".join(lines))

    # Isolated queries: the second thread helps; past the slot count it hurts.
    assert single[2] < single[1]
    assert single[8] > single[4]
    # The second thread captures more gain than the third and fourth do.
    assert single[1] - single[2] > single[2] - single[4]
    # Under concurrent load, extra threads only add contention.
    assert loaded[2] < loaded[4] < loaded[8]

    cluster = load_tpch_cluster(SystemConfig.ic_plus_m(4), 0.2)
    benchmark(lambda: cluster.sql(QUERIES[1].sql))
