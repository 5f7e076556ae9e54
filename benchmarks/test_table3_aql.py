"""Table 3: Average Query Latency for 4 and 8 sites, 2/4/8 clients.

Reproduces the Section 6.3 methodology: terminals submit randomised
queries back-to-back for a fixed window; queries the baseline cannot run
(Q2/Q5/Q9/Q17/Q19/Q21) are disabled for *all* systems "to ensure a fair
comparison".

Expected shape: AQL rises with clients and falls with sites for every
system; IC+ always beats IC; IC+M beats IC+ at two clients but falls
behind at four and eight, when its doubled thread count exceeds the
per-site execution slots (the paper's CPU-contention explanation).
"""

from __future__ import annotations

from repro.bench.harness import run_aql
from repro.bench.reporting import AQL_WORKLOAD
from repro.bench.tpch import load_tpch_cluster
from repro.common.config import SystemConfig


def test_table3_aql(benchmark, paper_run, show):
    table = paper_run.table3(scale_factor=max(paper_run.scale_factors))
    show(table.to_text())

    aql = table.latencies
    for sites in table.site_counts:
        for system in table.systems:
            series = [aql[(sites, system, c)] for c in table.clients]
            # AQL rises (weakly) with client count.
            assert series[0] <= series[1] * 1.05
            assert series[1] <= series[2] * 1.05
        for clients in table.clients:
            # IC+ always beats IC.
            assert aql[(sites, "IC+", clients)] < aql[(sites, "IC", clients)]
        # IC+M wins at two clients, loses ground at eight (contention).
        assert aql[(sites, "IC+M", 2)] <= aql[(sites, "IC+", 2)] * 1.02
        assert aql[(sites, "IC+M", 8)] > aql[(sites, "IC+", 8)]
    if len(table.site_counts) > 1:
        small, large = min(table.site_counts), max(table.site_counts)
        for system in table.systems:
            for clients in table.clients:
                assert aql[(large, system, clients)] < aql[(small, system, clients)]

    # Benchmark one AQL simulation end-to-end (replayed task graphs).
    smallest_sf = min(paper_run.scale_factors)
    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), smallest_sf)
    benchmark(
        lambda: run_aql(cluster, AQL_WORKLOAD, clients=4, duration_seconds=60.0)
    )
