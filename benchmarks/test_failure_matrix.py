"""The Section 1 / Section 6 failure matrix.

"Of the 22 TPC-H queries, eight failed to execute using a standard
deployment": Q15 (SQL VIEWs unsupported), Q20 (planner exception),
Q17/Q19/Q21 (nested-loop plans past the runtime limit), Q2/Q5/Q9 (no
execution plan generated).  IC+ completes every enabled query — the paper
reports all six baseline casualties finishing in under a minute.
"""

from __future__ import annotations

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig
from repro.core.cluster import QueryStatus

EXPECTED_IC = {
    "Q2": QueryStatus.PLANNING_FAILED,
    "Q5": QueryStatus.PLANNING_FAILED,
    "Q9": QueryStatus.PLANNING_FAILED,
    "Q15": QueryStatus.UNSUPPORTED,
    "Q17": QueryStatus.TIMEOUT,
    "Q19": QueryStatus.TIMEOUT,
    "Q20": QueryStatus.PLANNER_DEFECT,
    "Q21": QueryStatus.TIMEOUT,
}


def test_failure_matrix(benchmark, paper_run, show):
    # The Q17/Q19/Q21 nested-loop timeouts need enough data to blow the
    # runtime limit; the paper's smallest scale factor is 0.5.
    sf = max(0.5, min(paper_run.scale_factors))
    matrix = paper_run.failures(scale_factor=sf)
    show(matrix.to_text())

    for query, ic_status, ic_plus_status in matrix.rows:
        expected = EXPECTED_IC.get(query, QueryStatus.OK)
        assert ic_status == expected.value, (query, ic_status)
        # Q15 and Q20 are disabled on every system variant.
        assert (ic_plus_status == "ok") == (query not in ("Q15", "Q20")), (
            query, ic_plus_status,
        )

    ic_plus = load_tpch_cluster(SystemConfig.ic_plus(4), sf)
    benchmark(lambda: ic_plus.try_sql(QUERIES[2].sql))
