"""Figure 8: overall performance improvement of IC+M over the baseline IC.

"Performance improved for every query and configuration."  Q2, Q5, Q9,
Q17, Q19 and Q21 are not shown because the baseline fails to plan or
execute them (Section 6.2.2).
"""

from __future__ import annotations

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig

from test_fig7_ic_plus_speedup import check_baseline_casualties


def test_fig8_overall_speedup(benchmark, paper_run, show):
    figure = paper_run.figure8()
    show(figure.to_text())

    smallest_sf = min(paper_run.scale_factors)
    for gains in check_baseline_casualties(figure, smallest_sf).values():
        # The paper reports 1.2x-17x gains overall; check the envelope.
        assert max(gains) >= 2.0
        assert min(gains) >= 0.85

    cluster = load_tpch_cluster(SystemConfig.ic_plus_m(4), smallest_sf)
    benchmark(lambda: cluster.sql(QUERIES[1].sql))
