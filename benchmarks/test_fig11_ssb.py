"""Figure 11: Star Schema Benchmark per-query multiplier, IC vs IC+M.

Query sets one and three only: per Section 6.4, QS2 and QS4 are excluded
from the SSB test bench (planner search-space limits; see the SSB module
docs and EXPERIMENTS.md).  Expected shape: QS3 improves the most (join
ordering + hash joins + the broadcast mapping keeping LINEORDER in place);
QS1 improves moderately (only the small DATE relation is shipped).
"""

from __future__ import annotations

from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.common.config import SystemConfig


def test_fig11_ssb(benchmark, paper_run, show):
    figure = paper_run.figure11()
    show(figure.to_text())

    for sites in figure.site_counts:
        flight1 = [figure.gains[(q, sites)] for q in ("Q1.1", "Q1.2", "Q1.3")]
        flight3 = [
            figure.gains[(q, sites)] for q in ("Q3.1", "Q3.2", "Q3.3", "Q3.4")
        ]
        assert all(m is not None and m >= 1.0 for m in flight1)
        assert all(m is not None and m >= 1.2 for m in flight3)
        assert max(flight3) >= 2.0
        # QS3's best beats QS1's best: the paper's headline ordering.
        assert max(flight3) > max(flight1)

    smallest_sf = min(paper_run.scale_factors)
    cluster = load_ssb_cluster(SystemConfig.ic_plus_m(4), smallest_sf)
    benchmark(lambda: cluster.sql(SSB_QUERIES["Q1.1"].sql))
