"""Figure 7: IC+ per-query performance gain over the baseline IC.

Reproduces "Join Optimizations & Query Planner Performance Improvements
over Baseline": for each TPC-H query and site count, the mean speedup of
IC+ over IC averaged across scale factors.  Queries the baseline cannot
complete (Q2/Q5/Q9 planning failures; Q17/Q19/Q21 timeouts) have no bar,
exactly as in the paper ("comparisons ... are not available because they
did not complete execution in the IC baseline system").

Expected shape (Section 6.2.1): gains for every completing query; the
biggest from filter pushdown (Q4, Q22), the broadcast mapping (Q3, Q7, Q8,
Q10, Q11, Q13, Q16) and the hash join; Q1/Q6 unchanged (same plans).
"""

from __future__ import annotations

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig

IC_CASUALTIES = {"Q2", "Q5", "Q9", "Q17", "Q19", "Q21"}


def check_baseline_casualties(figure, smallest_sf):
    """Queries IC cannot run have no bar — and they are exactly the six
    the paper lists.  (The Q17/Q19/Q21 timeouts are scale-dependent;
    below the paper's smallest SF of 0.5 they may complete.)  Every
    comparable query improves or stays level (>= ~1x).  Returns the
    comparable gains per site count."""
    comparable = {}
    for sites in figure.site_counts:
        gains = {q: figure.gains[(q, sites)] for q in figure.queries}
        missing = {q for q, gain in gains.items() if gain is None}
        if smallest_sf >= 0.5:
            assert missing == IC_CASUALTIES
        else:
            assert {"Q2", "Q5", "Q9"} <= missing <= IC_CASUALTIES
        comparable[sites] = [g for g in gains.values() if g is not None]
        for query, gain in gains.items():
            if gain is not None:
                assert gain >= 0.85, f"{query} regressed at {sites} sites: {gain}"
    return comparable


def test_fig7_ic_plus_speedup(benchmark, paper_run, show):
    figure = paper_run.figure7()
    show(figure.to_text())

    smallest_sf = min(paper_run.scale_factors)
    for gains in check_baseline_casualties(figure, smallest_sf).values():
        # Headline gains: at least a third of the queries improve >= 1.5x.
        assert len([g for g in gains if g >= 1.5]) >= 5

    # Benchmark a representative IC+ execution (Q3 at the smallest SF).
    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), smallest_sf)
    benchmark(lambda: cluster.sql(QUERIES[3].sql))
