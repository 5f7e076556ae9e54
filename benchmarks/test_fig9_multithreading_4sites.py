"""Figure 9: multithreading incremental difference, IC+ vs IC+M (4 sites).

The dual-threaded variant-fragment configuration against its own
single-threaded base.  Expected shape (Section 6.2.3): significant gains
for queries with multiple distributed computation components (Q1, Q3,
Q5-Q8, Q14 in the paper), negligible change for filter-bound or
root-fragment-bound queries, and slowdowns where a reduction operator
keeps the heavy fragment single-threaded (Q16, Q18, Q22).
"""

from __future__ import annotations

import pytest

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig


def check_multithreading(benchmark, paper_run, show, sites):
    """One site count's block of Figures 9/10: print, shape, timing."""
    if sites not in paper_run.site_counts:
        pytest.skip(f"{sites}-site matrix disabled via REPRO_BENCH_SITES")
    figure = paper_run.figure9()
    show(figure.block(sites))

    changes = {q: figure.change(q, sites) for q in figure.queries}
    present = {q: c for q, c in changes.items() if c is not None}
    gainers = [q for q, c in present.items() if c >= 8.0]
    # Distributed-computation queries benefit...
    assert "Q1" in gainers, f"Q1 should gain from multithreading: {present['Q1']}"
    assert len(gainers) >= 4
    # ...while COUNT(DISTINCT) pins Q16's reduction to a single thread, so
    # it lags the field, and at least one query genuinely slows down under
    # the variant overheads.
    ranked = sorted(present.values())
    median = ranked[len(ranked) // 2]
    assert present["Q16"] < median, (
        f"Q16 should lag the field: {present['Q16']} vs median {median}"
    )
    assert ranked[0] < 0.0, "someone must pay the variant overhead"

    smallest_sf = min(paper_run.scale_factors)
    cluster = load_tpch_cluster(SystemConfig.ic_plus_m(sites), smallest_sf)
    benchmark(lambda: cluster.sql(QUERIES[6].sql))


def test_fig9_multithreading_4sites(benchmark, paper_run, show):
    check_multithreading(benchmark, paper_run, show, sites=4)
