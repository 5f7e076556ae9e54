"""Figure 10: multithreading incremental difference, IC+ vs IC+M (8 sites).

Same comparison as Figure 9 on the larger cluster.  With more sites each
partition is smaller, so fixed variant overheads weigh more and fewer
queries benefit — the paper notes Q4 flips to a decrease on eight sites.
"""

from __future__ import annotations

from test_fig9_multithreading_4sites import check_multithreading


def test_fig10_multithreading_8sites(
    benchmark, paper_run, show
):
    check_multithreading(benchmark, paper_run, show, sites=8)
