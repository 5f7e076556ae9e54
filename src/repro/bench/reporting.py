"""Structured experiment reports: run a paper artefact, get data + markdown.

The pytest benchmarks print tables for humans; this module produces the
same artefacts as data structures so they can be post-processed, plotted
or rendered into a results document (``examples/regenerate_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ResponseTimeHarness, run_aql
from repro.bench.ssb import FIGURE11_QUERY_IDS, SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import (
    ENABLED_QUERY_IDS,
    IC_FAILING_QUERY_IDS,
    QUERIES,
    load_tpch_cluster,
)
from repro.common.config import PRESETS, SystemConfig

TPCH_QUERY_NAMES = [f"Q{qid}" for qid in ENABLED_QUERY_IDS]


@dataclass
class GainFigure:
    """A Figure 7/8/11-style artefact: per-query gain per site count."""

    title: str
    queries: List[str]
    site_counts: Tuple[int, ...]
    #: (query, sites) -> gain multiplier, or None when the baseline failed.
    gains: Dict[Tuple[str, int], Optional[float]] = field(default_factory=dict)

    def to_markdown(self) -> str:
        header = "| query | " + " | ".join(
            f"{s} sites" for s in self.site_counts
        ) + " |"
        divider = "|---" * (len(self.site_counts) + 1) + "|"
        lines = [f"### {self.title}", "", header, divider]
        for query in self.queries:
            cells = []
            for sites in self.site_counts:
                gain = self.gains.get((query, sites))
                cells.append("n/a" if gain is None else f"{gain:.2f}x")
            lines.append(f"| {query} | " + " | ".join(cells) + " |")
        return "\n".join(lines)


@dataclass
class AqlTable:
    """The Table 3 artefact."""

    title: str
    site_counts: Tuple[int, ...]
    systems: Tuple[str, ...]
    clients: Tuple[int, ...]
    #: (sites, system, clients) -> mean latency (simulated seconds).
    latencies: Dict[Tuple[int, str, int], float] = field(default_factory=dict)

    def to_markdown(self) -> str:
        header = "| clients | " + " | ".join(
            f"{system}@{sites}"
            for sites in self.site_counts
            for system in self.systems
        ) + " |"
        divider = "|---" * (
            len(self.site_counts) * len(self.systems) + 1
        ) + "|"
        lines = [f"### {self.title}", "", header, divider]
        for clients in self.clients:
            cells = [
                f"{self.latencies[(sites, system, clients)]:.3f}"
                for sites in self.site_counts
                for system in self.systems
            ]
            lines.append(f"| {clients} | " + " | ".join(cells) + " |")
        return "\n".join(lines)


def tpch_gain_figure(
    title: str,
    baseline: str,
    improved: str,
    scale_factors: Sequence[float],
    site_counts: Sequence[int],
) -> GainFigure:
    """Figure 7 (IC vs IC+) or Figure 8 (IC vs IC+M)."""
    queries = {name: QUERIES[int(name[1:])].sql for name in TPCH_QUERY_NAMES}
    figure = GainFigure(title, TPCH_QUERY_NAMES, tuple(site_counts))
    for sites in site_counts:
        harness = ResponseTimeHarness(load_tpch_cluster, queries, scale_factors)
        base = harness.run(PRESETS[baseline](sites))
        ours = ResponseTimeHarness(
            load_tpch_cluster, queries, scale_factors
        ).run(PRESETS[improved](sites))
        for name in TPCH_QUERY_NAMES:
            figure.gains[(name, sites)] = ours.mean_gain_over(
                base, name, scale_factors
            )
    return figure


def ssb_gain_figure(
    scale_factors: Sequence[float], site_counts: Sequence[int]
) -> GainFigure:
    """Figure 11 (SSB, IC vs IC+M; QS2/QS4 excluded)."""
    queries = {qid: SSB_QUERIES[qid].sql for qid in FIGURE11_QUERY_IDS}
    figure = GainFigure(
        "Figure 11: SSB per-query multiplier (IC vs IC+M)",
        list(FIGURE11_QUERY_IDS),
        tuple(site_counts),
    )
    for sites in site_counts:
        base = ResponseTimeHarness(
            load_ssb_cluster, queries, scale_factors
        ).run(PRESETS["IC"](sites))
        ours = ResponseTimeHarness(
            load_ssb_cluster, queries, scale_factors
        ).run(PRESETS["IC+M"](sites))
        for qid in FIGURE11_QUERY_IDS:
            figure.gains[(qid, sites)] = ours.mean_gain_over(
                base, qid, scale_factors
            )
    return figure


def aql_table(
    scale_factor: float,
    site_counts: Sequence[int],
    clients: Sequence[int] = (2, 4, 8),
    duration_seconds: float = 300.0,
) -> AqlTable:
    """The Table 3 artefact at one scale factor."""
    systems = tuple(PRESETS)
    workload = {
        f"Q{qid}": QUERIES[qid].sql
        for qid in ENABLED_QUERY_IDS
        if qid not in IC_FAILING_QUERY_IDS
    }
    table = AqlTable(
        f"Table 3: Average Query Latency (simulated s, SF {scale_factor})",
        tuple(site_counts),
        systems,
        tuple(clients),
    )
    for sites in site_counts:
        for system in systems:
            cluster = load_tpch_cluster(PRESETS[system](sites), scale_factor)
            for count in clients:
                result = run_aql(cluster, workload, count, duration_seconds)
                table.latencies[(sites, system, count)] = (
                    result.average_latency
                )
    return table


def failure_matrix(scale_factor: float = 0.5) -> List[Tuple[str, str, str]]:
    """(query, IC status, IC+ status) rows for the Section 1 matrix."""
    ic = load_tpch_cluster(SystemConfig.ic(4), scale_factor)
    ic_plus = load_tpch_cluster(SystemConfig.ic_plus(4), scale_factor)
    rows = []
    for qid in sorted(QUERIES):
        a = ic.try_sql(QUERIES[qid].sql)
        b = ic_plus.try_sql(QUERIES[qid].sql)
        rows.append((f"Q{qid}", a.status.value, b.status.value))
    return rows
