"""The paper's Section 6 artefacts: each computed once and rendered once.

:class:`PaperRun` is the single producer of the failure matrix, Figures
7-11 and Table 3.  ``repro-bench figure*``, ``benchmarks/`` and
``examples/`` are all readers: they ask a run for an artefact record and
print its ``to_text()`` (the CLI stdout pinned under ``tests/golden``) or
``to_markdown()``.  The workloads and the system list the experiments
share are stated here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    ResponseTimeResult,
    measure_response_times,
    run_aql,
)
from repro.bench.ssb import FIGURE11_QUERY_IDS, SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import (
    ENABLED_QUERY_IDS,
    IC_FAILING_QUERY_IDS,
    QUERIES,
    load_tpch_cluster,
)
from repro.common.config import PRESETS

#: The response-time workload of Figures 7-10.
TPCH_WORKLOAD: Dict[str, str] = {
    f"Q{qid}": QUERIES[qid].sql for qid in ENABLED_QUERY_IDS
}

#: Table 3's workload: the queries stock IC cannot run are disabled for
#: every system "to ensure a fair comparison" (Section 6.3).
AQL_WORKLOAD: Dict[str, str] = {
    f"Q{qid}": QUERIES[qid].sql
    for qid in ENABLED_QUERY_IDS
    if qid not in IC_FAILING_QUERY_IDS
}

#: bench -> (cluster loader, response-time workload).
_BENCHES = {
    "tpch": (load_tpch_cluster, TPCH_WORKLOAD),
    "ssb": (
        load_ssb_cluster,
        {qid: SSB_QUERIES[qid].sql for qid in FIGURE11_QUERY_IDS},
    ),
}

#: (label, cells); a table's first row is its header.
Row = Tuple[object, Sequence[str]]


def _text_table(title: str, width: int, rows: Iterable[Row]) -> str:
    """``title``, then one ``label  cell  cell`` line per row."""
    return "\n".join([title] + [
        f"{label:<{width}} " + "  ".join(cells) for label, cells in rows
    ])


def _markdown_table(title: str, rows: Sequence[Row]) -> str:
    """A ``###`` heading and a pipe table."""
    lines = [
        f"| {label} | " + " | ".join(cells) + " |" for label, cells in rows
    ]
    lines.insert(1, "|---" * (len(rows[0][1]) + 1) + "|")
    return "\n".join([f"### {title}", ""] + lines)


@dataclass
class GainFigure:
    """A Figure 7/8/11-style artefact: per-query gain per site count."""

    title: str
    queries: Sequence[str] = ()
    site_counts: Tuple[int, ...] = ()
    #: (query, sites) -> gain multiplier, or None when the baseline failed.
    gains: Dict[Tuple[str, int], Optional[float]] = field(default_factory=dict)
    #: The compared systems, when the title does not name them.
    versus: str = ""
    #: Closing line of the text rendering.
    footnote: str = ""

    def _rows(self, column: str, missing: str, cell: str) -> List[Row]:
        rows = [("query", [column.format(s) for s in self.site_counts])]
        for query in self.queries:
            gains = [self.gains.get((query, s)) for s in self.site_counts]
            rows.append((
                query,
                [missing if g is None else cell.format(g) for g in gains],
            ))
        return rows

    def to_text(self) -> str:
        title = f"{self.title}, {self.versus}" if self.versus else self.title
        rows = self._rows("{}-sites", "  n/a  ", "{:6.2f}x")
        text = _text_table(title, 6, rows)
        return f"{text}\n{self.footnote}" if self.footnote else text

    def to_markdown(self) -> str:
        title = f"{self.title} ({self.versus})" if self.versus else self.title
        return _markdown_table(title, self._rows("{} sites", "n/a", "{:.2f}x"))


class IncrementFigure(GainFigure):
    """Figures 9/10: IC+M's gain over IC+ read as a percent change, one
    text block per site count (Figure 9 is the 4-site cluster)."""

    def change(self, query: str, sites: int) -> Optional[float]:
        gain = self.gains[(query, sites)]
        return None if gain is None else (gain - 1.0) * 100.0

    def block(self, sites: int) -> str:
        changes = [(q, self.change(q, sites)) for q in self.queries]
        return _text_table(
            f"Figure {'9' if sites == 4 else '10'}: "
            f"IC+ vs IC+M incremental change ({sites} sites)",
            6,
            [
                (q, ["   n/a" if c is None else f"{c:+6.1f}%"])
                for q, c in changes
            ],
        )

    def to_text(self) -> str:
        return "\n\n".join(self.block(s) for s in self.site_counts) + "\n"


@dataclass
class AqlTable:
    """The Table 3 artefact."""

    scale_factor: float
    site_counts: Tuple[int, ...]
    systems: Tuple[str, ...]
    clients: Tuple[int, ...]
    #: (sites, system, clients) -> mean latency (simulated seconds).
    latencies: Dict[Tuple[int, str, int], float] = field(default_factory=dict)

    def _title(self, unit: str) -> str:
        sf = self.scale_factor
        return f"Table 3: Average Query Latency (simulated {unit}, SF {sf})"

    def _rows(self, cell: str) -> List[Row]:
        columns = [(n, s) for n in self.site_counts for s in self.systems]
        rows: List[Row] = [("clients", [f"{s}@{n}" for n, s in columns])]
        for clients in self.clients:
            rows.append((clients, [
                cell.format(self.latencies[(n, s, clients)])
                for n, s in columns
            ]))
        return rows

    def to_text(self) -> str:
        return _text_table(self._title("seconds"), 8, self._rows("{:7.3f}"))

    def to_markdown(self) -> str:
        return _markdown_table(self._title("s"), self._rows("{:.3f}"))


@dataclass
class FailureMatrix:
    """The Section 1 matrix: which TPC-H queries stock IC cannot run."""

    scale_factor: float
    #: (query, IC status, IC+ status)
    rows: List[Tuple[str, str, str]] = field(default_factory=list)

    def _rows(self, pad: int) -> List[Row]:
        table = [("query", "IC", "IC+")] + self.rows
        return [(q, [f"{ic:<{pad}}", ic_plus]) for q, ic, ic_plus in table]

    def to_text(self) -> str:
        sf = self.scale_factor
        title = f"Baseline failure matrix at SF {sf} (Section 1 / Section 6)"
        return _text_table(title, 6, self._rows(16))

    def to_markdown(self) -> str:
        return _markdown_table("Baseline failure matrix", self._rows(0))


class PaperRun:
    """One invocation's experiments over ``(scale_factors, site_counts)``.

    Each ``(bench, system, sites)`` response-time matrix is measured the
    first time an artefact needs it and kept for the life of the run, so
    Figures 7, 8 and 9/10 asked of one run load and execute every cell
    once.  Nothing outlives the object.  Table 3 and the failure matrix
    are single-scale-factor artefacts: the run's first unless told.
    """

    def __init__(
        self, scale_factors: Sequence[float], site_counts: Sequence[int]
    ):
        self.scale_factors = tuple(scale_factors)
        self.site_counts = tuple(site_counts)
        self._matrices: Dict[Tuple[str, str, int], ResponseTimeResult] = {}

    def response_times(
        self, bench: str, system: str, sites: int
    ) -> ResponseTimeResult:
        key = (bench, system, sites)
        if key not in self._matrices:
            loader, queries = _BENCHES[bench]
            self._matrices[key] = measure_response_times(
                loader, queries, PRESETS[system](sites), self.scale_factors
            )
        return self._matrices[key]

    def _gains(
        self, bench: str, baseline: str, improved: str, figure: GainFigure
    ) -> GainFigure:
        """Fill ``figure`` with the mean gain of ``improved`` over
        ``baseline`` across the run's scale factors."""
        figure.queries = list(_BENCHES[bench][1])
        figure.site_counts = self.site_counts
        for sites in self.site_counts:
            base = self.response_times(bench, baseline, sites)
            ours = self.response_times(bench, improved, sites)
            for query in figure.queries:
                figure.gains[(query, sites)] = ours.mean_gain_over(
                    base, query, self.scale_factors
                )
        return figure

    def figure7(self) -> GainFigure:
        figure = GainFigure("Figure 7: IC+ speedup over IC")
        return self._gains("tpch", "IC", "IC+", figure)

    def figure8(self) -> GainFigure:
        figure = GainFigure("Figure 8: IC+M speedup over IC")
        return self._gains("tpch", "IC", "IC+M", figure)

    def figure9(self) -> IncrementFigure:
        figure = IncrementFigure("Figures 9/10: IC+M speedup over IC+")
        return self._gains("tpch", "IC+", "IC+M", figure)

    def figure11(self) -> GainFigure:
        figure = GainFigure(
            "Figure 11: SSB per-query multiplier",
            versus="IC vs IC+M",
            footnote="(QS2 and QS4 excluded, Section 6.4)",
        )
        return self._gains("ssb", "IC", "IC+M", figure)

    def table3(
        self,
        clients: Sequence[int] = (2, 4, 8),
        duration_seconds: float = 300.0,
        scale_factor: Optional[float] = None,
    ) -> AqlTable:
        sf = scale_factor or self.scale_factors[0]
        table = AqlTable(sf, self.site_counts, tuple(PRESETS), tuple(clients))
        for sites in self.site_counts:
            for system in table.systems:
                cluster = load_tpch_cluster(PRESETS[system](sites), sf)
                for count in table.clients:
                    table.latencies[(sites, system, count)] = run_aql(
                        cluster, AQL_WORKLOAD, count, duration_seconds
                    ).average_latency
        return table

    def failures(self, scale_factor: Optional[float] = None) -> FailureMatrix:
        """The failure matrix, on the run's first site count."""
        sf, sites = scale_factor or self.scale_factors[0], self.site_counts[0]
        ic = load_tpch_cluster(PRESETS["IC"](sites), sf)
        ic_plus = load_tpch_cluster(PRESETS["IC+"](sites), sf)
        matrix = FailureMatrix(sf)
        for qid in sorted(QUERIES):
            sql = QUERIES[qid].sql
            matrix.rows.append((
                f"Q{qid}",
                ic.try_sql(sql).status.value,
                ic_plus.try_sql(sql).status.value,
            ))
        return matrix
