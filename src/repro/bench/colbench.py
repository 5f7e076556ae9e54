"""Row-vs-columnar execution microbenchmark (the ``colbench`` driver).

Every other bench in this package reports *simulated* time from the work
unit cost model, which by design is identical across execution backends.
This one measures the thing the columnar backend actually changes:
interpreter wall-clock.  For each TPC-H query it

1. plans once per backend (planning is backend-independent and its cost
   would otherwise drown the interpreter; the adaptive plan cache defaults
   off, so timing ``cluster.sql`` would mostly time the planner),
2. runs one warm-up execution per backend (populating the columnar scan
   and index caches, as any resident server would), and
3. times ``repeats`` measured executions, keeping the best.

Each per-query record also carries the differential evidence: sorted
result rows must be identical across backends, and the simulated
makespans must be *bit-identical* (the columnar backend charges the row
cost model on the same row counts).  The JSON artefact is versioned
(``repro-colbench/v1``) and :func:`validate_colbench_artefact` is the
schema gate tier-1 enforces via ``repro-bench colbench --smoke``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.core import (
    artefact_dict,
    check_envelope,
    checked_records,
    sorted_rows,
)
from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import ENABLED_QUERY_IDS, QUERIES
from repro.common.config import PRESETS

#: Version tag stamped into every colbench artefact.
COLBENCH_SCHEMA = "repro-colbench/v1"

#: Queries the ``--smoke`` tier used by CI runs (small, fast, still
#: covering scan/filter/join/aggregate/sort shapes).
SMOKE_QUERY_IDS = (1, 3, 6)

#: Report properties the artefact carries next to the dataclass fields.
_DERIVED = ("geomean_speedup",)


@dataclass
class QueryColbench:
    """One query's row-vs-columnar wall-clock comparison."""

    query: str
    rows: int
    row_seconds: float
    columnar_seconds: float
    speedup: float
    simulated_seconds: float
    results_match: bool
    makespans_match: bool


@dataclass
class ColbenchReport:
    """The full artefact for one (system, sites, scale factor) run."""

    system: str
    sites: int
    scale_factor: float
    repeats: int
    queries: List[QueryColbench] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def geomean_speedup(self) -> Optional[float]:
        ratios = [q.speedup for q in self.queries if q.speedup > 0]
        if not ratios:
            return None
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def to_dict(self) -> Dict:
        return artefact_dict(COLBENCH_SCHEMA, self, _DERIVED)

    def to_text(self) -> str:
        lines = [
            f"colbench: {self.system} x{self.sites} sf={self.scale_factor} "
            f"(best of {self.repeats})",
            f"{'query':<6} {'rows':>7} {'row ms':>9} {'col ms':>9} "
            f"{'speedup':>8}  match",
        ]
        for q in self.queries:
            match = "ok" if q.results_match and q.makespans_match else "FAIL"
            lines.append(
                f"{q.query:<6} {q.rows:>7} {q.row_seconds * 1e3:>9.2f} "
                f"{q.columnar_seconds * 1e3:>9.2f} {q.speedup:>7.2f}x  {match}"
            )
        for query, reason in sorted(self.skipped.items()):
            lines.append(f"{query:<6} skipped: {reason}")
        geo = self.geomean_speedup
        lines.append(
            "geomean speedup: "
            + (f"{geo:.2f}x" if geo is not None else "n/a")
        )
        return "\n".join(lines)

    def validate(self) -> List[str]:
        return validate_colbench_artefact(self.to_dict())


def _best_time(cluster, plan, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        cluster.execute_plan(plan)
        best = min(best, time.perf_counter() - start)
    return best


def run_colbench(
    system: str = "IC+",
    scale_factor: float = 1.0,
    sites: int = 4,
    repeats: int = 3,
    query_ids: Optional[Sequence[int]] = None,
    seed: int = 7,
) -> ColbenchReport:
    """Run the row-vs-columnar comparison over the TPC-H query set."""
    base = PRESETS[system](sites)
    row_cluster = load_tpch_cluster(
        base.with_(execution_backend="row"), scale_factor, seed=seed
    )
    col_cluster = load_tpch_cluster(
        base.with_(execution_backend="columnar"), scale_factor, seed=seed
    )
    report = ColbenchReport(
        system=system, sites=sites, scale_factor=scale_factor, repeats=repeats
    )
    ids = tuple(query_ids) if query_ids is not None else ENABLED_QUERY_IDS
    for qid in ids:
        name = f"Q{qid}"
        sql = QUERIES[qid].sql
        try:
            row_plan = row_cluster.plan_sql(sql)
            col_plan = col_cluster.plan_sql(sql)
            # Warm-up: JIT-free Python, but this populates the columnar
            # partition/scan/index caches and any lazy imports.
            row_result = row_cluster.execute_plan(row_plan)
            col_result = col_cluster.execute_plan(col_plan)
        except Exception as exc:  # pragma: no cover - preset-dependent
            report.skipped[name] = f"{type(exc).__name__}: {exc}"
            continue
        row_seconds = _best_time(row_cluster, row_plan, repeats)
        col_seconds = _best_time(col_cluster, col_plan, repeats)
        report.queries.append(
            QueryColbench(
                query=name,
                rows=len(row_result.rows),
                row_seconds=row_seconds,
                columnar_seconds=col_seconds,
                speedup=row_seconds / col_seconds if col_seconds else 0.0,
                simulated_seconds=row_result.simulated_seconds,
                results_match=(
                    sorted_rows(row_result.rows)
                    == sorted_rows(col_result.rows)
                ),
                makespans_match=(
                    row_result.simulated_seconds
                    == col_result.simulated_seconds
                ),
            )
        )
    return report


def validate_colbench_artefact(obj: Dict) -> List[str]:
    """Schema-check one colbench artefact dict; returns violations.

    An empty list means the artefact is well-formed ``repro-colbench/v1``
    *and* differentially clean: every query row carries matching results
    and bit-identical makespans across the two backends.
    """
    problems = check_envelope(obj, COLBENCH_SCHEMA, ColbenchReport, _DERIVED)
    if problems:
        return problems
    for name, row in checked_records(
        obj, "queries", QueryColbench, ("query",), problems
    ):
        if not row["results_match"]:
            problems.append(f"query {name!r}: backend results differ")
        if not row["makespans_match"]:
            problems.append(f"query {name!r}: simulated makespans differ")
        for key in ("row_seconds", "columnar_seconds"):
            if not (isinstance(row[key], (int, float)) and row[key] >= 0):
                problems.append(f"query {name!r}: bad {key} {row[key]!r}")
        if not (isinstance(row["speedup"], (int, float)) and row["speedup"] > 0):
            problems.append(f"query {name!r}: bad speedup {row['speedup']!r}")
    geo = obj["geomean_speedup"]
    if geo is not None and not (isinstance(geo, (int, float)) and geo > 0):
        problems.append(f"bad geomean_speedup {geo!r}")
    return problems
