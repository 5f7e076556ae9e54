"""Estimator accuracy with and without sketch statistics (``sketchbench``).

The sketch registry (:mod:`repro.stats.sketch_registry`) replaces three
histogram-era guesses — 1/NDV equality selectivity, boundary-truncated
distinct counts and the Swami-Schiefer containment assumption — with
Count-Min frequencies, HyperLogLog distinct counts and Fast-AGMS join
inner products.  That only matters where the old guesses go *wrong*, and
they go wrong under skew: a hot join key makes every uniformity
assumption under-estimate by the skew factor.

This bench runs the same seeded query set twice per (bench, system) cell
— once histograms-only (``sketch_statistics=False``, the default), once
with sketches on — across three datasets:

* ``company``: the midquery bench's skewed star (90% of orders hit one
  customer);
* ``tpch``: the mini TPC-H data with ``orders.o_custkey`` re-skewed the
  same way (PK-FK joins are exact under Swami-Schiefer regardless of
  skew, so the wins come from hot-key *filtered* join inputs);
* ``ssb``: the stock Star Schema Benchmark generator (a low-skew control
  cell — sketches must not make anything worse).

Per cell it reports per-operator q-error distributions (p50/p95/max,
overall and joins-only), how many plan choices flipped, and the
differential columns: sketch rows must equal histogram rows **including
order** (every query carries an ORDER BY over unique keys) and both must
match the single-node reference executor.

The JSON artefact is versioned (``repro-sketchbench/v1``) and
:func:`validate_sketchbench_artefact` is the gate tier-1 enforces via
``repro-bench sketchbench --smoke``: any row divergence fails it, as
does a skewed-TPC-H cell whose p95 join q-error does not strictly
improve with sketches on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.core import (
    artefact_dict,
    check_envelope,
    checked_records,
    counter_deltas,
    ordered_match,
    read_counters,
)
from repro.bench.midquery import HOT_CUSTOMER, load_skewed_cluster
from repro.bench.ssb import load_ssb_cluster
from repro.bench.tpch import TPCH_INDEXES, cached_tpch_data, tpch_schemas
from repro.common.config import PRESETS, SystemConfig
from repro.core.cluster import IgniteCalciteCluster
from repro.exec.engine import ExecutionResult
from repro.exec.physical import PhysJoinBase
from repro.obs.metrics import percentile
from repro.verify.differential import oracle_detail

#: Version tag stamped into every sketchbench artefact.
SKETCHBENCH_SCHEMA = "repro-sketchbench/v1"

#: The custkey most re-skewed TPC-H orders point at (exists at every
#: scale factor and is not divisible by 3, so it places orders).
HOT_TPCH_CUSTKEY = 1

#: Fraction of TPC-H orders redirected to the hot customer.
TPCH_HOT_FRACTION = 0.9

#: Query sets per bench.  Every query ends in an ORDER BY over keys that
#: are unique in the output, so the histograms-vs-sketches row comparison
#: can demand identity *including order* even when the plans differ.
SKETCHBENCH_QUERIES: Dict[str, Dict[str, str]] = {
    # The midquery skewed star: the hot-key filter is the known-bad
    # estimate (1/NDV vs 90% of the table) feeding one or two joins.
    "company": {
        "C1": (
            "SELECT o.oid, c.name FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            f"WHERE o.customer_id = {HOT_CUSTOMER} ORDER BY o.oid"
        ),
        "C2": (
            "SELECT o.oid, p.pid, c.name, p.amount FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            "JOIN payments p ON p.order_id = o.oid "
            f"WHERE o.customer_id = {HOT_CUSTOMER} ORDER BY o.oid, p.pid"
        ),
        # IN-list over a 100-distinct column: histograms price it at
        # len(list)/NDV; Count-Min prices each member by frequency.
        "C3": (
            "SELECT o.oid, c.name FROM orders o "
            "JOIN customers c ON o.customer_id = c.id "
            "WHERE o.item IN (0, 1, 2, 3, 4) ORDER BY o.oid"
        ),
    },
    # Re-skewed TPC-H: the hot-custkey filter feeds PK-FK joins whose
    # *inputs* the histogram path under-estimates by the skew factor.
    "tpch": {
        "T1": (
            "SELECT o.o_orderkey, c.c_name FROM orders o "
            "JOIN customer c ON o.o_custkey = c.c_custkey "
            f"WHERE o.o_custkey = {HOT_TPCH_CUSTKEY} ORDER BY o.o_orderkey"
        ),
        "T2": (
            "SELECT o.o_orderkey, l.l_linenumber, l.l_quantity "
            "FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            f"WHERE o.o_custkey = {HOT_TPCH_CUSTKEY} "
            "ORDER BY o.o_orderkey, l.l_linenumber"
        ),
        "T3": (
            "SELECT c.c_name, COUNT(*), SUM(l.l_extendedprice) "
            "FROM customer c "
            "JOIN orders o ON o.o_custkey = c.c_custkey "
            "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
            f"WHERE o.o_custkey = {HOT_TPCH_CUSTKEY} "
            "GROUP BY c.c_name ORDER BY c.c_name"
        ),
    },
    # Stock SSB: the low-skew control — estimates are already decent, so
    # sketches must hold the line rather than win.
    "ssb": {
        "S1": (
            "SELECT c.c_nation, SUM(lo.lo_revenue) FROM lineorder lo "
            "JOIN customer c ON lo.lo_custkey = c.c_custkey "
            "WHERE c.c_region = 'ASIA' "
            "GROUP BY c.c_nation ORDER BY c.c_nation"
        ),
        "S2": (
            "SELECT s.s_city, COUNT(*) FROM lineorder lo "
            "JOIN supplier s ON lo.lo_suppkey = s.s_suppkey "
            "WHERE s.s_region = 'AMERICA' "
            "GROUP BY s.s_city ORDER BY s.s_city"
        ),
    },
}

#: Cells / queries the ``--smoke`` tier runs.  The skewed TPC-H cell must
#: be present: the validator demands its p95 join q-error improvement.
SMOKE_BENCHES = ("company", "tpch")
SMOKE_QUERY_IDS = ("C1", "T1", "T2")

#: Sketch-registry counters sampled around each cell.
_COUNTERS = (
    "sketch.table_builds",
    "sketch.seam_refreshes",
    "sketch.operator_hits",
)

#: Report properties the artefact carries next to the dataclass fields.
_DERIVED = ("total_plan_flips", "tpch_p95_join_improved")


def load_skewed_tpch_cluster(
    config: SystemConfig,
    scale_factor: float,
    seed: int = 7,
    hot_fraction: float = TPCH_HOT_FRACTION,
) -> IgniteCalciteCluster:
    """Mini TPC-H with ``orders.o_custkey`` re-skewed to one hot key.

    The generated tables are shared (``cached_tpch_data``); only the
    orders rows are rewritten, with a seeded RNG, before load.  The
    statistics still see the full custkey NDV, so the histogram path
    prices the hot-key filter at ``rows/NDV`` while it actually passes
    ``hot_fraction`` of the table — exactly the estimate the Count-Min
    sketch corrects.
    """
    data = cached_tpch_data(scale_factor, seed)
    rng = random.Random(seed * 7919 + 13)
    orders = [
        row[:1] + (HOT_TPCH_CUSTKEY,) + row[2:]
        if rng.random() < hot_fraction
        else row
        for row in data["orders"]
    ]
    cluster = IgniteCalciteCluster(config)
    for name, schema in tpch_schemas().items():
        cluster.create_table(schema, orders if name == "orders" else data[name])
    for table, index_name, columns in TPCH_INDEXES:
        cluster.create_index(table, index_name, columns)
    return cluster


LOADERS = {
    "company": load_skewed_cluster,
    "tpch": load_skewed_tpch_cluster,
    "ssb": load_ssb_cluster,
}


def _operator_q_errors(result: ExecutionResult) -> List[Tuple[bool, float]]:
    """(is_join, q_error) per executed operator with a recorded actual
    (broadcast operators excluded, see ``ExecutionResult.q_errors``)."""
    return [(isinstance(op, PhysJoinBase), q) for op, q in result.q_errors()]


def _q_error_percentile(values: Sequence[float], q: float) -> float:
    """Rounded nearest-rank percentile; 1.0 (the perfect q-error) when
    no operator contributed."""
    return round(percentile(values, q), 4) if values else 1.0


def _distribution(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "p50": _q_error_percentile(values, 50.0),
        "p95": _q_error_percentile(values, 95.0),
        "max": round(max(values), 4) if values else 1.0,
    }


@dataclass
class QuerySketchbench:
    """One (bench, system, query) histograms-vs-sketches comparison."""

    bench: str
    query: str
    system: str
    rows: int
    plan_flip: bool
    histogram_max_q_error: float
    sketch_max_q_error: float
    results_match: bool
    oracle_match: bool


@dataclass
class CellSketchbench:
    """One (bench, system) cell: pooled q-error distributions."""

    bench: str
    system: str
    queries: int
    plan_flips: int
    histogram_q_errors: Dict[str, Dict[str, float]]
    sketch_q_errors: Dict[str, Dict[str, float]]
    table_builds: int
    seam_refreshes: int
    operator_hits: int


@dataclass
class SketchbenchReport:
    """The full artefact for one estimator-accuracy run."""

    systems: List[str]
    benches: List[str]
    sites: int
    scale_factor: float
    seed: int
    queries: List[QuerySketchbench] = field(default_factory=list)
    cells: List[CellSketchbench] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)
    #: Join q-errors pooled over every skewed-TPC-H cell — the headline
    #: acceptance number: sketches must strictly beat histograms here.
    tpch_join_p95_histograms: float = 1.0
    tpch_join_p95_sketches: float = 1.0

    @property
    def total_plan_flips(self) -> int:
        return sum(1 for q in self.queries if q.plan_flip)

    @property
    def tpch_p95_join_improved(self) -> bool:
        return self.tpch_join_p95_sketches < self.tpch_join_p95_histograms

    def to_dict(self) -> Dict:
        return artefact_dict(SKETCHBENCH_SCHEMA, self, _DERIVED)

    def to_text(self) -> str:
        lines = [
            f"sketchbench: {','.join(self.systems)} x{self.sites} "
            f"benches={','.join(self.benches)} sf={self.scale_factor} "
            f"seed={self.seed}",
            f"{'bench':<8} {'system':<5} {'qrys':>4} {'flips':>5} "
            f"{'hist p95':>9} {'hist max':>9} {'skch p95':>9} "
            f"{'skch max':>9}  (join q-errors)",
        ]
        for c in self.cells:
            hist = c.histogram_q_errors["join"]
            skch = c.sketch_q_errors["join"]
            lines.append(
                f"{c.bench:<8} {c.system:<5} {c.queries:>4} "
                f"{c.plan_flips:>5} {hist['p95']:>9.2f} {hist['max']:>9.2f} "
                f"{skch['p95']:>9.2f} {skch['max']:>9.2f}"
            )
        for q in self.queries:
            if not (q.results_match and q.oracle_match):
                lines.append(
                    f"{q.query}/{q.system}: DIFFERENTIAL FAILURE "
                    f"(results_match={q.results_match}, "
                    f"oracle_match={q.oracle_match})"
                )
        for key, reason in sorted(self.skipped.items()):
            lines.append(f"{key:<11} skipped: {reason}")
        lines.append(
            f"skewed-TPC-H join q-error p95: "
            f"{self.tpch_join_p95_histograms:.2f} (histograms) -> "
            f"{self.tpch_join_p95_sketches:.2f} (sketches); "
            f"plan flips: {self.total_plan_flips}"
        )
        return "\n".join(lines)

    def validate(self) -> List[str]:
        return validate_sketchbench_artefact(self.to_dict())


def run_sketchbench(
    systems: Sequence[str] = ("IC", "IC+", "IC+M"),
    benches: Sequence[str] = ("company", "tpch", "ssb"),
    scale_factor: float = 0.05,
    sites: int = 4,
    seed: int = 7,
    query_ids: Optional[Sequence[str]] = None,
) -> SketchbenchReport:
    """Run the histograms-vs-sketches estimator-accuracy comparison."""
    report = SketchbenchReport(
        systems=list(systems),
        benches=list(benches),
        sites=sites,
        scale_factor=scale_factor,
        seed=seed,
    )
    wanted = {q.upper() for q in query_ids} if query_ids else None
    tpch_hist_joins: List[float] = []
    tpch_sketch_joins: List[float] = []
    for bench in benches:
        loader = LOADERS[bench]
        names = [
            name
            for name in SKETCHBENCH_QUERIES[bench]
            if wanted is None or name in wanted
        ]
        if not names:
            continue
        for system in systems:
            base = PRESETS[system](sites)
            before = read_counters(_COUNTERS)
            try:
                hist_cluster = loader(base, scale_factor, seed)
                sketch_cluster = loader(
                    base.with_(sketch_statistics=True), scale_factor, seed
                )
            except Exception as exc:  # pragma: no cover - preset-dependent
                report.skipped[f"{bench}/{system}"] = (
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            hist_all: List[float] = []
            hist_join: List[float] = []
            sketch_all: List[float] = []
            sketch_join: List[float] = []
            plan_flips = 0
            ran = 0
            for name in names:
                sql = SKETCHBENCH_QUERIES[bench][name]
                key = f"{name}/{system}"
                try:
                    hist_digest = hist_cluster.plan_sql(sql).digest()
                    sketch_digest = sketch_cluster.plan_sql(sql).digest()
                    hist_result = hist_cluster.sql(sql)
                    sketch_result = sketch_cluster.sql(sql)
                    oracle_diff = oracle_detail(
                        sketch_cluster.store,
                        sketch_cluster.parse_to_logical(sql),
                        sketch_result.rows,
                    )
                except Exception as exc:  # pragma: no cover
                    report.skipped[key] = f"{type(exc).__name__}: {exc}"
                    continue
                ran += 1
                flip = hist_digest != sketch_digest
                plan_flips += int(flip)
                h_ops = _operator_q_errors(hist_result)
                s_ops = _operator_q_errors(sketch_result)
                hist_all.extend(q for _, q in h_ops)
                sketch_all.extend(q for _, q in s_ops)
                hist_join.extend(q for is_join, q in h_ops if is_join)
                sketch_join.extend(q for is_join, q in s_ops if is_join)
                report.queries.append(
                    QuerySketchbench(
                        bench=bench,
                        query=name,
                        system=system,
                        rows=len(hist_result.rows),
                        plan_flip=flip,
                        histogram_max_q_error=round(
                            max((q for _, q in h_ops), default=1.0), 4
                        ),
                        sketch_max_q_error=round(
                            max((q for _, q in s_ops), default=1.0), 4
                        ),
                        # ORDER BY over unique keys: compare *in order*.
                        results_match=ordered_match(
                            hist_result.rows, sketch_result.rows
                        ),
                        oracle_match=not oracle_diff,
                    )
                )
            if not ran:
                continue
            deltas = counter_deltas(before)
            report.cells.append(
                CellSketchbench(
                    bench=bench,
                    system=system,
                    queries=ran,
                    plan_flips=plan_flips,
                    histogram_q_errors={
                        "all": _distribution(hist_all),
                        "join": _distribution(hist_join),
                    },
                    sketch_q_errors={
                        "all": _distribution(sketch_all),
                        "join": _distribution(sketch_join),
                    },
                    table_builds=deltas["sketch.table_builds"],
                    seam_refreshes=deltas["sketch.seam_refreshes"],
                    operator_hits=deltas["sketch.operator_hits"],
                )
            )
            if bench == "tpch":
                tpch_hist_joins.extend(hist_join)
                tpch_sketch_joins.extend(sketch_join)
    report.tpch_join_p95_histograms = _q_error_percentile(
        tpch_hist_joins, 95.0
    )
    report.tpch_join_p95_sketches = _q_error_percentile(
        tpch_sketch_joins, 95.0
    )
    return report


def validate_sketchbench_artefact(obj: Dict) -> List[str]:
    """Schema-check one sketchbench artefact dict; returns violations.

    An empty list means the artefact is well-formed
    ``repro-sketchbench/v1`` and differentially clean: every query's
    sketch rows are order-identical to the histogram rows and match the
    reference executor, every q-error is >= 1, at least one plan choice
    actually flipped (a run where sketches never change a decision is
    not evidence they are wired into the planner), and — when the
    skewed-TPC-H cell was run — its pooled p95 join q-error strictly
    improved over histograms-only.
    """
    problems = check_envelope(
        obj, SKETCHBENCH_SCHEMA, SketchbenchReport, _DERIVED
    )
    if problems:
        return problems
    for name, row in checked_records(
        obj, "queries", QuerySketchbench, ("query", "system"), problems
    ):
        if not row["results_match"]:
            problems.append(
                f"query {name!r}: sketch rows differ from histogram rows"
            )
        if not row["oracle_match"]:
            problems.append(
                f"query {name!r}: rows differ from the reference executor"
            )
        for key in ("histogram_max_q_error", "sketch_max_q_error"):
            value = row[key]
            if not (isinstance(value, (int, float)) and value >= 1.0):
                problems.append(f"query {name!r}: bad {key} {value!r}")
    ran_tpch = False
    for name, cell in checked_records(
        obj, "cells", CellSketchbench, ("bench", "system"), problems
    ):
        ran_tpch = ran_tpch or cell["bench"] == "tpch"
        for side in ("histogram_q_errors", "sketch_q_errors"):
            dists = cell[side]
            for scope in ("all", "join"):
                dist = dists.get(scope)
                if not isinstance(dist, dict):
                    problems.append(f"cell {name!r}: missing {side}[{scope}]")
                    continue
                for stat in ("count", "p50", "p95", "max"):
                    if stat not in dist:
                        problems.append(
                            f"cell {name!r}: {side}[{scope}] missing {stat!r}"
                        )
    flips = obj["total_plan_flips"]
    if not (isinstance(flips, int) and flips >= 1):
        problems.append(
            f"total_plan_flips is {flips!r}: sketches never changed a plan"
        )
    if ran_tpch and not obj["tpch_p95_join_improved"]:
        problems.append(
            "skewed-TPC-H p95 join q-error did not strictly improve: "
            f"{obj['tpch_join_p95_histograms']!r} (histograms) vs "
            f"{obj['tpch_join_p95_sketches']!r} (sketches)"
        )
    return problems
