"""Static-vs-adaptive makespans under skew (the ``midquery`` driver).

Mid-query re-optimization (:mod:`repro.adaptive.midquery`) only pays off
when the optimizer's estimates are wrong, and estimates go wrong under
*skew*: a hot join key makes a uniform-selectivity guess under-estimate
by orders of magnitude.  This bench builds a seeded skewed dataset (a
Zipf-like hot customer receiving most orders), runs a small query set
twice per system variant — once statically, once with
``midquery_reoptimization`` on — and reports, per query:

* both simulated makespans (the adaptive one *includes* the charged
  re-planning ticks and intermediate-shipping units, so an adaptive win
  is a real win);
* how many suffix re-plans fired and whether the plan actually switched;
* the differential evidence: the adaptive rows must be identical to the
  static rows **including order** (every bench query carries an ORDER BY
  over unique keys), and both must match the single-node reference
  executor.

The JSON artefact is versioned (``repro-midquery/v1``) and
:func:`validate_midquery_artefact` is the schema gate tier-1 enforces via
``repro-bench midquery --smoke``: any result divergence, or a run where
the re-optimizer never fired at all, fails validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.core import (
    artefact_dict,
    check_envelope,
    checked_records,
    load_dataset,
    paired_run,
    same_rows,
)
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster

#: Version tag stamped into every midquery artefact.
MIDQUERY_SCHEMA = "repro-midquery/v1"

#: The key most orders hash to (the head of the Zipf-like distribution).
HOT_CUSTOMER = 1

#: The skewed-workload query set.  Every query filters on the hot key —
#: the planner's uniform-selectivity estimate is off by ~skew/(1/distinct)
#: — and orders by unique keys so row-identity checks include order.
MIDQUERY_QUERIES: Dict[str, str] = {
    # The headline scenario: the mis-estimated filtered-orders stream
    # feeds two joins; static plans size the join strategy for ~10 rows.
    "MQ1": (
        "SELECT o.oid, p.pid, c.name, p.amount FROM orders o "
        "JOIN customers c ON o.customer_id = c.id "
        "JOIN payments p ON p.order_id = o.oid "
        f"WHERE o.customer_id = {HOT_CUSTOMER} ORDER BY o.oid, p.pid"
    ),
    # Single join: the re-plan can only fix the join strategy and sort.
    "MQ2": (
        "SELECT o.oid, c.name FROM orders o "
        "JOIN customers c ON o.customer_id = c.id "
        f"WHERE o.customer_id = {HOT_CUSTOMER} ORDER BY o.oid"
    ),
    # Aggregation above the skewed join.
    "MQ3": (
        "SELECT c.region, COUNT(*), SUM(p.amount) FROM orders o "
        "JOIN customers c ON o.customer_id = c.id "
        "JOIN payments p ON p.order_id = o.oid "
        f"WHERE o.customer_id = {HOT_CUSTOMER} "
        "GROUP BY c.region ORDER BY c.region"
    ),
}

#: Queries the ``--smoke`` tier runs (kept to the shapes that re-plan).
SMOKE_QUERY_IDS = ("MQ1", "MQ2")

#: Report properties the artefact carries next to the dataclass fields.
_DERIVED = ("total_replans",)

def load_skewed_cluster(
    config: SystemConfig,
    scale_factor: float = 1.0,
    seed: int = 7,
    hot_fraction: float = 0.9,
) -> IgniteCalciteCluster:
    """A cluster loaded with the seeded skewed star: customers <- orders
    <- payments, with ``hot_fraction`` of orders hitting one customer.

    The statistics see ~200+ distinct customer ids, so the planner
    estimates the hot-key filter at a few rows while it actually passes
    ``hot_fraction`` of the table — the mid-query trigger condition.
    """
    rng = random.Random(seed)
    n_customers = max(50, int(1000 * scale_factor))
    n_orders = max(200, int(2000 * scale_factor))
    n_payments = max(400, int(4000 * scale_factor))
    customers = [(i, f"c{i}", i % 10) for i in range(n_customers)]
    orders = [
        (
            i,
            HOT_CUSTOMER
            if rng.random() < hot_fraction
            else rng.randrange(n_customers),
            i % 100,
        )
        for i in range(n_orders)
    ]
    payments = [
        (i, rng.randrange(n_orders), round(rng.random() * 100, 2))
        for i in range(n_payments)
    ]
    schemas = {
        "customers": TableSchema(
            "customers",
            [
                Column("id", ColumnType.BIGINT),
                Column("name", ColumnType.VARCHAR),
                Column("region", ColumnType.BIGINT),
            ],
            ["id"],
        ),
        "orders": TableSchema(
            "orders",
            [
                Column("oid", ColumnType.BIGINT),
                Column("customer_id", ColumnType.BIGINT),
                Column("item", ColumnType.BIGINT),
            ],
            ["oid"],
        ),
        "payments": TableSchema(
            "payments",
            [
                Column("pid", ColumnType.BIGINT),
                Column("order_id", ColumnType.BIGINT),
                Column("amount", ColumnType.DOUBLE),
            ],
            ["pid"],
        ),
    }
    rows = {"customers": customers, "orders": orders, "payments": payments}
    return load_dataset(config, schemas, rows)


@dataclass
class QueryMidquery:
    """One (system, query) static-vs-adaptive comparison."""

    query: str
    system: str
    rows: int
    static_seconds: float
    adaptive_seconds: float
    speedup: float
    triggers: int
    replans: int
    plan_switches: int
    declined: int
    results_match: bool
    oracle_match: bool


@dataclass
class MidqueryReport:
    """The full artefact for one skewed-workload run."""

    systems: List[str]
    sites: int
    scale_factor: float
    seed: int
    threshold: float
    queries: List[QueryMidquery] = field(default_factory=list)
    skipped: Dict[str, str] = field(default_factory=dict)

    @property
    def total_replans(self) -> int:
        return sum(q.replans for q in self.queries)

    def to_dict(self) -> Dict:
        return artefact_dict(MIDQUERY_SCHEMA, self, _DERIVED)

    def to_text(self) -> str:
        lines = [
            f"midquery: {','.join(self.systems)} x{self.sites} "
            f"sf={self.scale_factor} seed={self.seed} "
            f"threshold={self.threshold}",
            f"{'query':<5} {'system':<5} {'rows':>6} {'static s':>10} "
            f"{'adaptive s':>10} {'speedup':>8} {'replans':>7} "
            f"{'switch':>6}  match",
        ]
        for q in self.queries:
            match = "ok" if q.results_match and q.oracle_match else "FAIL"
            lines.append(
                f"{q.query:<5} {q.system:<5} {q.rows:>6} "
                f"{q.static_seconds:>10.4f} {q.adaptive_seconds:>10.4f} "
                f"{q.speedup:>7.2f}x {q.replans:>7} {q.plan_switches:>6}"
                f"  {match}"
            )
        for key, reason in sorted(self.skipped.items()):
            lines.append(f"{key:<11} skipped: {reason}")
        lines.append(f"total suffix replans: {self.total_replans}")
        return "\n".join(lines)

    def validate(self) -> List[str]:
        return validate_midquery_artefact(self.to_dict())


def run_midquery_bench(
    systems: Sequence[str] = ("IC", "IC+", "IC+M"),
    scale_factor: float = 1.0,
    sites: int = 4,
    seed: int = 7,
    threshold: float = 4.0,
    query_ids: Optional[Sequence[str]] = None,
) -> MidqueryReport:
    """Run the skewed static-vs-adaptive comparison."""
    report = MidqueryReport(
        systems=list(systems),
        sites=sites,
        scale_factor=scale_factor,
        seed=seed,
        threshold=threshold,
    )
    names = tuple(query_ids) if query_ids else tuple(MIDQUERY_QUERIES)
    pairs = paired_run(
        load_skewed_cluster,
        systems,
        sites=sites,
        scale_factor=scale_factor,
        seed=seed,
        treatment=dict(
            midquery_reoptimization=True,
            replan_q_error_threshold=threshold,
        ),
    )
    for pair in pairs:
        for name in names:
            static, adaptive = pair.observe(MIDQUERY_QUERIES[name], oracle=True)
            failure = static.failure or adaptive.failure
            if failure:  # pragma: no cover - preset-dependent
                report.skipped[f"{name}/{pair.system}"] = failure
                continue
            static_s = static.outcome.simulated_seconds
            adaptive_s = adaptive.outcome.simulated_seconds
            report.queries.append(
                QueryMidquery(
                    query=name,
                    system=pair.system,
                    rows=len(static.rows),
                    static_seconds=static_s,
                    adaptive_seconds=adaptive_s,
                    speedup=static_s / adaptive_s if adaptive_s else 0.0,
                    triggers=adaptive.count("midquery.triggers"),
                    replans=adaptive.count("midquery.replans"),
                    plan_switches=adaptive.count("midquery.plan_switches"),
                    declined=adaptive.count("midquery.declined"),
                    # ORDER BY over unique keys: compare rows *in order*.
                    results_match=same_rows(
                        static.rows, adaptive.rows, ordered=True
                    ),
                    oracle_match=adaptive.oracle_match,
                )
            )
    return report


def validate_midquery_artefact(obj: Dict) -> List[str]:
    """Schema-check one midquery artefact dict; returns violations.

    An empty list means the artefact is well-formed ``repro-midquery/v1``
    and differentially clean: the adaptive rows of every query are
    order-identical to the static rows and match the reference executor,
    and at least one suffix re-plan actually fired somewhere (a run that
    never re-optimizes is not evidence the subsystem works).
    """
    problems = check_envelope(obj, MIDQUERY_SCHEMA, MidqueryReport, _DERIVED)
    if problems:
        return problems
    for name, row in checked_records(
        obj, "queries", QueryMidquery, ("query", "system"), problems
    ):
        if not row["results_match"]:
            problems.append(
                f"query {name!r}: adaptive rows differ from static rows"
            )
        if not row["oracle_match"]:
            problems.append(
                f"query {name!r}: rows differ from the reference executor"
            )
        for key in ("static_seconds", "adaptive_seconds"):
            if not (isinstance(row[key], (int, float)) and row[key] > 0):
                problems.append(f"query {name!r}: bad {key} {row[key]!r}")
        for key in ("triggers", "replans", "plan_switches", "declined"):
            if not (isinstance(row[key], int) and row[key] >= 0):
                problems.append(f"query {name!r}: bad {key} {row[key]!r}")
        if row["replans"] > row["triggers"]:
            problems.append(f"query {name!r}: more replans than triggers")
    total = obj["total_replans"]
    if not (isinstance(total, int) and total >= 1):
        problems.append(
            f"total_replans is {total!r}: the re-optimizer never fired"
        )
    return problems
