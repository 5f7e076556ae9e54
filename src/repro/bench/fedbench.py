"""Cross-source federation benchmark (the ``fedbench`` driver).

The storage-adapter seam exists so one query can read tables living on
different backends; this bench is its end-to-end proof.  A seeded company
star schema is spread over all three built-in adapters — ``emp`` on the
native row store, ``sales`` on the columnar file adapter, ``dept``
(replicated) behind the simulated remote catalog — and a fixed query set
of cross-source joins and aggregates (every query carries a total ORDER
BY) runs through every (query, system, backend) cell:

* **differential**: each cell's rows must agree with the reference
  executor evaluating the same logical plan — as a multiset and in the
  total ORDER BY (``verify.differential.oracle_detail``);
* **pushdown evidence**: the adapter scan metrics (``adapter.rows_scanned``
  vs ``adapter.rows_out``) must show work absorbed at the source, and the
  scanned counts must reconcile with the per-operator ``rows_in`` the
  engine's FragmentStats recorded for the pushed scans;
* **plan flip**: at least one query must choose a different plan on the
  federated layout than on an all-native copy of the same data — the
  demonstration that per-adapter cost constants steer IC/IC+/IC+M;
* **chaos**: one federated query replays under an injected site failure
  and must still produce reference-identical rows.

The JSON artefact is versioned (``repro-fedbench/v1``) and
:func:`validate_fedbench_artefact` is the schema gate tier-1 enforces via
``repro-bench fedbench --smoke``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.core import (
    Observation,
    artefact_dict,
    check_envelope,
    check_record,
    checked_records,
    load_dataset,
    paired_run,
)
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.core.cluster import IgniteCalciteCluster
from repro.exec.physical import PhysTableScan
from repro.faults.chaos import run_chaos
from repro.faults.injector import parse_fault

#: Version tag stamped into every fedbench artefact.
FEDBENCH_SCHEMA = "repro-fedbench/v1"

#: Which adapter each table lives on (the federated layout under test).
TABLE_ADAPTERS = {"emp": "native", "sales": "columnfile", "dept": "remote"}

#: The fedbench query set.  Every query ends in a total ORDER BY so the
#: differential comparison is order-sensitive, and together they cover:
#: native x columnfile joins, all-three-source joins, remote project and
#: filter pushdown, columnfile zone-map ranges and DISTINCT aggregates.
FEDBENCH_QUERIES: Dict[str, str] = {
    "FB1": (
        "select e.name, s.sale_id, s.amount from emp e "
        "join sales s on e.emp_id = s.emp_id where s.amount > 2500 "
        "order by s.amount desc, s.sale_id"
    ),
    "FB2": (
        "select d.dept_name, count(*) cnt, sum(s.amount) total from emp e "
        "join dept d on e.dept_id = d.dept_id "
        "join sales s on s.emp_id = e.emp_id "
        "group by d.dept_name order by d.dept_name"
    ),
    "FB3": "select dept_name from dept order by dept_name",
    "FB4": (
        "select sale_id, amount from sales "
        "where sale_id between 40 and 160 order by sale_id"
    ),
    "FB5": (
        "select s.region, count(distinct e.dept_id) depts from sales s "
        "join emp e on s.emp_id = e.emp_id "
        "group by s.region order by s.region"
    ),
    "FB6": (
        "select dept_name, budget from dept where budget > 30000 "
        "order by dept_name"
    ),
}

#: The ``--smoke`` slice: one join cell, one remote-pushdown cell and the
#: zone-map range — small but still crossing all three adapters.
SMOKE_QUERY_IDS = ("FB1", "FB3", "FB4")

#: Queries whose plan must flip between the federated and all-native
#: layouts (``dept`` is replicated, so the flip comes from the remote
#: adapter's ``AdapterCosts``, not from where its rows live).
FLIP_QUERY_IDS = ("FB1", "FB2", "FB6")


# ---------------------------------------------------------------------------
# Data set
# ---------------------------------------------------------------------------


def _company_rows(
    scale_factor: float, seed: int
) -> Dict[str, List[Tuple]]:
    """The seeded company star: same generator family as the test helpers'
    company store, scaled by ``scale_factor`` (>= a useful floor)."""
    rng = random.Random(seed)
    departments = 8
    employees = max(24, int(120 * scale_factor * 20))
    sales = max(60, int(500 * scale_factor * 20))
    dept_rows = [
        (d, f"dept{d}", round(rng.uniform(1e4, 9e4), 2))
        for d in range(1, departments + 1)
    ]
    emp_rows = [
        (
            e,
            rng.randrange(1, departments + 1),
            f"emp{e}",
            round(rng.uniform(3e4, 2e5), 2),
            f"{rng.randrange(1990, 2024)}-{rng.randrange(1, 13):02d}-15",
        )
        for e in range(1, employees + 1)
    ]
    sales_rows = [
        (
            s,
            rng.randrange(1, employees + 1),
            round(rng.uniform(10, 5000), 2),
            rng.choice(["north", "south", "east", "west"]),
        )
        for s in range(1, sales + 1)
    ]
    return {"dept": dept_rows, "emp": emp_rows, "sales": sales_rows}


def _schemas(adapters: Dict[str, str]) -> Dict[str, TableSchema]:
    return {
        "dept": TableSchema(
            "dept",
            [
                Column("dept_id", ColumnType.INTEGER),
                Column("dept_name", ColumnType.VARCHAR),
                Column("budget", ColumnType.DOUBLE),
            ],
            ["dept_id"],
            replicated=True,
            adapter=adapters["dept"],
        ),
        "emp": TableSchema(
            "emp",
            [
                Column("emp_id", ColumnType.INTEGER),
                Column("dept_id", ColumnType.INTEGER),
                Column("name", ColumnType.VARCHAR),
                Column("salary", ColumnType.DOUBLE),
                Column("hired", ColumnType.DATE),
            ],
            ["emp_id"],
            adapter=adapters["emp"],
        ),
        "sales": TableSchema(
            "sales",
            [
                Column("sale_id", ColumnType.INTEGER),
                Column("emp_id", ColumnType.INTEGER),
                Column("amount", ColumnType.DOUBLE),
                Column("region", ColumnType.VARCHAR),
            ],
            ["sale_id"],
            affinity_key="sale_id",
            adapter=adapters["sales"],
        ),
    }


def load_fedbench_cluster(
    config,
    scale_factor: float,
    seed: int = 7,
    adapters: Optional[Dict[str, str]] = None,
) -> IgniteCalciteCluster:
    """A cluster over the company star with per-table adapter routing.

    ``adapters`` overrides :data:`TABLE_ADAPTERS` (e.g. the all-native
    control layout the plan-flip comparison uses).  Row contents are
    identical across layouts — only storage routing differs.
    """
    placement = dict(TABLE_ADAPTERS if adapters is None else adapters)
    return load_dataset(
        config,
        _schemas(placement),
        _company_rows(scale_factor, seed),
        [("emp", "emp_pk", ["emp_id"])],
    )


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass
class FedbenchCell:
    """One (query, system, backend) execution diffed against the oracle."""

    query: str
    system: str
    backend: str
    rows: int
    simulated_seconds: float
    rows_match: bool
    plan_digest: str


@dataclass
class PushdownEvidence:
    """Per-(query, adapter) scan accounting for one system's run.

    ``rows_scanned``/``rows_out`` come from the adapter scan metrics;
    ``scan_rows_in`` is the same scanned total as recorded in the
    engine's per-operator FragmentStats — the two must reconcile.
    """

    query: str
    adapter: str
    rows_scanned: int
    rows_out: int
    scan_rows_in: int


@dataclass
class PlanFlip:
    """One query's plan digest on the federated vs all-native layout."""

    query: str
    system: str
    federated_digest: str
    native_digest: str
    flipped: bool


@dataclass
class ChaosCell:
    """One federated query replayed under an injected site failure."""

    query: str
    system: str
    status: str
    attempts: int
    rows_match: bool


@dataclass
class FedbenchReport:
    """The full ``repro-fedbench/v1`` artefact."""

    sites: int
    scale_factor: float
    seed: int
    systems: List[str]
    adapters: Dict[str, str] = field(default_factory=dict)
    cells: List[FedbenchCell] = field(default_factory=list)
    pushdown: List[PushdownEvidence] = field(default_factory=list)
    plan_flips: List[PlanFlip] = field(default_factory=list)
    chaos: Optional[ChaosCell] = None

    def to_dict(self) -> Dict:
        return artefact_dict(FEDBENCH_SCHEMA, self)

    def to_text(self) -> str:
        lines = [
            f"fedbench: sites={self.sites} sf={self.scale_factor} "
            f"seed={self.seed} adapters="
            + ",".join(f"{t}:{a}" for t, a in sorted(self.adapters.items())),
            f"{'query':<5} {'system':<5} {'backend':<8} {'rows':>6} "
            f"{'sim ms':>9}  match",
        ]
        for c in self.cells:
            lines.append(
                f"{c.query:<5} {c.system:<5} {c.backend:<8} {c.rows:>6} "
                f"{c.simulated_seconds * 1e3:>9.2f}  "
                + ("ok" if c.rows_match else "FAIL")
            )
        lines.append("pushdown (rows scanned -> shipped):")
        for p in self.pushdown:
            marker = "<" if p.rows_out < p.rows_scanned else "="
            lines.append(
                f"  {p.query:<5} {p.adapter:<10} "
                f"{p.rows_scanned:>6} -> {p.rows_out:<6} ({marker}) "
                f"rows_in={p.scan_rows_in}"
            )
        for f in self.plan_flips:
            lines.append(
                f"plan {f.query} [{f.system}]: federated={f.federated_digest} "
                f"native={f.native_digest} "
                + ("FLIPPED" if f.flipped else "same")
            )
        if self.chaos is not None:
            lines.append(
                f"chaos {self.chaos.query} [{self.chaos.system}]: "
                f"{self.chaos.status} after {self.chaos.attempts} attempt(s), "
                + ("rows ok" if self.chaos.rows_match else "ROWS DIVERGED")
            )
        return "\n".join(lines)

    def validate(self) -> List[str]:
        return validate_fedbench_artefact(self.to_dict())


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _plan_digest(plan) -> str:
    """A short stable digest of the optimised physical plan's shape."""
    return hashlib.sha256(plan.explain().encode("utf-8")).hexdigest()[:16]


def run_fedbench(
    systems: Sequence[str] = ("IC", "IC+", "IC+M"),
    scale_factor: float = 0.05,
    sites: int = 4,
    seed: int = 7,
    query_ids: Optional[Sequence[str]] = None,
) -> FedbenchReport:
    """Run every (query, system, backend) federation cell."""
    ids = tuple(query_ids) if query_ids is not None else tuple(FEDBENCH_QUERIES)
    unknown = [q for q in ids if q not in FEDBENCH_QUERIES]
    if unknown:
        raise ValueError(f"unknown fedbench queries: {', '.join(unknown)}")
    report = FedbenchReport(
        sites=sites,
        scale_factor=scale_factor,
        seed=seed,
        systems=list(systems),
        adapters=dict(TABLE_ADAPTERS),
    )
    common = dict(sites=sites, scale_factor=scale_factor, seed=seed)
    backends = paired_run(
        load_fedbench_cluster,
        systems,
        **common,
        control=dict(execution_backend="row"),
        treatment=dict(execution_backend="columnar"),
    )
    for pair in backends:
        runs = {
            query: pair.observe(
                FEDBENCH_QUERIES[query], planned=True, oracle=True
            )
            for query in ids
        }
        for side, backend in enumerate(("row", "columnar")):
            report.cells.extend(
                FedbenchCell(
                    query=query,
                    system=pair.system,
                    backend=backend,
                    rows=len(run[side].rows),
                    simulated_seconds=run[side].outcome.simulated_seconds,
                    rows_match=run[side].oracle_match,
                    plan_digest=_plan_digest(run[side].plan),
                )
                for query, run in runs.items()
            )
        if pair.system == systems[0]:
            for query, (row_run, _) in runs.items():
                report.pushdown.extend(_pushdown_evidence(query, row_run))
    all_native = {name: "native" for name in TABLE_ADAPTERS}
    layouts = paired_run(
        load_fedbench_cluster,
        systems,
        **common,
        layouts=(None, dict(adapters=all_native)),
    )
    for pair in layouts:
        for query in (q for q in FLIP_QUERY_IDS if q in ids):
            sql = FEDBENCH_QUERIES[query]
            federated = _plan_digest(pair.control.plan_sql(sql))
            native = _plan_digest(pair.treatment.plan_sql(sql))
            report.plan_flips.append(
                PlanFlip(
                    query=query,
                    system=pair.system,
                    federated_digest=federated,
                    native_digest=native,
                    flipped=federated != native,
                )
            )
    report.chaos = _chaos_cell(systems[0], **common)
    return report


def _pushdown_evidence(query: str, run: Observation) -> List[PushdownEvidence]:
    """Adapter scan counters for one execution, reconciled against the
    per-operator ``rows_in`` the engine recorded for the same scans."""
    scanned: Dict[str, int] = {}
    out: Dict[str, int] = {}
    for key, value in run.delta.items():
        # Flat series names: ``adapter.rows_scanned{adapter=x,table=y}``.
        name, _, label_part = key.partition("{")
        if name not in ("adapter.rows_scanned", "adapter.rows_out"):
            continue
        labels = dict(
            item.split("=", 1) for item in label_part.rstrip("}").split(",")
        )
        bucket = scanned if name == "adapter.rows_scanned" else out
        adapter = labels.get("adapter", "?")
        bucket[adapter] = bucket.get(adapter, 0) + int(value)
    result = run.outcome.result
    scan_rows_in = 0
    for fragment in result.fragment_trees:
        for op in fragment.operators():
            if isinstance(op, PhysTableScan):
                scan_rows_in += result.operator_actuals[op.op_id].rows_in
    return [
        PushdownEvidence(
            query=query,
            adapter=adapter,
            rows_scanned=scanned[adapter],
            rows_out=out.get(adapter, 0),
            scan_rows_in=scan_rows_in,
        )
        for adapter in sorted(scanned)
    ]


def _chaos_cell(
    system: str, sites: int, scale_factor: float, seed: int
) -> ChaosCell:
    """One cross-source join with its last site dead from t=0."""
    query = "FB1"
    config = PRESETS[system](
        sites,
        faults=(parse_fault("kill-site", f"{sites - 1}@t=0.0"),),
        max_retries=2,
        failover_redispatch=True,
    )
    cluster = load_fedbench_cluster(config, scale_factor, seed)
    report = run_chaos(cluster, {query: FEDBENCH_QUERIES[query]}, seed=seed)
    (record,) = report.records
    return ChaosCell(
        query=query,
        system=system,
        status=record.status.value,
        attempts=record.attempts,
        # A replay that produced no rows has nothing to diverge.
        rows_match=record.oracle_ok is not False,
    )


# ---------------------------------------------------------------------------
# Artefact validation
# ---------------------------------------------------------------------------

def validate_fedbench_artefact(obj: Dict) -> List[str]:
    """Schema-check one fedbench artefact dict; returns violations.

    An empty list means a well-formed ``repro-fedbench/v1`` artefact in
    which every cell agrees with the reference executor, the
    pushdown evidence shows work absorbed at the source (and reconciles
    with the engine's scan ``rows_in``), at least one query's plan
    flipped on the federated layout, and the chaos replay stayed
    row-correct.
    """
    problems = check_envelope(obj, FEDBENCH_SCHEMA, FedbenchReport)
    if problems:
        return problems
    for name, cell in checked_records(
        obj, "cells", FedbenchCell, ("query", "system", "backend"), problems
    ):
        if not cell["rows_match"]:
            problems.append(f"cell {name}: rows diverged from the oracle")
        if cell["rows"] <= 0:
            problems.append(f"cell {name}: empty result set")
    pushes = checked_records(
        obj, "pushdown", PushdownEvidence, ("query", "adapter"), problems
    )
    for name, push in pushes:
        if push["rows_out"] > push["rows_scanned"]:
            problems.append(
                f"pushdown {name}: rows_out exceeds rows_scanned"
            )
    # Reconciliation: per query, the adapter counters' scanned total must
    # equal the rows_in the engine's FragmentStats recorded for the same
    # scans (native scans record neither, so the totals line up exactly).
    by_query: Dict[str, List[Dict]] = {}
    for _, push in pushes:
        by_query.setdefault(push["query"], []).append(push)
    for query, rows in sorted(by_query.items()):
        total = sum(r["rows_scanned"] for r in rows)
        for r in rows:
            if r["scan_rows_in"] != total:
                problems.append(
                    f"pushdown {query}: adapter counters scanned {total} "
                    f"rows but FragmentStats recorded {r['scan_rows_in']}"
                )
                break
    if pushes and not any(
        push["rows_out"] < push["rows_scanned"] for _, push in pushes
    ):
        problems.append(
            "no pushdown evidence: every scan shipped all scanned rows"
        )
    flips = checked_records(
        obj, "plan_flips", PlanFlip, ("query", "system"), problems
    )
    if flips and not any(flip["flipped"] for _, flip in flips):
        problems.append(
            "no plan flip: adapter cost constants changed no plan choice"
        )
    chaos = obj["chaos"]
    if (
        chaos is not None
        and check_record(chaos, ChaosCell, "chaos", problems)
        and not chaos["rows_match"]
    ):
        problems.append("chaos replay diverged from the oracle")
    return problems
