"""The columnar backend's differential oracle sweep.

The columnar backend's contract is absolute: for every query either
backend can run, both return *exactly* the same rows in the same order,
and — because the columnar operators charge the row cost model on the
same row counts — the same simulated makespan to the last bit.  This
sweep drives seeded generated queries plus handwritten NULL/OFFSET/
aggregate shapes through all three paper presets on the company data
set (checking both backends against the reference oracle as well), then
the TPC-H and SSB benchmark queries at a small scale factor, and
finally validates the trace artefacts a columnar execution emits.
"""

import pytest

from helpers import make_company_cluster, make_company_store
from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import (
    ENABLED_QUERY_IDS,
    IC_FAILING_QUERY_IDS,
    QUERIES,
)
from repro.common.config import PRESETS
from repro.obs.trace import validate_trace
from repro.verify.differential import differential_check
from repro.verify.generator import QueryGenerator

pytestmark = [pytest.mark.columnar, pytest.mark.verify]

HANDWRITTEN = [
    "select e.name, d.dept_name from emp e left join dept d "
    "on e.dept_id = d.dept_id order by e.name limit 10",
    "select dept_id, count(*), sum(salary), avg(salary), min(salary), "
    "max(salary) from emp group by dept_id order by dept_id",
    "select name, salary from emp order by salary desc limit 5 offset 3",
    "select name from emp where salary > 50000 and dept_id > 2 "
    "order by name limit 20 offset 2",
    "select d.dept_name, count(*) from emp e join dept d "
    "on e.dept_id = d.dept_id group by d.dept_name order by d.dept_name",
    "select region, sum(amount) from sales group by region order by region",
    "select e.name from emp e where e.dept_id in "
    "(select d.dept_id from dept d where d.budget > 40000) "
    "order by e.name limit 15",
]


@pytest.fixture(scope="module")
def company_store():
    return make_company_store()


@pytest.fixture(scope="module")
def company_queries(company_store):
    return QueryGenerator(company_store, seed=7).queries(40) + HANDWRITTEN


def _assert_backends_agree(row_report, col_report, sql, label):
    assert row_report.status == col_report.status, (
        f"[{label}] {sql}: row={row_report.status} "
        f"col={col_report.status} ({col_report.detail})"
    )
    assert col_report.status not in ("mismatch", "invariant_violation"), (
        f"[{label}] {sql}: {col_report.detail}"
    )
    if row_report.result is not None and col_report.result is not None:
        assert row_report.result.rows == col_report.result.rows, (
            f"[{label}] {sql}: backends returned different rows"
        )
        # Bit-identical, not approximately equal: the columnar operators
        # charge the very same work-unit formulas on the same counts.
        assert (
            row_report.result.simulated_seconds
            == col_report.result.simulated_seconds
        ), f"[{label}] {sql}: simulated makespans diverged"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_company_sweep_matches_row_backend_and_oracle(
    preset, company_queries
):
    config = PRESETS[preset]().with_(verify_execution=True)
    row_cluster = make_company_cluster(config.with_(execution_backend="row"))
    col_cluster = make_company_cluster(
        config.with_(execution_backend="columnar")
    )
    for sql in company_queries:
        row_report = differential_check(sql, row_cluster)
        col_report = differential_check(sql, col_cluster)
        _assert_backends_agree(row_report, col_report, sql, preset)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_tpch_queries_agree_across_backends(preset):
    factory = PRESETS[preset]
    row_cluster = load_tpch_cluster(
        factory().with_(execution_backend="row"), 0.02
    )
    col_cluster = load_tpch_cluster(
        factory().with_(execution_backend="columnar"), 0.02
    )
    for qid in ENABLED_QUERY_IDS:
        if preset == "IC" and qid in IC_FAILING_QUERY_IDS:
            continue
        row_result = row_cluster.sql(QUERIES[qid].sql)
        col_result = col_cluster.sql(QUERIES[qid].sql)
        assert row_result.rows == col_result.rows, f"Q{qid} rows diverged"
        assert (
            row_result.simulated_seconds == col_result.simulated_seconds
        ), f"Q{qid} makespans diverged"


@pytest.mark.parametrize("preset", ["IC+", "IC+M"])
def test_ssb_queries_agree_across_backends(preset):
    factory = PRESETS[preset]
    row_cluster = load_ssb_cluster(
        factory().with_(execution_backend="row"), 0.02
    )
    col_cluster = load_ssb_cluster(
        factory().with_(execution_backend="columnar"), 0.02
    )
    for qid, spec in sorted(SSB_QUERIES.items()):
        if spec.excluded:
            continue
        row_result = row_cluster.sql(spec.sql)
        col_result = col_cluster.sql(spec.sql)
        assert row_result.rows == col_result.rows, f"{qid} rows diverged"
        assert (
            row_result.simulated_seconds == col_result.simulated_seconds
        ), f"{qid} makespans diverged"


def test_columnar_traces_are_well_formed():
    config = PRESETS["IC+M"]().with_(
        execution_backend="columnar", tracing=True
    )
    cluster = load_tpch_cluster(config, 0.02)
    for qid in (1, 3, 6):
        cluster.sql(QUERIES[qid].sql)
        artefact = cluster.last_trace.to_dict(
            query=f"Q{qid}", system=config.name
        )
        assert validate_trace(artefact) == [], f"Q{qid} trace invalid"
