"""Prepared statements: a repeated SELECT on the cache-hit path.

Where the plan cache serves, the statement pipeline keeps each SELECT
under its text — its logical plan and physical plan in one cache entry —
so a repeat skips parse, sql2rel and planning, and its cached plan keeps
the fragments the engine cut it into.  Pinned here:

* **no stale statement** — after a table replaced through
  ``drop_table`` + ``create_table``, or ``create_index``, the same text
  returns what a fresh parse would, and a feedback eviction re-plans the
  prepared logical plan to the plan a fresh parse gets;
* **the bypasses** — tracing, EXPLAIN, a feedback-only cluster and a fault
  schedule prepare nothing, and the plan-cache counters move as before;
* **shared fragments stay shared safely** — a second run leaves the first
  result's EXPLAIN ANALYZE alone, and a mid-query splice of a cached plan
  leaves its kept fragments as they were.
"""

import pytest

import repro.core.cluster as cluster_module
from helpers import make_company_cluster
from repro.adaptive.cache import DEFAULT_CAPACITY
from repro.bench.midquery import MIDQUERY_QUERIES, load_skewed_cluster
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import SystemConfig
from repro.core.cluster import IgniteCalciteCluster
from repro.exec.fragments import fragment_plan
from repro.exec.physical import PhysIndexScan
from repro.faults.injector import SiteCrash
from repro.obs.metrics import get_registry
from repro.planner.volcano import QueryPlanner

pytestmark = pytest.mark.adaptive

CACHED = dict(plan_cache=True)
ADAPTIVE = dict(
    plan_cache=True, cardinality_feedback=True, replan_q_error_threshold=2.0
)
SQL = "select name from emp where salary > 50000 order by name"


@pytest.fixture
def parses(monkeypatch):
    """How many times the pipeline parsed SQL text."""
    calls = []
    real = cluster_module.parse

    def counting(sql, **kwargs):
        calls.append(sql)
        return real(sql, **kwargs)

    monkeypatch.setattr(cluster_module, "parse", counting)
    return calls


def _table(name, columns):
    return TableSchema(
        name, [Column(c, ColumnType.INTEGER) for c in columns], [columns[0]]
    )


def _prepared(cluster, sql):
    return cluster.adaptive.cache.peek(sql)


# -- the hit path ---------------------------------------------------------------


def test_a_repeat_is_served_without_parsing(parses):
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    first = cluster.try_sql(SQL)
    second = cluster.try_sql(SQL)
    assert parses == [SQL]
    assert not first.plan_cached and second.plan_cached
    assert second.rows == first.rows


def test_a_cached_plan_is_fragmented_once():
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    first = cluster.sql(SQL)
    second = cluster.sql(SQL)
    assert [id(f) for f in second.fragment_trees] == [
        id(f) for f in first.fragment_trees
    ]


# -- no stale statement ---------------------------------------------------------


def test_a_replaced_table_is_read_afresh():
    cluster = IgniteCalciteCluster(SystemConfig.ic_plus(4, **CACHED))
    cluster.create_table(_table("t", ["a", "b"]), [(1, 10), (2, 20)])
    sql = "select * from t order by 1"
    assert cluster.sql(sql).rows == [(1, 10), (2, 20)]
    assert cluster.sql(sql).rows == [(1, 10), (2, 20)]
    cluster.drop_table("t")
    cluster.create_table(_table("t", ["x", "y", "z"]), [(7, 8, 9)])
    result = cluster.sql(sql)
    assert result.fields == ["t.x", "t.y", "t.z"]
    assert result.rows == [(7, 8, 9)]


def test_a_new_index_is_planned_with():
    cluster = IgniteCalciteCluster(SystemConfig.ic_plus(4, **CACHED))
    cluster.create_table(_table("t", ["a", "g"]), [(i, i % 50) for i in range(2000)])
    sql = "select a from t where g = 3 order by a"
    before = cluster.try_sql(sql)
    assert cluster.try_sql(sql).plan_cached
    cluster.create_index("t", "t_g", ["g"])
    after = cluster.try_sql(sql)
    assert after.rows == before.rows
    assert not after.plan_cached
    scans = [
        op
        for fragment in after.result.fragment_trees
        for op in fragment.operators()
        if isinstance(op, PhysIndexScan)
    ]
    assert scans


def test_a_feedback_eviction_replans_the_prepared_logical_plan(parses):
    cluster = load_skewed_cluster(
        SystemConfig.ic_plus(4, **ADAPTIVE), scale_factor=0.1
    )
    sql = MIDQUERY_QUERIES["MQ2"]
    cluster.sql(sql)
    assert get_registry().counter("plan_cache.replans") == 1.0  # evicted
    fresh = QueryPlanner(
        cluster.store,
        cluster.config,
        feedback=cluster.adaptive.feedback,
        sketches=cluster.sketches,
    ).plan(cluster.parse_to_logical(sql))
    del parses[:]
    outcome = cluster.try_sql(sql)
    assert parses == [] and not outcome.plan_cached  # prepared, re-planned
    entry = _prepared(cluster, sql)
    assert entry.replanned
    assert entry.plan.explain() == fresh.explain()


# -- the bypasses ---------------------------------------------------------------


def test_a_traced_repeat_is_parsed_again():
    cluster = make_company_cluster(
        SystemConfig.ic_plus(4, tracing=True, **CACHED)
    )
    for _ in range(2):
        cluster.sql(SQL)
        assert "parse" in {span.name for span in cluster.last_trace.spans()}
    assert _prepared(cluster, SQL) is None


def test_explain_of_a_prepared_select_is_planned():
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    cluster.sql(SQL)
    cluster.sql(SQL)
    registry = get_registry()
    before = registry.snapshot()
    rows = cluster.sql("EXPLAIN " + SQL).rows
    delta = registry.delta_since(before)
    assert delta.get("planner.queries_planned") == 1.0
    assert delta.get("planner.budget_spent_sum", 0.0) > 0
    assert "plan_cache.hits" not in delta
    assert [row[0] for row in rows] == cluster.explain(SQL).splitlines()
    assert _prepared(cluster, "EXPLAIN " + SQL) is None


def test_a_feedback_only_cluster_prepares_nothing(parses):
    cluster = make_company_cluster(
        SystemConfig.ic_plus(4, cardinality_feedback=True)
    )
    cluster.sql(SQL)
    cluster.sql(SQL)
    assert cluster.adaptive.cache is None
    assert parses == [SQL, SQL]


def test_a_fault_schedule_prepares_and_serves_nothing(parses):
    config = SystemConfig.ic_plus(4).with_(
        faults=(SiteCrash(1, at=0.0),), failover_redispatch=True, **ADAPTIVE
    )
    cluster = make_company_cluster(config)
    first = cluster.try_sql(SQL)
    second = cluster.try_sql(SQL)
    assert parses == [SQL, SQL]
    assert not second.plan_cached and second.rows == first.rows
    assert _prepared(cluster, SQL) is None
    assert len(cluster.adaptive.cache) == 0


def test_the_plan_cache_counts_as_before():
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    registry = get_registry()
    for _ in range(3):
        cluster.sql(SQL)
    assert registry.counter("plan_cache.misses") == 1.0
    assert registry.counter("plan_cache.hits") == 2.0


def test_statements_share_the_plan_cache_capacity():
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    cache = cluster.adaptive.cache
    texts = [
        f"select name from emp where salary > {s}"
        for s in range(DEFAULT_CAPACITY + 1)
    ]
    for sql in texts[:-1]:
        cluster.sql(sql)
    assert len(cache) == DEFAULT_CAPACITY
    oldest = _prepared(cluster, texts[0])
    assert oldest.logical is not None and oldest.plan is not None
    cluster.sql(texts[-1])
    assert len(cache) == DEFAULT_CAPACITY
    assert _prepared(cluster, texts[0]) is None
    assert all(_prepared(cluster, sql) is not None for sql in texts[1:])
    assert get_registry().counter("plan_cache.evictions") == 1.0


# -- prepared fragments are shared safely ----------------------------------------


def test_a_second_run_leaves_the_first_result_alone():
    cluster = make_company_cluster(SystemConfig.ic_plus(4, **CACHED))
    sql = (
        "select e.name, sum(s.amount) from emp e, sales s "
        "where e.emp_id = s.emp_id group by e.name order by e.name"
    )
    first = cluster.sql(sql)
    text = first.explain_analyze()
    second = cluster.sql(sql)
    assert first.explain_analyze() == text
    assert second.explain_analyze() == text


def _shape(fragments):
    return [(f.fragment_id, [op.op_id for op in f.operators()]) for f in fragments]


def test_a_splice_leaves_the_kept_fragments_intact():
    config = SystemConfig.ic_plus(4).with_(
        plan_cache=True,
        midquery_reoptimization=True,
        replan_q_error_threshold=4.0,
    )
    cluster = load_skewed_cluster(config, scale_factor=0.1)
    sql = MIDQUERY_QUERIES["MQ2"]
    first = cluster.sql(sql)
    assert first.fragment_trees[-1].replanned  # the run spliced its suffix
    plan = _prepared(cluster, sql).plan
    kept = list(plan.prepared_fragments)
    assert _shape(plan.prepared_fragments) == _shape(fragment_plan(plan))
    assert not any(f.replanned for f in kept)

    second = cluster.try_sql(sql)
    assert second.plan_cached and second.rows == first.rows
    assert list(map(id, plan.prepared_fragments)) == list(map(id, kept))
    assert _shape(plan.prepared_fragments) == _shape(fragment_plan(plan))
    # The hit ran the kept fragments up to its own splice.
    executed = second.result.fragment_trees
    prefix = [f for f in executed if not f.replanned]
    assert prefix and all(any(f is k for k in kept) for f in prefix)
