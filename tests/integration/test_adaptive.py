"""Integration tests for adaptive re-planning (plan cache + feedback).

The acceptance behaviours pinned here:

* a second planning of the identical query spends **zero** planner budget
  ticks and increments ``plan_cache.hits``;
* on a skewed join, ``max_q_error()`` strictly decreases after one
  feedback-driven replan, with identical result rows before and after;
* EXPLAIN / traced / fault-injected runs bypass the cache entirely — a
  traced run after a cached run still emits the full hep/volcano spans;
* DDL invalidates both the cache and the harvested feedback.
"""

import pytest

from repro.adaptive.cache import PlanCache
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS, SystemConfig
from repro.obs.metrics import get_registry

from helpers import make_company_cluster

pytestmark = pytest.mark.adaptive

ADAPTIVE = dict(
    plan_cache=True, cardinality_feedback=True, replan_q_error_threshold=2.0
)


def skewed_cluster(**overrides):
    """customers(100) joined by orders(2000) where 90 % of orders hit
    customer 1 — equality selectivity on the skewed column is badly
    under-estimated until feedback corrects it."""
    from repro.core.cluster import IgniteCalciteCluster

    config = SystemConfig.ic_plus(4).with_(**{**ADAPTIVE, **overrides})
    cluster = IgniteCalciteCluster(config)
    cluster.create_table(
        TableSchema(
            "customers",
            [
                Column("id", ColumnType.INTEGER),
                Column("name", ColumnType.VARCHAR),
            ],
            ["id"],
        ),
        [(i, f"c{i}") for i in range(100)],
    )
    cluster.create_table(
        TableSchema(
            "orders",
            [
                Column("oid", ColumnType.INTEGER),
                Column("customer_id", ColumnType.INTEGER),
            ],
            ["oid"],
        ),
        [(i, 1 if i % 10 != 0 else (i % 100)) for i in range(2000)],
    )
    return cluster


SKEWED_JOIN = (
    "SELECT o.oid, c.name FROM orders o JOIN customers c "
    "ON o.customer_id = c.id WHERE o.customer_id = 1"
)


class TestPlanCacheHit:
    def test_second_planning_spends_zero_ticks(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        registry = get_registry()
        sql = "select name from emp where salary > 50000"
        first = cluster.sql(sql)
        before = registry.snapshot()
        second = cluster.sql(sql)
        delta = registry.delta_since(before)
        assert delta.get("plan_cache.hits") == 1.0
        # the planner never ran: no query planned, no budget ticks
        assert "planner.queries_planned" not in delta
        assert delta.get("planner.budget_spent_sum", 0.0) == 0.0
        assert sorted(first.rows) == sorted(second.rows)

    def test_literal_change_is_a_miss(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        registry = get_registry()
        cluster.sql("select name from emp where salary > 50000")
        before = registry.snapshot()
        cluster.sql("select name from emp where salary > 90000")
        delta = registry.delta_since(before)
        assert delta.get("plan_cache.misses") == 1.0
        assert delta.get("planner.queries_planned") == 1.0

    def test_two_bindings_of_one_query_keep_their_own_plans(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, plan_cache=True))
        texts = [
            "select name from emp where salary > 50000",
            "select name from emp where salary > 90000",
        ]
        outcomes = [cluster.try_sql(texts[i % 2]) for i in range(6)]
        assert [o.plan_cached for o in outcomes] == [False, False] + [True] * 4
        for i, outcome in enumerate(outcomes[2:], start=2):
            assert outcome.rows == outcomes[i % 2].rows
        assert outcomes[0].rows != outcomes[1].rows
        assert get_registry().counter("planner.queries_planned") == 2.0

    def test_cache_off_by_default(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4))
        assert cluster.adaptive is None
        registry = get_registry()
        cluster.sql("select name from emp")
        cluster.sql("select name from emp")
        assert registry.counter("plan_cache.hits") == 0.0
        assert registry.counter("planner.queries_planned") == 2.0


class TestFeedbackReplan:
    def test_q_error_strictly_decreases_with_identical_rows(self):
        cluster = skewed_cluster()
        registry = get_registry()
        first = cluster.sql(SKEWED_JOIN)
        assert first.max_q_error() > cluster.adaptive.threshold
        second = cluster.sql(SKEWED_JOIN)
        assert registry.counter("plan_cache.replans") == 1.0
        assert second.max_q_error() < first.max_q_error()
        assert sorted(first.rows) == sorted(second.rows)
        # the replacement entry is the replan product; a third run hits
        third = cluster.sql(SKEWED_JOIN)
        assert registry.counter("plan_cache.replans") == 1.0  # no churn
        assert sorted(third.rows) == sorted(first.rows)

    def test_replanned_entry_not_evicted_again(self):
        cluster = skewed_cluster()
        cluster.sql(SKEWED_JOIN)
        cluster.sql(SKEWED_JOIN)
        key = next(iter(cluster.adaptive.cache._entries))
        entry = cluster.adaptive.cache.peek(key)
        assert entry.replanned
        cluster.sql(SKEWED_JOIN)
        assert cluster.adaptive.cache.peek(key) is not None

    def test_feedback_only_mode_never_caches(self):
        cluster = skewed_cluster(plan_cache=False)
        registry = get_registry()
        cluster.sql(SKEWED_JOIN)
        second = cluster.sql(SKEWED_JOIN)
        assert registry.counter("plan_cache.hits") == 0.0
        assert registry.counter("planner.queries_planned") == 2.0
        # harvested actuals still tighten the second plan's estimates
        assert second.max_q_error() <= 1.5


class TestBypassGuards:
    def test_explain_never_serves_or_populates(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        registry = get_registry()
        sql = "select name from emp where salary > 50000"
        cluster.sql(sql)  # populate
        before = registry.snapshot()
        cluster.explain_analyze(sql)
        delta = registry.delta_since(before)
        assert "plan_cache.hits" not in delta
        assert "plan_cache.misses" not in delta
        assert delta.get("planner.queries_planned") == 1.0

    def test_traced_run_after_cached_run_emits_planner_spans(self):
        """Regression: a trace must show the full hep/volcano pipeline
        even when a cached plan exists for the query."""
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        sql = "select name from emp where salary > 50000"
        cluster.sql(sql)
        cluster.sql(sql)  # cached now
        cluster.config = cluster.config.with_(tracing=True)
        traced = cluster.sql(sql)
        names = _span_names(cluster.last_trace.spans())
        assert {"hep", "volcano-logical", "volcano-physical"} <= names
        for span in _walk_spans(cluster.last_trace.spans()):
            ticks = span.attrs.get("budget_spent")
            if ticks is not None:
                assert ticks >= 0
        # and the traced run neither hit nor repopulated the cache
        registry = get_registry()
        assert registry.counter("plan_cache.hits") == 1.0
        fresh = sorted(traced.rows)
        assert fresh == sorted(cluster.sql(sql).rows)

    def test_fault_injected_cluster_bypasses_cache(self):
        from repro.faults.injector import parse_fault

        config = SystemConfig.ic_plus(4).with_(
            **ADAPTIVE, faults=(parse_fault("slow-site", "1x2@t=0.0"),)
        )
        cluster = make_company_cluster(config)
        registry = get_registry()
        sql = "select name from emp"
        cluster.sql(sql)
        cluster.sql(sql)
        assert registry.counter("plan_cache.hits") == 0.0
        assert registry.counter("plan_cache.misses") == 0.0
        assert cluster.adaptive.feedback is None or not len(
            cluster.adaptive.feedback
        )


class TestInvalidation:
    def test_ddl_wipes_cache_and_feedback(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        registry = get_registry()
        sql = "select name from emp where salary > 50000"
        cluster.sql(sql)
        assert len(cluster.adaptive.cache) == 1
        assert len(cluster.adaptive.feedback) > 0
        cluster.create_index("emp", "emp_salary", ["salary"])
        assert len(cluster.adaptive.cache) == 0
        assert len(cluster.adaptive.feedback) == 0
        assert registry.counter("plan_cache.invalidations") == 1.0
        before = registry.snapshot()
        cluster.sql(sql)
        assert registry.delta_since(before).get("plan_cache.misses") == 1.0

    def test_capacity_one_still_correct(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        cluster.adaptive.cache = PlanCache(1)
        a = "select name from emp where salary > 50000"
        b = "select dept_id, count(*) from emp group by dept_id"
        ra1 = cluster.sql(a)
        rb1 = cluster.sql(b)  # evicts a
        ra2 = cluster.sql(a)  # miss, replans
        rb2 = cluster.sql(b)
        assert sorted(ra1.rows) == sorted(ra2.rows)
        assert sorted(rb1.rows) == sorted(rb2.rows)
        assert get_registry().counter("plan_cache.evictions") >= 2.0


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.children)


def _span_names(spans):
    return {span.name for span in _walk_spans(spans)}
