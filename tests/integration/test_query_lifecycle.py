"""One query lifecycle: ``sql`` and ``try_sql`` are two faces of one
statement pipeline, and the engine keeps nothing between queries.

Parity is checked statement kind by statement kind on both backends —
same rows or the same exception class <-> status, and with tracing on the
same span-name sequence — then the pieces that only one face used to have
(DDL through ``sql``, the differential harness through ``try_sql``,
verification errors escaping, execution-time errors classified) each get
a regression test that fails on the pre-pipeline code.  Under
``verify_execution`` the oracle check is the pipeline's last stage, not a
second pipeline: ``TestVerifyStage`` pins that what is checked is the run
the caller gets (cache hit, mid-query re-plan, degraded) and that nothing
else about the query changes.
"""

import pytest

from helpers import make_company_cluster
from repro.common import constants
from repro.common.config import SystemConfig
from repro.common.errors import (
    CatalogError,
    ExchangeLostError,
    ExecutionError,
    ExecutionTimeoutError,
    FragmentOomError,
    PlanInvariantError,
    PlannerDefectError,
    PlanningTimeoutError,
    QueryDeadlineError,
    ReproError,
    ResultMismatchError,
    SiteFailureError,
    SqlSyntaxError,
    StorageError,
    UnsupportedSqlError,
    ValidationError,
)
from repro.core.cluster import STATUS_BY_ERROR, QueryStatus, classify
from repro.exec.engine import ExecutionEngine
from repro.exec.physical import walk_physical
from repro.faults.injector import SiteCrash
from repro.obs.metrics import get_registry
from repro.planner import budget

JOIN = (
    "select e.name, s.amount from emp e, sales s "
    "where e.emp_id = s.emp_id and s.amount > 4000 order by s.amount, e.name"
)
AGG = "select region, count(*) from sales group by region order by region"
ADAPTIVE = dict(plan_cache=True, cardinality_feedback=True)
EVERY_SITE_DEAD = tuple(SiteCrash(site, at=0.0) for site in range(4))

#: The two limits are module constants, not config fields: an override
#: named after one patches it in its module instead.
LIMITS = {"PLANNING_BUDGET": budget, "RUNTIME_LIMIT_SECONDS": constants}

#: name -> (config overrides, statement, what ``sql`` raises or None)
STATEMENTS = {
    "select": ({}, JOIN, None),
    "select-adaptive": (ADAPTIVE, AGG, None),
    "explain": ({}, "explain " + JOIN, None),
    "explain-analyze": (ADAPTIVE, "explain analyze " + JOIN, None),
    "create-table-using": (
        {}, "create table t (a int, b varchar) using columnfile", None,
    ),
    "create-view": (
        {}, "create view big as select * from sales", UnsupportedSqlError,
    ),
    "unknown-table": ({}, "select * from nowhere", CatalogError),
    "unsupported-sql": (
        {},
        "select region from sales union select region from sales",
        UnsupportedSqlError,
    ),
    "budget-exhausted": ({"PLANNING_BUDGET": 5}, JOIN, PlanningTimeoutError),
    "runtime-limit": (
        {"RUNTIME_LIMIT_SECONDS": 1e-9}, JOIN, ExecutionTimeoutError,
    ),
    "site-crash-degraded": ({"faults": (SiteCrash(1, at=0.0),)}, JOIN, None),
    "site-crash-fatal": ({"faults": EVERY_SITE_DEAD}, JOIN, SiteFailureError),
    "deadline-miss": (
        {"query_deadline_seconds": 1e-9, **ADAPTIVE}, JOIN, QueryDeadlineError,
    ),
}


def _configure(overrides, monkeypatch, **fields):
    """IC+ with ``overrides`` and ``fields``; a limit among them is patched."""
    for key, value in overrides.items():
        if key in LIMITS:
            monkeypatch.setattr(LIMITS[key], key, value)
        else:
            fields[key] = value
    return SystemConfig.ic_plus(4).with_(**fields)


def _span_names(tracer):
    return [span.name for span in tracer.spans()]


@pytest.mark.parametrize("tracing", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_sql_and_try_sql_agree(name, tracing, execution_backend, monkeypatch):
    overrides, statement, raises = STATEMENTS[name]
    config = _configure(
        overrides, monkeypatch, execution_backend=execution_backend, tracing=tracing
    )
    strict, lenient = make_company_cluster(config), make_company_cluster(config)
    # Twice: the second statement of an adaptive config is served from the
    # plan cache, and the second CREATE TABLE fails, on both faces alike.
    for attempt in range(2):
        outcome = lenient.try_sql(statement)
        try:
            result, raised = strict.sql(statement), None
        except ReproError as exc:
            result, raised = None, exc
        if attempt == 0:
            assert type(raised) is (raises or type(None))
        if raised is None:
            assert outcome.succeeded and outcome.error is None
            assert outcome.rows == result.rows
            assert outcome.result.fields == result.fields
            assert outcome.simulated_seconds == result.simulated_seconds
            degraded = QueryStatus.DEGRADED if result.degraded else QueryStatus.OK
            assert outcome.status is degraded
        else:
            assert type(outcome.error) is type(raised)
            assert outcome.status is classify(raised)
            assert outcome.result is None
        assert _span_names(lenient.last_trace) == _span_names(strict.last_trace)
        assert bool(_span_names(strict.last_trace)) == tracing
        assert sorted(lenient.store.table_names()) == sorted(
            strict.store.table_names()
        )
    if name == "site-crash-degraded":
        assert outcome.status is QueryStatus.DEGRADED


# -- the exception -> status table -------------------------------------------


@pytest.mark.parametrize(
    "error, status",
    [
        (SiteFailureError("x"), QueryStatus.FAILED_SITE),
        (ExchangeLostError("x"), QueryStatus.FAILED_SITE),
        (FragmentOomError("x"), QueryStatus.FAILED_SITE),
        (ExecutionTimeoutError("x"), QueryStatus.TIMED_OUT),
        (QueryDeadlineError("x"), QueryStatus.TIMED_OUT),
        (UnsupportedSqlError("x"), QueryStatus.UNSUPPORTED),
        (PlannerDefectError("x"), QueryStatus.PLANNER_DEFECT),
        (PlanningTimeoutError("x"), QueryStatus.PLANNING_FAILED),
        (SqlSyntaxError("x"), QueryStatus.ERROR),
        (ValidationError("x"), QueryStatus.ERROR),
        (CatalogError("x"), QueryStatus.ERROR),
        (StorageError("x"), QueryStatus.ERROR),
        (ExecutionError("x"), QueryStatus.ERROR),
        (ReproError("x"), QueryStatus.ERROR),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_status_table(error, status):
    assert classify(error) is status


def test_status_table_lists_subclasses_before_their_bases():
    classes = [cls for cls, _ in STATUS_BY_ERROR]
    for index, cls in enumerate(classes):
        assert not any(issubclass(cls, earlier) for earlier in classes[:index])
    assert classes[-1] is ReproError


# -- what only one face used to do -------------------------------------------


class TestSharedPipelineBugfixes:
    def test_try_sql_runs_the_differential_harness(self, monkeypatch):
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential,
            "compare_results",
            lambda engine_rows, reference_rows, logical=None: "forced",
        )
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(verify_execution=True)
        )
        with pytest.raises(ResultMismatchError):
            cluster.try_sql(JOIN)

    def test_try_sql_falls_through_a_skipped_check(self, monkeypatch):
        monkeypatch.setattr(budget, "PLANNING_BUDGET", 5)
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(verify_execution=True)
        )
        outcome = cluster.try_sql(JOIN)
        assert outcome.status is QueryStatus.PLANNING_FAILED

    def test_explain_analyze_lets_a_plan_invariant_error_escape(
        self, monkeypatch
    ):
        from repro.planner.volcano import QueryPlanner

        plan = QueryPlanner.plan

        def corrupt(self, logical):
            physical = plan(self, logical)
            physical._rows_est = float("nan")  # behind costed()
            return physical

        monkeypatch.setattr(QueryPlanner, "plan", corrupt)
        # The engine's own validation, not the suite-wide wrapper's.
        monkeypatch.setattr(
            ExecutionEngine, "execute", ExecutionEngine.execute.__wrapped__
        )
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(verify_execution=True)
        )
        for statement in (JOIN, "explain analyze " + JOIN):
            with pytest.raises(PlanInvariantError):
                cluster.try_sql(statement)

    def test_an_execution_time_repro_error_is_classified(
        self, monkeypatch, execution_backend
    ):
        def broken_route(self, run, fragment, site, out):
            raise ExecutionError("cannot route to distribution ???")

        monkeypatch.setattr(ExecutionEngine, "_route", broken_route)
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(execution_backend=execution_backend)
        )
        outcome = cluster.try_sql(JOIN)
        assert outcome.status is QueryStatus.ERROR
        assert isinstance(outcome.error, ExecutionError)
        with pytest.raises(ExecutionError):
            cluster.sql(JOIN)


# -- the verify stage ----------------------------------------------------------


def _force_divergence(monkeypatch):
    import repro.verify.differential as differential

    monkeypatch.setattr(
        differential,
        "compare_results",
        lambda engine_rows, reference_rows, logical=None: "forced",
    )


class TestVerifyStage:
    VERIFIED = SystemConfig.ic_plus(4).with_(verify_execution=True)

    def test_a_verified_query_is_served_from_the_plan_cache(self):
        cluster = make_company_cluster(self.VERIFIED.with_(**ADAPTIVE))
        cached = [cluster.try_sql(JOIN).plan_cached for _ in range(3)]
        assert cached == [False, True, True]
        assert len(cluster.adaptive.feedback) > 0

    def test_a_cache_hit_is_verified(self, monkeypatch):
        cluster = make_company_cluster(self.VERIFIED.with_(**ADAPTIVE))
        assert cluster.try_sql(JOIN).ok
        _force_divergence(monkeypatch)
        with pytest.raises(ResultMismatchError) as raised:
            cluster.try_sql(JOIN)
        assert raised.value.sql == JOIN and raised.value.detail == "forced"
        assert get_registry().counter("plan_cache.hits") == 1

    def test_a_midquery_replanned_run_is_verified(self, monkeypatch):
        from repro.bench.midquery import MIDQUERY_QUERIES, load_skewed_cluster

        cluster = load_skewed_cluster(
            self.VERIFIED.with_(midquery_reoptimization=True), 0.1
        )
        result = cluster.sql(MIDQUERY_QUERIES["MQ1"])
        assert get_registry().counter("midquery.replans") >= 1
        assert any(f.replanned for f in result.fragment_trees)
        _force_divergence(monkeypatch)
        with pytest.raises(ResultMismatchError):
            cluster.sql(MIDQUERY_QUERIES["MQ1"])

    def test_a_degraded_run_is_the_one_verified(self, monkeypatch):
        import repro.verify.differential as differential

        cluster = make_company_cluster(
            self.VERIFIED.with_(faults=(SiteCrash(1, at=0.0),))
        )
        ran, compared = [], []
        execute = ExecutionEngine.execute

        def remember(self, plan, **kwargs):
            ran.append(execute(self, plan, **kwargs))
            return ran[-1]

        def diverge(engine_rows, reference_rows, logical=None):
            compared.append(engine_rows)
            return "forced"

        monkeypatch.setattr(ExecutionEngine, "execute", remember)
        monkeypatch.setattr(differential, "compare_results", diverge)
        with pytest.raises(ResultMismatchError):
            cluster.try_sql(JOIN)
        # Planned and executed once — there is no fault-free twin — and
        # the rows handed to the oracle are that one degraded run's.
        registry = get_registry()
        assert registry.counter("exec.queries") == 1
        assert registry.counter("planner.queries_planned") == 1
        (result,), (rows,) = ran, compared
        assert result.degraded and rows is result.rows

    @pytest.mark.parametrize(
        "name", ["budget-exhausted", "runtime-limit", "unsupported-sql", "explain"]
    )
    def test_the_flag_changes_no_classification(self, name, monkeypatch):
        overrides, statement, _ = STATEMENTS[name]
        config = _configure(overrides, monkeypatch)
        plain = make_company_cluster(config).try_sql(statement)
        # EXPLAIN stays unverified: even a forced divergence passes.
        _force_divergence(monkeypatch)
        verified = make_company_cluster(
            config.with_(verify_execution=True)
        ).try_sql(statement)
        assert verified.status is plain.status
        assert type(verified.error) is type(plain.error)
        assert verified.succeeded == plain.succeeded
        if plain.succeeded:
            assert verified.rows == plain.rows


# -- per-query values stay per query -----------------------------------------


class TestNoSideChannels:
    def test_serving_a_cached_plan_writes_nothing_onto_it(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        assert not cluster.try_sql(AGG).plan_cached
        (entry,) = cluster.adaptive.cache._entries.values()
        stored = {id(n): sorted(vars(n)) for n in walk_physical(entry.plan)}
        for _ in range(3):
            outcome = cluster.try_sql(AGG)
            assert outcome.plan_cached
        (served,) = cluster.adaptive.cache._entries.values()
        assert served.plan is entry.plan
        assert get_registry().counter("plan_cache.hits") == 3
        assert {id(n): sorted(vars(n)) for n in walk_physical(entry.plan)} == stored

    def test_plan_cached_survives_a_failed_execution(self, monkeypatch):
        monkeypatch.setattr(constants, "RUNTIME_LIMIT_SECONDS", 1e-9)
        cluster = make_company_cluster(SystemConfig.ic_plus(4, plan_cache=True))
        first, second = cluster.try_sql(JOIN), cluster.try_sql(JOIN)
        assert first.status is second.status is QueryStatus.TIMED_OUT
        assert (first.plan_cached, second.plan_cached) == (False, True)

    def test_the_engine_holds_no_state_between_queries(self):
        cluster = make_company_cluster(SystemConfig.ic_plus(4, **ADAPTIVE))
        before = dict(vars(cluster._engine))
        cluster.sql(JOIN)
        cluster.try_sql("select * from nowhere")
        assert vars(cluster._engine) == before

    def test_a_failed_run_carries_its_completed_prefix(self):
        config = SystemConfig.ic_plus(4).with_(query_deadline_seconds=1e-9)
        cluster = make_company_cluster(config)
        with pytest.raises(QueryDeadlineError) as raised:
            cluster.sql(JOIN)
        fragments, actuals = raised.value.partial
        assert fragments and fragments[-1].is_root
        assert set(actuals) == {
            op.op_id for fragment in fragments for op in fragment.operators()
        }
        # ... and an error raised before anything ran carries none.
        dead = make_company_cluster(
            SystemConfig.ic_plus(4).with_(faults=EVERY_SITE_DEAD)
        )
        assert dead.try_sql(JOIN).error.partial is None
