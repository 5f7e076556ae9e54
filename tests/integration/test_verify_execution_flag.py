"""The ``SystemConfig.verify_execution`` flag end to end.

With the flag on, the engine validates every plan it is about to execute
and the statement pipeline diffs the rows it is about to return against
the reference executor; with it off, neither check runs (production
behaviour).
"""

import pytest

from helpers import make_company_cluster, make_company_store
from repro.common.config import SystemConfig
from repro.common.errors import (
    PlanInvariantError,
    ResultMismatchError,
    VerificationError,
)
from repro.exec.engine import ExecutionEngine
from repro.planner.volcano import QueryPlanner
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql.parser import parse

SQL = (
    "select e.name, s.amount from emp e, sales s "
    "where e.emp_id = s.emp_id"
)


def raw_execute():
    """The engine's own execute, bypassing the suite-wide validator wrap."""
    return getattr(
        ExecutionEngine.execute, "__wrapped__", ExecutionEngine.execute
    )


class TestEngineFlag:
    def test_flag_rejects_malformed_plan(self):
        config = SystemConfig.ic_plus(4).with_(verify_execution=True)
        store = make_company_store(sites=4)
        logical = SqlToRelConverter(store.catalog).convert(parse(SQL))
        plan = QueryPlanner(store, config).plan(logical)
        plan._rows_est = float("nan")  # corrupt behind costed()
        engine = ExecutionEngine(store, config)
        with pytest.raises(PlanInvariantError):
            raw_execute()(engine, plan)

    def test_without_flag_malformed_estimate_still_executes(self):
        # A bad estimate is an accounting defect, not an execution error;
        # production runs must not pay the validation cost or refuse.
        config = SystemConfig.ic_plus(4)
        store = make_company_store(sites=4)
        logical = SqlToRelConverter(store.catalog).convert(parse(SQL))
        plan = QueryPlanner(store, config).plan(logical)
        plan._rows_est = float("nan")  # corrupt behind costed()
        engine = ExecutionEngine(store, config)
        result = raw_execute()(engine, plan)
        assert len(result.rows) == 500

    def test_flag_passes_clean_plan_through(self):
        config = SystemConfig.ic_plus(4).with_(verify_execution=True)
        store = make_company_store(sites=4)
        logical = SqlToRelConverter(store.catalog).convert(parse(SQL))
        plan = QueryPlanner(store, config).plan(logical)
        engine = ExecutionEngine(store, config)
        result = raw_execute()(engine, plan)
        assert len(result.rows) == 500


class TestClusterFlag:
    def test_sql_runs_differentially_and_returns_rows(self):
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(verify_execution=True)
        )
        result = cluster.sql(SQL)
        assert len(result.rows) == 500
        assert result.simulated_seconds > 0

    def test_sql_raises_verification_error_on_divergence(self, monkeypatch):
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential,
            "compare_results",
            lambda engine_rows, reference_rows, logical=None: "forced",
        )
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4).with_(verify_execution=True)
        )
        with pytest.raises(ResultMismatchError) as excinfo:
            cluster.sql(SQL)
        assert isinstance(excinfo.value, VerificationError)
        assert SQL in excinfo.value.sql

    def test_sql_unverified_by_default(self, monkeypatch):
        # The oracle must not run unless the flag is set.
        import repro.core.cluster as cluster_module

        def explode(*args, **kwargs):
            raise AssertionError("the oracle ran without the flag")

        monkeypatch.setattr(cluster_module, "oracle_detail", explode)
        cluster = make_company_cluster(SystemConfig.ic_plus(4))
        assert len(cluster.sql(SQL).rows) == 500
