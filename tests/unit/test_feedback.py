"""Unit tests for the cardinality feedback registry (repro.adaptive)."""

import pytest

from repro.adaptive.feedback import FeedbackRegistry
from repro.adaptive.signature import operator_signature
from repro.common.config import SystemConfig
from repro.exec.physical import PhysIndexScan
from repro.obs.metrics import get_registry
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import LogicalFilter, LogicalTableScan
from repro.stats.estimator import Estimator

from helpers import (
    INDEXED_EQUALITY_SPELLINGS,
    make_company_cluster,
    make_company_store,
    make_indexed_cluster,
)

pytestmark = pytest.mark.adaptive


@pytest.fixture(scope="module")
def store():
    return make_company_store()


def scan(store, table):
    schema = store.table(table).schema
    return LogicalTableScan(table, table, schema.column_names)


class TestRecordLookup:
    def test_latest_observation_wins(self):
        registry = FeedbackRegistry()
        registry.record("sig", 100.0)
        registry.record("sig", 250.0)
        assert registry.lookup("sig") == 250.0
        assert len(registry) == 1

    def test_negative_rows_clamped(self):
        registry = FeedbackRegistry()
        registry.record("sig", -5)
        assert registry.lookup("sig") == 0.0

    def test_row_override_via_signature(self, store):
        registry = FeedbackRegistry()
        node = LogicalFilter(
            scan(store, "emp"), BinaryOp("=", ColRef(1), Literal(3))
        )
        signature = operator_signature(node)
        registry.record(signature, 77.0)
        assert registry.row_override(node) == 77.0
        # a different literal is a different operator — no override
        other = LogicalFilter(
            scan(store, "emp"), BinaryOp("=", ColRef(1), Literal(4))
        )
        assert registry.row_override(other) is None

    def test_clear(self):
        registry = FeedbackRegistry()
        registry.record("sig", 1.0)
        registry.clear()
        assert len(registry) == 0


class TestHarvest:
    def test_harvest_records_scans_and_joins(self):
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4, cardinality_feedback=True)
        )
        cluster.sql(
            "select e.name, s.amount from emp e, sales s "
            "where e.emp_id = s.emp_id"
        )
        feedback = cluster.adaptive.feedback
        sigs = list(feedback._entries)
        assert any(s.startswith("S(emp/e)") for s in sigs)
        assert any(s.startswith("J(inner") for s in sigs)
        # join keys descend across the fragment seam to real children,
        # never to an opaque receiver digest
        assert not any("PReceiver" in s for s in sigs)
        assert get_registry().counter("adaptive.feedback_observations") > 0

    def test_broadcast_actuals_are_not_harvested(self):
        """dept is replicated: every site scans a full copy, so the summed
        actual over-counts and must not be recorded."""
        cluster = make_company_cluster(
            SystemConfig.ic_plus(4, cardinality_feedback=True)
        )
        cluster.sql(
            "select e.name, d.dept_name from emp e, dept d "
            "where e.dept_id = d.dept_id"
        )
        feedback = cluster.adaptive.feedback
        for signature, entry in feedback._entries.items():
            if signature == "S(dept/d)":
                pytest.fail(f"broadcast scan harvested: {entry}")

    def test_estimator_consumes_override(self, store):
        registry = FeedbackRegistry()
        node = LogicalFilter(
            scan(store, "emp"), BinaryOp("=", ColRef(1), Literal(3))
        )
        registry.record(operator_signature(node), 90.0)
        plain = Estimator(store, fixed_join_estimation=True)
        fed = Estimator(store, fixed_join_estimation=True, feedback=registry)
        assert plain.row_count(node) != 90.0
        assert fed.row_count(node) == 90.0
        assert get_registry().counter("adaptive.feedback_overrides") == 1.0


class TestIndexRangeScanFeedback:
    """Regression: the predicate an index range scan absorbed used to be
    rebuilt from its bounds, so ``g = 3`` was observed as ``g >= 3 AND
    g <= 3`` and the observation never matched the logical filter."""

    @pytest.mark.parametrize("where", INDEXED_EQUALITY_SPELLINGS)
    def test_second_planning_is_overridden(self, where):
        cluster = make_indexed_cluster(
            SystemConfig.ic_plus(4, cardinality_feedback=True)
        )
        sql = f"select id from t where {where}"
        first = cluster.sql(sql)
        assert any(
            isinstance(op, PhysIndexScan) and op.is_range_scan
            for fragment in first.fragment_trees
            for op in fragment.operators()
        )
        before = get_registry().counter("adaptive.feedback_overrides")
        second = cluster.sql(sql)
        assert get_registry().counter("adaptive.feedback_overrides") > before
        assert sorted(second.rows) == sorted(first.rows)
