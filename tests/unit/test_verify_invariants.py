"""Unit tests for the physical-plan invariant validator."""

import pytest

from helpers import make_company_store
from repro.common.config import SystemConfig
from repro.common.errors import PlanInvariantError
from repro.exec.fragments import PhysReceiver, SenderSpec, fragment_plan
from repro.exec.physical import DEGRADED_HASH_KEY, PhysExchange
from repro.planner.volcano import QueryPlanner
from repro.rel.sql2rel import SqlToRelConverter
from repro.rel.traits import Distribution
from repro.sql.parser import parse
from repro.verify.invariants import PlanValidator

JOIN_SQL = (
    "select e.name, s.amount from emp e, sales s "
    "where e.emp_id = s.emp_id and s.amount > 100"
)
AGG_SQL = (
    "select region, count(*), sum(amount) from sales "
    "group by region order by region"
)


@pytest.fixture
def store():
    return make_company_store(sites=4)


def plan_for(store, sql, config=None):
    config = config or SystemConfig.ic_plus(4)
    logical = SqlToRelConverter(store.catalog).convert(parse(sql))
    return QueryPlanner(store, config).plan(logical)


def rules(violations):
    return {v.rule for v in violations}


class TestCleanPlans:
    @pytest.mark.parametrize("sql", [JOIN_SQL, AGG_SQL])
    @pytest.mark.parametrize("system", ["IC", "IC+", "IC+M"])
    def test_planner_output_is_violation_free(self, store, sql, system):
        from repro.common.config import PRESETS

        plan = plan_for(store, sql, PRESETS[system](4))
        validator = PlanValidator()
        assert validator.validate_plan(plan) == []
        assert validator.validate_fragments(fragment_plan(plan)) == []

    def test_check_passes_silently_on_clean_plan(self, store):
        PlanValidator().check(plan_for(store, JOIN_SQL))

    def test_degraded_hash_key_is_whitelisted(self, store):
        # The planner's degraded-hash marker is a synthetic key far beyond
        # any real column index; the width check must not flag it.
        plan = plan_for(store, JOIN_SQL)
        node = next(iter(plan.inputs), plan)
        node.distribution = Distribution.hash((DEGRADED_HASH_KEY,))
        assert "distribution-keys-in-range" not in rules(
            PlanValidator().validate_plan(plan)
        )


class TestNodeInvariants:
    def test_nan_rows_estimate_is_flagged(self, store):
        plan = plan_for(store, JOIN_SQL)
        plan._rows_est = float("nan")  # corrupt behind costed()
        assert "rows-est-sane" in rules(PlanValidator().validate_plan(plan))

    def test_negative_rows_estimate_is_flagged(self, store):
        plan = plan_for(store, JOIN_SQL)
        plan._rows_est = -3.0  # corrupt behind costed()
        assert "rows-est-sane" in rules(PlanValidator().validate_plan(plan))

    def test_stale_cumulative_cost_is_flagged(self, store):
        from repro.cost.model import Cost

        plan = plan_for(store, JOIN_SQL)
        assert "cumulative-cost-consistent" not in rules(
            PlanValidator().validate_plan(plan)
        )
        # Re-cost a node behind costed()'s back: its kept total goes stale.
        plan._self_cost = plan._self_cost + Cost(cpu=1.0)
        assert "cumulative-cost-consistent" in rules(
            PlanValidator().validate_plan(plan)
        )

    def test_out_of_range_hash_key_is_flagged(self, store):
        plan = plan_for(store, JOIN_SQL)
        plan.distribution = Distribution.hash((plan.width + 5,))
        assert "distribution-keys-in-range" in rules(
            PlanValidator().validate_plan(plan)
        )

    def test_non_single_root_distribution_is_flagged(self, store):
        plan = plan_for(store, JOIN_SQL)
        plan.distribution = Distribution.hash((0,))
        assert "root-distribution" in rules(
            PlanValidator().validate_plan(plan)
        )

    def test_schema_preserving_operator_with_extra_field(self, store):
        plan = plan_for(store, AGG_SQL)
        exchanges = [
            node
            for node in _walk(plan)
            if isinstance(node, PhysExchange)
        ]
        assert exchanges, "expected a distributed aggregate plan"
        exchanges[0].fields = list(exchanges[0].fields) + ["phantom"]
        assert "schema-preserved" in rules(
            PlanValidator().validate_plan(plan)
        )

    def test_check_raises_with_violations_attached(self, store):
        plan = plan_for(store, JOIN_SQL)
        plan._rows_est = float("inf")  # corrupt behind costed()
        with pytest.raises(PlanInvariantError) as excinfo:
            PlanValidator().check(plan)
        assert any(v.rule == "rows-est-sane" for v in excinfo.value.violations)


class TestFragmentInvariants:
    def test_clean_fragments(self, store):
        plan = plan_for(store, JOIN_SQL)
        assert PlanValidator().validate_fragments(fragment_plan(plan)) == []

    def test_missing_root_fragment(self, store):
        fragments = fragment_plan(plan_for(store, JOIN_SQL))
        non_root = [f for f in fragments if not f.is_root]
        assert non_root
        found = rules(PlanValidator().validate_fragments(non_root))
        assert "single-root-fragment" in found

    def test_dangling_receiver_and_unconsumed_sender(self, store):
        fragments = fragment_plan(plan_for(store, JOIN_SQL))
        receiver = next(
            node
            for fragment in fragments
            for node in fragment.operators()
            if isinstance(node, PhysReceiver)
        )
        receiver.exchange_id = 999_001
        found = rules(PlanValidator().validate_fragments(fragments))
        assert "receiver-has-sender" in found
        assert "sender-has-receiver" in found

    def test_sender_targeting_any_distribution(self, store):
        fragments = fragment_plan(plan_for(store, JOIN_SQL))
        child = next(f for f in fragments if not f.is_root)
        child.sender = SenderSpec(
            child.sender.exchange_id,
            Distribution.any(),
            child.sender.merge_collation,
        )
        found = rules(PlanValidator().validate_fragments(fragments))
        assert "sender-target-concrete" in found

    def test_receiver_distribution_must_match_sender(self, store):
        fragments = fragment_plan(plan_for(store, JOIN_SQL))
        child = next(f for f in fragments if not f.is_root)
        child.sender = SenderSpec(
            child.sender.exchange_id,
            Distribution.broadcast()
            if not child.sender.target.is_broadcast
            else Distribution.single(),
            child.sender.merge_collation,
        )
        found = rules(PlanValidator().validate_fragments(fragments))
        assert "receiver-distribution-matches-sender" in found

    def test_child_ids_must_mirror_receivers(self, store):
        fragments = fragment_plan(plan_for(store, JOIN_SQL))
        consumer = next(f for f in fragments if f.child_ids)
        consumer.child_ids = list(consumer.child_ids) + [42]
        found = rules(PlanValidator().validate_fragments(fragments))
        assert "child-ids-match-receivers" in found


class TestExecutionResultInvariant:
    """The root fragment's ``rows_out`` must equal the result row count."""

    @pytest.fixture
    def result(self):
        from helpers import make_company_cluster

        cluster = make_company_cluster(SystemConfig.ic_plus(4))
        return cluster.sql(JOIN_SQL)

    def test_clean_execution_passes(self, result):
        from repro.verify.invariants import validate_execution_result

        assert validate_execution_result(result) == []

    def test_rows_out_drift_is_flagged(self, result):
        from repro.verify.invariants import validate_execution_result

        root = next(f for f in result.fragment_trees if f.is_root)
        stats = next(
            s for s in result.fragments if s.fragment_id == root.fragment_id
        )
        stats.rows_out += 1  # the PR-2 class of accounting bug
        assert rules(validate_execution_result(result)) == {
            "root-rows-out-matches-result"
        }

    def test_check_raises_on_drift(self, result):
        from repro.verify.invariants import check_execution_result

        root = next(f for f in result.fragment_trees if f.is_root)
        stats = next(
            s for s in result.fragments if s.fragment_id == root.fragment_id
        )
        stats.rows_out = len(result.rows) + 7
        with pytest.raises(PlanInvariantError, match="rows_out"):
            check_execution_result(result)

    def test_missing_root_stats_is_flagged(self, result):
        from repro.verify.invariants import validate_execution_result

        root = next(f for f in result.fragment_trees if f.is_root)
        result.fragments = [
            s for s in result.fragments if s.fragment_id != root.fragment_id
        ]
        assert rules(validate_execution_result(result)) == {
            "root-fragment-has-stats"
        }


def _walk(plan):
    from repro.exec.physical import walk_physical

    return walk_physical(plan)
