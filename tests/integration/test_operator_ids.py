"""Plan-time operator ids: the one accounting key of an execution.

``fragment_plan`` numbers every operator as its fragment is born; work
units, rows in/out, variant scaling and ``operator_actuals`` are keyed by
that id, never by object identity — so the actuals serialise, and two
plannings of one query agree on which number means which operator.
"""

import json

import pytest

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS
from repro.exec.engine import OperatorActuals
from repro.exec.fragments import fragment_plan
from repro.exec.physical import walk_physical
from repro.verify.invariants import PlanValidator

JOIN_SQL = (
    "select c_mktsegment, count(*) from customer, orders "
    "where c_custkey = o_custkey group by c_mktsegment"
)


@pytest.fixture(scope="module", params=["IC", "IC+", "IC+M"])
def cluster(request):
    return load_tpch_cluster(PRESETS[request.param](4), 0.02)


def numbered(fragments):
    return [
        (fragment.fragment_id, op.op_id, type(op).__name__)
        for fragment in fragments
        for op in fragment.operators()
    ]


def test_ids_are_unique_across_the_fragments_of_a_query(cluster):
    checked = 0
    for qid in (3, 5, 10, 12, 18):
        outcome = cluster.try_sql(QUERIES[qid].sql)
        if not outcome.ok:  # IC cannot plan or finish every query
            continue
        result = outcome.result
        assert len(result.fragment_trees) > 1
        ids = [op_id for _, op_id, _ in numbered(result.fragment_trees)]
        assert sorted(ids) == list(range(len(ids)))
        assert set(ids) == set(result.operator_actuals)
        checked += 1
    assert checked >= 2


def test_two_plannings_of_one_query_number_alike(cluster):
    first = cluster.sql(JOIN_SQL)
    second = cluster.sql(JOIN_SQL)
    assert numbered(first.fragment_trees) == numbered(second.fragment_trees)
    assert first.operator_actuals == second.operator_actuals


def test_fragment_trees_own_their_nodes(cluster):
    """Leaves are copied like inner nodes, so numbering a fragment tree
    never writes to the (possibly cached) plan it was cut from."""
    plan = cluster.plan_sql(JOIN_SQL)
    plan_nodes = {id(node) for node in walk_physical(plan)}
    for fragments in (fragment_plan(plan), fragment_plan(plan, 7, 7, 100)):
        for fragment in fragments:
            for op in fragment.operators():
                assert id(op) not in plan_nodes
    assert not any(hasattr(node, "op_id") for node in walk_physical(plan))
    assert min(op_id for _, op_id, _ in numbered(fragments)) == 100


def test_operator_actuals_round_trip_through_json(cluster):
    actuals = cluster.sql(JOIN_SQL).operator_actuals
    loaded = json.loads(json.dumps(actuals))
    assert {
        int(op_id): OperatorActuals(*values) for op_id, values in loaded.items()
    } == actuals


class TestValidatorRule:
    def rules(self, fragments):
        return {v.rule for v in PlanValidator().validate_fragments(fragments)}

    def test_every_plannable_tpch_plan_passes(self, cluster):
        for query in QUERIES.values():
            outcome = cluster.try_sql("EXPLAIN " + query.sql)
            if not outcome.ok:
                continue
            plan = cluster.plan_sql(query.sql)
            assert "operator-ids-unique" not in self.rules(fragment_plan(plan))

    def test_a_missing_id_is_reported(self, cluster):
        fragments = fragment_plan(cluster.plan_sql(JOIN_SQL))
        del fragments[0].root.op_id
        assert "operator-ids-unique" in self.rules(fragments)

    def test_a_repeated_id_is_reported(self, cluster):
        fragments = fragment_plan(cluster.plan_sql(JOIN_SQL))
        fragments[0].root.op_id = fragments[-1].root.op_id
        assert "operator-ids-unique" in self.rules(fragments)

    def test_a_node_reachable_twice_is_reported(self, cluster):
        fragments = fragment_plan(cluster.plan_sql(JOIN_SQL))
        shared, root = fragments[0].root, fragments[-1].root
        fragments[-1].root = root.copy([shared] + list(root.inputs[1:]))
        fragments[-1].root.op_id = root.op_id
        assert "operator-ids-unique" in self.rules(fragments)
