"""Unit tests for Algorithm 1 (execution-plan fragmentation)."""

import pytest

from repro.exec.fragments import Fragment, PhysReceiver, fragment_plan
from repro.exec.physical import (
    PhysExchange,
    PhysFilter,
    PhysHashJoin,
    PhysTableScan,
    PhysValues,
)
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import JoinType
from repro.rel.traits import Collation, Distribution


def scan(name="t", dist=None, sites=4):
    return PhysTableScan(
        name, name, [f"{name}.a", f"{name}.b"],
        dist or Distribution.hash((0,)), sites,
    )


class TestFragmentation:
    def test_no_exchange_yields_single_fragment(self):
        plan = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(1)))
        fragments = fragment_plan(plan)
        assert len(fragments) == 1
        assert fragments[0].is_root

    def test_one_exchange_splits_into_two(self):
        exchange = PhysExchange(scan(), Distribution.single())
        fragments = fragment_plan(exchange)
        assert len(fragments) == 2
        child, root = fragments
        assert not child.is_root and root.is_root
        assert child.sender.target.is_single
        assert isinstance(root.root, PhysReceiver)
        assert root.child_ids == [child.fragment_id]

    def test_receiver_carries_exchange_identity(self):
        exchange = PhysExchange(scan(), Distribution.single())
        fragments = fragment_plan(exchange)
        receiver = fragments[1].root
        assert receiver.exchange_id == fragments[0].sender.exchange_id

    def test_merging_exchange_keeps_collation_on_receiver(self):
        collation = Collation(((0, True),))
        exchange = PhysExchange(scan(), Distribution.single(), collation)
        fragments = fragment_plan(exchange)
        assert fragments[1].root.collation == collation

    def test_join_with_two_exchanges_yields_three_fragments(self):
        left = PhysExchange(scan("a"), Distribution.single())
        right = PhysExchange(scan("b"), Distribution.single())
        join = PhysHashJoin(
            left, right, [(0, 0)], None, JoinType.INNER, Distribution.single()
        )
        fragments = fragment_plan(join)
        assert len(fragments) == 3
        root = fragments[-1]
        assert root.is_root
        assert sorted(root.child_ids) == [0, 1]
        # The root fragment's join now reads from two receivers.
        join_node = root.root
        assert all(isinstance(c, PhysReceiver) for c in join_node.inputs)

    def test_nested_exchanges(self):
        inner = PhysExchange(scan(), Distribution.hash((0,)))
        outer = PhysExchange(
            PhysFilter(inner, BinaryOp("=", ColRef(0), Literal(1))),
            Distribution.single(),
        )
        fragments = fragment_plan(outer)
        assert len(fragments) == 3
        middle = fragments[1]
        assert middle.child_ids == [fragments[0].fragment_id]

    def test_fragments_listed_children_first(self):
        exchange = PhysExchange(scan(), Distribution.single())
        fragments = fragment_plan(exchange)
        seen = set()
        for fragment in fragments:
            for child in fragment.child_ids:
                assert child in seen
            seen.add(fragment.fragment_id)

    def test_original_plan_not_mutated(self):
        exchange = PhysExchange(scan(), Distribution.single())
        fragment_plan(exchange)
        assert isinstance(exchange.input, PhysTableScan)

    def test_explain_renders(self):
        exchange = PhysExchange(scan(), Distribution.single())
        fragments = fragment_plan(exchange)
        assert "Fragment" in fragments[0].explain()
        assert "RootFragment" in fragments[1].explain()

    def test_ids_count_up_from_the_given_first_ids(self):
        """A spliced suffix is numbered past the ids in use at birth, so no
        receiver is renumbered after its digest could have been read."""
        inner = PhysExchange(scan(), Distribution.hash((0,)))
        outer = PhysExchange(
            PhysFilter(inner, BinaryOp("=", ColRef(0), Literal(1))),
            Distribution.single(),
        )
        fragments = fragment_plan(outer, first_fragment_id=5, first_exchange_id=7)
        assert [f.fragment_id for f in fragments] == [5, 6, 7]
        assert [f.sender.exchange_id for f in fragments[:-1]] == [7, 8]
        assert fragments[1].child_ids == [5] and fragments[2].child_ids == [6]
        for fragment in fragments:
            for op in fragment.operators():
                if isinstance(op, PhysReceiver):
                    assert f"#{op.exchange_id})" in op.digest()

    def test_rebuilt_fragments_carry_costs_and_resum_totals(self):
        from repro.cost.model import Cost
        from repro.verify.invariants import PlanValidator

        leaf = scan().costed(40.0, Cost(cpu=40.0))
        exchange = PhysExchange(leaf, Distribution.single()).costed(
            40.0, Cost(network=8.0)
        )
        plan = PhysFilter(exchange, BinaryOp("=", ColRef(0), Literal(1))).costed(
            4.0, Cost(cpu=2.0)
        )
        assert plan.total_cost().value == 50.0
        child, root = fragment_plan(plan)
        # The rebuilt filter keeps its own cost but sits on a zero-cost
        # receiver now: its total is re-summed, not the original's 50.
        assert root.root.rows_est == 4.0 and root.root.self_cost == Cost(cpu=2.0)
        assert root.root.total_cost().value == 2.0
        assert root.root.inputs[0].rows_est == 40.0
        assert root.root.digest() != plan.digest()
        assert PlanValidator().validate_fragments([child, root]) == []
