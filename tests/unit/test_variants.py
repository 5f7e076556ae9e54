"""Unit tests for Algorithm 3 (variant-fragment classification)."""

import pytest

from repro.exec.fragments import (
    Fragment,
    PhysReceiver,
    SenderSpec,
    fragment_plan,
    number_operators,
)
from repro.exec.physical import (
    AggPhase,
    PhysExchange,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysProject,
    PhysTableScan,
)
from repro.exec.variants import DUPLICATE, SOURCE, SPLIT, plan_variants
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import AggCall, AggFunc, JoinType
from repro.rel.traits import Distribution


def scan(name="t", rows=1000.0, sites=4):
    return PhysTableScan(
        name, name, [f"{name}.a", f"{name}.b"], Distribution.hash((0,)), sites
    ).costed(rows)


def fragment(root, is_root=False):
    sender = None if is_root else SenderSpec(0, Distribution.single())
    number_operators(root)
    return Fragment(fragment_id=0, root=root, sender=sender)


class TestEligibility:
    def test_root_fragment_is_skipped(self):
        assert plan_variants(fragment(scan(), is_root=True)) is None

    def test_plain_scan_fragment_is_eligible(self):
        assert plan_variants(fragment(scan())) is not None

    def test_single_phase_aggregate_blocks_variants(self):
        agg = PhysHashAggregate(
            scan(), (0,), (AggCall(AggFunc.COUNT, None),),
            AggPhase.SINGLE, Distribution.single(),
        )
        assert plan_variants(fragment(agg)) is None

    def test_reduce_aggregate_blocks_variants(self):
        agg = PhysHashAggregate(
            scan(), (0,), (AggCall(AggFunc.COUNT, None),),
            AggPhase.REDUCE, Distribution.single(),
        )
        assert plan_variants(fragment(agg)) is None

    def test_map_aggregate_is_allowed(self):
        """MAP phases emit mergeable partials; only reductions are pinned."""
        agg = PhysHashAggregate(
            scan(), (0,), (AggCall(AggFunc.SUM, ColRef(1)),),
            AggPhase.MAP, Distribution.hash((0,)),
        )
        plan = plan_variants(fragment(agg))
        assert plan is not None
        assert plan.scaling[agg.op_id] == SPLIT


class TestClassification:
    def test_sources_read_fully(self):
        node = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(1)))
        plan = plan_variants(fragment(node))
        assert plan.scaling[node.input.op_id] == SOURCE
        assert plan.scaling[node.op_id] == SPLIT

    def test_inner_join_splits_heavier_side(self):
        big = scan("big", rows=10_000)
        small = scan("small", rows=10)
        join = PhysHashJoin(
            small, big, [(0, 0)], None, JoinType.INNER, Distribution.hash((0,))
        ).costed(10_000)
        plan = plan_variants(fragment(join))
        # The heavier (right) side continues in split mode: operators above
        # the small side would be duplicated.
        above_small = PhysFilter(small, BinaryOp("=", ColRef(0), Literal(1)))
        join2 = PhysHashJoin(
            above_small, big, [(0, 0)], None, JoinType.INNER,
            Distribution.hash((0,)),
        )
        plan2 = plan_variants(fragment(join2))
        assert plan2.scaling[above_small.op_id] == DUPLICATE

    def test_semi_join_always_splits_left(self):
        """A split right side would emit the same left row from several
        variants — semi/anti joins must duplicate the right input."""
        big = scan("big", rows=10_000)
        left_filter = PhysFilter(
            scan("probe", rows=10), BinaryOp("=", ColRef(0), Literal(1))
        )
        join = PhysHashJoin(
            left_filter, big, [(0, 0)], None, JoinType.SEMI,
            Distribution.hash((0,)),
        )
        plan = plan_variants(fragment(join))
        assert plan.scaling[left_filter.op_id] == SPLIT

    def test_anti_join_duplicates_right(self):
        right_filter = PhysFilter(
            scan("r", rows=50_000), BinaryOp("=", ColRef(0), Literal(1))
        )
        join = PhysHashJoin(
            scan("l"), right_filter, [(0, 0)], None, JoinType.ANTI,
            Distribution.hash((0,)),
        )
        plan = plan_variants(fragment(join))
        assert plan.scaling[right_filter.op_id] == DUPLICATE

    def test_receiver_is_a_source(self):
        receiver = PhysReceiver(0, ["x"], Distribution.single()).costed(10)
        node = PhysProject(receiver, [ColRef(0)], ["x"])
        plan = plan_variants(fragment(node))
        assert plan.scaling[receiver.op_id] == SOURCE


class TestFactors:
    def test_split_factor(self):
        node = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(1)))
        plan = plan_variants(fragment(node))
        assert plan.factor(node, variants=2) == pytest.approx(0.5)

    def test_source_factor_is_full(self):
        inner = scan()
        node = PhysFilter(inner, BinaryOp("=", ColRef(0), Literal(1)))
        plan = plan_variants(fragment(node))
        assert plan.factor(inner, variants=2) == 1.0

    def test_duplicate_factor_is_full(self):
        dup = PhysFilter(scan("s", rows=1), BinaryOp("=", ColRef(0), Literal(1)))
        join = PhysHashJoin(
            dup, scan("big", rows=9999), [(0, 0)], None, JoinType.INNER,
            Distribution.hash((0,)),
        )
        plan = plan_variants(fragment(join))
        assert plan.factor(dup, variants=4) == 1.0
