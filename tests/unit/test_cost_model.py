"""Unit tests for the cost model (Sections 3.2, 4.2, 5.1.2)."""

import math

import pytest

from repro.common.config import SystemConfig
from repro.common.constants import AFS, HAC, RCC, RPTC
from repro.cost.model import Cost, CostModel, ZERO_COST, distribution_factor
from repro.exec.physical import (
    PhysExchange,
    PhysFilter,
    PhysNestedLoopJoin,
    PhysTableScan,
    PhysValues,
)
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import JoinType
from repro.rel.traits import Distribution


def scan(sites):
    return PhysTableScan("t", "t", ["t.a"], Distribution.hash((0,)), sites)


def filtered(node):
    return PhysFilter(node, BinaryOp("=", ColRef(0), Literal(1)))


class TestCost:
    def test_equal_weighted_sum(self):
        cost = Cost(cpu=1.0, memory=2.0, io=3.0, network=4.0)
        assert cost.value == 10.0

    def test_addition(self):
        total = Cost(cpu=1.0) + Cost(memory=2.0)
        assert total.cpu == 1.0 and total.memory == 2.0

    def test_ordering(self):
        assert Cost(cpu=1.0) < Cost(cpu=2.0)

    def test_zero_cost(self):
        assert ZERO_COST.value == 0.0

    def test_value_equality(self):
        assert Cost(cpu=1.0, network=2.0) == Cost(cpu=1.0, network=2.0)
        assert Cost(cpu=1.0) != Cost(memory=1.0)
        assert hash(Cost(cpu=1.0)) == hash(Cost(cpu=1.0))


class TestDistributionFactor:
    """Algorithm 2, answered from what each node derived at construction."""

    def test_scan_without_exchange_uses_partition_sites(self):
        assert distribution_factor(scan(4)) == 4.0

    def test_exchange_anywhere_forces_one(self):
        exchange = PhysExchange(scan(4), Distribution.single())
        assert distribution_factor(filtered(exchange)) == 1.0

    def test_exchange_at_root_forces_one(self):
        assert distribution_factor(PhysExchange(scan(4), Distribution.single())) == 1.0

    def test_multiple_leaves_take_minimum(self):
        join = PhysNestedLoopJoin(
            scan(4), filtered(scan(1)), None, JoinType.INNER,
            Distribution.hash((0,)),
        )
        assert join.leaf_partition_sites == 1
        assert distribution_factor(join) == 1.0

    def test_replicated_leaf_is_one(self):
        assert distribution_factor(scan(1)) == 1.0

    def test_no_leaf_info_defaults_to_one(self):
        assert distribution_factor(PhysValues([(1,)], ["x"])) == 1.0


class TestUnitNormalisation:
    """Eq. 4 (legacy, bytes) vs Eq. 5 (normalised, rows)."""

    def test_legacy_sort_memory_scales_with_width(self):
        model = CostModel(SystemConfig.ic())
        narrow = model.sort(1000, width=2)
        wide = model.sort(1000, width=16)
        assert wide.memory == pytest.approx(narrow.memory * 8)
        assert narrow.memory == pytest.approx(1000 * 2 * AFS)

    def test_normalised_sort_memory_ignores_width(self):
        model = CostModel(SystemConfig.ic_plus())
        narrow = model.sort(1000, width=2)
        wide = model.sort(1000, width=16)
        assert narrow.memory == wide.memory == 1000

    def test_legacy_memory_dwarfs_cpu(self):
        """The Section 4.2 defect: byte units implicitly out-weigh CPU."""
        model = CostModel(SystemConfig.ic())
        cost = model.sort(1000, width=16)
        assert cost.memory > cost.cpu

    def test_sort_cpu_is_nlogn(self):
        model = CostModel(SystemConfig.ic_plus())
        cost = model.sort(1000, width=4)
        expected = 1000 * RPTC + 1000 * math.log2(1002) * RCC
        assert cost.cpu == pytest.approx(expected)


class TestDistributionFactorInCosts:
    def test_df_divides_work_when_enabled(self):
        model = CostModel(SystemConfig.ic_plus())
        assert model.scan(1000, 4, df=4).cpu == pytest.approx(250 * RPTC)

    def test_df_ignored_when_disabled(self):
        model = CostModel(SystemConfig.ic())
        assert model.scan(1000, 4, df=4).cpu == pytest.approx(1000 * RPTC)

    def test_eq6_sort_with_df(self):
        model = CostModel(SystemConfig.ic_plus())
        df = 4.0
        cost = model.sort(1000, 4, df=df)
        local = 1000 / df
        expected = local * RPTC + local * math.log2(local + 2) * RCC
        assert cost.cpu == pytest.approx(expected)


class TestHashJoinCost:
    """Eq. 7."""

    def test_cpu_component(self):
        model = CostModel(SystemConfig.ic_plus())
        cost = model.hash_join(1000, 400, right_width=4, df_right=4)
        processed = 1000 + 400 / 4
        assert cost.cpu == pytest.approx(processed * (RCC + RPTC + HAC))

    def test_memory_is_build_side_only(self):
        model = CostModel(SystemConfig.ic_plus())
        cost = model.hash_join(10_000, 400, right_width=4, df_right=4)
        assert cost.memory == pytest.approx(100)

    def test_df_applies_to_right_only(self):
        """Section 5.1.2: the reward is for a local, partitioned build."""
        model = CostModel(SystemConfig.ic_plus())
        with_df = model.hash_join(1000, 400, 4, df_right=4)
        without = model.hash_join(1000, 400, 4, df_right=1)
        assert with_df.cpu < without.cpu
        assert with_df.memory < without.memory


class TestExchangeCost:
    def test_penalty_applied_when_fixed(self):
        model = CostModel(SystemConfig.ic_plus())
        unicast = model.exchange(1000, 4, target_sites=1)
        broadcast = model.exchange(1000, 4, target_sites=4)
        assert broadcast.network == pytest.approx(unicast.network * 4)

    def test_penalty_missing_in_baseline(self):
        """The shadowed-constant bug: multi-target costs like unicast."""
        model = CostModel(SystemConfig.ic())
        unicast = model.exchange(1000, 4, target_sites=1)
        broadcast = model.exchange(1000, 4, target_sites=4)
        assert broadcast.network == unicast.network

    def test_legacy_network_charges_bytes(self):
        model = CostModel(SystemConfig.ic())
        assert model.exchange(100, 8, 1).network == pytest.approx(100 * 8 * AFS)


class TestMergeJoinCost:
    def test_merge_phase_has_no_hashing(self):
        """Eq. 9: per tuple the merge pays RCC + RPTC only, which is what
        makes pre-sorted merge joins beat hash joins."""
        model = CostModel(SystemConfig.ic_plus())
        merge = model.merge_join(1000, 1000)
        hash_cost = model.hash_join(1000, 1000, 4)
        assert merge.cpu < hash_cost.cpu

    def test_sorts_flip_the_comparison_for_large_inputs(self):
        model = CostModel(SystemConfig.ic_plus())
        rows = 1_000_000.0
        merge_total = (
            model.merge_join(rows, rows).cpu + 2 * model.sort(rows, 4).cpu
        )
        assert model.hash_join(rows, rows, 4).cpu < merge_total
