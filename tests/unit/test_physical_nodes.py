"""Unit tests for plan-node mechanics: copies (logical and physical),
digests, costs, traits."""

import inspect

import pytest

from helpers import (
    reference_digest,
    reference_has_exchange,
    reference_leaf_partition_sites,
    reference_total_cost,
)
from repro.common.errors import PlannerError, ValidationError
from repro.cost.model import Cost
from repro.exec.fragments import PhysReceiver
from repro.exec.physical import (
    AggPhase,
    PhysExchange,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
    walk_physical,
)
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import (
    AggCall,
    AggFunc,
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalValues,
    RelNode,
)
from repro.rel.traits import Collation, Distribution


def scan(dist=None):
    return PhysTableScan(
        "t", "t", ["t.a", "t.b"], dist or Distribution.hash((0,)), 4
    ).costed(100.0, Cost(cpu=100.0))


class TestCopies:
    def test_copy_preserves_estimates_and_costs(self):
        original = scan()
        clone = original.copy([])
        assert clone.rows_est == original.rows_est
        assert clone.self_cost.value == original.self_cost.value
        assert clone.digest() == original.digest()

    def test_copy_rewires_inputs(self):
        filt = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(1)))
        other = scan(Distribution.broadcast())
        clone = filt.copy([other])
        assert clone.input is other

    def test_total_cost_sums_subtree(self):
        inner = scan()
        filt = PhysFilter(inner, BinaryOp("=", ColRef(0), Literal(1))).costed(
            10.0, Cost(cpu=50.0)
        )
        assert filt.total_cost().value == pytest.approx(150.0)


def _cond():
    return BinaryOp("=", ColRef(0), Literal(1))


def _calls():
    return (AggCall(AggFunc.COUNT, None),)


#: One constructor per concrete physical node class: ``(arity, build)``
#: where ``build`` takes that many input nodes.  The samples set the
#: parameters no digest shows (pushed work, an index scan's bound
#: condition), so a copy that dropped one would still digest alike.
CLONE_PATHS = {
    "PhysTableScan": (0, lambda: PhysTableScan(
        "t", "t", ["t.a", "t.b"], Distribution.hash((0,)), 4,
        pushed_filter=_cond(), pushed_project=(0, 1), pushed_fetch=5,
    )),
    "PhysIndexScan": (0, lambda: PhysIndexScan(
        "t", "t", ["t.a", "t.b"], "idx", Distribution.hash((0,)),
        Collation(((0, True),)), 4, low=1, bound_condition=_cond(),
    )),
    "PhysValues": (0, lambda: PhysValues([(1, 2)], ["a", "b"])),
    "PhysReceiver": (0, lambda: PhysReceiver(
        3, ["a", "b"], Distribution.single()
    )),
    "PhysFilter": (1, lambda c: PhysFilter(c, _cond())),
    "PhysProject": (1, lambda c: PhysProject(
        c, [ColRef(1), ColRef(0)], ["b", "a"]
    )),
    "PhysSort": (1, lambda c: PhysSort(c, ((0, True),), fetch=5)),
    "PhysLimit": (1, lambda c: PhysLimit(c, 5, 1)),
    "PhysExchange": (1, lambda c: PhysExchange(c, Distribution.single())),
    "PhysHashAggregate": (1, lambda c: PhysHashAggregate(
        c, (0,), _calls(), AggPhase.SINGLE, Distribution.single()
    )),
    "PhysSortAggregate": (1, lambda c: PhysSortAggregate(
        c, (0,), _calls(), AggPhase.SINGLE, Distribution.single()
    )),
    "PhysNestedLoopJoin": (2, lambda l, r: PhysNestedLoopJoin(
        l, r, _cond(), JoinType.INNER, Distribution.single()
    )),
    "PhysMergeJoin": (2, lambda l, r: PhysMergeJoin(
        l, r, [(0, 0)], None, JoinType.INNER, Distribution.single()
    )),
    "PhysHashJoin": (2, lambda l, r: PhysHashJoin(
        l, r, [(0, 0)], None, JoinType.INNER, Distribution.single()
    )),
}

#: The same for the concrete logical node classes.
LOGICAL_CLONE_PATHS = {
    "LogicalTableScan": (0, lambda: LogicalTableScan(
        "t", "t", ["a", "b"],
        pushed_filter=_cond(), pushed_project=(0, 1), pushed_fetch=5,
    )),
    "LogicalValues": (0, lambda: LogicalValues([(1, 2)], ["a", "b"])),
    "LogicalFilter": (1, lambda c: LogicalFilter(c, _cond())),
    "LogicalProject": (1, lambda c: LogicalProject(
        c, [ColRef(1), ColRef(0)], ["b", "a"]
    )),
    "LogicalAggregate": (1, lambda c: LogicalAggregate(c, (0,), _calls())),
    "LogicalSort": (1, lambda c: LogicalSort(c, ((0, False),), 5, 1)),
    "LogicalJoin": (2, lambda l, r: LogicalJoin(
        l, r, _cond(), JoinType.LEFT, correlate_origin=True
    )),
}

#: Parameters a constructor normalises (lower-cases, re-tuples, derives
#: from ``fields``): a copy keeps them equal, not identical.
NORMALISED = {
    ("LogicalTableScan", "table"),
    ("LogicalTableScan", "alias"),
    ("LogicalTableScan", "column_names"),
    ("LogicalValues", "rows"),
    ("PhysValues", "rows"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _concrete(classes):
    return {cls.__name__ for cls in classes if not cls.__subclasses__()}


def assert_keeps_parameters(original, clone):
    """Every declared parameter of ``clone`` is ``original``'s own, and
    the declared parameters are all the constructor takes after the inputs."""
    name, params = type(original).__name__, type(original).param_names
    constructor = inspect.signature(type(original)).parameters
    assert len(constructor) == len(original.inputs) + len(params)
    for param in params:
        kept, had = getattr(clone, param), getattr(original, param)
        if (name, param) in NORMALISED:
            assert kept == had, param
        else:
            assert kept is had, param


class TestSetOnce:
    """rows_est / self_cost are fixed by one ``costed()`` call."""

    def test_costed_twice_raises(self):
        with pytest.raises(PlannerError):
            scan().costed(5.0, Cost(cpu=5.0))

    def test_costing_after_the_total_was_read_raises(self):
        node = PhysFilter(scan(), _cond())
        assert node.total_cost().value == 100.0  # defaults: zero self cost
        with pytest.raises(PlannerError):
            node.costed(10.0, Cost(cpu=50.0))

    @pytest.mark.parametrize("attribute", ["rows_est", "self_cost"])
    def test_plain_assignment_raises(self, attribute):
        with pytest.raises(AttributeError):
            setattr(scan(), attribute, 1.0)

    def test_every_copyable_class_has_a_clone_path_test(self):
        assert _concrete(_subclasses(PhysNode)) == set(CLONE_PATHS)
        assert "PhysReceiver" in CLONE_PATHS

    def test_every_logical_class_has_a_clone_path_test(self):
        logical = [
            cls for cls in _subclasses(RelNode) if not issubclass(cls, PhysNode)
        ]
        assert _concrete(logical) == set(LOGICAL_CLONE_PATHS)


@pytest.mark.parametrize("name", sorted(CLONE_PATHS))
class TestClonePaths:
    """``copy()`` carries the estimate and self cost; everything derived
    from the inputs is the clone's own."""

    def _original_and_clone(self, name):
        arity, build = CLONE_PATHS[name]
        original = build(*[scan() for _ in range(arity)]).costed(
            7.0, Cost(cpu=3.0, memory=1.0)
        )
        original.total_cost(), original.digest()  # fill every cache
        # New inputs differ in cost, digest, exchange-ness and leaf sites.
        replacement = [
            PhysExchange(
                PhysTableScan(
                    "u", "u", ["u.a", "u.b"], Distribution.hash((0,)), 2
                ).costed(9.0, Cost(cpu=11.0)),
                Distribution.hash((0,)),
            ).costed(9.0, Cost(network=13.0))
            for _ in range(arity)
        ]
        return original, original.copy(replacement), replacement

    def test_carries_estimate_and_self_cost(self, name):
        original, clone, _ = self._original_and_clone(name)
        assert type(clone) is type(original) and clone is not original
        assert clone.rows_est == 7.0
        assert clone.self_cost == Cost(cpu=3.0, memory=1.0)

    def test_total_cost_is_resummed_over_the_new_inputs(self, name):
        original, clone, replacement = self._original_and_clone(name)
        assert clone.total_cost() == reference_total_cost(clone)
        if replacement:
            assert clone.total_cost() != original.total_cost()
            assert clone.total_cost().network == 13.0 * len(replacement)

    def test_digest_and_exchange_facts_are_the_clones_own(self, name):
        original, clone, replacement = self._original_and_clone(name)
        assert clone.digest() == reference_digest(clone)
        assert clone.has_exchange == reference_has_exchange(clone)
        assert clone.leaf_partition_sites == reference_leaf_partition_sites(
            clone
        )
        if replacement:
            assert clone.digest() != original.digest()
            assert clone.has_exchange
            assert clone.leaf_partition_sites == 2

    def test_clone_is_sealed_too(self, name):
        _, clone, _ = self._original_and_clone(name)
        with pytest.raises(PlannerError):
            clone.costed(1.0)

    def test_keeps_every_declared_parameter(self, name):
        original, clone, replacement = self._original_and_clone(name)
        assert_keeps_parameters(original, clone)
        assert clone.inputs == tuple(replacement)
        assert all(a is b for a, b in zip(clone.inputs, replacement))

    def test_a_wrong_input_count_raises(self, name):
        arity, build = CLONE_PATHS[name]
        original = build(*[scan() for _ in range(arity)])
        with pytest.raises(ValidationError):
            original.copy([scan() for _ in range(arity + 1)])


def _logical_scan(table):
    return LogicalTableScan(table, table, ["a", "b"])


@pytest.mark.parametrize("name", sorted(LOGICAL_CLONE_PATHS))
class TestLogicalClonePaths:
    """A logical ``copy()`` is the same operator over the new inputs."""

    def _original_and_clone(self, name):
        arity, build = LOGICAL_CLONE_PATHS[name]
        original = build(*[_logical_scan("t") for _ in range(arity)])
        original.digest()
        replacement = [_logical_scan("u") for _ in range(arity)]
        return original, original.copy(replacement), replacement

    def test_keeps_every_declared_parameter(self, name):
        original, clone, replacement = self._original_and_clone(name)
        assert type(clone) is type(original) and clone is not original
        assert_keeps_parameters(original, clone)
        assert all(a is b for a, b in zip(clone.inputs, replacement))
        assert len(clone.inputs) == len(replacement)

    def test_digest_is_the_clones_own(self, name):
        original, clone, replacement = self._original_and_clone(name)
        assert clone.digest() == reference_digest(clone)
        if replacement:
            assert clone.digest() != original.digest()
        else:
            assert clone.digest() == original.digest()

    def test_a_wrong_input_count_raises(self, name):
        arity, build = LOGICAL_CLONE_PATHS[name]
        original = build(*[_logical_scan("t") for _ in range(arity)])
        with pytest.raises(ValidationError):
            original.copy([_logical_scan("t") for _ in range(arity + 1)])


class TestProjectTraitPropagation:
    def test_hash_keys_remap_through_projection(self):
        project = PhysProject(scan(), [ColRef(1), ColRef(0)], ["b", "a"])
        assert project.distribution.is_hash
        assert project.distribution.keys == (1,)

    def test_lost_hash_key_degrades_to_opaque_hash(self):
        project = PhysProject(scan(), [ColRef(1)], ["b"])
        # Key column 0 was projected away: the placement is still spread
        # over the sites but no longer expressible, so satisfaction fails.
        from repro.rel.traits import satisfies

        assert project.distribution.is_hash
        assert not satisfies(project.distribution, Distribution.hash((0,)))

    def test_collation_prefix_survives_projection(self):
        sorted_scan = PhysSort(scan(), ((0, True), (1, True)))
        project = PhysProject(sorted_scan, [ColRef(0)], ["a"])
        assert project.collation.keys == ((0, True),)

    def test_broadcast_passes_through(self):
        project = PhysProject(
            scan(Distribution.broadcast()), [ColRef(1)], ["b"]
        )
        assert project.distribution.is_broadcast


class TestDigests:
    def test_distinct_bounds_distinct_digests(self):
        a = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(1)))
        b = PhysFilter(scan(), BinaryOp("=", ColRef(0), Literal(2)))
        assert a.digest() != b.digest()

    def test_join_digest_includes_algorithm_and_type(self):
        left, right = scan(), scan(Distribution.broadcast())
        hash_join = PhysHashJoin(
            left, right, [(0, 0)], None, JoinType.SEMI, Distribution.single()
        )
        assert "semi" in hash_join.digest()
        assert "HashJoin" in hash_join.digest()

    def test_exchange_flag(self):
        exchange = PhysExchange(scan(), Distribution.single())
        assert exchange.is_exchange
        assert not scan().is_exchange


class TestAggregatePhases:
    def test_reduction_flags(self):
        def agg(phase):
            return PhysHashAggregate(
                scan(), (0,), (AggCall(AggFunc.COUNT, None),),
                phase, Distribution.single(),
            )

        assert agg(AggPhase.SINGLE).is_reduction
        assert agg(AggPhase.REDUCE).is_reduction
        assert not agg(AggPhase.MAP).is_reduction

    def test_output_fields(self):
        agg = PhysHashAggregate(
            scan(), (1,),
            (AggCall(AggFunc.SUM, ColRef(0), name="total"),),
            AggPhase.SINGLE, Distribution.single(),
        )
        assert agg.fields == ("t.b", "total")


class TestWalk:
    def test_preorder_traversal(self):
        tree = PhysFilter(
            PhysProject(scan(), [ColRef(0)], ["a"]),
            BinaryOp("=", ColRef(0), Literal(1)),
        )
        kinds = [type(n).__name__ for n in walk_physical(tree)]
        assert kinds == ["PhysFilter", "PhysProject", "PhysTableScan"]

    def test_values_is_a_leaf(self):
        values = PhysValues([(1,)], ["x"])
        assert list(walk_physical(values)) == [values]
