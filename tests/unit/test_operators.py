"""Unit tests for the execution operators (one site, controlled inputs)."""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.errors import ExecutionTimeoutError
from repro.exec import operators
from repro.exec.fragments import PhysReceiver, number_operators
from repro.exec.operators import ExecContext, sort_rows
from repro.exec.physical import (
    AggPhase,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
)
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import AggCall, AggFunc, JoinType
from repro.rel.traits import Collation, Distribution
from repro.storage.store import DataStore

from helpers import eager_row_handlers

I = ColumnType.INTEGER
D = ColumnType.DOUBLE


@pytest.fixture
def store():
    store = DataStore(site_count=2, partitions_per_table=4)
    store.create_table(
        TableSchema(
            "nums",
            [Column("id", I), Column("grp", I), Column("val", D)],
            ["id"],
        ),
        [(i, i % 3, float(i)) for i in range(20)],
    )
    store.create_index("nums", "nums_val", ["val"])
    return store


@pytest.fixture
def ctx(store):
    return ExecContext(store, limit_units=1e9)


def execute_node(node, site, ctx):
    """Hand-built trees take their ids from fragment_plan's numbering."""
    number_operators(node)
    return operators.execute_node(node, site, ctx)


def values_node(rows, names=("a", "b")):
    return PhysValues(rows, names)


def all_rows(node, ctx, sites=(0, 1)):
    rows = []
    for site in sites:
        rows.extend(execute_node(node, site, ctx))
    return rows


class TestScans:
    def test_table_scan_covers_all_partitions(self, store, ctx):
        scan = PhysTableScan(
            "nums", "n", ["n.id", "n.grp", "n.val"], Distribution.hash((0,)), 2
        )
        rows = all_rows(scan, ctx)
        assert sorted(r[0] for r in rows) == list(range(20))

    def test_index_scan_is_sorted_per_site(self, store, ctx):
        scan = PhysIndexScan(
            "nums", "n", ["n.id", "n.grp", "n.val"], "nums_val",
            Distribution.hash((0,)), Collation(((2, True),)), 2,
        )
        for site in (0, 1):
            values = [r[2] for r in execute_node(scan, site, ctx)]
            assert values == sorted(values)

    def test_work_units_are_charged(self, store, ctx):
        scan = PhysTableScan(
            "nums", "n", ["n.id", "n.grp", "n.val"], Distribution.hash((0,)), 2
        )
        all_rows(scan, ctx)
        assert ctx.total_units > 0


class TestReceiver:
    def test_concatenates_streams(self, ctx):
        receiver = PhysReceiver(7, ["x"], Distribution.single())
        ctx.deliver(7, 0, [(1,), (2,)])
        ctx.deliver(7, 0, [(3,)])
        assert execute_node(receiver, 0, ctx) == [(1,), (2,), (3,)]

    def test_merging_receiver_merges_sorted_streams(self, ctx):
        receiver = PhysReceiver(
            8, ["x"], Distribution.single(), Collation(((0, True),))
        )
        ctx.deliver(8, 0, [(1,), (4,)])
        ctx.deliver(8, 0, [(2,), (3,)])
        assert execute_node(receiver, 0, ctx) == [(1,), (2,), (3,), (4,)]

    def test_empty_receiver(self, ctx):
        receiver = PhysReceiver(9, ["x"], Distribution.single())
        assert execute_node(receiver, 0, ctx) == []


class TestRowOperators:
    def test_filter(self, ctx):
        node = PhysFilter(
            values_node([(1, 1), (2, 2), (3, 3)]),
            BinaryOp(">", ColRef(0), Literal(1)),
        )
        assert execute_node(node, 0, ctx) == [(2, 2), (3, 3)]

    def test_project(self, ctx):
        node = PhysProject(
            values_node([(1, 2)]),
            [BinaryOp("+", ColRef(0), ColRef(1)), Literal("k")],
            ["s", "k"],
        )
        assert execute_node(node, 0, ctx) == [(3, "k")]

    def test_limit(self, ctx):
        node = PhysLimit(values_node([(i, i) for i in range(10)]), 3)
        assert len(execute_node(node, 0, ctx)) == 3

    def test_sort_with_fetch(self, ctx):
        node = PhysSort(
            values_node([(3, 0), (1, 0), (2, 0)]), ((0, True),), fetch=2
        )
        assert execute_node(node, 0, ctx) == [(1, 0), (2, 0)]


class TestSortRows:
    def test_multi_key_mixed_directions(self):
        rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
        result = sort_rows(rows, [(0, True), (1, False)])
        assert result == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_descending_strings(self):
        rows = [("a",), ("c",), ("b",)]
        assert sort_rows(rows, [(0, False)]) == [("c",), ("b",), ("a",)]

    def test_stability(self):
        rows = [(1, "first"), (1, "second")]
        assert sort_rows(rows, [(0, True)]) == rows


JOIN_LEFT = [(1, "a"), (2, "b"), (3, "c"), (3, "d")]
JOIN_RIGHT = [(2, "x"), (3, "y"), (3, "z"), (4, "w")]


def make_join(cls, join_type=JoinType.INNER, **kwargs):
    left = values_node(JOIN_LEFT, ("l1", "l2"))
    right = values_node(JOIN_RIGHT, ("r1", "r2"))
    if cls is PhysNestedLoopJoin:
        condition = BinaryOp("=", ColRef(0), ColRef(2))
        return cls(left, right, condition, join_type, Distribution.single())
    if cls is PhysMergeJoin:
        sorted_left = PhysSort(left, ((0, True),))
        sorted_right = PhysSort(right, ((0, True),))
        return cls(
            sorted_left, sorted_right, [(0, 0)], None, join_type,
            Distribution.single(),
        )
    return cls(left, right, [(0, 0)], None, join_type, Distribution.single())


EXPECTED_INNER = sorted(
    [
        (2, "b", 2, "x"),
        (3, "c", 3, "y"), (3, "c", 3, "z"),
        (3, "d", 3, "y"), (3, "d", 3, "z"),
    ]
)


@pytest.mark.parametrize("cls", [PhysNestedLoopJoin, PhysHashJoin, PhysMergeJoin])
class TestJoinAlgorithms:
    def test_inner(self, cls, ctx):
        rows = execute_node(make_join(cls), 0, ctx)
        assert sorted(rows) == EXPECTED_INNER

    def test_semi(self, cls, ctx):
        rows = execute_node(make_join(cls, JoinType.SEMI), 0, ctx)
        assert sorted(rows) == [(2, "b"), (3, "c"), (3, "d")]

    def test_anti(self, cls, ctx):
        rows = execute_node(make_join(cls, JoinType.ANTI), 0, ctx)
        assert sorted(rows) == [(1, "a")]

    def test_left(self, cls, ctx):
        rows = execute_node(make_join(cls, JoinType.LEFT), 0, ctx)
        assert (1, "a", None, None) in rows
        assert len(rows) == 6


class TestJoinResiduals:
    def test_hash_join_residual(self, ctx):
        left = values_node(JOIN_LEFT, ("l1", "l2"))
        right = values_node(JOIN_RIGHT, ("r1", "r2"))
        residual = BinaryOp("=", ColRef(3), Literal("y"))
        join = PhysHashJoin(
            left, right, [(0, 0)], residual, JoinType.INNER,
            Distribution.single(),
        )
        rows = execute_node(join, 0, ctx)
        assert sorted(rows) == [(3, "c", 3, "y"), (3, "d", 3, "y")]

    def test_merge_join_residual_semi(self, ctx):
        left = PhysSort(values_node(JOIN_LEFT, ("l1", "l2")), ((0, True),))
        right = PhysSort(values_node(JOIN_RIGHT, ("r1", "r2")), ((0, True),))
        residual = BinaryOp("=", ColRef(3), Literal("z"))
        join = PhysMergeJoin(
            left, right, [(0, 0)], residual, JoinType.SEMI,
            Distribution.single(),
        )
        rows = execute_node(join, 0, ctx)
        assert sorted(rows) == [(3, "c"), (3, "d")]

    def test_cross_join(self, ctx):
        join = PhysNestedLoopJoin(
            values_node([(1,)], ("a",)), values_node([(2,), (3,)], ("b",)),
            None, JoinType.INNER, Distribution.single(),
        )
        assert sorted(execute_node(join, 0, ctx)) == [(1, 2), (1, 3)]


class TestTimeout:
    def test_nested_loop_prechecks_pair_count(self, store):
        ctx = ExecContext(store, limit_units=10.0)
        join = PhysNestedLoopJoin(
            values_node([(i,) for i in range(100)], ("a",)),
            values_node([(i,) for i in range(100)], ("b",)),
            BinaryOp("=", ColRef(0), ColRef(1)),
            JoinType.INNER,
            Distribution.single(),
        )
        with pytest.raises(ExecutionTimeoutError):
            execute_node(join, 0, ctx)


CROSS_LEFT = [(1, "a"), (2, "b"), (2, "c")]
CROSS_RIGHT = [(10,), (20,)]
CROSS_OTHER = [(1, "x"), (2, "y"), (2, "z"), (5, "w")]


def cross_product(left=CROSS_LEFT, right=CROSS_RIGHT):
    """A condition-free inner nested-loop join: (a, b) x (c,)."""
    return PhysNestedLoopJoin(
        values_node(left, ("a", "b")), values_node(right, ("c",)),
        None, JoinType.INNER, Distribution.single(),
    )


def other():
    return values_node(CROSS_OTHER, ("k", "t"))


#: Every kind of consumer a condition-free inner nested-loop join can
#: feed, built over a fresh product ``cp``.
CROSS_CONSUMERS = {
    "root": lambda cp: cp,
    "filter": lambda cp: PhysFilter(cp, BinaryOp(">", ColRef(2), Literal(10))),
    "project": lambda cp: PhysProject(
        cp, [ColRef(2), BinaryOp("+", ColRef(0), ColRef(2))], ["c", "s"]
    ),
    "sort": lambda cp: PhysSort(cp, ((2, False), (1, True))),
    "hash_join_left": lambda cp: PhysHashJoin(
        cp, other(), [(0, 0)], None, JoinType.INNER, Distribution.single()
    ),
    "hash_join_right": lambda cp: PhysHashJoin(
        other(), cp, [(0, 0)], None, JoinType.INNER, Distribution.single()
    ),
    # CROSS_LEFT is sorted on column 0, so the left-major product is too.
    "merge_join": lambda cp: PhysMergeJoin(
        cp, other(), [(0, 0)], None, JoinType.INNER, Distribution.single()
    ),
    "limit": lambda cp: PhysLimit(cp, 3, offset=1),
    "hash_aggregate": lambda cp: PhysHashAggregate(
        cp, (0,),
        (AggCall(AggFunc.COUNT, None), AggCall(AggFunc.SUM, ColRef(2))),
        AggPhase.SINGLE, Distribution.single(),
    ),
    "nlj_left": lambda cp: PhysNestedLoopJoin(
        cp, other(), BinaryOp("=", ColRef(0), ColRef(3)), JoinType.INNER,
        Distribution.single(),
    ),
    "nlj_right": lambda cp: PhysNestedLoopJoin(
        other(), cp, BinaryOp("=", ColRef(0), ColRef(2)), JoinType.INNER,
        Distribution.single(),
    ),
    "nlj_left_semi": lambda cp: PhysNestedLoopJoin(
        cp, other(), BinaryOp("=", ColRef(0), ColRef(3)), JoinType.SEMI,
        Distribution.single(),
    ),
    "nlj_right_outer": lambda cp: PhysNestedLoopJoin(
        other(), cp, BinaryOp("=", ColRef(0), ColRef(2)), JoinType.LEFT,
        Distribution.single(),
    ),
    "cross_of_cross": lambda cp: PhysNestedLoopJoin(
        other(), cp, None, JoinType.INNER, Distribution.single()
    ),
}

CROSS_SIDES = {
    "both": (CROSS_LEFT, CROSS_RIGHT),
    "empty_left": ([], CROSS_RIGHT),
    "empty_right": (CROSS_LEFT, []),
}


class TestDeferredCrossProduct:
    """A condition-free inner nested-loop join is sized, not built: every
    consumer sees the rows, counts and charges the eager join produced."""

    @staticmethod
    def run(root, handlers, store):
        ctx = ExecContext(store, limit_units=1e9)
        number_operators(root)
        out = operators.run_operator(handlers, root, 0, ctx)
        return out, ctx

    @pytest.mark.parametrize("sides", sorted(CROSS_SIDES))
    @pytest.mark.parametrize("consumer", sorted(CROSS_CONSUMERS))
    def test_matches_the_eager_join(self, store, consumer, sides):
        left, right = CROSS_SIDES[sides]
        build = CROSS_CONSUMERS[consumer]
        want, eager = self.run(build(cross_product(left, right)),
                               eager_row_handlers(), store)
        ctx = ExecContext(store, limit_units=1e9)
        got = execute_node(build(cross_product(left, right)), 0, ctx)
        assert type(got) is list
        assert got == want
        assert dict(ctx.ops) == dict(eager.ops)
        assert float.hex(ctx.total_units) == float.hex(eager.total_units)

    def test_eager_oracle_is_the_left_major_product(self, store):
        rows, _ = self.run(cross_product(), eager_row_handlers(), store)
        assert rows == [l + r for l in CROSS_LEFT for r in CROSS_RIGHT]

    def test_product_is_sized_then_built_once(self, ctx):
        node = cross_product()
        number_operators(node)
        product = operators.run_operator(operators._HANDLERS, node, 0, ctx)
        assert type(product) is operators.CrossProduct
        assert len(product) == len(CROSS_LEFT) * len(CROSS_RIGHT)
        assert ctx.ops[node.op_id, 0][1] == len(product)
        rows = product.build()
        assert product.build() is rows
        assert rows == [l + r for l in CROSS_LEFT for r in CROSS_RIGHT]

    def test_refused_product_is_never_built(self, store, monkeypatch):
        def doomed():
            big = [(i,) for i in range(60)]
            return PhysNestedLoopJoin(
                PhysNestedLoopJoin(
                    values_node(big, ("a",)), values_node(big, ("b",)),
                    None, JoinType.INNER, Distribution.single(),
                ),
                values_node(big, ("c",)),
                BinaryOp("=", ColRef(0), ColRef(2)),
                JoinType.INNER,
                Distribution.single(),
            )

        # Enough budget for the 3,600-pair product, not for 216,000 pairs.
        limit = 5e4
        eager = ExecContext(store, limit_units=limit)
        root = doomed()
        number_operators(root)
        with pytest.raises(ExecutionTimeoutError) as want:
            operators.run_operator(eager_row_handlers(), root, 0, eager)

        builds = []
        real_build = operators.CrossProduct.build
        monkeypatch.setattr(
            operators.CrossProduct, "build",
            lambda self: builds.append(1) or real_build(self),
        )
        ctx = ExecContext(store, limit_units=limit)
        root = doomed()
        with pytest.raises(ExecutionTimeoutError) as got:
            execute_node(root, 0, ctx)
        assert builds == []
        assert float.hex(got.value.elapsed) == float.hex(want.value.elapsed)
        assert dict(ctx.ops) == dict(eager.ops)
        # The product ran and was charged; the join above it refused.
        assert ctx.ops[root.left.op_id, 0][1] == 3600
        assert ctx.ops[root.op_id, 0][1] == 0


class TestAggregateOperators:
    def _rows(self):
        return values_node(
            [("a", 1.0), ("b", 2.0), ("a", 3.0), ("b", 4.0)], ("g", "v")
        )

    def test_hash_aggregate_single_phase(self, ctx):
        agg = PhysHashAggregate(
            self._rows(), (0,),
            (AggCall(AggFunc.SUM, ColRef(1)), AggCall(AggFunc.COUNT, None)),
            AggPhase.SINGLE, Distribution.single(),
        )
        rows = execute_node(agg, 0, ctx)
        assert sorted(rows) == [("a", 4.0, 2), ("b", 6.0, 2)]

    def test_map_then_reduce_matches_single(self, ctx):
        calls = (AggCall(AggFunc.AVG, ColRef(1)),)
        map_agg = PhysHashAggregate(
            self._rows(), (0,), calls, AggPhase.MAP, Distribution.single()
        )
        partials = execute_node(map_agg, 0, ctx)
        receiver = PhysReceiver(42, ["g", "partial"], Distribution.single())
        ctx.deliver(42, 0, partials)
        reduce_agg = PhysHashAggregate(
            receiver, (0,), calls, AggPhase.REDUCE, Distribution.single()
        )
        rows = execute_node(reduce_agg, 0, ctx)
        assert sorted(rows) == [("a", 2.0), ("b", 3.0)]

    def test_scalar_aggregate_on_empty_input_yields_row(self, ctx):
        agg = PhysHashAggregate(
            values_node([], ("g", "v")), (),
            (AggCall(AggFunc.COUNT, None), AggCall(AggFunc.SUM, ColRef(1))),
            AggPhase.SINGLE, Distribution.single(),
        )
        assert execute_node(agg, 0, ctx) == [(0, None)]

    def test_sort_aggregate_on_sorted_input(self, ctx):
        sorted_input = PhysSort(self._rows(), ((0, True),))
        agg = PhysSortAggregate(
            sorted_input, (0,), (AggCall(AggFunc.MAX, ColRef(1)),),
            AggPhase.SINGLE, Distribution.single(),
        )
        rows = execute_node(agg, 0, ctx)
        assert rows == [("a", 3.0), ("b", 4.0)]

    def test_sort_aggregate_scalar_empty(self, ctx):
        agg = PhysSortAggregate(
            values_node([], ("g", "v")), (),
            (AggCall(AggFunc.COUNT, None),),
            AggPhase.SINGLE, Distribution.single(),
        )
        assert execute_node(agg, 0, ctx) == [(0,)]
