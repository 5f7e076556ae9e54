"""Differential tests: the row join kernels against their per-row oracles.

``repro.exec.operators._join_kernel`` probes in one comprehension where
the join type allows, and a merge join runs the hash-join kernel on its
sorted inputs.  ``helpers.per_row_hash_join``,
``helpers.per_row_nested_loop_join`` and ``helpers.walking_merge_join``
are the kernels they replaced.  Over NULL, mixed-kind (``1`` / ``1.0`` /
``True`` / ``'a'``) and duplicate keys, every join type, with and
without a residual (one of them renders walrus temporaries), in raw and
total order, both must return the same rows in the same order — or raise
the same exception type — and the same count of tested candidates,
which the hash join's charge reads.
"""

from hypothesis import given, settings, strategies as st

from helpers import (
    per_row_hash_join,
    per_row_nested_loop_join,
    reference_sort_rows,
    walking_merge_join,
)
from repro.common import charges
from repro.exec import operators
from repro.exec.fragments import number_operators
from repro.exec.operators import ExecContext, execute_node
from repro.exec.physical import (
    PhysHashJoin,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysValues,
)
from repro.rel.expr import TOTAL_ORDER, BinaryOp, ColRef, Literal
from repro.rel.logical import JoinType
from repro.rel.traits import Distribution
from repro.storage.store import DataStore

keys = st.sampled_from([None, 0, 1, 1.0, True, False, 2, "a", "b"])


@st.composite
def join_rows(draw):
    """Rows ``(k0, k1, payload)``; the payload is the row number."""
    drawn = draw(st.lists(st.tuples(keys, keys), max_size=10))
    return [k + (i,) for i, k in enumerate(drawn)]


#: Residuals over ``l + r`` (columns 0-2 left, 3-5 right): none, a payload
#: comparison, one whose ``+`` operand renders a ``_strict`` temporary,
#: and a key comparison that raw ``<`` cannot always order.
RESIDUALS = [
    None,
    BinaryOp("<>", ColRef(2), ColRef(5)),
    BinaryOp("<", BinaryOp("+", ColRef(2), ColRef(5)), Literal(9)),
    BinaryOp("<", ColRef(1), ColRef(4)),
]

cases = dict(
    left=join_rows(),
    right=join_rows(),
    join_type=st.sampled_from(list(JoinType)),
    key_count=st.integers(1, 2),
    residual=st.sampled_from(RESIDUALS),
    total_order=st.booleans(),
)


def outcome(fn):
    """What a call returned, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return ("raised", type(exc))


def inputs(left, right):
    return PhysValues(left, ["a", "b", "p"]), PhysValues(right, ["c", "d", "q"])


def both(total_order, new, old):
    """``(new, old)`` outcomes, both kernels generated in one order mode."""
    token = TOTAL_ORDER.set(total_order)
    try:
        return outcome(new), outcome(old)
    finally:
        TOTAL_ORDER.reset(token)


@given(**cases)
@settings(max_examples=500, deadline=None)
def test_hash_join_equals_the_per_row_kernel(
    left, right, join_type, key_count, residual, total_order
):
    pairs = [(k, k) for k in range(key_count)]
    node = PhysHashJoin(
        *inputs(left, right), pairs, residual, join_type, Distribution.single()
    )
    new, old = both(
        total_order,
        lambda: operators._hash_join_kernel(node)(left, right),
        lambda: per_row_hash_join(node, left, right),
    )
    assert new == old  # rows in order, and the candidates tested


@given(**cases)
@settings(max_examples=500, deadline=None)
def test_merge_join_equals_the_block_walk(
    left, right, join_type, key_count, residual, total_order
):
    pairs = [(k, k) for k in range(key_count)]
    order = [(k, True) for k in range(key_count)]
    left = reference_sort_rows(left, order)
    right = reference_sort_rows(right, order)
    node = PhysMergeJoin(
        *inputs(left, right), pairs, residual, join_type, Distribution.single()
    )
    new, old = both(
        total_order,
        lambda: operators._hash_join_kernel(node)(left, right)[0],
        lambda: walking_merge_join(node, left, right),
    )
    assert new == old


@given(**cases)
@settings(max_examples=500, deadline=None)
def test_nested_loop_join_equals_the_per_row_kernel(
    left, right, join_type, key_count, residual, total_order
):
    # ``key_count`` 2 puts the equi conjunct ``l.k0 = r.k0`` first.
    condition = residual
    if key_count == 2:
        equi = BinaryOp("=", ColRef(0), ColRef(3))
        condition = equi if residual is None else BinaryOp("AND", equi, residual)
    node = PhysNestedLoopJoin(
        *inputs(left, right), condition, join_type, Distribution.single()
    )
    new, old = both(
        total_order,
        lambda: operators._join_kernel(
            node, "nested_loop_join", condition, [], "right"
        )(left, right),
        lambda: per_row_nested_loop_join(node, left, right),
    )
    assert new == old


def test_a_merge_join_node_runs_the_hash_join_source():
    """One source per join shape: the merge join compiles nothing of its own."""
    left = [(1, "x", 0), (2, "y", 1)]
    right = [(1, "z", 0), (3, "w", 1)]
    shape = ([(0, 0)], None, JoinType.INNER, Distribution.single())
    merge = operators._hash_join_kernel(PhysMergeJoin(*inputs(left, right), *shape))
    hashed = operators._hash_join_kernel(PhysHashJoin(*inputs(left, right), *shape))
    assert merge.__source__ == hashed.__source__
    assert merge(left, right) == ([(1, "x", 0, 1, "z", 0)], 1)


def test_only_the_hash_join_notes_its_table_and_each_keeps_its_charge():
    """The merge join shares the hash join's kernel, not its accounting:
    no memory noted (``fragment_memory`` and OOM faults read it), and a
    charge that ignores the candidates tested."""
    left = [(1, "x", 0), (1, "y", 1), (2, "z", 2)]
    right = [(1, "u", 0), (1, "v", 1), (3, "w", 2)]
    residual = BinaryOp("<>", ColRef(2), ColRef(5))
    shape = ([(0, 0)], residual, JoinType.INNER, Distribution.single())
    table = {(0, 0): 3 * 3 * operators.AFS}  # (fragment, site): right rows x width
    for join, noted, units in [
        (PhysHashJoin, table, charges.hash_join(3, 3, 2, 4)),  # 4 tested
        (PhysMergeJoin, {}, charges.merge_join_charged(3, 3, 2)),
    ]:
        node = join(*inputs(left, right), *shape)
        number_operators(node)
        ctx = ExecContext(DataStore(site_count=1, partitions_per_table=1), 1e12)
        ctx.current_fragment = 0
        rows = execute_node(node, 0, ctx)
        assert rows == [(1, "x", 0, 1, "v", 1), (1, "y", 1, 1, "u", 0)]
        assert ctx.fragment_memory == noted
        assert ctx.ops[node.op_id, 0] == [6, 2, units]
