"""Oracle property tests for the generated row kernels.

``repro.rel.expr.KernelBuilder`` turns an expression tree into Python
source; ``helpers.reference_compile_expr`` is the closure tree it
replaced.  Over random trees of all nine node kinds and random rows with
NULLs, int/float/str mixes and zero divisors, both must give the same
value or raise the same exception type, in both evaluation contexts; a
join condition rendered over two rows ``(l, r)`` must equal the one-row
rendering on ``l + r``.

The second part pins the raw-value orderings (sort, sorted-stream merge,
merge join) to the ``NullsLast`` definitions they shortcut, the third the
generated aggregation loop to the ``AggAccumulator`` state machines.
"""

import heapq

from hypothesis import given, settings, strategies as st

from helpers import (
    reference_aggregate_rows,
    reference_compile_expr,
    reference_merge_join,
    reference_sort_rows,
)
from repro.common.ordering import ordering_key, sort_rows
from repro.exec.fragments import number_operators
from repro.exec.operators import ExecContext, merge_sorted, execute_node
from repro.exec.aggregates import aggregate_kernel
from repro.exec.physical import AggPhase, PhysMergeJoin, PhysValues
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    FuncCall,
    InList,
    IsNull,
    KernelBuilder,
    LikeExpr,
    Literal,
    UnaryOp,
    compile_expr,
)
from repro.rel.logical import AggCall, AggFunc, JoinType
from repro.rel.traits import Distribution
from repro.storage.store import DataStore

WIDTH = 4
LEFT_WIDTH = 2

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -1.5, 2.0, 0.5]),
    st.sampled_from(["", "a", "ab", "1994-03-15"]),
)
rows = st.tuples(*([scalars] * WIDTH))
leaves = st.one_of(
    st.integers(0, WIDTH - 1).map(ColRef), scalars.map(Literal)
)


def _nodes(children):
    binary = st.sampled_from(
        ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "AND", "OR"]
    )
    return st.one_of(
        st.builds(BinaryOp, binary, children, children),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), children),
        st.builds(lambda a: FuncCall("ABS", [a]), children),
        st.builds(lambda a: FuncCall("UPPER", [a]), children),
        st.builds(lambda a: FuncCall("EXTRACT_YEAR", [a]), children),
        st.builds(lambda a, b: FuncCall("COALESCE", [a, b]), children, children),
        st.builds(
            lambda a, b, c: FuncCall("SUBSTRING", [a, b, c]),
            children, children, children,
        ),
        st.builds(
            lambda c, v, d: CaseExpr([(c, v)], d), children, children, children
        ),
        st.builds(InList, children, st.lists(scalars, max_size=3), st.booleans()),
        st.builds(
            LikeExpr, children, st.sampled_from(["a%", "%b", "a_", "ab", "%"]),
            st.booleans(),
        ),
        st.builds(IsNull, children, st.booleans()),
    )


exprs = st.recursive(leaves, _nodes, max_leaves=8)


def outcome(fn, *args):
    """What a call did: the exception type it raised, or its value's type
    and repr (so 1 / 1.0 / True and nan / nan compare as they print)."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return ("raised", type(exc))
    return (type(value), repr(value))


def truth(fn, *args):
    """Like :func:`outcome`, keeping only whether the value is truthy."""
    try:
        return bool(fn(*args))
    except Exception as exc:  # noqa: BLE001
        return ("raised", type(exc))


class TestGeneratedExpressions:
    @given(exprs, rows)
    @settings(max_examples=600, deadline=None)
    def test_value_context_matches_the_closure_tree(self, expr, row):
        assert outcome(compile_expr(expr), row) == outcome(
            reference_compile_expr(expr), row
        )

    @given(exprs, rows)
    @settings(max_examples=600, deadline=None)
    def test_test_context_matches_the_closure_tree(self, expr, row):
        """Only truth is compared: NULL and FALSE are one answer here."""
        assert truth(compile_expr(expr, test=True), row) == truth(
            reference_compile_expr(expr, test=True), row
        )

    @given(exprs, rows, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_two_row_rendering_equals_one_row_rendering(self, expr, row, test):
        builder = KernelBuilder(
            lambda i: f"l[{i}]" if i < LEFT_WIDTH else f"r[{i - LEFT_WIDTH}]"
        )
        joined = builder.function(
            "expr", "l, r", [f"return {builder.render(expr, test)}"]
        )
        assert outcome(joined, row[:LEFT_WIDTH], row[LEFT_WIDTH:]) == outcome(
            compile_expr(expr, test), row
        )

    def test_is_null_over_a_literal_folds_without_a_syntax_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compile_expr(IsNull(Literal(5)))(()) is False
            assert compile_expr(IsNull(Literal(None)))(()) is True
            assert compile_expr(IsNull(Literal("x"), negated=True))(()) is True
            assert compile_expr(IsNull(UnaryOp("-", Literal(5))))(()) is False


# -- orderings -----------------------------------------------------------------

#: Key columns by how they may be compared: raw (one orderable kind, no
#: NULL) or only through NullsLast (NULLs, mixed kinds).
key_columns = st.one_of(
    st.lists(st.integers(-3, 3), max_size=12),
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([0.5, -1.0, 2.0])), max_size=12),
    st.lists(st.sampled_from(["", "a", "b", "ab"]), max_size=12),
    st.lists(st.one_of(st.none(), st.integers(-2, 2)), max_size=12),
    st.lists(st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["a", "b"])), max_size=12),
)


@st.composite
def keyed_rows(draw, key_count=2):
    """Rows of ``key_count`` key columns plus a unique payload (ties show)."""
    columns = [draw(key_columns) for _ in range(key_count)]
    n = min(map(len, columns))
    tag = draw(st.integers(0, 1000))
    return [tuple(c[i] for c in columns) + ((tag, i),) for i in range(n)]


sort_keys = st.lists(
    st.tuples(st.integers(0, 1), st.booleans()), min_size=1, max_size=2
)


class TestRawOrderings:
    @given(keyed_rows(), sort_keys)
    @settings(max_examples=400, deadline=None)
    def test_sort_rows_equals_nulls_last_sort(self, data, keys):
        assert sort_rows(data, keys) == reference_sort_rows(data, keys)

    @given(st.lists(keyed_rows(), min_size=2, max_size=4), sort_keys)
    @settings(max_examples=300, deadline=None)
    def test_sorted_stream_merge_equals_heap_merge(self, streams, keys):
        streams = [reference_sort_rows(s, keys) for s in streams]
        if all(ascending for _, ascending in keys):
            positions = [index for index, _ in keys]
            want = list(
                heapq.merge(*streams, key=lambda row: ordering_key(row, positions))
            )
        else:  # what the receiver did for DESC keys: re-sort the concatenation
            want = reference_sort_rows([r for s in streams for r in s], keys)
        assert merge_sorted(streams, keys) == want

    @given(
        keyed_rows(),
        keyed_rows(),
        st.sampled_from(list(JoinType)),
        st.integers(1, 2),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_merge_join_equals_the_wrapped_key_walk(
        self, left, right, join_type, key_count, with_residual
    ):
        pairs = [(k, k) for k in range(key_count)]
        order = [(k, True) for k in range(key_count)]
        left = reference_sort_rows(left, order)
        right = reference_sort_rows(right, order)
        # The residual reads the payloads: left row number <> right row number.
        residual = (
            BinaryOp("<>", ColRef(2), ColRef(5)) if with_residual else None
        )
        node = PhysMergeJoin(
            PhysValues(left, ["a", "b", "p"]),
            PhysValues(right, ["c", "d", "q"]),
            pairs, residual, join_type, Distribution.single(),
        )
        number_operators(node)
        ctx = ExecContext(DataStore(site_count=1, partitions_per_table=1), 1e12)
        residual_fn = (
            reference_compile_expr(residual, test=True) if with_residual else None
        )
        assert execute_node(node, 0, ctx) == reference_merge_join(
            left, right, pairs, join_type, residual_fn, 3
        )


# -- aggregation -----------------------------------------------------------------

numbers = st.one_of(
    st.none(), st.integers(-5, 5), st.sampled_from([0.1, 0.2, 0.3, -1.5, 1e16])
)
agg_rows = st.lists(st.tuples(st.integers(0, 2), numbers, numbers), max_size=25)
agg_calls = st.lists(
    st.one_of(
        st.just(AggCall(AggFunc.COUNT, None)),
        st.builds(
            AggCall,
            st.sampled_from(list(AggFunc)),
            st.sampled_from([ColRef(1), BinaryOp("*", ColRef(1), ColRef(2))]),
            st.booleans(),
        ),
    ),
    min_size=1,
    max_size=4,
)


def bits(rows):
    return [tuple(repr(v) for v in row) for row in rows]


class TestAggregateKernel:
    @given(agg_rows, agg_calls, st.booleans(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_single_phase_equals_the_accumulators(self, data, calls, grouped, runs):
        keys = [0] if grouped else []
        if runs:
            data = sorted(data, key=lambda row: row[0])
        kernel = aggregate_kernel(keys, calls, AggPhase.SINGLE, runs)
        assert bits(kernel(data)) == bits(
            reference_aggregate_rows(data, keys, calls, AggPhase.SINGLE, runs)
        )

    @given(agg_rows, agg_calls, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_map_then_reduce_equals_the_accumulators(self, data, calls, grouped):
        keys = [0] if grouped else []
        calls = [AggCall(c.func, c.arg) for c in calls]  # DISTINCT cannot split
        partials = []
        for part in (data[::2], data[1::2]):
            got = aggregate_kernel(keys, calls, AggPhase.MAP, False)(part)
            want = reference_aggregate_rows(part, keys, calls, AggPhase.MAP, False)
            assert bits(got) == bits(want)
            partials += got
        final_keys = list(range(len(keys)))
        kernel = aggregate_kernel(final_keys, calls, AggPhase.REDUCE, False)
        assert bits(kernel(partials)) == bits(
            reference_aggregate_rows(
                partials, final_keys, calls, AggPhase.REDUCE, False
            )
        )
