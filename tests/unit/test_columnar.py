"""Unit tests for the vectorized columnar backend's building blocks.

Every claim here is of the same shape: the columnar kernel must agree
*exactly* — values, Python types, NULL placement, row order — with the
row-path code it replaces (``compile_expr``, ``sort_rows``, the LIKE
matcher).  Bit-identity is the backend's core contract; "close enough"
floats or ints silently widened to floats are bugs.
"""

import random

import numpy as np
import pytest

from repro.exec import columnar
from repro.exec.columnar import (
    ColumnBatch,
    _codes_pair,
    _join_codes,
    column_from_values,
    concat_batches,
    concat_columns,
    eval_expr,
    execute_columnar,
    from_rows,
    sort_batch,
)
from repro.exec.fragments import number_operators
from repro.exec.operators import ExecContext, execute_node, sort_rows
from repro.exec.physical import (
    AggPhase,
    PhysHashAggregate,
    PhysHashJoin,
    PhysValues,
)
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    compile_expr,
)
from repro.rel.logical import AggCall, AggFunc, JoinType
from repro.rel.traits import Distribution
from repro.storage.store import DataStore

pytestmark = pytest.mark.columnar


class TestColumnFromValues:
    def test_kinds(self):
        assert column_from_values([1, 2, 3]).kind == "i"
        assert column_from_values([1.5, 2.0]).kind == "f"
        assert column_from_values(["a", "bc"]).kind == "U"
        assert column_from_values([True, False]).kind == "b"
        assert column_from_values([1, "a"]).kind == "O"
        # int-vs-float is a *type* distinction SQL results preserve.
        assert column_from_values([1, 2.0]).kind == "O"

    def test_nulls_get_a_mask(self):
        col = column_from_values([1, None, 3])
        assert col.kind == "i"
        assert col.mask is not None and col.mask.tolist() == [False, True, False]
        assert col.to_list() == [1, None, 3]

    def test_all_null_column_is_object(self):
        col = column_from_values([None, None])
        assert col.to_list() == [None, None]

    def test_schema_typed_all_null_string_part(self):
        # A string table's partition may hold only NULLs in a column the
        # table-wide plan types ``U``; building its batch used to raise.
        col = column_from_values([None, None], "U")
        assert (col.kind, col.to_list()) == ("U", [None, None])

    def test_trailing_nul_strings_stay_objects(self):
        # numpy's fixed-width strings would drop the trailing NUL.
        col = column_from_values(["a\x00", "b", None])
        assert (col.kind, col.to_list()) == ("O", ["a\x00", "b", None])

    def test_wide_strings_demote_to_object(self):
        wide = "x" * 64
        col = column_from_values(["a", wide])
        assert col.kind == "O"
        assert col.to_list() == ["a", wide]

    def test_huge_int_falls_back_to_object(self):
        big = 2**70
        col = column_from_values([1, big])
        assert col.kind == "O"
        assert col.to_list() == [1, big]


class TestBatchRoundTrip:
    def test_to_rows_preserves_types_exactly(self):
        rows = [
            (1, 1.5, "a", True, None),
            (2, -0.0, "bb", False, "x"),
            (None, None, None, None, None),
        ]
        out = from_rows(rows, 5).to_rows()
        assert out == rows
        for got, want in zip(out, rows):
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_zero_width_rows(self):
        rows = [(), (), ()]
        assert from_rows(rows, 0).to_rows() == rows

    def test_concat_mixed_kind_columns_keeps_ints_ints(self):
        # One part inferred int64, the other float64: naive
        # np.concatenate would rewrite 1 -> 1.0.
        a = column_from_values([1, 2])
        b = column_from_values([1.5, None])
        merged = concat_columns([a, b])
        assert merged.to_list() == [1, 2, 1.5, None]
        assert [type(v) for v in merged.to_list()[:3]] == [int, int, float]

    def test_concat_batches_matches_from_rows(self):
        rows1 = [(1, "a"), (2, None)]
        rows2 = [(3.5, "b" * 50)]
        merged = concat_batches([from_rows(rows1, 2), from_rows(rows2, 2)], 2)
        assert merged.to_rows() == from_rows(rows1 + rows2, 2).to_rows()


def _assert_matches_row_path(expr, rows, width):
    batch = from_rows(rows, width)
    got = eval_expr(expr, batch).to_list()
    fn = compile_expr(expr)
    want = [fn(row) for row in rows]
    assert got == want, f"{expr.digest()}: {got} != {want}"
    for g, w in zip(got, want):
        assert type(g) is type(w), f"{expr.digest()}: {type(g)} vs {type(w)}"


class TestEvalExpr:
    ROWS = [
        (1, 2.5, "apple", None, True),
        (2, None, "banana", 7, False),
        (None, -1.0, None, 0, None),
        (4, 0.0, "cherry pie", -3, True),
    ]

    def check(self, expr):
        _assert_matches_row_path(expr, self.ROWS, 5)

    def test_arithmetic_and_comparisons(self):
        c0, c1 = ColRef(0), ColRef(1)
        for op in ("+", "-", "*", "<", "<=", ">", ">=", "=", "<>"):
            self.check(BinaryOp(op, c0, Literal(2)))
            self.check(BinaryOp(op, c1, c0))

    def test_division_short_circuits_like_rows(self):
        # x = 0 OR 1 / x > 0 must not raise on the x = 0 row.
        c3 = ColRef(3)
        self.check(
            BinaryOp(
                "OR",
                BinaryOp("=", c3, Literal(0)),
                BinaryOp(">", BinaryOp("/", Literal(1), c3), Literal(0)),
            )
        )

    def test_and_or_null_semantics(self):
        c4, c0 = ColRef(4), ColRef(0)
        gt = BinaryOp(">", c0, Literal(1))
        self.check(BinaryOp("AND", c4, gt))
        self.check(BinaryOp("OR", c4, gt))

    def test_is_null_and_not(self):
        self.check(IsNull(ColRef(1)))
        self.check(IsNull(ColRef(1), negated=True))
        self.check(UnaryOp("NOT", ColRef(4)))

    def test_in_list(self):
        self.check(InList(ColRef(0), (1, 4)))
        self.check(InList(ColRef(2), ("apple", "kiwi"), negated=True))

    def test_case(self):
        expr = CaseExpr(
            [(BinaryOp(">", ColRef(0), Literal(1)), Literal("big"))],
            Literal("small"),
        )
        self.check(expr)

    def test_functions(self):
        rows = [("1995-03-17",), ("2024-12-01",), (None,)]
        for fname in ("EXTRACT_YEAR", "EXTRACT_MONTH"):
            _assert_matches_row_path(FuncCall(fname, (ColRef(0),)), rows, 1)
        self.check(FuncCall("ABS", (ColRef(1),)))
        self.check(FuncCall("UPPER", (ColRef(2),)))


class TestVectorizedLike:
    PATTERNS = [
        "%", "a%", "%e", "%an%", "a%e", "%a%n%", "apple", "", "%%",
        "_pple", "a__le", "%p_e",
    ]

    def test_like_fuzz_matches_row_matcher(self):
        rng = random.Random(42)
        alphabet = "abcnple "
        for trial in range(200):
            pattern = rng.choice(self.PATTERNS)
            values = [
                None
                if rng.random() < 0.15
                else "".join(
                    rng.choice(alphabet) for _ in range(rng.randrange(0, 12))
                )
                for _ in range(rng.randrange(1, 9))
            ]
            # Exercise both the fixed-width and the demoted object path.
            if trial % 2:
                values = [
                    v + "x" * 40 if v is not None and trial % 4 == 1 else v
                    for v in values
                ]
            rows = [(v,) for v in values]
            expr = LikeExpr(ColRef(0), pattern, negated=bool(trial % 3 == 0))
            _assert_matches_row_path(expr, rows, 1)


class TestSortBatch:
    def test_matches_sort_rows_with_nulls_and_desc(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                (
                    rng.choice([None, 1, 2, 3]),
                    rng.choice([None, "a", "b"]),
                    rng.random(),
                )
                for _ in range(rng.randrange(0, 20))
            ]
            keys = [
                (rng.randrange(3), rng.random() < 0.5)
                for _ in range(rng.randrange(1, 3))
            ]
            got = sort_batch(from_rows(rows, 3), keys).to_rows()
            assert got == sort_rows(rows, keys)

    def test_stability(self):
        rows = [(1, i) for i in range(10)] + [(0, i) for i in range(10)]
        got = sort_batch(from_rows(rows, 2), [(0, True)]).to_rows()
        assert got == sort_rows(rows, [(0, True)])
        assert [r[1] for r in got[:10]] == list(range(10))


    def test_desc_on_int64_min(self):
        # ``-values`` wraps INT64_MIN onto itself; the row path has no
        # such edge.
        rows = [(5,), (-(2**63),), (None,), (7,), (2**63 - 1,)]
        for ascending in (True, False):
            keys = [(0, ascending)]
            got = sort_batch(from_rows(rows, 1), keys).to_rows()
            assert got == sort_rows(rows, keys)

    def test_desc_on_bools_strings_and_floats(self):
        rows = [
            (True, "b", 1.5), (False, "a", -0.0), (None, None, None),
            (True, "a", 2.5), (False, "c", 0.0),
        ]
        for pos in range(3):
            keys = [(pos, False)]
            got = sort_batch(from_rows(rows, 3), keys).to_rows()
            assert got == sort_rows(rows, keys)


def _matches(lcodes, rcodes):
    return sorted(
        (i, j)
        for i, a in enumerate(lcodes.tolist())
        for j, b in enumerate(rcodes.tolist())
        if a >= 0 and a == b
    )


def _python_matches(left, right):
    return sorted(
        (i, j)
        for i, a in enumerate(left)
        for j, b in enumerate(right)
        if a is not None and b is not None and a == b
    )


class TestJoinCodes:
    """Codes are equal exactly where Python ``==`` (the row hash join's
    bucket equality) holds, for any integer range."""

    CASES = [
        ([2**53, 2**53 + 1, 5], [2**53 + 1, 7]),
        ([-(2**63), 2**63 - 1, 0, None], [2**63 - 1, -(2**63), None, 1]),
        ([3, None, 1, 3], [3, 3, None, 2]),
        ([-1, 0, 1], [-1, 1]),
        ([True, False, None], [1, 0, 2]),
        ([2**53 + 1, 4], [float(2**53), 4.0]),  # mixed: exact dict path
        ([1, 2, 3], [2.0, 3.5, None]),
        ([1.5, None, 2.5], [2.5, 1.5]),
        ([], [1, 2]),
        ([1, 2], []),
    ]

    @pytest.mark.parametrize("left,right", CASES)
    def test_single_key_matches_python_equality(self, left, right):
        lcodes, rcodes = _codes_pair(
            column_from_values(left), column_from_values(right)
        )
        assert _matches(lcodes, rcodes) == _python_matches(left, right)

    def test_big_neighbours_get_distinct_codes(self):
        lcodes, _ = _codes_pair(
            column_from_values([2**53, 2**53 + 1, 5]),
            column_from_values([2**53 + 1, 7]),
        )
        assert len(set(lcodes.tolist())) == 3

    def test_multi_key_redensifies_instead_of_overflowing(self):
        # Three keys spanning ~2**62 each: the raw product passes int64.
        big = 2**62 - 1
        left = [(0, 0, 0), (big, big, big), (big, 0, big), (None, 0, 0)]
        right = [(big, big, big), (0, 0, 0), (big, 0, 0), (None, 0, 0)]
        pairs = [(0, 0), (1, 1), (2, 2)]
        lcodes, rcodes = _join_codes(
            from_rows(left, 3), from_rows(right, 3), pairs
        )
        expected = sorted(
            (i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if None not in a and None not in b and a == b
        )
        assert _matches(lcodes, rcodes) == expected


def _run_both(node):
    """The node's rows and ``(op, site) -> [rows in, rows out, units]``
    under the row interpreter and under the columnar one."""
    number_operators(node)
    results = []
    for run in (execute_node, lambda *a: execute_columnar(*a).to_rows()):
        ctx = ExecContext(DataStore(site_count=1, partitions_per_table=1), 1e12)
        results.append((run(node, 0, ctx), dict(ctx.ops)))
    return results


class TestEmptyJoinSide:
    """``from_rows([], width)`` yields object-kind columns, and object
    keys used to send the *other* side's rows through ``_dict_codes``."""

    SIDES = {
        "left-empty": ([], [(1, "x"), (2, "y"), (None, "z")]),
        "right-empty": ([(1, "a"), (None, "b"), (1, "c")], []),
        "both-empty": ([], []),
    }

    @pytest.mark.parametrize("join_type", list(JoinType))
    @pytest.mark.parametrize("sides", sorted(SIDES))
    @pytest.mark.parametrize("with_residual", [False, True])
    def test_short_circuits_and_matches_the_row_backend(
        self, monkeypatch, join_type, sides, with_residual
    ):
        left, right = self.SIDES[sides]
        residual = BinaryOp("<>", ColRef(1), ColRef(3)) if with_residual else None
        node = PhysHashJoin(
            PhysValues(left, ["k", "p"]), PhysValues(right, ["j", "q"]),
            [(0, 0)], residual, join_type, Distribution.single(),
        )
        factorised = []
        dict_codes = columnar._dict_codes
        monkeypatch.setattr(
            columnar, "_dict_codes",
            lambda values: factorised.append(len(values)) or dict_codes(values),
        )
        (row_rows, row_ops), (col_rows, col_ops) = _run_both(node)
        assert col_rows == row_rows and col_ops == row_ops
        assert not factorised, "an empty side must not factorise the other"
        if join_type in (JoinType.LEFT, JoinType.ANTI):
            assert len(col_rows) == len(left)
        else:
            assert col_rows == []


class TestGroupOrder:
    def test_first_occurrence_order_with_heavy_duplicates_and_a_null_group(self):
        """Dense keys scatter their first row with ``np.minimum.at``: a
        plain fancy assignment may keep any of a repeated slot's writers."""
        rng = random.Random(7)
        keys = [9, None, 3, 0, 7]  # first-occurrence order, neither sorted
        rows = [(k, i) for i, k in enumerate(keys)]
        rows += [(rng.choice(keys), i) for i in range(5, 4000)]
        calls = [AggCall(AggFunc.COUNT, None), AggCall(AggFunc.MIN, ColRef(1))]
        node = PhysHashAggregate(
            PhysValues(rows, ["k", "v"]), [0], calls, AggPhase.SINGLE,
            Distribution.single(),
        )
        (row_rows, row_ops), (col_rows, col_ops) = _run_both(node)
        assert col_rows == row_rows and col_ops == row_ops
        assert [r[0] for r in col_rows] == keys
        # MIN(v) is each group's first row number: the representative.
        assert [r[2] for r in col_rows] == [0, 1, 2, 3, 4]
        ids, count, first = columnar._group_ids(from_rows(rows, 2), [0])
        assert count == 5 and first.tolist() == [0, 1, 2, 3, 4]
        assert ids.tolist() == [keys.index(k) for k, _ in rows]


class TestDeferredColumns:
    """``take``/``slice`` copy nothing until ``values``/``mask`` is read."""

    def _forced(self, col):
        return col._source is None

    def test_take_defers_and_kind_len_do_not_force(self):
        col = column_from_values(["x" * 40, None, "y" * 40, "z"])
        picked = col.take(np.array([2, 0, 0], dtype=np.int64))
        assert not self._forced(picked)
        assert (picked.kind, len(picked)) == ("O", 3)
        assert not self._forced(picked)
        assert picked.to_list() == ["y" * 40, "x" * 40, "x" * 40]
        assert self._forced(picked)

    def test_chained_takes_compose_over_the_original_source(self):
        col = column_from_values([10, None, 30, 40])
        chained = col.take(np.array([3, 1, 0])).take(np.array([2, 0])).slice(1, None)
        assert chained._source is col
        assert chained.to_list() == [40]

    def test_forced_mask_is_none_iff_no_null_selected(self):
        col = column_from_values([1, None, 3])
        assert col.take(np.array([0, 2])).mask is None
        assert col.take(np.array([1, 2])).mask.tolist() == [True, False]
        empty = col.take(np.empty(0, dtype=np.int64))
        assert empty.mask is None and empty.to_list() == []

    def test_batch_take_composes_each_index_vector_once(self):
        batch = from_rows([(i, str(i), None) for i in range(6)], 3)
        first = batch.take(np.array([5, 4, 3, 2]))
        extra = column_from_values([7, 8, 9, 10])
        second = ColumnBatch(first.columns + [extra], 4).take(np.array([0, 3]))
        a, b, c, d = second.columns
        assert a._index is b._index is c._index
        assert d._source is extra and d._index is not a._index
        assert second.to_rows() == [(5, "5", None, 7), (2, "2", None, 10)]


class TestBatchErrors:
    def test_unmaterialised_column_raises(self):
        from repro.common.errors import ExecutionError

        batch = ColumnBatch([None, column_from_values([1])], 1)
        with pytest.raises(ExecutionError):
            batch.column(0)
        with pytest.raises(ExecutionError):
            batch.to_rows()
