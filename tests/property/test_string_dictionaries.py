"""Property: a stored string column's dictionary is unobservable.

A ``U`` column of a site batch (``_keys`` marked ``False``) answers
literal comparisons, IN-lists, ``EXTRACT_YEAR``/``EXTRACT_MONTH``,
GROUP BY codes and ``U``-vs-``U`` comparisons from the order-preserving
dictionary its first reader builds (``columnar._codes``).  Each must give
what the same column unmarked gives — today's per-row path: equal values
(under the NULL mask too), kind and mask, and equal ``_group_ids``
(ids, count, first rows).  Covered: NULLs, empty strings, non-ASCII
text, zero rows, literals and IN members absent from the dictionary,
below its first value and above its last, deferred views, views over
chunks, chunks of one leaf and chunks whose leaves hold different
dictionaries, all six operators with either side missing values of
the other, and the tables a dictionary keeps per literal (at most
``_LIKE_MEMO``, oldest dropped first).
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import columnar
from repro.exec.columnar import (
    ColumnBatch,
    _group_ids,
    column_from_values,
    concat_columns,
    eval_expr,
)
from repro.rel.expr import BinaryOp, ColRef, FuncCall, InList, Literal

pytestmark = pytest.mark.columnar

OPS = ("=", "<>", "<", "<=", ">", ">=")
TEXT = st.text(alphabet="abé中", max_size=3)
DATES = st.dates(date(1992, 1, 1), date(1998, 12, 31)).map(str)
#: Beside the values: absent ones, one below every value and one above.
LITERALS = TEXT | st.sampled_from(["", "\U0010ffff", "b\x00", "\x00"])
SHAPES = (
    "leaf", "view", "chunks-of-one-leaf", "chunks-of-two-leaves",
    "view-of-chunks", "view-of-chunks-of-one-leaf",
)


def leaf(values, stored):
    col = column_from_values(values, "U")
    assert col.kind == "U"
    if stored:
        col._keys = False  # as ``_site_batch`` marks it
    return col


def operand(shape, first, second, index):
    if shape == "leaf":
        return first
    if shape == "view":
        return first.take(index[0])
    if shape == "chunks-of-one-leaf":
        return concat_columns([first.take(index[0]), first])
    if shape == "chunks-of-two-leaves":
        return concat_columns([first, second])
    if shape == "view-of-chunks":
        return concat_columns([first, second]).take(index[1])
    return concat_columns([first, first.take(index[0])]).take(index[2])


def indices(draw, bound, size=None):
    if not bound:
        return np.empty(0, np.int64)
    rows = st.integers(0, bound - 1)
    if size is not None:
        return np.asarray(draw(st.lists(rows, min_size=size, max_size=size)), np.int64)
    return np.asarray(draw(st.lists(rows, max_size=12)), np.int64)


def draw_operands(data, values):
    """The same operand twice: over stored leaves and over plain copies."""
    first = data.draw(st.lists(st.none() | values, max_size=10))
    second = data.draw(st.lists(st.none() | values, max_size=10))
    index = [indices(data.draw, len(first))]
    index.append(indices(data.draw, len(first) + len(second)))
    index.append(indices(data.draw, len(first) + len(index[0])))
    shape = data.draw(st.sampled_from(SHAPES))
    stored, plain = (
        operand(shape, leaf(first, flag), leaf(second, flag), index)
        for flag in (True, False)
    )
    return stored, plain


def result(expr, col, *others):
    out = eval_expr(expr, ColumnBatch([col, *others], len(col)))
    mask = out.mask
    return out.values.tolist(), out.kind, None if mask is None else mask.tolist()


def same_groups(stored, plain):
    for keys in ([0], [0, 1]):
        got = _group_ids(ColumnBatch([stored, stored], len(stored)), keys)
        want = _group_ids(ColumnBatch([plain, plain], len(plain)), keys)
        assert got[1] == want[1]
        assert got[0].tolist() == want[0].tolist()
        assert got[2].tolist() == want[2].tolist()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_literal_compare_in_list_and_grouping_match_the_unmarked_column(data):
    stored, plain = draw_operands(data, TEXT)
    for _ in range(3):
        value = data.draw(LITERALS)
        op = data.draw(st.sampled_from(OPS))
        members = data.draw(st.lists(st.none() | LITERALS, max_size=4))
        for expr in (
            BinaryOp(op, ColRef(0), Literal(value)),
            BinaryOp(op, Literal(value), ColRef(0)),
            InList(ColRef(0), members, data.draw(st.booleans())),
        ):
            want = result(expr, plain)
            # Twice: the second reads the table the dictionary kept.
            assert result(expr, stored) == want == result(expr, stored), expr
    same_groups(stored, plain)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_extract_matches_the_unmarked_column(data):
    stored, plain = draw_operands(data, DATES)
    for name in ("EXTRACT_YEAR", "EXTRACT_MONTH") * 2:
        expr = FuncCall(name, [ColRef(0)])
        assert result(expr, stored) == result(expr, plain), name
    same_groups(stored, plain)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_string_column_comparisons_match_the_unmarked_columns(data):
    """Two stored columns (or one, against itself), each side missing
    values of the other; translations are kept and reused."""
    size = data.draw(st.integers(0, 12))  # both leaves have rows
    values = [data.draw(st.lists(st.none() | TEXT, min_size=1, max_size=8))
              for _ in range(2)]
    same_leaf = data.draw(st.booleans())
    picks = [indices(data.draw, len(values[0 if same_leaf else side]), size)
             for side in range(2)]

    def operands(stored):
        leaves = [leaf(v, stored) for v in values]
        return [leaves[0 if same_leaf else side].take(picks[side]) for side in range(2)]

    stored, plain = operands(True), operands(False)
    for op in OPS * 2:  # the second round reads the kept translations
        expr = BinaryOp(op, ColRef(0), ColRef(1))
        assert result(expr, *stored) == result(expr, *plain), op


def test_the_dictionary_is_built_once_and_serves_views():
    values = ["b", None, "a", "中", "", "a", None]
    col = leaf(values, True)
    view = col.take(np.array([3, 1, 0, 2, 4, 6, 5, 0], np.int64))
    out = eval_expr(BinaryOp("<", ColRef(0), Literal("b")), ColumnBatch([view], 8))
    assert out.to_list() == [False, None, False, True, True, None, True, False]
    uniques, codes, kept = col._keys
    assert uniques.tolist() == ["", "a", "b", "中"] and list(kept) == [("<", False, "b")]
    assert codes.dtype == np.int32 and codes.tolist() == [2, 4, 1, 3, 0, 1, 4]
    assert view._values is None, "the view was read through its codes"
    ids, count, first = _group_ids(ColumnBatch([view], 8), [0])
    assert (ids.tolist(), count, first.tolist()) == ([0, 1, 2, 3, 4, 1, 3, 2], 5, [0, 1, 2, 3, 4])
    assert col._keys[1] is codes


def test_a_view_smaller_than_the_dictionary_keeps_the_per_row_path():
    col = leaf([f"v{i}" for i in range(20)], True)
    view = col.take(np.array([4, 2], np.int64))
    expr = BinaryOp("=", ColRef(0), Literal("v4"))
    assert eval_expr(expr, ColumnBatch([view], 2)).to_list() == [True, False]
    assert len(col._keys[0]) == 20, "built by the first reader"
    assert view._values is not None, "compared per row: the view was read"
    assert columnar._codes(view) is None
    assert columnar._codes(col.take(np.arange(20))) is not None


def test_nul_literals_never_reach_the_dictionary(monkeypatch):
    col = leaf(["ALGERIA", "MAIL", None], True)
    monkeypatch.setattr(columnar, "_by_code", lambda *args: pytest.fail("coded"))
    batch = ColumnBatch([col], 3)
    assert eval_expr(BinaryOp("=", ColRef(0), Literal("ALGERIA\x00")), batch).to_list() == [
        False, False, None]
    assert eval_expr(BinaryOp("<", ColRef(0), Literal("ALGERIA\x00")), batch).to_list() == [
        True, False, None]
    assert eval_expr(InList(ColRef(0), ["MAIL\x00", "X"]), batch).to_list() == [
        False, False, False]


def test_a_dictionary_keeps_its_last_literal_tables():
    col = leaf(["b", "a", None, "c", "a"], True)
    batch = ColumnBatch([col], 5)
    values = ["a", "b", "c", "d", "e", "f"]
    for value in values:
        out = eval_expr(BinaryOp("=", ColRef(0), Literal(value)), batch)
        assert out.to_list() == [v == value if v else None for v in ["b", "a", None, "c", "a"]]
    kept = col._keys[2]
    assert list(kept) == [("=", False, v) for v in values[-columnar._LIKE_MEMO:]]
    assert all(table.tolist()[-1] is False for table in kept.values())  # "" = v
