"""Property: LIKE on the stored leaf columns equals LIKE on the operand.

``columnar._eval_like`` walks a deferred or chunked operand down to its
materialised leaf columns, matches the pattern once per leaf (memoised
on the leaf, at most ``_LIKE_MEMO`` patterns) and gathers the booleans.
It must return what the pre-change evaluator (``tests/helpers.py``),
which reads the operand and converts it, returns — values and NULLs,
through the row evaluator where either falls back — for every operand
shape: a leaf, an index view of one, chunks, chunks of views, and a view
over chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import columnar
from repro.exec.columnar import ColumnBatch, column_from_values, concat_columns
from repro.rel.expr import ColRef, LikeExpr, compile_expr

from helpers import eager_eval_like

pytestmark = pytest.mark.columnar

#: Short strings become ``U`` columns, wide ones (past 32 characters)
#: object columns; an int among them makes a column that must fall back.
SHORT = st.text(alphabet="abc", max_size=6)
WIDE = SHORT.map(lambda s: "x" * 33 + s)
PATTERNS = st.text(alphabet="abcx%_", max_size=6)
SHAPES = ("leaf", "view", "chunks", "chunks-of-views", "view-of-chunks")


def values(draw, others):
    return draw(st.lists(st.none() | SHORT | others, max_size=8))


def operand(shape, first, second, index):
    if shape == "leaf":
        return first
    if shape == "view":
        return first.take(index[0])
    if shape == "chunks":
        return concat_columns([first, second])
    if shape == "chunks-of-views":
        return concat_columns([first.take(index[0]), second])
    return concat_columns([first, second]).take(index[1])


def like(evaluate, col, pattern, negated):
    """The result's values, and whether ``evaluate`` fell back (then the
    values are the row evaluator's, as ``eval_expr`` would give them, or
    the error it raises)."""
    expr = LikeExpr(ColRef(0), pattern, negated)
    try:
        return evaluate(expr, ColumnBatch([col], len(col))).to_list(), False
    except columnar._Fallback:
        row = compile_expr(expr)
        try:
            return [row((v,)) for v in col.to_list()], True
        except (TypeError, AttributeError) as error:  # LIKE over an int
            return type(error), True


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_leafwise_like_matches_the_eager_evaluator(data):
    others = data.draw(st.sampled_from([st.nothing(), WIDE, st.integers(0, 3)]))
    first = column_from_values(values(data.draw, others))
    second = column_from_values(values(data.draw, others))
    rows = st.integers(0, max(len(first) - 1, 0))
    index = [
        np.asarray(data.draw(st.lists(rows, max_size=10) if len(first) else st.just([])), np.int64),
        np.asarray(data.draw(st.lists(
            st.integers(0, len(first) + len(second) - 1), max_size=10
        ) if len(first) + len(second) else st.just([])), np.int64),
    ]
    shape = data.draw(st.sampled_from(SHAPES))
    # Two patterns and then enough to evict the first from every memo.
    patterns = data.draw(st.lists(
        PATTERNS, min_size=2, max_size=columnar._LIKE_MEMO + 2, unique=True
    ))
    for pattern in patterns + patterns[:1]:
        negated = data.draw(st.booleans())
        col = operand(shape, first, second, index)
        got, fell_back = like(columnar._eval_like, col, pattern, negated)
        want, _ = like(eager_eval_like, operand(shape, first, second, index), pattern, negated)
        assert got == want, (shape, pattern, negated)
        # A non-string among the operand's values still falls back (a
        # leaf's non-string outside them may send it there as well).
        assert fell_back or all(type(v) in (str, type(None)) for v in col.to_list())
    for leaf in (first, second):
        memo = leaf._likes or {}
        assert len(memo) <= columnar._LIKE_MEMO
        for out in memo.values():
            assert out is False or (out.dtype == np.bool_ and len(out) == len(leaf))


def test_the_memo_drops_its_oldest_pattern():
    leaf = column_from_values(["x" * 40 + "ab", None, "x" * 40])
    batch = ColumnBatch([leaf.take(np.array([2, 0, 1, 0]))], 4)
    patterns = [f"%{'a' * i}%" for i in range(columnar._LIKE_MEMO + 1)]
    for pattern in patterns:
        columnar._eval_like(LikeExpr(ColRef(0), pattern), batch)
    assert list(leaf._likes) == patterns[1:]
    got = columnar._eval_like(LikeExpr(ColRef(0), "%b", True), batch)
    assert got.to_list() == [True, False, None, False]
    assert list(leaf._likes) == patterns[2:] + ["%b"]
