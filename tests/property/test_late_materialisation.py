"""Property: deferred columns are observably the same as eager ones.

``Column.take`` returns (source column, index vector) and gathers only
when ``values``/``mask`` is read.  Random chains of ``take`` / ``slice``
/ ``concat_batches`` / ``sort_batch`` — with some columns forced part
way, so deferred and materialised siblings mix — must produce exactly
the rows the same chain produces on Python row lists; ``kind`` and
``len`` must never gather; and a gathered column must keep the
``mask is None`` iff NULL-free normalisation the kernels branch on.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.columnar import concat_batches, from_rows, sort_batch
from repro.exec.operators import sort_rows

pytestmark = pytest.mark.columnar

VALUES = {
    "b": st.booleans(),
    "i": st.integers(-(2**63), 2**63 - 1),
    "f": st.floats(allow_nan=False),
    "U": st.text("abc", max_size=4),
    # Past ``_WIDE_STR_CHARS``: stored as an object column.
    "O": st.text("xyz", min_size=33, max_size=40),
}


def rows_of(kinds, max_size=8):
    return st.lists(
        st.tuples(*[st.none() | VALUES[k] for k in kinds]), max_size=max_size
    )


def deferred(batch):
    """Per column: not yet gathered or concatenated."""
    return [col._values is None for col in batch.columns]


def probe_without_forcing(batch, kinds):
    before = deferred(batch)
    for col, kind in zip(batch.columns, kinds):
        assert len(col) == batch.length
        if kind not in "UO":  # empty / all-NULL string parts are objects
            assert col.kind in (kind, "O")
    assert deferred(batch) == before


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_lazy_chains_match_row_lists(data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=4))
    width = len(kinds)
    rows = data.draw(rows_of(kinds))
    batch = from_rows(rows, width)
    steps = data.draw(st.lists(
        st.sampled_from(["take", "slice", "concat", "sort", "force"]),
        max_size=6,
    ))
    for step in steps:
        n = len(rows)
        if step == "take":
            picks = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=10))
            picks = picks if n else []
            batch = batch.take(np.asarray(picks, dtype=np.int64))
            rows = [rows[i] for i in picks]
            assert all(deferred(batch))
        elif step == "slice":
            start = data.draw(st.integers(0, 10))
            stop = data.draw(st.none() | st.integers(0, 12))
            before = deferred(batch)
            batch = batch.slice(start, stop)
            rows = rows[start:stop]
            assert deferred(batch) == before
        elif step == "concat":
            other = data.draw(rows_of(kinds, max_size=4))
            parts = [(batch, rows), (from_rows(other, width), other)]
            if data.draw(st.booleans()):
                parts.reverse()
            batch = concat_batches([b for b, _ in parts], width)
            rows = parts[0][1] + parts[1][1]
        elif step == "sort":
            keys = data.draw(st.lists(
                st.tuples(st.integers(0, width - 1), st.booleans()),
                min_size=1, max_size=2,
            ))
            batch = sort_batch(batch, keys)
            rows = sort_rows(rows, keys)
        else:
            batch.column(data.draw(st.integers(0, width - 1))).values
        assert batch.length == len(rows)
        probe_without_forcing(batch, kinds)
    assert batch.to_rows() == rows
    for i, col in enumerate(batch.columns):
        nulls = [row[i] is None for row in rows]
        if any(nulls):
            assert col.mask.tolist() == nulls
        else:
            assert col.mask is None
