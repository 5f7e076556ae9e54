"""Property: a chunked concatenation is observably the eager one.

``concat_columns`` returns a column holding its parts as chunks, and
``Column._force`` concatenates them on first read.  Whatever the parts —
every kind, no / some / all NULLs, empty parts, parts of different kinds
(which must take the object fallback), deferred or already chunked parts
— the chunked column must match the eager concatenation
(``helpers.eager_concat_columns``) by ``kind``, ``len``, ``to_list`` and
mask, before and after a ``take`` or ``slice``, and ``kind``/``len`` must
not concatenate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import eager_concat_columns
from repro.exec.columnar import column_from_values, concat_columns

pytestmark = pytest.mark.columnar

VALUES = {
    "b": st.booleans(),
    "i": st.integers(-(2**63), 2**63 - 1),
    "f": st.floats(allow_nan=False),
    "U": st.text("abc", max_size=4),
    # Past ``_WIDE_STR_CHARS``, or mixed types: stored as objects.
    "O": st.text("xyz", min_size=33, max_size=40) | st.integers(0, 9),
    # No non-NULL value: an all-NULL object column.
    "n": st.nothing(),
}


@st.composite
def parts(draw):
    """One part's recipe: kind, values, and whether it arrives deferred
    (a ``take`` of a longer column) or chunked itself."""
    kind = draw(st.sampled_from(sorted(VALUES)))
    nulls = "all" if kind == "n" else draw(st.sampled_from(["none", "some", "all"]))
    size = draw(st.integers(0, 5))
    if nulls == "all":
        values = [None] * size
    elif nulls == "none":
        values = draw(st.lists(VALUES[kind], min_size=size, max_size=size))
    else:
        values = draw(st.lists(st.none() | VALUES[kind], min_size=size, max_size=size))
    form = draw(st.sampled_from(["plain", "deferred", "chunked"]))
    return kind, values, form


def build(recipe):
    """A fresh column from a recipe (each side gets its own objects, so
    one side's forcing cannot feed the other)."""
    kind, values, form = recipe
    explicit = None if kind in "nO" else kind
    if form == "deferred":
        padded = column_from_values([values[0] if values else None] + values, explicit)
        return padded.take(np.arange(1, len(values) + 1, dtype=np.int64))
    if form == "chunked" and len(values) > 1:
        half = len(values) // 2
        return concat_columns([
            column_from_values(values[:half], explicit),
            column_from_values(values[half:], explicit),
        ])
    return column_from_values(values, explicit)


def typed(values):
    return [(type(v), v) for v in values]


def assert_same(col, oracle):
    assert col.kind == oracle.kind
    assert len(col) == len(oracle)
    assert typed(col.to_list()) == typed(oracle.to_list())
    if oracle.mask is None:
        assert col.mask is None
    else:
        assert col.mask.tolist() == oracle.mask.tolist()
    assert col.kind == oracle.kind  # and still, now that it is forced


def unforced(col):
    return col._values is None


@given(recipes=st.lists(parts(), min_size=2, max_size=4), data=st.data())
@settings(max_examples=400, deadline=None)
def test_chunked_concat_matches_eager(recipes, data):
    chunked = concat_columns([build(r) for r in recipes])
    oracle = eager_concat_columns([build(r) for r in recipes])
    n = len(oracle)
    assert unforced(chunked)
    assert (chunked.kind, len(chunked)) == (oracle.kind, n)
    assert unforced(chunked)
    if len({build(r).kind for r in recipes}) > 1:
        assert chunked.kind == "O"  # the object fallback

    picks = np.asarray(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8)) if n else [],
        dtype=np.int64,
    )
    start = data.draw(st.integers(0, n + 1))
    stop = data.draw(st.none() | st.integers(0, n + 1))
    views = [
        (chunked.take(picks), oracle.take(picks)),
        (chunked.slice(start, stop), oracle.slice(start, stop)),
    ]
    # A deferred view over the chunked column, viewed again: the index
    # vectors compose over the chunked source.
    outer = np.arange(len(picks), dtype=np.int64)[::-1]
    views.append((chunked.take(picks).take(outer), oracle.take(picks).take(outer)))
    views.append((chunked.take(picks).slice(1, None), oracle.take(picks).slice(1, None)))
    for view, expected in views:
        assert unforced(view) and view._chunks is None
        assert (view.kind, len(view)) == (expected.kind, len(expected))
        assert unforced(chunked)
    if data.draw(st.booleans()):
        assert_same(chunked, oracle)
    for view, expected in views:
        assert_same(view, expected)
    assert_same(chunked, oracle)
    assert chunked._chunks is None
