"""Property: the direct-address keyed kernels equal the sort-based ones.

``_equi_candidates`` probes a table with one slot per key code, and
``_group_ids`` scatters first occurrences, when the code span is within
``_DENSE_SPAN`` times the rows at hand; sparser keys keep the stable
``argsort`` + ``searchsorted`` probe and the ``np.unique`` grouping.
Which kernel runs must be unobservable: random boolean/integer keys —
NULLs, duplicates on both sides, several key columns, empty inputs,
spans one either side of the density bound and spans past ``2**62`` —
give the five candidate arrays and the ``(ids, count, representatives)``
triple of the pre-change kernels (``tests/helpers.py``), whichever side
of the bound the input falls and with the bound forced either way.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import columnar
from repro.exec.columnar import _equi_candidates, _group_ids, from_rows

from helpers import reference_equi_candidates, reference_group_ids

pytestmark = pytest.mark.columnar

#: Forcing the direct-address kernel is only safe while the table fits.
_FORCIBLE_SLOTS = 1 << 16

_EDGES = [-(2**63), -(2**62) - 1, -(2**62), -1, 0, 1, 2**62, 2**62 + 1, 2**63 - 1]

KEYS = {
    "b": st.booleans(),
    # A narrow range makes duplicates on both sides the common case.
    "i": st.integers(-3, 3) | st.integers(-40, 40) | st.sampled_from(_EDGES),
}


def key_rows(kinds, max_size):
    return st.lists(
        st.tuples(*[st.none() | KEYS[k] for k in kinds]), max_size=max_size
    )


def same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype == np.int64
            assert g.tolist() == w.tolist()
        else:
            assert g == w


@contextmanager
def forced_span(span):
    """Hypothesis examples share one function scope, so no monkeypatch."""
    default = columnar._DENSE_SPAN
    columnar._DENSE_SPAN = span
    try:
        yield
    finally:
        columnar._DENSE_SPAN = default


def count_calls(monkeypatch, name):
    """Calls of ``np.<name>`` from here on (the sorted probe is the only
    caller of ``searchsorted``, the sparse grouping of ``unique``)."""
    calls = []
    function = getattr(np, name)
    monkeypatch.setattr(
        np, name, lambda *a, **k: calls.append(1) or function(*a, **k)
    )
    return calls


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_both_probes_match_the_sorted_reference(data):
    width = data.draw(st.integers(1, 3))
    left_kinds = data.draw(st.lists(st.sampled_from("bi"), min_size=width, max_size=width))
    right_kinds = data.draw(st.lists(st.sampled_from("bi"), min_size=width, max_size=width))
    left = from_rows(data.draw(key_rows(left_kinds, 12)), width)
    right = from_rows(data.draw(key_rows(right_kinds, 12)), width)
    pairs = [(i, i) for i in range(width)]
    want = reference_equi_candidates(left, right, pairs)
    same(_equi_candidates(left, right, pairs), want)
    slots = 0
    if left.length and right.length:
        slots = columnar._code_count(*columnar._join_codes(left, right, pairs)) + 1
    for span in [0] + ([1 << 40] if slots <= _FORCIBLE_SLOTS else []):
        with forced_span(span):
            same(_equi_candidates(left, right, pairs), want)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_both_groupings_match_the_unique_reference(data):
    width = data.draw(st.integers(0, 3))
    kinds = data.draw(st.lists(st.sampled_from("bi"), min_size=width, max_size=width))
    rows = data.draw(key_rows(kinds, 16))
    batch = from_rows(rows, width)
    keys = list(range(width))
    want = reference_group_ids(batch, keys)
    same(_group_ids(batch, keys), want)
    # The definition itself: ids number the distinct key tuples in
    # first-occurrence order and each representative is that first row.
    seen = {}
    ids = [seen.setdefault(row, len(seen)) for row in rows]
    assert want[0].tolist() == ids and want[1] == len(seen)
    assert want[2].tolist() == [ids.index(g) for g in range(len(seen))]
    narrow = all(
        v is None or abs(v) <= 40 for row in rows for v in row
    )
    for span in [0] + ([1 << 20] if narrow else []):
        with forced_span(span):
            same(_group_ids(batch, keys), want)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("unique_build", [True, False])
def test_probe_switches_exactly_at_the_density_bound(
    delta, unique_build, monkeypatch
):
    """``slots = span + 1`` (one for the NULL slot): at or under
    ``_DENSE_SPAN * (left + right)`` no binary search runs; one past it
    the sorted probe does — and the arrays never notice."""
    n_left, n_right = 7, 5
    slots = columnar._DENSE_SPAN * (n_left + n_right) + delta
    top = slots - 2  # codes run 0..top, slot 0 is NULL's
    build = [0, 3, 9, top, None] if unique_build else [3, top, 3, None, top]
    probe = [top, 3, None, 0, 3, 5, top]
    left = from_rows([(v,) for v in probe], 1)
    right = from_rows([(v,) for v in build], 1)
    searches = count_calls(monkeypatch, "searchsorted")
    got = _equi_candidates(left, right, [(0, 0)])
    assert bool(searches) == (delta > 0)
    same(got, reference_equi_candidates(left, right, [(0, 0)]))


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_grouping_switches_exactly_at_the_density_bound(delta, monkeypatch):
    n = 6
    span = columnar._DENSE_SPAN * n + delta
    batch = from_rows([(v,) for v in [span - 1, 0, 4, 0, span - 1, 4]], 1)
    uniques = count_calls(monkeypatch, "unique")
    got = _group_ids(batch, [0])
    assert bool(uniques) == (delta > 0)
    monkeypatch.undo()
    same(got, reference_group_ids(batch, [0]))
    assert got[0].tolist() == [0, 1, 2, 1, 0, 2]


def test_many_dense_keys_do_not_overflow_the_combined_code():
    """Eight key columns of span 8n = 2**9 each: un-renumbered, the first
    key's weight would be 2**63 and ``(2, 0, ...)`` would wrap onto
    ``(0, 0, ...)``."""
    n = 64
    rows = [
        tuple((i * (k + 3)) % (8 * n) for k in range(8)) for i in range(n)
    ]
    rows += [(0,) * 7 + (8 * n - 1,), (8 * n - 1,) * 8, rows[5], rows[0]]
    rows.append((2,) + (0,) * 7)
    batch = from_rows(rows, 8)
    seen = {}
    ids = [seen.setdefault(row, len(seen)) for row in rows]
    got = _group_ids(batch, list(range(8)))
    assert got[0].tolist() == ids and got[1] == len(seen)
    same(got, reference_group_ids(batch, list(range(8))))
