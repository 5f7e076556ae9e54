"""Property: every path of the keyed kernels equals the sort-based one.

``_equi_candidates`` may first keep only the rows that can match
(``_semi_reduce``: two ``bool`` tables, within ``_FLAG_SPAN`` slots per
row), then probes a table with one slot per key code when
the span is within ``_DENSE_SPAN`` times the rows at hand, and a stable
``argsort`` + ``searchsorted`` otherwise; ``_group_ids`` scatters first
occurrences under the same bound and keeps ``np.unique`` past it.
Which path runs must be unobservable: random boolean/integer keys —
NULLs, duplicates on both sides, one or several key columns, empty
inputs, few matches over spans far past the rows, spans past ``2**62``
— give the five candidate arrays and the ``(ids, count,
representatives)`` triple of the reference kernels (``tests/helpers.py``:
the sort-based ones and the pre-reduction probe), with the constants
forced either way.  The switches themselves are pinned one slot or row
either side of each constant.  A side marked stored (as ``_site_batch``
marks its columns) answers a one-key join from the key buckets kept on
its column, and must give the same five arrays.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import columnar
from repro.exec.columnar import _equi_candidates, _group_ids, from_rows

from helpers import (
    reference_equi_candidates,
    reference_group_ids,
    unreduced_equi_candidates,
)

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
def forced(**constants):
    """``columnar``'s module constants set for the duration, by name
    (Hypothesis examples share one function scope, so no monkeypatch)."""
    defaults = {name: getattr(columnar, name) for name in constants}
    for name, value in constants.items():
        setattr(columnar, name, value)
    try:
        yield
    finally:
        for name, value in defaults.items():
            setattr(columnar, name, value)


def forced_span(span):
    return forced(_DENSE_SPAN=span)


def count_calls(monkeypatch, name):
    """Calls of ``np.<name>`` from here on (the sparse grouping is the
    only caller of ``unique``)."""
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


#: The reduction runs wherever its ``bool`` tables fit (``_FLAG_SPAN``
#: slots per row); or it never runs.
ALWAYS = dict(_REDUCE_SPAN=0, _REDUCE_RATIO=0, _REDUCE_MIN=0)
NEVER = dict(_REDUCE_SPAN=1 << 62)

#: Sparse values (few matches, spans far past ``8 * rows``) beside a
#: narrow range, so both dense and sparse codes come up.
SPREAD = st.integers(0, 10**6) | st.integers(0, 20) | st.sampled_from([0, 2**40])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reduced_probe_matches_the_unreduced_kernel(data):
    width = data.draw(st.integers(1, 2))
    row = st.tuples(*[st.none() | SPREAD] * width)
    left = from_rows(data.draw(st.lists(row, max_size=10)), width)
    right = from_rows(data.draw(st.lists(row, max_size=40)), width)
    pairs = [(i, i) for i in range(width)]
    want = reference_equi_candidates(left, right, pairs)
    same(unreduced_equi_candidates(left, right, pairs), want)
    same(_equi_candidates(left, right, pairs), want)
    slots = 0
    if left.length and right.length:
        slots = columnar._code_count(*columnar._join_codes(left, right, pairs)) + 1
    flags = [0] + ([1 << 40] if slots <= _FORCIBLE_SLOTS else [])
    for flag_span in flags:
        for dense in flags:
            with forced(**ALWAYS, _FLAG_SPAN=flag_span, _DENSE_SPAN=dense):
                same(_equi_candidates(left, right, pairs), want)
    with forced(**NEVER):
        same(_equi_candidates(left, right, pairs), want)


def probe_path(monkeypatch, probe, build):
    """Run the probe over one-column int keys; ``(reduced, by a search of
    the sorted probe codes, kept rows ordered by a stable argsort)`` —
    and the arrays must be the unreduced kernel's."""
    left = from_rows([(v,) for v in probe], 1)
    right = from_rows([(v,) for v in build], 1)
    sorts = count_calls(monkeypatch, "sort")
    argsorts = count_calls(monkeypatch, "argsort")
    reductions = []
    reduce = columnar._semi_reduce

    def reduced(*args):
        before = len(sorts)
        reductions.append((reduce(*args), len(sorts) > before))
        return reductions[-1][0]

    monkeypatch.setattr(columnar, "_semi_reduce", reduced)
    got = _equi_candidates(left, right, [(0, 0)])
    monkeypatch.undo()
    same(got, unreduced_equi_candidates(left, right, [(0, 0)]))
    assert len(reductions) == 1
    (result, searched), = reductions
    return result is not None, searched, bool(argsorts)


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("unique_build", [True, False])
def test_probe_switches_exactly_at_the_density_bound(
    delta, unique_build, monkeypatch
):
    """Every row matches, so the reduction keeps them all: at or under
    ``_DENSE_SPAN`` slots per kept row (``slots = span + 1``, one for the
    NULL slot) the kept rows are addressed directly, one past it they are
    sorted — and the arrays never notice."""
    probe = ["top", 3, None, 0, 3, 5, "top"]
    build = [0, 3, 5, "top", None] if unique_build else [3, "top", 3, None, "top", 0, 5]
    kept_rows = sum(v is not None for v in probe + build)
    slots = columnar._DENSE_SPAN * kept_rows + delta
    top = slots - 2  # codes run 0..top, slot 0 is NULL's
    probe, build = ([top if v == "top" else v for v in side] for side in (probe, build))
    reduced, searched, sorted_kept = probe_path(monkeypatch, probe, build)
    assert reduced and not searched
    assert sorted_kept == (delta > 0)


def span_bound(delta):
    """Small sides, so only the span decides: ``slots`` one either side
    of ``_REDUCE_SPAN`` per row."""
    top = columnar._REDUCE_SPAN * 8 + delta - 2
    return [0, top, 7], [1, 7, top, 7, None]


def coverage_bound(delta):
    """A big build side, so only the probe side's share of the span
    decides: ``slots`` one either side of ``_REDUCE_SPAN`` per probe row."""
    n_left = columnar._REDUCE_MIN // columnar._REDUCE_RATIO
    slots = columnar._REDUCE_SPAN * n_left + delta
    return [3 * i for i in range(n_left)], [
        i % (slots - 1) for i in range(columnar._REDUCE_MIN)
    ]


def ratio_bound(delta):
    """The build side one row short of ``_REDUCE_RATIO`` per probe row,
    at it, or one past (``_REDUCE_MIN`` is met throughout)."""
    n_left = 300
    n_right = columnar._REDUCE_RATIO * n_left + delta
    return [5 * i for i in range(n_left)], [i % 1999 for i in range(n_right)]


def least_bound(delta):
    """The build side one row short of ``_REDUCE_MIN``, at it, or past."""
    n_right = columnar._REDUCE_MIN + delta
    return list(range(0, 40, 4)), [i % 99 for i in range(n_right)]


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize(
    "make, inclusive",
    [(span_bound, False), (coverage_bound, False), (ratio_bound, True), (least_bound, True)],
    ids=["span", "coverage", "ratio", "least-rows"],
)
def test_reduction_switches_exactly_at_its_bounds(make, inclusive, delta, monkeypatch):
    """A span bound is passed one slot past it; a row bound is met at it."""
    reduced, searched, _ = probe_path(monkeypatch, *make(delta))
    assert reduced == (delta >= 0 if inclusive else delta > 0)
    assert not searched


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize("big", [True, False])
def test_flag_tables_give_way_to_sorted_codes_at_the_flag_bound(
    big, delta, monkeypatch
):
    """Up to ``_FLAG_SPAN`` slots per row the reduction uses ``bool``
    tables; past it the reduction declines and the plain sorted probe
    runs, however big the build side.  It never searches sorted codes."""
    n_right = columnar._REDUCE_MIN if big else 64
    probe = [5, 17, None, 5]
    slots = columnar._FLAG_SPAN * (len(probe) + n_right) + delta
    build = [i % 23 for i in range(n_right - 1)] + [slots - 2]
    reduced, searched, sorted_kept = probe_path(monkeypatch, probe, build)
    assert reduced == (delta <= 0)
    assert not searched
    assert sorted_kept


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


def stored(batch):
    """``batch`` with its columns marked stored, as ``_site_batch`` does."""
    for col in batch.columns:
        col._keys = False
    return batch


def key_span(rows):
    keys = [row[0] for row in rows if row[0] is not None]
    return int(max(keys)) - int(min(keys)) + 1 if keys else 0


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_stored_side_buckets_match_the_sorted_reference(data):
    """Either side stored, its buckets dense or sorted (``_DENSE_SPAN``
    forced either way while the table fits): NULLs, duplicates, empty
    sides and the int64 edges give the reference's arrays."""
    kinds = data.draw(st.lists(st.sampled_from("bi"), min_size=2, max_size=2))
    rows = [data.draw(key_rows(kind, 12)) for kind in kinds]
    want = reference_equi_candidates(
        from_rows(rows[0], 1), from_rows(rows[1], 1), [(0, 0)]
    )
    for side in (0, 1):
        spans = [0, columnar._DENSE_SPAN]
        if key_span(rows[side]) <= _FORCIBLE_SLOTS:
            spans.append(1 << 40)
        for span in spans:
            left, right = from_rows(rows[0], 1), from_rows(rows[1], 1)
            marked = stored((left, right)[side])
            with forced_span(span):
                same(_equi_candidates(left, right, [(0, 0)]), want)
            table = marked.columns[0]._keys
            kinds = {left.columns[0].kind, right.columns[0].kind}
            if len(left) and len(right) and kinds <= set("bi"):
                assert (table[1] is None) == (
                    key_span(rows[side]) <= span * len(marked)
                )
                # A second join on the stored column reuses its table.
                same(_equi_candidates(left, right, [(0, 0)]), want)
                assert marked.columns[0]._keys is table
            else:  # not a one-key integer join: today's kernel, no table
                assert table is False


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("build", [
    [-(2**63), -(2**63) + 1, None, -(2**63)],
    [2**63 - 1, 2**63 - 2, None, 2**63 - 1],
], ids=["low-edge", "high-edge"])
def test_keys_outside_a_dense_table_never_match(side, build):
    """A two-slot table at either end of int64: a probe key whose
    difference from ``low`` overflows int64 is out of range, not a
    wrapped slot."""
    far = [2**63 - 1, -(2**63) + 1, None, 2**63 - 2, -(2**63), 0, -1]
    rows = {"left": far, "right": build}
    if side == "left":
        rows = {"left": build, "right": far}
    left = from_rows([(v,) for v in rows["left"]], 1)
    right = from_rows([(v,) for v in rows["right"]], 1)
    want = reference_equi_candidates(left, right, [(0, 0)])
    stored(left if side == "left" else right)
    got = _equi_candidates(left, right, [(0, 0)])
    same(got, want)
    assert (left if side == "left" else right).columns[0]._keys[1] is None
    assert len(got[0]) == sum(
        a == b for a in rows["left"] for b in rows["right"] if a is not None
    )
