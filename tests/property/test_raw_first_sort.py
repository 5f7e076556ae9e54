"""``sort_rows`` sorts by the raw keys first and by the engine's total
order only when Python raises.

``helpers.census_sort_rows`` is the version it replaced, which scanned
every key column's kinds (``orderable``) before choosing raw or
``NullsLast`` keys.  Both must return the same list, element for element
(ties included), over: NULLs; int/str mixes; bool/int/float mixes;
several keys in mixed directions; heavy ties; and NULLs or mixed kinds
only in non-leading key columns, where a raw tuple sort can finish
without ever comparing them.  NaN stays out: both versions sort a NaN
column raw.
"""

from hypothesis import given, settings, strategies as st

from helpers import census_sort_rows, reference_sort_rows
from repro.common.ordering import sort_rows

WIDTH = 3

kinds = {
    "ints": st.integers(-2, 2),
    "strings": st.sampled_from(["", "a", "b", "ab"]),
    "numbers": st.one_of(
        st.booleans(), st.integers(-2, 2), st.sampled_from([-1.5, 0.0, 0.5, 2.0])
    ),
    "int/str": st.one_of(st.integers(-2, 2), st.sampled_from(["a", "b"])),
}


@st.composite
def columns(draw, nulls: bool):
    values = kinds[draw(st.sampled_from(sorted(kinds)))]
    if nulls:
        values = st.one_of(st.none(), values)
    return values


@st.composite
def keyed_rows(draw):
    """Rows of ``WIDTH`` key columns plus a unique payload, so a tie that
    came out in another order shows.  Column 0 is NULL-free in half the
    draws: NULLs then sit only behind a leading key that may decide
    every comparison first."""
    leading_nulls = draw(st.booleans())
    cols = [draw(columns(leading_nulls))]
    cols += [draw(columns(True)) for _ in range(WIDTH - 1)]
    n = draw(st.integers(0, 24))
    values = [draw(st.lists(c, min_size=n, max_size=n)) for c in cols]
    return [tuple(col[i] for col in values) + (i,) for i in range(n)]


sort_keys = st.lists(
    st.tuples(st.integers(0, WIDTH - 1), st.booleans()),
    min_size=1, max_size=WIDTH, unique_by=lambda key: key[0],
)


@given(keyed_rows(), sort_keys)
@settings(max_examples=600, deadline=None)
def test_raw_first_sort_equals_the_kind_census(rows, keys):
    want = census_sort_rows(rows, keys)
    assert sort_rows(rows, keys) == want
    assert want == reference_sort_rows(rows, keys)


@given(keyed_rows(), sort_keys)
@settings(max_examples=200, deadline=None)
def test_input_is_left_untouched(rows, keys):
    before = list(rows)
    sort_rows(rows, keys)
    assert rows == before


def test_nulls_behind_a_deciding_leading_key_sort_raw():
    """A raw tuple sort never reaches column 1 here: the leading keys are
    distinct.  The census saw its NULL and sorted by ``NullsLast``; the
    answer is the same."""
    rows = [(2, None), (1, "x"), (3, 5)]
    keys = [(0, True), (1, True)]
    assert sort_rows(rows, keys) == census_sort_rows(rows, keys) == [
        (1, "x"), (2, None), (3, 5)
    ]


def test_mixed_kinds_fall_back_to_the_total_order():
    rows = [("a", 0), (None, 1), (3, 2), (True, 3), ("a", 4)]
    for keys in ([(0, True)], [(0, False)], [(0, True), (1, False)]):
        assert sort_rows(rows, keys) == census_sort_rows(rows, keys)
    assert sort_rows(rows, [(0, True)]) == [
        (True, 3), (3, 2), ("a", 0), ("a", 4), (None, 1)
    ]
