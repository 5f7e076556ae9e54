"""Property: typed ``(s, c)`` partial states cross the MAP→REDUCE exchange.

``columnar._aggregate_batch`` under MAP emits each SUM/AVG partial as one
structured column of ``(s float64, c int64)`` pairs and each COUNT as an
int64 column, also over an empty input.  A hash exchange splits those
columns into index views per site and the receiver concatenates them; the
fields must survive both, and REDUCE must read them.  Over random groups
— NULL keys and arguments, groups and whole columns with no non-NULL
value, ``i``/``f``/mixed-``O`` arguments, every aggregate function — split
over one to four sites, some of them empty:

* the partial column reads (``to_list``) as exactly the ``(float, int)``
  tuples of ``tests/helpers.py:phased_agg_columns``, the kernel pair that
  built them as Python objects;
* REDUCE equals SINGLE over the same rows, group by group, in values and
  their types, and in each column's kind;
* MAP then REDUCE equals the row backend's ``aggregate_kernel`` MAP then
  REDUCE over the same partial rows in the same order, in values with
  their types, kind and mask.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import columnar
from repro.exec.aggregates import aggregate_kernel
from repro.exec.columnar import concat_batches, from_rows
from repro.exec.physical import AggPhase
from repro.rel.expr import ColRef
from repro.rel.logical import AggCall, AggFunc

from helpers import phased_agg_columns

pytestmark = pytest.mark.columnar

FUNCS = [AggFunc.COUNT, AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX]

FLOATS = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

ARGUMENTS = {
    "i": st.none() | st.integers(-50, 50),
    "f": st.none() | FLOATS,
    "O": st.none() | st.integers(-50, 50) | FLOATS,  # mixed: an object column
    "null": st.none(),  # no group sees a value
}


def typed(values):
    return [(type(v), v) for v in values]


def typed_rows(rows):
    return [typed(row) for row in rows]


def column_state(col):
    mask = None if col.mask is None else col.mask.tolist()
    return col.kind, mask, typed(col.to_list())


def node(phase, calls, width):
    return SimpleNamespace(phase=phase, agg_calls=calls, group_keys=(0,), width=width)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_typed_partials_reduce_like_single_and_the_row_kernel(data):
    n_calls = data.draw(st.integers(1, 4))
    calls, generators = [], []
    for i in range(n_calls):
        func = data.draw(st.sampled_from(FUNCS))
        star = func is AggFunc.COUNT and data.draw(st.booleans())
        calls.append(AggCall(func, None if star else ColRef(1 + i), False))
        kind = data.draw(st.sampled_from(sorted(ARGUMENTS)))
        generators.append(st.none() if star else ARGUMENTS[kind])
    keys = st.none() | st.integers(0, 3)
    rows = data.draw(st.lists(st.tuples(keys, *generators), max_size=24))
    width = 1 + n_calls
    batch = from_rows(rows, width)

    map_node = node(AggPhase.MAP, calls, width)
    mapped = columnar._aggregate_batch(map_node, batch, False)
    group_ids, n_groups, _ = columnar._group_ids(batch, [0])
    want = phased_agg_columns(map_node, batch, group_ids, n_groups)
    for i, call in enumerate(calls):
        got = mapped.column(1 + i)
        if call.func in (AggFunc.SUM, AggFunc.AVG):
            assert got.values.dtype.names == ("s", "c")
            assert [typed(p) for p in got.to_list()] == [
                typed(p) for p in want[i].to_list()
            ]
        elif call.func is AggFunc.COUNT:
            assert got.values.dtype == np.int64
    row_partials = aggregate_kernel((0,), calls, AggPhase.MAP, False)(rows)
    assert typed_rows(mapped.to_rows()) == typed_rows(row_partials)

    # The exchange: each site an index view of the MAP rows, in any order,
    # plus a site whose MAP input was empty.
    n_sites = data.draw(st.integers(1, 4))
    order = data.draw(st.permutations(range(mapped.length)))
    sites = data.draw(st.lists(
        st.integers(0, n_sites - 1), min_size=len(order), max_size=len(order)
    ))
    picks = [[r for r, s in zip(order, sites) if s == site] for site in range(n_sites)]
    views = [mapped.take(np.asarray(p, dtype=np.int64)) for p in picks]
    if data.draw(st.booleans()):
        empty = batch.take(np.empty(0, np.int64))
        views.insert(data.draw(st.integers(0, len(views))),
                     columnar._aggregate_batch(map_node, empty, False))
    received = concat_batches(views, width)
    for i, call in enumerate(calls):
        if call.func in (AggFunc.SUM, AggFunc.AVG):
            assert received.column(1 + i).values.dtype.names == ("s", "c")

    reduced = columnar._aggregate_batch(
        node(AggPhase.REDUCE, calls, width), received, False
    )
    got = [reduced.column(i) for i in range(width)]

    # REDUCE equals SINGLE, group by group.
    single = columnar._aggregate_batch(node(AggPhase.SINGLE, calls, width), batch, False)
    assert [c.kind for c in got] == [single.column(i).kind for i in range(width)]
    by_key = {row[0]: typed(row) for row in single.to_rows()}
    assert {row[0]: typed(row) for row in reduced.to_rows()} == by_key
    assert reduced.length == single.length

    # MAP→REDUCE equals the row kernel's, over the same partial rows in
    # the same order.
    row_received = [row_partials[r] for p in picks for r in p]
    row_reduced = aggregate_kernel((0,), calls, AggPhase.REDUCE, False)(row_received)
    assert typed_rows(reduced.to_rows()) == typed_rows(row_reduced)
    if row_reduced:  # no rows: every column of ``from_rows`` is an object one
        expected = from_rows(row_reduced, width)
        assert [column_state(c) for c in got] == [
            column_state(expected.column(i)) for i in range(width)
        ]
