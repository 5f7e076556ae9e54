"""Property: one columnar aggregate kernel equals the per-phase pair.

``columnar._aggregate_batch`` computes every phase's aggregate columns in
one kernel: SINGLE and MAP read each call's argument, REDUCE the MAP
partial states after the keys (COUNT an int, SUM/AVG a ``(sum, count)``
pair, MIN/MAX a value-or-None).  ``tests/helpers.py:phased_agg_columns``
is the pair of kernels that did this before, one for SINGLE/MAP and one
for REDUCE.  Over random groups — NULL keys and arguments, groups with no
non-NULL value, DISTINCT, object (``O``) columns of mixed ints and floats
or wide strings, ``None`` partial states — every aggregate column must
equal the oracle's in values (types included), kind and mask, and a
DISTINCT call under MAP must raise in both.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.exec import columnar
from repro.exec.columnar import from_rows
from repro.exec.physical import AggPhase
from repro.rel.expr import ColRef
from repro.rel.logical import AggCall, AggFunc

from helpers import phased_agg_columns

pytestmark = pytest.mark.columnar

FUNCS = [AggFunc.COUNT, AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX]

FLOATS = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
NUMBERS = st.sampled_from(["i", "f", "O"])
WIDE = "w" * 40


def numbers(kind):
    if kind == "i":
        return st.integers(-50, 50)
    if kind == "f":
        return FLOATS
    return st.integers(-50, 50) | FLOATS  # mixed: an object column


def arguments(func, kind):
    if func in (AggFunc.SUM, AggFunc.AVG) or kind in ("i", "f", "O"):
        return numbers(kind)
    if kind == "U":
        return st.sampled_from(["a", "b", "c", "dd"])
    return st.sampled_from(["a", "b", WIDE + "a", WIDE + "b"])  # "W": wide


def partials(func, kind):
    """A MAP partial state of ``func`` (``None`` where MAP can emit it)."""
    if func is AggFunc.COUNT:
        return st.integers(0, 9) | st.booleans() if kind == "O" else st.integers(0, 9)
    if func in (AggFunc.SUM, AggFunc.AVG):
        return st.none() | st.tuples(FLOATS, st.integers(0, 9))
    return st.none() | arguments(func, kind)


def column_state(col):
    mask = None if col.mask is None else col.mask.tolist()
    return col.kind, mask, [(type(v), v) for v in col.to_list()]


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_one_kernel_matches_the_phased_pair(data):
    phase = data.draw(st.sampled_from(list(AggPhase)))
    n_calls = data.draw(st.integers(1, 3))
    calls, generators = [], []
    for i in range(n_calls):
        func = data.draw(st.sampled_from(FUNCS))
        if func in (AggFunc.SUM, AggFunc.AVG):
            kind = data.draw(NUMBERS)
        else:
            kind = data.draw(st.sampled_from(["i", "f", "O", "U", "W"]))
        star = func is AggFunc.COUNT and data.draw(st.booleans())
        distinct = phase is not AggPhase.REDUCE and data.draw(st.booleans())
        arg = None if star else ColRef(1 + i)
        calls.append(AggCall(func, arg, distinct))
        if phase is AggPhase.REDUCE:
            generators.append(partials(func, kind))
        elif star:
            generators.append(st.none())
        else:
            generators.append(st.none() | arguments(func, kind))
    keys = st.none() | st.integers(0, 3)
    rows = data.draw(st.lists(st.tuples(keys, *generators), min_size=1, max_size=24))
    width = 1 + n_calls
    batch = from_rows(rows, width)
    node = SimpleNamespace(
        phase=phase, agg_calls=calls, group_keys=(0,), width=width
    )
    sorted_runs = phase is not AggPhase.REDUCE and data.draw(st.booleans())
    ids = columnar._run_ids if sorted_runs else columnar._group_ids
    group_ids, n_groups, _ = ids(batch, [0])
    if phase is AggPhase.MAP and any(call.distinct for call in calls):
        with pytest.raises(ExecutionError):
            phased_agg_columns(node, batch, group_ids, n_groups)
        with pytest.raises(ExecutionError):
            columnar._aggregate_batch(node, batch, sorted_runs)
        return
    want = phased_agg_columns(node, batch, group_ids, n_groups)
    out = columnar._aggregate_batch(node, batch, sorted_runs)
    assert out.length == n_groups
    got = [out.column(1 + i) for i in range(n_calls)]
    assert [column_state(c) for c in got] == [column_state(c) for c in want]
