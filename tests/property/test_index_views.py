"""Index scans of the columnar backend are sorted views of the site batch.

``exec.columnar._index_order_batch`` stably sorts the one batch of a
site's partitions by the index key, and ``PartitionIndex.range_bounds``
bisects its sorted rows with a probe that wraps no key.  Both are compared here with
the implementations they replaced (``tests/helpers.py``): the row path's
merge of the per-partition index streams rebuilt as a batch, and a bisect
over a list of wrapped keys — over empty partitions, NULL and mixed-kind
keys, two-column keys, narrow (``U``) and wide (object) strings, and
partition sets that take over a dead site's partitions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.exec import columnar
from repro.exec.operators import ExecContext, merge_sorted
from repro.storage.store import DataStore
from repro.storage.table import PartitionIndex

from helpers import merged_index_batch, reference_range_bounds

pytestmark = pytest.mark.columnar

#: Wide enough to stay a Python object column (``_WIDE_STR_CHARS``).
WIDE = "w" * 40

#: Key values by kind; a column draws from one pool or from several.
POOLS = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([-1.5, 0.0, 0.5, 2.0]),
    "narrow": st.sampled_from(["", "a", "ab", "b"]),
    "wide": st.sampled_from([WIDE + "a", WIDE + "b", WIDE]),
}


@st.composite
def key_values(draw):
    """A key value strategy: one kind or a mix, with or without NULL."""
    kinds = draw(st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=2, unique=True))
    values = st.one_of(*(POOLS[kind] for kind in kinds))
    return st.one_of(st.none(), values) if draw(st.booleans()) else values


@st.composite
def tables(draw):
    """``(rows, partition count)``: rows ``(id, k1, k2)`` with a unique
    ``id`` (ties show), over enough partitions to leave some empty."""
    first, second = draw(key_values()), draw(key_values())
    keys = draw(st.lists(st.tuples(first, second), max_size=40))
    rows = [(i, k1, k2) for i, (k1, k2) in enumerate(keys)]
    return rows, draw(st.integers(1, 9))


@st.composite
def bounds(draw):
    """``(low, high, low_inclusive, high_inclusive)`` over every kind,
    open ends included; ``low > high`` happens."""
    value = st.one_of(st.none(), *POOLS.values())
    return draw(value), draw(value), draw(st.booleans()), draw(st.booleans())


def _store(rows, partitions):
    store = DataStore(site_count=3, partitions_per_table=partitions)
    columns = [
        Column("id", ColumnType.INTEGER),
        Column("k1", ColumnType.VARCHAR, nullable=True),
        Column("k2", ColumnType.VARCHAR, nullable=True),
    ]
    store.create_table(TableSchema("t", columns, ["id"]), rows)
    store.create_index("t", "t_k1", ["k1"])
    store.create_index("t", "t_k1_k2", ["k1", "k2"])
    return store


@given(tables(), st.sampled_from([(0, 1, 2), (0, 2)]), st.lists(bounds(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_index_order_is_the_merge_of_the_index_streams(table, alive, ranges):
    """Every site's index order, and every range slice of it, holds the
    rows the merged index streams hold, in their order."""
    rows, partitions = table
    store = _store(rows, partitions)
    data = store.table("t")
    ctx = ExecContext(store, 1e12, alive)
    for name in ("t_k1", "t_k1_k2"):
        indexes = data.index(name)
        keys = [(k, True) for k in indexes[0].key_positions]
        for site in alive:
            parts = tuple(ctx.partitions_for(data, site))
            view = columnar._index_order_batch(data, name, parts)
            want = merged_index_batch(data, name, parts)
            assert view.to_rows() == want.to_rows(), (name, site)
            for low, high, low_inclusive, high_inclusive in ranges:
                got = [
                    indexes[p].range_bounds(low, high, low_inclusive, high_inclusive)
                    for p in parts
                ]
                ref = [
                    reference_range_bounds(
                        indexes[p], low, high, low_inclusive, high_inclusive
                    )
                    for p in parts
                ]
                start, stop = sum(lo for lo, _ in got), sum(hi for _, hi in got)
                ref_start, ref_stop = sum(lo for lo, _ in ref), sum(hi for _, hi in ref)
                sliced = view.slice(start, stop).to_rows()
                assert sliced == want.slice(ref_start, ref_stop).to_rows()
                streams = [
                    indexes[p].range_scan(low, high, low_inclusive, high_inclusive)
                    for p in parts
                ]
                assert sliced == merge_sorted(streams, keys)


@given(
    st.lists(
        key_values().flatmap(lambda values: st.lists(values, max_size=30)),
        min_size=1, max_size=3,
    ),
    st.lists(bounds(), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_range_bounds_equal_the_wrapped_key_bisect(partitions, ranges):
    """``[start, end)`` per partition equals the bisect over a list of
    wrapped leading keys: NULL keys, mixed kinds, both inclusivities,
    ``low > high`` and empty partitions."""
    for keys in partitions:
        rows = [(key, i) for i, key in enumerate(keys)]
        for positions in ((0,), (0, 1)):
            index = PartitionIndex(positions, rows)
            for low, high, low_inclusive, high_inclusive in ranges:
                assert index.range_bounds(
                    low, high, low_inclusive, high_inclusive
                ) == reference_range_bounds(
                    index, low, high, low_inclusive, high_inclusive
                ), (keys, low, high)
