"""Property tests for the invariant co-located joins depend on:

rows routed by a hash exchange must land on exactly the site that stores
the matching partition of a table hash-distributed on the same key — and
the columnar backend's batch routing (``affinity_partitions``,
``columnar.hash_views``) must send every row where the row backend's
tuple loop sends it, in the same order.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.exec.operators import ExecContext, stream_rows
from repro.faults.injector import SiteCrash
from repro.storage.table import (
    TableData,
    affinity_partition,
    affinity_partitions,
    failover_owner,
)

I = ColumnType.INTEGER


class TestAffinityRouting:
    @given(
        keys=st.one_of(
            st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=50),
            st.lists(st.text(max_size=8), min_size=1, max_size=50),
        ),
        partitions=st.integers(1, 16),
        sites=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_exchange_routing_matches_table_placement(
        self, keys, partitions, sites
    ):
        """The sender's site choice (partition % sites) must agree with
        round-robin partition placement for every key value."""
        key_type = I if isinstance(keys[0], int) else ColumnType.VARCHAR
        schema = TableSchema("t", [Column("k", key_type)], ["k"])
        rows = [(k,) for k in keys]
        data = TableData(
            schema, rows, partition_count=partitions, site_count=sites
        )
        for key in keys:
            partition = affinity_partition(key, partitions)
            routed_site = partition % sites
            # The table's copy of this key lives where the router sends it.
            stored_sites = data.partition_sites[partition]
            assert routed_site in stored_sites

    @given(
        value=st.one_of(st.integers(), st.text(max_size=16)),
        partitions=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_partition_function_is_stable_and_in_range(self, value, partitions):
        first = affinity_partition(value, partitions)
        second = affinity_partition(value, partitions)
        assert first == second
        assert 0 <= first < partitions

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_colocated_tables_put_matching_keys_on_one_site(self, seed):
        """Two tables hash-partitioned on the same key domain co-locate:
        a local join per site sees every matching pair exactly once."""
        rng = random.Random(seed)
        sites, partitions = 4, 8
        left_schema = TableSchema("l", [Column("k", I), Column("x", I)], ["k"])
        right_schema = TableSchema(
            "r", [Column("k", I), Column("y", I)], ["k"]
        )
        left_rows = [(rng.randrange(50), i) for i in range(60)]
        right_rows = [(rng.randrange(50), i) for i in range(60)]
        left = TableData(left_schema, left_rows, partitions, sites)
        right = TableData(right_schema, right_rows, partitions, sites)

        local_pairs = []
        for site in range(sites):
            left_local = [
                row
                for p in left.partitions_at_site(site)
                for row in left.partitions[p]
            ]
            right_local = [
                row
                for p in right.partitions_at_site(site)
                for row in right.partitions[p]
            ]
            for lrow in left_local:
                for rrow in right_local:
                    if lrow[0] == rrow[0]:
                        local_pairs.append((lrow, rrow))

        global_pairs = [
            (lrow, rrow)
            for lrow in left_rows
            for rrow in right_rows
            if lrow[0] == rrow[0]
        ]
        assert sorted(local_pairs) == sorted(global_pairs)


#: Ints around every edge of the fast path: -1 (whose hash is -2),
#: negatives, the hash modulus 2**61 - 1 and beyond, int64 extremes.
EDGE_INTS = [-(2**63), -(2**61), -2, -1, 0, 1, 2**61 - 2, 2**61 - 1, 2**61, 2**63 - 1]

KEY_VALUES = {
    "int": st.integers(0, 10**6) | st.sampled_from(EDGE_INTS)
    | st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "float": st.integers(-(10**6), 10**6).map(float)
    | st.floats(allow_nan=False, allow_infinity=False),
    "narrow": st.text(max_size=8),
    # Past the 32-character bound: an object column.
    "wide": st.text(min_size=33, max_size=40),
}


def key_column(kind):
    """A list of one kind's values, some of them NULL (or none)."""
    values = KEY_VALUES[kind]
    return st.lists(values, max_size=30) | st.lists(
        st.none() | values, max_size=30
    )


@pytest.mark.columnar
class TestVectorisedPartitioner:
    """``affinity_partitions`` equals ``affinity_partition`` row by row."""

    @given(
        kind=st.sampled_from(sorted(KEY_VALUES)),
        data=st.data(),
        partitions=st.integers(1, 64),
        deferred=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_single_key_column(self, kind, data, partitions, deferred):
        import numpy as np
        from repro.exec.columnar import column_from_values

        values = data.draw(key_column(kind))
        column = column_from_values(values)
        if deferred:  # a join's or a filter's output: an index view
            column = column.take(np.arange(len(values), dtype=np.int64))
        got = affinity_partitions([column], partitions)
        assert got.dtype == np.int64
        assert got.tolist() == [affinity_partition(v, partitions) for v in values]

    @given(
        kinds=st.tuples(
            st.sampled_from(sorted(KEY_VALUES)), st.sampled_from(sorted(KEY_VALUES))
        ),
        data=st.data(),
        partitions=st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_column_key(self, kinds, data, partitions):
        from repro.exec.columnar import from_rows

        rows = data.draw(st.lists(
            st.tuples(*(st.none() | KEY_VALUES[k] for k in kinds)), max_size=30
        ))
        batch = from_rows(rows, 2)
        got = affinity_partitions([batch.column(0), batch.column(1)], partitions)
        assert got.tolist() == [affinity_partition(row, partitions) for row in rows]

    @given(
        keys=key_column("int") | key_column("narrow"),
        partitions=st.integers(1, 16),
        sites=st.integers(1, 6),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_destinations_follow_failover_owner(self, keys, partitions, sites, data):
        """With dead sites, each destination's view holds exactly the rows
        the row backend's loop buckets there, in the sender's order."""
        from repro.exec.columnar import from_rows, hash_views

        alive = data.draw(st.lists(
            st.sampled_from(range(sites)), min_size=1, max_size=sites, unique=True
        ).map(sorted))
        owners = [failover_owner(p, sites, alive) for p in range(partitions)]
        rows = [(key, i) for i, key in enumerate(keys)]
        views = hash_views(from_rows(rows, 2), [0], owners, alive)
        assert sorted(views) == alive
        for dest, view in views.items():
            expected = [
                row for row in rows
                if failover_owner(affinity_partition(row[0], partitions), sites, alive) == dest
            ]
            assert view.to_rows() == expected


@pytest.mark.columnar
@pytest.mark.parametrize("dead", [None, 1])
@pytest.mark.parametrize("qid", [14, 18])
def test_columnar_exchanges_deliver_the_row_backends_rows(qid, dead, monkeypatch):
    """A columnar hash exchange delivers, to each site, the rows the row
    backend delivers, in the same order — also with a dead site, whose
    partitions fail over."""
    from repro.exec import columnar

    faults = () if dead is None else (SiteCrash(site=dead, at=0.0),)
    config = PRESETS["IC+M"](4).with_(faults=faults, max_retries=1)
    log = {"row": [], "columnar": []}
    deliver = ExecContext.deliver
    split = columnar.hash_views
    splits = []

    def logged(ctx, exchange_id, site, stream):
        side = "row" if isinstance(stream, list) else "columnar"
        log[side].append((exchange_id, site, stream_rows(stream)))
        deliver(ctx, exchange_id, site, stream)

    monkeypatch.setattr(ExecContext, "deliver", logged)
    monkeypatch.setattr(
        columnar, "hash_views", lambda *args: splits.append(args) or split(*args)
    )
    for backend in log:
        cluster = load_tpch_cluster(config.with_(execution_backend=backend), 0.01)
        cluster.sql(QUERIES[qid].sql)
    assert splits, "no columnar hash exchange ran"
    assert dead not in {site for _, site, _ in log["columnar"]}
    assert log["columnar"] == log["row"]
