"""The columnar backend keeps one copy of each table per site partition set.

After a cold and a warm pass over TPC-H the caches are inspected, not
the process's memory: the site batch of a partition set is the only
columnar copy of its rows (no per-partition batches), every index batch
is an index view of that site batch (an unread column still points at
the site batch's column), no storage index keeps a key object per row,
and a column keeps LIKE results as booleans, never a ``U`` copy of its
strings.  Fault-free, and with site 1 dead so that partition sets which
take over its partitions are cached too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.common.config import PRESETS
from repro.exec import columnar
from repro.exec.operators import ExecContext
from repro.faults.injector import SiteCrash

pytestmark = pytest.mark.columnar


@pytest.fixture(scope="module", params=[None, 1], ids=["fault-free", "site-1-dead"])
def cold_cluster(request):
    dead = request.param
    faults = () if dead is None else (SiteCrash(site=dead, at=0.0),)
    config = PRESETS["IC+M"](4).with_(
        execution_backend="columnar", faults=faults, max_retries=1
    )
    cluster = load_tpch_cluster(config, 0.02)
    for _ in ("cold", "warm"):
        for query in QUERIES.values():
            cluster.try_sql(query.sql)
    return cluster, dead


def _tables(cluster):
    return [cluster.store.table(name) for name in cluster.store.table_names()]


def test_no_per_partition_columnar_copy(cold_cluster):
    cluster, _ = cold_cluster
    for data in _tables(cluster):
        assert "_columnar_cache" not in vars(data), data.schema.name


def test_one_site_batch_per_partition_set(cold_cluster):
    cluster, dead = cold_cluster
    everyone = tuple(range(cluster.config.sites))
    survivors = tuple(s for s in everyone if s != dead)
    scanned = taken_over = 0
    for data in _tables(cluster):
        sites = vars(data).get("_columnar_scan_cache", {})
        # Only the partition sets a site reads, all sites up or taking
        # over the dead site's partitions, and one batch for each.
        reads = {
            tuple(ExecContext(cluster.store, 1e12, alive).partitions_for(data, s))
            for alive in (everyone, survivors) for s in alive
        }
        assert set(sites) <= reads, data.schema.name
        assert len({id(batch) for batch in sites.values()}) == len(sites)
        scanned += len(sites)
        if not data.schema.replicated:
            taken_over += sum(
                p % len(everyone) == dead for parts in sites for p in parts
            )
    assert scanned
    assert (dead is None) == (taken_over == 0)


def test_index_batches_are_views_of_the_site_batch(cold_cluster):
    cluster, dead = cold_cluster
    views = unread = 0
    for data in _tables(cluster):
        sites = vars(data).get("_columnar_scan_cache", {})
        for (name, partitions), batch in vars(data).get(
            "_columnar_index_cache", {}
        ).items():
            site = sites[partitions]
            if batch is site:  # zero or one row: already in index order
                continue
            views += 1
            assert batch.length == site.length
            for column, source in zip(batch.columns, site.columns):
                if column._values is None:
                    unread += 1
                    assert column._source is source, (data.schema.name, name)
    assert views and unread


def test_storage_indexes_keep_no_key_per_row(cold_cluster):
    cluster, _ = cold_cluster
    for data in _tables(cluster):
        for name, indexes in data.indexes.items():
            for index in indexes:
                per_row = [
                    attribute for attribute, value in vars(index).items()
                    if isinstance(value, list) and value is not index.rows
                ]
                assert per_row == [], (data.schema.name, name)


def _cached_columns(cluster):
    for data in _tables(cluster):
        caches = ("_columnar_scan_cache", "_columnar_index_cache")
        for cache in caches:
            for batch in vars(data).get(cache, {}).values():
                yield from ((data.schema.name, col) for col in batch.columns)


def test_like_keeps_booleans_not_strings(cold_cluster):
    """Q2/Q9/Q13/Q14/Q16's LIKE ran on the stored columns, each of whose
    results is one ``bool`` per row; no slot holds a ``U`` array unless
    it is a ``U`` column's own values."""
    cluster, _ = cold_cluster
    memos = 0
    for table, col in _cached_columns(cluster):
        for slot in columnar.Column.__slots__:
            value = getattr(col, slot)
            if getattr(value, "dtype", None) is not None and value.dtype.kind == "U":
                assert slot == "_values", (table, slot)
        for pattern, out in (col._likes or {}).items():
            memos += 1
            assert out.dtype == bool and len(out) == len(col), (table, pattern)
    assert memos


def test_dictionaries_hold_int32_codes_and_distinct_values(cold_cluster):
    """A stored ``U`` column's dictionary is one int32 code per row and at
    most one string per row, sorted and distinct; it is built on the
    stored copies only, never on an index batch, whose string columns
    stay views of the site batch's."""
    cluster, _ = cold_cluster
    built = 0
    for data in _tables(cluster):
        for batch in vars(data).get("_columnar_index_cache", {}).values():
            assert all(col._keys is None for col in batch.columns if col._values is not None)
    for table, col in _cached_columns(cluster):
        if col.kind != "U" or not isinstance(col._keys, tuple):
            continue
        uniques, codes, _ = col._keys
        built += 1
        assert codes.dtype == np.int32 and len(codes) == len(col), table
        assert len(uniques) <= len(col) and uniques.dtype.kind == "U", table
        assert (uniques[1:] > uniques[:-1]).all(), table
    assert built
