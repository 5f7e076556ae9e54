"""The columnar backend keeps one copy of each table per site partition set.

After a cold pass over TPC-H the caches are inspected, not the process's
memory: the site batch of a partition set is the only columnar copy of
its rows (no per-partition batches), every index batch is an index view
of that site batch (an unread column still points at the site batch's
column), and no storage index keeps a key object per row.  Fault-free,
and with site 1 dead so that partition sets which take over its
partitions are cached too.
"""

from __future__ import annotations

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.common.config import PRESETS
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
