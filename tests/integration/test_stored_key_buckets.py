"""Key buckets kept on stored columns live exactly as long as their rows.

A one-key integer equi join whose side is a stored site batch's column
(``columnar._site_batch``) looks its keys up in buckets built by the
first such join and kept on that column.  Pinned here:

* DROP + CREATE of a same-named table serves the new rows, from fresh
  buckets on the new table's columns;
* a dead site's partitions, taken over by a survivor, form a partition
  set of their own, whose batch gets its own buckets and the row
  backend's rows;
* adapter-backed and pushed scans build their batches per run, so no
  bucket table is ever built on them;
* a warm SSB pass served from the plan cache builds no table (the cold
  pass built a pinned number), and its rows and simulated makespans are
  the row backend's.
"""

import pytest

from repro.bench.ssb import load_ssb_cluster
from repro.bench.ssb.queries import SSB_QUERIES
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.core.cluster import IgniteCalciteCluster
from repro.exec import columnar
from repro.faults.injector import SiteCrash

pytestmark = pytest.mark.columnar

SSB = [spec.sql for spec in SSB_QUERIES.values() if spec.flight <= 3]
JOIN = "select l.k, r.v from l join r on l.k = r.k order by l.k"


def site_batches(cluster):
    """``(table, partitions, batch)`` of every cached site batch."""
    for name in cluster.store.table_names():
        data = cluster.store.table(name)
        for partitions, batch in vars(data).get("_columnar_scan_cache", {}).items():
            yield name, partitions, batch


def built_tables(cluster):
    """``{(table, partitions, column): buckets}`` built so far (a string
    column's ``_keys`` holds its dictionary, not buckets)."""
    return {
        (name, partitions, i): col._keys
        for name, partitions, batch in site_batches(cluster)
        for i, col in enumerate(batch.columns)
        if col._keys is not False and col.kind in "bi"
    }


def keyed_table(name, adapter="native"):
    return TableSchema(
        name,
        [Column("k", ColumnType.INTEGER), Column("v", ColumnType.VARCHAR)],
        ["k"],
        adapter=adapter,
    )


def two_tables(backend, left="native", right="native", rows=120):
    cluster = IgniteCalciteCluster(
        PRESETS["IC+"](4, execution_backend=backend, plan_cache=True)
    )
    for name, adapter in (("l", left), ("r", right)):
        cluster.create_table(
            keyed_table(name, adapter), [(k, f"{name}{k}") for k in range(rows)]
        )
    return cluster


def test_drop_and_create_serves_fresh_buckets():
    cluster = two_tables("columnar")
    assert cluster.sql(JOIN).rows == [(k, f"r{k}") for k in range(120)]
    before = built_tables(cluster)
    assert before, "the co-located join probed no stored column"
    cluster.drop_table("r")
    cluster.create_table(
        keyed_table("r"), [(k, f"new{k}") for k in range(60, 300, 2)]
    )
    assert cluster.sql(JOIN).rows == [(k, f"new{k}") for k in range(60, 120, 2)]
    after = built_tables(cluster)
    assert any(key[0] == "r" for key in after)
    old = {id(table) for table in before.values()}
    assert all(
        id(table) not in old for key, table in after.items() if key[0] == "r"
    )


def test_a_failed_over_partition_set_gets_its_own_buckets():
    faults = (SiteCrash(site=1, at=0.0),)
    clusters = {
        backend: load_ssb_cluster(
            PRESETS["IC+M"](4).with_(
                execution_backend=backend, faults=faults, max_retries=1
            ),
            0.05,
        )
        for backend in ("row", "columnar")
    }
    for sql in SSB:
        want, got = (clusters[b].try_sql(sql) for b in ("row", "columnar"))
        assert got.succeeded and got.result.rows == want.result.rows, sql
    taken_over = [
        partitions
        for name, partitions, _ in built_tables(clusters["columnar"])
        if name == "lineorder" and any(p % 4 == 1 for p in partitions)
    ]
    assert taken_over, "no survivor built buckets over site 1's partitions"
    assert all(len(partitions) > 2 for partitions in taken_over)


@pytest.mark.parametrize(
    "left, right, where",
    [
        ("native", "columnfile", ""),
        ("columnfile", "native", ""),
        ("remote", "columnfile", ""),
        ("native", "columnfile", " where r.k < 50"),
    ],
    ids=["native-x-file", "file-x-native", "remote-x-file", "pushed-filter"],
)
def test_adapter_and_pushed_scans_never_get_buckets(
    left, right, where, monkeypatch
):
    sql = JOIN.replace(" order by", where + " order by")
    want = two_tables("row", left, right).sql(sql).rows
    cluster = two_tables("columnar", left, right)
    probed = []
    lookup = columnar._bucket_lookup
    monkeypatch.setattr(
        columnar, "_bucket_lookup",
        lambda col, probe: probed.append(col) or lookup(col, probe),
    )
    for _ in range(2):
        assert cluster.sql(sql).rows == want
    stored = {
        id(col): name
        for name, _, batch in site_batches(cluster)
        for col in batch.columns
    }
    assert all(id(col) in stored for col in probed)
    assert {stored[id(col)] for col in probed} == {
        name for name, adapter in (("l", left), ("r", right))
        if adapter == "native"
    }


def test_a_warm_cached_ssb_pass_builds_no_buckets(monkeypatch):
    clusters = {
        backend: load_ssb_cluster(
            PRESETS["IC+M"](4).with_(execution_backend=backend, plan_cache=True),
            0.05,
        )
        for backend in ("row", "columnar")
    }
    for sql in SSB:
        clusters["columnar"].sql(sql)
    cold = built_tables(clusters["columnar"])
    assert len(cold) == 5  # date_dim's key, and a lineorder key per site
    lookup = columnar._bucket_lookup

    def warm_lookup(col, probe):
        assert col._keys is not False, "a warm pass built a bucket table"
        return lookup(col, probe)

    monkeypatch.setattr(columnar, "_bucket_lookup", warm_lookup)
    for sql in SSB:
        want, got = (clusters[b].try_sql(sql) for b in ("row", "columnar"))
        assert got.plan_cached, sql
        assert got.result.rows == want.result.rows, sql
        assert got.result.simulated_seconds == want.result.simulated_seconds, sql
    warm = built_tables(clusters["columnar"])
    assert {k: id(v) for k, v in warm.items()} == {k: id(v) for k, v in cold.items()}
