"""String dictionaries kept on stored columns live exactly as long as their rows.

A ``U`` column of a stored site batch (``columnar._site_batch``) answers
literal comparisons, IN-lists, EXTRACT, GROUP BY codes and string
column comparisons from the dictionary its first such reader builds and
keeps in ``Column._keys``.  Pinned here, as for the key buckets
(``test_stored_key_buckets.py``):

* DROP + CREATE of a same-named table serves the new rows, from a fresh
  dictionary on the new table's column;
* a dead site's partitions, taken over by a survivor, form a partition
  set of their own, whose batch builds its own dictionaries and returns
  the row backend's rows;
* adapter-backed and pushed scans build their batches per run, so no
  dictionary is ever built on them;
* a warm TPC-H pass served from the plan cache builds none (the cold
  pass built a pinned number), and its rows and simulated makespans are
  the row backend's;
* string literals holding a NUL, which a numpy ``U`` array would drop,
  never reach the dictionary: both backends give the row backend's
  counts.
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.core.cluster import IgniteCalciteCluster
from repro.exec import columnar
from repro.faults.injector import SiteCrash

pytestmark = pytest.mark.columnar

GROUPED = "select s, count(*) from t where s >= 'v1' group by s order by s"


def dictionaries(cluster):
    """``{(table, partitions, column): (uniques, codes, kept)}`` built so far."""
    return {
        (name, partitions, i): col._keys
        for name in cluster.store.table_names()
        for partitions, batch in vars(cluster.store.table(name)).get(
            "_columnar_scan_cache", {}
        ).items()
        for i, col in enumerate(batch.columns)
        if col.kind == "U" and col._keys is not False
    }


def string_table(name, adapter="native"):
    return TableSchema(
        name,
        [Column("k", ColumnType.INTEGER), Column("s", ColumnType.VARCHAR)],
        ["k"],
        adapter=adapter,
    )


def cluster_with(backend, rows, adapter="native"):
    cluster = IgniteCalciteCluster(
        PRESETS["IC+"](4, execution_backend=backend, plan_cache=True)
    )
    cluster.create_table(string_table("t", adapter), rows)
    return cluster


def test_drop_and_create_serves_a_fresh_dictionary():
    rows = [(k, f"v{k % 5}") for k in range(120)]
    cluster = cluster_with("columnar", rows)
    assert cluster.sql(GROUPED).rows == [(f"v{i}", 24) for i in range(1, 5)]
    before = dictionaries(cluster)
    assert before, "the grouped filter read no stored string column"
    cluster.drop_table("t")
    new = [(k, f"v{k % 3}" if k % 7 else None) for k in range(200)]
    cluster.create_table(string_table("t"), new)
    want = cluster_with("row", new).sql(GROUPED).rows
    assert cluster.sql(GROUPED).rows == want == [("v1", 57), ("v2", 57)]
    after = dictionaries(cluster)
    assert after and all(
        uniques.tolist() == ["v0", "v1", "v2"] for uniques, _, _ in after.values()
    )
    old = {id(entry[1]) for entry in before.values()}
    assert all(id(codes) not in old for _, codes, _ in after.values())


def test_a_failed_over_partition_set_builds_its_own_dictionaries():
    faults = (SiteCrash(site=1, at=0.0),)
    clusters = {
        backend: load_tpch_cluster(
            PRESETS["IC+M"](4).with_(
                execution_backend=backend, faults=faults, max_retries=1
            ),
            0.01,
        )
        for backend in ("row", "columnar")
    }
    for q in (1, 4, 12):
        want, got = (clusters[b].try_sql(QUERIES[q].sql) for b in ("row", "columnar"))
        assert got.succeeded and got.result.rows == want.result.rows, q
    taken_over = [
        partitions
        for name, partitions, _ in dictionaries(clusters["columnar"])
        if name == "lineitem" and any(p % 4 == 1 for p in partitions)
    ]
    assert taken_over, "no survivor built a dictionary over site 1's partitions"
    assert all(len(partitions) > 2 for partitions in taken_over)


@pytest.mark.parametrize(
    "adapter, sql",
    [
        ("columnfile", GROUPED),
        ("remote", GROUPED),
        ("columnfile", GROUPED.replace("where", "where k < 100 and")),
    ],
    ids=["columnfile", "remote", "pushed-filter"],
)
def test_adapter_and_pushed_scans_never_get_a_dictionary(adapter, sql, monkeypatch):
    rows = [(k, f"v{k % 5}") for k in range(120)]
    want = cluster_with("row", rows, adapter).sql(sql).rows
    cluster = cluster_with("columnar", rows, adapter)
    coded = []
    codes = columnar._codes
    monkeypatch.setattr(
        columnar, "_codes", lambda col: coded.append(codes(col)) or coded[-1]
    )
    for _ in range(2):
        assert cluster.sql(sql).rows == want
    assert coded and not any(coded), "a scan that is not stored was coded"
    assert not dictionaries(cluster)


def test_a_warm_cached_tpch_pass_builds_no_dictionary(monkeypatch):
    clusters = {
        backend: load_tpch_cluster(
            PRESETS["IC+M"](4).with_(execution_backend=backend, plan_cache=True),
            0.01,
        )
        for backend in ("row", "columnar")
    }
    for query in QUERIES.values():
        clusters["columnar"].try_sql(query.sql)
    cold = dictionaries(clusters["columnar"])
    assert len(cold) == 53
    codes = columnar._codes

    def warm_codes(col):
        leaf = columnar._leaf(col)
        assert leaf is None or leaf._keys is not False, "a warm pass built one"
        return codes(col)

    monkeypatch.setattr(columnar, "_codes", warm_codes)
    for query in QUERIES.values():
        want, got = (clusters[b].try_sql(query.sql) for b in ("row", "columnar"))
        assert got.plan_cached == got.ok, query.sql
        assert (got.status, got.result and got.result.rows) == (
            want.status, want.result and want.result.rows), query.sql
        if got.ok:
            assert got.result.simulated_seconds == want.result.simulated_seconds
    warm = dictionaries(clusters["columnar"])
    assert warm.keys() == cold.keys()
    assert all(warm[key][1] is cold[key][1] for key in cold)


NUL_QUERIES = {
    "select count(*) from nation where n_name = 'ALGERIA\x00'": 0,
    "select count(*) from nation where n_name in ('ALGERIA\x00', 'X')": 0,
    "select count(*) from nation where n_name < 'ALGERIA\x00'": 1,
    "select count(*) from lineitem where l_shipmode = 'MAIL\x00'": 0,
}


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_string_literals_with_a_nul_match_the_row_backend(backend):
    cluster = load_tpch_cluster(PRESETS["IC+"](4, execution_backend=backend), 0.01)
    for _ in range(2):  # the second run finds any dictionary built
        for sql, count in NUL_QUERIES.items():
            assert cluster.sql(sql).rows == [(count,)], sql
