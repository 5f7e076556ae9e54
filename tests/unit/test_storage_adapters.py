"""Storage-adapter units: registry, capabilities, costs, column files,
remote gateway placement — and the drop/recreate staleness regression.

The staleness sweep (the PR's bugfix audit): dropping a table and
recreating the same name on a *different* adapter must leave no stale
rows, scan batches, sketch estimates or cached plans behind — every
cache keyed off the old table's identity is invalidated on DDL.
"""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.common.constants import NETWORK_UNITS_PER_MESSAGE, RPTC
from repro.common.errors import StorageError
from repro.core.cluster import IgniteCalciteCluster
from repro.storage.adapters import (
    AdapterCosts,
    ColumnFileAdapter,
    NativeAdapter,
    PushedScan,
    RemoteCatalogAdapter,
    compile_pushdown,
    create_adapter,
    scan_charge,
)
from repro.storage.adapters.columnfile import ROW_GROUP_ROWS
from repro.storage.adapters.remote import GATEWAY_SITE
from repro.storage.store import DataStore

pytestmark = pytest.mark.federation


def _schema(name="t", adapter="native"):
    return TableSchema(
        name,
        [Column("k", ColumnType.INTEGER), Column("v", ColumnType.VARCHAR)],
        ["k"],
        adapter=adapter,
    )


class TestRegistry:
    def test_builtin_adapters_registered(self):
        for name in ("native", "columnfile", "remote"):
            assert create_adapter(name).name == name

    def test_create_adapter_is_case_insensitive(self):
        assert create_adapter("COLUMNFILE").name == "columnfile"

    def test_unknown_adapter_raises_storage_error(self):
        with pytest.raises(StorageError, match="unknown storage adapter"):
            create_adapter("parquet-on-mars")

    def test_each_table_gets_its_own_instance(self):
        assert create_adapter("remote") is not create_adapter("remote")


class TestCapabilities:
    def test_capability_matrix(self):
        matrix = {
            "native": (False, False, False),
            "columnfile": (True, True, False),
            "remote": (True, True, True),
        }
        for name, (f, p, l) in matrix.items():
            adapter = create_adapter(name)
            assert adapter.supports_filter_pushdown is f
            assert adapter.supports_project_pushdown is p
            assert adapter.supports_limit_pushdown is l

    def test_native_costs_collapse_to_historical_charge(self):
        assert scan_charge(NativeAdapter.costs, 100, 40) == 100 * RPTC

    def test_columnfile_charge_decodes_cheaper_but_pays_io(self):
        charge = scan_charge(ColumnFileAdapter.costs, 100, 40)
        assert charge == 100 * RPTC * 0.5 + 100 * 0.4

    def test_remote_charge_includes_round_trip_and_shipping(self):
        charge = scan_charge(RemoteCatalogAdapter.costs, 100, 40, requests=2)
        assert charge == (
            100 * RPTC + 40 * 2.0 + 2 * NETWORK_UNITS_PER_MESSAGE
        )

    def test_pushdown_makes_remote_cheaper(self):
        full = scan_charge(RemoteCatalogAdapter.costs, 100, 100)
        pushed = scan_charge(RemoteCatalogAdapter.costs, 100, 5)
        assert pushed < full


class TestColumnFile:
    def _store(self, rows, partitions=2):
        store = DataStore(site_count=2, partitions_per_table=partitions)
        store.create_table(_schema("cf", adapter="columnfile"), rows)
        return store

    def test_footer_roundtrip(self):
        rows = [(i, f"v{i}") for i in range(600)]
        store = self._store(rows, partitions=1)
        data = store.table("cf")
        path = data.adapter._files["cf"][0]
        footer = ColumnFileAdapter.read_footer(path)
        assert footer["rows"] == 600
        assert footer["width"] == 2
        assert len(footer["groups"]) == -(-600 // ROW_GROUP_ROWS)
        assert sum(g["rows"] for g in footer["groups"]) == 600
        zones = footer["groups"][0]["zones"]
        assert zones[0] == [0, ROW_GROUP_ROWS - 1]  # JSON tuples -> lists

    def test_unpushed_scan_returns_partition_verbatim(self):
        rows = [(i, f"v{i}") for i in range(20)]
        store = self._store(rows)
        data = store.table("cf")
        for part in range(len(data.partitions)):
            scanned, got = data.adapter.scan_partition(data, part, None)
            assert scanned == len(data.partitions[part])
            assert got == list(data.partitions[part])

    def test_zone_maps_prune_row_groups(self):
        """A clustered-by-construction layout: partition 0 holds keys in
        ascending order, so a tight range proves most groups irrelevant."""
        rows = [(i, f"v{i}") for i in range(4 * ROW_GROUP_ROWS)]
        store = self._store(rows, partitions=1)
        data = store.table("cf")
        adapter = data.adapter
        pushed = PushedScan(
            lambda row: 10 <= row[0] <= 20,
            bounds=((0, 10, True, 20, True),),
            project=None,
            fetch=None,
        )
        scanned, got = adapter.scan_partition(data, 0, pushed)
        assert [r[0] for r in got] == list(range(10, 21))
        assert adapter.groups_pruned == 3
        assert adapter.groups_read == 1
        assert scanned == ROW_GROUP_ROWS  # only one group decoded

    def test_drop_removes_column_files(self):
        import os

        store = self._store([(1, "a")], partitions=1)
        data = store.table("cf")
        path = data.adapter._files["cf"][0]
        assert os.path.exists(path)
        store.drop_table("cf")
        assert not os.path.exists(path)


class TestRemote:
    def test_all_partitions_placed_at_gateway(self):
        adapter = create_adapter("remote")
        assert adapter.partition_sites(8, 4) == [(GATEWAY_SITE,)] * 8

    def test_scan_counts_requests_and_shipped_rows(self):
        store = DataStore(site_count=2, partitions_per_table=2)
        rows = [(i, f"v{i}") for i in range(10)]
        store.create_table(_schema("r", adapter="remote"), rows)
        data = store.table("r")
        adapter = data.adapter
        pushed = PushedScan(lambda row: row[0] % 2 == 0, (), None, None)
        total_shipped = 0
        for part in range(2):
            scanned, got = adapter.scan_partition(data, part, pushed)
            assert scanned == len(data.partitions[part])
            total_shipped += len(got)
        assert adapter.requests == 2
        assert adapter.rows_shipped == total_shipped
        assert 0 < total_shipped < 10


class TestDdlRouting:
    @pytest.fixture()
    def cluster(self):
        return IgniteCalciteCluster(PRESETS["IC+"](2))

    def test_create_table_using_routes_adapter(self, cluster):
        cluster.sql("create table logs (id int, msg varchar) using columnfile")
        data = cluster.store.table("logs")
        assert data.schema.adapter == "columnfile"
        assert data.adapter.name == "columnfile"
        assert cluster.sql("select * from logs").rows == []

    def test_create_table_defaults_to_native(self, cluster):
        cluster.sql("create table plain (id int)")
        assert cluster.store.table("plain").adapter.name == "native"

    def test_unknown_adapter_is_an_error_outcome(self, cluster):
        outcome = cluster.try_sql("create table t (id int) using quantum")
        assert not outcome.succeeded
        assert "unknown storage adapter" in str(outcome.error)
        assert not cluster.store.has_table("t")

    def test_unknown_column_type_is_unsupported(self, cluster):
        outcome = cluster.try_sql("create table t (id blob)")
        assert not outcome.succeeded
        assert "unknown column type" in str(outcome.error)


class TestDropRecreateStaleness:
    """The satellite bugfix sweep: same table name, different adapter."""

    ROWS_V1 = [(i, f"old{i}") for i in range(12)]
    ROWS_V2 = [(i, f"new{i}") for i in range(7)]

    def _create(self, cluster, adapter, rows):
        cluster.create_table(_schema("reused", adapter=adapter), rows)

    @pytest.mark.parametrize("backend", ["row", "columnar"])
    @pytest.mark.parametrize(
        "first,second",
        [("native", "columnfile"), ("columnfile", "remote"),
         ("remote", "native")],
    )
    def test_no_stale_rows_after_adapter_swap(self, backend, first, second):
        config = PRESETS["IC+M"](2).with_(execution_backend=backend)
        cluster = IgniteCalciteCluster(config)
        self._create(cluster, first, self.ROWS_V1)
        sql = "select k, v from reused order by k"
        # Warm every identity-keyed cache: plan cache, columnar
        # scan-batch cache (lives on the TableData), sketch estimates.
        first_rows = cluster.sql(sql).rows
        assert len(first_rows) == len(self.ROWS_V1)
        cluster.drop_table("reused")
        self._create(cluster, second, self.ROWS_V2)
        got = cluster.sql(sql).rows
        assert got == sorted(self.ROWS_V2)
        assert cluster.store.table("reused").adapter.name == second

    def test_recreate_flips_explain_pushdown(self):
        cluster = IgniteCalciteCluster(PRESETS["IC+"](2))
        self._create(cluster, "native", self.ROWS_V1)
        sql = "select v from reused where k > 3"
        assert "pushed[" not in cluster.explain(sql)
        cluster.drop_table("reused")
        self._create(cluster, "remote", self.ROWS_V2)
        # A stale cached plan would keep the native (no-pushdown) shape.
        assert "pushed[" in cluster.explain(sql)

    def test_drop_detaches_adapter_state(self):
        cluster = IgniteCalciteCluster(PRESETS["IC+"](2))
        self._create(cluster, "columnfile", self.ROWS_V1)
        adapter = cluster.store.table("reused").adapter
        cluster.drop_table("reused")
        assert "reused" not in adapter._files
        assert not cluster.store.has_table("reused")

    def test_drop_unknown_table_raises(self):
        cluster = IgniteCalciteCluster(PRESETS["IC+"](2))
        with pytest.raises(StorageError):
            cluster.drop_table("ghost")


class TestPushedScanCompilation:
    def test_compile_pushdown_none_when_nothing_pushed(self):
        class Bare:
            pushed_filter = None
            pushed_project = None
            pushed_fetch = None

        assert compile_pushdown(Bare()) is None

    def test_apply_filters_projects_and_caps_in_order(self):
        pushed = PushedScan(
            lambda row: row[0] > 1, (), project=(1,), fetch=2
        )
        rows = [(0, "a"), (2, "b"), (3, "c"), (4, "d")]
        assert pushed.apply(rows) == [("b",), ("c",)]

    def test_adapter_costs_are_frozen(self):
        with pytest.raises(Exception):
            AdapterCosts().scan_cpu_factor = 2.0
