"""Adapter pushdown: golden EXPLAIN shapes and on/off row identity.

The positive cases pin EXPLAIN snapshots where the filter, project or
limit rides *inside* the adapter scan (``pushed[...]`` attributes); the
negative case shows a capability-declining adapter (columnfile declines
limit pushdown) keeping the engine-side operator — with identical rows
either way.  Every federated query is also executed on the all-native
layout of the same rows, where every capability is declined so nothing
is pushed, and diffed row-for-row against the pushdown plan and the
reference oracle, on both execution backends.
"""

import difflib
from pathlib import Path

import pytest

from repro.bench.fedbench import (
    FEDBENCH_QUERIES,
    TABLE_ADAPTERS,
    load_fedbench_cluster,
)
from repro.common.config import PRESETS
from repro.planner.adapter_rules import AdapterLimitPushdown
from repro.rel.logical import LogicalProject, LogicalSort, LogicalTableScan
from repro.rel.expr import ColRef
from repro.verify.reference import ReferenceExecutor

pytestmark = pytest.mark.federation

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

SCALE_FACTOR = 0.05

#: (snapshot id, SQL) cells pinned as golden EXPLAIN snapshots.  FB6 shows
#: a pushed filter (remote), FB3 a pushed project (remote), FB4 a pushed
#: filter over the columnfile table; the two LIMIT cells are the
#: capability contrast — remote absorbs the fetch, columnfile declines it.
GOLDEN_CELLS = (
    ("FB3", FEDBENCH_QUERIES["FB3"]),
    ("FB4", FEDBENCH_QUERIES["FB4"]),
    ("FB6", FEDBENCH_QUERIES["FB6"]),
    ("LIMIT-remote", "select dept_id from dept limit 3"),
    ("LIMIT-columnfile", "select sale_id from sales limit 5"),
)

GOLDEN_SYSTEM = "IC+"


@pytest.fixture(scope="module")
def cluster():
    return load_fedbench_cluster(PRESETS[GOLDEN_SYSTEM](4), SCALE_FACTOR)


def _check_snapshot(name: str, actual: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden snapshot {path.name}; "
            f"run pytest with --snapshot-update to create it"
        )
    expected = path.read_text(encoding="utf-8")
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"golden/{path.name}",
                tofile="actual",
                lineterm="",
            )
        )
        pytest.fail(
            f"plan for {path.name} changed; if intentional, re-run with "
            f"--snapshot-update\n{diff}"
        )


class TestGoldenExplain:
    @pytest.mark.parametrize("cell,sql", GOLDEN_CELLS)
    def test_explain_matches_golden(self, cluster, snapshot_update, cell, sql):
        text = cluster.explain(sql) + "\n"
        _check_snapshot(
            f"FED-{cell}-{GOLDEN_SYSTEM}.explain.txt", text, snapshot_update
        )

    def test_filter_rides_inside_remote_scan(self, cluster):
        text = cluster.explain(FEDBENCH_QUERIES["FB6"])
        assert "pushed[filter=" in text

    def test_project_rides_inside_remote_scan(self, cluster):
        text = cluster.explain(FEDBENCH_QUERIES["FB3"])
        assert "pushed[project=" in text

    def test_limit_rides_inside_remote_scan(self, cluster):
        text = cluster.explain("select dept_id from dept limit 3")
        assert "fetch=3" in text
        # The engine-side Limit is always retained: the pushed cap is a
        # per-partition over-approximation, never a correctness transfer.
        assert "PhysLimit" in text

    def test_columnfile_declines_limit_pushdown(self, cluster):
        """The negative case: sales lives on columnfile, whose capability
        flags decline limit pushdown — the fetch stays engine-side."""
        text = cluster.explain("select sale_id from sales limit 5")
        assert "pushed[fetch" not in text
        assert "fetch=" not in text.split("PhysTableScan", 1)[1]
        assert "PhysLimit" in text

    def test_golden_grid_is_complete(self):
        expected = {
            f"FED-{cell}-{GOLDEN_SYSTEM}.explain.txt"
            for cell, _ in GOLDEN_CELLS
        }
        present = {p.name for p in GOLDEN_DIR.glob("FED-*.txt")}
        assert expected <= present, sorted(expected - present)


def _canon(rows):
    """Round floats so SUM accumulation order (which pushdown legitimately
    changes) does not register as a row difference."""
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


class TestPushdownRowIdentity:
    """Pushdown is an optimisation, never a semantics change."""

    @pytest.fixture()
    def cluster_pair(self, execution_backend):
        base = PRESETS["IC+"](4).with_(execution_backend=execution_backend)
        on = load_fedbench_cluster(base, SCALE_FACTOR)
        # The same rows with every table native: nothing is pushed.
        off = load_fedbench_cluster(
            base, SCALE_FACTOR, adapters={t: "native" for t in TABLE_ADAPTERS}
        )
        return on, off

    @pytest.mark.parametrize("query", sorted(FEDBENCH_QUERIES))
    def test_rows_identical_with_pushdown_disabled(self, cluster_pair, query):
        on, off = cluster_pair
        sql = FEDBENCH_QUERIES[query]
        rows_on = _canon(on.sql(sql).rows)
        rows_off = _canon(off.sql(sql).rows)
        assert rows_on == rows_off
        oracle = ReferenceExecutor(off.store)
        assert rows_on == _canon(oracle.execute(off.parse_to_logical(sql)))

    @pytest.mark.parametrize(
        "sql",
        [
            "select dept_id from dept limit 3",
            "select sale_id from sales limit 5",
        ],
    )
    def test_limit_rows_identical_with_pushdown_disabled(
        self, cluster_pair, sql
    ):
        on, _ = cluster_pair
        bare, _, n = sql.rpartition(" limit ")
        # A bare LIMIT has no ORDER BY, so only determinism (not an
        # ordering contract) makes these comparable — the engine reads
        # partitions in a fixed order, with or without a pushed fetch.
        assert on.sql(sql).rows == on.sql(bare).rows[: int(n)]

    def test_pushdown_off_plans_have_no_pushed_attrs(self, cluster_pair):
        _, off = cluster_pair
        for sql in FEDBENCH_QUERIES.values():
            assert "pushed[" not in off.explain(sql)


class TestLimitPushdownRule:
    """Unit-level contract of AdapterLimitPushdown."""

    def _scan(self, cluster, table):
        data = cluster.store.table(table)
        names = [c.name for c in data.schema.columns]
        return LogicalTableScan(table, table, names)

    def test_fetch_plus_offset_is_pushed(self, cluster):
        rule = AdapterLimitPushdown(cluster.store)
        sort = LogicalSort(self._scan(cluster, "dept"), [], fetch=3, offset=2)
        out = rule.apply(sort)
        assert out is not None
        assert isinstance(out, LogicalSort)  # engine-side Sort retained
        assert out.input.pushed_fetch == 5

    def test_pushes_through_row_preserving_project(self, cluster):
        rule = AdapterLimitPushdown(cluster.store)
        scan = self._scan(cluster, "dept")
        project = LogicalProject(scan, [ColRef(0)], ["dept_id"])
        sort = LogicalSort(project, [], fetch=4)
        out = rule.apply(sort)
        assert out is not None
        inner = out.input
        assert isinstance(inner, LogicalProject)
        assert inner.input.pushed_fetch == 4

    def test_declines_keyed_sort(self, cluster):
        rule = AdapterLimitPushdown(cluster.store)
        sort = LogicalSort(self._scan(cluster, "dept"), [(0, True)], fetch=3)
        assert rule.apply(sort) is None

    def test_declines_incapable_adapter(self, cluster):
        rule = AdapterLimitPushdown(cluster.store)
        sort = LogicalSort(self._scan(cluster, "sales"), [], fetch=3)
        assert rule.apply(sort) is None

    def test_idempotent_once_absorbed(self, cluster):
        rule = AdapterLimitPushdown(cluster.store)
        sort = LogicalSort(self._scan(cluster, "dept"), [], fetch=3)
        once = rule.apply(sort)
        assert rule.apply(once) is None
