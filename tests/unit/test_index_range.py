"""Unit tests for index range pushdown (sargable predicates)."""

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import SystemConfig
from repro.cost.model import CostModel
from repro.exec import columnar
from repro.exec.engine import ExecutionEngine
from repro.exec.fragments import number_operators
from repro.exec.operators import ExecContext, execute_node
from repro.exec.physical import PhysFilter, PhysIndexScan, walk_physical
from repro.planner.budget import PlanningBudget
from repro.planner.physical import PhysicalPlanner, Requirement, _sargable_bound
from repro.planner.volcano import QueryPlanner
from repro.rel.expr import BinaryOp, ColRef, Literal, make_conjunction
from repro.rel.logical import LogicalFilter, LogicalTableScan
from repro.rel.sql2rel import SqlToRelConverter
from repro.rel.traits import Collation, Distribution
from repro.sql.parser import parse
from repro.stats.estimator import Estimator
from repro.storage.store import DataStore

from helpers import make_company_store, naive_execute, normalise


@pytest.fixture(scope="module")
def store():
    store = make_company_store()
    store.create_index("emp", "emp_salary", ["salary"])
    return store


def planner_for(store, config=None):
    config = config or SystemConfig.ic_plus()
    estimator = Estimator(store, True)
    return PhysicalPlanner(
        store, config, estimator, CostModel(config), PlanningBudget(10**7)
    )


def scan(store, table="emp"):
    schema = store.table(table).schema
    return LogicalTableScan(table, table, schema.column_names)


class TestSargableDetection:
    def test_greater_equal(self):
        bound = _sargable_bound(BinaryOp(">=", ColRef(3), Literal(5.0)))
        assert bound == (3, "lo", 5.0, True)

    def test_strict_less(self):
        bound = _sargable_bound(BinaryOp("<", ColRef(3), Literal(9.0)))
        assert bound == (3, "hi", 9.0, False)

    def test_mirrored_literal_on_left(self):
        bound = _sargable_bound(BinaryOp(">", Literal(9.0), ColRef(3)))
        assert bound == (3, "hi", 9.0, False)

    def test_equality(self):
        bound = _sargable_bound(BinaryOp("=", ColRef(0), Literal(7)))
        assert bound == (0, "eq", 7, True)

    def test_column_to_column_is_not_sargable(self):
        assert _sargable_bound(BinaryOp("<", ColRef(0), ColRef(1))) is None

    def test_null_literal_is_not_sargable(self):
        assert _sargable_bound(BinaryOp("=", ColRef(0), Literal(None))) is None


class TestPlanShape:
    def test_selective_range_uses_index(self, store):
        node = LogicalFilter(
            scan(store),
            make_conjunction(
                [
                    BinaryOp(">=", ColRef(3), Literal(190_000.0)),
                    BinaryOp("<", ColRef(3), Literal(195_000.0)),
                ]
            ),
        )
        plan = planner_for(store).implement(node, Requirement.any())
        scans = [
            n for n in walk_physical(plan) if isinstance(n, PhysIndexScan)
        ]
        assert scans and scans[0].is_range_scan
        assert scans[0].low == 190_000.0
        assert not scans[0].high_inclusive

    def test_residual_conjuncts_stay_in_filter(self, store):
        node = LogicalFilter(
            scan(store),
            make_conjunction(
                [
                    BinaryOp(">=", ColRef(3), Literal(190_000.0)),
                    BinaryOp("=", ColRef(1), Literal(3)),
                ]
            ),
        )
        plan = planner_for(store).implement(node, Requirement.any())
        if any(isinstance(n, PhysIndexScan) for n in walk_physical(plan)):
            filters = [
                n for n in walk_physical(plan) if isinstance(n, PhysFilter)
            ]
            assert filters, "non-indexed conjunct must remain as a filter"

    def test_unindexed_column_falls_back_to_scan(self, store):
        node = LogicalFilter(
            scan(store), BinaryOp(">=", ColRef(4), Literal("2020-01-01"))
        )
        plan = planner_for(store).implement(node, Requirement.any())
        scans = [
            n for n in walk_physical(plan)
            if isinstance(n, PhysIndexScan) and n.is_range_scan
        ]
        assert not scans  # hired has no index in this fixture


class TestCorrectness:
    @pytest.mark.parametrize(
        "sql",
        [
            "select emp_id from emp where salary >= 190000",
            "select emp_id from emp where salary > 100000 and salary < 120000",
            "select emp_id from emp where emp_id = 17",
            "select name from emp where salary between 50000 and 60000 "
            "and dept_id = 2",
            "select e.name from emp e, dept d where e.dept_id = d.dept_id "
            "and e.salary < 40000",
        ],
    )
    def test_range_scan_results_match_oracle(self, store, sql):
        logical = SqlToRelConverter(store.catalog).convert(parse(sql))
        expected = normalise(naive_execute(logical, store))
        config = SystemConfig.ic_plus()
        plan = QueryPlanner(store, config).plan(logical)
        result = ExecutionEngine(store, config).execute(plan)
        assert normalise(result.rows) == expected

    def test_range_scan_reads_fewer_rows(self, store):
        """The pruned scan must charge fewer work units than a full one."""
        config = SystemConfig.ic_plus()
        narrow = "select emp_id from emp where salary >= 199000"
        logical = SqlToRelConverter(store.catalog).convert(parse(narrow))
        plan = QueryPlanner(store, config).plan(logical)
        pruned = ExecutionEngine(store, config).execute(plan)
        full_sql = "select emp_id from emp where dept_id >= 0"
        logical_full = SqlToRelConverter(store.catalog).convert(parse(full_sql))
        plan_full = QueryPlanner(store, config).plan(logical_full)
        full = ExecutionEngine(store, config).execute(plan_full)
        assert pruned.total_units < full.total_units


@pytest.mark.columnar
class TestColumnarSiteOrder:
    """The columnar index scan slices one merged, key-ordered batch per
    (index, site partition set): rows and order are the row backend's
    merge of the per-partition ranges, and only the first scan builds it."""

    #: (low, high, low_inclusive, high_inclusive); keys run 0..5 or NULL.
    BOUNDS = [
        (None, None, True, True),
        (2, 4, True, True),
        (2, 4, False, False),
        (2, None, False, True),
        (None, 4, True, False),
        (3, 3, True, True),
        (4, 2, True, True),
        (9, None, True, True),
    ]

    @pytest.fixture(scope="class")
    def keyed_store(self):
        store = DataStore(site_count=3, partitions_per_table=7)
        columns = [
            Column("id", ColumnType.INTEGER),
            Column("k", ColumnType.INTEGER),
            Column("tie", ColumnType.VARCHAR),
        ]
        # Few distinct (k, tie) pairs over many partitions: every range
        # holds cross-partition ties, and NULL leading keys sort last.
        rows = [
            (i, None if i % 11 == 0 else i % 6, "ab"[i % 2] if i % 5 else None)
            for i in range(200)
        ]
        store.create_table(TableSchema("t", columns, ["id"]), rows)
        store.create_index("t", "t_k_tie", ["k", "tie"])
        return store

    @staticmethod
    def in_range(key, low, high, low_inclusive, high_inclusive):
        if low is None and high is None:
            return True
        if key is None:
            return False
        above = low is None or (key >= low if low_inclusive else key > low)
        below = high is None or (key <= high if high_inclusive else key < high)
        return above and below

    @pytest.mark.parametrize("alive", [None, (0, 2)], ids=["all-up", "failover"])
    def test_rows_and_order_equal_the_row_backend(
        self, keyed_store, monkeypatch, alive
    ):
        data = keyed_store.table("t")
        rebuilt = []
        for name in ("sort_batch", "concat_batches"):
            kernel = getattr(columnar, name)
            monkeypatch.setattr(
                columnar, name,
                lambda *a, _k=kernel, _n=name: rebuilt.append(_n) or _k(*a),
            )
        for warm in (False, True):
            rebuilt.clear()  # the first round may build however it likes
            for bounds in self.BOUNDS:
                node = PhysIndexScan(
                    "t", "t", data.schema.column_names, "t_k_tie",
                    Distribution.hash([0]), Collation([(1, True), (2, True)]),
                    3, *bounds,
                )
                number_operators(node)
                scanned = 0
                for site in alive or range(3):
                    row_ctx = ExecContext(keyed_store, 1e12, alive)
                    col_ctx = ExecContext(keyed_store, 1e12, alive)
                    want = execute_node(node, site, row_ctx)
                    got = columnar.execute_columnar(node, site, col_ctx)
                    assert got.to_rows() == want, (bounds, site)
                    assert col_ctx.ops == row_ctx.ops
                    scanned += len(want)
                assert scanned == sum(
                    self.in_range(row[1], *bounds)
                    for partition in data.partitions for row in partition
                ), bounds
        assert warm and not rebuilt, "a warm index scan re-sorted or re-merged"
        cached = {key[1] for key in data.__dict__["_columnar_index_cache"]}
        if alive is not None:
            # Site 0 also serves partitions failed over from site 1: a
            # partition set no healthy run asks for, cached beside them.
            assert any(set(data.partitions_at_site(0)) < set(p) for p in cached)
