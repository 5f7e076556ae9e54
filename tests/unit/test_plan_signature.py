"""Unit tests for operator signatures (repro.adaptive.signature)."""

import pytest

from repro.adaptive.signature import operator_signature
from repro.common.config import SystemConfig
from repro.rel.expr import BinaryOp, ColRef, Literal
from repro.rel.logical import (
    AggCall,
    AggFunc,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
)

from repro.exec.physical import PhysFilter, PhysIndexScan

from helpers import (
    INDEXED_EQUALITY_SPELLINGS,
    make_company_cluster,
    make_company_store,
    make_indexed_cluster,
)

pytestmark = pytest.mark.adaptive


@pytest.fixture(scope="module")
def cluster():
    return make_company_cluster(SystemConfig.ic_plus(4))


@pytest.fixture(scope="module")
def store():
    return make_company_store()


def scan(store, table):
    schema = store.table(table).schema
    return LogicalTableScan(table, table, schema.column_names)


class TestOperatorSignature:
    def test_scan_matches_across_families(self, cluster, store):
        logical = scan(store, "emp")
        physical = cluster.plan_sql("select * from emp")
        sigs = {operator_signature(op) for op in _walk(physical)}
        assert operator_signature(logical) in sigs

    @pytest.mark.parametrize("where", INDEXED_EQUALITY_SPELLINGS)
    def test_index_range_scan_matches_the_filter_it_absorbed(self, where):
        """However the predicate was spelled, the planned ``PhysIndexScan``
        (or the residual ``PhysFilter`` above it) keys like the
        ``LogicalFilter(Scan)`` it came from."""
        cluster = make_indexed_cluster(SystemConfig.ic_plus(4))
        sql = f"select id from t where {where}"
        logical = next(
            n for n in _walk(cluster.parse_to_logical(sql))
            if isinstance(n, LogicalFilter)
        )
        physical = next(
            n for n in _walk(cluster.plan_sql(sql))
            if isinstance(n, (PhysFilter, PhysIndexScan))
        )
        scan = next(n for n in _walk(physical) if isinstance(n, PhysIndexScan))
        assert scan.is_range_scan
        assert "v" not in where or isinstance(physical, PhysFilter)
        assert operator_signature(physical) == operator_signature(logical)

    def test_conjunct_order_is_irrelevant(self, store):
        emp = scan(store, "emp")
        a = BinaryOp("=", ColRef(1), Literal(3))
        b = BinaryOp(">", ColRef(3), Literal(50000.0))
        one = LogicalFilter(emp, BinaryOp("AND", a, b))
        two = LogicalFilter(scan(store, "emp"), BinaryOp("AND", b, a))
        assert operator_signature(one) == operator_signature(two)

    def test_mirrored_comparison_is_canonical(self, store):
        emp = scan(store, "emp")
        colval = LogicalFilter(emp, BinaryOp(">", ColRef(3), Literal(5.0)))
        valcol = LogicalFilter(
            scan(store, "emp"), BinaryOp("<", Literal(5.0), ColRef(3))
        )
        assert operator_signature(colval) == operator_signature(valcol)

    def test_inner_join_is_commutative(self, store):
        emp, sales = scan(store, "emp"), scan(store, "sales")
        forward = LogicalJoin(
            emp, sales, BinaryOp("=", ColRef(0), ColRef(emp.width + 1))
        )
        backward = LogicalJoin(
            scan(store, "sales"),
            scan(store, "emp"),
            BinaryOp("=", ColRef(1), ColRef(scan(store, "sales").width + 0)),
        )
        assert operator_signature(forward) == operator_signature(backward)

    def test_wrappers_are_not_keyed(self, store):
        emp = scan(store, "emp")
        project = LogicalProject(emp, (ColRef(0),), ("emp_id",))
        assert operator_signature(project) is None
        assert operator_signature(LogicalSort(emp, ((0, True),))) is None

    def test_sort_with_fetch_is_keyed(self, store):
        node = LogicalSort(scan(store, "emp"), ((0, True),), fetch=7)
        signature = operator_signature(node)
        assert signature is not None and "L(7)" in signature

    def test_projection_is_transparent(self, store):
        emp = scan(store, "emp")
        agg = LogicalAggregate(emp, (1,), (AggCall(AggFunc.COUNT, None),))
        identity = LogicalProject(
            scan(store, "emp"),
            tuple(ColRef(i) for i in range(emp.width)),
            tuple(emp.fields),
        )
        projected = LogicalAggregate(
            identity, (1,), (AggCall(AggFunc.COUNT, None),)
        )
        assert operator_signature(agg) == operator_signature(projected)

    def test_literal_values_stay_in_operator_keys(self, store):
        """Operator signatures must NOT parameterise literals: feedback for
        ``dept_id = 3`` says nothing about ``dept_id = 4``."""
        three = LogicalFilter(
            scan(store, "emp"), BinaryOp("=", ColRef(1), Literal(3))
        )
        four = LogicalFilter(
            scan(store, "emp"), BinaryOp("=", ColRef(1), Literal(4))
        )
        assert operator_signature(three) != operator_signature(four)


def _walk(node):
    yield node
    for child in node.inputs:
        yield from _walk(child)
