"""Tests for EXPLAIN ANALYZE: per-operator actuals on executed plans."""

import pytest

from repro.common.config import SystemConfig

from helpers import make_company_cluster


@pytest.fixture(scope="module")
def cluster():
    return make_company_cluster(SystemConfig.ic_plus())


def test_actuals_are_recorded(cluster):
    result = cluster.sql(
        "select dept_id, count(*) from emp group by dept_id"
    )
    assert result.operator_actuals
    assert all(
        rows >= 0 and units >= 0
        for rows, units, _rows_in in result.operator_actuals.values()
    )


def test_explain_analyze_renders_fragments_and_actuals(cluster):
    result = cluster.sql(
        "select e.name from emp e, sales s where e.emp_id = s.emp_id "
        "and s.amount > 4000"
    )
    text = result.explain_analyze()
    assert "RootFragment" in text
    assert "actual rows=" in text
    assert "units=" in text


def test_scan_actuals_match_table_size(cluster):
    result = cluster.sql("select emp_id from emp")
    scans = [
        (rows, units)
        for op_id, (rows, units, _rows_in) in result.operator_actuals.items()
    ]
    # Some operator (the scan) saw every employee row.
    assert any(rows == 120 for rows, _ in scans)


def test_filter_actuals_reflect_selectivity(cluster):
    result = cluster.sql("select emp_id from emp where emp_id <= 10")
    final_rows = result.row_count
    assert final_rows == 10
    text = result.explain_analyze()
    assert "actual rows=10" in text


def test_root_fragment_listed_last(cluster):
    result = cluster.sql(
        "select dept_id, count(*) from emp group by dept_id"
    )
    lines = result.explain_analyze().splitlines()
    fragment_headers = [
        i for i, line in enumerate(lines)
        if line.startswith(("Fragment", "RootFragment"))
    ]
    assert lines[fragment_headers[-1]].startswith("RootFragment")
