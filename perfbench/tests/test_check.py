"""Row comparison against golden rows."""

from perfbench.check import GoldenQuery, _sort_key, load_golden, rows_mismatch


def _golden(rows, order_by=()):
    return GoldenQuery(tuple(order_by), sorted(rows, key=_sort_key))


def test_floats_compare_to_1e6_relative_and_order_is_free_without_order_by():
    golden = _golden([["a", 1, 100.0], ["b", 2, 200.0]])
    assert rows_mismatch([("b", 2, 200.0000001), ("a", 1, 100.0)], golden) is None
    assert "golden" in rows_mismatch([("b", 2, 200.1), ("a", 1, 100.0)], golden)


def test_row_count_and_value_mismatches_are_reported():
    golden = _golden([["a", 1]])
    assert "rows" in rows_mismatch([], golden)
    assert rows_mismatch([("a", 2)], golden) is not None
    assert rows_mismatch([("a", None)], golden) is not None


def test_nulls_and_mixed_types_sort_and_match():
    golden = _golden([[None], [1.5], ["x"]])
    assert rows_mismatch([("x",), (1.5,), (None,)], golden) is None


def test_order_checked_only_under_order_by():
    rows = [["a", 2.0], ["b", 1.0]]
    assert rows_mismatch([("b", 1.0), ("a", 2.0)], _golden(rows)) is None
    descending = _golden(rows, order_by=[(1, False)])
    assert rows_mismatch([("a", 2.0), ("b", 1.0)], descending) is None
    assert "ORDER BY" in rows_mismatch([("b", 1.0), ("a", 2.0)], descending)
    # Ties on the sort key may come in either order.
    ties = _golden([["a", 1.0], ["b", 1.0]], order_by=[(1, True)])
    assert rows_mismatch([("b", 1.0), ("a", 1.0)], ties) is None


def test_committed_golden_files_load():
    tpch = load_golden("tpch", 0.5)
    assert len(tpch) == 20 and tpch["Q1"].order_by == ((0, True), (1, True))
    assert len(load_golden("ssb", 1.0)) == 10
