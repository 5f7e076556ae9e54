"""Integration tests for the reporting pipeline at tiny scale."""

import pytest

from repro.bench.reporting import TPCH_WORKLOAD, PaperRun
from repro.obs.metrics import get_registry


@pytest.fixture(scope="module")
def run():
    return PaperRun((0.1,), (4,))


class TestFailureMatrix:
    def test_rows_cover_all_queries(self, run):
        rows = run.failures().rows
        assert len(rows) == 22
        statuses = {q: (a, b) for q, a, b in rows}
        assert statuses["Q2"] == ("planning_failed", "ok")
        assert statuses["Q15"] == ("unsupported", "unsupported")
        assert statuses["Q20"] == ("planner_defect", "planner_defect")


class TestGainFigures:
    def test_tpch_figure_has_all_cells(self, run):
        figure = run.figure7()
        assert len(figure.gains) == 20
        # Baseline planning failures have no gain.
        assert figure.gains[("Q2", 4)] is None
        assert figure.gains[("Q3", 4)] is not None
        markdown = figure.to_markdown()
        assert "| Q3 |" in markdown

    def test_ssb_figure(self, run):
        figure = run.figure11()
        assert set(q for q, _ in figure.gains) == {
            "Q1.1", "Q1.2", "Q1.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4",
        }
        assert all(
            g is None or g > 0 for g in figure.gains.values()
        )

    def test_a_run_measures_each_matrix_once(self):
        """Figure 7 then Figure 8 of one run: the second figure executes
        only the IC+M cells — the IC matrix is the one Figure 7 kept."""
        run = PaperRun((0.1,), (4,))
        run.figure7()
        ic = run.response_times("tpch", "IC", 4)
        registry = get_registry()
        before = registry.snapshot()
        run.figure8()
        executed = registry.delta_since(before)["exec.queries"]
        assert executed == len(TPCH_WORKLOAD)  # IC+M completes all twenty
        assert run.response_times("tpch", "IC", 4) is ic


class TestAqlTable:
    def test_table_shape_and_monotonicity(self, run):
        table = run.table3(clients=(2, 8), duration_seconds=120)
        assert len(table.latencies) == 6  # 3 systems x 2 client counts
        for system in table.systems:
            low = table.latencies[(4, system, 2)]
            high = table.latencies[(4, system, 8)]
            assert high >= low * 0.95
        markdown = table.to_markdown()
        assert "| clients |" in markdown
