"""Unit tests for the reporting artefact structures (rendering only)."""

from repro.bench.reporting import AqlTable, GainFigure


class TestGainFigure:
    def _figure(self):
        figure = GainFigure("Figure X", ["Q1", "Q2"], (4, 8))
        figure.gains[("Q1", 4)] = 1.5
        figure.gains[("Q1", 8)] = 2.25
        figure.gains[("Q2", 4)] = None
        figure.gains[("Q2", 8)] = None
        return figure

    def test_markdown_has_header_and_rows(self):
        text = self._figure().to_markdown()
        lines = text.splitlines()
        assert lines[0] == "### Figure X"
        assert "| query | 4 sites | 8 sites |" in lines
        assert "| Q1 | 1.50x | 2.25x |" in lines

    def test_missing_gains_render_na(self):
        assert "| Q2 | n/a | n/a |" in self._figure().to_markdown()

    def test_divider_matches_column_count(self):
        text = self._figure().to_markdown()
        divider = [
            l for l in text.splitlines() if l and set(l) <= {"|", "-"}
        ][0]
        assert divider.count("---") == 3


class TestAqlTable:
    def test_markdown_rendering(self):
        table = AqlTable(1.0, (4,), ("IC", "IC+"), (2, 4))
        table.latencies[(4, "IC", 2)] = 1.234
        table.latencies[(4, "IC+", 2)] = 0.5
        table.latencies[(4, "IC", 4)] = 2.0
        table.latencies[(4, "IC+", 4)] = 0.75
        text = table.to_markdown()
        assert "| clients | IC@4 | IC+@4 |" in text
        assert "| 2 | 1.234 | 0.500 |" in text
        assert "| 4 | 2.000 | 0.750 |" in text
