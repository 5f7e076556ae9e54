"""Unit tests for equi-depth histograms and their estimator integration."""

import random

import pytest

from repro.catalog.histogram import EquiDepthHistogram
from repro.catalog.statistics import compute_table_stats


class TestConstruction:
    def test_uniform_values(self):
        histogram = EquiDepthHistogram.build(list(range(1000)))
        assert histogram is not None
        assert histogram.bucket_count >= 32
        assert histogram.boundaries[0] == 0
        assert histogram.boundaries[-1] == 999

    def test_empty_and_constant_columns_yield_none(self):
        assert EquiDepthHistogram.build([]) is None
        assert EquiDepthHistogram.build([5]) is None
        assert EquiDepthHistogram.build([7] * 100) is None

    def test_nulls_are_dropped(self):
        histogram = EquiDepthHistogram.build([None, 1, None, 2, 3])
        assert histogram is not None

    def test_too_few_boundaries_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram([1])

    def test_large_inputs_are_sampled(self):
        histogram = EquiDepthHistogram.build(list(range(100_000)))
        assert histogram is not None
        assert len(histogram.boundaries) <= 65

    def test_degenerate_boundaries_rejected(self):
        """A 'histogram' whose boundaries hold one distinct value prices
        every range at 0 or 1 — the constructor refuses it."""
        with pytest.raises(ValueError):
            EquiDepthHistogram([7, 7])
        with pytest.raises(ValueError):
            EquiDepthHistogram([7] * 65)

    def test_property_constant_and_near_constant_columns(self):
        """Property sweep: for any mix of one dominant value and a handful
        of outliers, ``build`` either returns None (nothing to summarise)
        or a histogram with two distinct end boundaries whose estimates
        stay inside [0, 1]."""
        rng = random.Random(17)
        for trial in range(50):
            dominant = rng.randrange(-5, 5)
            outliers = rng.randrange(0, 4)
            values = [dominant] * rng.randrange(2, 400)
            values += [dominant + rng.randrange(1, 100) for _ in range(outliers)]
            rng.shuffle(values)
            histogram = EquiDepthHistogram.build(values)
            if len(set(values)) == 1:
                assert histogram is None, f"trial {trial}: constant column"
                continue
            # Near-constant columns may still be summarisable; when they
            # are, the histogram must be well-formed.
            if histogram is None:
                continue
            assert histogram.boundaries[0] != histogram.boundaries[-1]
            for probe in (min(values) - 1, dominant, max(values) + 1):
                fraction = histogram.fraction_below(probe)
                assert 0.0 <= fraction <= 1.0

    def test_constant_after_sampling_returns_none(self):
        """A column whose sample collapses to one value (one outlier in a
        sea of constants, dropped by the stride sample) must yield None,
        not a degenerate histogram."""
        values = [5] * 100_000 + [6]
        assert EquiDepthHistogram.build(values) is None


class TestEstimation:
    def test_uniform_fraction_below(self):
        histogram = EquiDepthHistogram.build(list(range(1000)))
        assert histogram.fraction_below(500) == pytest.approx(0.5, abs=0.05)
        assert histogram.fraction_below(-10) == 0.0
        assert histogram.fraction_below(5000) == 1.0

    def test_range_fraction(self):
        histogram = EquiDepthHistogram.build(list(range(1000)))
        assert histogram.range_fraction(250, 750) == pytest.approx(0.5, abs=0.05)
        assert histogram.range_fraction(None, 100) == pytest.approx(0.1, abs=0.05)
        assert histogram.range_fraction(900, None) == pytest.approx(0.1, abs=0.05)

    def test_skewed_distribution(self):
        """Equi-depth buckets track skew: 90 % of rows below 10."""
        rng = random.Random(3)
        values = [rng.randrange(10) for _ in range(9000)]
        values += [rng.randrange(10, 1000) for _ in range(1000)]
        histogram = EquiDepthHistogram.build(values)
        below = histogram.fraction_below(10)
        assert below == pytest.approx(0.9, abs=0.05)
        # Linear min/max interpolation would have said ~1 %.
        assert below > 0.5

    def test_date_strings(self):
        dates = [f"199{y}-0{m}-15" for y in range(5) for m in range(1, 10)]
        histogram = EquiDepthHistogram.build(dates * 20)
        below = histogram.fraction_below("1992-06-15")
        assert 0.3 < below < 0.7


class TestStatisticsIntegration:
    def test_table_stats_carry_histograms(self):
        rows = [(i, float(i % 7)) for i in range(500)]
        stats = compute_table_stats(rows, ["k", "v"])
        assert stats.column("k").histogram is not None
        assert stats.column("v").histogram is not None

    def test_constant_column_has_no_histogram(self):
        rows = [(i, 1) for i in range(100)]
        stats = compute_table_stats(rows, ["k", "c"])
        assert stats.column("c").histogram is None

    def test_estimator_uses_histogram_under_skew(self):
        from repro.catalog.schema import Column, TableSchema
        from repro.catalog.types import ColumnType
        from repro.rel.expr import BinaryOp, ColRef, Literal
        from repro.rel.logical import LogicalFilter, LogicalTableScan
        from repro.stats.estimator import Estimator
        from repro.storage.store import DataStore

        rng = random.Random(9)
        rows = [(i, float(rng.randrange(10))) for i in range(900)]
        rows += [(900 + i, float(rng.randrange(10, 1000))) for i in range(100)]
        store = DataStore(site_count=2)
        store.create_table(
            TableSchema(
                "skew",
                [Column("k", ColumnType.INTEGER), Column("v", ColumnType.DOUBLE)],
                ["k"],
            ),
            rows,
        )
        estimator = Estimator(store, fixed_join_estimation=True)
        scan = LogicalTableScan("skew", "skew", ["k", "v"])
        node = LogicalFilter(scan, BinaryOp("<", ColRef(1), Literal(10.0)))
        estimate = estimator.row_count(node)
        actual = sum(1 for r in rows if r[1] < 10.0)
        assert estimate == pytest.approx(actual, rel=0.15)


class TestDistinctEstimate:
    """Regression: an NDV read off histogram boundaries is capped at
    ``bucket_count + 1`` — a 64-bucket histogram over a 1000-value column
    silently reported <= 65.  The histogram no longer carries an NDV at
    all; the one the estimator reads is ``TableStats.distinct_count``,
    tracked over the full column."""

    def test_high_ndv_not_truncated_by_buckets(self):
        column = compute_table_stats([(i,) for i in range(1000)], ["v"]).column("v")
        assert column.histogram.bucket_count <= 64
        assert column.distinct_count == 1000

    def test_ndv_tracked_before_sampling(self):
        # 100k distinct values, sampled down to 4096 for the histogram:
        # the NDV must reflect the full input, not the sample.
        stats = compute_table_stats([(i,) for i in range(100_000)], ["v"])
        assert stats.distinct_count("v") == 100_000

    def test_table_stats_pin_true_ndv(self):
        rows = [(i, i % 997) for i in range(5000)]
        stats = compute_table_stats(rows, ["k", "v"])
        column = stats.column("v")
        assert column.distinct_count == 997
        assert column.histogram is not None

    def test_histogram_and_hll_agree_on_small_inputs(self):
        """Both NDV paths the estimator can take (load-time statistics,
        HLL sketch) must tell the same story where exactness is cheap:
        small inputs."""
        from repro.stats.sketches import HyperLogLog

        for ndv in (2, 10, 64, 300):
            values = [i % ndv for i in range(1000)]
            stats = compute_table_stats([(v,) for v in values], ["v"])
            hll = HyperLogLog()
            for v in values:
                hll.add(v)
            assert stats.distinct_count("v") == ndv
            assert round(hll.estimate()) == pytest.approx(ndv, rel=0.02)
