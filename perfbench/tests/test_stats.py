"""Percentile / geomean helpers against hand-computed values."""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([5, 1, 4, 2, 3], 0.5) == 3
    # position 0.95 * 3 = 2.85 -> 30 + 0.85 * (40 - 30)
    assert stats.percentile([10, 20, 30, 40], 0.95) == pytest.approx(38.5)
    assert stats.percentile([7], 0.95) == 7
    assert stats.percentile([1, 2], 0.0) == 1
    assert stats.percentile([1, 2], 1.0) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1], 1.5)


def test_samples_beyond_p95():
    # 180 samples: rank 0.95 * 179 = 170.05, indices 171..179 lie beyond.
    assert stats.samples_beyond(180, 0.95) == 9
    assert stats.samples_beyond(240, 0.95) == 12
    assert stats.samples_beyond(1, 0.95) == 0


def test_geomean():
    assert stats.geomean([1, 100]) == pytest.approx(10)
    assert stats.geomean([2, 8]) == pytest.approx(4)
    assert stats.geomean([3, 3, 3]) == pytest.approx(3)


def test_quartile_spread_is_the_drivers_rule():
    # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25]
    assert stats.quartile_spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)
    assert stats.quartile_spread([4, 4, 4, 4]) == 0
