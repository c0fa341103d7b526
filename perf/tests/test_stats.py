"""The percentile rule, spread and the regression direction."""

import statistics

import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (5, 0.50),       # too few for any tail: the median, with the count stated
    (20, 0.50),
    (99, 0.50),
    (100, 0.90),     # exactly ten samples beyond p90
    (199, 0.90),
    (200, 0.95),
    (999, 0.95),
    (1000, 0.99),    # exactly ten beyond p99
    (1440, 0.99),
    (9999, 0.99),
    (10000, 0.999),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_nearest_rank_leaves_ten_samples_at_or_beyond_p99_of_a_thousand():
    values = list(range(1, 1001))
    value = stats.percentile(values, 0.99)
    assert value == 991
    assert sum(1 for v in values if v >= value) == 10


def test_percentile_needs_samples():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([3.0]) == 0.0
    assert stats.spread([5.0, 5.0, 5.0]) == 0.0


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 80.0, "higher") == pytest.approx(0.20)
