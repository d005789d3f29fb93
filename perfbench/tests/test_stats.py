import pytest

from perfbench import stats


def test_p90_needs_ten_samples_beyond_it():
    assert stats.min_samples(0.9) == 100
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 0.9)
    assert stats.percentile(list(range(1, 101)), 0.9) == 90


def test_p99_needs_a_thousand_samples():
    assert stats.min_samples(0.99) == 1000
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 0.99)


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.9) == 5.0


def test_refuses_empty_and_bad_q():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 0.5)
    with pytest.raises(stats.TooFewSamples):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 100, 1.0)
