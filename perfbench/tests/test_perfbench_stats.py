"""Unit tests of the benchmark's exact-percentile helper.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import MIN_BEYOND, percentile, summarize, tail_quantile  # noqa: E402


def test_percentile_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.5) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7.0], 0.5) == 7.0


def test_percentile_ignores_input_order():
    samples = [float(x) for x in range(1000)]
    shuffled = samples[:]
    random.Random(3).shuffle(shuffled)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert percentile(shuffled, q) == percentile(samples, q)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


@pytest.mark.parametrize("count", [20, 50, 200, 999, 1000, 5000])
def test_tail_leaves_at_least_ten_samples_beyond(count):
    samples = list(range(count))
    q = tail_quantile(count)
    tail = percentile(samples, q)
    beyond = sum(1 for s in samples if s > tail)
    assert beyond >= MIN_BEYOND
    assert q <= 0.99


def test_tail_is_p99_once_the_sample_supports_it():
    assert tail_quantile(1000) == pytest.approx(0.99)
    assert tail_quantile(20000) == 0.99
    assert tail_quantile(200) == pytest.approx(0.95)


def test_tail_falls_back_to_median_on_tiny_samples():
    assert tail_quantile(MIN_BEYOND) == 0.5
    assert tail_quantile(12) == 0.5
    s = summarize([3.0, 1.0, 2.0])
    assert s["n"] == 3 and s["p50"] == 2.0 and s["tail"] == 2.0


def test_summarize_is_exact_where_buckets_are_not():
    # Two values 10% apart fall in one ~21% histogram bucket; the exact
    # helper keeps them apart.
    samples = [1.00] * 500 + [1.10] * 500
    s = summarize(samples)
    assert s["p50"] == 1.00
    assert s["tail"] == 1.10
    assert s["n"] == 1000


def test_summarize_empty():
    s = summarize([])
    assert s["n"] == 0
    assert s["p50"] != s["p50"]  # NaN
