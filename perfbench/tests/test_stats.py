import pytest

from perfbench.stats import (
    min_samples,
    percentile,
    quartile_spread,
    samples_beyond,
    select_tail,
)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize("n, preferred, expected", [
    (1000, 99, 99),   # 10 beyond p99
    (999, 99, 95),    # 9 beyond p99, 49 beyond p95
    (200, 99, 95),    # 2 beyond p99, 10 beyond p95
    (199, 99, 90),    # 9 beyond p95, 19 beyond p90
    (100, 99, 90),
    (5000, 95, 95),   # p99 qualifies but the workload prefers p95
    (5000, 90, 90),
])
def test_select_tail_takes_highest_percentile_with_ten_beyond(
        n, preferred, expected):
    samples = [float(i) for i in range(n)]
    chosen, value, beyond = select_tail(samples, preferred)
    assert chosen == expected
    assert beyond == samples_beyond(n, chosen) >= 10
    assert value == percentile(samples, chosen)


@pytest.mark.parametrize("n, preferred", [
    (5, 99),
    (99, 95),     # 4 beyond p95, 9 beyond p90
    (99, 90),
])
def test_select_tail_refuses_a_tail_with_fewer_than_ten_beyond(
        n, preferred):
    with pytest.raises(ValueError, match="no tail percentile"):
        select_tail([float(i) for i in range(n)], preferred)


def test_select_tail_rejects_unknown_preference():
    with pytest.raises(ValueError):
        select_tail([1.0] * 100, 80)


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    values = [90.0, 95.0, 100.0, 105.0, 110.0]
    assert quartile_spread(values) == pytest.approx(
        (107.5 - 92.5) / 100.0)


@pytest.mark.parametrize("q, n", [(90, 100), (95, 200), (99, 1000)])
def test_min_samples_is_the_fewest_with_ten_beyond(q, n):
    assert min_samples(q) == n
    assert samples_beyond(n, q) >= 10 > samples_beyond(n - 1, q)
    assert select_tail([float(i) for i in range(n)], q)[0] == q
