import math
import tracemalloc

import numpy as np
import pytest

from sievelab import (
    DomainError,
    bias_series,
    delta_normalizer,
    empirical_pdf,
    extract_delta,
    fit_gaussian,
    lag_correlation,
    maier_scan,
    moving_average,
    phi_vs_lengths,
)
from sievelab.stats_lab import ScanSeries

from _oracles import bisect_root


def test_scan_series_validation():
    with pytest.raises(DomainError):
        ScanSeries(label="bad", points=[(1.0, 0.0), (1.0, 1.0)])
    with pytest.raises(DomainError):
        ScanSeries(label="bad", points=[(0.0, float("nan"))])
    s = ScanSeries(label="ok", points=[(0.0, 1.0), (2.0, 3.0)])
    assert list(s.xs()) == [0.0, 2.0]
    assert list(s.values()) == [1.0, 3.0]


def test_moving_average_basics():
    assert list(moving_average([7.0] * 10, 5)) == [7.0] * 10
    assert list(moving_average([1.0, 2.0, 3.0], 1)) == [1.0, 2.0, 3.0]
    out = moving_average([1.0, 2.0, 3.0, 4.0], 3)
    assert list(out) == [1.5, 2.0, 3.0, 3.5]
    with pytest.raises(DomainError):
        moving_average([], 1)
    with pytest.raises(DomainError):
        moving_average([1.0, 2.0], 5)


def test_empirical_pdf_integrates_to_one():
    rng = np.random.default_rng(7)
    samples = rng.normal(0.0, 1.0, size=20_000)
    series, fit = empirical_pdf(samples, bins=60)
    width = series.metadata["bin_width"]
    integral = sum(v for _, v in series.points) * width
    assert integral == pytest.approx(1.0, abs=1e-9)
    assert fit.mean == pytest.approx(0.0, abs=0.05)
    assert fit.stdev == pytest.approx(1.0, abs=0.05)
    assert fit.sample_count == 20_000


def test_empirical_pdf_two_point_convention():
    _, fit = empirical_pdf([-1.0, 1.0], bins=4)
    assert fit.mean == 0.0
    assert fit.stdev == pytest.approx(math.sqrt(2.0), rel=1e-15)  # unbiased


def test_empirical_pdf_degenerate():
    series, fit = empirical_pdf([3.0, 3.0, 3.0], bins=10)
    assert fit.stdev == 0.0
    assert series.points == [(3.0, 1.0)]
    assert series.metadata["degenerate"] is True


def test_fit_gaussian_errors():
    with pytest.raises(DomainError):
        fit_gaussian([])


def test_lag_correlation_lag0_is_one():
    rng = np.random.default_rng(3)
    d = rng.normal(size=500)
    series = lag_correlation(d, max_lag=5)
    assert series.points[0] == (0.0, 1.0)


def test_lag_correlation_white_noise():
    rng = np.random.default_rng(11)
    n = 4000
    d = rng.normal(size=n)
    series = lag_correlation(d, max_lag=10)
    for x, v in series.points[1:]:
        assert abs(v) < 4 / math.sqrt(n)


def test_lag_correlation_blocks():
    rng = np.random.default_rng(13)
    d = rng.normal(size=1000)
    series = lag_correlation(d, max_lag=3, block=200)
    assert [x for x, _ in series.points] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert set(series.metadata["per_lag"]) == {"1", "2", "3"}
    with pytest.raises(DomainError):
        lag_correlation(d, max_lag=10, block=5)
    with pytest.raises(DomainError):
        lag_correlation(d, max_lag=3, block=-1)


def test_lag_correlation_of_all_zero_sequence():
    # The mean square is the denominator: 0 is a domain error, not a ZeroDivisionError.
    with pytest.raises(DomainError, match="all-zero sequence"):
        lag_correlation([0.0] * 6, max_lag=2)


def test_lag_correlation_of_all_zero_block():
    with pytest.raises(DomainError, match="all-zero block"):
        lag_correlation([1.0, -2.0, 0.5, 0.0, 0.0, 0.0], max_lag=1, block=3)


def test_lag_correlation_errors():
    with pytest.raises(DomainError):
        lag_correlation([1.0, 2.0], max_lag=5)
    with pytest.raises(DomainError, match="max_lag must be >= 0"):
        lag_correlation([1.0, 2.0], max_lag=-1)
    with pytest.raises(DomainError, match="shorter than one block"):
        lag_correlation([1.0, 2.0, 3.0], max_lag=1, block=4)


def test_maier_scan_phi_values(table):
    s = maier_scan(500, 3.0, table)
    assert round(s.ratios.metadata["phi_start"]) == 4380
    assert round(s.ratios.metadata["phi_end"]) == 4384
    assert s.ratios.metadata["step"] == math.ceil(s.ratios.metadata["phi_start"] / 100)


def test_maier_scan_round_trip(table):
    s = maier_scan(50, 3.0, table, step=7)
    counts = s.ratios.metadata["counts"]
    for (x, ratio), count in zip(s.ratios.points, counts):
        back = ratio * math.log(x) ** 2
        assert back == pytest.approx(count, abs=1e-8)
        assert float(count).is_integer()


def test_maier_scan_whole_ratio(table, set1000):
    s = maier_scan(500, 3.0, table)
    r = set1000.record(500)
    assert s.whole_interval_ratio == pytest.approx(r.pi_k / r.pnt_estimate, rel=1e-12)


def test_maier_scan_holds_no_interval_sized_array(table):
    # The single-sieve scan traced 23.8 MiB here: flags and an int64 prefix
    # over all of s_10000 (l_k = 2.9e6). Streamed through the wheel counter
    # it must take at most a quarter of that, result included.
    maier_scan(10000, 3.0, table)  # build the presieve patterns outside the trace
    tracemalloc.start()
    try:
        maier_scan(10000, 3.0, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23.8 / 4 * (1 << 20), peak


def test_maier_scan_window_too_big(table):
    with pytest.raises(DomainError):
        maier_scan(3, 3.0, table)  # (log 25)^3 = 33 > l_3 = 24


def test_maier_scan_negative_step(table):
    with pytest.raises(DomainError, match="step must be >= 0"):
        maier_scan(30, 3.0, table, step=-5)
    # 0 still selects the default stride.
    assert maier_scan(30, 3.0, table, step=0) == maier_scan(30, 3.0, table)


def test_extract_delta(table):
    scans = [maier_scan(k, 3.0, table) for k in (500, 750)]
    assert extract_delta(scans) == min(s.delta for s in scans)
    for s in scans:
        assert s.delta == min(s.up_deviation, s.down_deviation)


def test_phi_vs_lengths_identity(set1000):
    s = set1000
    assert np.array_equal(s.length, 2 * s.p_next * s.gap - s.gap * s.gap)  # l_g at x = p_next^2


def test_phi_vs_lengths_crossing_matches_root_oracle(table):
    series = phi_vs_lengths(10 ** 7, 3.0, table)
    by_g = dict(series.points)
    root = bisect_root(lambda x: math.log(x) ** 3 - (4 * math.sqrt(x) - 4), 1e4, 1e7)
    assert by_g[2.0] == pytest.approx(root, rel=1e-6)


def test_phi_vs_lengths_beyond_crossing(table, set1000):
    series = phi_vs_lengths(10 ** 7, 3.0, table)
    x_star = max(x for _, x in series.points)
    for x in (x_star * 1.01, x_star * 2, x_star * 10):
        phi = math.log(x) ** 3
        assert np.all(phi < set1000.length[set1000.p_next ** 2 > x])


def test_moving_average_of_gap_series(table, set1000):
    from sievelab import gap_series

    g500 = gap_series(500, set1000, table)
    gaps = [g for _, g in g500.pairs]
    smoothed = moving_average(gaps, 25)
    assert len(smoothed) == len(gaps)
    # Smoothing keeps the overall level but shrinks the spread.
    assert np.mean(smoothed) == pytest.approx(g500.mean_gap, rel=0.02)
    assert np.std(smoothed) < np.std(gaps)


def test_lag_correlation_of_interval_deviations(set1000):
    d = set1000.pi_k - set1000.li_k
    series = lag_correlation(d, max_lag=3)
    lag1 = series.points[1][1]
    assert lag1 < 0  # near neighbours are mildly anti-correlated
    assert abs(lag1) < 0.5


def test_bias_delta_is_delta_normalizer(table, set200):
    delta = bias_series(set200).metadata["delta"]
    for k in (1, 2, 50, 200):
        assert delta[k - 1] == delta_normalizer(k, table)


def test_bias_series_ordering_and_normalized_lines(set1000):
    series = bias_series(set1000)
    meta = series.metadata
    b = np.array(meta["b"])
    c = np.array(meta["c"])
    # Strict ordering at every k: sum l/log p_{j+1}^2 < li(x) - li(4) < sum l/log p_j^2.
    assert np.all(c < 0) and np.all(b > 0)
    # Normalized curves sit near -1 and +1 from k >= 100 on.
    b_norm = np.array(meta["b_norm"])[99:]
    c_norm = np.array(meta["c_norm"])[99:]
    assert np.all((0.8 <= b_norm) & (b_norm <= 1.2))
    assert np.all((-1.2 <= c_norm) & (c_norm <= -0.8))
    # pi(x) - li(x) negative throughout, and the fit is recorded.
    assert np.all(series.values() < 0)
    fit = meta["fit"]
    assert fit.sample_count == len(series.points)
    assert -1.0 < fit.mean < 0.0
