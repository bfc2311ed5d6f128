import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from sievelab import (
    DomainError,
    bias_series,
    compute_interval_records,
    delta_normalizer,
    empirical_pdf,
    extract_delta,
    fit_gaussian,
    lag_correlation,
    maier_scan,
    moving_average,
    phi_vs_lengths,
)
from sievelab import stats_lab
from sievelab.randmodel import conjecture_check, variance_comparison
from sievelab.residue_legendre import legendre_scan
from sievelab.stats_lab import ScanSeries

from _oracles import bisect_root, mark_primality


def test_scan_series_validation():
    with pytest.raises(DomainError, match="strictly increasing"):
        ScanSeries(label="bad", columns={"x": [1.0, 1.0], "y": [0.0, 1.0]})
    with pytest.raises(DomainError, match="non-finite"):
        ScanSeries(label="bad", columns={"x": [0.0], "y": [float("nan")]})
    with pytest.raises(DomainError, match="one length"):
        ScanSeries(label="bad", columns={"x": [0.0, 2.0], "y": [1.0]})
    with pytest.raises(DomainError, match="one length"):
        ScanSeries(label="bad", columns={"x": [[0.0, 2.0]]})
    with pytest.raises(DomainError, match="one length"):
        ScanSeries(label="bad", columns={})
    s = ScanSeries(label="ok", columns={"x": [0, 2], "y": [1.0, 3.0], "mode": ["a", "b"]})
    assert list(s.columns) == ["x", "y", "mode"]
    assert s.columns["x"].tolist() == [0, 2]
    assert s.columns["y"].tolist() == [1.0, 3.0]
    # A column is a read-only view: the caller's array keeps its flags.
    y = np.array([1.0, 3.0])
    s = ScanSeries(label="ok", columns={"x": [0, 2], "y": y})
    assert y.flags.writeable and not s.columns["y"].flags.writeable


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
    integral = sum(series.columns["density"]) * width
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
    assert series.columns["center"].tolist() == [3.0]
    assert series.columns["density"].tolist() == [1.0]
    assert series.metadata["degenerate"] is True


def test_fit_gaussian_errors():
    with pytest.raises(DomainError):
        fit_gaussian([])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="non-finite"):
            fit_gaussian([1.0, bad])


def test_empirical_pdf_rejects_non_finite_samples():
    # Checked by the moment fit, before numpy's histogram sees the range.
    with pytest.raises(DomainError, match="non-finite"):
        empirical_pdf([1.0, float("nan"), 2.0], 4)
    with pytest.raises(DomainError, match="non-finite"):
        empirical_pdf([1.0, float("-inf")], 4)


def test_lag_correlation_lag0_is_one():
    rng = np.random.default_rng(3)
    d = rng.normal(size=500)
    series = lag_correlation(d, max_lag=5)
    assert series.columns["lag_or_block"].tolist() == [0, 1, 2, 3, 4, 5]
    assert series.columns["value"][0] == 1.0


def test_lag_correlation_white_noise():
    rng = np.random.default_rng(11)
    n = 4000
    d = rng.normal(size=n)
    series = lag_correlation(d, max_lag=10)
    assert np.all(np.abs(series.columns["value"][1:]) < 4 / math.sqrt(n))


def test_lag_correlation_blocks():
    rng = np.random.default_rng(13)
    d = rng.normal(size=1000)
    series = lag_correlation(d, max_lag=3, block=200)
    assert series.columns["lag_or_block"].tolist() == [1, 2, 3, 4, 5]
    assert list(series.columns) == ["lag_or_block", "value", "lag_1", "lag_2", "lag_3"]
    assert np.array_equal(series.columns["value"], series.columns["lag_1"])
    # Each lag_j column is the whole-sequence statistic of its block at lag j.
    for b in range(5):
        whole = lag_correlation(d[b * 200 : (b + 1) * 200], max_lag=3).columns["value"]
        for j in (1, 2, 3):
            assert series.columns[f"lag_{j}"][b] == whole[j], (b, j)
    with pytest.raises(DomainError):
        lag_correlation(d, max_lag=10, block=5)
    with pytest.raises(DomainError):
        lag_correlation(d, max_lag=3, block=-1)
    # A block series holds lag 1, so it needs max_lag >= 1.
    with pytest.raises(DomainError, match="max_lag >= 1"):
        lag_correlation(d, max_lag=0, block=200)


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
    assert round(s.phi_start) == 4380
    assert round(s.phi_end) == 4384
    assert s.step == math.ceil(s.phi_start / 100)


def test_maier_scan_round_trip(table):
    s = maier_scan(50, 3.0, table, step=7)
    cols = s.ratios.columns
    assert list(cols) == ["x", "ratio", "count"]
    assert cols["count"].dtype == np.int64
    for x, ratio, count in zip(cols["x"].tolist(), cols["ratio"].tolist(), cols["count"].tolist()):
        back = ratio * math.log(x) ** 2
        assert back == pytest.approx(count, abs=1e-8)


def test_maier_scan_whole_ratio(table, set1000):
    s = maier_scan(500, 3.0, table)
    r = set1000.record(500)
    assert s.whole_interval_ratio == pytest.approx(r.pi_k / r.pnt_estimate, rel=1e-12)


def _window_ends(xs, lam):
    """floor(x + (log x)^lam) for each x: the last integer of each window (x, x + (log x)^lam]."""
    return np.floor(xs + np.log(xs.astype(np.float64)) ** lam).astype(np.int64)


@pytest.mark.parametrize("k", [50, 1028, 1029, 3000])
def test_maier_counts_match_plain_sieve(table, k):
    # p_1028 = 8191 is the last base prime below the wheel's scatter tier
    # (8192), so s_1029 and s_3000 are struck by primes on both sides of it.
    p, p_next = table.nth(k), table.nth(k + 1)
    lo, hi = p * p, p_next * p_next - 1
    prefix = np.concatenate(([0], np.cumsum(mark_primality(lo, hi, table.first(k)))))
    for lam in (2.0, 3.0):
        for step in (0, 1):
            s = maier_scan(k, lam, table, step=step)
            xs, counts = s.ratios.columns["x"], s.ratios.columns["count"]
            upper = _window_ends(xs, lam)
            assert np.array_equal(counts, prefix[upper - lo + 1] - prefix[xs - lo + 1]), (lam, step)
            # x steps from p_k^2 through the last window that fits inside s_k.
            assert np.array_equal(xs, np.arange(lo, xs[-1] + 1, s.step))
            assert upper[-1] <= hi < _window_ends(xs[-1:] + s.step, lam)[0]
    pi_k = int(compute_interval_records(k, k, table)["pi_k"][0])
    assert pi_k == prefix[-1]
    assert s.whole_interval_ratio == pi_k / ((hi - lo + 1) / math.log(p_next * p_next))


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


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_maier_scan_non_finite_lambda(table, lam):
    with pytest.raises(DomainError, match="lambda must be finite"):
        maier_scan(30, lam, table)


def test_maier_scan_negative_step(table):
    with pytest.raises(DomainError, match="step must be >= 0"):
        maier_scan(30, 3.0, table, step=-5)
    # 0 still selects the default stride.
    a, b = maier_scan(30, 3.0, table, step=0), maier_scan(30, 3.0, table)
    assert (a.step, a.phi_start, a.phi_end, a.delta) == (b.step, b.phi_start, b.phi_end, b.delta)
    assert a.ratios.columns.keys() == b.ratios.columns.keys()
    for name in a.ratios.columns:
        assert np.array_equal(a.ratios.columns[name], b.ratios.columns[name]), name


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
    by_g = dict(zip(series.columns["g"].tolist(), series.columns["crossing"].tolist()))
    root = bisect_root(lambda x: math.log(x) ** 3 - (4 * math.sqrt(x) - 4), 1e4, 1e7)
    assert by_g[2] == pytest.approx(root, rel=1e-6)


def test_phi_vs_lengths_rejects_non_finite_lambda(table):
    for lam in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="lambda must be finite"):
            phi_vs_lengths(10 ** 6, lam, table)


def test_phi_vs_lengths_bisection_calls_and_crossings(table, monkeypatch):
    # One call of h per halving plus one at the left end: 60 bisections over
    # these three scans take 60 * 81 = 4860 calls, where a second call per
    # same-sign step took 7136. The digest is of every crossing and lower
    # crossing's float.hex, as the two-call bisection computed them.
    bisect, calls = stats_lab._bisect_crossing, []

    def counted(f, a, b):
        n = 0

        def g(x):
            nonlocal n
            n += 1
            return f(x)

        x = bisect(g, a, b)
        calls.append(n)
        return x

    monkeypatch.setattr(stats_lab, "_bisect_crossing", counted)
    hexes = []
    for x_max, lam in ((10 ** 7, 3.0), (10 ** 6, 2.5), (10 ** 9, 3.5)):
        series = phi_vs_lengths(x_max, lam, table)
        hexes += [c.hex() for c in series.columns["crossing"].tolist()]
        hexes += [f"{g}:{c.hex()}" for g, c in sorted(series.metadata["lower_crossings"].items())]
    assert len(calls) == 60 and max(calls) <= stats_lab._BISECT_ITERS + 1
    assert sum(calls) == 4860
    assert hashlib.sha256(" ".join(hexes).encode()).hexdigest() == (
        "6f0871f54335ab20493d98fb23c3fde75e6c5d84874ef04c827561a8e4cd523d")


def test_phi_vs_lengths_beyond_crossing(table, set1000):
    series = phi_vs_lengths(10 ** 7, 3.0, table)
    x_star = float(series.columns["crossing"].max())
    for x in (x_star * 1.01, x_star * 2, x_star * 10):
        phi = math.log(x) ** 3
        assert np.all(phi < set1000.length[set1000.p_next ** 2 > x])


def test_moving_average_of_gap_series(table, set1000):
    from sievelab import gap_series

    g500 = gap_series(500, set1000, table)
    gaps = g500.columns["g"]
    smoothed = moving_average(gaps, 25)
    assert len(smoothed) == len(gaps)
    # Smoothing keeps the overall level but shrinks the spread.
    assert np.mean(smoothed) == pytest.approx(g500.metadata["mean_gap"], rel=0.02)
    assert np.std(smoothed) < np.std(gaps)


def test_lag_correlation_of_interval_deviations(set1000):
    d = set1000.pi_k - set1000.li_k
    series = lag_correlation(d, max_lag=3)
    lag1 = series.columns["value"][1]
    assert lag1 < 0  # near neighbours are mildly anti-correlated
    assert abs(lag1) < 0.5


def test_bias_delta_is_delta_normalizer(table, set200):
    delta = bias_series(set200).columns["delta"]
    for k in (1, 2, 50, 200):
        assert delta[k - 1] == delta_normalizer(k, table)


def test_bias_series_ordering_and_normalized_lines(set1000):
    series = bias_series(set1000)
    cols = series.columns
    b, c = cols["b"], cols["c"]
    # Strict ordering at every k: sum l/log p_{j+1}^2 < li(x) - li(4) < sum l/log p_j^2.
    assert np.all(c < 0) and np.all(b > 0)
    # Normalized curves sit near -1 and +1 from k >= 100 on.
    b_norm = cols["b_norm"][99:]
    c_norm = cols["c_norm"][99:]
    assert np.all((0.8 <= b_norm) & (b_norm <= 1.2))
    assert np.all((-1.2 <= c_norm) & (c_norm <= -0.8))
    # pi(x) - li(x) negative throughout, and the fit is recorded.
    assert np.all(cols["a"] < 0)
    fit = series.metadata["fit"]
    assert fit.sample_count == len(cols["k"])
    assert -1.0 < fit.mean < 0.0


# Every builder of a ScanSeries, called on small inputs.
BUILDERS = {
    "maier_scan": lambda t, s: maier_scan(50, 3.0, t, step=7).ratios,
    "phi_vs_lengths": lambda t, s: phi_vs_lengths(10 ** 6, 3.0, t),
    "empirical_pdf": lambda t, s: empirical_pdf(s.pi_k - s.li_k, 20)[0],
    "lag_correlation": lambda t, s: lag_correlation(s.pi_k - s.li_k, max_lag=4),
    "lag_correlation_blocks": lambda t, s: lag_correlation(s.pi_k - s.li_k, max_lag=4, block=50),
    "bias_series": lambda t, s: bias_series(s),
    "conjecture_check": lambda t, s: conjecture_check(s),
    "variance_comparison": lambda t, s: variance_comparison(range(1, 5), t, budget=10 ** 4),
    "legendre_scan": lambda t, s: legendre_scan(1, 30, t),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_returns_read_only_columns(name, table, set200):
    series = BUILDERS[name](table, set200)
    assert isinstance(series, ScanSeries)
    lengths = {len(col) for col in series.columns.values()}
    assert len(lengths) == 1 and lengths.pop() > 0
    for col in series.columns.values():
        assert col.ndim == 1
        with pytest.raises(ValueError):
            col[0] = col[0]
    first = next(iter(series.columns.values()))
    assert np.all(first[1:] > first[:-1])
    assert not any(isinstance(v, list) for v in series.metadata.values())
