import math
import random
import tracemalloc

import numpy as np
import pytest

from sievelab import (
    EULER_GAMMA,
    DomainError,
    ResourceError,
    binomial_reference,
    conjecture_check,
    li,
    poisson_reference,
    shift_model,
    sum_model_bounds,
    variance_comparison,
)
from sievelab.cli import build_parser
from sievelab.randmodel import DEFAULT_BUDGET, _draw_ranges, _draw_starts

from _oracles import shift_moments, totient_of_primorial, window_count
from conftest import no_child_left


def test_exhaustive_k2(table_small):
    s = shift_model(2, table_small, budget=10 ** 9)
    assert s.mode == "exhaustive" and s.samples == 6
    assert s.count_sum == 16 * totient_of_primorial([2, 3])  # l_2 * phi(6)
    assert s.mean == 16 / 3


def test_exhaustive_k3_exact_mean(table_small):
    s = shift_model(3, table_small, budget=10 ** 9)
    assert s.samples == 30
    assert s.mean == 6.4
    assert s.seed is None


def test_exhaustive_identity_k_up_to_6(table_small):
    for k in range(1, 7):
        s = shift_model(k, table_small, budget=10 ** 9)
        length = table_small.nth(k + 1) ** 2 - table_small.nth(k) ** 2
        phi = totient_of_primorial(int(p) for p in table_small.first(k))
        assert s.mode == "exhaustive"
        assert s.count_sum == length * phi


@pytest.mark.parametrize("k, moments", [(6, (691200, 15949640, 18, 26)),
                                         (7, (6635520, 86985900, 9, 18))])
def test_exhaustive_moments_pinned(table_small, k, moments):
    # Recorded from the per-prime flags[::q] striker.
    s = shift_model(k, table_small, budget=10 ** 9)
    assert s.mode == "exhaustive"
    assert (s.count_sum, s.count_sq_sum, s.count_min, s.count_max) == moments


def _length(table, k):
    return table.nth(k + 1) ** 2 - table.nth(k) ** 2


@pytest.mark.parametrize("k", range(1, 9))
def test_exhaustive_moments_match_pair_count_oracle(table_small, k):
    s = shift_model(k, table_small, budget=10 ** 9)
    assert s.mode == "exhaustive"
    assert (s.count_sum, s.count_sq_sum) == shift_moments(table_small.first(k), _length(table_small, k))


def test_exhaustive_histogram_matches_window_count(table_small):
    for k in range(1, 5):
        s = shift_model(k, table_small, budget=10 ** 9)
        lo0, length = table_small.nth(k) ** 2, _length(table_small, k)
        counts = [window_count(lo0 + j, length, table_small.first(k)) for j in range(s.samples)]
        assert np.array_equal(s.histogram, np.bincount(counts))


@pytest.mark.parametrize("budget", [1, 0, -3])
def test_budget_below_two_is_domain_error(table_small, budget):
    with pytest.raises(DomainError, match="budget must be >= 2"):
        shift_model(5, table_small, budget=budget)


def test_exhaustive_period_beyond_memory_budget(table_small):
    # p_10# / 2 = 3234846615 odd flags exceed the 2^31-byte budget: the call
    # raises before any period-sized array exists.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            shift_model(10, table_small, budget=10 ** 10)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # p_9# / 2 = 111546435 fit it, so k = 9 runs.
    s = shift_model(9, table_small, budget=10 ** 9)
    assert s.mode == "exhaustive" and s.samples == 223092870
    assert (s.count_sum, s.count_sq_sum) == shift_moments(table_small.first(9), _length(table_small, 9))


def test_pi_k_inside_sample_space(table_small, set200):
    for k in range(1, 7):
        s = shift_model(k, table_small, budget=10 ** 9)
        assert s.count_min <= set200.record(k).pi_k <= s.count_max


def test_rescaling_is_exact(table_small):
    scale = math.exp(EULER_GAMMA) / 2.0
    for k in (2, 4, 6):
        s = shift_model(k, table_small, budget=10 ** 9)
        assert s.rescaled_mean == scale * s.mean
        assert s.rescaled_variance == scale * scale * s.variance


def test_sampled_mode_reproducible(table_small):
    a = shift_model(12, table_small, budget=300, seed=42)
    b = shift_model(12, table_small, budget=300, seed=42)
    c = shift_model(12, table_small, budget=300, seed=43)
    assert a.mode == "sampled" and a.samples == 300 and a.seed == 42
    assert (a.mean, a.variance, a.count_sum, a.count_sq_sum) == \
        (b.mean, b.variance, b.count_sum, b.count_sq_sum)
    assert (a.count_sum, a.count_sq_sum) != (c.count_sum, c.count_sq_sum)


def test_sampled_mode_standard_error_halves(table_small):
    # Variance of the sample mean should scale like 1/n.
    k, n = 12, 250
    means_n = [shift_model(k, table_small, budget=n, seed=s).mean for s in range(40)]
    means_2n = [shift_model(k, table_small, budget=2 * n, seed=1000 + s).mean
                for s in range(40)]
    ratio = np.var(means_n, ddof=1) / np.var(means_2n, ddof=1)
    assert 1.0 < ratio < 4.0


def test_sampled_moments_pinned(table):
    # Recorded from the one-window-at-a-time sampler the batched one replaced.
    for k, budget, expected in ((200, 20000, (23142247, 26782830575, 1094, 1233)),
                                (50, 2000, (376913, 71097847, 165, 208))):
        s = shift_model(k, table, budget=budget, seed=3)
        assert (s.count_sum, s.count_sq_sum, s.count_min, s.count_max) == expected
        assert s.histogram.sum() == budget and len(s.histogram) == s.count_max + 1
        assert s.histogram[s.count_min] > 0 and s.histogram[: s.count_min].sum() == 0


def test_sampled_counts_match_window_reference(table_small):
    k, budget, seed = 12, 150, 5
    ps = [int(p) for p in table_small.first(k)]
    lo0 = ps[-1] ** 2
    length = table_small.nth(k + 1) ** 2 - lo0
    period = math.prod(ps)
    counts = [window_count(lo0 + random.Random(f"{seed}:{k}:{i}").randrange(period), length, ps)
              for i in range(budget)]
    s = shift_model(k, table_small, budget=budget, seed=seed)
    assert s.count_sum == sum(counts)
    assert s.count_sq_sum == sum(c * c for c in counts)
    assert (s.count_min, s.count_max) == (min(counts), max(counts))
    assert s.histogram.tolist() == np.bincount(counts).tolist()


@pytest.mark.parametrize("budget", [100, 1000])
def test_sampled_histogram_independent_of_threads(table_small, pool_sizes, budget):
    # 100 draws are two batches, fewer than 64 per worker at 3 threads;
    # 1000 is no multiple of 64.
    runs = [shift_model(30, table_small, budget=budget, seed=7, threads=t) for t in (1, 2, 3)]
    for s in runs[1:]:
        assert s.histogram.tolist() == runs[0].histogram.tolist()
        assert (s.samples, s.mean, s.variance, s.count_sq_sum) == \
            (runs[0].samples, runs[0].mean, runs[0].variance, runs[0].count_sq_sum)
    assert pool_sizes == ([2, 2] if budget == 100 else [2, 3])
    assert no_child_left()


def test_draw_ranges_split_whole_batches():
    for draws in (2, 63, 64, 65, 100, 1000, 20000):
        for threads in (1, 2, 3, 8):
            ranges = _draw_ranges(draws, threads)
            assert [i for r in ranges for i in r] == list(range(draws))
            assert len(ranges) == min(threads, -(-draws // 64))
            assert all(r.start % 64 == 0 for r in ranges)


def test_draw_starts_match_a_generator_per_draw():
    period = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
    assert list(_draw_starts(5, 15, range(10, 80), 2209, period)) == \
        [2209 + random.Random(f"5:15:{i}").randrange(period) for i in range(10, 80)]


def test_default_budget_is_bounded(table_small, monkeypatch):
    monkeypatch.delenv("SIEVELAB_BUDGET", raising=False)
    assert build_parser().parse_args(["randmodel", "--k", "9"]).budget == DEFAULT_BUDGET
    # p_9# = 223092870 exceeds the default, so no period-sized arrays are built.
    s = shift_model(9, table_small)
    assert s.mode == "sampled" and s.samples == DEFAULT_BUDGET == 100_000


def test_sampled_memory_does_not_grow_with_budget(table_small):
    shift_model(30, table_small, budget=2, seed=0)  # builds the cached presieve pattern

    def peak(budget):
        tracemalloc.start()
        try:
            shift_model(30, table_small, budget=budget, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64_000) - peak(2_000) < 128 * 1024


def test_binomial_reference(table_small):
    b = binomial_reference(3, table_small)
    assert b.trials == 24
    assert b.success_p == pytest.approx(1 / math.log(49), rel=1e-15)
    assert b.mean == pytest.approx(24 * b.success_p, rel=1e-15)
    assert b.variance == pytest.approx(24 * b.success_p * (1 - b.success_p), rel=1e-15)
    assert float(b.sigma(b.trials)) == pytest.approx(math.sqrt(b.variance), rel=1e-15)
    assert float(b.sigma(0)) == 0.0
    curve = b.sigma(np.arange(0, b.trials + 1))
    assert np.all(np.diff(curve) >= 0)


def test_poisson_reference(table_small):
    p = poisson_reference(3, table_small)
    assert p.mean == p.variance == pytest.approx(24 / math.log(49), rel=1e-15)
    b = binomial_reference(3, table_small)
    assert p.variance > b.variance


def test_poisson_binomial_ratio_tends_to_one(table):
    for k, tol in ((10, 0.2), (1000, 0.06)):
        b = binomial_reference(k, table)
        p = poisson_reference(k, table)
        assert p.variance >= b.variance
        assert p.variance / b.variance == pytest.approx(1.0, abs=tol)


def test_variance_comparison_exhaustive(table_small):
    series = variance_comparison(range(1, 7), table_small, budget=10 ** 9, seed=0)
    cols = series.columns
    assert cols["k"].tolist() == [1, 2, 3, 4, 5, 6]
    assert np.all(cols["margin"] > 0)  # binomial stdev always larger
    assert series.metadata["violations"] == 0
    assert cols["mode"].tolist() == ["exhaustive"] * 6
    assert np.array_equal(cols["margin"], cols["binom_stdev"] - cols["model_stdev"])


def test_variance_gap_widens_on_gap6_subsequence(table, set1000):
    # Sampled margins (binomial stdev - model stdev) grow with k along g_k = 6.
    ks = [k for k in range(40, 251) if set1000.gap[k - 1] == 6]
    picks = [ks[0], ks[len(ks) // 2], ks[-1]]
    margins = []
    for k in picks:
        s = shift_model(k, table, budget=2000, seed=31)
        b = binomial_reference(k, table)
        margins.append(math.sqrt(b.variance) - math.sqrt(s.rescaled_variance))
    assert margins[0] < margins[1] < margins[2]


def test_sum_model_bounds(table_small, set200):
    mu, sigma = sum_model_bounds(9, set200, table_small)
    assert mu == pytest.approx(5 / math.log(9), rel=1e-15)
    assert sigma * sigma == pytest.approx(mu, rel=1e-15)
    for x in (100, 5000, 25_000):
        mu, sigma = sum_model_bounds(x, set200, table_small)
        assert sigma < math.sqrt(li(x))
    # Loop reference: sum of l_j / log p_{j+1}^2 for j < k plus the fractional term.
    k = set200.locate(25_000)
    recs = [set200.record(j) for j in range(1, k + 1)]
    ref = math.fsum(r.length / math.log(r.p_next ** 2) for r in recs[:-1])
    ref += (25_000 - recs[-1].p_k ** 2) / math.log(recs[-1].p_next ** 2)
    assert mu == pytest.approx(ref, rel=1e-13)


def test_conjecture_check(set200):
    series = conjecture_check(set200)
    cols = series.columns
    assert series.metadata["violations"] == 0
    assert np.all(cols["pi_minus_li"] < 0)  # pi(x) - li(x) stays negative at desk scale
    # k = 1 point: pi(9) = 4 against li(9).
    assert (cols["k"][0], cols["x"][0]) == (1, 9)
    assert cols["pi_minus_li"][0] == pytest.approx(4 - li(9), rel=1e-12)
    assert abs(cols["pi_minus_li"][0]) < math.sqrt(li(9))
    assert cols["sqrt_li"][0] == pytest.approx(math.sqrt(li(9)), rel=1e-12)
