import math
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sievelab import (
    DomainError,
    MoebiusContext,
    ResourceError,
    Window,
    big_r,
    count_coprime_direct,
    count_coprime_legendre,
    expected_legendre,
    expected_legendre_truncated,
    first_appearance_positions,
    legendre_scan,
    legendre_term_count,
    primorial,
    rho,
    shifted_window,
    theoretical_first_positions,
    truncated_moebius_sum,
)
from sievelab import residue_legendre, sieve_core
from sievelab.residue_legendre import (_MOBIUS_BLOCK, _SUM_LEAF, _mobius_array, _pairwise_sum,
                                       _squarefree_products)
from sievelab.sieve_core import _prime_list

from _oracles import (
    context_term_count,
    context_truncated_sum,
    count_squarefree_products,
    dfs_moebius_sum,
    fraction_truncated_moebius,
    mark_primality,
    mobius_array,
    subset_legendre_count,
    totient_of_primorial,
)
from conftest import no_child_left


def test_rho_values(table_small):
    assert rho(3, 25, table_small) == 5
    assert rho(1, 7, table_small) == 1
    assert rho(2, 36, table_small) == 3


def test_rho_periodicity(table_small):
    rng = random.Random(5)
    for _ in range(50):
        i = rng.randint(1, 10)
        n = rng.randint(1, 10_000)
        m = rng.randint(1, 50)
        p = table_small.nth(i)
        assert rho(i, n + m * p, table_small) == rho(i, n, table_small)


def test_big_r_values(table_small):
    assert big_r(3, 30, table_small) == 30
    assert big_r(3, 29, table_small) == 1
    assert big_r(3, 36, table_small) == 6


def test_big_r_coprimality_and_period(table_small):
    rng = random.Random(6)
    for _ in range(50):
        k = rng.randint(1, 6)
        n = rng.randint(1, 5_000)
        period = primorial(k, table_small).value
        r = big_r(k, n, table_small)
        assert (r == 1) == (math.gcd(n, period) == 1)
        assert big_r(k, n + period, table_small) == r


def test_primorials(table_small):
    assert primorial(1, table_small).value == 2
    assert primorial(2, table_small).value == 6
    assert primorial(3, table_small).value == 30
    assert primorial(15, table_small).value == 614889782588491410


def test_count_coprime_direct(table_small):
    assert count_coprime_direct(Window(25, 48), 3, table_small).count == 6
    assert count_coprime_direct(Window(1, 30), 3, table_small).count == 8
    base = count_coprime_direct(shifted_window(3, 0, table_small), 3, table_small)
    shifted = count_coprime_direct(shifted_window(3, 0 + 30 - 30, table_small), 3, table_small)
    assert base.count == shifted.count == 6
    assert base.method == "direct" and base.terms_evaluated == 0
    # lo = 1 (coprime to every prime, below sieve_window's domain) and k = 0.
    for k in range(5):
        ps = table_small.first(k).tolist()
        for lo in (1, 2, 3):
            for hi in range(lo, 40):
                expected = sum(all(n % p for p in ps) for n in range(lo, hi + 1))
                assert count_coprime_direct(Window(lo, hi), k, table_small).count == expected


def test_count_coprime_direct_huge_shift(table_small):
    # Shift by a multiple of the period far beyond 64-bit range.
    k = 6
    period = primorial(k, table_small).value
    w0 = shifted_window(k, 17, table_small)
    big_lo = w0.lo + period * (10 ** 30)
    w_big = Window(big_lo, big_lo + w0.length - 1)
    assert (count_coprime_direct(w_big, k, table_small).count
            == count_coprime_direct(w0, k, table_small).count)


def test_shifted_window_validation(table_small):
    with pytest.raises(DomainError):
        shifted_window(3, 30, table_small)
    with pytest.raises(DomainError):
        shifted_window(3, -1, table_small)


def test_legendre_matches_direct_and_oracle(table_small):
    cc = count_coprime_legendre(Window(25, 48), 3, table_small)
    assert cc.count == 6
    assert cc.terms_evaluated == 8  # all divisors of 30 are <= 48
    assert cc.method == "legendre_full"
    assert count_coprime_legendre(Window(1, 30), 3, table_small).count == 8
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 10)
        lo = rng.randint(2, 100_000)
        hi = lo + rng.randint(0, 5_000)
        w = Window(lo, hi)
        got = count_coprime_legendre(w, k, table_small).count
        ps = [int(p) for p in table_small.first(k)]
        assert got == subset_legendre_count(lo, hi, ps)
        assert got == count_coprime_direct(w, k, table_small).count


def test_truncation_at_next_square_is_noop(table_small):
    # Dropped terms all exceed hi, so the exact floor form is unchanged.
    w = shifted_window(8, 0, table_small)
    bound = table_small.nth(9) ** 2
    full = count_coprime_legendre(w, 8, table_small)
    trunc = count_coprime_legendre(w, 8, table_small, truncate_below=bound)
    assert trunc.count == full.count
    assert trunc.method == "legendre_truncated"
    assert trunc.terms_evaluated <= full.terms_evaluated


def test_legendre_term_cap(table_small):
    with pytest.raises(ResourceError):
        count_coprime_legendre(Window(2, 10 ** 9), 25, table_small, term_cap=1000)


def test_expected_legendre(table_small):
    assert expected_legendre(24, 3, table_small) == pytest.approx(6.4, rel=1e-14)
    assert expected_legendre(30, 3, table_small) == pytest.approx(8.0, rel=1e-14)
    assert expected_legendre(1, 1, table_small) == 0.5


def test_truncated_moebius_sum_against_fractions(table_small):
    for k in (1, 3, 5, 8, 12):
        bound = table_small.nth(k + 1) ** 2
        ps = [int(p) for p in table_small.first(k)]
        ref = float(fraction_truncated_moebius(ps, bound))
        assert truncated_moebius_sum(k, table_small, bound) == pytest.approx(ref, rel=1e-13)


def test_truncated_sum_fast_path_matches_dfs(table):
    # k = 30: the context's decomposition against exact rationals.
    k = 30
    bound = table.nth(k + 1) ** 2
    ps = [int(p) for p in table.first(k)]
    ref = float(fraction_truncated_moebius(ps, bound))
    ctx = MoebiusContext(bound - 1, table)
    assert ctx.truncated_sum(k, bound, table) == pytest.approx(ref, rel=1e-11)
    assert expected_legendre_truncated(100, k, table, context=ctx) == pytest.approx(
        100 * ref, rel=1e-11)


def test_legendre_term_count(table_small, table):
    assert legendre_term_count(3, table_small, None) == 8
    assert legendre_term_count(3, table_small, 49) == 8
    for k in (10, 20):
        bound = table_small.nth(k + 1) ** 2
        ps = [int(p) for p in table_small.first(k)]
        assert legendre_term_count(k, table_small, bound) == count_squarefree_products(ps, bound)
    # k = 45 is beyond 25 primes, but its bound, below 2^20, is enumerated too.
    k = 45
    bound = table.nth(k + 1) ** 2
    ps = [int(p) for p in table.first(k)]
    assert legendre_term_count(k, table, bound) == count_squarefree_products(ps, bound)


@pytest.mark.parametrize("k", [26, 40, 41, 50])
def test_term_count_small_bounds_beyond_enumeration_limit(table, k):
    # Every bound here is at most 2^20, so these counts are enumerated; the
    # context's small-bound counts are checked against the per-prime reference.
    ps = [int(p) for p in table.first(k)]
    for bound in (2, 3, 4, 5, 6, 1000, table.nth(k + 1) ** 2):
        assert legendre_term_count(k, table, bound) == count_squarefree_products(ps, bound)


def test_term_count_guard(table_small):
    with pytest.raises(ResourceError):
        legendre_term_count(24, table_small, 10 ** 9, term_cap=10_000)
    # The cap is inclusive: exactly term_cap terms are allowed.
    n = legendre_term_count(10, table_small, 10 ** 4)
    assert legendre_term_count(10, table_small, 10 ** 4, term_cap=n) == n
    with pytest.raises(ResourceError):
        legendre_term_count(10, table_small, 10 ** 4, term_cap=n - 1)


def test_shift_periodicity(table_small):
    rng = random.Random(11)
    for k in range(1, 7):
        period = primorial(k, table_small).value
        for _ in range(3):
            j = rng.randrange(period)
            w = shifted_window(k, j, table_small)
            moved = Window(w.lo + period, w.hi + period)
            assert (count_coprime_direct(w, k, table_small).count
                    == count_coprime_direct(moved, k, table_small).count)


def test_full_period_mean_is_exact(table_small):
    # Totient averaging in exact integers for k <= 5.
    for k in range(1, 6):
        period = primorial(k, table_small).value
        length = table_small.nth(k + 1) ** 2 - table_small.nth(k) ** 2
        total = sum(count_coprime_direct(shifted_window(k, j, table_small), k, table_small).count
                    for j in range(period))
        phi = totient_of_primorial(int(p) for p in table_small.first(k))
        assert total == length * phi
        assert Fraction(total, period) == Fraction(length) * Fraction(phi, period)


def test_first_appearance_positions(table):
    ks = range(1, 40)
    assert first_appearance_positions(3, table, ks) == {2, 5}
    assert first_appearance_positions(4, table, ks) == {4, 6, 7}
    assert first_appearance_positions(5, table, ks) == {3, 7, 8, 9, 11}
    assert first_appearance_positions(6, table, ks) == {2, 4, 5, 10, 11, 13}


def test_first_appearance_within_theoretical(table):
    for i in range(1, 13):
        observed = first_appearance_positions(i, table, range(1, 80))
        assert observed <= theoretical_first_positions(i, table)


def test_legendre_scan_columns(table):
    cols = legendre_scan(1, 30, table).columns
    assert list(cols) == ["k", "length", "ratio_full", "ratio_truncated", "pi_ratio", "terms"]
    assert cols["k"].tolist() == list(range(1, 31))
    assert cols["pi_ratio"][2] == pytest.approx(6 / (24 / math.log(49)), rel=1e-13)
    assert cols["length"][2] == 24
    for k in (5, 12, 25):
        bound = table.nth(k + 1) ** 2
        ps = [int(p) for p in table.first(k)]
        assert cols["terms"][k - 1] == count_squarefree_products(ps, bound)
        ref = float(fraction_truncated_moebius(ps, bound))
        assert cols["ratio_truncated"][k - 1] == pytest.approx(ref * math.log(bound), rel=1e-12)
        assert cols["ratio_full"][k - 1] > cols["ratio_truncated"][k - 1] > 0


def test_bound_one_has_no_terms(table_small):
    # No d < 1 exists, so every truncated form is empty.
    assert truncated_moebius_sum(3, table_small, bound=1) == 0.0
    assert expected_legendre_truncated(10, 3, table_small, bound=1) == 0.0
    assert legendre_term_count(3, table_small, 1) == 0
    cc = count_coprime_legendre(Window(25, 48), 3, table_small, truncate_below=1)
    assert (cc.count, cc.terms_evaluated) == (0, 0)


def test_truncated_sum_term_cap(table_small):
    # 2^25 squarefree divisors of p_25# lie below 2^200.
    with pytest.raises(ResourceError):
        truncated_moebius_sum(25, table_small, bound=2 ** 200)


@pytest.mark.parametrize("k, limit", [(0, 5), (1, 1), (6, 29), (8, 1000),
                                      (12, 10 ** 6), (12, 2 ** 63 - 1), (12, 2 ** 63)])
def test_squarefree_products_in_depth_first_order(table_small, k, limit):
    # Lexicographic order of prime-index tuples is the depth-first preorder.
    ps = [int(p) for p in table_small.first(k)]
    subsets = sorted(c for r in range(k + 1) for c in combinations(range(k), r)
                     if math.prod(ps[i] for i in c) <= limit)
    d, mu, top = _squarefree_products(ps, limit)
    assert d.tolist() == [math.prod(ps[i] for i in c) for c in subsets]
    assert mu.tolist() == [(-1) ** len(c) for c in subsets]
    assert top.tolist() == [max(c) + 1 if c else 0 for c in subsets]
    assert d.dtype == (object if limit >= 2 ** 63 else np.int64)
    assert len(d) == count_squarefree_products(ps, limit + 1)


@pytest.mark.parametrize("lo", [2 ** 63 - 500, 2 ** 64 + 1, 3 ** 70])
def test_legendre_beyond_int64(table_small, lo):
    for k in (1, 7, 12):
        ps = [int(p) for p in table_small.first(k)]
        w = Window(lo, lo + 2 * 3 * 5 * 7 * 11)
        full = count_coprime_legendre(w, k, table_small)
        assert full.count == subset_legendre_count(w.lo, w.hi, ps)
        assert full.count == count_coprime_direct(w, k, table_small).count
        assert full.terms_evaluated == 2 ** k
        trunc = count_coprime_legendre(w, k, table_small, truncate_below=10 ** 6)
        assert trunc.terms_evaluated == count_squarefree_products(ps, 10 ** 6)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 171), frac=st.floats(0, 1))
@example(k=25, frac=1.0)
@example(k=171, frac=1.0)
@example(k=1, frac=0.0)
def test_truncated_sum_equals_depth_first_reference(table, k, frac):
    # Bounds up to p_{k+1}^2 <= 1021^2 < 2^20 are all enumerated; the sum
    # must match the depth-first float sum bit for bit.
    top = table.nth(k + 1) ** 2
    bound = 2 + int(frac * (top - 2))
    ps = [int(p) for p in table.first(k)]
    assert truncated_moebius_sum(k, table, bound) == dfs_moebius_sum(ps, bound)[0]


@pytest.mark.parametrize("limit", [4, 5, 49, 10_007, 65_536])
def test_moebius_context_primes(table_small, limit):
    base = table_small.primes[: table_small.count_upto(math.isqrt(limit))]
    ctx = MoebiusContext(limit, table_small)
    assert ctx.primes.dtype == np.int32
    assert ctx.primes.tolist() == np.flatnonzero(mark_primality(0, limit, base)).tolist()
    assert ctx.primes.base is None  # owns exactly its primes, no reserved tail


@pytest.fixture(scope="module")
def ctx300(table):
    return MoebiusContext(table.nth(301) ** 2 - 1, table)


def _assert_matches_per_prime_reference(ctx, k, bound, table):
    # The lattice grouping must reproduce the per-prime float sum bit for bit.
    assert ctx.truncated_sum(k, bound, table) == context_truncated_sum(ctx, k, bound, table)
    assert ctx.term_count(k, bound, table) == context_term_count(ctx, k, bound, table)


def test_context_sums_match_per_prime_reference(table, ctx300):
    ks = range(26, 301)
    for k in ks:
        _assert_matches_per_prime_reference(ctx300, k, table.nth(k + 1) ** 2, table)
    with pytest.raises(DomainError):
        ctx300.term_count(400, table.nth(401) ** 2, table)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(26, 300), frac=st.floats(0, 1))
@example(k=26, frac=0.0)
@example(k=300, frac=1.0)
def test_context_sums_match_per_prime_reference_at_any_bound(table, ctx300, k, frac):
    top = table.nth(k + 1) ** 2
    _assert_matches_per_prime_reference(ctx300, k, 2 + int(frac * (top - 2)), table)


@pytest.mark.parametrize("k", [26, 100, 171, 172, 300])
def test_one_rule_for_sums_and_counts(table, ctx300, k):
    # The context serves exactly the bounds in (2^20, p_{k+1}^2]; every other
    # bound is enumerated, in depth-first order, for sums and counts alike.
    ps = [int(p) for p in table.first(k)]
    top = table.nth(k + 1) ** 2
    for bound in [2, 5, 1 << 20, (1 << 20) + 1, top] + ([top + 1] if k in (26, 172) else []):
        count = legendre_term_count(k, table, bound, context=ctx300)
        assert count == count_squarefree_products(ps, bound), bound
        got = truncated_moebius_sum(k, table, bound, context=ctx300)
        if 1 << 20 < bound <= top:
            assert got == context_truncated_sum(ctx300, k, bound, table), bound
        else:
            assert got == dfs_moebius_sum(ps, bound)[0], bound
    # Above p_{k+1}^2 the enumeration's term cap applies, not the context's domain.
    with pytest.raises(ResourceError):
        truncated_moebius_sum(k, table, bound=1 << 62)


def _assert_mobius_matches_reference(table, limit):
    # The context passes int32 primes; int64 and float64 lists give the same mu.
    base = table.primes[: table.count_upto(math.isqrt(limit))]
    expected = mobius_array(limit, base)
    for dtype in (np.int32, np.int64, np.float64):
        got = _mobius_array(limit, _prime_list(0, limit + 1, base, dtype))
        assert got.dtype == np.int8
        assert np.array_equal(got, expected), (limit, dtype)


# Fixed limits around 2^19, then each block edge +-1 up to three blocks.
@pytest.mark.parametrize("limit", [4, (1 << 19) - 1, 1 << 19, (1 << 19) + 1, 3 * (1 << 19) + 7]
                         + [b * _MOBIUS_BLOCK + e for b in (1, 2, 3) for e in (-1, 0, 1)])
def test_blocked_mobius_array_matches_reference(table, limit):
    base = table.primes[: table.count_upto(math.isqrt(limit))]
    got = _mobius_array(limit, _prime_list(0, limit + 1, base))
    assert got.dtype == np.int8
    assert np.array_equal(got, mobius_array(limit, base))


def test_mobius_array_every_small_limit(table):
    for limit in range(4, 301):
        _assert_mobius_matches_reference(table, limit)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 127, 1021, 1031, 1259])
def test_mobius_array_at_prime_squares(table, p):
    # p^2 - 1 puts the prime p at isqrt(limit) + 1, the first prime phase 2
    # writes; (p - 1)^2 is the smallest limit with the same root.
    for limit in (max(4, (p - 1) ** 2), p * p - 1, p * p):
        _assert_mobius_matches_reference(table, limit)


@settings(max_examples=10, deadline=None)
@given(limit=st.integers(4, 3 * _MOBIUS_BLOCK))
def test_mobius_array_property(table, limit):
    _assert_mobius_matches_reference(table, limit)


@pytest.mark.parametrize("limit", [48, 120, 168])
def test_context_small_mobius_when_root_plus_one_is_prime(table_small, limit):
    # isqrt(limit) + 1 is 7, 11 and 13: mu_small reaches that prime itself.
    ctx = MoebiusContext(limit, table_small)
    root = math.isqrt(limit)
    base = table_small.primes[: table_small.count_upto(math.isqrt(root + 1))]
    assert np.array_equal(ctx._mu_small, mobius_array(root + 1, base))


@pytest.mark.parametrize("k_from, k_to", [(1, 171), (20, 40), (150, 180), (171, 172), (172, 175)])
def test_legendre_scan_rows_equal_per_k_calls(table, k_from, k_to):
    # One enumeration serves every depth-first row (k <= 171, where p_{k+1}^2
    # <= 2^20).
    ctx = MoebiusContext(table.nth(k_to + 1) ** 2 - 1, table)
    cols = legendre_scan(k_from, k_to, table).columns
    assert cols["k"].tolist() == list(range(k_from, k_to + 1))
    for k, ratio, terms in zip(*(cols[n].tolist() for n in ("k", "ratio_truncated", "terms"))):
        bound = table.nth(k + 1) ** 2
        assert ratio == truncated_moebius_sum(k, table, context=ctx) * math.log(bound)
        assert terms == legendre_term_count(k, table, bound, context=ctx)


@pytest.mark.parametrize("k_from, k_to", [(1, 240), (180, 230)])
def test_legendre_scan_columns_independent_of_threads(table, monkeypatch, pool_sizes,
                                                      k_from, k_to):
    # (1, 240) crosses the 171/172 seam between enumerated and context rows;
    # (180, 230) starts inside the context. Only the parent reads M's grid.
    parent, real_m_full = os.getpid(), MoebiusContext.m_full

    def m_full_in_parent(self, y):
        assert os.getpid() == parent, "a worker read M's grid"
        return real_m_full(self, y)

    monkeypatch.setattr(MoebiusContext, "m_full", m_full_in_parent)
    one = legendre_scan(k_from, k_to, table).columns
    two = legendre_scan(k_from, k_to, table, threads=2).columns
    assert one.keys() == two.keys()
    for name in one:
        assert one[name].dtype == two[name].dtype
        assert one[name].tobytes() == two[name].tobytes(), name
    assert pool_sizes == [2]
    assert sieve_core._shared is None
    assert no_child_left()


def test_legendre_scan_row_depends_on_k_alone(table):
    # M(y) is summed on one grid of interval ends, so neither the scan's
    # first k nor its last nor the thread count moves the bits of a row.
    full = legendre_scan(1, 300, table).columns

    def same_rows(part, k_from):
        n = len(part.columns["k"])
        return all(np.array_equal(col, full[name][k_from - 1 : k_from - 1 + n])
                   for name, col in part.columns.items())

    assert same_rows(legendre_scan(1, 300, table, threads=2), 1)
    for threads in (1, 2):
        for k in (179, 193, 200, 270, 300):
            assert same_rows(legendre_scan(k, k, table, threads=threads), k), (k, threads)
        assert same_rows(legendre_scan(172, 300, table, threads=threads), 172), threads


# y on the grid (p_j^2 - 1, j >= 27, from 10608) and off it: below the first
# end, beside an end, between ends and at the limit, which is not an end.
_M_LIMIT = 547 ** 2 + 1000
_M_YS = [0, 1, 2, 5000, 10607, 10608, 10609, 11000, 107 ** 2 - 1, 200_000,
         547 ** 2 - 1, 547 ** 2, _M_LIMIT]


@pytest.fixture(scope="module")
def m_reference(table):
    mu = mobius_array(_M_LIMIT, table.primes[: table.count_upto(math.isqrt(_M_LIMIT))])
    terms = (mu / np.maximum(np.arange(_M_LIMIT + 1), 1)).tolist()
    return {y: math.fsum(terms[: y + 1]) for y in _M_YS}


# The default chunk, and one small enough that segments and tails span several.
@pytest.mark.parametrize("chunk", [residue_legendre._M_CHUNK, 4099])
def test_m_full_against_exact_sum(table, m_reference, monkeypatch, chunk):
    # The partial sums run through values up to M(1) = 1, so the float sum's
    # rounding is bounded in units of ulp(1) = 2^-52, not of ulp(M(y)); at
    # these y it stays near one such unit.
    monkeypatch.setattr(residue_legendre, "_M_CHUNK", chunk)
    ascending, descending = MoebiusContext(_M_LIMIT, table), MoebiusContext(_M_LIMIT, table)
    up = [ascending.m_full(y) for y in _M_YS]
    down = [descending.m_full(y) for y in reversed(_M_YS)][::-1]
    assert up == down  # bit for bit: M(y) does not depend on the query order
    for y, got in zip(_M_YS, up):
        assert abs(got - m_reference[y]) <= 4 * 2.0 ** -52, y
    for y in (-1, _M_LIMIT + 1):
        with pytest.raises(DomainError):
            ascending.m_full(y)


def _chunked_m_reference(mu, ends: list, y: int, chunk: int) -> float:
    """M(y) with the context's float operations, over one full reference mu array."""
    cuts = [g for g in ends if g < y] + [y]
    acc = 0.0
    for g0, g1 in zip(cuts, cuts[1:]):
        for pos in range(g0 + 1, g1 + 1, chunk):
            seg = mu[pos : min(g1, pos + chunk - 1) + 1].astype(np.float64)
            seg /= np.arange(pos, pos + len(seg), dtype=np.float64)
            acc += float(np.sum(seg))
    return acc


# Blocks of about 4099 integers: with 1000-integer pieces a block holds four
# whole pieces, so its seams fall inside grid segments near 547^2 (about
# 6000 long) and inside off-grid tails (from 541^2 for the 296779..296781
# trio); with the default chunk each such segment is one piece, longer than
# a block, and so a block of its own.
@pytest.mark.parametrize("chunk", [residue_legendre._M_CHUNK, 1000])
def test_m_full_across_block_seams(table, monkeypatch, chunk):
    monkeypatch.setattr(residue_legendre, "_MOBIUS_BLOCK", 4099)
    monkeypatch.setattr(residue_legendre, "_M_CHUNK", chunk)
    ctx = MoebiusContext(_M_LIMIT, table)
    mu = mobius_array(_M_LIMIT, table.primes[: table.count_upto(math.isqrt(_M_LIMIT))])
    ends = [0] + [p * p - 1 for p in table.primes[26:].tolist() if p * p - 1 <= _M_LIMIT]
    on_grid = [10608, 107 ** 2 - 1, 541 ** 2 - 1, 547 ** 2 - 1]
    beside_seams = [4099, 4100, 4101, 8198, 8199, 541 ** 2 - 1 + 4099, 541 ** 2 + 4099,
                    541 ** 2 + 4100]
    for y in [*on_grid, *beside_seams, _M_LIMIT - 1, _M_LIMIT]:
        assert ctx.m_full(y) == _chunked_m_reference(mu, ends, y, chunk), y


def test_m_full_holds_no_full_range_array(table):
    # The grid pass streams mu one block at a time: its traced peak is a
    # block, a piece's floats and their index arrays, not mu over [0, limit]
    # (19.5 MB of int8 at this limit).
    limit = table.nth(601) ** 2 - 1
    ctx = MoebiusContext(limit, table)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ctx.m_full(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit // 4, peak

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    held = [a.size for value in vars(ctx).values() for a in arrays(value)]
    assert max(held) <= len(ctx.primes)


# Around numpy's 128-term block, the leaf size and a few leaves, and 10^6.
@pytest.mark.parametrize("n", [*range(10), 127, 128, 129, _SUM_LEAF - 1, _SUM_LEAF,
                               _SUM_LEAF + 1, 3 * _SUM_LEAF + 5, 10 ** 6])
def test_pairwise_sum_equals_np_sum(n):
    # truncated_sum's leaf-and-tree sum must be np.sum bit for bit: this pins
    # numpy's pairwise rule (split at n//2 - (n//2) % 8 above 128 terms), so a
    # numpy that changes it fails here before any digest moves.
    rng = np.random.default_rng(n)
    terms = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
    leaves = []

    def leaf(lo, size):
        leaves.append(size)
        return terms[lo : lo + size]

    assert _pairwise_sum(leaf, 0, n) == np.sum(terms)
    assert sum(leaves) == n and max(leaves) <= _SUM_LEAF


def test_truncated_sum_holds_no_term_array(table):
    # With M(y) on the grid warm, a truncated sum fills the context's one leaf
    # buffer and allocates only a few int64 and float64 arrays over its
    # lattice of p_{k+1} - 1 points, with no array per prime q: from k = 300
    # to 600 the q go from 0.28M to 1.24M (7.7 MB more as float64), the
    # lattice points from 1992 to 4420.
    ctx = MoebiusContext(table.nth(601) ** 2 - 1, table)
    ctx.m_full(ctx.limit)
    peaks = {}
    for k in (300, 600):
        tracemalloc.start()
        try:
            ctx.truncated_sum(k, table.nth(k + 1) ** 2, table)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[600] <= 1 << 20, peaks
    assert peaks[600] - peaks[300] <= 64 * (table.nth(601) - table.nth(301)), peaks


def test_context_searches_copy_no_prime_list(table, ctx300):
    # Each binary search on the int32 prime list casts its needle to int32:
    # numpy copies the whole list for a needle of another dtype, a Python int
    # among them, which is twice the list's bytes as int64.
    k, bound = 300, table.nth(301) ** 2
    lo, hi = (table.primes[i : 300 + i] ** 2 for i in (0, 1))
    ctx300.sum_grid()
    y = ctx300._grid_ends[-2] + 1000  # off the grid: M sieves a short tail
    calls = {"_lattice": lambda: ctx300._lattice(k, bound, table),
             "prime_sum": lambda: ctx300.prime_sum(k, bound, table),
             "term_count": lambda: ctx300.term_count(k, bound, table),
             "m_full": lambda: ctx300.m_full(y),
             "prime_count": lambda: ctx300.prime_count(lo, hi)}
    for name, call in calls.items():
        ctx300._last_lattice = (None, None)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ctx300.primes.nbytes // 4, (name, peak)


def test_legendre_scan_sums_m_grid_on_the_pool(table, monkeypatch, tmp_path):
    # With the pool open the workers sieve every mu block of M's grid and the
    # parent only adds their piece sums in order: its grid is a serial
    # context's bit for bit, and it sieves no block while the pool is open.
    parent, log, contexts = os.getpid(), tmp_path / "blocks", []
    real_block, real_sum_grid = residue_legendre._mobius_block, MoebiusContext.sum_grid

    def logged_block(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {sieve_core._shared is not None}\n")
        return real_block(*args)

    def kept_sum_grid(self, imap=None):
        contexts.append(self)
        return real_sum_grid(self, imap)

    monkeypatch.setattr(residue_legendre, "_mobius_block", logged_block)
    monkeypatch.setattr(MoebiusContext, "sum_grid", kept_sum_grid)
    legendre_scan(180, 230, table, threads=2)
    (pooled,) = contexts
    serial = MoebiusContext(pooled.limit, table)
    serial.m_full(serial.limit)
    assert pooled._grid_ends == serial._grid_ends
    assert pooled._grid_m == serial._grid_m
    blocks = [(int(pid), pool_open == "True")
              for pid, pool_open in map(str.split, log.read_text().splitlines())]
    assert (parent, True) not in blocks
    assert {pid for pid, pool_open in blocks if pool_open} - {parent}


@pytest.mark.parametrize("k_to", [25, 200])
def test_legendre_scan_pi_k_from_context(table, set200, k_to):
    # pi_k, counted on the context's primes, is the interval scan's count.
    cols = legendre_scan(1, k_to, table).columns
    for k, pi_ratio, length in zip(*(cols[n].tolist() for n in ("k", "pi_ratio", "length"))):
        log_hi = math.log(table.nth(k + 1) ** 2)
        assert round(pi_ratio * length / log_hi) == set200.pi_k[k - 1], k


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 12),
       lo=st.one_of(st.integers(1, 10 ** 7), st.integers(2 ** 63 - 10 ** 4, 2 ** 64 + 10 ** 4),
                    st.integers(2 ** 64, 3 ** 70)),
       length=st.integers(1, 3000))
@example(k=12, lo=2 ** 63 - 1, length=2)
def test_direct_count_equals_legendre_count(table_small, k, lo, length):
    w = Window(lo, lo + length - 1)
    assert (count_coprime_direct(w, k, table_small).count
            == count_coprime_legendre(w, k, table_small).count)
