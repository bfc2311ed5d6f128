import ctypes
import functools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sievelab import (
    DomainError,
    ResourceError,
    build_intervals,
    build_prime_table,
    count_primes_upto,
    legendre_scan,
    sieve_window,
)

from sievelab import randmodel, sieve_core
from sievelab.residue_legendre import MoebiusContext
from sievelab.sieve_core import (_COPRIME_BATCH, _INT64_MAX, _INVERSE, _PRESIEVE_PRIMES, _RESIDUES,
                                 _check_coprime_starts, _chunk_digits, _coprime_counts,
                                 _digit_width, _fill_rotated, _icbrt, _pi_from,
                                 _prefix_counts, _presieve_pattern, _prime_count_bound,
                                 _prime_list, _primes_below, _rotated_rows, _semiprime_lookup,
                                 _semiprimes_below, _strike_limit, _strike_offsets,
                                 _wheel_pattern, _wheel_rows)

from _oracles import (coprime_survivors, lucy_pi, mark_primality, odd_primality, trial_primes,
                      window_count)
from conftest import no_child_left

# Base primes up to 4000 cover every window below 1.6e7.
_BASE = build_prime_table(4000).primes
_PERIOD = 3 * 5 * 7 * 11 * 13 * 17
_WHEEL_PERIOD = 7 * 11 * 13 * 17  # rows of the wheel presieve


def test_build_prime_table_small():
    assert list(build_prime_table(10).primes) == [2, 3, 5, 7]
    assert list(build_prime_table(2).primes) == [2]


def test_build_prime_table_100_against_trial_division():
    t = build_prime_table(100)
    assert len(t.primes) == 25
    assert t.primes[-1] == 97
    assert list(t.primes) == trial_primes(100)


def test_build_prime_table_at_every_small_bound():
    # 19^2 = 361 is the least composite the wheel's presieve leaves, so
    # the base primes must include 19 from there on.
    ref = trial_primes(1000)
    for bound in range(2, 1001):
        t = build_prime_table(bound)
        assert t.primes.tolist() == [p for p in ref if p <= bound]
    assert t.primes.dtype == np.int64 and not t.primes.flags.writeable


def test_prime_table_invariants(table_small):
    ps = table_small.primes
    assert ps[0] == 2
    assert np.all(np.diff(ps) > 0)
    assert list(ps) == trial_primes(2000)


def test_prime_table_one_based_indexing(table_small):
    assert table_small.nth(1) == 2
    assert table_small.nth(2) == 3
    assert table_small.nth(3) == 5


def test_build_prime_table_errors():
    with pytest.raises(DomainError):
        build_prime_table(1)
    with pytest.raises(ResourceError):
        build_prime_table(10_000_000, memory_budget=1024)


def test_sieve_window_interval_s3(table_small):
    w = sieve_window(25, 48, table_small.first(3))
    assert list(w.survivors()) == [29, 31, 37, 41, 43, 47]
    assert w.count() == 6


def test_sieve_window_trivial_cases(table_small):
    assert sieve_window(4, 4, table_small.first(1)).count() == 0
    w = sieve_window(9, 24, table_small.first(2))
    assert list(w.survivors()) == [11, 13, 17, 19, 23]


def test_sieve_window_marks_the_primes_themselves(table_small):
    # Coprimality semantics: 2 and 3 are struck by their own multiples.
    w = sieve_window(2, 10, table_small.first(2))
    assert list(w.survivors()) == [5, 7]


def test_sieve_window_matches_gcd_brute_force(table_small):
    rng = random.Random(1234)
    for _ in range(60):
        k = rng.randint(1, 8)
        lo = rng.randint(2, 10_000)
        hi = lo + rng.randint(0, 2_000)
        primes = [int(p) for p in table_small.first(k)]
        w = sieve_window(lo, hi, primes)
        assert list(w.survivors()) == coprime_survivors(lo, hi, primes)


def test_sieve_window_errors(table_small):
    with pytest.raises(DomainError):
        sieve_window(1, 10, table_small.first(2))
    with pytest.raises(DomainError):
        sieve_window(10, 4, table_small.first(2))
    with pytest.raises(DomainError):
        sieve_window(4, 10, [])
    with pytest.raises(ResourceError):
        sieve_window(2, 10_000_000, table_small.first(2), memory_budget=1024)


def test_count_primes_upto_examples(table_small):
    assert count_primes_upto(10, table_small) == 4
    assert count_primes_upto(100, table_small) == 25
    assert count_primes_upto(2, table_small) == 1


def test_lucy_pi_oracle_matches_sympy():
    for x in [*range(0, 120), 9_999, 10_000, 99_991, 1_000_000, 25_326_001]:
        assert lucy_pi(x) == sympy.primepi(x), x


def test_count_primes_upto_segmented_matches_sympy():
    t = build_prime_table(1100)  # forces segmentation beyond the table bound
    for x in (10_000, 99_991, 1_000_000):
        assert count_primes_upto(x, t) == sympy.primepi(x)


def test_count_primes_self_consistency(table_small):
    for k in (1, 2, 10, 100, len(table_small)):
        assert count_primes_upto(table_small.nth(k), table_small) == k


def test_count_primes_upto_errors(table_small):
    with pytest.raises(DomainError):
        count_primes_upto(1, table_small)
    with pytest.raises(DomainError):
        count_primes_upto(table_small.bound ** 2 + 1, table_small)


def test_nth_prime(table):
    assert table.nth(1) == 2
    assert table.nth(3) == 5
    assert table.nth(500) == 3571
    with pytest.raises(DomainError):
        table.nth(0)
    with pytest.raises(DomainError):
        table.nth(len(table) + 1)


def test_prime_table_is_read_only(table_small):
    with pytest.raises(ValueError):
        table_small.primes[0] = 9


def _reference_primes(lo, hi, base):
    """The primes of [lo, hi] from the plain sieve and from the former odds-only kernel."""
    plain = np.flatnonzero(mark_primality(lo, hi, base)) + lo
    first, flags = odd_primality(lo, hi, base)
    odd = first + 2 * np.flatnonzero(flags)
    return plain, np.concatenate(([2], odd)) if lo <= 2 <= hi else odd


def _check_prime_list(lo, hi, base=_BASE):
    """``_prime_list`` of [lo, hi + 1) against both references."""
    got = _prime_list(lo, hi + 1, base)
    assert got.dtype == np.int64
    for reference in _reference_primes(lo, hi, base):
        assert np.array_equal(got, reference), (lo, hi)


@settings(max_examples=300, deadline=None)
@given(
    lo=st.one_of(st.sampled_from([0, 1, 2, 3, 4]), st.integers(0, 40),
                 st.integers(0, 8_000_000)),
    length=st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 5000),
                     st.integers(_PERIOD - 10, 3 * _PERIOD),
                     st.integers(2_097_142, 7_340_032)),
)
@example(lo=2, length=1)
@example(lo=3, length=1)
@example(lo=4, length=1)
@example(lo=2, length=16)     # every presieve prime, even lo
@example(lo=3, length=15)     # every presieve prime, odd lo
@example(lo=17, length=1)
@example(lo=2 * _PERIOD - 1, length=2 * _PERIOD + 7)  # pattern wrap-around
@example(lo=2 * _WHEEL_PERIOD - 1, length=2 * _WHEEL_PERIOD + 7)
@example(lo=1_000_001, length=6_291_459)
def test_prime_list_matches_reference(lo, length):
    _check_prime_list(lo, lo + length - 1)


def _traced_prime_list(lo, end, base):
    """``_prime_list(lo, end, base)`` and the peak bytes that tracemalloc saw during it."""
    tracemalloc.start()
    try:
        primes = _prime_list(lo, end, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return primes, peak


def test_prime_list_holds_one_list():
    # The primes of [0, p_601^2) (MoebiusContext's list at legendre --kmax 600)
    # go straight into one reserved array, shrunk in place to the primes
    # found, so the peak is that array and one row block, not rows, a join
    # and a sort, and the list keeps no unused tail of the reservation.
    primes, peak = _traced_prime_list(0, 4421 ** 2, build_prime_table(4421).primes)  # p_601
    assert len(primes) == 1_243_513 and primes[-1] == 19_545_203  # sympy's primepi, prevprime
    assert peak <= 1.6 * primes.nbytes, peak / primes.nbytes
    assert primes.base is None  # its buffer is exactly len * itemsize bytes


def test_prime_list_of_a_narrow_window_far_out():
    # gap_series' window s_5000 lies near 2.4e9, where pi(x) < 1.25506 x/ln x
    # would reserve 1.1 GB; the list reserves no more than the window's
    # integers coprime to 30, plus 2, 3 and 5, and the rest of the peak is
    # a row block and the strike state of 5000 base primes (under 1 MiB).
    lo, end = 48611 ** 2, 48619 ** 2
    base = build_prime_table(48619).primes
    slots = int(np.count_nonzero(np.gcd(np.arange(lo, end), 30) == 1))
    primes, peak = _traced_prime_list(lo, end, base)
    assert np.array_equal(primes, np.flatnonzero(mark_primality(lo, end - 1, base)) + lo)
    assert peak <= 8 * (slots + 3) + (1 << 20), (peak, 8 * (slots + 3))


def test_prime_count_bound_covers_every_window():
    # The reservation of _prime_list never falls below the primes of its
    # window: every window of [0, 500], windows sampled below 10^7 (counted
    # on the plain sieve), and the context lists of legendre --kmax 600 and
    # 1000 (counted by the Lucy-Hedgehog recursion).
    below = np.searchsorted(trial_primes(500), np.arange(501)).tolist()  # primes below n
    for lo in range(501):
        for end in range(lo, 501):
            assert _prime_count_bound(lo, end) >= below[end] - below[lo], (lo, end)
    primes = np.flatnonzero(mark_primality(0, 10 ** 7 - 1, _BASE))
    rng = np.random.default_rng(31)
    lo = rng.integers(0, 10 ** 7, 20_000)
    end = lo + np.exp(rng.uniform(0, np.log(10 ** 7 - lo))).astype(np.int64)  # log-uniform length
    counts = np.searchsorted(primes, end) - np.searchsorted(primes, lo)
    for a, b, count in zip(lo.tolist(), end.tolist(), counts.tolist()):
        assert _prime_count_bound(a, b) >= count, (a, b)
    assert _prime_count_bound(0, 4421 ** 2) >= 1_243_513  # p_601; sympy's primepi
    assert lucy_pi(7927 ** 2 - 1) <= _prime_count_bound(0, 7927 ** 2) <= 3_748_231  # p_1001


def _edge_bounds(lo, hi):
    """Bounds in [lo, hi + 1] on, and next to, the row start and every residue of block edges.

    Takes the first two and the last three block edges, the last being the
    end of the rows, so that the count of bounds does not grow with the
    number of blocks.
    """
    m_lo = lo // 30
    rows = hi // 30 + 1 - m_lo
    starts = [*range(0, rows, sieve_core._BLOCK_SLOTS), rows]
    edges = {lo, hi + 1}
    for a in {*starts[:2], *starts[-3:]}:
        for r in (0, *_RESIDUES):
            n = 30 * (m_lo + a) + r
            edges.update((n - 1, n, n + 1))
    return sorted(min(max(n, lo), hi + 1) for n in edges)


def _check_wheel_paths(lo, hi, base=_BASE):
    """The wheel rows and their two consumers against the plain sieve.

    Checks the stream's geometry (every residue in turn, consecutive blocks
    of ``_BLOCK_SLOTS`` rows, one reused buffer), that its rows hold exactly
    the primes of [lo, hi] coprime to 30 and no flag below lo, the prime
    list against both references, and the counts below bounds on block and
    row edges.
    """
    step = sieve_core._BLOCK_SLOTS
    m_lo = lo // 30
    rows = hi // 30 + 1 - m_lo
    reference = mark_primality(lo, hi, base)
    seen, buffers = [], set()
    for r, a, block in _wheel_rows(lo, hi + 1, base):
        seen.append((r, a, len(block)))
        buffers.add(block.__array_interface__["data"][0])
        n = 30 * (m_lo + a + np.arange(len(block))) + r
        inside = (n >= lo) & (n <= hi)
        assert not block[n < lo].any(), (r, a)
        assert np.array_equal(block[inside], reference[n[inside] - lo])
    assert seen == [(r, a, min(step, rows - a)) for r in _RESIDUES for a in range(0, rows, step)]
    assert len(buffers) <= 1  # one buffer of at most one block, reused
    _check_prime_list(lo, hi, base)
    prefix = np.concatenate(([0], np.cumsum(reference)))
    bounds = _edge_bounds(lo, hi)
    # In a short window, also below every integer.
    if hi - lo < 2000:
        bounds = sorted({*bounds, *range(lo, hi + 2)})
    got = _primes_below(lo, bounds, base)
    assert got.dtype == np.int64
    assert got.tolist() == prefix[np.array(bounds) - lo].tolist(), (lo, hi)


def test_wheel_rows_seams_at_window_starts(small_blocks):
    # Starts at every residue mod 30, at every presieve prime and next to
    # them, each window up to many blocks long.
    for lo in (*range(0, 31), 37, 41, 47, 49, 59, 60, 61):
        for length in (1, 2, 29, 30, 31, 1919, 1920, 1921, 1950, 5000):
            _check_wheel_paths(lo, lo + length - 1)


def test_wheel_rows_scatter_primes_skip_blocks(small_blocks):
    # Near 1.5e7 the scatter tier holds the primes 37..3877; each strikes
    # one block in p / 64 of each residue.
    for lo in (15_000_000, 15_000_001, 15_000_029, 2 * _WHEEL_PERIOD - 1):
        for length in (30 * 64 * 9, 30 * 64 * 9 + 1, 40_000):
            _check_wheel_paths(lo, lo + length - 1)
    # Windows below 41^2 whose only scatter prime, 37, strikes some blocks
    # (its multiples 37*37, 37*41 and 37*43, each in another row) and skips others.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_core, "_BLOCK_SLOTS", 4)
        for lo in (0, 1368, 1369, 1370):
            _check_wheel_paths(lo, 1680, _BASE[:12])


def test_wheel_rows_scatter_runs_of_many_strikes(monkeypatch):
    # Every base prime in the scatter tier, most striking a block several times.
    monkeypatch.setattr(sieve_core, "_BLOCK_SLOTS", 512)
    monkeypatch.setattr(sieve_core, "_SCATTER_MIN", 0)
    for lo in (0, 361, 9_999_991):
        _check_wheel_paths(lo, lo + 60_000)


@settings(max_examples=120, deadline=None)
@given(
    lo=st.one_of(st.integers(0, 40), st.integers(0, 15_000_000)),
    length=st.one_of(st.integers(1, 300), st.integers(1, 20_000)),
    block_slots=st.sampled_from([1, 2, 3, 64, 97, 4096]),
    scatter_min=st.sampled_from([0, 19, 20, 37, 1000, 1 << 13]),
)
def test_wheel_rows_any_geometry(lo, length, block_slots, scatter_min):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_core, "_BLOCK_SLOTS", block_slots)
        mp.setattr(sieve_core, "_SCATTER_MIN", scatter_min)
        _check_wheel_paths(lo, lo + length - 1)


def test_wheel_inverse_and_patterns():
    for r in _RESIDUES:
        assert r * _INVERSE[r] % 30 == 1
        n = 30 * np.arange(_WHEEL_PERIOD) + r
        assert np.array_equal(_wheel_pattern(r), np.all(n[:, None] % (7, 11, 13, 17) != 0, axis=1))


@settings(max_examples=200, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=300),
    picks=st.lists(st.integers(0, 300), max_size=40),
)
def test_prefix_counts_match_cumsum(flags, picks):
    block = np.array(flags)
    cuts = np.array(sorted(min(c, len(block)) for c in picks), dtype=np.int64)
    prefix = np.concatenate(([0], np.cumsum(block)))
    assert _prefix_counts(block, cuts).tolist() == prefix[cuts].tolist()


def test_wheel_patterns_are_built_lazily():
    # Importing the CLI must not pay for them, and the exhaustive shift
    # model's half-period pattern (4.8 MB at k = 8) is never cached.
    code = ("import sievelab.cli; from sievelab import randmodel, sieve_core; "
            "print(sieve_core._wheel_pattern.cache_info().currsize); "
            "print(sieve_core._presieve_pattern.cache_info().currsize); "
            "randmodel.shift_model(8, sieve_core.build_prime_table(100), budget=10 ** 9); "
            "print(sieve_core._presieve_pattern.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(sieve_core.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0", "0", "0"]


def test_strike_limit_is_the_least_cube_above():
    for t in (1, 2, 17, 18, 19, 20, 250, 10 ** 4, 10 ** 5, 2 ** 21):
        assert [_icbrt(t ** 3 + d) for d in (-1, 0, 1)] == [t - 1, t, t]
    assert _icbrt(0) == 0
    # The least T with T^3 > end - 1, never below 19: the presieve covers 7..17.
    assert [_strike_limit(end) for end in (0, 1, 2, 17 ** 3 + 1, 18 ** 3 + 1, 19 ** 3,
                                          19 ** 3 + 1, 101 ** 3, 101 ** 3 + 1)] == \
        [19, 19, 19, 19, 19, 19, 20, 101, 102]


@st.composite
def _cube_windows(draw):
    """(lo, bounds, end, lookup_end, block_slots): bounds end next to a cube.

    end - 1 sits within 2 of t^3, so T = _strike_limit(end) is t or t + 1;
    t up to 17 gives T = 19. Windows start at 0, below T, or anywhere,
    and the lookup's end is the window's, one more, or past the next cube.
    Blocks of 64 rows only cut windows of up to 20 000 integers.
    """
    t = draw(st.one_of(st.integers(2, 19), st.integers(2, 120)))
    end = max(t ** 3 + 1 + draw(st.integers(-2, 2)), 1)
    lo = draw(st.one_of(st.just(0), st.integers(0, min(20, end)), st.integers(0, end),
                        st.integers(max(end - 5000, 0), end)))
    block_slots = draw(st.sampled_from([64, 1 << 21]))
    if block_slots == 64:
        lo = max(lo, end - 20_000)
    bounds = sorted({lo, end, *draw(st.lists(st.integers(lo, end), max_size=12))})
    lookup_end = draw(st.sampled_from([end, end + 1, (t + 1) ** 3 + 1, 2 * end]))
    return lo, bounds, end, lookup_end, block_slots


@settings(max_examples=120, deadline=None)
@given(window=_cube_windows())
def test_semiprime_subtraction_matches_plain_sieve(window):
    lo, bounds, end, lookup_end, block_slots = window
    prefix = np.concatenate(([0], np.cumsum(mark_primality(lo, end - 1, _BASE)))) \
        if end > lo else np.zeros(1, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve_core, "_BLOCK_SLOTS", block_slots)
        lookup = _semiprime_lookup(lookup_end, _BASE)
        # The drawn bounds, then bounds on and next to the row-block edges.
        for bs in (bounds, _edge_bounds(lo, end - 1) if end > lo else bounds):
            got = _primes_below(lo, bs, _BASE, lookup)
            assert got.tolist() == prefix[np.array(bs) - lo].tolist(), (lo, end, lookup_end)


def test_semiprime_subtraction_at_block_seams(small_blocks):
    # 64-row blocks, windows from 0 and from below T, bounds on every block edge.
    for end in (18 ** 3 + 1, 19 ** 3 + 1, 40 ** 3, 40 ** 3 + 1, 40 ** 3 + 2, 123_457):
        lookup = _semiprime_lookup(end, _BASE)
        for lo in (0, 1, 7, 18, 19, 20, 361, end - 4000):
            bounds = _edge_bounds(lo, end - 1)
            prefix = np.concatenate(([0], np.cumsum(mark_primality(lo, end - 1, _BASE))))
            assert _primes_below(lo, bounds, _BASE, lookup).tolist() == \
                prefix[np.array(bounds) - lo].tolist(), (lo, end)


def test_semiprime_lookup_layout_and_no_copy():
    lookup = _semiprime_lookup(10 ** 11, build_prime_table(320_000).primes)
    prefix, mask = lookup
    assert prefix.dtype == np.int32 and mask.dtype == np.uint8
    limit = (10 ** 11 - 1) // _icbrt(10 ** 11 - 1)
    assert len(mask) == limit // 30 + 1
    n = np.array([6, 7, 30, 31, 1000, limit], dtype=np.int64)
    assert (_pi_from(lookup, n) + 3).tolist() == [3, 4, 10, 11, 168, lucy_pi(limit)]
    # Counting a window's semiprimes reads the table where it lies: its
    # temporaries hold a few entries per q, far less than the table.
    qs = build_prime_table(320_000).primes[4000:]
    bounds = np.arange(10 ** 11 - 1000, 10 ** 11 + 1, 100, dtype=np.int64)
    tracemalloc.start()
    try:
        _semiprimes_below(10 ** 11 - 1000, bounds, qs, lookup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (prefix.nbytes + mask.nbytes) / 2, peak


def test_semiprime_lookup_sums_its_prefix_block_by_block():
    # At p_30001^2 the table is 4.1 MB. A prefix summed in one piece held an
    # int32 count array of its own size beside it, 2.0x the table at peak.
    table = build_prime_table(360_000)  # p_30001 = 350381
    end, base = table.nth(30_001) ** 2, table.first(30_001)
    _semiprime_lookup(10 ** 6, base)  # build the presieve patterns outside the trace
    tracemalloc.start()
    try:
        prefix, mask = _semiprime_lookup(end, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * (prefix.nbytes + mask.nbytes), peak / (prefix.nbytes + mask.nbytes)
    # The same counts as one cumulative sum over the whole mask.
    ones = sieve_core._ONES[mask]
    assert np.array_equal(prefix, np.cumsum(ones, dtype=np.int32) - ones)


def test_semiprime_lookup_refuses_a_table_beyond_the_budget(monkeypatch):
    # pi(2e15) would take a table of 2.6 GB up to 1.6e10 (and, summed in
    # one piece, a 2.1 GB temporary). It is refused before anything is built.
    table = build_prime_table(50_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            count_primes_upto(2 * 10 ** 15, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    # The bound is inclusive: a table of exactly the budget is built.
    end = 10 ** 9
    limit = (end - 1) // _icbrt(end - 1)
    need = 5 * (limit // 30 + 1)
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", need)
    prefix, mask = _semiprime_lookup(end, _BASE)
    assert prefix.nbytes + mask.nbytes == need
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", need - 1)
    with pytest.raises(ResourceError):
        _semiprime_lookup(end, _BASE)


_SMALL = build_prime_table(2000).primes
_BATCH_SIZES = (1, _COPRIME_BATCH - 1, _COPRIME_BATCH, _COPRIME_BATCH + 1,
                3 * _COPRIME_BATCH + 5)


def _check_coprime_counts(starts, length, primes, gcd_rows):
    batches = list(_coprime_counts(iter(starts), length, primes))
    assert [len(b) for b in batches[:-1]] == [_COPRIME_BATCH] * (len(batches) - 1)
    got = np.concatenate(batches)
    assert got.dtype == np.int64 and len(got) == len(starts)
    assert got.tolist() == [window_count(s, length, primes) for s in starts]
    for i in gcd_rows:
        s = starts[i]
        assert got[i] == len(coprime_survivors(s, s + length - 1, primes))


def test_coprime_counts_cover_batch_edges():
    # Every k in 1..40 (k < 7 presieves only part of 3..17), every batch
    # size around the batch boundary, odd and even starts, small starts,
    # starts above 2**64 and next to p_k# - 1, on l_k and on odd lengths.
    rng = random.Random(7)
    for k in range(1, 41):
        primes = [int(p) for p in _SMALL[:k]]
        period = math.prod(primes)
        n = _BATCH_SIZES[k % len(_BATCH_SIZES)]
        pool = [0, 1, 2, 3, period - 1, period - 2, period, period + 1,
                2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, rng.getrandbits(200) | 1,
                rng.getrandbits(200) & ~1, max(period - 1 - rng.randrange(40), 0)]
        starts = [pool[i % len(pool)] if i < len(pool) else rng.choice(pool) + rng.randrange(1000)
                  for i in range(n)]
        l_k = int(_SMALL[k]) ** 2 - primes[-1] ** 2
        for length in (l_k, 2 * rng.randrange(1, 100) + 1):
            _check_coprime_counts(starts, length, primes, gcd_rows=range(min(n, 16)))


@st.composite
def _coprime_batches(draw):
    k = draw(st.integers(1, 40))
    primes = [int(p) for p in _SMALL[:k]]
    period = math.prod(primes)
    start = st.one_of(
        st.integers(0, 64),
        st.integers(0, 2 ** 64 - 1),
        st.integers(2 ** 64, 2 ** 260),
        st.integers(0, 64).map(lambda d: max(period - 1 - d, 0)),
        st.integers(0, 2 ** 30).map(lambda d: period + d),
    )
    n = draw(st.one_of(st.sampled_from(_BATCH_SIZES), st.integers(1, 3 * _COPRIME_BATCH + 5)))
    starts = draw(st.lists(start, min_size=n, max_size=n))
    length = draw(st.one_of(st.integers(1, 40), st.integers(1, 1200)))
    return starts, length, primes


@settings(max_examples=60, deadline=None)
@given(batch=_coprime_batches())
def test_coprime_counts_match_references(batch):
    starts, length, primes = batch
    _check_coprime_counts(starts, length, primes, gcd_rows=range(0, len(starts), 7))


def test_strike_offsets_are_exact_at_k300():
    primes = [int(p) for p in _SMALL[:300]]
    rng = random.Random(300)
    starts = [rng.getrandbits(2000 + 37 * i) for i in range(20)]
    starts += [2 ** 2048 - 1, 2 ** 2000, math.prod(primes) - 1, math.prod(primes)]
    moduli = (2, _PERIOD, *(q for q in primes if q > 17))
    got = _strike_offsets(starts, moduli)
    assert got.tolist() == [[(-s) % q for q in moduli] for s in starts]


def test_strike_offsets_chunked_sums_stay_exact():
    rng = random.Random(31)
    # Moduli near 2**31 leave room for one 32-bit digit per partial sum.
    big = (2, 3, 2 ** 31 - 1, 2 ** 31 - 19, 1_000_003)
    starts = [rng.getrandbits(bits) for bits in (1, 31, 32, 33, 64, 65, 2047, 2048, 4100)]
    assert _chunk_digits(2 ** 31 - 1) == 1
    assert _strike_offsets(starts, big).tolist() == [[(-s) % q for q in big] for s in starts]
    # Moduli below 2**20 allow 2048 digits per sum, so a 70 000-bit start
    # (2188 digits) needs two partial sums.
    small = (2, 255255, 1223, 2 ** 20 - 3)
    starts += [rng.getrandbits(70_000), 2 ** 70_000 - 1]
    assert _chunk_digits(2 ** 20 - 3) == 2048
    assert _strike_offsets(starts, small).tolist() == [[(-s) % q for q in small] for s in starts]
    # The chunk is the largest whose digit sums cannot reach 2**63.
    for q_max in (2, 3, 1223, 255255, 2 ** 20 + 7, 2 ** 31 - 1):
        c = _chunk_digits(q_max)
        bound = ((1 << 32) - 1) * max(q_max - 1, 1)
        assert c >= 1 and c * bound <= _INT64_MAX < (c + 1) * bound


# Run in a child process per OpenBLAS kernel: prints the kernel's name
# ("-" where it cannot be read) and how many cases came out inexact.
_BLAS_CHILD = """
import ctypes, glob, os, random
import numpy as np
from sievelab.sieve_core import _strike_offsets, build_prime_table

def corename():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return ""

primes = [int(p) for p in build_prime_table(2000).primes[:300]]
rng = random.Random(300)
cases = [
    # One digit per chunk: every product is a 16-bit half times a weight near 2**31.
    ((2, 3, 2 ** 31 - 1, 2 ** 31 - 19), [2 ** (32 * w) - 1 for w in (1, 2, 3, 64, 65, 127)]),
    # 2048 all-ones digits per chunk: the partial sums reach about 2**46.
    ((2, 255255, 1223, 2 ** 20 - 3), [2 ** (32 * w) - 1 for w in (2047, 2048, 2049, 4097)]),
    # The k = 300 moduli at 2000-bit starts.
    ((2, 255255, *(q for q in primes if q > 17)),
     [rng.getrandbits(2000) for _ in range(64)] + [2 ** 2000 - 1]),
]
bad = sum(_strike_offsets(starts, moduli).tolist() != [[(-s) % q for q in moduli] for s in starts]
          for moduli, starts in cases)
print(corename() or "-", bad)
"""


def test_strike_offsets_exact_under_every_blas_kernel():
    # The float64 products must not depend on the BLAS kernel the CPU
    # selects: the default, an AVX2-only and an SSE-only one.
    src = os.path.dirname(os.path.dirname(sieve_core.__file__))
    names = []
    for coretype in (None, "Haswell", "Prescott"):
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", _BLAS_CHILD], capture_output=True, text=True,
                             env=env, check=True)
        name, bad = out.stdout.split()
        assert bad == "0", (coretype, name)
        names.append(name)
    if "-" not in names:
        assert len(set(names)) == 3, names  # the variable did switch the kernel


def test_rotated_rows_match_fill_rotated():
    # k <= 6 presieves part of 3..17 (periods 1, 3, 15, 105, 1155, 15015),
    # so rows longer than a period occur; the k >= 7 pattern at l_200's size.
    for i in range(len(_PRESIEVE_PRIMES) + 1):
        pattern = _presieve_pattern(_PRESIEVE_PRIMES[:i])
        period = len(pattern)
        rotations = sorted({period - 1, *range(0, period, max(period // 97, 1))})
        for size in (1, period, period + 1, 3 * period + 2, 7356):
            rows = _rotated_rows(pattern, size)
            assert rows.shape == (period, size) and not rows.flags.writeable
            gathered = rows[np.array(rotations)]
            for r, row in zip(rotations, gathered):
                expected = np.empty(size, dtype=bool)
                _fill_rotated(expected, pattern, r)
                assert np.array_equal(rows[r], expected), (period, size, r)
                assert np.array_equal(row, expected), (period, size, r)


def test_coprime_batch_memory_is_a_few_rows():
    # One k = 200 batch: 64 windows of 7356 odd slots. Copying the whole
    # overlapping view (255255 rows) would take 1.9 GB.
    primes = [int(p) for p in _SMALL[:201]]
    ps = primes[:200]
    length = primes[200] ** 2 - ps[-1] ** 2
    rng = random.Random(200)
    starts = [ps[-1] ** 2 + rng.randrange(math.prod(ps)) for _ in range(_COPRIME_BATCH)]
    tracemalloc.start()
    try:
        counts = list(_coprime_counts(starts, length, ps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert np.concatenate(counts).tolist() == [window_count(s, length, ps) for s in starts]


def test_coprime_counter_errors():
    primes = [int(p) for p in _SMALL[:5]]
    for starts, length, ps in (([5], 10, primes[1:]),  # no 2
                               ([5], 10, [2, 5, 3]),
                               ([5], 0, primes),
                               ([4, -1], 10, primes)):
        with pytest.raises(DomainError):
            list(_coprime_counts(starts, length, ps))
    assert list(_coprime_counts([], 10, primes)) == []
    with pytest.raises(DomainError):
        _strike_offsets([5], (3, 2 ** 31))


def test_strike_offsets_refuse_a_digit_table_beyond_the_budget(monkeypatch):
    # randmodel --k 30000: p_k# has about 505 000 bits, so its table of
    # 15 773 digits x 29 995 moduli would take 3.8 GB. It is refused unbuilt.
    moduli = tuple(range(2, 29_997))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            _strike_offsets([1 << 505_000], moduli)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    # The bound is inclusive: a table of exactly the budget is built.
    starts, moduli = [(1 << 100) - 1], (2, 3, 5)
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", 4 * 3 * 8)
    assert _strike_offsets(starts, moduli).tolist() == [[(-starts[0]) % q for q in moduli]]
    monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", 4 * 3 * 8 - 1)
    with pytest.raises(ResourceError):
        _strike_offsets(starts, moduli)


def test_coprime_start_check_matches_the_counter(table_small, monkeypatch):
    # k = 30: the moduli are 2, the pattern period and the 23 primes 19..113.
    ps = [int(p) for p in table_small.first(30)]
    start = math.prod(ps) + ps[-1] ** 2
    need = _digit_width(start, 1) * 25 * 8
    for budget in (need, need - 1):
        monkeypatch.setattr(sieve_core, "DEFAULT_MEMORY_BUDGET", budget)
        checks = (lambda: _check_coprime_starts(start, ps),
                  lambda: next(_coprime_counts([start], 100, ps)))
        for check in checks:
            if budget < need:
                with pytest.raises(ResourceError):
                    check()
            else:
                check()


def _worker_blas_threads(_):
    return sieve_core._blas_threads()


def test_pool_workers_run_one_blas_thread():
    set_threads = sieve_core._openblas_function("scipy_openblas_set_num_threads64_")
    if set_threads is None or sieve_core._blas_threads() is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count functions")
    before = sieve_core._blas_threads()
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(2)  # a worker inherits this unless its initializer pins it
    try:
        with sieve_core._worker_map(2, 4) as imap:
            assert list(imap(_worker_blas_threads, range(4))) == [1] * 4
    finally:
        set_threads(before)
    assert no_child_left()


def test_blas_pin_is_a_no_op_without_openblas(tmp_path, monkeypatch):
    assert sieve_core._openblas_function("no_such_openblas_symbol_") is None
    monkeypatch.setattr(sieve_core, "_OPENBLAS_GLOB", str(tmp_path / "*openblas*"))
    assert sieve_core._pin_blas_threads() is None
    (tmp_path / "libopenblas.so").write_bytes(b"not a library")
    assert sieve_core._blas_threads() is None
    (tmp_path / "libopenblas.so").unlink()
    assert sieve_core._blas_threads() is None
    with sieve_core._worker_map(2, 2) as imap:
        assert list(imap(_worker_blas_threads, range(2))) == [None, None]


class _ParentFault(Exception):
    pass


def _failing_in_parent(real):
    """``real``, except that a call in this process raises _ParentFault."""
    parent = os.getpid()

    def call(*args, **kwargs):
        if os.getpid() == parent:
            raise _ParentFault
        return real(*args, **kwargs)
    return call


@pytest.mark.parametrize("pool", ["interval scan", "legendre context rows", "sampled draws"])
def test_parent_fault_tears_the_pool_down(table_small, monkeypatch, pool_sizes, pool):
    # The parent raises while the pool is open: the error propagates, no
    # worker outlives the pool and the shared inputs are dropped.
    if pool == "interval scan":
        run = functools.partial(build_intervals, 80, table_small, threads=2, chunk_entries=4096,
                                progress=_failing_in_parent(None))
    elif pool == "legendre context rows":
        monkeypatch.setattr(MoebiusContext, "m_full", _failing_in_parent(MoebiusContext.m_full))
        run = functools.partial(legendre_scan, 180, 230, table_small, threads=2)
    else:
        monkeypatch.setattr(randmodel, "_add_histograms",
                            _failing_in_parent(randmodel._add_histograms))
        run = functools.partial(randmodel.shift_model, 30, table_small, budget=1000, seed=7,
                                threads=2)
    with pytest.raises(_ParentFault):
        run()
    assert pool_sizes == [2]
    assert no_child_left()
    assert sieve_core._shared is None


# Maps six tasks over two forked workers; task 3, the second of worker 1,
# kills its own worker. Prints how the map ended, the results it gave and
# whether a child process is left.
_KILLED_WORKER = """
import os, signal
from sievelab import ResourceError, sieve_core

def task(i):
    if i == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return i

seen = []
try:
    with sieve_core._worker_map(2, 6) as imap:
        seen.extend(imap(task, range(6)))
except ResourceError as exc:
    print("ResourceError:", exc)
print(seen)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child left")
"""


def test_killed_worker_raises_resource_error():
    # A worker killed mid-map, as by the OOM killer, ends its pipe early: the
    # parent raises after the results before it, instead of waiting forever,
    # and reaps every worker. It runs in a child process with a timeout, so
    # a hang fails this test, not the suite.
    src = os.path.dirname(os.path.dirname(sieve_core.__file__))
    out = subprocess.run([sys.executable, "-c", _KILLED_WORKER], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    error, seen, left = out.stdout.splitlines()
    assert error.startswith("ResourceError: worker process ")
    assert error.endswith(" ended before its results")
    assert (seen, left) == ("[0, 1, 2]", "no child left")


def _raising_at(i, error, task):
    if task == i:
        raise error
    return task


class _Unpicklable(Exception):
    """Holds a lock, which does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _TwoArgs(Exception):
    """Pickles, but its one joined message does not unpickle into two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.mark.parametrize("error", [DomainError("k out of range"), ResourceError("over budget"),
                                   ZeroDivisionError("no rows")], ids=lambda e: type(e).__name__)
def test_worker_exception_keeps_its_type(error):
    # Task 3 raises in worker 1 after worker 0 has sent tasks 0 and 2.
    seen = []
    with pytest.raises(type(error), match=str(error)) as info:
        with sieve_core._worker_map(2, 6) as imap:
            seen.extend(imap(functools.partial(_raising_at, 3, error), range(6)))
    assert type(info.value) is type(error) and seen == [0, 1, 2]
    assert no_child_left() and sieve_core._shared is None


@pytest.mark.parametrize("error", [_Unpicklable("holds a lock"), _TwoArgs("two", "parts")],
                         ids=lambda e: type(e).__name__)
def test_worker_exception_that_does_not_pickle_ends_the_map(error):
    with pytest.raises(RuntimeError) as info:
        with sieve_core._worker_map(2, 4) as imap:
            list(imap(functools.partial(_raising_at, 1, error), range(4)))
    assert type(info.value) is RuntimeError
    assert str(info.value) == f"a worker raised {error!r}, which does not pickle"
    assert no_child_left()


def test_worker_result_that_does_not_pickle_ends_the_map():
    with pytest.raises(TypeError, match="cannot pickle"):
        with sieve_core._worker_map(2, 4) as imap:
            list(imap(lambda task: threading.Lock() if task == 2 else task, range(4)))
    assert no_child_left()
