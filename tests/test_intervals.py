import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab import (
    DomainError,
    Window,
    build_intervals,
    build_prime_table,
    count_coprime_direct,
    count_primes_upto,
    gap_series,
    li,
    partial_counts,
)
from sievelab import intervals, sieve_core
from sievelab.intervals import (DEFAULT_CHUNK_ENTRIES, IntervalSet, _chunk_bounds, _chunk_counts,
                                compute_interval_records)
from sievelab.sieve_core import _prime_list, _primes_below, _semiprime_lookup

from _oracles import li_between_oracle, mark_primality, odd_primality, trial_primes
from conftest import no_child_left


def _columns(source):
    """Column name -> list, from an IntervalSet or a compute_interval_records block."""
    return {name: (source[name] if isinstance(source, dict) else getattr(source, name)).tolist()
            for name in IntervalSet.COLUMNS}


def test_first_record(table_small):
    r = build_intervals(1, table_small).record(1)
    assert (r.k, r.p_k, r.p_next, r.gap, r.length, r.pi_k) == (1, 2, 3, 1, 5, 2)


def test_k3_row(set200):
    r = set200.record(3)
    assert r.p_k == 5 and r.p_next == 7
    assert r.length == 24
    assert r.pi_k == 6


def test_k1000_row(set1000):
    r = set1000.record(1000)
    assert (r.p_k, r.p_next, r.gap, r.length) == (7919, 7927, 8, 126768)


def test_length_identity(set1000):
    s = set1000
    assert np.array_equal(s.length, 2 * s.p_next * s.gap - s.gap * s.gap)


def test_pi_k_at_least_one(set1000):
    assert set1000.pi_k.min() >= 1


def test_sandwich_per_record(set1000):
    s = set1000
    lo_est = np.array([l / math.log(p ** 2) for l, p in zip(s.length.tolist(), s.p_k.tolist())])
    assert np.all(s.pnt_estimate < s.li_k) and np.all(s.li_k < lo_est)


def test_length_telescoping(set1000):
    assert np.array_equal(np.cumsum(set1000.length), set1000.p_next ** 2 - 4)


def test_pi_telescoping_against_counting(table, set1000):
    # pi_cum[k - 1] = 2 + sum_{j<=k} pi_j counts the primes 2 and 3 below s_1.
    for k in (10, 100, 1000):
        x = set1000.record(k).p_next ** 2
        assert set1000.pi_cum[k - 1] == count_primes_upto(x, table)


def test_li_cum_against_li(set1000):
    for k in (1, 10, 1000):
        x = set1000.record(k).p_next ** 2
        assert set1000.li_cum[k - 1] == pytest.approx(li(x), rel=1e-12)


def test_columns_are_read_only(set200):
    for name in [*IntervalSet.COLUMNS, "pi_cum", "li_cum"]:
        with pytest.raises(ValueError):
            getattr(set200, name)[0] = 0


def test_columns_are_views_of_arrays_of_their_dtype(set200):
    # A fresh int64 or float64 column is shared, not copied, and the caller's
    # array stays writeable; a column of another dtype is converted.
    cols = {name: np.array(getattr(set200, name)) for name in IntervalSet.COLUMNS}
    cols["pi_k"] = cols["pi_k"].astype(np.int32)
    view = IntervalSet(cols)
    for name, col in cols.items():
        assert np.shares_memory(getattr(view, name), col) == (name != "pi_k"), name
        assert col.flags.writeable, name
    assert view.pi_k.dtype == np.int64
    assert np.array_equal(view.pi_k, set200.pi_k)


def test_pi_matches_coprime_count(table_small, set200):
    for k in range(1, 31):
        r = set200.record(k)
        w = Window(r.p_k ** 2, r.p_next ** 2 - 1)
        assert count_coprime_direct(w, k, table_small).count == r.pi_k


def test_ratio_convergence_band(set1000):
    ratios = set1000.pi_k[499:1000] / set1000.pnt_estimate[499:1000]
    assert 0.95 <= np.mean(ratios) <= 1.05


def test_li_k_column_matches_oracle(set200):
    for k in (1, 2, 50, 200):
        r = set200.record(k)
        assert r.li_k == pytest.approx(
            li_between_oracle(r.p_k ** 2, r.p_next ** 2), rel=1e-12)


def test_locate_interval(set200):
    assert set200.locate(25) == 3
    assert set200.locate(48) == 3
    assert set200.locate(24) == 2
    with pytest.raises(DomainError):
        set200.locate(3)
    with pytest.raises(DomainError):
        set200.locate(set200.record(200).p_next ** 2)


def test_partial_counts(table_small, set200):
    assert partial_counts(25, set200, table_small) == (0, 0.0)
    pi_part, li_part = partial_counts(48, set200, table_small)
    assert pi_part == 6
    assert li_part == pytest.approx(li_between_oracle(25, 48), rel=1e-10)
    assert partial_counts(30, set200, table_small)[0] == 1  # only 29


def test_gap_series(table, set1000):
    g3 = gap_series(3, set1000, table)
    assert list(g3.columns) == ["p", "g"]
    assert g3.columns["p"].tolist() == [29, 31, 37, 41, 43]
    assert g3.columns["g"].tolist() == [2, 6, 4, 2, 4]
    g1 = gap_series(1, set1000, table)
    assert (g1.columns["p"].tolist(), g1.columns["g"].tolist()) == ([5], [2])
    meta = gap_series(500, set1000, table).metadata
    assert meta["k"] == 500
    assert meta["expected_gap"] == pytest.approx(2 * math.log(3581), rel=1e-15)
    assert abs(meta["mean_gap"] - meta["expected_gap"]) / meta["expected_gap"] < 0.1


def test_contiguity(set200):
    assert np.array_equal(set200.p_k[1:], set200.p_next[:-1])


def test_chunking_and_threads_invisible(table_small):
    base = _columns(build_intervals(80, table_small))
    tiny_chunks = _columns(build_intervals(80, table_small, chunk_entries=4096))
    threaded = _columns(build_intervals(80, table_small, threads=2))
    assert base == tiny_chunks == threaded
    # The rows handed to progress, one chunk at a time in k order, are the
    # result: views of the columns the scan allocated once, not copies.
    for threads in (1, 2):
        blocks = []
        whole = compute_interval_records(1, 80, table_small, threads=threads, chunk_entries=4096,
                                         progress=lambda k_lo, block: blocks.append((k_lo, block)))
        assert len(blocks) > 1
        assert [k_lo for k_lo, _ in blocks] == [1] + [k_lo + len(b["pi_k"])
                                                     for k_lo, b in blocks[:-1]]
        assert _columns({name: np.concatenate([b[name] for _, b in blocks])
                         for name in IntervalSet.COLUMNS}) == _columns(whole) == base
        assert all(np.shares_memory(b[name], whole[name]) for _, b in blocks for name in whole)


def _traced_scan_peak(k_to, table, chunk_entries):
    compute_interval_records(1, 20, table, chunk_entries=chunk_entries)  # warm the caches
    tracemalloc.start()
    try:
        compute_interval_records(1, k_to, table, chunk_entries=chunk_entries)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_peak_does_not_grow_with_the_chunk_count(table_small):
    # k <= 200 in 6 chunks and in 163: a scan that kept each chunk's
    # columns until its end peaked 6x higher with the small chunks.
    few, many = 1 << 18, 1 << 12
    assert len(_chunk_bounds(1, 200, table_small, many)) >= \
        25 * len(_chunk_bounds(1, 200, table_small, few))
    peak_few = _traced_scan_peak(200, table_small, few)
    assert _traced_scan_peak(200, table_small, many) < peak_few + (16 << 10), peak_few


def _pid(_):
    return os.getpid()


def test_pool_never_exceeds_chunk_count(table_small, pool_sizes, forks):
    # k = 10, 11, 12 at 512 integers a chunk: one chunk each.
    threaded = compute_interval_records(10, 12, table_small, threads=8, chunk_entries=512)
    assert pool_sizes == [3] and len(forks) == 3
    assert _columns(threaded) == _columns(compute_interval_records(10, 12, table_small))
    compute_interval_records(10, 12, table_small, threads=8)  # one chunk: no pool
    assert pool_sizes == [3] and len(forks) == 3
    # The pool sizes itself from its task list: three tasks fork three
    # workers, task i on worker i; one task runs in this process, and an
    # empty list forks nothing and yields nothing.
    forks.clear()
    with sieve_core._worker_map(8, _pid, range(3)) as results:
        assert list(results) == forks and len(forks) == 3
    assert sieve_core._pool_workers == 3
    with sieve_core._worker_map(8, _pid, range(1)) as results:
        assert list(results) == [os.getpid()]
    with sieve_core._worker_map(8, _pid, []) as results:
        assert list(results) == []
    assert len(forks) == 3 and pool_sizes == [3, 3] and no_child_left()


def test_partial_range_matches_full(table_small):
    full = _columns(build_intervals(60, table_small))
    tail = _columns(compute_interval_records(31, 60, table_small))
    assert {name: col[30:] for name, col in full.items()} == tail


def test_build_errors(table_small):
    with pytest.raises(DomainError):
        build_intervals(0, table_small)
    with pytest.raises(DomainError):
        build_intervals(len(table_small), table_small)  # needs k_max + 1 primes


@settings(max_examples=30, deadline=None)
@given(
    chunk_entries=st.one_of(st.integers(2, 64), st.integers(2, 200_000)),
    k_from=st.integers(1, 60),
    count=st.integers(1, 60),
)
def test_chunk_entries_do_not_change_records(table_small, chunk_entries, k_from, count):
    k_to = k_from + count - 1
    reference = _columns(compute_interval_records(k_from, k_to, table_small))
    assert _columns(compute_interval_records(k_from, k_to, table_small,
                                             chunk_entries=chunk_entries)) == reference


def _oracle_counts(k_lo, ps):
    """pi_j per interval of a chunk task, from the plain full-width sieve."""
    sq = [int(p) ** 2 for p in ps[k_lo - 1 :]]
    flags = mark_primality(sq[0], sq[-1] - 1, ps)
    return [int(np.count_nonzero(flags[a - sq[0] : b - sq[0]])) for a, b in zip(sq, sq[1:])]


def test_chunk_counts_across_block_seams(table_small, monkeypatch):
    # Small blocks and a low scatter threshold, so that interval bounds, block
    # edges and scatter strikes meet in every combination.
    monkeypatch.setattr(sieve_core, "_SCATTER_MIN", 37)
    for k_lo, k_hi in ((1, 12), (1, 40), (9, 30), (200, 203)):
        ps = table_small.primes[: k_hi + 1]
        sq = ps[k_lo - 1 :] ** 2
        rows = ((sq - 1) // 30 + 1 - int(sq[0]) // 30).tolist()  # row-1 slots below each square
        expected = _oracle_counts(k_lo, ps)
        # Block sizes that put the first, second and last bounds on a block
        # edge, that miss them by one row, and that never meet one.
        for slots in {3, 64, rows[1], rows[1] - 1, rows[1] + 1, rows[2],
                      rows[-1], rows[-1] - 1, rows[-1] // 3, rows[-1] + 5}:
            monkeypatch.setattr(sieve_core, "_BLOCK_SLOTS", max(slots, 1))
            assert _chunk_counts((k_lo, ps)).tolist() == expected, (k_lo, k_hi, slots)


def test_chunk_counts_match_whole_flags_at_default_blocks(table):
    # One default chunk near k = 5000: the counts summed over the wheel rows
    # equal the counts read off the prime list of the same rows, which is
    # the list of the former odds-only kernel.
    (k_lo, k_hi) = _chunk_bounds(5000, 5100, table, DEFAULT_CHUNK_ENTRIES)[0]
    ps = table.primes[: k_hi + 1]
    sq = ps[k_lo - 1 :] ** 2
    primes = _prime_list(int(sq[0]), int(sq[-1]), ps)
    first, flags = odd_primality(int(sq[0]), int(sq[-1]) - 1, ps)
    assert np.array_equal(primes, first + 2 * np.flatnonzero(flags))
    assert _chunk_counts((k_lo, ps)).tolist() == np.diff(np.searchsorted(primes, sq)).tolist()


def test_prime_lists_and_counts_at_window_starts(table_small, set200, small_blocks):
    # 64-row blocks of 1920 integers: windows from 0, 1, 2, 3, 5, 7 and next
    # to multiples of 30 and of block edges, each over up to a few blocks,
    # and the intervals s_1..s_40, whose squares are 4, 9, 25 or 30m + 1 or 19.
    primes = np.array(trial_primes(40_000))
    tiny = build_prime_table(200)  # counts above 200 come from the wheel rows
    for lo in (0, 1, 2, 3, 5, 7, 29, 31, 59, 61, 1919, 1921, 3839, 3841, 30_029, 30_031):
        for end in (lo, lo + 1, lo + 2, lo + 29, lo + 31, lo + 1920, lo + 5000):
            expected = primes[(lo <= primes) & (primes < end)]
            assert _prime_list(lo, end, table_small.primes).tolist() == expected.tolist()
            for x in {lo, end} - {0, 1}:
                assert count_primes_upto(x, tiny) == np.count_nonzero(primes <= x), x
    for k in range(1, 41):
        r = set200.record(k)
        lo, end = r.p_k ** 2, r.p_next ** 2
        inside = primes[(lo <= primes) & (primes < end)].tolist()
        gaps = gap_series(k, set200, table_small).columns
        assert gaps["p"].tolist() == inside[:-1] and gaps["g"].tolist() == np.diff(inside).tolist()
        for x in {lo + 1, lo + 2, lo + 29, lo + 30, lo + 31, (lo + end) // 2, end - 2, end - 1}:
            if x < end:
                expected = np.count_nonzero((lo <= primes) & (primes <= x))
                assert partial_counts(x, set200, table_small)[0] == expected, (k, x)


def test_chunk_counts_hold_no_chunk_sized_array(table):
    # A default chunk near k = 5000 spans about 2^25 integers; its odd
    # flags alone would take 16 MiB. The wheel counter keeps one row block.
    (k_lo, k_hi) = _chunk_bounds(5000, 5100, table, DEFAULT_CHUNK_ENTRIES)[0]
    assert table.nth(k_hi + 1) ** 2 - table.nth(k_lo) ** 2 > DEFAULT_CHUNK_ENTRIES * 0.9
    task = (k_lo, table.primes[: k_hi + 1])
    _chunk_counts(task)  # build the presieve patterns outside the trace
    tracemalloc.start()
    try:
        _chunk_counts(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("k", [5000, 30_000])
def test_chunk_counts_match_full_strike_at_default_size(k):
    # One default chunk: striking below the cube root of its end and
    # subtracting the semiprimes gives the counts of the full strike.
    table = build_prime_table(360_000)  # p_30001 = 350381
    (k_lo, k_hi) = _chunk_bounds(k, k + 200, table, DEFAULT_CHUNK_ENTRIES)[0]
    ps = table.primes[: k_hi + 1]
    sq = ps[k_lo - 1 :] ** 2
    assert sq[-1] - sq[0] > DEFAULT_CHUNK_ENTRIES * 0.9
    assert _chunk_counts((k_lo, ps)).tolist() == np.diff(_primes_below(int(sq[0]), sq, ps)).tolist()


def test_scan_builds_one_lookup_before_the_pool(table_small, monkeypatch):
    # The parent builds the lookup once, for the scan's last bound; the
    # workers read the copy they inherit and never build one.
    parent = os.getpid()
    ends = []

    def lookup_in_parent(end, base_primes):
        assert os.getpid() == parent, "a worker built its own lookup"
        ends.append(end)
        return _semiprime_lookup(end, base_primes)

    monkeypatch.setattr(intervals, "_semiprime_lookup", lookup_in_parent)
    reference = _columns(build_intervals(80, table_small))
    for threads in (1, 2):
        ends.clear()
        assert _columns(build_intervals(80, table_small, threads=threads,
                                        chunk_entries=4096)) == reference
        assert ends == [table_small.nth(81) ** 2]
        assert sieve_core._shared is None
