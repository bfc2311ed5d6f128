import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sievelab import (
    DomainError,
    Window,
    build_intervals,
    count_coprime_direct,
    count_primes_upto,
    gap_series,
    locate_interval,
    partial_counts,
)
from sievelab.intervals import compute_interval_records

from _oracles import li_between_oracle


def test_first_record(table_small):
    r = build_intervals(1, table_small).records[0]
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
    for r in set1000.records:
        assert r.length == 2 * r.p_next * r.gap - r.gap * r.gap


def test_pi_k_at_least_one(set1000):
    assert min(r.pi_k for r in set1000.records) >= 1


def test_sandwich_per_record(set1000):
    for r in set1000.records:
        lo_est = r.length / math.log(r.p_k ** 2)
        assert r.pnt_estimate < r.li_k < lo_est


def test_length_telescoping(set1000):
    total = 0
    for r in set1000.records:
        total += r.length
        assert total == r.p_next ** 2 - 4


def test_pi_telescoping_against_counting(table, set1000):
    running = 0
    for r in set1000.records:
        running += r.pi_k
        if r.k in (10, 100, 1000):
            assert running == count_primes_upto(r.p_next ** 2, table) - 2


def test_pi_matches_coprime_count(table_small, set200):
    for k in range(1, 31):
        r = set200.record(k)
        w = Window(r.p_k ** 2, r.p_next ** 2 - 1)
        assert count_coprime_direct(w, k, table_small).count == r.pi_k


def test_ratio_convergence_band(set1000):
    ratios = [r.pi_k / r.pnt_estimate for r in set1000.records[499:1000]]
    assert 0.95 <= np.mean(ratios) <= 1.05


def test_li_k_column_matches_oracle(set200):
    for k in (1, 2, 50, 200):
        r = set200.record(k)
        assert r.li_k == pytest.approx(
            li_between_oracle(r.p_k ** 2, r.p_next ** 2), rel=1e-12)


def test_locate_interval(set200):
    assert locate_interval(25, set200) == 3
    assert locate_interval(48, set200) == 3
    assert locate_interval(24, set200) == 2
    with pytest.raises(DomainError):
        locate_interval(3, set200)
    with pytest.raises(DomainError):
        locate_interval(set200.record(200).p_next ** 2, set200)


def test_partial_counts(table_small, set200):
    assert partial_counts(25, set200, table_small) == (0, 0.0)
    pi_part, li_part = partial_counts(48, set200, table_small)
    assert pi_part == 6
    assert li_part == pytest.approx(li_between_oracle(25, 48), rel=1e-10)
    assert partial_counts(30, set200, table_small)[0] == 1  # only 29


def test_gap_series(table, set1000):
    g3 = gap_series(3, set1000, table)
    assert g3.pairs == [(29, 2), (31, 6), (37, 4), (41, 2), (43, 4)]
    g1 = gap_series(1, set1000, table)
    assert g1.pairs == [(5, 2)]
    g500 = gap_series(500, set1000, table)
    assert g500.expected_gap == pytest.approx(2 * math.log(3581), rel=1e-15)
    assert abs(g500.mean_gap - g500.expected_gap) / g500.expected_gap < 0.1


def test_contiguity(set200):
    for a, b in zip(set200.records, set200.records[1:]):
        assert b.p_k == a.p_next


def test_chunking_and_threads_invisible(table_small):
    base = build_intervals(80, table_small).records
    tiny_chunks = build_intervals(80, table_small, chunk_entries=4096).records
    threaded = build_intervals(80, table_small, threads=2).records
    assert base == tiny_chunks == threaded


def test_partial_range_matches_full(table_small):
    full = build_intervals(60, table_small).records
    tail = compute_interval_records(31, 60, table_small)
    assert full[30:] == tail


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
    reference = compute_interval_records(k_from, k_to, table_small)
    assert compute_interval_records(k_from, k_to, table_small,
                                    chunk_entries=chunk_entries) == reference
