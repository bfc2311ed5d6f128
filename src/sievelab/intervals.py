"""The interval decomposition s_k = [p_k^2, p_{k+1}^2 - 1] made concrete.

Every integer in s_k is either divisible by one of the first k primes or
prime, so sieving s_k with exactly P_k determines its primes. The scan
here works in chunks of consecutive intervals: one span per chunk,
marked once by the odds-only presieved primality kernel of
``sieve_core``, with per-interval counts taken between the odd indices
of the square boundaries. Marking a chunk with primes beyond p_k only
ever hits already-composite entries inside s_k, so the chunk result
equals the defining per-interval sieve while costing one pass per prime
per chunk. The kernel holds no flag for the even prime 2, which lies in
no s_k (s_1 starts at 4), so interval counts need no correction.

Chunk geometry (``chunk_entries``, the CLI's ``--segment-size``) is a
span of integers; its flag array takes half as many bytes.

All per-record quantities (pi_k, li_k, the PNT estimate) are computed
independently per k; neither chunk boundaries nor worker count can
change a single record, which is what makes parallel scans and
checkpoint resumes byte-reproducible.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import analytic
from .errors import DomainError, ResourceError
from .sieve_core import PrimeTable, _odd_index, _odd_primality

# Target chunk span in integers; one bool flag per odd integer.
DEFAULT_CHUNK_ENTRIES = 1 << 25


@dataclass(frozen=True)
class IntervalRecord:
    """One row of the decomposition: geometry plus exact and estimated counts."""

    k: int
    p_k: int
    p_next: int
    gap: int            # g_k = p_{k+1} - p_k
    length: int         # l_k = p_{k+1}^2 - p_k^2 = 2 p_{k+1} g_k - g_k^2
    pi_k: int           # exact prime count of s_k
    li_k: float         # integral of dt/log t over s_k
    pnt_estimate: float  # l_k / log p_{k+1}^2


@dataclass
class GapSeries:
    """Consecutive prime gaps inside one interval s_k."""

    k: int
    pairs: list          # [(p_i, g_i), ...] with p_i and p_i + g_i both in s_k
    mean_gap: float
    expected_gap: float  # log p_{k+1}^2


class IntervalSet:
    """Contiguous records for k = 1..k_max, immutable once built."""

    def __init__(self, records: list[IntervalRecord]):
        if not records or records[0].k != 1:
            raise DomainError("interval set must start at k = 1")
        for a, b in zip(records, records[1:]):
            if b.k != a.k + 1 or b.p_k != a.p_next:
                raise DomainError(f"records not contiguous at k = {b.k}")
        self.records = records
        self.k_max = records[-1].k
        squares = [r.p_k * r.p_k for r in records]
        squares.append(records[-1].p_next ** 2)
        self._squares = np.array(squares, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.records)

    def record(self, k: int) -> IntervalRecord:
        if k < 1 or k > self.k_max:
            raise DomainError(f"k = {k} outside interval set (1..{self.k_max})")
        return self.records[k - 1]

    def locate(self, x: int) -> int:
        """The unique k with p_k^2 <= x < p_{k+1}^2."""
        if x < self._squares[0] or x >= self._squares[-1]:
            raise DomainError(
                f"x = {x} outside covered range [{self._squares[0]}, {self._squares[-1]})")
        return int(np.searchsorted(self._squares, x, side="right"))

    # Column views used by the statistics modules.
    def pi_array(self) -> np.ndarray:
        return np.array([r.pi_k for r in self.records], dtype=np.int64)

    def li_array(self) -> np.ndarray:
        return np.array([r.li_k for r in self.records])

    def length_array(self) -> np.ndarray:
        return np.array([r.length for r in self.records], dtype=np.int64)

    def gap_array(self) -> np.ndarray:
        return np.array([r.gap for r in self.records], dtype=np.int64)

    def p_next_array(self) -> np.ndarray:
        return np.array([r.p_next for r in self.records], dtype=np.int64)


def _chunk_bounds(k_from: int, k_to: int, table: PrimeTable, chunk_entries: int) -> list:
    """Split [k_from, k_to] into consecutive runs spanning <= chunk_entries."""
    chunks = []
    k = k_from
    while k <= k_to:
        lo = table.nth(k) ** 2
        k_hi = k
        while k_hi < k_to and table.nth(k_hi + 2) ** 2 - lo <= chunk_entries:
            k_hi += 1
        chunks.append((k, k_hi))
        k = k_hi + 1
    return chunks


_POOL_PRIMES: Optional[np.ndarray] = None


def _pool_init(primes: np.ndarray) -> None:
    global _POOL_PRIMES
    _POOL_PRIMES = primes


def _chunk_pi_counts_impl(k_lo: int, k_hi: int, primes: np.ndarray) -> np.ndarray:
    ps = primes
    sq = ps[k_lo - 1 : k_hi + 1].astype(np.int64) ** 2
    lo = int(sq[0])
    hi = int(sq[-1]) - 1
    root = math.isqrt(hi)
    base = ps[: int(np.searchsorted(ps, root, side="right"))]
    first, flags = _odd_primality(lo, hi, base)
    bounds = _odd_index(sq, first)
    counts = np.empty(len(sq) - 1, dtype=np.int64)
    for i in range(len(counts)):
        counts[i] = np.count_nonzero(flags[bounds[i] : bounds[i + 1]])
    return counts


def _chunk_pi_counts(args) -> np.ndarray:
    k_lo, k_hi = args
    return _chunk_pi_counts_impl(k_lo, k_hi, _POOL_PRIMES)


def compute_interval_records(
    k_from: int,
    k_to: int,
    table: PrimeTable,
    threads: int = 1,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    progress: Optional[Callable[[int, int], None]] = None,
) -> list[IntervalRecord]:
    """Records for k in [k_from, k_to], sieved chunk by chunk.

    threads > 1 distributes whole chunks over a fork pool; records are
    assembled in k order and are bit-identical for any thread count.
    """
    if k_from < 1 or k_to < k_from:
        raise DomainError(f"bad interval range [{k_from}, {k_to}]")
    if k_to + 1 > len(table):
        raise DomainError(f"table holds {len(table)} primes, need {k_to + 1}")
    if chunk_entries < 2:
        raise ResourceError("chunk_entries too small to hold an interval")
    chunks = _chunk_bounds(k_from, k_to, table, chunk_entries)

    if threads and threads > 1 and len(chunks) > 1:
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=threads, initializer=_pool_init,
                      initargs=(table.primes,)) as pool:
            counts_per_chunk = []
            for i, counts in enumerate(pool.imap(_chunk_pi_counts, chunks)):
                counts_per_chunk.append(counts)
                if progress:
                    progress(chunks[i][1], k_to)
    else:
        counts_per_chunk = []
        for i, (k_lo, k_hi) in enumerate(chunks):
            counts_per_chunk.append(_chunk_pi_counts_impl(k_lo, k_hi, table.primes))
            if progress:
                progress(k_hi, k_to)

    records = []
    for (k_lo, k_hi), counts in zip(chunks, counts_per_chunk):
        for off, k in enumerate(range(k_lo, k_hi + 1)):
            p = table.nth(k)
            p_next = table.nth(k + 1)
            length = p_next * p_next - p * p
            records.append(IntervalRecord(
                k=k,
                p_k=p,
                p_next=p_next,
                gap=p_next - p,
                length=length,
                pi_k=int(counts[off]),
                li_k=analytic.li_between(p * p, p_next * p_next),
                pnt_estimate=length / math.log(p_next * p_next),
            ))
    return records


def build_intervals(
    k_max: int,
    table: PrimeTable,
    threads: int = 1,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    progress: Optional[Callable[[int, int], None]] = None,
) -> IntervalSet:
    """The interval decomposition for k = 1..k_max."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    return IntervalSet(compute_interval_records(
        1, k_max, table, threads=threads, chunk_entries=chunk_entries, progress=progress))


def locate_interval(x: int, interval_set: IntervalSet) -> int:
    """The unique k with p_k^2 <= x < p_{k+1}^2."""
    return interval_set.locate(x)


def partial_counts(x: int, interval_set: IntervalSet, table: PrimeTable) -> tuple[int, float]:
    """(pi(x) - pi(p_k^2), li(x) - li(p_k^2)) for the interval containing x.

    Both are zero at x = p_k^2 and grow to (pi_k, li_k) at the right end.
    """
    k = interval_set.locate(x)
    lo = interval_set.record(k).p_k ** 2
    if x == lo:
        return 0, 0.0
    _, flags = _odd_primality(lo, x, table.first(k))
    return int(np.count_nonzero(flags)), analytic.li_between(lo, x)


def gap_series(k: int, interval_set: IntervalSet, table: PrimeTable) -> GapSeries:
    """All consecutive prime gaps with both endpoints inside s_k."""
    rec = interval_set.record(k)
    lo, hi = rec.p_k ** 2, rec.p_next ** 2 - 1
    first, flags = _odd_primality(lo, hi, table.first(k))
    primes = 2 * np.flatnonzero(flags).astype(np.int64) + first
    gaps = np.diff(primes)
    pairs = [(int(p), int(g)) for p, g in zip(primes[:-1], gaps)]
    mean_gap = float(np.mean(gaps)) if len(gaps) else float("nan")
    return GapSeries(k=k, pairs=pairs, mean_gap=mean_gap,
                     expected_gap=math.log(rec.p_next ** 2))
