"""The interval decomposition s_k = [p_k^2, p_{k+1}^2 - 1] made concrete.

Every integer in s_k is either divisible by one of the first k primes or
prime, so sieving s_k with exactly P_k determines its primes. The scan
here works in chunks of consecutive intervals: one span per chunk,
counted by ``sieve_core._primes_below``, which streams the span's mod-30
wheel rows one cache-sized block at a time and sums the primes below
every square of the chunk. Each interval's count is the difference at
its two squares, so no worker holds more than one block of flags.
Marking a chunk [A, B) with all of P_k is more than it needs. Turned
around, the same picture says that striking it with only the primes
below T = ceil(cbrt(B)) (never below 19; the presieve covers 7..17)
leaves the primes and the semiprimes q*m with T <= q <= m. The counter
counts the survivors below each square and subtracts those semiprimes,
which it counts instead of striking them: the P2 term of Meissel-Lehmer
(D. H. Lehmer, Illinois J. Math. 3 (1959); M. Deleglise and J. Rivat,
Math. Comp. 65 (1996)), read off one prime-count table up to about
B^(2/3). ``compute_interval_records`` builds that table once per scan
and hands it to its pool as ``sieve_core._shared``, so the workers share
its pages and no task carries it. A 2^25-integer chunk at k = 5000 then
strikes with about 200 primes instead of 5000. The primes 2 and 3 lie
in no s_k (s_1 starts at 4); 5, which has no wheel row, lies in s_1,
where the counter adds it. ``partial_counts`` asks the same counter,
striking with every base prime, for one bound.

Chunk geometry (``chunk_entries``, the CLI's ``--segment-size``) is a
span of integers: the unit of work handed to one worker and of one
checkpoint append. It does not set the memory a worker uses.

A scan is one loop over its chunks, whose counts come in k order from
``sieve_core._worker_map``: ``map``, or forked workers, which inherit
their tasks. The parent allocates the seven columns once
for the whole k range, writes each chunk's rows into them as its counts
arrive and hands the caller's ``progress`` hook views of those rows, so
it holds one copy of the scan's rows, whatever the number of chunks.

All per-interval quantities (pi_k, li_k, the PNT estimate) are computed
independently per k; neither chunk boundaries nor worker count can
change a single row, which is what makes parallel scans and
checkpoint resumes byte-reproducible. ``IntervalSet`` holds the rows as
read-only numpy columns.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional

import numpy as np

from . import analytic, sieve_core
from .errors import DomainError, ResourceError
from .sieve_core import PrimeTable, _primes_below, _semiprime_lookup, _worker_map

# Target chunk span in integers: the task granularity of a scan.
DEFAULT_CHUNK_ENTRIES = 1 << 25


@dataclasses.dataclass(frozen=True)
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class IntervalSet:
    """The decomposition for k = 1..k_max as read-only numpy columns.

    One column per ``IntervalRecord`` field except k, indexed by k - 1,
    plus the running sums ``pi_cum`` and ``li_cum``, built on first use
    (the primes 2, 3 and li(4) lie below s_1). A given column that already
    has its dtype is kept as a read-only view, not copied, and the
    caller's array keeps its flags.
    """

    # Column name -> dtype for every IntervalRecord field after k, in field order.
    COLUMNS = {f.name: {"int": np.int64, "float": np.float64}[f.type]
               for f in dataclasses.fields(IntervalRecord)[1:]}

    def __init__(self, columns):
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, _read_only(np.asarray(columns[name], dtype=dtype).view()))
        self.k_max = len(self.p_k)
        if self.k_max == 0 or self.p_k[0] != 2:
            raise DomainError("interval set must start at k = 1")
        if any(len(getattr(self, name)) != self.k_max for name in self.COLUMNS):
            raise DomainError("interval columns differ in length")
        broken = np.flatnonzero(self.p_k[1:] != self.p_next[:-1])
        if len(broken):
            raise DomainError(f"records not contiguous at k = {int(broken[0]) + 2}")
        self._squares = np.append(self.p_k, self.p_next[-1]) ** 2

    @functools.cached_property
    def pi_cum(self) -> np.ndarray:
        """pi(p_{k+1}^2) = 2 + sum_{j<=k} pi_j, indexed by k - 1."""
        return _read_only(2 + np.cumsum(self.pi_k))

    @functools.cached_property
    def li_cum(self) -> np.ndarray:
        """li(p_{k+1}^2) = li(4) + sum_{j<=k} li_j, indexed by k - 1."""
        return _read_only(analytic.li(4.0) + np.cumsum(self.li_k))

    def __len__(self) -> int:
        return self.k_max

    def record(self, k: int) -> IntervalRecord:
        """Row k of the columns."""
        if k < 1 or k > self.k_max:
            raise DomainError(f"k = {k} outside interval set (1..{self.k_max})")
        return IntervalRecord(k, *(getattr(self, name)[k - 1].item() for name in self.COLUMNS))

    def locate(self, x: int) -> int:
        """The unique k with p_k^2 <= x < p_{k+1}^2."""
        if x < self._squares[0] or x >= self._squares[-1]:
            raise DomainError(
                f"x = {x} outside covered range [{self._squares[0]}, {self._squares[-1]})")
        return int(np.searchsorted(self._squares, x, side="right"))


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


def _chunk_counts(task) -> np.ndarray:
    """pi_j for each interval of one chunk; ``task`` is (k_lo, p_1..p_{k_hi+1}).

    pi_j is the difference of the primes below consecutive squares, which
    the wheel counter sums block by block, striking below the cube root of
    the chunk's end and subtracting the semiprimes it leaves. In a scan
    the lookup is the pool's shared input; outside one the chunk builds
    its own.
    """
    k_lo, ps = task
    sq = ps[k_lo - 1 :] ** 2
    lookup = sieve_core._shared
    if lookup is None:
        lookup = _semiprime_lookup(int(sq[-1]), ps)
    return np.diff(_primes_below(int(sq[0]), sq, ps, lookup))


def _fill_rows(columns: dict, i: int, k_lo: int, pi_k: np.ndarray, table: PrimeTable) -> dict:
    """Write the rows k = k_lo, ..., k_lo + len(pi_k) - 1 of the
    ``IntervalSet.COLUMNS`` into ``columns`` from row i on; return views of them."""
    rows = {name: column[i : i + len(pi_k)] for name, column in columns.items()}
    p_k = table.primes[k_lo - 1 : k_lo - 1 + len(pi_k)]
    p_next = table.primes[k_lo : k_lo + len(pi_k)]
    rows["p_k"][:], rows["p_next"][:], rows["pi_k"][:] = p_k, p_next, pi_k
    np.subtract(p_next, p_k, out=rows["gap"])
    np.subtract(p_next * p_next, p_k * p_k, out=rows["length"])
    # li_between per k and math.log on Python ints: np.log can differ from
    # math.log in the last bit, which would change CSV bytes.
    ps, pns = p_k.tolist(), p_next.tolist()
    rows["li_k"][:] = [analytic.li_between(p * p, q * q) for p, q in zip(ps, pns)]
    rows["pnt_estimate"][:] = [l / math.log(q * q) for l, q in zip(rows["length"].tolist(), pns)]
    return rows


def compute_interval_records(
    k_from: int,
    k_to: int,
    table: PrimeTable,
    threads: int = 1,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    progress: Optional[Callable[[int, dict], None]] = None,
) -> dict:
    """The ``IntervalSet.COLUMNS`` for k in [k_from, k_to], sieved chunk by chunk.

    threads > 1 spreads the chunks over at most one forked worker per
    chunk; counts arrive in k order and are bit-identical for any
    thread count. ``progress(k_lo, rows)`` is called once per chunk,
    in k order, with views of that chunk's rows, starting at k_lo, of the
    returned columns, which are allocated once for the whole range. The
    scan's prime-count table is built first, so a table beyond
    ``sieve_core.DEFAULT_MEMORY_BUDGET`` raises ResourceError before any
    chunk is cut or sieved.
    """
    if k_from < 1 or k_to < k_from:
        raise DomainError(f"bad interval range [{k_from}, {k_to}]")
    if k_to + 1 > len(table):
        raise DomainError(f"table holds {len(table)} primes, need {k_to + 1}")
    if chunk_entries < 2:
        raise ResourceError("chunk_entries too small to hold an interval")
    lookup = _semiprime_lookup(table.nth(k_to + 1) ** 2, table.primes[: k_to + 1])
    chunks = _chunk_bounds(k_from, k_to, table, chunk_entries)
    tasks = [(k_lo, table.primes[: k_hi + 1]) for k_lo, k_hi in chunks]
    with _worker_map(threads, len(chunks), shared=lookup) as imap:
        columns = {name: np.empty(k_to - k_from + 1, dtype=dtype)
                   for name, dtype in IntervalSet.COLUMNS.items()}
        for (k_lo, _), pi_k in zip(chunks, imap(_chunk_counts, tasks)):
            rows = _fill_rows(columns, k_lo - k_from, k_lo, pi_k, table)
            if progress:
                progress(k_lo, rows)
    return columns


def build_intervals(
    k_max: int,
    table: PrimeTable,
    threads: int = 1,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    progress: Optional[Callable[[int, dict], None]] = None,
) -> IntervalSet:
    """The interval decomposition for k = 1..k_max."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    return IntervalSet(compute_interval_records(
        1, k_max, table, threads=threads, chunk_entries=chunk_entries, progress=progress))


def partial_counts(x: int, interval_set: IntervalSet, table: PrimeTable) -> tuple[int, float]:
    """(pi(x) - pi(p_k^2), li(x) - li(p_k^2)) for the interval containing x.

    Both are zero at x = p_k^2 and grow to (pi_k, li_k) at the right end.
    """
    k = interval_set.locate(x)
    lo = interval_set.record(k).p_k ** 2
    if x == lo:
        return 0, 0.0
    return int(_primes_below(lo, [x + 1], table.first(k))[0]), analytic.li_between(lo, x)
