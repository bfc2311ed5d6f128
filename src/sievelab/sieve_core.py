"""Segmented sieve of Eratosthenes: prime tables, windowed sieving, counting.

Two marking disciplines live here and must not be confused:

* coprimality marking (``sieve_window``): every multiple of every sieve
  prime inside the window is struck, so survivors are exactly the
  integers coprime to the product of the sieve primes;
* primality marking (``_odd_primality``): survivors are exactly the odd
  primes of the window. Every primality count in the package goes
  through this one kernel: ``count_primes_upto``, the interval scan and
  ``partial_counts``/``gap_series`` in ``intervals``, ``maier_scan`` in
  ``stats_lab`` and the per-k fallback of ``legendre_scan``.

The primality kernel keeps one flag per odd integer, so a window spans
twice as many integers as it has flags. Each window starts as a copy of a
precomputed pattern in which the odd multiples of 3, 5, 7, 11, 13 and 17
are already struck (period 3*5*7*11*13*17 = 255255 odd slots); those six
primes are restored where they fall inside the window, and each base
prime p >= 19 then strikes its odd multiples from ``max(p*p, first odd
multiple >= lo)`` with stride p in odd-index space, one cache-sized
block of the window at a time. The prime 2 has no flag:
``count_primes_upto`` adds it explicitly, and no interval s_k contains
it since s_1 starts at 4.

On a window ``[p_k^2, p_{k+1}^2 - 1]`` sieved by the first k primes the
two disciplines coincide, which is the property everything downstream
leans on.

Prime indexing is 1-based throughout: ``p_1 = 2``, ``p_2 = 3``,
``p_3 = 5``. Off-by-one here corrupts every downstream interval, so all
index arguments are named ``k`` and documented as 1-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

# Default segment span (integers) for segmented counting; flags cover its odd half.
DEFAULT_SEGMENT = 1 << 20

# Guard against accidentally allocating huge sieve arrays (bytes).
DEFAULT_MEMORY_BUDGET = 1 << 31


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``bound``, immutable and shareable across workers."""

    bound: int
    primes: np.ndarray  # int64, strictly increasing, read-only

    def __len__(self) -> int:
        return len(self.primes)

    def nth(self, k: int) -> int:
        """p_k under the 1-based convention (p_1 = 2)."""
        if k < 1 or k > len(self.primes):
            raise DomainError(f"prime index {k} outside table (1..{len(self.primes)})")
        return int(self.primes[k - 1])

    def first(self, k: int) -> np.ndarray:
        """The first k primes as an array (a view, do not mutate)."""
        if k < 0 or k > len(self.primes):
            raise DomainError(f"cannot take first {k} primes from table of {len(self.primes)}")
        return self.primes[:k]

    def count_upto(self, x: int) -> int:
        """Number of table primes <= x; requires x <= bound."""
        if x > self.bound:
            raise DomainError(f"x={x} exceeds table bound {self.bound}")
        return int(np.searchsorted(self.primes, x, side="right"))


@dataclass
class SieveWindow:
    """Window ``[lo, hi]`` with survivor flags after coprimality sieving."""

    lo: int
    hi: int
    flags: np.ndarray = field(repr=False)  # bool, length hi - lo + 1

    def count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def survivors(self):
        idx = np.flatnonzero(self.flags)
        if self.lo <= np.iinfo(np.int64).max - len(self.flags):
            return idx + self.lo
        return [int(i) + self.lo for i in idx]  # window start beyond int64


def build_prime_table(bound: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PrimeTable:
    """Enumerate all primes <= bound with a plain Eratosthenes sieve.

    Args:
        bound: inclusive upper limit, must be >= 2.
        memory_budget: cap in bytes on the sieve allocation.

    Returns:
        PrimeTable with a read-only int64 prime array.
    """
    if bound < 2:
        raise DomainError(f"prime table bound must be >= 2, got {bound}")
    if bound + 1 > memory_budget:
        raise ResourceError(f"prime table bound {bound} exceeds memory budget {memory_budget} bytes")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64)
    primes.setflags(write=False)
    return PrimeTable(bound=bound, primes=primes)


def sieve_window(lo: int, hi: int, sieve_primes, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SieveWindow:
    """Strike every multiple of every sieve prime in ``[lo, hi]``.

    Survivors are exactly the n with gcd(n, prod(sieve_primes)) = 1. The
    window start may be any integer >= 2, including arbitrary-precision
    shifts: only offsets modulo each prime are materialised.

    Args:
        lo, hi: inclusive window, 2 <= lo <= hi.
        sieve_primes: non-empty ascending sequence of primes.
        memory_budget: cap in bytes on the flag allocation.
    """
    if lo < 2 or hi < lo:
        raise DomainError(f"bad window [{lo}, {hi}]")
    length = hi - lo + 1
    if length > memory_budget:
        raise ResourceError(f"window length {length} exceeds memory budget {memory_budget} bytes")
    if len(sieve_primes) == 0:
        raise DomainError("sieve_primes must be non-empty")
    flags = np.ones(length, dtype=bool)
    for p in sieve_primes:
        p = int(p)
        start = (-lo) % p  # offset of the first multiple of p at or after lo
        flags[start::p] = False
    return SieveWindow(lo=lo, hi=hi, flags=flags)


# Odd primes struck by the presieve pattern; base primes below 19 are skipped.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13, 17)
_PRESIEVE_PERIOD = 3 * 5 * 7 * 11 * 13 * 17  # odd slots per pattern repeat

# Odd slots struck together by all base primes: 1 MiB of flags, half a 2 MiB L2.
_BLOCK_SLOTS = 1 << 20


@functools.cache
def _presieve_pattern() -> np.ndarray:
    """Flags for the odd integers 1, 3, 5, ...: False on odd multiples of 3..17.

    Built on first use, so processes that never mark primality skip it.
    """
    pattern = np.ones(_PRESIEVE_PERIOD, dtype=bool)
    for q in _PRESIEVE_PRIMES:
        pattern[(q - 1) // 2 :: q] = False  # slot j holds 2j + 1
    pattern.setflags(write=False)
    return pattern


def _odd_index(n, first):
    """Number of odd integers in [first, n) for odd first and n >= first - 1.

    Works elementwise on integer arrays; it is the flag index of n when n
    is odd and of n + 1 when n is even.
    """
    return (n - first + 1) // 2


def _odd_primality(lo: int, hi: int, base_primes) -> tuple[int, np.ndarray]:
    """Flags of the odd integers in [lo, hi]: True exactly on the odd primes.

    Returns ``(first, flags)`` with ``flags[i]`` standing for the integer
    ``first + 2*i``, where ``first`` is the smallest odd integer >= lo.
    The prime 2 has no flag. ``base_primes`` is ascending and must hold
    every prime up to sqrt(hi); entries below 19 are ignored because the
    presieve pattern already covers them. Requires lo >= 0.
    """
    first = lo | 1
    size = max(0, (hi - first) // 2 + 1)
    flags = np.empty(size, dtype=bool)
    # Copy one period of the pattern, rotated to start at first, then
    # double the filled prefix: it always holds whole periods.
    pattern = _presieve_pattern()
    offset = (first // 2) % _PRESIEVE_PERIOD
    head = min(_PRESIEVE_PERIOD - offset, size)
    flags[:head] = pattern[offset : offset + head]
    tail = min(offset, size - head)
    flags[head : head + tail] = pattern[:tail]
    filled = head + tail
    while filled < size:
        step = min(filled, size - filled)
        flags[filled : filled + step] = flags[:step]
        filled += step
    if first == 1 and size:
        flags[0] = False  # 1 is not prime
    for q in _PRESIEVE_PRIMES:
        if lo <= q <= hi:
            flags[(q - first) // 2] = True
    # Strike block by block so each block stays cache-resident while every
    # base prime passes over it; nxt[j] is the next odd slot primes[j] strikes.
    base = np.asarray(base_primes)
    primes = base[int(np.searchsorted(base, _PRESIEVE_PRIMES[-1], side="right")):
                  int(np.searchsorted(base, math.isqrt(hi), side="right"))].tolist()
    nxt = []
    for p in primes:
        start = max(p * p, (first + p - 1) // p * p)
        if not start & 1:
            start += p  # first odd multiple
        nxt.append((start - first) // 2)
    for a in range(0, size, _BLOCK_SLOTS):
        b = min(a + _BLOCK_SLOTS, size)
        block = flags[a:b]
        for j, p in enumerate(primes):
            i = nxt[j]
            if i < b:
                block[i - a :: p] = False
                nxt[j] = i + (b - i + p - 1) // p * p
    return first, flags


def count_primes_upto(x: int, table: PrimeTable, segment_size: int = DEFAULT_SEGMENT) -> int:
    """Exact pi(x) by segmented sieving with base primes from the table.

    Requires x <= table.bound**2 so that the base primes cover sqrt(x).
    ``segment_size`` is a span of integers; its flags take half as many
    bytes. Segments are independent; the count is identical for any
    segmentation. The odd-only kernel has no flag for 2, so it is added
    here.
    """
    if x < 2:
        raise DomainError(f"pi(x) needs x >= 2, got {x}")
    if x <= table.bound:
        return table.count_upto(x)
    if x > table.bound * table.bound:
        raise DomainError(f"x={x} exceeds table capacity bound^2 = {table.bound**2}")
    if segment_size < 2:
        raise DomainError("segment_size must be >= 2")
    root = math.isqrt(x)
    base = table.primes[: int(np.searchsorted(table.primes, root, side="right"))]
    total = 1  # the prime 2
    lo = 2
    while lo <= x:
        hi = min(lo + segment_size - 1, x)
        total += int(np.count_nonzero(_odd_primality(lo, hi, base)[1]))
        lo = hi + 1
    return total


def nth_prime(k: int, table: PrimeTable) -> int:
    """p_k, 1-based (p_1 = 2, p_3 = 5)."""
    return table.nth(k)
