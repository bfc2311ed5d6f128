"""Windowed coprimality counts S(A, p_k#) and the interval Legendre identity.

The divisibility markers rho_i(n) (= p_i when p_i | n, else 1) and their
product R_k(n) are periodic with period p_k#, so a window of length l
has only p_k# distinct coprimality patterns. Counting survivors in a
window A = [lo, hi] can be done three ways, all exposed here:

* direct:    ``sieve_window`` strikes multiples of each p in P_k; count the rest;
* legendre:  inclusion-exclusion over squarefree divisors d of p_k#,
             sum of mu(d) * (floor(hi/d) - floor((lo-1)/d)), which is
             exact for any window (the interval form resolves the
             rounding ambiguity of the one-endpoint identity);
* truncated: the same enumeration restricted to d below a bound. Terms
             with d > hi vanish identically, so truncating the exact
             identity at p_{k+1}^2 changes nothing; what the bound does
             change is the smooth mean form l * sum_{d < B} mu(d)/d,
             whose ratio against l / log p_{k+1}^2 drops from
             2 e^{-gamma} to about 1.03. That mean form is
             expected_legendre_truncated below.

For large k the truncated mean is evaluated without enumerating the
(polynomially many, but millions of) admissible divisors: any d < B
with B <= p_{k+1}^2 has at most one prime factor above p_k, so

    sum_{d < B, P_k-smooth} mu(d)/d
        = M(B-1) + sum_{q prime, p_{k+1} <= q <= B-1} M((B-1)//q) / q

with M(y) = sum_{m <= y} mu(m)/m over all integers. The same
decomposition counts the admissible divisors via the squarefree
counting function Q: the count is Q(B-1) - sum_q Q((B-1)//q).

Both prime sums read their summand only at the lattice points
t = (B-1)//q < p_{k+1} (Deleglise & Rivat's grouping for the Mobius
summation, Exp. Math. 5, 1996). MoebiusContext finds, for each t, how
many primes q >= p_{k+1} share it: pi((B-1)//t) - pi((B-1)//(t+1)),
from binary searches on its prime list (every prime up to its limit, as
int32, from ``sieve_core._prime_list``; _search casts each needle to
int32 first, as numpy copies the list for a needle of another dtype), so
a bound costs O(p_{k+1}) searches instead of a floor division per prime.
The term count is then one exact integer dot product over t. The
truncated sum keeps its terms per prime, M(t)/q, added over the
ascending q in the order of numpy's pairwise sum (Higham, SIAM J. Sci.
Comput. 14, 1993): exactly the float operations of the per-prime form,
with no array per prime.
_pairwise_sum splits the terms where numpy's pairwise_sum does, down to
leaves of _SUM_LEAF terms, and np.sum adds each leaf, computed in one
buffer: the leaf's q are cast to float64 into it, a lattice point with
_DENSE_COUNT primes or more divides its M(t) by its slice of them, and
only the sparse points before them repeat M(t) per prime. Summing
M(t) * (S((B-1)/t) - S((B-1)/(t+1))) per t, with S(v) = sum_{p <= v} 1/p,
would reorder the additions and move the last bits of ratio_truncated.

M(B-1) reads mu from int8 blocks, each exact after two phases: struck
by the primes up to r = isqrt(limit), then mu(q * m) = -mu(m) written
for the primes q > r with q * m in the block (n <= limit has at most one
such factor). M(y) is one running float over the grid of interval ends
g = p_j^2 - 1, j >= 27, up to the context's limit: each segment from the
previous end (or m = 1) is cut into pieces of 2^22 integers from its own
start, and each piece's np.sum of mu(m)/m is added to it. A block holds
whole pieces, about 2^21 integers (a longer piece is a block of its
own), and is one task of _m_tasks: the process that runs it sieves the
block and returns the np.sum of each piece, and only the running float's
adds are in order, as in Deleglise & Rivat's segmented sum of M, so no
array spans the range. sum_grid, or else the first m_full call, walks
the whole grid and keeps M at each end; a y off the grid sieves only
(last g <= y, y] and adds its own pieces. So M(y), and each scan
column's entry for k, depends on y alone: legendre_scan(k, k) holds row
k of any longer scan.

One rule, _enumerated, picks the path of the truncated sum, the term
count and the scan alike: the context serves exactly the bounds in
(2^20, p_{k+1}^2], and every other bound is enumerated (for k <= 25
that is every bound, as p_26^2 < 2^20). The enumeration is one array
builder, _squarefree_products: every squarefree product d <= limit of
the ascending primes, with mu(d) and the index of its largest prime,
d = 1 first and the rest in depth-first order with the smallest prime
first. _enumerated_rows serves any (k, bound) rows from one such array
over the primes of their largest k. The depth-first order is the
lexicographic order of index tuples, and a filter keeps order, so the
terms with largest prime index <= k and d < bound are k's own
enumeration, term for term; each row adds its mu(d)/d one at a time in
that order, _ENUM_BLOCK terms of the enumeration at a time. legendre_scan
takes the sums and counts of all its enumerated rows (k <= 171, where
p_{k+1}^2 <= 2^20) from one call.

legendre_scan with no context rows (k_to <= 171) enumerates in the
calling process and forks nothing; otherwise that process builds only
the context. The blocks of M's grid, then one task of the enumerated
rows, then the context rows (k >= 172) in k-order tasks of _SCAN_BLOCK k
go as one map to at most ``threads`` workers forked once by
``sieve_core._worker_map``, which inherit the context's pages as the
pool's shared input. truncated_sum is M(y) plus prime_sum's tail, and
only M reads the grid: a worker returns each grid piece's sum, the
enumerated rows' (sum, term count) or each context k's (y, tail, term
count), while the parent adds the piece sums into M's grid in order and
then adds M(y) + tail in k order. With one worker the same tasks run
through the builtin ``map``. Each float comes from the same operations
in the same order as in one process, so no bit of a column depends on
``threads``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import analytic, sieve_core
from .errors import DomainError, ResourceError
from .sieve_core import (_INT64_MAX, DEFAULT_MEMORY_BUDGET, PrimeTable, _prime_list, _worker_map,
                         sieve_window)
from .stats_lab import ScanSeries

# Abort inclusion-exclusion enumerations beyond this many terms.
DEFAULT_TERM_CAP = 5_000_000

# M(y)'s grid of interval ends is p_{k+1}^2 - 1 for k > _M_GRID_K0, from
# p_27^2 - 1 = 10608 on: every bit of M(y) depends on this value.
_M_GRID_K0 = 25

# Integers per mu block of _m_tasks and _mobius_array (2 MiB of int8 values),
# unless one piece of M(y)'s running sum is longer.
_MOBIUS_BLOCK = 1 << 21

# Integers per np.sum of MoebiusContext's running sum M(y).
_M_CHUNK = 1 << 22

# Terms per block of _enumerated_rows' enumeration.
_ENUM_BLOCK = 1 << 15

# Terms per leaf of _pairwise_sum (prime_sum's tail, M's pieces); at least
# numpy's 128-term block, so that a leaf's np.sum continues numpy's own tree.
_SUM_LEAF = 1 << 16

# Primes per lattice point from which truncated_sum divides M(t) by its q
# without repeating it, and the most terms it repeats M(t) for at once.
_DENSE_COUNT = 512
_SPARSE_RUN = 1 << 12


@dataclass(frozen=True)
class Window:
    """Inclusive integer window, optionally tagged as a shifted interval s_k^j."""

    lo: int
    hi: int
    shift: Optional[tuple[int, int]] = None  # (k, j) when the window is s_k^j

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise DomainError(f"bad window [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class CoprimeCount:
    window: Window
    k: int
    count: int
    method: str               # direct | legendre_full | legendre_truncated
    terms_evaluated: int      # admissible inclusion-exclusion terms (0 for direct)


@dataclass(frozen=True)
class PrimorialValue:
    k: int
    value: int  # exact p_k# as an arbitrary-precision integer


def primorial(k: int, table: PrimeTable) -> PrimorialValue:
    """p_k# = product of the first k primes, exact."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    value = 1
    for p in table.first(k):
        value *= int(p)
    return PrimorialValue(k=k, value=value)


def shifted_window(k: int, j: int, table: PrimeTable) -> Window:
    """s_k^j = [p_k^2 + j, p_{k+1}^2 - 1 + j] with 0 <= j < p_k#."""
    if j < 0 or j >= primorial(k, table).value:
        raise DomainError(f"shift j={j} outside [0, p_{k}#)")
    p, p_next = table.nth(k), table.nth(k + 1)
    return Window(lo=p * p + j, hi=p_next * p_next - 1 + j, shift=(k, j))


def rho(i: int, n: int, table: PrimeTable) -> int:
    """p_i if p_i divides n, else 1. Periodic in n with period p_i."""
    if i < 1 or n < 1:
        raise DomainError(f"rho needs i >= 1 and n >= 1, got ({i}, {n})")
    p = table.nth(i)
    return p if n % p == 0 else 1


def big_r(k: int, n: int, table: PrimeTable) -> int:
    """Product of all p_i <= p_k dividing n; 1 iff gcd(n, p_k#) = 1.

    Periodic in n with period p_k#; computed in arbitrary precision.
    """
    if k < 1 or n < 1:
        raise DomainError(f"big_r needs k >= 1 and n >= 1, got ({k}, {n})")
    value = 1
    for p in table.first(k):
        p = int(p)
        if p > n:
            break
        if n % p == 0:
            value *= p
    return value


def count_coprime_direct(window: Window, k: int, table: PrimeTable,
                         memory_budget: int = DEFAULT_MEMORY_BUDGET) -> CoprimeCount:
    """S(A, p_k#) by ``sieve_window``'s striking; works for arbitrarily shifted windows.

    Only offsets modulo each prime touch the flag array, so the window
    start may be an arbitrary-precision integer.
    """
    length = window.length
    if length > memory_budget:
        raise ResourceError(f"window length {length} exceeds budget {memory_budget}")
    count = int(window.lo == 1)  # 1 is coprime to every prime; sieve_window starts at 2
    lo, primes = window.lo + count, table.first(k)
    if lo <= window.hi:
        count += (sieve_window(lo, window.hi, primes, memory_budget).count() if len(primes)
                  else window.hi - lo + 1)
    return CoprimeCount(window=window, k=k, count=count, method="direct", terms_evaluated=0)


def count_coprime_legendre(window: Window, k: int, table: PrimeTable,
                           truncate_below: Optional[int] = None,
                           term_cap: int = DEFAULT_TERM_CAP) -> CoprimeCount:
    """S(A, p_k#) by inclusion-exclusion over squarefree divisors of p_k#.

    count = sum over admissible d of mu(d) * (hi//d - (lo-1)//d), where
    admissible means d <= hi (larger d contribute 0) and, when
    truncate_below is set, d < truncate_below. With truncate_below unset
    the result equals the direct count exactly.
    """
    lo_m1 = window.lo - 1
    hi = window.hi
    d_max = hi if truncate_below is None else min(hi, truncate_below - 1)
    d, mu, _ = _squarefree_products(table.first(k), d_max, term_cap)
    if hi > _INT64_MAX:
        d = d.astype(object)  # hi // d needs Python ints once hi leaves int64
    count = sum((mu * (hi // d - lo_m1 // d)).tolist())
    method = "legendre_full" if truncate_below is None else "legendre_truncated"
    return CoprimeCount(window=window, k=k, count=count, method=method,
                        terms_evaluated=len(d))


def expected_legendre(window_length: int, k: int, table: PrimeTable) -> float:
    """Mean of S(A, p_k#) over all shifts: |A| * prod_{p in P_k} (1 - 1/p)."""
    if window_length < 0:
        raise DomainError("window_length must be >= 0")
    return window_length * analytic.mertens_product(k, table).product


# ---------------------------------------------------------------------------
# Truncated smooth expansion and divisor accounting.
# ---------------------------------------------------------------------------

def _squarefree_products(ps, limit: int, term_cap: int = DEFAULT_TERM_CAP
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, mu(d), top) for every squarefree product d <= limit of the ascending primes ps.

    d = 1 comes first; the rest follow in depth-first order, smallest
    prime first, which is the lexicographic order of their index tuples.
    The list for ps[j:] is built from the one for ps[j+1:]:
    L_j = [1] ++ p_j * L_{j+1}[d <= limit // p_j] ++ L_{j+1}[1:].
    top is the 1-based index in ps of each term's largest prime (0 for
    d = 1), so the terms with top <= k are those of ps[:k]. d is int64
    when limit < 2^63 and holds Python ints otherwise; mu is int8.
    limit < 1 gives no terms. Raises ResourceError before holding more
    than term_cap terms.
    """
    top_dtype = np.min_scalar_type(len(ps))
    if limit < 1:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int8), np.zeros(0, top_dtype)
    d = np.ones(1, dtype=np.int64 if limit <= _INT64_MAX else object)
    mu = np.ones(1, dtype=np.int8)
    top = np.zeros(1, dtype=top_dtype)
    for j in range(len(ps) - 1, -1, -1):
        p = int(ps[j])
        keep = d <= limit // p
        size = len(d) + int(np.count_nonzero(keep))
        if size > term_cap:
            raise ResourceError(f"squarefree enumeration exceeded {term_cap} terms")
        # The first kept term, when there is one, is d = 1, whose product is p itself.
        top_p = top[keep]
        top_p[:1] = j + 1
        d = np.concatenate((d[:1], p * d[keep], d[1:]))
        mu = np.concatenate((mu[:1], -mu[keep], mu[1:]))
        top = np.concatenate((top[:1], top_p, top[1:]))
    return d, mu, top


def _search(primes: np.ndarray, x, side: str = "left"):
    """np.searchsorted on the ascending primes with the needle x cast to their dtype:
    a needle of another dtype, a Python int among them, makes numpy copy the list."""
    return np.searchsorted(primes, np.asarray(x, dtype=primes.dtype), side=side)


def _mobius_sieve(limit: int, primes: np.ndarray) -> tuple:
    """(small, large, ms, values): what _mobius_block needs for mu(n) over any n <= limit.

    primes is ascending, int32, int64 or float64, and holds every prime
    <= limit. Phase 1 strikes each block with the primes p in small, those
    <= r = isqrt(limit): it flips the sign of the multiples of p and zeroes
    the multiples of p^2, which is exact for r-smooth n. Any other n <= limit
    is q * m with exactly one prime q > r, from large, and m <= limit // (r+1)
    <= r, so mu(n) = -mu(m). Phase 2 writes that at m * q for every
    squarefree m, listed in ms with values = -mu(ms).
    """
    r = math.isqrt(limit)
    primes = primes[: int(_search(primes, limit, side="right"))]
    n_small = int(_search(primes, r, side="right"))
    small, large = primes[:n_small].astype(np.int64).tolist(), primes[n_small:]
    mu_m = _strike(0, limit // (r + 1) + 1, small)  # every such m is r-smooth
    ms = np.flatnonzero(mu_m)
    return small, large, ms, -mu_m[ms]


def _strike(lo: int, end: int, small: list) -> np.ndarray:
    """Phase 1 of _mobius_sieve over [lo, end): mu(n) up to the factors above small[-1]."""
    block = np.ones(end - lo, dtype=np.int8)
    for p in small:
        flip = block[_first_multiple(p, lo) :: p]
        np.negative(flip, out=flip)
        sq = p * p
        block[_first_multiple(sq, lo) :: sq] = 0
    if lo == 0:
        block[0] = 0
    return block


def _mobius_block(lo: int, end: int, small: list, large: np.ndarray,
                  ms: np.ndarray, values: np.ndarray) -> np.ndarray:
    """mu(n) for lo <= n < end as int8, by both phases of _mobius_sieve.

    Phase 2 lists each m's q in one slice of large, from one searchsorted
    pair over all m. Consecutive m are written together, in runs of at
    most len(block) // 32 products, so a run's index arrays stay within
    half the block's bytes; an m with more products runs alone. The
    products q * m are at most end - 1 <= limit, so exact in large's
    dtype (int32 below 2^31, float64 below 2^53), and each run is cast to
    int64 once.
    """
    block = _strike(lo, end, small)
    firsts = _search(large, -(-lo // ms))
    counts = _search(large, (end - 1) // ms, side="right") - firsts
    cum = np.cumsum(counts)  # products written up to each m
    run, a = max(1, len(block) // 32), 0
    while a < len(ms):
        done = int(cum[a] - counts[a])
        b = max(a + 1, int(np.searchsorted(cum, done + run, side="right")))
        if b == a + 1:
            idx = large[firsts[a] : firsts[a] + counts[a]] * ms[a]
        else:
            c = counts[a:b]
            idx = np.repeat(firsts[a:b] - (cum[a:b] - c - done), c)
            idx += np.arange(len(idx))
            idx = large[idx]
            idx *= np.repeat(ms[a:b], c)
        idx = idx.astype(np.int64, copy=False)
        idx -= lo
        block[idx] = np.repeat(values[a:b], counts[a:b])
        a = b
    return block


def _mobius_array(limit: int, primes: np.ndarray) -> np.ndarray:
    """mu(n) for 0 <= n <= limit (int8): _mobius_block every _MOBIUS_BLOCK integers, joined."""
    sieve = _mobius_sieve(limit, primes)
    return np.concatenate([_mobius_block(lo, min(lo + _MOBIUS_BLOCK, limit + 1), *sieve)
                           for lo in range(0, limit + 1, _MOBIUS_BLOCK)])


def _first_multiple(m: int, lo: int) -> int:
    """Offset from lo of the first positive multiple of m at or after lo."""
    return max(m, lo + (-lo) % m) - lo


def _m_tasks(ends: list) -> list:
    """The integers from ends[0] + 1 to ends[-1] as M's pieces, one (lo, pieces) task per block.

    Each segment between consecutive ends of the ascending ends is cut into
    pieces [pos, end) of _M_CHUNK integers from its own start. A block holds
    whole pieces from lo, about _MOBIUS_BLOCK integers (a longer piece is a
    block of its own), so no piece crosses a block seam.
    """
    tasks = []
    for g0, g1 in zip(ends, ends[1:]):
        for pos in range(g0 + 1, g1 + 1, _M_CHUNK):
            end = min(g1 + 1, pos + _M_CHUNK)
            if not tasks or end - tasks[-1][0] > _MOBIUS_BLOCK:
                tasks.append((pos, []))
            tasks[-1][1].append((pos, end))
    return tasks


def _pairwise_sum(leaf, lo: int, n: int) -> float:
    """np.sum of the n terms from position lo, bit for bit; leaf(lo, n) returns
    n <= _SUM_LEAF consecutive terms.

    numpy's pairwise sum adds n > 128 terms as the sums of the first
    n2 = n//2 - (n//2) % 8 and of the rest; this splits the same way down
    to _SUM_LEAF terms, and each leaf's np.sum builds the rest of the tree.
    """
    if n <= _SUM_LEAF:
        return float(np.sum(leaf(lo, n)))
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(leaf, lo, half) + _pairwise_sum(leaf, lo + half, n - half)


class MoebiusContext:
    """Shared sieves for truncated sums and divisor counts at bounds <= limit+1.

    Built once per scan; supports every k whose bound p_{k+1}^2 - 1 is
    at most ``limit``. It holds every prime up to ``limit`` in one int32
    list (``limit`` stays below 2^31), and both mu sieves take their
    primes from that list: the small prefix tables at build, and the
    blocks of the module docstring's grid, which sum_grid (or the first
    m_full call) sums, keeping only M at each grid end.
    """

    MIN_LIMIT = 4  # smallest limit a context is built for

    def __init__(self, limit: int, table: PrimeTable):
        if limit < self.MIN_LIMIT:
            raise DomainError("moebius context limit too small")
        if limit >= 1 << 31:
            # Its prime list and the list's build take about 0.3 bytes per integer
            # (peak RSS, limit 1.95e7 to 6.28e7); mu is only ever a block.
            raise ResourceError(f"moebius context limit {limit} is 2^31 or more")
        self.limit = limit
        root = math.isqrt(limit)
        if root > table.bound:
            raise DomainError("prime table too small for moebius context")
        base = table.primes[: table.count_upto(root)]
        # Primes up to limit, for the single-large-factor correction; int32
        # holds them exactly, and prime_sum casts each leaf's q to float64 once.
        self.primes = _prime_list(0, limit + 1, base, dtype=np.int32)
        self._leaf = np.empty(min(len(self.primes), _SUM_LEAF))  # prime_sum's terms
        # Small prefix tables cover every reduced argument (B-1)//q < p_{k+1}.
        small_cap = root + 1
        mu_small = _mobius_array(small_cap, self.primes)
        contrib = np.zeros(small_cap + 1)
        contrib[1:] = mu_small[1:].astype(np.float64) / np.arange(1, small_cap + 1)
        self._m_small = np.cumsum(contrib)             # M(t) for t <= small_cap
        self._sq_small = np.cumsum(mu_small != 0)      # squarefree count <= t
        self._mu_small = mu_small
        self._sieve = _mobius_sieve(limit, self.primes)  # mu over any block up to limit
        top = int(_search(self.primes, math.isqrt(limit + 1), side="right"))
        squares = self.primes[_M_GRID_K0 + 1 : top].astype(np.int64) ** 2
        self._grid_ends = [0, *(squares - 1).tolist()]  # M's grid, up to the limit
        self._grid_m: Optional[list] = None  # M at each grid end, once summed
        self._last_lattice: tuple = (None, None)

    def m_full(self, y: int) -> float:
        """M(y) = sum_{m <= y} mu(m)/m: the running sum at the last grid end <= y plus its tail."""
        if not 0 <= y <= self.limit:
            raise DomainError(f"M({y}) outside the context's range [0, {self.limit}]")
        if self._grid_m is None:
            self.sum_grid()
        ends, values = self._grid_ends, self._grid_m
        i = bisect.bisect_right(ends, y) - 1
        if ends[i] == y:
            return values[i]
        return self._m_running(values[i], [ends[i], y])[-1]

    def sum_grid(self, block_sums=None) -> None:
        """Sum M's running sum over the module docstring's grid and keep M at each end;
        block_sums as in _m_running."""
        self._grid_m = self._m_running(0.0, self._grid_ends, block_sums)

    def _m_running(self, acc: float, ends: list, block_sums=None) -> list:
        """acc, then acc plus the sum of mu(m)/m up to each later end of the ascending ends.

        The _m_tasks blocks' piece sums are added to the running float in
        task order. block_sums yields each block's, as legendre_scan's pool
        does; without it this process sums the same tasks.
        """
        tasks = _m_tasks(ends)
        if block_sums is None:
            block_sums = itertools.starmap(self._piece_sums, tasks)
        sums = [acc]
        for (_, pieces), piece_sums in zip(tasks, block_sums):
            for (_, end), piece_sum in zip(pieces, piece_sums):
                acc += piece_sum
                if end > ends[len(sums)]:  # the piece closes a segment
                    sums.append(acc)
        return sums

    def _piece_sums(self, lo: int, pieces: list) -> list:
        """np.sum of mu(m)/m over each piece [pos, end) of one _m_tasks block from lo.

        mu is one _mobius_block, and _pairwise_sum holds the floats of one
        leaf at a time, never a whole piece's.
        """
        block = _mobius_block(lo, pieces[-1][1], *self._sieve)

        def leaf(pos: int, n: int) -> np.ndarray:
            # The quotients of mu.astype(float64) /= arange, without a second float array.
            seg = np.arange(pos, pos + n, dtype=np.float64)
            return np.divide(block[pos - lo : pos - lo + n], seg, out=seg)

        return [_pairwise_sum(leaf, pos, end - pos) for pos, end in pieces]

    def prime_count(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The number of primes in [lo, hi) for each pair of the arrays lo <= hi <= limit + 1."""
        return _search(self.primes, hi) - _search(self.primes, lo)

    def _lattice(self, k: int, bound: int,
                 table: PrimeTable) -> tuple[int, np.ndarray, np.ndarray, int, int]:
        """(y, t, count, i0, i1): the primes q in [p_{k+1}, y = bound - 1] grouped by y//q.

        t runs y//p_{k+1}, ..., 1 (the order of ascending q), count[j] is
        the number of those q with y//q = t[j], i.e. pi(y//t) - pi(y//(t+1))
        clipped at p_{k+1}, and self.primes[i0:i1] lists the q. It costs
        O(p_{k+1}) binary searches, not one division per prime. The last
        lattice is kept, so truncated_sum and term_count share one per k.
        """
        if self._last_lattice[0] != (k, bound):
            p_next = table.nth(k + 1)
            if bound > p_next * p_next:
                raise DomainError("decomposition needs bound <= p_{k+1}^2")
            y = bound - 1
            if y > self.limit:
                raise DomainError(f"bound {bound} beyond context limit {self.limit}")
            i0 = int(_search(self.primes, p_next))
            ts = np.arange(y // p_next, 0, -1, dtype=np.int64)
            ends = _search(self.primes, y // ts, side="right")
            counts = np.diff(ends, prepend=i0)
            self._last_lattice = ((k, bound), (y, ts, counts, i0, i0 + int(counts.sum())))
        return self._last_lattice[1]

    def truncated_sum(self, k: int, bound: int, table: PrimeTable) -> float:
        """sum of mu(d)/d over squarefree P_k-smooth d < bound: M(y) plus prime_sum's tail.

        Requires bound <= p_{k+1}^2 so no admissible d carries two prime
        factors above p_k.
        """
        y, tail = self.prime_sum(k, bound, table)
        return self.m_full(y) + tail

    def prime_sum(self, k: int, bound: int, table: PrimeTable) -> tuple[int, float]:
        """(y, tail): y = bound - 1 and the correction sum of M(y//q)/q over the primes
        q in [p_{k+1}, y], which truncated_sum adds to M(y).

        The terms are added over the ascending q in np.sum's pairwise order,
        a leaf of at most _SUM_LEAF terms at a time: the leaf's q are cast
        to float64 once, into the leaf buffer, and each term is divided in
        place. M is read once per lattice point from the small prefix
        table, and a point with _DENSE_COUNT primes or more divides it by
        its slice of q directly. It never reads M's grid, so a forked
        worker can run it alone.
        """
        y, ts, counts, i0, i1 = self._lattice(k, bound, table)
        qs, m_t, ends = self.primes[i0:i1], self._m_small[ts], np.cumsum(counts)
        # The points come in descending t, so with ever more primes: the terms
        # from split on belong to points that all have _DENSE_COUNT or more.
        sparse = np.flatnonzero(counts < _DENSE_COUNT)
        split = int(ends[sparse[-1]]) if len(sparse) else 0

        def leaf(lo: int, n: int) -> np.ndarray:
            terms = self._leaf[:n]
            terms[:] = qs[lo : lo + n]
            pos, hi = lo, lo + n
            while pos < hi:
                j = int(np.searchsorted(ends, pos, side="right"))  # the point of term pos
                if pos < split:  # M(t) repeated per q, _SPARSE_RUN terms at a time
                    end = min(split, hi, pos + _SPARSE_RUN)
                    jb = int(np.searchsorted(ends, end - 1, side="right")) + 1
                    c = np.minimum(ends[j:jb], end) - np.maximum(ends[j:jb] - counts[j:jb], pos)
                    m = np.repeat(m_t[j:jb], c)
                else:
                    end, m = min(int(ends[j]), hi), m_t[j]
                q = terms[pos - lo : end - lo]
                np.divide(m, q, out=q)
                pos = end
            return terms

        return y, _pairwise_sum(leaf, 0, len(qs))

    def term_count(self, k: int, bound: int, table: PrimeTable) -> int:
        """Number of squarefree P_k-smooth d < bound (counting d = 1)."""
        y, ts, counts, _, _ = self._lattice(k, bound, table)
        root = math.isqrt(y)
        ds = np.arange(1, root + 1, dtype=np.int64)
        mu = self._mu_small[1 : root + 1].astype(np.int64)
        sq_total = int(np.sum(mu * (y // (ds * ds))))
        return sq_total - int(np.dot(self._sq_small[ts], counts))


def _enumerated(k: int, bound: int, table: PrimeTable) -> bool:
    """Whether sums and counts below bound enumerate their divisors; else the context
    serves them, for exactly the bounds in (2^20, p_{k+1}^2]."""
    return bound <= 1 << 20 or bound > table.nth(k + 1) ** 2


def _enumerated_rows(rows: list, table: PrimeTable,
                     term_cap: int = DEFAULT_TERM_CAP) -> list:
    """(sum of mu(d)/d, count) over the squarefree P_k-smooth d < bound, per (k, bound) in rows.

    The rows share one enumeration over the first max-k primes; a row's
    terms are those with top <= k and d < bound, in its own order (module
    docstring). cumsum adds them term by term in that order, a block of
    _ENUM_BLOCK terms of the enumeration at a time, carrying the row's
    running float into its first term there: the adds of one cumsum over
    the row, with no float copy of it. A pairwise sum would change the
    last bits of ratio_truncated.
    """
    if not rows:
        return []
    d, mu, top = _squarefree_products(table.first(max(k for k, _ in rows)),
                                      max(bound for _, bound in rows) - 1, term_cap)
    sums, counts = [0.0] * len(rows), [0] * len(rows)
    for lo in range(0, len(d), _ENUM_BLOCK):
        block = slice(lo, lo + _ENUM_BLOCK)
        terms = mu[block] / d[block]
        for i, (k, bound) in enumerate(rows):
            row = terms[(top[block] <= k) & (d[block] < bound)]
            if len(row):
                row[0] += sums[i]
                sums[i] = float(np.cumsum(row, out=row)[-1])
                counts[i] += len(row)
    return list(zip(sums, counts))


def truncated_moebius_sum(k: int, table: PrimeTable, bound: Optional[int] = None,
                          context: Optional[MoebiusContext] = None) -> float:
    """sum_{d | p_k#, d squarefree, d < bound} mu(d)/d; bound defaults to p_{k+1}^2."""
    if bound is None:
        bound = table.nth(k + 1) ** 2
    if _enumerated(k, bound, table):
        return _enumerated_rows([(k, bound)], table)[0][0]
    if context is None:
        context = MoebiusContext(bound - 1, table)
    return context.truncated_sum(k, bound, table)


def expected_legendre_truncated(window_length: int, k: int, table: PrimeTable,
                                bound: Optional[int] = None,
                                context: Optional[MoebiusContext] = None) -> float:
    """Truncated-expansion mean: |A| * sum_{d < bound} mu(d)/d.

    This is the smooth counterpart of count_coprime_legendre's truncated
    mode; dividing by |A|/log p_{k+1}^2 reproduces the drop from
    2 e^{-gamma} (full product) to roughly 1.03.
    """
    return window_length * truncated_moebius_sum(k, table, bound, context)


def legendre_term_count(k: int, table: PrimeTable, bound: Optional[int] = None,
                        term_cap: int = DEFAULT_TERM_CAP,
                        context: Optional[MoebiusContext] = None) -> int:
    """Number of squarefree products of distinct primes from P_k below bound.

    bound None means no truncation: exactly 2**k terms (exact big
    integer). Counting includes d = 1.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    if bound is None:
        return 2 ** k
    if _enumerated(k, bound, table):
        return _enumerated_rows([(k, bound)], table, term_cap)[0][1]
    if context is None:
        context = MoebiusContext(bound - 1, table)
    return context.term_count(k, bound, table)


# Consecutive k per task of legendre_scan's pool.
_SCAN_BLOCK = 8


def _context_tasks(k_from: int, k_to: int, table: PrimeTable) -> list:
    """The k in [k_from, k_to] that legendre_scan takes from the context (k >= 172,
    where p_{k+1}^2 > 2^20), in ascending ranges of _SCAN_BLOCK: one pool task each."""
    k0 = k_from
    while k0 <= k_to and _enumerated(k0, table.nth(k0 + 1) ** 2, table):
        k0 += 1
    return [range(k, min(k + _SCAN_BLOCK, k_to + 1)) for k in range(k0, k_to + 1, _SCAN_BLOCK)]


def _scan_rows(task) -> list:
    """On the (context, table) shared by legendre_scan's pool: an _m_tasks block's
    piece sums, _enumerated_rows of a list of (k, bound) rows, or for a range of
    context rows each k's (y, prime_sum's tail, term count) at the bound p_{k+1}^2."""
    context, table = sieve_core._shared
    if isinstance(task, tuple):
        return context._piece_sums(*task)
    if not isinstance(task, range):
        return _enumerated_rows(task, table)
    rows = []
    for k in task:
        bound = table.nth(k + 1) ** 2
        rows.append((*context.prime_sum(k, bound, table), context.term_count(k, bound, table)))
    return rows


def legendre_scan(k_from: int, k_to: int, table: PrimeTable, threads: int = 1) -> ScanSeries:
    """Full vs truncated vs exact ratios for k in [k_from, k_to], as columns.

    Each ratio is a mean over the base l_k / log p_{k+1}^2: ``ratio_full``
    of l_k prod(1 - 1/p), ``ratio_truncated`` of the truncated expansion,
    ``pi_ratio`` of the exact pi_k; ``terms`` counts the admissible
    divisors below p_{k+1}^2, and ``length`` is l_k. The rows whose bound
    p_{k+1}^2 is enumerated (k <= 171, where p_{k+1}^2 <= 2^20) take their
    truncated sum and term count from one _enumerated_rows call, the pool's
    task after M's grid blocks when there are context rows. pi_k
    is counted on the context's prime list, of every prime up to p_{k_to+1}^2.

    The pool's tasks run on at most ``threads`` forked workers (module
    docstring); no bit depends on ``threads``.
    """
    if k_from < 1 or k_to < k_from:
        raise DomainError(f"bad scan range [{k_from}, {k_to}]")
    tasks = _context_tasks(k_from, k_to, table)
    k0 = tasks[0].start if tasks else k_to + 1  # the first context row
    listed = [(k, table.nth(k + 1) ** 2) for k in range(k_from, k0)]
    if not tasks:
        rows = _enumerated_rows(listed, table)  # (sum, terms) per k
    context = MoebiusContext(table.nth(k_to + 1) ** 2 - 1, table)
    if tasks:
        grid = _m_tasks(context._grid_ends)
        with _worker_map(threads, _scan_rows, [*grid, listed, *tasks],
                         shared=(context, table)) as results:
            context.sum_grid(itertools.islice(results, len(grid)))  # every row's y is a grid end
            rows = next(results)
            for y, tail, terms in itertools.chain.from_iterable(results):
                rows.append((context.m_full(y) + tail, terms))
    tsums, terms = zip(*rows)
    lo, hi = (table.primes[k_from - 1 + i : k_to + i] ** 2 for i in (0, 1))
    log_hi = np.array([math.log(x) for x in hi])  # math.log: np.log may differ in the last bit
    pi_k = context.prime_count(lo, hi)
    return ScanSeries(label="legendre_scan", columns={
        "k": np.arange(k_from, k_to + 1), "length": hi - lo,
        "ratio_full": analytic.mertens_products(k_to, table)[k_from:] * log_hi,
        "ratio_truncated": np.array(tsums) * log_hi,
        "pi_ratio": pi_k / ((hi - lo) / log_hi),
        "terms": np.array(terms, dtype=np.int64)})


def first_appearance_positions(i: int, table: PrimeTable,
                               k_range: Iterable[int]) -> set:
    """Observed 1-based offsets of the first multiple of p_i within s_k.

    The first multiple of p_i at or after p_k^2 sits at offset
    ((-p_k^2) mod p_i), so position ((-p_k^2) mod p_i) + 1. Aggregated
    over every k in k_range with k > i.
    """
    if i < 1:
        raise DomainError("i must be >= 1")
    p = table.nth(i)
    out = set()
    for k in k_range:
        if k <= i:
            continue
        sq = table.nth(k) ** 2
        out.add((-sq) % p + 1)
    return out


def theoretical_first_positions(i: int, table: PrimeTable) -> set:
    """Candidate set {p_i - m + 1 : m a nonzero quadratic residue mod p_i}.

    p_k^2 mod p_i is always a nonzero square for k != i, so every
    observed first-appearance position lies in this set.
    """
    p = table.nth(i)
    residues = {(r * r) % p for r in range(1, p)}
    residues.discard(0)
    return {p - m + 1 for m in residues}
