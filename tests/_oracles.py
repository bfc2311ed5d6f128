"""Independent reference implementations used only to pin expected values.

Everything here deliberately avoids the library's code paths: trial
division instead of sieving, subset enumeration instead of pruned
depth-first search, Fraction arithmetic instead of floats, mpmath
instead of the package integrator. The exceptions are the package's
former float and array code, kept verbatim as bit-exact references:
dfs_moebius_sum for its divisor enumerator, mobius_array,
context_truncated_sum and context_term_count for MoebiusContext's
blocked mu sieve and its lattice-grouped prime sums, and odd_primality
for the odds-only primality kernel the mod-30 wheel replaced.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

mpmath.mp.dps = 30


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_primes(bound: int) -> list:
    return [n for n in range(2, bound + 1) if is_prime_trial(n)]


def pi_trial(x: int) -> int:
    return sum(1 for n in range(2, x + 1) if is_prime_trial(n))


def mark_primality(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primality flags for [lo, hi], one per integer: multiples struck from max(p*p, lo).

    A plain full-width sieve with no presieve or blocking: the reference
    for the package's odds-only primality kernel.
    """
    flags = np.ones(hi - lo + 1, dtype=bool)
    if lo <= 1:
        flags[: min(2 - lo, hi - lo + 1)] = False
    for p in base_primes:
        p = int(p)
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        flags[start - lo :: p] = False
    return flags


def lucy_pi(n: int) -> int:
    """pi(n) by the Lucy-Hedgehog recursion, O(n^(3/4)) numpy operations.

    S(v) counts 1 < m <= v surviving the primes below p; it starts at
    v - 1 and, for each prime p <= sqrt(n), drops by S(v // p) - S(p - 1)
    at every lattice point v = n // i with v >= p^2 (Lucy_Hedgehog's
    Project Euler #10 post; Deleglise & Rivat, Math. Comp. 65 (1996)).
    ``small[v]`` holds S(v) for v <= sqrt(n) and ``large[i]`` holds
    S(n // i). Every update of one p reads values from before that p, so
    each runs as one fancy-indexed numpy expression. No sieve is involved.
    """
    if n < 2:
        return 0
    r = math.isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = v - 1
    i = np.arange(r + 1, dtype=np.int64)
    i[0] = 1
    large = n // i - 1
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        sp = small[p - 1]
        top = min(r, n // (p * p))  # large[i] with n // i >= p^2
        inner = min(top, r // p)  # n // (i p) = large[i p] while i p <= r
        drop = np.empty(top, dtype=np.int64)
        drop[:inner] = large[p : inner * p + 1 : p]
        drop[inner:] = small[n // (np.arange(inner + 1, top + 1, dtype=np.int64) * p)]
        large[1 : top + 1] -= drop - sp
        if p * p <= r:
            small[p * p :] -= small[np.arange(p * p, r + 1, dtype=np.int64) // p] - sp
    return int(large[1])


def window_count(lo, length: int, primes) -> int:
    """Coprime survivors in [lo, lo + length); lo may be arbitrary precision.

    One window at a time, one slice write per prime: the reference for the
    package's batched coprime counter.
    """
    flags = np.ones(length, dtype=bool)
    for p in primes:
        p = int(p)
        flags[(-lo) % p :: p] = False
    return int(np.count_nonzero(flags))


def coprime_survivors(lo: int, hi: int, primes) -> list:
    prod = 1
    for p in primes:
        prod *= p
    return [n for n in range(lo, hi + 1) if math.gcd(n, prod) == 1]


def subset_legendre_count(lo: int, hi: int, primes) -> int:
    """Inclusion-exclusion by explicit subset enumeration (use len(primes) <= 20)."""
    total = 0
    ps = list(primes)
    for r in range(len(ps) + 1):
        for combo in combinations(ps, r):
            d = math.prod(combo)
            total += (-1) ** r * (hi // d - (lo - 1) // d)
    return total


def fraction_mertens(primes) -> Fraction:
    out = Fraction(1)
    for p in primes:
        out *= Fraction(p - 1, p)
    return out


def fraction_truncated_moebius(primes, bound: int) -> Fraction:
    """sum of mu(d)/d over squarefree products d < bound, exact rationals."""
    ps = list(primes)
    total = Fraction(0)

    def rec(start: int, d: int, sign: int) -> None:
        nonlocal total
        total += Fraction(sign, d)
        for i in range(start, len(ps)):
            nd = d * ps[i]
            if nd >= bound:
                break
            rec(i + 1, nd, -sign)

    rec(0, 1, 1)
    return total


def dfs_moebius_sum(ps: list, bound: int) -> tuple[float, int]:
    """(sum of mu(d)/d, term count) over squarefree products d < bound."""
    total = 0.0
    terms = 0
    k = len(ps)

    def descend(start: int, d: int, sign: int) -> None:
        nonlocal total, terms
        terms += 1
        total += sign / d
        for idx in range(start, k):
            nd = d * ps[idx]
            if nd >= bound:
                break
            descend(idx + 1, nd, -sign)

    descend(0, 1, 1)
    return total, terms


def count_squarefree_products(primes, bound: int) -> int:
    """Number of squarefree products of distinct primes < bound, d = 1 included."""
    ps = list(primes)
    count = 0

    def rec(start: int, d: int) -> None:
        nonlocal count
        count += 1
        for i in range(start, len(ps)):
            nd = d * ps[i]
            if nd >= bound:
                break
            rec(i + 1, nd)

    rec(0, 1)
    return count


def totient_of_primorial(primes) -> int:
    out = 1
    for p in primes:
        out *= p - 1
    return out


def shift_moments(primes, length: int) -> tuple[int, int]:
    """(sum of c, sum of c^2) over the windows [s, s + length), s in [0, prod(primes)).

    No window is counted. Sum c is length * phi(P). Sum c^2 counts the
    ordered pairs of window positions (i, j) whose integers are both
    coprime: for j - i = +-d there are prod_p (p - 1 - [p does not
    divide d]) such starts (each p rules out the residues 0 and -d).
    """
    ps = [int(p) for p in primes]
    phi = totient_of_primorial(ps)
    pairs = sum((length - d) * math.prod(p - 1 - (d % p != 0) for p in ps)
                for d in range(1, length))
    return length * phi, length * phi + 2 * pairs


def li_oracle(x: float) -> float:
    """Offset logarithmic integral via mpmath at 30 digits."""
    return float(mpmath.li(x, offset=True))


def li_between_oracle(a: float, b: float) -> float:
    return float(mpmath.li(b, offset=True) - mpmath.li(a, offset=True))


def bisect_root(f, a: float, b: float, iters: int = 200) -> float:
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if (f(m) > 0) == (fa > 0):
            a, fa = m, f(m)
        else:
            b = m
    return 0.5 * (a + b)


def mobius_array(limit: int, base_primes) -> np.ndarray:
    """mu(n) for 0 <= n <= limit (int8); needs base primes to sqrt(limit).

    The tracked smooth parts divide their index, so int32 suffices up to
    the context's 2^31 limit.
    """
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    smooth_part = np.ones(limit + 1, dtype=np.int32)
    for p in base_primes:
        p = int(p)
        if p * p > limit:
            break
        mu[p::p] *= -1
        smooth_part[p::p] *= p
        sq = p * p
        mu[sq::sq] = 0
        pe = sq
        while pe <= limit:
            smooth_part[pe::pe] *= p
            pe *= p
    # A cofactor above sqrt(limit) is a single extra prime factor.
    leftover = smooth_part < np.arange(limit + 1, dtype=np.int32)
    np.negative(mu, where=leftover, out=mu)
    return mu


def context_truncated_sum(ctx, k: int, bound: int, table) -> float:
    """MoebiusContext.truncated_sum with one floor division per prime q."""
    p_next = table.nth(k + 1)
    y = bound - 1
    i0 = int(np.searchsorted(ctx.primes, p_next))
    i1 = int(np.searchsorted(ctx.primes, y, side="right"))
    qs = ctx.primes[i0:i1].astype(np.int64)
    ts = y // qs
    corr = float(np.sum(ctx._m_small[ts] / qs))
    return ctx.m_full(y) + corr


def context_term_count(ctx, k: int, bound: int, table) -> int:
    """MoebiusContext.term_count with one floor division per prime q."""
    p_next = table.nth(k + 1)
    y = bound - 1
    root = math.isqrt(y)
    ds = np.arange(1, root + 1, dtype=np.int64)
    mu = ctx._mu_small[1 : root + 1].astype(np.int64)
    sq_total = int(np.sum(mu * (y // (ds * ds))))
    i0 = int(np.searchsorted(ctx.primes, p_next))
    i1 = int(np.searchsorted(ctx.primes, y, side="right"))
    qs = ctx.primes[i0:i1].astype(np.int64)
    ts = y // qs
    return sq_total - int(np.sum(ctx._sq_small[ts]))


# The package's former odds-only primality kernel, kept verbatim (with its
# constants and helpers) as a second reference for the wheel kernel:
# odd_primality(lo, hi, base_primes) -> (first, flags).
# Odd primes struck by the presieve pattern; base primes below 19 are skipped.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13, 17)
_PRESIEVE_PERIOD = 3 * 5 * 7 * 11 * 13 * 17  # odd slots per pattern repeat

# Odd slots struck together by all base primes: 1 MiB of flags, half a 2 MiB L2.
_BLOCK_SLOTS = 1 << 20

# Base primes from here on strike each block with one shared scatter. This
# and _BLOCK_SLOTS come from a sweep of thresholds 2^11..2^16 against blocks
# of 2^19..2^21 slots on 2^25-integer chunks at k = 5000, 10^4 and 3*10^4.
_SCATTER_MIN = 1 << 13


@functools.cache
def _presieve_pattern(primes: tuple) -> np.ndarray:
    """Flags for the odd integers 1, 3, 5, ...: False on the odd multiples of ``primes``.

    The period is ``prod(primes)`` odd slots. Built on first use, so
    processes that never sieve skip it.
    """
    pattern = np.ones(math.prod(primes), dtype=bool)
    for q in primes:
        pattern[(q - 1) // 2 :: q] = False  # slot j holds 2j + 1
    pattern.setflags(write=False)
    return pattern


def _fill_rotated(dst: np.ndarray, pattern: np.ndarray, offset: int) -> None:
    """Fill ``dst`` with ``pattern`` repeated from ``pattern[offset]`` on.

    Copies one period, rotated, then doubles the filled prefix: it always
    holds whole periods.
    """
    size = len(dst)
    head = min(len(pattern) - offset, size)
    dst[:head] = pattern[offset : offset + head]
    tail = min(offset, size - head)
    dst[head : head + tail] = pattern[:tail]
    filled = head + tail
    while filled < size:
        step = min(filled, size - filled)
        dst[filled : filled + step] = dst[:step]
        filled += step


def _odd_index(n, first):
    """Number of odd integers in [first, n) for odd first and n >= first - 1.

    Works elementwise on integer arrays; it is the flag index of n when n
    is odd and of n + 1 when n is even.
    """
    return (n - first + 1) // 2


def _odd_blocks(lo: int, hi: int, base_primes, out=None):
    """Primality flags of the odd integers in [lo, hi], one block at a time.

    Yields ``(slot_offset, block)`` for consecutive blocks of at most
    ``_BLOCK_SLOTS`` flags; ``block[i]`` stands for the integer
    ``first + 2*(slot_offset + i)``, where ``first = lo | 1``, and is True
    exactly on the odd primes. With ``out`` (a bool array of at least
    ``(hi - first) // 2 + 1`` flags) every block is a view of ``out``, so
    the whole window is left there; without it every block is the same
    reused buffer, valid only until the next block is requested.
    ``base_primes`` is ascending and must hold every prime up to sqrt(hi);
    entries below 19 are ignored because the presieve pattern covers them.
    Requires lo >= 0.

    Each block, while cache-resident, is filled from the presieve
    pattern, gets 1 and the presieve primes 3..17 fixed up where they fall
    in it, and is struck by the base primes: below ``_SCATTER_MIN`` with
    one strided slice each, above it with one fancy-indexed write for all
    of them. That write's indices are one ``np.cumsum`` over the primes'
    strides repeated once per multiple in the block, with each prime's
    first step replaced by the jump to its first multiple there. A large
    prime strikes a few times per block, so one call per prime per block
    would cost more than its writes.
    """
    first = lo | 1
    size = max(0, (hi - first) // 2 + 1)
    buf = None if out is not None else np.empty(min(size, _BLOCK_SLOTS), dtype=bool)
    pattern = _presieve_pattern(_PRESIEVE_PRIMES)
    rotation = (first // 2) % _PRESIEVE_PERIOD
    restore = [(q - first) // 2 for q in _PRESIEVE_PRIMES if lo <= q <= hi]
    base = np.asarray(base_primes, dtype=np.int64)
    i_lo = int(np.searchsorted(base, _PRESIEVE_PRIMES[-1], side="right"))
    i_hi = int(np.searchsorted(base, math.isqrt(hi), side="right"))
    primes = base[i_lo:i_hi]
    # The slot of each prime's next strike, starting at its first odd
    # multiple >= max(p*p, first).
    start = np.maximum(primes * primes, (first + primes - 1) // primes * primes)
    start += primes * (1 - (start & 1))
    slot = (start - first) // 2
    n_small = int(np.searchsorted(primes, _SCATTER_MIN))
    small, nxt = primes[:n_small].tolist(), slot[:n_small].tolist()
    big, big_nxt = primes[n_small:], slot[n_small:]
    for a in range(0, size, _BLOCK_SLOTS):
        b = min(a + _BLOCK_SLOTS, size)
        block = out[a:b] if out is not None else buf[: b - a]
        _fill_rotated(block, pattern, (rotation + a) % _PRESIEVE_PERIOD)
        if a == 0 and first == 1:
            block[0] = False  # 1 is not prime
        for i in restore:
            if a <= i < b:
                block[i - a] = True
        for j, p in enumerate(small):
            i = nxt[j]
            if i < b:
                block[i - a :: p] = False
                nxt[j] = i + (b - i + p - 1) // p * p
        hit = np.flatnonzero(big_nxt < b)
        if len(hit):
            ps, starts = big[hit], big_nxt[hit] - a
            counts = (b - a - starts + ps - 1) // ps
            steps = np.repeat(ps, counts)
            heads = np.cumsum(counts) - counts  # where each prime's run starts
            steps[heads] = starts
            steps[heads[1:]] -= starts[:-1] + (counts[:-1] - 1) * ps[:-1]
            block[np.cumsum(steps, out=steps)] = False
            big_nxt[hit] += counts * ps
        yield a, block


def _odd_primality(lo: int, hi: int, base_primes) -> tuple[int, np.ndarray]:
    """Flags of the odd integers in [lo, hi]: True exactly on the odd primes.

    Returns ``(first, flags)`` with ``flags[i]`` standing for the integer
    ``first + 2*i``, where ``first`` is the smallest odd integer >= lo.
    The prime 2 has no flag. ``base_primes`` is ascending and must hold
    every prime up to sqrt(hi). Requires lo >= 0. The flags are the
    blocks of ``_odd_blocks`` written into one array.
    """
    first = lo | 1
    flags = np.empty(max(0, (hi - first) // 2 + 1), dtype=bool)
    for _ in _odd_blocks(lo, hi, base_primes, out=flags):
        pass
    return first, flags


odd_primality = _odd_primality
