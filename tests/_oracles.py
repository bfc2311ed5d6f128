"""Independent reference implementations used only to pin expected values.

Everything here deliberately avoids the library's code paths: trial
division instead of sieving, subset enumeration instead of pruned
depth-first search, Fraction arithmetic instead of floats, mpmath
instead of the package integrator. The exceptions are the package's
former float and array code, kept verbatim as bit-exact references:
dfs_moebius_sum for its divisor enumerator, and mobius_array,
context_truncated_sum and context_term_count for MoebiusContext's
blocked mu sieve and its lattice-grouped prime sums.
"""

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
    qs = ctx.primes[i0:i1]
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
    qs = ctx.primes[i0:i1]
    ts = y // qs
    return sq_total - int(np.sum(ctx._sq_small[ts]))
