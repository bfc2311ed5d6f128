"""Segmented sieve of Eratosthenes: prime tables, windowed sieving, counting.

Two marking disciplines live here and must not be confused:

* coprimality marking: every multiple of every sieve prime inside the
  window is struck, so survivors are exactly the integers coprime to the
  product of the sieve primes. ``sieve_window`` does this for one window
  with one flag per integer, for ``count_coprime_direct``; the batched
  generator ``_coprime_counts`` is the one counting path for shifted
  windows, used by the sampled ``shift_model``, and ``_period_counts``
  counts every window of one period from the odd presieve pattern of
  its primes, for the exhaustive one;
* primality marking (``_wheel_rows``): survivors are the integers of
  the window that no prime up to 17 and no given base prime divides,
  other than those primes themselves; given every prime up to the
  square root of the window's end, exactly its primes. Every primality
  count and prime list in the package comes from this one kernel.
  ``_prime_list`` turns the rows into one sorted array of primes, for
  ``build_prime_table``, ``gap_series`` and ``maier_scan`` in
  ``stats_lab``, and ``MoebiusContext``.
  ``_primes_below`` sums them into the primes below a list of bounds:
  struck with every base prime for ``partial_counts`` in ``intervals``,
  and only below the cube root of the window's end for the interval
  scan and ``count_primes_upto``, which subtract the semiprimes this
  leaves (below).
  ``_semiprime_lookup`` packs the rows into the prime-count table that
  the subtraction reads, summing its prefix one block at a time, and
  refuses a table beyond ``DEFAULT_MEMORY_BUDGET`` before building it.

The primality kernel is a mod-30 wheel. It keeps only the integers
coprime to 30, in eight residue rows, one per r in {1, 7, 11, 13, 17, 19,
23, 29}: slot m of row r stands for 30*m + r, so 30 integers cost 8
flags. Each row is streamed as cache-sized blocks of ``_BLOCK_SLOTS``
slots: each block is filled, fixed up and struck while it is
cache-resident, then handed to the caller, so a count over a window of
any length costs one block of memory and a prime list one block and
one array, sized by a proven bound on its count. A block starts as a rotated copy of its residue's presieve
pattern, in which the multiples of 7, 11, 13 and 17 are struck (period
7*11*13*17 = 17017 rows); the fix-ups then strike 1, restore 7..29 in
row 0 and clear the integers below the window start. Each base prime p >= 19
strikes residue r at p*j for the j = r * p^-1 (mod 30), a stride of p
rows from its first such multiple at or after max(p*p, 30*m_lo), with
p^-1 mod 30 read from an 8-entry table. The strikes come in two tiers:
primes below ``_SCATTER_MIN`` with one strided slice per block, larger
primes, which hit a block only a few times, all together with one
scattered write per block (the bucket-sieve idea of T. Oliveira e Silva,
S. Herzog and S. Pardi, Math. Comp. 83 (2014); the wheel layout is
primesieve's). The primes 2, 3 and 5 have no row; ``_primes_below`` and
``_prime_list``, and nothing else, add them where they fall in the window.

A count need not strike with every base prime. Struck with only the
primes below T = ceil(cbrt(end)), the least integer with T^3 > end - 1
(never below 19, the first prime the presieve leaves), [lo, end) keeps
its primes and the products q*m of two primes T <= q <= m: three
factors of T or more exceed end - 1. This is the paper's picture turned
around. Those semiprimes are counted, not struck: below a bound c they
number the sum over the primes T <= q <= sqrt(c - 1) of the primes m in
[max(q, ceil(lo / q)), (c - 1) // q], each count read off a prime-count
table on the wheel rows up to (end - 1)^(2/3) with two gathers. This is
the P2 term of the Meissel-Lehmer method (D. H. Lehmer, Illinois J.
Math. 3 (1959); M. Deleglise and J. Rivat, Math. Comp. 65 (1996)). A
2^25-integer scan chunk at k = 5000 then strikes with about 200 primes
instead of 5000, and below k of about 6*10^4 no chunk reaches the
scatter tier. A lone window much shorter than (end - 1)^(2/3) does not
repay the table, so ``partial_counts`` strikes fully.

The coprime counter keeps one flag per odd integer. It starts each
window as a rotated copy of an odd presieve pattern in which the odd
multiples of 3, 5, 7, 11, 13 and 17 are struck (period 3*5*7*11*13*17 =
255255 odd slots), which is exactly the marking by those primes (sieve
sets missing some of them use the pattern of the ones present). It
counts a batch of windows at arbitrary-precision starts in whole-batch
steps. The start residues come from float64 products of the 16-bit
halves of the starts' 32-bit digits with a table of 2**(32*i) mod q;
every partial sum is an integer below 2**47, so the products are exact
under any BLAS kernel. Every window is gathered at once from the rows of
one overlapping view of the extended pattern, each prime strikes every
window of the batch with one strided write, and each window is counted
with one ``np.count_nonzero`` of its row. It requires 2 among the sieve
primes, so even integers never survive.

On a window ``[p_k^2, p_{k+1}^2 - 1]`` sieved by the first k primes the
two disciplines coincide, which is the property everything downstream
leans on.

``_worker_map`` is the package's one process pool, for the interval
scan, legendre's context rows and the sampled shift model. It sizes the
pool, one worker per task at most, and records the size in
``_pool_workers``, which the CLI reports. Its ``imap(fn, tasks)`` forks
the n workers when first read, each on one OpenBLAS thread
(``_pin_blas_threads``). Worker w inherits ``tasks`` and ``_shared``, so
no task is pickled, runs tasks w, w + n, ... and pipes back each result
or exception as one pickle, which the parent reads in task order.

Prime indexing is 1-based throughout: ``p_1 = 2``, ``p_2 = 3``,
``p_3 = 5``. Off-by-one here corrupts every downstream interval, so all
index arguments are named ``k`` and documented as 1-based.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import itertools
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError

# Guard against accidentally allocating huge sieve arrays (bytes).
DEFAULT_MEMORY_BUDGET = 1 << 31

# numpy's bundled OpenBLAS; the wheel decides its file and symbol names.
_OPENBLAS_GLOB = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")


def _openblas_function(name: str):
    """The function ``name`` of numpy's bundled OpenBLAS, or None where no
    such library or symbol is found."""
    for path in glob.glob(_OPENBLAS_GLOB):
        try:
            fn = getattr(ctypes.CDLL(path), name, None)
        except OSError:  # a matching file that does not load
            continue
        if fn is not None:
            return fn
    return None


def _pin_blas_threads() -> None:
    """Run this process's OpenBLAS on one thread; a no-op where it cannot be found.

    The coprime counter's products are small, and a second BLAS thread
    only spins on them, so one BLAS thread per process leaves the cores
    to the worker processes.
    """
    set_threads = _openblas_function("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _blas_threads():
    """This process's OpenBLAS thread count, or None where it cannot be read."""
    get = _openblas_function("scipy_openblas_get_num_threads64_")
    if get is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _pool_size(threads: int, tasks: int) -> int:
    """Processes that run ``tasks`` tasks on ``threads`` threads: one per task at most."""
    return max(1, min(threads, tasks))


# The open pool's shared inputs (_worker_map's ``shared``), and the size of
# the last pool opened, 0 until one is.
_shared = None
_pool_workers = 0


@contextlib.contextmanager
def _worker_map(threads: int, tasks: int, shared=None):
    """An ``imap`` over at most ``_pool_size(threads, tasks)`` forked
    processes, or the builtin ``map`` for one. A worker's exception is
    raised with its type; a pipe that ends early, as when the OOM killer
    ends its worker, raises ResourceError. ``_shared`` is ``shared`` until
    the block exits; the exit kills and waits for every worker left."""
    global _shared, _pool_workers
    _pool_workers = workers = _pool_size(threads, tasks)
    _shared = shared
    running = {}  # pid -> the read end of its pipe, until it is waited for

    def imap(fn, tasks):
        n = min(workers, len(tasks))
        pids = []
        for w in range(n):
            read, write = os.pipe()
            pids.append(os.fork())
            if pids[-1] == 0:
                _work(fn, tasks[w::n], read, write)
            os.close(write)
            running[pids[-1]] = open(read, "rb")
        for i, pid in zip(range(len(tasks)), itertools.cycle(pids)):
            try:
                ok, result = pickle.load(running[pid])
            except (EOFError, pickle.UnpicklingError):
                raise ResourceError(f"worker process {pid} ended before its results") from None
            if i + n >= len(tasks):  # its last result: reap it, for RUSAGE_CHILDREN
                running.pop(pid).close()
                os.waitpid(pid, 0)
            if not ok:
                raise result
            yield result

    try:
        yield map if workers == 1 else imap
    finally:
        _shared = None
        for pid, pipe in running.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(fn, tasks, read: int, write: int) -> None:
    """A worker of ``_worker_map`` on one OpenBLAS thread; ends the process."""
    try:
        os.close(read)
        _pin_blas_threads()
        with open(write, "wb") as pipe:
            for task in tasks:
                try:
                    reply = pickle.dumps((True, fn(task)))
                except Exception as exc:  # the parent raises it
                    try:
                        reply = pickle.dumps((False, exc))
                        pickle.loads(reply)  # an exception may pickle and not unpickle
                    except Exception:
                        reply = pickle.dumps((False, RuntimeError(f"a worker raised {exc!r}, "
                                                                  "which does not pickle")))
                pipe.write(reply)
                pipe.flush()
        os._exit(0)
    finally:  # also when the pipe breaks
        os._exit(1)


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
    """Enumerate all primes <= bound on the wheel rows of ``_prime_list``.

    The base primes up to sqrt(bound) come from the same call; none are
    needed while sqrt(bound) stays within the presieve's primes up to 17.

    Args:
        bound: inclusive upper limit, must be >= 2.
        memory_budget: limit in bytes on bound + 1. The rows stream
            through one block of at most ``_BLOCK_SLOTS`` flags, so what
            grows with the bound is the int64 list reserved for its
            primes, 8 bytes per entry of ``_prime_count_bound``; from
            bound = 10^4 on that list takes fewer than bound + 1 bytes,
            so the cap bounds it.

    Returns:
        PrimeTable with a read-only int64 array that owns exactly its primes.
    """
    if bound < 2:
        raise DomainError(f"prime table bound must be >= 2, got {bound}")
    if bound + 1 > memory_budget:
        raise ResourceError(f"prime table bound {bound} exceeds memory budget {memory_budget} bytes")
    root = math.isqrt(bound)
    base = build_prime_table(root).primes if root > _WHEEL_PRESIEVE[-1] else ()
    primes = _prime_list(0, bound + 1, base)
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


# Odd primes struck by the coprime counter's presieve pattern.
_PRESIEVE_PRIMES = (3, 5, 7, 11, 13, 17)

# The mod-30 wheel: residue row r holds the integers 30*m + r, one flag per
# row slot m, for the eight residues coprime to 30.
_WHEEL = 30
_RESIDUES = (1, 7, 11, 13, 17, 19, 23, 29)

# Bit i of a row mask stands for residue _RESIDUES[i]; _ROW_BITS_UPTO[c] holds
# the bits of the residues <= c, and _ONES[b] counts the bits of b.
_ROW_BIT = np.zeros(_WHEEL, dtype=np.uint8)
_ROW_BIT[list(_RESIDUES)] = 1 << np.arange(len(_RESIDUES))
_ROW_BITS_UPTO = np.bitwise_or.accumulate(_ROW_BIT)
_ONES = np.array([b.bit_count() for b in range(256)], dtype=np.int32)

# The primes with no row, added by each row consumer where they fall.
_ROWLESS_PRIMES = (2, 3, 5)

# u -> u^-1 mod 30 for every residue u; other entries are never read.
_INVERSE = np.zeros(_WHEEL, dtype=np.int64)
_INVERSE[list(_RESIDUES)] = (1, 13, 11, 7, 23, 19, 17, 29)

# Primes struck by the wheel rows' presieve patterns; base primes up to the
# last of them are skipped.
_WHEEL_PRESIEVE = (7, 11, 13, 17)

# Row slots of one residue struck together: a 2^25-integer chunk (1.1M rows)
# is one block.
_BLOCK_SLOTS = 1 << 21

# Row slots per np.flatnonzero of ``_prime_list``: its int64 positions stay
# within 512 KiB, whatever the block.
_LIST_SLOTS = 1 << 16

# Base primes from here on strike each block with one shared scatter. This,
# _BLOCK_SLOTS and _WHEEL_PRESIEVE come from a sweep of thresholds 2^11..2^15,
# blocks of 2^19..2^21 rows and presieves through 17 or 19 on 2^25-integer
# chunks at k = 5000, 10^4 and 3*10^4; adding 19 (323323-row patterns) gave
# no gain above the noise.
_SCATTER_MIN = 1 << 13


@functools.cache
def _presieve_pattern(primes: tuple) -> np.ndarray:
    """Flags for the odd integers 1, 3, 5, ...: False on the odd multiples of ``primes``.

    The period is ``prod(primes)`` odd slots. Built on first use, so
    processes that never count coprime windows skip it.
    """
    pattern = np.ones(math.prod(primes), dtype=bool)
    for q in primes:
        pattern[(q - 1) // 2 :: q] = False  # slot j holds 2j + 1
    pattern.setflags(write=False)
    return pattern


@functools.cache
def _wheel_pattern(r: int) -> np.ndarray:
    """Flags for the integers r, 30 + r, 60 + r, ...: False on the multiples of ``_WHEEL_PRESIEVE``.

    The period is ``prod(_WHEEL_PRESIEVE)`` row slots. Built on first use,
    one residue at a time, so processes that never sieve skip it.
    """
    pattern = np.ones(math.prod(_WHEEL_PRESIEVE), dtype=bool)
    for q in _WHEEL_PRESIEVE:
        pattern[-r * pow(_WHEEL, -1, q) % q :: q] = False  # 30*m + r = 0 (mod q)
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


def _rotated_rows(pattern: np.ndarray, size: int) -> np.ndarray:
    """Read-only ``(len(pattern), size)`` view whose row r is ``pattern`` repeated from ``pattern[r]`` on.

    The rows overlap in one extension of the pattern, ``len(pattern) +
    size`` bytes. Gather rows with fancy indexing; anything that makes
    the view contiguous (``np.take``, ``np.ascontiguousarray``) allocates
    every row.
    """
    ext = np.resize(pattern, len(pattern) + size)
    return np.lib.stride_tricks.as_strided(ext, (len(pattern), size), (1, 1), writeable=False)


def _wheel_rows(lo: int, end: int, base_primes):
    """Primality flags of the integers in [lo, end) coprime to 30, one row block at a time.

    Yields ``(r, a, block)`` for each residue r of ``_RESIDUES`` in turn
    and, within it, for consecutive blocks of at most ``_BLOCK_SLOTS``
    row slots: ``block[i]`` is the flag of ``30*(lo // 30 + a + i) + r``.
    It is True exactly on the integers of [lo, end) that no prime up to
    17 and no entry of ``base_primes`` up to sqrt(end - 1) divides, other
    than those primes themselves: on the primes of [lo, end) when
    ``base_primes`` holds every prime up to sqrt(end - 1). Flags below lo
    are False and flags from ``end`` on are unspecified. Every block is
    the same reused buffer, valid only until the next block is
    requested. ``base_primes`` is ascending primes; entries up to 17 are
    ignored because the presieve covers them. Requires lo >= 0.

    Each block, while cache-resident, is filled from its residue's
    presieve pattern, gets 1 struck and 7..29 restored if it holds row 0
    and the integers below lo cleared, and is struck by the base primes:
    below ``_SCATTER_MIN`` with one strided slice each, above it with one
    fancy-indexed write for all of them. Prime p strikes residue r at
    p*j for every j = r * p^-1 (mod 30), a stride of p rows, starting from
    the least such j >= max(p, ceil(30*m_lo / p)). The scatter's indices
    are one ``np.cumsum`` over the primes' strides repeated once per
    multiple in the block, with each prime's first step replaced by the
    jump to its first multiple there: a large prime strikes a few times
    per block, so one call per prime per block would cost more than its
    writes.
    """
    m_lo = lo // _WHEEL
    rows = (end + _WHEEL - 1) // _WHEEL - m_lo
    if rows <= 0:
        return
    buf = np.empty(min(rows, _BLOCK_SLOTS), dtype=bool)
    base = np.asarray(base_primes, dtype=np.int64)
    i_lo = int(np.searchsorted(base, _WHEEL_PRESIEVE[-1], side="right"))
    i_hi = int(np.searchsorted(base, math.isqrt(end - 1), side="right"))
    primes = base[i_lo:i_hi]
    n_small = int(np.searchsorted(primes, _SCATTER_MIN))
    j_min = np.maximum(primes, (_WHEEL * m_lo + primes - 1) // primes)
    inverse = _INVERSE[primes % _WHEEL]
    for r in _RESIDUES:
        pattern = _wheel_pattern(r)
        j = j_min + (r * inverse - j_min) % _WHEEL
        row = primes * j // _WHEEL - m_lo  # row of each prime's next strike
        small, nxt = primes[:n_small].tolist(), row[:n_small].tolist()
        big, big_nxt = primes[n_small:], row[n_small:]
        for a in range(0, rows, _BLOCK_SLOTS):
            b = min(a + _BLOCK_SLOTS, rows)
            block = buf[: b - a]
            _fill_rotated(block, pattern, (m_lo + a) % len(pattern))
            if a == 0:
                if m_lo == 0:
                    block[0] = r != 1  # 7..29 are prime, 1 is not
                if _WHEEL * m_lo + r < lo:
                    block[0] = False
            for i, p in enumerate(small):
                s = nxt[i]
                if s < b:
                    block[s - a :: p] = False
                    nxt[i] = s + (b - s + p - 1) // p * p
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
            yield r, a, block


def _prefix_counts(block: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """``count_nonzero(block[:c])`` for every c of the ascending int64 ``cuts``.

    Each c lies in [0, len(block)]. The distinct cuts split the block into
    segments, counted one by one; the counters' bounds are far fewer than
    a block's slots.
    """
    inner = np.unique(cuts[cuts > 0])
    edges = inner.tolist()
    below = np.cumsum([np.count_nonzero(block[a:b])
                       for a, b in zip([0, *edges], [*edges, len(block)])])
    return np.concatenate(([0], below))[np.searchsorted(inner, cuts, side="right")]


def _icbrt(n: int) -> int:
    """The largest t with t**3 <= n, for n >= 0."""
    t = round(n ** (1 / 3))
    t -= t ** 3 > n  # the float root may be one off either way
    return t + ((t + 1) ** 3 <= n)


def _strike_limit(end: int) -> int:
    """T, the least integer with T**3 > end - 1, never below 19: the presieve covers 7..17."""
    return max(_icbrt(max(end - 1, 0)) + 1, _WHEEL_PRESIEVE[-1] + 2)


def _semiprime_lookup(end: int, base_primes) -> tuple:
    """pi on the wheel rows up to (end - 1) // icbrt(end - 1): a (prefix, mask) pair.

    ``mask[m]`` has bit i set when 30*m + _RESIDUES[i] is prime (bits
    above the limit are unspecified and never read), and ``prefix[m]``
    (int32) counts the primes from 7 in the rows below m; ``_pi_from``
    reads the count up to any n off them. Every window [lo, b) with
    b <= end strikes below T = _strike_limit(b) and looks its semiprimes'
    larger factors up here: they are at most (b - 1) // T < (b - 1)^(2/3)
    <= (end - 1)^(2/3), so one table built for a scan's last bound covers
    all of its chunks. ``base_primes`` must hold every prime up to
    sqrt(end - 1). The table takes 5 bytes per 30 integers, an int32 list
    of the same primes 7 to 8 bytes, and a count is two gathers instead
    of a binary search. The prefix is summed ``_LIST_SLOTS`` rows at a
    time with a carry, so no temporary spans the table. Raises
    ResourceError before allocating a table of more than
    ``DEFAULT_MEMORY_BUDGET`` bytes.
    """
    n = max(end - 1, 1)
    limit = n // _icbrt(n)
    rows = limit // _WHEEL + 1
    if 5 * rows > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(f"prime-count table of {5 * rows} bytes up to {limit} exceeds "
                            f"the {DEFAULT_MEMORY_BUDGET}-byte memory budget")
    mask = np.zeros(rows, dtype=np.uint8)
    for r, a, block in _wheel_rows(0, limit + 1, base_primes):
        mask[a : a + len(block)] |= block.view(np.uint8) * _ROW_BIT[r]
    del block  # the wheel rows' buffer, freed before the prefix is allocated
    prefix = np.empty(rows, dtype=np.int32)
    below = 0  # primes from 7 in the rows before the current block
    for s in range(0, rows, _LIST_SLOTS):
        ones = _ONES[mask[s : s + _LIST_SLOTS]]
        part = np.cumsum(ones, out=prefix[s : s + _LIST_SLOTS])
        part -= ones
        part += below
        below = int(part[-1]) + int(ones[-1])
    return prefix, mask


def _pi_from(lookup: tuple, n: np.ndarray) -> np.ndarray:
    """The primes in [7, x] for every x of the int64 array ``n``, 0 <= x <= the lookup's limit."""
    prefix, mask = lookup
    row = n // _WHEEL
    col = n - _WHEEL * row
    return np.take(prefix, row) + np.take(_ONES, np.take(mask, row) & np.take(_ROW_BITS_UPTO, col))


def _semiprimes_below(lo: int, bounds: np.ndarray, qs: np.ndarray, lookup: tuple) -> np.ndarray:
    """#{q*m in [lo, c): q in ``qs``, m prime, q <= m} for every c of ``bounds``.

    ``lookup`` is a ``_semiprime_lookup`` covering every m that can occur.
    For each q the m run from max(q, ceil(lo / q)) to (c - 1) // q; a q
    above sqrt(c - 1) has an empty run, whose difference of prime counts
    is <= 0. One bound at a time, so the temporaries hold one entry per q.
    """
    below_first = _pi_from(lookup, np.maximum(qs, -(-lo // qs)) - 1)
    counts = np.empty(len(bounds), dtype=np.int64)
    for i, c in enumerate(bounds.tolist()):
        run = _pi_from(lookup, (max(c, 1) - 1) // qs)
        run -= below_first
        counts[i] = run[run > 0].sum()
    return counts


def _primes_below(lo: int, bounds, base_primes, lookup=None) -> np.ndarray:
    """The number of primes in [lo, b) for every b of the ascending ``bounds``.

    Returns an int64 array. Every bound is >= lo >= 0, and
    ``base_primes`` is ascending and must hold every prime up to
    sqrt(max(bounds) - 1). The counts are summed over the rows of
    ``_wheel_rows`` block by block, so no array spans the window; the
    primes 2, 3 and 5, which have no row, are added where they fall.

    Without ``lookup`` the rows are struck with every base prime. With
    it, a ``_semiprime_lookup`` built for an end >= max(bounds), only the
    base primes below T = ``_strike_limit(max(bounds))`` strike, and the
    survivors q*m (T <= q <= m, both prime) below each bound are counted
    by ``_semiprimes_below`` and subtracted (the module docstring has the
    identity).
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    below = np.zeros(len(bounds), dtype=np.int64)
    for q in _ROWLESS_PRIMES:
        below += (lo <= q) & (q < bounds)
    end = int(bounds[-1])
    strike = np.asarray(base_primes, dtype=np.int64)
    if lookup is not None:
        base = strike
        strike = base[: np.searchsorted(base, _strike_limit(end))]
        qs = base[len(strike) : np.searchsorted(base, math.isqrt(max(end - 1, 0)), side="right")]
        below -= _semiprimes_below(lo, bounds, qs, lookup)
    m_lo = lo // _WHEEL
    for r, a, block in _wheel_rows(lo, end, strike):
        # Row slot i of the block counts below b when 30*(m_lo + a + i) + r < b.
        cuts = np.clip((bounds - r + _WHEEL - 1) // _WHEEL - m_lo - a, 0, len(block))
        below += _prefix_counts(block, cuts)
    return below


def _prime_list(lo: int, end: int, base_primes, dtype=np.int64) -> np.ndarray:
    """The primes of [lo, end) as an ascending array of ``dtype``.

    ``base_primes`` is ascending and must hold every prime up to
    sqrt(end - 1); ``dtype`` must hold end - 1. Requires lo >= 0. Each row
    block of ``_wheel_rows`` gives the primes 30*(m_lo + a + i) + r at its
    True flags i below ``end``, found ``_LIST_SLOTS`` slots at a time and
    written straight into one array of ``_prime_count_bound`` entries
    after the primes 2, 3 and 5, which have no row; that array is shrunk
    in place to the primes found, sorted and returned, so it owns exactly
    its primes.
    """
    out = np.empty(_prime_count_bound(lo, end), dtype=dtype)
    rowless = [q for q in _ROWLESS_PRIMES if lo <= q < end]
    out[: len(rowless)] = rowless
    n, m_lo = len(rowless), lo // _WHEEL
    for r, a, block in _wheel_rows(lo, end, base_primes):
        block = block[: (end - r + _WHEEL - 1) // _WHEEL - m_lo - a]
        for s in range(0, len(block), _LIST_SLOTS):
            primes = np.flatnonzero(block[s : s + _LIST_SLOTS])
            primes += m_lo + a + s
            primes *= _WHEEL
            primes += r
            out[n : n + len(primes)] = primes
            n += len(primes)
    out.resize(n, refcheck=False)
    out.sort()
    return out


def _prime_count_bound(lo: int, end: int) -> int:
    """An upper bound on the number of primes in [lo, end).

    The smaller of two published bounds, plus one for rounding: Dusart's
    pi(x) <= x/ln x (1 + 1.2762/ln x) for x > 1 (thesis, Limoges 1998) at
    x = end - 1, and Montgomery and Vaughan's pi(z + y) - pi(z) <= 2y/ln y
    for y > 1 (Mathematika 20, 1973) over the y = end - lo integers from
    z + 1 = lo. The second keeps a narrow window far from 0 from reserving
    a list sized for every prime below its end.
    """
    x, y = end - 1, end - lo
    dusart = x / math.log(x) * (1 + 1.2762 / math.log(x)) if x > 1 else 0
    montgomery_vaughan = 2 * y / math.log(y) if y > 1 else max(y, 0)
    return int(min(dusart, montgomery_vaughan)) + 1


# Starts are split into little-endian digits of this many bits.
_DIGIT_BITS = 32
_INT64_MAX = (1 << 63) - 1

# Windows struck together by the batched coprime counter.
_COPRIME_BATCH = 64

# Even (and odd) window starts counted together by ``_period_counts``.
_PERIOD_BLOCK = 1 << 18


# One run uses one or two widths; a loop over k keeps at most two tables.
@functools.lru_cache(maxsize=2)
def _digit_weights(moduli: tuple, width: int) -> np.ndarray:
    """Read-only ``(width, len(moduli))`` float64 table of 2**(32*i) mod q; needs q < 2**31.

    Each entry is an integer below 2**31, so float64 holds it exactly.
    """
    mod = np.array(moduli, dtype=np.int64)
    weights = np.empty((width, len(mod)), dtype=np.float64)
    row = 1 % mod
    step = (1 << _DIGIT_BITS) % mod
    for i in range(width):
        weights[i] = row
        row = row * step % mod
    weights.setflags(write=False)
    return weights


def _chunk_digits(q_max: int) -> int:
    """Most digits whose weighted sum stays below 2**63 for moduli up to ``q_max``."""
    return _INT64_MAX // (((1 << _DIGIT_BITS) - 1) * max(q_max - 1, 1))


def _digit_width(max_start: int, moduli_count: int) -> int:
    """Digits of ``_DIGIT_BITS`` bits that hold ``max_start``, at least one.

    Raises ResourceError when the digit-weight table of that width for
    ``moduli_count`` moduli would exceed ``DEFAULT_MEMORY_BUDGET`` bytes.
    """
    width = max(1, -(-max_start.bit_length() // _DIGIT_BITS))
    if width * moduli_count * 8 > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(f"digit-weight table of {width} digits x {moduli_count} moduli "
                            f"exceeds the {DEFAULT_MEMORY_BUDGET}-byte memory budget")
    return width


def _strike_offsets(starts, moduli: tuple) -> np.ndarray:
    """``(-s) mod q`` for every start s (rows) and modulus q (columns), exactly.

    Each start is split into 32-bit digits with one ``int.to_bytes`` call
    and each digit into 16-bit halves, which are multiplied in float64
    with the table of 2**(32*i) mod q (built on first use and cached),
    ``_chunk_digits(q_max)`` digits at a time, q_max = max(moduli). Every
    partial sum is an integer of at most
    ``_chunk_digits(q_max) * (2**16 - 1) * (q_max - 1)``
    <= (2**63 - 1) / (2**16 + 1) < 2**47, so the products are exact under
    any BLAS kernel, FMA or summation order. A chunk's low product plus
    its high product times 2**16 mod q then stays below 2**63 in int64
    and is subtracted from the running residue, reduced once per chunk.
    Raises ResourceError before building a table of more than
    ``DEFAULT_MEMORY_BUDGET`` bytes.

    Args:
        starts: non-empty sequence of integers >= 0, arbitrary precision.
        moduli: tuple of moduli, each in [1, 2**31).
    """
    q_max = max(moduli)
    if q_max >= 1 << 31:
        raise DomainError(f"modulus {q_max} exceeds 2**31 - 1")
    if min(starts) < 0:
        raise DomainError("window starts must be >= 0")
    chunk = _chunk_digits(q_max)
    width = _digit_width(max(starts), len(moduli))
    n = len(starts)
    raw = b"".join(s.to_bytes(width * _DIGIT_BITS // 8, "little") for s in starts)
    # Rows 0..n-1 hold the starts' low halves, rows n..2n-1 their high halves.
    halves = np.frombuffer(raw, dtype="<u2").reshape(n, width, 2).transpose(2, 0, 1)
    halves = halves.astype(np.float64, order="C").reshape(2 * n, width)
    weights = _digit_weights(moduli, width)
    mod = np.array(moduli, dtype=np.int64)
    scale = (1 << 16) % mod
    res = np.zeros((n, len(mod)), dtype=np.int64)
    for a in range(0, width, chunk):
        part = (halves[:, a : a + chunk] @ weights[a : a + chunk]).astype(np.int64)
        part[n:] *= scale
        res -= part[:n]
        res -= part[n:]
        np.remainder(res, mod, out=res)
    return res


def _coprime_split(ps) -> tuple:
    """(the presieve primes among ``ps``, the other primes after 2): the
    pattern and the one-by-one strikes of ``_coprime_counts``."""
    present = set(ps)
    pre = tuple(q for q in _PRESIEVE_PRIMES if q in present)
    return pre, [q for q in ps[1:] if q not in pre]


def _check_coprime_starts(max_start: int, primes) -> None:
    """Raise ResourceError where ``_coprime_counts`` over ``primes`` would
    build a digit-weight table beyond the memory budget for ``max_start``.

    Its moduli are 2, the pattern period and the struck primes, so a caller
    can fail before counting, or forking, rather than at the first batch.
    """
    _digit_width(max_start, 2 + len(_coprime_split(primes)[1]))


def _coprime_counts(starts, length: int, primes):
    """Integers coprime to ``prod(primes)`` in ``[s, s + length)``, batch by batch.

    Takes any iterable of starts (integers >= 0 of any precision) and
    yields one int64 count array per ``_COPRIME_BATCH`` starts (the last
    may be shorter), so memory does not grow with the number of starts.
    One flag per odd integer: ``primes`` must start with 2, so no even
    integer survives. Each batch fills one row per start in one reused
    buffer, in whole-batch steps:

    * the row offsets come from one ``_strike_offsets`` call over the
      moduli 2 (the parity of s), the pattern period and every other
      prime;
    * every row is gathered at once, by fancy indexing, from the
      ``_rotated_rows`` view of the presieve pattern of the odd primes
      of ``primes`` among 3..17, which marks coprimality to them exactly
      (1 survives, each q itself is struck);
    * each remaining prime q strikes the whole batch with one write
      through a ``(rows, slots // q, q)`` strided view, one column per
      row. Rows are padded by ``max(primes)`` so that view stays inside;
    * each row is counted with its own ``np.count_nonzero``, which at
      thousands of slots is several times faster than one call with
      ``axis=1``.
    """
    ps = [int(p) for p in primes]
    if length < 1:
        raise DomainError(f"window length must be >= 1, got {length}")
    if not ps or ps[0] != 2 or any(a >= b for a, b in zip(ps, ps[1:])):
        raise DomainError("primes must be ascending distinct primes starting with 2")
    pre, strike = _coprime_split(ps)
    pattern = _presieve_pattern(pre)
    period = len(pattern)
    moduli = (2, period, *strike)
    m = (length + 1) // 2
    windows = _rotated_rows(pattern, m)
    buf = np.empty((_COPRIME_BATCH, m + ps[-1]), dtype=bool)
    views = [np.lib.stride_tricks.as_strided(buf, (_COPRIME_BATCH, -(-m // q), q),
                                             (buf.strides[0], q, 1))
             for q in strike]
    strike = np.array(strike, dtype=np.int64)
    it = iter(starts)
    while batch := list(itertools.islice(it, _COPRIME_BATCH)):
        n = len(batch)
        off = _strike_offsets(batch, moduli)
        par = off[:, :1]  # s mod 2; row slot i holds first + 2i with first = s + 1 - par
        rotation = -(off[:, 1] + par[:, 0]) * ((period + 1) // 2) % period  # (first // 2) mod period
        flags = buf[:n]
        flags[:, :m] = windows[rotation]
        # The first odd multiple of q at or after s is s + x, with x = off
        # when s + off is odd and x = off + q otherwise; its slot is
        # (x - 1 + par) // 2. Computed in place to keep one temporary.
        slot = off[:, 2:] + par
        slot &= 1
        slot ^= 1
        slot *= strike
        slot += off[:, 2:]
        slot += par - 1
        slot //= 2
        rows = np.arange(n)
        for view, column in zip(views, slot.T):
            view[rows, :, column] = False
        if length & 1:
            flags[par[:, 0] == 0, m - 1] = False  # an even start leaves one slot fewer
        yield np.array([np.count_nonzero(row) for row in flags[:, :m]], dtype=np.int64)


def _period_counts(primes, length: int):
    """Integers coprime to P = ``prod(primes)`` in ``[s, s + length)`` for every s in [0, P).

    Yields int32 count arrays of at most ``_PERIOD_BLOCK`` starts, in no
    particular order of s. ``primes`` must start with 2, so every
    survivor is odd and the odd presieve pattern of the other primes,
    P / 2 flags built afresh rather than cached, is one period of
    coprimality. Start 2a holds the odd slots a .. a + length // 2 - 1
    and start 2a + 1 the slots a .. a + (length + 1) // 2 - 1, so one
    prefix over a block of slots, read at the two spans, counts both.
    """
    pattern = _presieve_pattern.__wrapped__(tuple(int(p) for p in primes[1:]))
    spans = (length // 2, (length + 1) // 2)
    for a in range(0, len(pattern), _PERIOD_BLOCK):
        n = min(_PERIOD_BLOCK, len(pattern) - a)
        ext = np.empty(n + spans[1], dtype=bool)
        _fill_rotated(ext, pattern, a)
        prefix = np.zeros(len(ext) + 1, dtype=np.int32)
        np.cumsum(ext, dtype=np.int32, out=prefix[1:])
        for span in spans:
            yield prefix[span : span + n] - prefix[:n]


def count_primes_upto(x: int, table: PrimeTable) -> int:
    """Exact pi(x), counted on the wheel rows with base primes from the table.

    Requires x <= table.bound**2 so that the base primes cover sqrt(x).
    The rows are streamed one block at a time, so no array spans [0, x]:
    they are struck below cbrt(x) and the semiprimes left are subtracted,
    which takes a table of about x^(2/3) / 6 bytes and 0.45 to 0.65 of
    the full strike's time for x from 10^6 to 10^10. Raises ResourceError
    where that table would exceed ``DEFAULT_MEMORY_BUDGET`` bytes, from x
    of about 1.46 * 10^15 on.
    """
    if x < 2:
        raise DomainError(f"pi(x) needs x >= 2, got {x}")
    if x <= table.bound:
        return table.count_upto(x)
    if x > table.bound * table.bound:
        raise DomainError(f"x={x} exceeds table capacity bound^2 = {table.bound**2}")
    base = table.primes[: table.count_upto(math.isqrt(x))]
    return int(_primes_below(0, [x + 1], base, _semiprime_lookup(x + 1, base))[0])
