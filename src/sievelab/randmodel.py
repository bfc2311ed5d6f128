"""Random models for per-interval prime counts.

The sample space for the count in a window of length l_k is the set of
shifted-window values S(s_k^j, p_k#), 0 <= j < p_k#, of which the true
pi_k is the j = 0 element. Exhaustive mode counts the window at every
residue of one period, block by block, from the period's odd
coprimality pattern (``sieve_core._period_counts``); a pattern beyond
the 2^31-byte memory budget raises ResourceError before anything is
allocated. Sampled mode draws shifts with a derived per-sample seed, so
results are independent of evaluation order and worker count; the
drawn windows are counted in fixed batches by the coprime counter of
``sieve_core``, in contiguous ranges of draw indices, one task each of
``sieve_core._worker_map``, which forks a worker per range (none for
one) that inherits its task; the parent adds their integer histograms. Both modes feed their
counts into one histogram, off which the count sum, sum of squares,
minimum and maximum are read in exact integer arithmetic, so memory
does not grow with the draw count.

Rescaling the raw (coprimality) model by e^gamma / 2 moves its mean to
the density-of-primes scale l_k / log p_{k+1}^2, where it is compared
against binomial B(l_k, 1/log p_{k+1}^2) and Poisson references.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analytic
from .errors import DomainError, ResourceError
from .intervals import IntervalSet
from .sieve_core import (_COPRIME_BATCH, DEFAULT_MEMORY_BUDGET, PrimeTable, _check_coprime_starts,
                         _coprime_counts, _period_counts, _pool_size, _worker_map)
from .stats_lab import ScanSeries

# Exhaustive evaluation threshold and default sampled draw count. At 10^5
# a default call is exhaustive only for k <= 6 (p_7# = 510510) and never
# draws more than 10^5 windows.
DEFAULT_BUDGET = 100_000


@dataclass(frozen=True)
class ShiftModelSummary:
    """Moments of the shifted-window sample space for one interval."""

    k: int
    mode: str                 # "exhaustive" | "sampled"
    samples: int              # p_k# when exhaustive, draw count when sampled
    mean: float
    variance: float           # population (exhaustive) or unbiased (sampled)
    rescaled_mean: float      # (e^gamma / 2) * mean
    rescaled_variance: float  # (e^gamma / 2)^2 * variance
    seed: Optional[int]       # present iff sampled
    count_sum: int            # exact integer sum of window counts
    count_sq_sum: int         # exact integer sum of squared counts
    count_min: int
    count_max: int
    histogram: np.ndarray     # bincount of the observed window counts


def _summarize(k: int, mode: str, hist: np.ndarray, seed: Optional[int]) -> ShiftModelSummary:
    """The summary of the window counts whose bincount is ``hist``, moments exact."""
    values = np.flatnonzero(hist).tolist()
    freqs = hist[values].tolist()
    n = sum(freqs)
    counts_sum = sum(v * f for v, f in zip(values, freqs))
    counts_sq = sum(v * v * f for v, f in zip(values, freqs))
    mean = counts_sum / n
    if mode == "exhaustive":
        variance = (n * counts_sq - counts_sum * counts_sum) / (n * n)
    else:
        variance = (n * counts_sq - counts_sum * counts_sum) / (n * (n - 1))
    scale = math.exp(analytic.EULER_GAMMA) / 2.0
    return ShiftModelSummary(
        k=k, mode=mode, samples=n, mean=mean, variance=variance,
        rescaled_mean=scale * mean, rescaled_variance=scale * scale * variance,
        seed=seed, count_sum=counts_sum, count_sq_sum=counts_sq,
        count_min=values[0], count_max=values[-1], histogram=hist,
    )


def _add_histograms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, the shorter read as zero-padded; written into the longer."""
    if len(a) < len(b):
        a, b = b, a
    a[: len(b)] += b
    return a


def _histogram(blocks) -> np.ndarray:
    """The int64 bincount of every count array in ``blocks``."""
    hist = np.zeros(0, dtype=np.int64)
    for counts in blocks:
        hist = _add_histograms(hist, np.bincount(counts))
    return hist


def _draw_ranges(draws: int, threads: int) -> list:
    """Contiguous ranges of the draw indices 0..draws-1, one per worker.

    They are cut at ``_COPRIME_BATCH`` boundaries, so no worker gets an
    empty range and only the last range ends in a short batch.
    """
    batches = -(-draws // _COPRIME_BATCH)
    workers = _pool_size(threads, batches)
    cuts = [min(draws, batches * i // workers * _COPRIME_BATCH) for i in range(workers + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _draw_starts(seed: int, k: int, draws: range, lo0: int, period: int):
    """lo0 plus the shift of each draw i in ``draws``: the first
    ``randrange(period)`` of ``random.Random(f"{seed}:{k}:{i}")``, from one
    generator re-seeded per draw."""
    rng = random.Random()
    for i in draws:
        rng.seed(f"{seed}:{k}:{i}")
        yield lo0 + rng.randrange(period)


def _draw_histogram(task) -> np.ndarray:
    """The histogram of one range of draws; ``task`` is
    (draws, seed, k, lo0, period, length, primes)."""
    draws, seed, k, lo0, period, length, ps = task
    return _histogram(_coprime_counts(_draw_starts(seed, k, draws, lo0, period), length, ps))


def shift_model(k: int, table: PrimeTable, budget: int = DEFAULT_BUDGET,
                seed: int = 0, threads: int = 1) -> ShiftModelSummary:
    """Moments of {S(s_k^j, p_k#)}: exhaustive when p_k# <= budget, else sampled.

    Exhaustive mode counts the window at every residue of one period:
    a window's count depends only on its start mod p_k#, and s_k^j runs
    through every residue once. Its mean is l_k * phi(p_k#) / p_k# with
    zero numerical error beyond the final float division. It holds the
    period's odd coprimality pattern, p_k# / 2 bytes, and raises
    ResourceError before allocating when that exceeds 2^31 bytes (from
    k = 10). Sampled mode draws ``budget`` shifts; each draw's shift is
    derived from (seed, k, draw index), so the result does not depend on
    evaluation order or ``threads``. The draws are split into contiguous
    ranges over at most ``threads`` forked workers (one per
    ``_COPRIME_BATCH`` draws at most), each counting its range in fixed
    batches in one reused buffer. It raises ResourceError before
    counting or forking when the counter's digit table for the largest
    possible start would exceed the memory budget. Either mode keeps
    only the histogram of the counts, off which every moment is read
    exactly.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if budget < 2:
        raise DomainError("budget must be >= 2")
    ps = [int(p) for p in table.first(k)]
    period = math.prod(ps)  # p_k#
    p, p_next = table.nth(k), table.nth(k + 1)
    lo0 = p * p
    length = p_next * p_next - lo0

    if period <= budget:
        if period // 2 > DEFAULT_MEMORY_BUDGET:
            raise ResourceError(f"exhaustive period p_{k}# = {period} needs {period // 2} bytes, "
                                f"beyond the {DEFAULT_MEMORY_BUDGET}-byte budget")
        return _summarize(k, "exhaustive", _histogram(_period_counts(ps, length)), None)
    _check_coprime_starts(lo0 + period - 1, ps)
    tasks = [(draws, seed, k, lo0, period, length, ps) for draws in _draw_ranges(budget, threads)]
    with _worker_map(threads, _draw_histogram, tasks) as results:
        hist = functools.reduce(_add_histograms, results)
    return _summarize(k, "sampled", hist, seed)


@dataclass(frozen=True)
class ReferenceDistribution:
    """Binomial or Poisson reference for the per-interval count."""

    kind: str                 # "binomial" | "poisson"
    trials: Optional[int]     # l_k for the binomial, None for Poisson
    success_p: float          # 1 / log p_{k+1}^2
    mean: float
    variance: float

    def sigma(self, n):
        """Running binomial standard deviation sqrt(n p (1 - p)).

        Accepts a scalar or an array of partial lengths 0 <= n <= l_k;
        only meaningful for the binomial reference.
        """
        if self.kind != "binomial":
            raise DomainError("running sigma is a binomial-reference quantity")
        n_arr = np.asarray(n, dtype=np.float64)
        return np.sqrt(n_arr * self.success_p * (1.0 - self.success_p))


def binomial_reference(k: int, table: PrimeTable) -> ReferenceDistribution:
    """B(l_k, 1/log p_{k+1}^2)."""
    p_next = table.nth(k + 1)
    length = analytic.interval_length(k, table)
    sp = 1.0 / math.log(p_next * p_next)
    return ReferenceDistribution(kind="binomial", trials=length, success_p=sp,
                                 mean=length * sp, variance=length * sp * (1.0 - sp))


def poisson_reference(k: int, table: PrimeTable) -> ReferenceDistribution:
    """Pois(l_k / log p_{k+1}^2)."""
    p_next = table.nth(k + 1)
    length = analytic.interval_length(k, table)
    sp = 1.0 / math.log(p_next * p_next)
    lam = length * sp
    return ReferenceDistribution(kind="poisson", trials=None, success_p=sp,
                                 mean=lam, variance=lam)


def variance_comparison(k_range, table: PrimeTable, budget: int = DEFAULT_BUDGET,
                        seed: int = 0) -> ScanSeries:
    """Binomial stdev minus rescaled model stdev, per k; negative = violation.

    Per k, the series holds the ``margin`` by which the binomial bound
    holds, the model and binomial stdevs, the Poisson variance, and the
    model's ``mode`` and ``samples``; the metadata counts the violating k.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise DomainError("empty k range")
    rows = []
    for k in ks:
        summary = shift_model(k, table, budget=budget, seed=seed)
        model_sd = math.sqrt(summary.rescaled_variance)
        binom_sd = math.sqrt(binomial_reference(k, table).variance)
        rows.append((k, binom_sd - model_sd, model_sd, binom_sd,
                     poisson_reference(k, table).variance, summary.mode, summary.samples))
    names = ("k", "margin", "model_stdev", "binom_stdev", "pois_var", "mode", "samples")
    columns = dict(zip(names, map(np.array, zip(*rows))))
    return ScanSeries(label="variance_comparison", columns=columns, metadata={
        "seed": seed, "violations": int(np.count_nonzero(columns["margin"] <= 0))})


def sum_model_bounds(x: int, interval_set: IntervalSet, table: PrimeTable) -> tuple[float, float]:
    """(mu, sigma_bound) for the summed count model at x.

    mu sums the per-interval densities l_j / log p_{j+1}^2 (the
    ``pnt_estimate`` column) with the fractional last term; with Poisson
    per-interval variances the summed variance equals mu, so
    sigma_bound = sqrt(mu) <= sqrt(li(x)) up to the density-vs-integral
    gap.
    """
    k = interval_set.locate(x)
    rec = interval_set.record(k)
    mu = float(np.sum(interval_set.pnt_estimate[: k - 1]))
    mu += (x - rec.p_k ** 2) / math.log(rec.p_next ** 2)
    return mu, math.sqrt(mu)


def conjecture_check(interval_set: IntervalSet) -> ScanSeries:
    """pi(x) - li(x) against the +/- sqrt(li(x)) band at every x = p_{k+1}^2.

    The metadata counts the violations (|pi - li| >= sqrt(li)), which are
    never raised: whether the model's bound transfers to the true counts
    is an empirical question.
    """
    s = interval_set
    diff = s.pi_cum - s.li_cum
    sqrt_li = np.sqrt(s.li_cum)
    return ScanSeries(
        label="conjecture",
        columns={"k": np.arange(1, len(s) + 1), "x": s.p_next * s.p_next,
                 "pi_minus_li": diff, "sqrt_li": sqrt_li},
        metadata={"violations": int(np.count_nonzero(np.abs(diff) >= sqrt_li))},
    )
