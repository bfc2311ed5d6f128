"""Empirical analyses over the interval decomposition.

Everything here transforms already-computed interval data into the
labeled (x, value) series that back the dataset CSVs: density scans
over Maier windows [x, x + (log x)^lambda], moving averages of gap
sequences, moment-fitted empirical densities, lag correlations of the
deviation sequence pi_k - li_k, and the normalized bias curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .errors import DomainError
from .intervals import IntervalSet
from .sieve_core import PrimeTable, _primes_below


@dataclass
class ScanSeries:
    """A labeled (x, value) series backing one figure or CSV."""

    label: str
    points: list            # [(x, value), ...] with x strictly increasing
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError(f"series '{self.label}' x values not strictly increasing")
        if not all(math.isfinite(p[0]) and math.isfinite(p[1]) for p in self.points):
            raise DomainError(f"series '{self.label}' contains non-finite points")

    def xs(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    def values(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])


@dataclass(frozen=True)
class GaussianFit:
    """Moment fit: sample mean and unbiased standard deviation."""

    mean: float
    stdev: float
    sample_count: int


def fit_gaussian(samples) -> GaussianFit:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 1:
        raise DomainError("cannot fit an empty sample")
    mean = float(np.mean(arr))
    stdev = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return GaussianFit(mean=mean, stdev=stdev, sample_count=int(arr.size))


@dataclass
class MaierScan:
    """Window-density ratios across one interval s_k."""

    k: int
    lam: float
    ratios: ScanSeries      # x -> [pi(x + (log x)^lam) - pi(x)] / (log x)^(lam-1)
    whole_interval_ratio: float  # pi_k / (l_k / log p_{k+1}^2)
    up_deviation: float     # max ratio - 1
    down_deviation: float   # 1 - min ratio
    delta: float            # min of the two: largest band exited on both sides


def maier_scan(k: int, lam: float, table: PrimeTable, step: int = 0) -> MaierScan:
    """Scan s_k with windows of length (log x)^lam.

    Counts come from one pass of the wheel counter over s_k; the scan
    step only subsamples x (default ceil(Phi(p_k^2)/100)). x ranges over
    [p_k^2, p_{k+1}^2 - Phi(x)), which leaves the last stretch of the
    interval unscanned by construction. A non-finite lam, or a window
    length Phi(p_k^2) that overflows, underflows to 0 or does not fit
    inside s_k, raises DomainError, and so does a negative step.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    if step < 0:
        raise DomainError(f"step must be >= 0, got {step}")
    p, p_next = table.nth(k), table.nth(k + 1)
    lo, hi = p * p, p_next * p_next - 1
    try:
        phi_lo = math.log(lo) ** lam
    except OverflowError:
        phi_lo = math.inf
    if not 0 < phi_lo < hi - lo + 1:
        raise DomainError(f"window (log x)^{lam} = {phi_lo} does not fit inside s_{k}")
    if step == 0:
        step = math.ceil(phi_lo / 100.0)
    xs = np.arange(lo, hi + 1, step, dtype=np.int64)
    logs = np.log(xs.astype(np.float64))
    upper = np.floor(xs + logs ** lam).astype(np.int64)
    keep = upper <= hi
    xs, logs, upper = xs[keep], logs[keep], upper[keep]
    # primes in (x, x + phi] = primes in [lo, upper + 1) - primes in [lo, x + 1),
    # counted in one pass over s_k along with pi_k = primes in [lo, hi + 1).
    # Each window end is overwritten by the primes below it.
    below = np.concatenate((xs + 1, upper + 1, [hi + 1]))
    order = np.argsort(below, kind="stable")
    below[order] = _primes_below(lo, below[order], table.first(k))
    counts = below[len(xs) : 2 * len(xs)] - below[: len(xs)]
    ratios = counts / logs ** (lam - 1.0)

    pi_k = int(below[-1])
    series = ScanSeries(
        label=f"maier_k{k}",
        points=[(float(x), float(r)) for x, r in zip(xs, ratios)],
        metadata={"k": k, "lambda": lam, "step": step,
                  "phi_start": phi_lo, "phi_end": math.log(hi) ** lam,
                  "counts": counts.tolist()},
    )
    up = float(np.max(ratios) - 1.0)
    down = float(1.0 - np.min(ratios))
    return MaierScan(
        k=k, lam=lam, ratios=series,
        whole_interval_ratio=pi_k / ((hi - lo + 1) / math.log(p_next * p_next)),
        up_deviation=up, down_deviation=down, delta=min(up, down),
    )


def extract_delta(scans) -> float:
    """Largest band half-width exited on both sides in every scanned interval."""
    if not scans:
        raise DomainError("no scans given")
    return min(s.delta for s in scans)


def _bisect_crossing(f, a: float, b: float, iters: int = 80) -> float:
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if (f(m) > 0) == (fa > 0):
            a = m
            fa = f(m)
        else:
            b = m
    return 0.5 * (a + b)


def phi_vs_lengths(x_max: int, lam: float, table: PrimeTable, g_max: int = 40) -> ScanSeries:
    """Where (log x)^lam stops covering the length curve l_g(x) = 2 sqrt(x) g - g^2.

    For each even gap class g <= g_max the series holds the largest x
    below x_max where the window length crosses below the curve; beyond
    the largest listed crossing, every interval length beats the window.
    Gap classes with no crossing inside [8, x_max] are skipped.
    """
    if x_max < 16:
        raise DomainError("x_max too small")
    grid = np.exp(np.linspace(math.log(8.0), math.log(float(x_max)), 400))
    log_pow = np.log(grid) ** lam
    roots = np.sqrt(grid)
    points = []
    lowers = {}
    for g in range(2, g_max + 1, 2):
        def h(x, g=g):
            return math.log(x) ** lam - (2.0 * math.sqrt(x) * g - g * g)

        vals = log_pow - (2.0 * roots * g - g * g)
        sign_changes = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        if len(sign_changes) == 0:
            continue
        i = sign_changes[-1]
        crossing = _bisect_crossing(h, float(grid[i]), float(grid[i + 1]))
        points.append((float(g), crossing))
        if len(sign_changes) > 1:
            j = sign_changes[0]
            lowers[g] = _bisect_crossing(h, float(grid[j]), float(grid[j + 1]))
    return ScanSeries(label="phi_vs_lengths", points=points,
                      metadata={"lambda": lam, "x_max": x_max, "lower_crossings": lowers})


def moving_average(series, run: int):
    """Centered simple moving average with shrinking windows at the edges."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size == 0:
        raise DomainError("moving_average needs a non-empty sequence")
    if run < 1 or run > arr.size:
        raise DomainError(f"run {run} outside 1..{arr.size}")
    half_left = (run - 1) // 2
    half_right = run // 2
    out = np.empty_like(arr)
    for i in range(arr.size):
        a = max(0, i - half_left)
        b = min(arr.size, i + half_right + 1)
        out[i] = arr[a:b].mean()
    return out


def empirical_pdf(samples, bins: int) -> tuple[ScanSeries, GaussianFit]:
    """Density-normalized histogram (unit integral) plus a moment fit."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise DomainError("empirical_pdf needs at least 2 samples")
    if bins < 1:
        raise DomainError("bins must be >= 1")
    fit = fit_gaussian(arr)
    if np.all(arr == arr[0]):
        series = ScanSeries(label="pdf", points=[(float(arr[0]), 1.0)],
                            metadata={"bins": 1, "bin_width": 1.0, "degenerate": True})
        return series, fit
    density, edges = np.histogram(arr, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    series = ScanSeries(
        label="pdf",
        points=[(float(c), float(d)) for c, d in zip(centers, density)],
        metadata={"bins": bins, "bin_width": float(edges[1] - edges[0])},
    )
    return series, fit


def check_lag_arguments(n: int, max_lag: int, block: int = 0) -> None:
    """Raise DomainError unless 0 <= max_lag < n and block is 0 or in (max_lag, n]."""
    if max_lag < 0:
        raise DomainError(f"max_lag must be >= 0, got {max_lag}")
    if n <= max_lag:
        raise DomainError("deviation sequence shorter than max_lag")
    if block < 0:
        raise DomainError(f"block must be >= 0, got {block}")
    if 0 < block <= max_lag:
        raise DomainError("block must exceed max_lag")
    if block > n:
        raise DomainError("deviation sequence shorter than one block")


def lag_correlation(deviations, max_lag: int, block: int = 0) -> ScanSeries:
    """Lagged products of the deviation sequence, normalized by E[d^2].

    The normalization is asymmetric (the denominator is the mean square
    of the full averaging range, not a per-lag variance product); lag 0
    is exactly 1 by construction. With block > 0 the statistic is
    computed per non-overlapping block and the series maps block number
    to the lag-1 value, with all lags kept in metadata. Arguments that
    check_lag_arguments refuses, and a sequence or block whose mean square
    is 0, raise DomainError.
    """
    d = np.asarray(deviations, dtype=np.float64)
    check_lag_arguments(d.size, max_lag, block)

    def corr_range(seg: np.ndarray, lags) -> list:
        den = float(np.mean(seg * seg))
        if den == 0.0:
            raise DomainError("lag correlation of an all-zero " + ("block" if block else "sequence"))
        return [float(np.mean(seg[: seg.size - j] * seg[j:])) / den for j in lags]

    if block == 0:
        lags = list(range(0, max_lag + 1))
        vals = corr_range(d, lags)
        return ScanSeries(
            label="lag_correlation",
            points=[(float(j), v) for j, v in zip(lags, vals)],
            metadata={"normalization": "asymmetric", "n": int(d.size)},
        )

    n_blocks = d.size // block
    lags = list(range(1, max_lag + 1))
    per_lag = {j: [] for j in lags}
    for b in range(n_blocks):
        seg = d[b * block : (b + 1) * block]
        for j, v in zip(lags, corr_range(seg, lags)):
            per_lag[j].append(v)
    return ScanSeries(
        label="lag_correlation_blocks",
        points=[(float(b + 1), per_lag[1][b]) for b in range(n_blocks)],
        metadata={"normalization": "asymmetric", "block": block,
                  "per_lag": {str(j): per_lag[j] for j in lags}},
    )


def bias_series(interval_set: IntervalSet) -> ScanSeries:
    """The three cumulative error curves at x = p_{k+1}^2, raw and normalized.

    (a) pi(x) - li(x); (b) running sum of l_j/log p_j^2 - li_j;
    (c) running sum of l_j/log p_{j+1}^2 - li_j; each also divided by
    the spread normalizer Delta_k (``analytic.delta_normalizer``). pi and
    li are the interval set's running sums ``pi_cum`` and ``li_cum``.
    """
    s = interval_set
    over_lo, over_hi, delta = analytic._spread_columns(s.p_k, s.p_next)
    upper = np.cumsum(over_lo - s.li_k)                    # curve (b)
    lower = np.cumsum(over_hi - s.li_k)                    # curve (c)
    a = s.pi_cum - s.li_cum
    xs = (s.p_next * s.p_next).astype(np.float64)

    fit = fit_gaussian(a / delta)
    return ScanSeries(
        label="bias",
        points=[(float(x), float(v)) for x, v in zip(xs, a)],
        metadata={
            "k": list(range(1, len(s) + 1)),
            "b": upper.tolist(),
            "c": lower.tolist(),
            "a_norm": (a / delta).tolist(),
            "b_norm": (upper / delta).tolist(),
            "c_norm": (lower / delta).tolist(),
            "delta": delta.tolist(),
            "fit": fit,
            "pi_cum": s.pi_cum.tolist(),
            "li_cum": s.li_cum.tolist(),
        },
    )
