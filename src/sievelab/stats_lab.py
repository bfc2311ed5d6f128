"""Empirical analyses over the interval decomposition.

Everything here transforms already-computed interval data into labeled
sets of numpy columns (``ScanSeries``) that back the dataset CSVs:
density scans over Maier windows (x, x + (log x)^lambda] and the prime
gaps inside one s_k (``maier_scan`` and ``gap_series``, both read off
the primes of s_k from ``sieve_core._prime_list``), moving averages,
moment-fitted empirical densities, lag correlations of the deviation
sequence pi_k - li_k, and the normalized bias curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .errors import DomainError
from .intervals import IntervalSet, _read_only
from .sieve_core import PrimeTable, _prime_list

# Halvings per crossing in phi_vs_lengths.
_BISECT_ITERS = 80


@dataclass
class ScanSeries:
    """A labeled set of columns backing one figure or CSV.

    ``columns`` maps each name (the CSV header, where the series is
    written) to an equal-length, read-only 1-D numpy array; the first
    column is strictly increasing and no float column holds a non-finite
    value. ``metadata`` holds scalars and small objects only.
    """

    label: str
    columns: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = {name: _read_only(np.asarray(values).view())
                        for name, values in self.columns.items()}
        arrays = list(self.columns.values())
        if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
            raise DomainError(f"series '{self.label}' needs 1-D columns of one length")
        if any(a.dtype.kind == "f" and not np.isfinite(a).all() for a in arrays):
            raise DomainError(f"series '{self.label}' contains non-finite values")
        if np.any(arrays[0][1:] <= arrays[0][:-1]):
            raise DomainError(f"series '{self.label}' first column not strictly increasing")


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
    if not np.isfinite(arr).all():
        raise DomainError("cannot fit a sample with non-finite values")
    mean = float(np.mean(arr))
    stdev = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return GaussianFit(mean=mean, stdev=stdev, sample_count=int(arr.size))


@dataclass
class MaierScan:
    """Window-density ratios across one interval s_k."""

    k: int
    lam: float
    step: int               # stride of x
    phi_start: float        # window length (log p_k^2)^lam
    phi_end: float          # window length (log (p_{k+1}^2 - 1))^lam
    ratios: ScanSeries      # x, ratio = count / (log x)^(lam-1), count in (x, x + (log x)^lam]
    whole_interval_ratio: float  # pi_k / (l_k / log p_{k+1}^2)
    up_deviation: float     # max ratio - 1
    down_deviation: float   # 1 - min ratio
    delta: float            # min of the two: largest band exited on both sides


def maier_scan(k: int, lam: float, table: PrimeTable, step: int = 0) -> MaierScan:
    """Scan s_k with windows of length (log x)^lam.

    Counts are read off the primes of s_k (``sieve_core._prime_list``)
    with two binary searches per window; the scan step only subsamples x
    (default ceil(Phi(p_k^2)/100)). x ranges over [p_k^2, p_{k+1}^2 -
    Phi(x)), which leaves the last stretch of the interval unscanned by
    construction. A non-finite lam, or a window length Phi(p_k^2) that
    overflows, underflows to 0 or does not fit inside s_k, raises
    DomainError, and so does a negative step.
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
    primes = _prime_list(lo, hi + 1, table.first(k))
    # primes in (x, x + phi] = primes <= upper - primes <= x
    counts = np.searchsorted(primes, upper, side="right")
    counts -= np.searchsorted(primes, xs, side="right")
    ratios = counts / logs ** (lam - 1.0)
    series = ScanSeries(label=f"maier_k{k}", columns={"x": xs, "ratio": ratios, "count": counts})
    up, down = float(np.max(ratios) - 1.0), float(1.0 - np.min(ratios))
    return MaierScan(
        k=k, lam=lam, step=step, phi_start=phi_lo, phi_end=math.log(hi) ** lam, ratios=series,
        whole_interval_ratio=len(primes) / ((hi - lo + 1) / math.log(p_next * p_next)),
        up_deviation=up, down_deviation=down, delta=min(up, down),
    )


def extract_delta(scans) -> float:
    """Largest band half-width exited on both sides in every scanned interval."""
    if not scans:
        raise DomainError("no scans given")
    return min(s.delta for s in scans)


def _bisect_crossing(f, a: float, b: float) -> float:
    positive = f(a) > 0
    for _ in range(_BISECT_ITERS):
        m = 0.5 * (a + b)
        if (f(m) > 0) == positive:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def phi_vs_lengths(x_max: int, lam: float, table: PrimeTable) -> ScanSeries:
    """Where (log x)^lam stops covering the length curve l_g(x) = 2 sqrt(x) g - g^2.

    For each even gap class g <= 40 the series holds the largest x
    (``crossing``) below x_max where the window length crosses below the
    curve; beyond the largest listed crossing, every interval length beats
    the window. Gap classes with no crossing inside [8, x_max] are skipped.
    A non-finite lam raises DomainError.
    """
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    if x_max < 16:
        raise DomainError("x_max too small")
    grid = np.exp(np.linspace(math.log(8.0), math.log(float(x_max)), 400))
    log_pow = np.log(grid) ** lam
    roots = np.sqrt(grid)
    gs, crossings, lowers = [], [], {}
    for g in range(2, 41, 2):
        def h(x, g=g):
            return math.log(x) ** lam - (2.0 * math.sqrt(x) * g - g * g)

        vals = log_pow - (2.0 * roots * g - g * g)
        sign_changes = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        if len(sign_changes) == 0:
            continue
        i = sign_changes[-1]
        gs.append(g)
        crossings.append(_bisect_crossing(h, float(grid[i]), float(grid[i + 1])))
        if len(sign_changes) > 1:
            j = sign_changes[0]
            lowers[g] = _bisect_crossing(h, float(grid[j]), float(grid[j + 1]))
    return ScanSeries(label="phi_vs_lengths",
                      columns={"g": np.array(gs, dtype=np.int64), "crossing": np.array(crossings)},
                      metadata={"lambda": lam, "x_max": x_max, "lower_crossings": lowers})


def gap_series(k: int, interval_set: IntervalSet, table: PrimeTable) -> ScanSeries:
    """The consecutive prime gaps inside s_k.

    Column ``p`` holds each prime of s_k but the last and ``g`` the gap to
    the next one. The metadata holds k, their ``mean_gap`` (NaN with no
    gap) and the ``expected_gap`` log p_{k+1}^2.
    """
    rec = interval_set.record(k)
    primes = _prime_list(rec.p_k ** 2, rec.p_next ** 2, table.first(k))
    gaps = np.diff(primes)
    return ScanSeries(label=f"gaps_k{k}", columns={"p": primes[:-1], "g": gaps}, metadata={
        "k": k, "mean_gap": float(np.mean(gaps)) if len(gaps) else float("nan"),
        "expected_gap": math.log(rec.p_next ** 2)})


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
    """Density-normalized histogram (unit integral) plus a moment fit.

    The series holds the bin ``center`` and ``density`` columns; samples
    that are all equal give one bin of density 1.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise DomainError("empirical_pdf needs at least 2 samples")
    if bins < 1:
        raise DomainError("bins must be >= 1")
    fit = fit_gaussian(arr)
    if np.all(arr == arr[0]):
        series = ScanSeries(label="pdf", columns={"center": arr[:1], "density": [1.0]},
                            metadata={"bins": 1, "bin_width": 1.0, "degenerate": True})
        return series, fit
    density, edges = np.histogram(arr, bins=bins, density=True)
    series = ScanSeries(
        label="pdf",
        columns={"center": 0.5 * (edges[:-1] + edges[1:]), "density": density},
        metadata={"bins": bins, "bin_width": float(edges[1] - edges[0])},
    )
    return series, fit


def check_lag_arguments(n: int, max_lag: int, block: int = 0) -> None:
    """Raise DomainError unless 0 <= max_lag < n and block is 0, or
    1 <= max_lag < block <= n (a block series holds lag 1)."""
    if max_lag < 0:
        raise DomainError(f"max_lag must be >= 0, got {max_lag}")
    if block and max_lag < 1:
        raise DomainError("block mode needs max_lag >= 1")
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
    is exactly 1 by construction. The series maps ``lag_or_block`` to
    ``value``: each lag 0..max_lag, or with block > 0 each non-overlapping
    block 1..n to its lag-1 value, with columns ``lag_1``..``lag_<max_lag>``
    holding every lag of each block. Arguments that check_lag_arguments
    refuses, and a sequence or block whose mean square is 0, raise
    DomainError.
    """
    d = np.asarray(deviations, dtype=np.float64)
    check_lag_arguments(d.size, max_lag, block)

    def corr_range(seg: np.ndarray, lags) -> list:
        den = float(np.mean(seg * seg))
        if den == 0.0:
            raise DomainError("lag correlation of an all-zero " + ("block" if block else "sequence"))
        return [float(np.mean(seg[: seg.size - j] * seg[j:])) / den for j in lags]

    meta = {"normalization": "asymmetric", "n": int(d.size), "block": block}
    if block == 0:
        return ScanSeries(label="lag_correlation", metadata=meta, columns={
            "lag_or_block": np.arange(max_lag + 1),
            "value": np.array(corr_range(d, range(max_lag + 1)))})

    lags = range(1, max_lag + 1)
    n_blocks = d.size // block
    blocks = d[: n_blocks * block].reshape(n_blocks, block)
    vals = np.array([corr_range(seg, lags) for seg in blocks])  # row per block, column per lag
    return ScanSeries(label="lag_correlation_blocks", metadata=meta, columns={
        "lag_or_block": np.arange(1, n_blocks + 1), "value": vals[:, 0],
        **{f"lag_{j}": vals[:, j - 1] for j in lags}})


def bias_series(interval_set: IntervalSet) -> ScanSeries:
    """The three cumulative error curves at x = p_{k+1}^2, raw and normalized.

    (a) pi(x) - li(x); (b) running sum of l_j/log p_j^2 - li_j;
    (c) running sum of l_j/log p_{j+1}^2 - li_j; each also divided by
    the spread normalizer Delta_k (``analytic.delta_normalizer``, column
    ``delta``). pi and li are the interval set's running sums ``pi_cum``
    and ``li_cum``. The metadata's ``fit`` is the moment fit of a_norm.
    """
    s = interval_set
    over_lo, over_hi, delta = analytic._spread_columns(s.p_k, s.p_next)
    a = s.pi_cum - s.li_cum
    b = np.cumsum(over_lo - s.li_k)
    c = np.cumsum(over_hi - s.li_k)
    a_norm = a / delta
    return ScanSeries(label="bias", metadata={"fit": fit_gaussian(a_norm)}, columns={
        "k": np.arange(1, len(s) + 1), "x": s.p_next * s.p_next, "a": a, "b": b, "c": c,
        "a_norm": a_norm, "b_norm": b / delta, "c_norm": c / delta, "delta": delta})
