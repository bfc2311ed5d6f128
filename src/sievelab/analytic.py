"""Closed-form and quadrature quantities built on the interval decomposition.

The offset logarithmic integral li(x) = integral from 2 to x of dt/log t
is evaluated with an own adaptive Gauss-Kronrod 15(7) integrator, with
the range [2, x] pre-split at integer powers of 10 so every panel sees a
slowly varying integrand. Mertens products carry the explicit error
bound |delta| < 4/log(sqrt(x)+1) + 2/(sqrt(x) log sqrt(x)) + 1/(2 sqrt(x))
evaluated at x = p_{k+1}^2 - 1, the largest admissible point.

Estimator zoo, for the interval s_k = [p_k^2, p_{k+1}^2 - 1] of length
l_k:

* expected_pi_k:       l_k * prod_{p in P_k} (1 - 1/p)      (exact product)
* 2 e^{-gamma} l_k / log p_{k+1}^2                          (Mertens limit)
* pnt_interval_estimate: l_k / log p_{k+1}^2                (PNT form)
* li_k:                 li(p_{k+1}^2) - li(p_k^2)           (quadrature)

with the sandwich l_k/log p_{k+1}^2 < li_k < l_k/log p_k^2 and relative
spread eta_k = log p_{k+1}^2 / log p_k^2 - 1 <= log 4 / log p_k^2 (from
Bertrand's postulate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sieve_core import PrimeTable

# Euler-Mascheroni constant, 16 significant digits.
EULER_GAMMA = 0.5772156649015329

# Gauss-Kronrod 15-point nodes/weights on [-1, 1] with embedded Gauss-7
# (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


def _gk15_recip_log(a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 estimate of integral of 1/log t over [a, b], plus error."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = 1.0 / np.log(c + h * _NODES)
    kron = h * float(np.dot(_KRONROD_W, fx))
    gauss = h * float(np.dot(_GAUSS_W, fx))
    return kron, abs(kron - gauss)


def li_between(a: float, b: float, tol: float = 1e-12) -> float:
    """Integral of dt/log t over [a, b] by adaptive Gauss-Kronrod bisection.

    Both endpoints must be >= 2 (the integrand pole at t = 1 is outside).
    ``tol`` is an absolute target allocated across subpanels by width; a
    5e-15 relative floor per panel keeps the recursion from chasing
    error estimates below double-precision resolution.
    """
    if a < 2 or b < a:
        raise DomainError(f"li_between needs 2 <= a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0
    width = float(b) - float(a)
    total = 0.0
    stack = [(float(a), float(b), 0)]
    while stack:
        lo, hi, depth = stack.pop()
        est, err = _gk15_recip_log(lo, hi)
        if (err <= tol * (hi - lo) / width + 5e-15 * abs(est)
                or depth >= 40 or hi - lo < 1e-9 * max(1.0, lo)):
            total += est
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total


def li(x: float) -> float:
    """Offset logarithmic integral with li(2) = 0.

    The range [2, x] is split at integer powers of 10 and each panel is
    integrated adaptively to an equal share of an absolute 1e-10.
    """
    if x < 2:
        raise DomainError(f"li(x) defined for x >= 2, got {x}")
    if x == 2:
        return 0.0
    cuts = [2.0]
    power = 10.0
    while power < x:
        cuts.append(power)
        power *= 10.0
    cuts.append(float(x))
    per_panel = 1e-10 / len(cuts)
    return math.fsum(li_between(a, b, per_panel) for a, b in zip(cuts[:-1], cuts[1:]))


def li_k(k: int, table: PrimeTable) -> float:
    """li over s_k: li(p_{k+1}^2) - li(p_k^2), integrated directly."""
    if k < 1:
        raise DomainError(f"interval index must be >= 1, got {k}")
    p, p_next = table.nth(k), table.nth(k + 1)
    return li_between(p * p, p_next * p_next)


@dataclass(frozen=True)
class MertensEvaluation:
    """Euler product over the first k primes with its Mertens error bound."""

    k: int
    product: float
    delta_bound: float


@dataclass(frozen=True)
class EstimatorBundle:
    """Per-interval estimators and the Bertrand bound on their spread."""

    k: int
    tilde_pi_k: float        # l_k * prod (1 - 1/p), exact product form
    tilde_pi_k_asym: float   # 2 e^{-gamma} l_k / log p_{k+1}^2
    pnt_estimate: float      # l_k / log p_{k+1}^2
    eta_bound: float         # log 4 / log p_k^2


def mertens_delta_bound(x: float) -> float:
    """Bound on |delta| in prod(1-1/p) = 2 e^{-gamma+delta}/log x, p <= sqrt(x)."""
    r = math.sqrt(x)
    return 4.0 / math.log(r + 1.0) + 2.0 / (r * math.log(r)) + 0.5 / r


def mertens_product(k: int, table: PrimeTable) -> MertensEvaluation:
    """prod_{p in P_k} (1 - 1/p) with the error bound at x = p_{k+1}^2 - 1.

    The product is the ordered running product of ``mertens_products``.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    x = table.nth(k + 1) ** 2 - 1
    return MertensEvaluation(k=k, product=float(mertens_products(k, table)[k]),
                             delta_bound=mertens_delta_bound(x))


def mertens_products(k_max: int, table: PrimeTable) -> np.ndarray:
    """Running products prod_{p in P_k}(1 - 1/p) for k = 0..k_max (index k)."""
    if k_max < 0 or k_max > len(table):
        raise DomainError(f"k_max {k_max} outside table")
    out = np.empty(k_max + 1)
    out[0] = 1.0
    acc = 1.0
    for i in range(k_max):
        acc *= 1.0 - 1.0 / int(table.primes[i])
        out[i + 1] = acc
    return out


def naive_expected_pi(x: int, table: PrimeTable) -> float:
    """x * prod_{p <= sqrt(x)} (1 - 1/p): the no-subdivision sieve estimate."""
    if x < 4:
        raise DomainError(f"naive_expected_pi needs x >= 4, got {x}")
    root = math.isqrt(x)
    if root > table.bound:
        raise DomainError(f"sqrt(x) = {root} exceeds table bound {table.bound}")
    ps = table.primes[: table.count_upto(root)]
    product = math.exp(math.fsum(math.log1p(-1.0 / int(p)) for p in ps))
    return x * product


def interval_length(k: int, table: PrimeTable) -> int:
    """l_k = p_{k+1}^2 - p_k^2."""
    p, p_next = table.nth(k), table.nth(k + 1)
    return p_next * p_next - p * p


def expected_pi_k(k: int, table: PrimeTable) -> float:
    """Expected prime count of s_k: l_k * prod_{p in P_k} (1 - 1/p)."""
    return interval_length(k, table) * mertens_product(k, table).product


def pnt_interval_estimate(k: int, table: PrimeTable) -> float:
    """l_k / log p_{k+1}^2."""
    p_next = table.nth(k + 1)
    return interval_length(k, table) / math.log(p_next * p_next)


def estimator_bundle(k: int, table: PrimeTable) -> EstimatorBundle:
    p, p_next = table.nth(k), table.nth(k + 1)
    l = p_next * p_next - p * p
    product = mertens_product(k, table).product
    log_hi = math.log(p_next * p_next)
    return EstimatorBundle(
        k=k,
        tilde_pi_k=l * product,
        tilde_pi_k_asym=2.0 * math.exp(-EULER_GAMMA) * l / log_hi,
        pnt_estimate=l / log_hi,
        eta_bound=math.log(4.0) / math.log(p * p),
    )


def expected_pi_upto(x: int, interval_set, table: PrimeTable) -> float:
    """Sum of expected per-interval counts up to x, linearly interpolated.

    sum_{j < k} tilde_pi_j + ((x - p_k^2) / l_k) * tilde_pi_k with k the
    interval containing x; continuous and monotone in x.
    """
    k = interval_set.locate(x)
    expected = interval_set.length[:k] * mertens_products(k, table)[1:]
    frac = (x - int(interval_set.p_k[k - 1]) ** 2) / int(interval_set.length[k - 1])
    return float(np.sum(expected[:-1]) + frac * expected[-1])


def _spread_columns(p_k: np.ndarray, p_next: np.ndarray):
    """l_j / log p_j^2, l_j / log p_{j+1}^2 and Delta_k for consecutive intervals.

    Delta_k = (1/2) sum_{j<=k} (l_j / log p_j^2 - l_j / log p_{j+1}^2), the
    normalizer of the bias curves. The logs are 2 math.log(p) on Python
    ints, so the values do not depend on numpy's log.
    """
    lengths = (p_next * p_next - p_k * p_k).astype(np.float64)
    over_lo = lengths / np.array([2.0 * math.log(p) for p in p_k.tolist()])
    over_hi = lengths / np.array([2.0 * math.log(p) for p in p_next.tolist()])
    return over_lo, over_hi, 0.5 * np.cumsum(over_lo - over_hi)


def delta_normalizer(k: int, table: PrimeTable) -> float:
    """Half the accumulated spread between the two log-endpoint estimates.

    Delta_k = (1/2) sum_{j<=k} l_j (1/log p_j^2 - 1/log p_{j+1}^2);
    positive and strictly increasing in k.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ps = table.first(k + 1)
    return float(_spread_columns(ps[:-1], ps[1:])[2][-1])
