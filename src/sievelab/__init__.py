"""sievelab: prime counting over the intervals s_k = [p_k^2, p_{k+1}^2 - 1].

Each s_k is fully determined by the first k primes, which makes the
decomposition a natural frame for exact per-interval prime counts,
Euler-product and logarithmic-integral baselines, windowed coprimality
counts via the Legendre identity, shifted-window random models, and the
error-term diagnostics built on all of these. Prime indexing is 1-based
everywhere: p_1 = 2.

The public names below are resolved on first access (PEP 562), so
``import sievelab`` loads no submodule, and a command that needs only the
interval scan never imports the Legendre or random-model code.
"""

import importlib

__version__ = "0.1.0"

# Each submodule's public names, in the order of ``__all__``.
_EXPORTS = {
    "errors": ("DomainError", "ResourceError"),
    "sieve_core": ("PrimeTable", "SieveWindow", "build_prime_table", "count_primes_upto",
                   "sieve_window"),
    "analytic": ("EULER_GAMMA", "EstimatorBundle", "MertensEvaluation", "delta_normalizer",
                 "estimator_bundle", "expected_pi_k", "expected_pi_upto", "interval_length",
                 "li", "li_between", "li_k", "mertens_delta_bound", "mertens_product",
                 "mertens_products", "naive_expected_pi", "pnt_interval_estimate"),
    "intervals": ("IntervalRecord", "IntervalSet", "build_intervals", "compute_interval_records",
                  "partial_counts"),
    "residue_legendre": ("CoprimeCount", "MoebiusContext", "PrimorialValue", "Window", "big_r",
                         "count_coprime_direct", "count_coprime_legendre", "expected_legendre",
                         "expected_legendre_truncated", "first_appearance_positions",
                         "legendre_scan", "legendre_term_count", "primorial", "rho",
                         "shifted_window", "theoretical_first_positions",
                         "truncated_moebius_sum"),
    "stats_lab": ("GaussianFit", "MaierScan", "ScanSeries", "bias_series", "empirical_pdf",
                  "extract_delta", "fit_gaussian", "gap_series", "lag_correlation", "maier_scan",
                  "moving_average", "phi_vs_lengths"),
    "randmodel": ("ReferenceDistribution", "ShiftModelSummary", "binomial_reference",
                  "conjecture_check", "poisson_reference", "shift_model", "sum_model_bounds",
                  "variance_comparison"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name from its submodule, or a submodule itself, imported on first use."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
