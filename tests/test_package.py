"""The package's public names, and the modules each CLI command loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievelab

# Every public name, by the submodule that defines it.
PUBLIC = {
    "errors": ["DomainError", "ResourceError"],
    "sieve_core": ["PrimeTable", "SieveWindow", "build_prime_table", "count_primes_upto",
                   "sieve_window"],
    "analytic": ["EULER_GAMMA", "EstimatorBundle", "MertensEvaluation", "delta_normalizer",
                 "estimator_bundle", "expected_pi_k", "expected_pi_upto", "interval_length",
                 "li", "li_between", "li_k", "mertens_delta_bound", "mertens_product",
                 "mertens_products", "naive_expected_pi", "pnt_interval_estimate"],
    "intervals": ["IntervalRecord", "IntervalSet", "build_intervals", "compute_interval_records",
                  "partial_counts"],
    "residue_legendre": ["CoprimeCount", "MoebiusContext", "PrimorialValue", "Window", "big_r",
                         "count_coprime_direct", "count_coprime_legendre", "expected_legendre",
                         "expected_legendre_truncated", "first_appearance_positions",
                         "legendre_scan", "legendre_term_count", "primorial", "rho",
                         "shifted_window", "theoretical_first_positions",
                         "truncated_moebius_sum"],
    "stats_lab": ["GaussianFit", "MaierScan", "ScanSeries", "bias_series", "empirical_pdf",
                  "extract_delta", "fit_gaussian", "gap_series", "lag_correlation",
                  "maier_scan", "moving_average", "phi_vs_lengths"],
    "randmodel": ["ReferenceDistribution", "ShiftModelSummary", "binomial_reference",
                  "conjecture_check", "poisson_reference", "shift_model", "sum_model_bounds",
                  "variance_comparison"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_all_lists_every_public_name_once():
    assert len(NAMES) == 65
    assert sorted(sievelab.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(sievelab))


def test_public_names_are_their_modules_own_objects():
    for module, names in PUBLIC.items():
        home = getattr(sievelab, module)
        assert home.__name__ == f"sievelab.{module}"
        for name in names:
            assert getattr(sievelab, name) is getattr(home, name), name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sievelab.no_such_name  # noqa: B018
    assert not hasattr(sievelab, "build_parser")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sievelab import *", namespace)
    for module, names in PUBLIC.items():
        for name in names:
            assert namespace[name] is getattr(getattr(sievelab, module), name), name


# Runs one command through the program entry, then reports what it loaded.
_CHILD = """
import gc, json, sys
from sievelab import cli
code = cli.console_main()
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > 0,
                  "modules": sorted(m for m in sys.modules
                                    if m.split(".")[0] in ("sievelab", "multiprocessing"))}))
"""

_BASE = ["sievelab", "sievelab.analytic", "sievelab.cli", "sievelab.errors",
         "sievelab.intervals", "sievelab.sieve_core"]


def test_each_command_imports_only_what_it_runs(tmp_path):
    # One scan writes the checkpoint, and three readers load it, as in the
    # paper's desk workflow; randmodel at k = 5 is exhaustive. None forks,
    # so none imports multiprocessing.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    scan = ("--kmax", "300", "--checkpoint", str(tmp_path / "scan.ckpt"))
    expected = {
        ("intervals", *scan): _BASE,
        ("bias", *scan): sorted([*_BASE, "sievelab.stats_lab"]),
        ("corr", *scan): sorted([*_BASE, "sievelab.stats_lab"]),
        ("conjecture", *scan): sorted([*_BASE, "sievelab.randmodel", "sievelab.stats_lab"]),
        ("randmodel", "--k", "5"): sorted([*_BASE, "sievelab.randmodel", "sievelab.stats_lab"]),
    }
    for argv, modules in expected.items():
        out = subprocess.run([sys.executable, "-c", _CHILD, *argv, "--threads", "1",
                              "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, env=env, check=True)
        report = json.loads(out.stdout)
        assert report == {"code": 0, "frozen": True, "modules": modules}, argv[0]


def test_cli_import_and_prime_table_load_no_openssl():
    # perfbench's setup_s probe: import the CLI, then build a prime table.
    # hashlib maps OpenSSL, and only the CSV writer takes digests, so
    # neither it nor its extension module loads before a command writes.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    probe = ("import sys, sievelab.cli\n"
             "from sievelab import build_prime_table\n"
             "build_prime_table(4421)\n"
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_pool_state_lives_in_sieve_core():
    # sieve_core._worker_map sizes every pool and hands its workers their
    # shared inputs; no other module forks or rebinds a module global.
    for path in sorted(Path(sievelab.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        declared = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]
        if path.name != "sieve_core.py":
            assert "multiprocessing" not in source and not declared, path.name
        if path.name == "cli.py":
            for name in ("_pool_size", "_context_tasks", "_draw_ranges"):
                assert name not in source, name
