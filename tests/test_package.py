"""The package's public names, and the modules each CLI command loads."""

import ast
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sievelab
from sievelab import cli
from sievelab.intervals import IntervalSet

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


# Runs one command through the program entry, then reports its pool and
# what it loaded.
_CHILD = """
import gc, json, sys
from sievelab import cli
code = cli.console_main()
print(json.dumps({"code": code, "frozen": gc.get_freeze_count() > 0,
                  "workers": cli.sieve_core._pool_workers,
                  "modules": sorted(m for m in sys.modules
                                    if m.split(".")[0] in ("sievelab", "multiprocessing"))}))
"""

_BASE = ["sievelab", "sievelab.analytic", "sievelab.cli", "sievelab.errors",
         "sievelab.intervals", "sievelab.sieve_core"]


def test_each_command_imports_only_what_it_runs(tmp_path):
    # One scan writes the checkpoint, and three readers load it, as in the
    # paper's desk workflow; randmodel at k = 5 is exhaustive. The last
    # three fork two workers each, with os.fork, so no command imports
    # multiprocessing.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    scan = ("--kmax", "300", "--checkpoint", str(tmp_path / "scan.ckpt"), "--threads", "1")
    expected = {
        ("intervals", *scan): (1, _BASE),
        ("bias", *scan): (0, sorted([*_BASE, "sievelab.stats_lab"])),
        ("corr", *scan): (0, sorted([*_BASE, "sievelab.stats_lab"])),
        ("conjecture", *scan): (0, sorted([*_BASE, "sievelab.randmodel", "sievelab.stats_lab"])),
        ("randmodel", "--k", "5", "--threads", "1"):
            (0, sorted([*_BASE, "sievelab.randmodel", "sievelab.stats_lab"])),
        ("intervals", "--kmax", "300", "--threads", "2", "--segment-size", "65536"): (2, _BASE),
        ("legendre", "--kmax", "200", "--threads", "2"):
            (2, sorted([*_BASE, "sievelab.residue_legendre", "sievelab.stats_lab"])),
        ("randmodel", "--k", "30", "--budget", "100", "--threads", "2"):
            (2, sorted([*_BASE, "sievelab.randmodel", "sievelab.stats_lab"])),
    }
    for argv, (workers, modules) in expected.items():
        out = subprocess.run([sys.executable, "-c", _CHILD, *argv, "--out", str(tmp_path / "o")],
                             capture_output=True, text=True, env=env, check=True)
        report = json.loads(out.stdout)
        assert report == {"code": 0, "frozen": True, "workers": workers,
                          "modules": modules}, argv


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


# Runs one command through the program entry, then reports its pool and
# whether OpenSSL's modules were loaded.
_OPENSSL_CHILD = """
import json, sys
from sievelab import cli
code = cli.console_main()
print(json.dumps({"code": code, "workers": cli.sieve_core._pool_workers,
                  "openssl": sorted({"hashlib", "_hashlib"} & set(sys.modules))}))
"""


def test_no_command_loads_openssl(tmp_path):
    # Full runs that write their CSVs and manifests; the scan forks two
    # workers. The output digests come from the interpreter's built-in
    # SHA-256, so no command maps OpenSSL.
    src = os.path.dirname(os.path.dirname(sievelab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    scan = ("--kmax", "300", "--checkpoint", str(tmp_path / "scan.ckpt"), "--threads", "1")
    runs = {
        ("intervals", "--kmax", "300", "--checkpoint", str(tmp_path / "scan.ckpt"),
         "--threads", "2", "--segment-size", "65536"): 2,
        ("bias", *scan): 0, ("corr", *scan): 0, ("conjecture", *scan): 0,
        ("maier", "--k", "30", "--threads", "1"): 0,
        ("legendre", "--kmax", "20", "--threads", "1"): 0,
        ("randmodel", "--k", "5", "--threads", "1"): 0,
    }
    for argv, workers in runs.items():
        out = tmp_path / argv[0]
        report = subprocess.run([sys.executable, "-c", _OPENSSL_CHILD, *argv, "--out", str(out)],
                                capture_output=True, text=True, env=env, check=True)
        assert json.loads(report.stdout) == {"code": 0, "workers": workers, "openssl": []}, argv
        manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(p.name for p in out.glob("*.csv"))


def _interval_columns(n):
    """n rows shaped like the interval columns: ints to 1e11, floats at full precision."""
    rng = np.random.default_rng(29)
    return {name: rng.integers(1, 10 ** 11, n) if dtype is np.int64 else rng.random(n) * 1e5
            for name, dtype in IntervalSet.COLUMNS.items()}


def _traced_peak(call):
    """The peak bytes ``call()`` allocates beyond what is held before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_and_checkpoint_reader_hold_their_columns_and_one_block(tmp_path):
    # 3e4 rows: a one-shot writer allocated 14 MB beyond its columns, and a
    # reader holding every line and one dict per record 26 MB.
    n, mb = 30000, 1 << 20
    columns = _interval_columns(n)
    size = sum(values.nbytes for values in columns.values())
    assert _traced_peak(lambda: cli._write_csv(tmp_path / "t.csv", {"k": np.arange(1, n + 1),
                                                                    **columns})) < 3 * mb
    ck = tmp_path / "scan.ckpt"
    cli._checkpoint_append(ck, 1, columns)
    loaded = []
    assert _traced_peak(lambda: loaded.extend(cli._checkpoint_load(ck))) < size + 3 * mb
    for name, values in columns.items():
        assert np.array_equal(np.concatenate([block[name] for block in loaded]), values), name


def test_pool_state_lives_in_sieve_core():
    # sieve_core._worker_map sizes every pool, forks its workers and hands
    # them their shared inputs; no other module forks or rebinds a module
    # global, and no module, sieve_core included, uses multiprocessing.
    for path in sorted(Path(sievelab.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        declared = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]
        assert "multiprocessing" not in source, path.name
        if path.name != "sieve_core.py":
            assert "fork(" not in source and not declared, path.name
        if path.name == "cli.py":
            for name in ("_pool_size", "_context_tasks", "_draw_ranges"):
                assert name not in source, name


def test_only_the_counters_use_primes_below():
    # sieve_core._primes_below counts primes below a few bounds, for the
    # interval scan, partial_counts and count_primes_upto; statistics over
    # the windows of one interval read its primes off _prime_list.
    for path in sorted(Path(sievelab.__file__).parent.glob("*.py")):
        if path.name not in ("intervals.py", "sieve_core.py"):
            assert "_primes_below" not in path.read_text(encoding="utf-8"), path.name
