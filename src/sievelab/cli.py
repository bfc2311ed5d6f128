"""Dataset-emitting command line: one subcommand per analysis.

Each subcommand ``_cmd_<name>(args)`` computes its datasets and writes
nothing. It returns ``(files, k_max, extras)``: ``files`` maps each CSV
name to an ordered dict of equal-length columns whose keys are the
header, and ``extras`` holds the command's own manifest keys. ``main``
writes every file through one column writer (header row, LF endings,
UTF-8; float columns at 15 significant digits, any other with ``str``),
then the JSON run manifest carrying the command line, seed (null except
for randmodel), and the sha256 of the bytes written per output. The
writer formats, writes and hashes ``_BLOCK_ROWS`` (256) rows at a time,
and the interval checkpoint is appended and read that many lines at a
time, so none of them holds a whole file as Python objects; the digests
come from the interpreter's built-in SHA-256, so no command maps
OpenSSL. The manifest's shell-quoted ``command_line`` is the run's
complete input: no setting comes from the environment, and a command
accepts no flag it does not read, save ``--threads``, which maier
accepts unread so that one flag set drives all seven commands.
``--threads`` sets the processes forked for the interval scan, for
legendre's context rows (k >= 172) and for randmodel's sampled draws,
and defaults to the CPUs this process may use
(``os.sched_getaffinity``); ``main`` runs OpenBLAS on one thread, as
each worker does. So re-running it reproduces every output byte for the
same version, regardless of thread count. Outputs are renamed into
place from a temp file. Each subcommand imports the modules it runs
when it runs, and the program entry (``console_main``) freezes
the start-up heap, so a short command pays for no analysis it skips and
no collection of numpy's objects. The interval commands run one scan
from the first k missing in ``--checkpoint``, appending each sieve chunk
to it as it arrives, one formatted line per record (the text ``json.dumps``
writes for it). A fresh scan's columns become the interval set as they
are; a resume joins the loaded blocks and the scan's columns with one
concatenation. Progress goes to stderr, one line per chunk; stdout stays
quiet.

The manifest's ``run`` block says where the run's time and memory went:
wall and CPU seconds per stage (``scan``, the interval scan with its
checkpoint load, and ``command``, everything up to the manifest), the
integers the scan sieved, the size of the pool the command opened for
the scan, legendre's context rows or randmodel's sampled draws (1 for
one worker in the command's own process, 0 when none, as in legendre at
k_max <= 171), the OpenBLAS thread count (null where it cannot be
read), the k it resumed from (null when no checkpoint record was
loaded), peak RSS of the process and of its largest waited-for child,
and the Python, numpy and sievelab versions. It is
the only part of a manifest that varies between runs; no CSV byte and
no ``outputs`` digest depends on it.

Exit codes: 1 usage, 2 domain error, 3 resource limit, 4 I/O error. A
flag value out of its range (``--kmax 0``, ``--budget 1``, ``--step -1``,
``--lambda nan``) is a usage error, refused before ``--out`` is made.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, sieve_core
from .errors import DomainError, ResourceError
from .intervals import DEFAULT_CHUNK_ENTRIES, IntervalSet, compute_interval_records
from .sieve_core import _blas_threads, _pin_blas_threads, build_prime_table


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented usage code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(low: int):
    """The argparse type of an integer flag that must be at least ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() refuses the text
    return parse


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


_finite_float.__name__ = "float"


def _int_list(text: str) -> list:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    return values


class _BudgetAction(argparse.Action):
    """randmodel's ``--budget``, whose default, ``randmodel.DEFAULT_BUDGET``,
    is read only when the randmodel parser fills in its defaults: building
    the parser imports no randmodel."""

    @property
    def default(self):
        from .randmodel import DEFAULT_BUDGET

        return DEFAULT_BUDGET

    @default.setter
    def default(self, value):  # argparse sets default=None; the getter answers instead
        pass

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)


# Rows that _write_csv and _checkpoint_append format at a time, and
# checkpoint lines that _checkpoint_load parses at a time: the most any of
# them holds as Python objects. Below 256 the interval pipeline's peak RSS
# (intervals --kmax 5000 and the commands that read its checkpoint) stops
# falling; at 1024 it was 0.5 MB higher.
_BLOCK_ROWS = 256


def _sha256():
    """A SHA-256 object from the interpreter's built-in module, which maps
    no OpenSSL: ``_sha2`` from CPython 3.12, ``_sha256`` before it, and
    ``hashlib`` only where neither exists, as ``hashlib`` itself falls back."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _write_atomic(path: Path, blocks) -> str:
    """Write the byte strings ``blocks`` to a temp file beside ``path``, then
    rename it over ``path``; return the sha256 of the bytes written."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest = _sha256()
    try:
        with tmp.open("wb") as fh:
            for block in blocks:
                fh.write(block)
                digest.update(block)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _csv_blocks(columns: dict):
    """The header line, then ``_BLOCK_ROWS`` rows at a time, as UTF-8 bytes."""
    arrays = [np.asarray(values) for values in columns.values()]
    formats = ["{:.15g}".format if a.dtype.kind == "f" else str for a in arrays]
    yield (",".join(columns) + "\n").encode("utf-8")
    for lo in range(0, len(arrays[0]), _BLOCK_ROWS):
        cells = [map(fmt, a[lo:lo + _BLOCK_ROWS].tolist()) for fmt, a in zip(formats, arrays)]
        yield ("\n".join(map(",".join, zip(*cells))) + "\n").encode("utf-8")


def _write_csv(path: Path, columns: dict) -> str:
    """Write equal-length ``columns`` under a header of their names; return
    the sha256 of the bytes written. A float column is written at 15
    significant digits, any other column (ints, big ints, text) with str.
    Rows are formatted, written and hashed ``_BLOCK_ROWS`` at a time, so
    the writer holds the columns and one block, never the file's text."""
    return _write_atomic(path, _csv_blocks(columns))


def _clock() -> tuple:
    """(wall seconds, CPU seconds of this process and its waited-for children)."""
    own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                     resource.RUSAGE_CHILDREN))
    return time.perf_counter(), own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class _RunLog:
    """One command's telemetry, reported as the manifest's ``run`` block."""

    def __init__(self):
        self.stages = {}
        self.sieve_entries = 0
        self.resumed_from_k = None
        sieve_core._pool_workers = 0
        self._start = _clock()

    def record(self, stage: str, start: tuple) -> None:
        """Time ``stage`` from ``start``, a ``_clock()`` reading, to now."""
        wall, cpu = (b - a for a, b in zip(start, _clock()))
        self.stages[stage] = {"wall_s": round(wall, 6), "cpu_s": round(cpu, 6)}

    def block(self) -> dict:
        self.record("command", self._start)
        own, kids = (resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                                         resource.RUSAGE_CHILDREN))
        return {
            "stages": self.stages,
            "sieve_entries": self.sieve_entries,
            "workers": sieve_core._pool_workers,
            "blas_threads": _blas_threads(),
            "resumed_from_k": self.resumed_from_k,
            "peak_rss_mb": {"self": round(own.ru_maxrss / 1024, 1),  # KiB on Linux
                            "children": round(kids.ru_maxrss / 1024, 1)},
            "minor_faults": {"self": own.ru_minflt, "children": kids.ru_minflt},
            "versions": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                         "sievelab": __version__},
        }


def _progress(msg: str) -> None:
    print(f"[sievelab] {msg}", file=sys.stderr, flush=True)


def _table_for(k_needed: int):
    """Prime table comfortably covering the first k_needed primes."""
    k = max(k_needed, 6)
    bound = int(k * (math.log(k) + math.log(math.log(k))) * 1.15) + 100
    return build_prime_table(bound)


# ---------------------------------------------------------------------------
# Checkpointed interval building shared by intervals/bias/corr/conjecture.
# ---------------------------------------------------------------------------

# IntervalRecord's fields: the checkpoint keys and the intervals.csv header.
_FIELDS = ["k", *IntervalSet.COLUMNS]


def _parse_lines(lines: list) -> list:
    """The JSON values of ``lines``, up to the first line that does not parse.

    All are parsed in one ``json.loads`` of a single array; if that does
    not parse, or holds more values than lines, they are parsed one at a
    time to find the first bad one.
    """
    try:
        rows = json.loads(b"[%b]" % b",".join(lines))
    except ValueError:
        rows = None
    if rows is not None and len(rows) == len(lines):
        return rows
    rows = []
    for raw in lines:
        try:
            rows.append(json.loads(raw))
        except ValueError:
            break
    return rows


def _checkpoint_load(path: Path) -> list:
    """Checkpoint columns for k = 1..n, in blocks, repairing a torn tail in place.

    The file is read ``_BLOCK_ROWS`` lines at a time, and each block's
    records become numpy columns before the next block is read, so the
    reader holds the columns and one block, never the file. Only an
    append cut short leaves a bad line, and it is the last one, so every
    non-blank line before it is parsed with its block (``_parse_lines``)
    and the last is parsed on its own. An unparseable last line is cut
    from the file with a warning, so the scan resumes after the last
    complete record. A complete last record missing only its newline gets
    one. Any other bad line raises DomainError naming it, and a value that
    is not a number raises DomainError once the tail is mended. Returns
    one dict of ``IntervalSet.COLUMNS`` per block, in k order.
    """
    if not path.exists():
        return []
    fields, blocks, n, numeric = set(_FIELDS), [], 0, True
    last, last_at, at, ended = [], 0, 0, False  # the latest non-blank line, unparsed

    def take(lines):
        nonlocal n, numeric
        rows = _parse_lines(lines)
        for row in rows:
            n += 1
            if not isinstance(row, dict) or row.keys() != fields or row["k"] != n:
                raise DomainError(f"checkpoint {path} corrupt at line {n}")
        if numeric and rows:
            try:
                blocks.append({name: np.array([row[name] for row in rows], dtype=dtype)
                               for name, dtype in IntervalSet.COLUMNS.items()})
            except (TypeError, ValueError, OverflowError):
                numeric = False
        return len(rows) == len(lines)

    with path.open("rb") as fh:
        while raw_lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            lines = last  # carried from the blocks before, with this block's added
            for raw in raw_lines:
                if raw.strip():
                    lines.append(raw)
                    last_at = at
                at += len(raw)
            ended = raw_lines[-1].endswith(b"\n")
            last = lines[-1:]
            if not take(lines[:-1]):
                raise DomainError(f"checkpoint {path} corrupt at line {n + 1}")
    if last and not take(last):
        with path.open("r+b") as fh:
            fh.truncate(last_at)
        _progress(f"checkpoint: dropped torn line {n + 1} of {path}, resuming after k={n}")
    elif n and not ended:
        with path.open("ab") as fh:
            fh.write(b"\n")
    if not numeric:
        raise DomainError(f"checkpoint {path} corrupt: a value is not a number")
    return blocks


# One checkpoint line per record, as ``json.dumps`` of its dict writes it:
# the columns hold ints and finite floats, whose JSON text is their repr.
_CHECKPOINT_LINE = "{" + ", ".join(f'"{name}": %r' for name in _FIELDS) + "}\n"


def _checkpoint_append(path: Path, k_from: int, block: dict) -> None:
    """Append the records of ``block``, rows k_from, k_from + 1, ..., to the
    checkpoint, formatted ``_BLOCK_ROWS`` lines at a time."""
    n = len(block["pi_k"])
    with path.open("a", encoding="utf-8") as fh:
        for lo in range(0, n, _BLOCK_ROWS):
            columns = [block[name][lo : lo + _BLOCK_ROWS].tolist() for name in IntervalSet.COLUMNS]
            rows = zip(range(k_from + lo, k_from + lo + len(columns[0])), *columns)
            fh.write("".join(_CHECKPOINT_LINE % row for row in rows))
        fh.flush()


def _interval_set(args):
    """The interval set for k = 1..args.kmax, resumed from ``--checkpoint``
    and appended to it one sieve chunk at a time."""
    table = _table_for(args.kmax + 1)
    run, start = args.run, _clock()
    ck = args.checkpoint
    blocks = _checkpoint_load(ck) if ck else []
    k_next = sum(len(block["pi_k"]) for block in blocks) + 1
    if k_next > 1:
        run.resumed_from_k = k_next
        _progress(f"checkpoint: {k_next - 1} records loaded from {ck}")

    def save(k_lo, rows):
        if ck:
            _checkpoint_append(ck, k_lo, rows)
        _progress(f"intervals k={k_lo}..{k_lo + len(rows['pi_k']) - 1} done")

    if k_next <= args.kmax:
        blocks.append(compute_interval_records(k_next, args.kmax, table, threads=args.threads,
                                               chunk_entries=args.segment_size, progress=save))
        run.sieve_entries = table.nth(args.kmax + 1) ** 2 - table.nth(k_next) ** 2
    run.record("scan", start)
    columns = blocks[0] if len(blocks) == 1 else {
        name: np.concatenate([b[name] for b in blocks]) for name in IntervalSet.COLUMNS}
    return IntervalSet({name: column[: args.kmax] for name, column in columns.items()})


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_intervals(args):
    s = _interval_set(args)
    k = np.arange(1, len(s) + 1)
    return {
        "intervals.csv": {"k": k, **{name: getattr(s, name) for name in IntervalSet.COLUMNS}},
        "deviations.csv": {"k": k, "x": s.p_next * s.p_next, "pi_k": s.pi_k, "li_k": s.li_k,
                           "diff": s.pi_k - s.li_k},
    }, args.kmax, {}


def _cmd_maier(args):
    from . import stats_lab

    k_list = args.k
    table = _table_for(max(k_list) + 1)
    scans = [stats_lab.maier_scan(k, args.lam, table, step=args.step) for k in k_list]
    ratios = [s.ratios for s in scans]
    summary = {name: [getattr(s, name) for s in scans] for name in (
        "k", "phi_start", "phi_end", "whole_interval_ratio", "up_deviation", "down_deviation",
        "delta")}
    return {
        "maier_scan.csv": {"k": np.repeat(k_list, [len(r.columns["x"]) for r in ratios]),
                           **{name: np.concatenate([r.columns[name] for r in ratios])
                              for name in ("x", "ratio")}},
        "maier_summary.csv": summary,
    }, max(k_list), {"lambda": args.lam, "delta_lambda": stats_lab.extract_delta(scans)}


def _cmd_legendre(args):
    from . import residue_legendre

    table = _table_for(args.kmax + 1)
    scan = residue_legendre.legendre_scan(1, args.kmax, table, threads=args.threads).columns
    header = ("k", "ratio_full", "ratio_truncated", "pi_ratio")
    return {
        "legendre_scan.csv": {name: scan[name] for name in header},
        "legendre_terms.csv": {"k": scan["k"], "terms": scan["terms"], "l_k": scan["length"]},
    }, args.kmax, {}


def _cmd_randmodel(args):
    from . import randmodel

    table = _table_for(args.k + 1)
    summary = randmodel.shift_model(args.k, table, budget=args.budget, seed=args.seed,
                                    threads=args.threads)
    values = np.flatnonzero(summary.histogram)
    return {
        "randmodel.csv": {
            "k": [summary.k], "mode": [summary.mode], "samples": [summary.samples],
            "mean": [summary.mean], "variance": [summary.variance],
            "binom_var": [randmodel.binomial_reference(args.k, table).variance],
            "pois_var": [randmodel.poisson_reference(args.k, table).variance],
            "seed": [summary.seed if summary.seed is not None else ""]},
        "randmodel_hist.csv": {"value": values, "count": summary.histogram[values]},
    }, args.k, {"mode": summary.mode, "budget": args.budget}


def _cmd_bias(args):
    from . import stats_lab

    series = stats_lab.bias_series(_interval_set(args))
    header = ("k", "x", "a", "b", "c", "a_norm", "b_norm", "c_norm")  # all but delta
    columns = {name: series.columns[name] for name in header}
    if args.count_offset:
        columns["a"] = columns["a"] + 2.0
        columns["a_norm"] = columns["a"] / series.columns["delta"]
    fit = stats_lab.fit_gaussian(columns["a_norm"])  # of the a_norm written
    return {"bias.csv": columns}, args.kmax, {
        "count_offset": args.count_offset, "fit_mean": fit.mean, "fit_stdev": fit.stdev}


def _cmd_corr(args):
    from . import stats_lab

    stats_lab.check_lag_arguments(args.kmax, args.max_lag, args.block)  # before the scan
    s = _interval_set(args)
    series = stats_lab.lag_correlation(s.pi_k - s.li_k, args.max_lag, block=args.block)
    columns = {name: series.columns[name] for name in ("lag_or_block", "value")}
    return {"corr.csv": columns}, args.kmax, {"max_lag": args.max_lag, "block": args.block}


def _cmd_conjecture(args):
    from . import randmodel

    series = randmodel.conjecture_check(_interval_set(args))
    columns, violations = dict(series.columns), series.metadata["violations"]
    if args.count_offset:
        columns["pi_minus_li"] = d = columns["pi_minus_li"] + 2.0
        violations = int(np.count_nonzero(np.abs(d) >= columns["sqrt_li"]))
    return {"conjecture.csv": columns}, args.kmax, {
        "count_offset": args.count_offset, "violations": violations}


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def _add_common(sp, kmax=True):
    sp.add_argument("--out", type=Path, default="out", help="output directory (default: ./out)")
    sp.add_argument("--threads", type=_int_at_least(1), default=len(os.sched_getaffinity(0)),
                    help="worker processes (default: the CPUs this process may use)")
    if kmax:
        sp.add_argument("--kmax", type=_int_at_least(1), required=True,
                        help="largest interval index k")


def _add_interval_scan_flags(sp):
    sp.add_argument("--segment-size", type=_int_at_least(2), default=DEFAULT_CHUNK_ENTRIES,
                    help="sieve chunk span in integers: the unit of work of one worker")
    sp.add_argument("--checkpoint", type=Path, help="JSONL checkpoint for resumable interval scans")


def _add_count_offset(sp):
    sp.add_argument("--count-offset", action="store_true",
                    help="compare against li(x) - 2 in deviation columns")


def build_parser() -> _Parser:
    parser = _Parser(prog="sievelab",
                     description="Datasets over the sieve intervals [p_k^2, p_{k+1}^2 - 1]")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("intervals", help="interval records and per-interval deviations")
    _add_common(sp)
    _add_interval_scan_flags(sp)
    sp.set_defaults(func=_cmd_intervals)

    sp = sub.add_parser("maier", help="window-density ratio scans over chosen intervals")
    _add_common(sp, kmax=False)
    sp.add_argument("--k", type=_int_list, required=True,
                    help="comma-separated interval indices")
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=3.0)
    sp.add_argument("--step", type=_int_at_least(0), default=0,
                    help="scan stride; 0 means ceil(Phi/100)")
    sp.set_defaults(func=_cmd_maier)

    sp = sub.add_parser("legendre", help="full/truncated/exact ratio scan and term counts")
    _add_common(sp)
    sp.set_defaults(func=_cmd_legendre)

    sp = sub.add_parser("randmodel", help="shifted-window model summary for one interval")
    _add_common(sp, kmax=False)
    sp.add_argument("--k", type=_int_at_least(1), required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_int_at_least(2), action=_BudgetAction,
                    help="exhaustive threshold / sampled draw count")
    sp.set_defaults(func=_cmd_randmodel)

    sp = sub.add_parser("bias", help="cumulative error curves, raw and normalized")
    _add_common(sp)
    _add_interval_scan_flags(sp)
    _add_count_offset(sp)
    sp.set_defaults(func=_cmd_bias)

    sp = sub.add_parser("corr", help="lag correlation of pi_k - li_k")
    _add_common(sp)
    _add_interval_scan_flags(sp)
    sp.add_argument("--max-lag", type=int, default=50)
    sp.add_argument("--block", type=int, default=0,
                    help="non-overlapping block size; 0 = whole range")
    sp.set_defaults(func=_cmd_corr)

    sp = sub.add_parser("conjecture", help="pi(x) - li(x) against the sqrt(li(x)) band")
    _add_common(sp)
    _add_interval_scan_flags(sp)
    _add_count_offset(sp)
    sp.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    _pin_blas_threads()
    try:
        args = parser.parse_args(argv)
        args.run = _RunLog()
        args.out.mkdir(parents=True, exist_ok=True)
        files, k_max, extras = args.func(args)
        outputs = {name: _write_csv(args.out / name, columns) for name, columns in files.items()}
        manifest = {"command": args.command, "command_line": shlex.join(["sievelab", *argv]),
                    "seed": getattr(args, "seed", None),  # randmodel's alone
                    "k_max": k_max, "version": __version__, "outputs": outputs,
                    "run": args.run.block(), **extras}
        _write_atomic(args.out / f"{args.command}.manifest.json",
                      [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")])
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except DomainError as exc:
        print(f"sievelab: domain error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"sievelab: resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"sievelab: i/o error: {exc}", file=sys.stderr)
        return 4


def console_main() -> int:
    """The program entry of ``python -m sievelab.cli`` and of the
    ``sievelab`` script: ``main`` over ``sys.argv`` once the start-up heap
    (numpy and the modules imported so far) is frozen, so that later full
    collections and the interpreter's exit skip it. ``main`` itself
    freezes nothing: an in-process caller keeps its own collector."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(console_main())
