"""Dataset-emitting command line: one subcommand per analysis.

Each subcommand writes frozen-schema CSV files (header row, LF endings,
UTF-8, reals at 15 significant digits) plus a JSON run manifest carrying
the command line, seed (null except for randmodel), and a sha256
checksum per output. The manifest's shell-quoted ``command_line`` is the
run's complete input: no setting comes from the environment, and a
command accepts no flag it does not read, so re-running it reproduces
every output byte for the same version, regardless of thread count.
Outputs are renamed into place from a temp file. The interval commands
run one scan from the first k missing in ``--checkpoint``, appending
each sieve chunk to it as it arrives. Progress goes to stderr, one line
per chunk; stdout stays quiet.

The manifest's ``run`` block says where the run's time and memory went:
wall and CPU seconds per stage (``scan``, the interval scan with its
checkpoint load, and ``command``, everything up to the manifest), the
integers the scan sieved, its worker count, the k it resumed from (null
when no checkpoint record was loaded), peak RSS of the process and of
its largest waited-for child, and the Python, numpy and sievelab
versions. It is the only part of a manifest that varies between runs;
no CSV byte and no ``outputs`` digest depends on it.

Exit codes: 1 usage, 2 domain error, 3 resource limit, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shlex
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, randmodel, residue_legendre, stats_lab
from .errors import DomainError, ResourceError
from .intervals import DEFAULT_CHUNK_ENTRIES, IntervalSet, _pool_size, compute_interval_records
from .sieve_core import build_prime_table


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented usage code is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.15g}"


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        self.workers = 0
        self.resumed_from_k = None
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
            "workers": self.workers,
            "resumed_from_k": self.resumed_from_k,
            "peak_rss_mb": {"self": round(own.ru_maxrss / 1024, 1),  # KiB on Linux
                            "children": round(kids.ru_maxrss / 1024, 1)},
            "minor_faults": {"self": own.ru_minflt, "children": kids.ru_minflt},
            "versions": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
                         "sievelab": __version__},
        }


def _write_manifest(command: str, args, argv: list, outputs: list,
                    k_max=None, extras=None) -> Path:
    manifest = {
        "command": command,
        "command_line": shlex.join(["sievelab", *argv]),
        "seed": getattr(args, "seed", None),  # randmodel's alone
        "k_max": k_max,
        "version": __version__,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "run": args.run.block(),
    }
    if extras:
        manifest.update(extras)
    path = args.out / f"{command}.manifest.json"
    _write_atomic(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path


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


def _checkpoint_load(path: Path) -> dict:
    """Checkpoint columns for k = 1..n, repairing a torn tail in place.

    The file is read in one pass into one list per column. An append cut
    short leaves an unparseable last line: it is cut from the file with a
    warning, so the scan resumes after the last complete record. A
    complete last record missing only its newline gets one. Any other bad
    line raises DomainError.
    """
    columns = {name: [] for name in IntervalSet.COLUMNS}
    torn = None  # byte offset of an unparseable line, which must be the last
    n = offset = 0
    with (path.open("rb") if path.exists() else io.BytesIO()) as fh:
        for raw in fh:
            start, offset = offset, offset + len(raw)
            if not raw.strip():
                continue
            if torn is not None:
                raise DomainError(f"checkpoint {path} corrupt at line {n}")
            n += 1
            try:
                row = json.loads(raw)
            except ValueError:
                torn = start
                continue
            if not isinstance(row, dict) or row.keys() != set(_FIELDS) or row["k"] != n:
                raise DomainError(f"checkpoint {path} corrupt at line {n}")
            for name, values in columns.items():
                values.append(row[name])
    if torn is not None:
        with path.open("r+b") as fh:
            fh.truncate(torn)
        _progress(f"checkpoint: dropped torn line {n} of {path}, resuming after k={n - 1}")
    elif n and not raw.endswith(b"\n"):
        with path.open("ab") as fh:
            fh.write(b"\n")
    try:
        return {name: np.array(columns[name], dtype=dtype)
                for name, dtype in IntervalSet.COLUMNS.items()}
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"checkpoint {path} corrupt: a value is not a number") from None


def _checkpoint_append(path: Path, k_from: int, block: dict) -> None:
    columns = [block[name].tolist() for name in IntervalSet.COLUMNS]
    with path.open("a", encoding="utf-8") as fh:
        for k, *values in zip(range(k_from, k_from + len(columns[0])), *columns):
            fh.write(json.dumps(dict(zip(_FIELDS, [k, *values]))) + "\n")
        fh.flush()


def _interval_set(args):
    """The interval set for k = 1..args.kmax, resumed from ``--checkpoint``
    and appended to it one sieve chunk at a time."""
    table = _table_for(args.kmax + 1)
    run, start = args.run, _clock()
    ck = Path(args.checkpoint) if args.checkpoint else None
    blocks = [_checkpoint_load(ck)] if ck else []
    k_next = len(blocks[0]["pi_k"]) + 1 if ck else 1
    if k_next > 1:
        run.resumed_from_k = k_next
        _progress(f"checkpoint: {k_next - 1} records loaded from {ck}")
    chunks = 0

    def save(k_lo, block):
        nonlocal chunks
        chunks += 1
        if ck:
            _checkpoint_append(ck, k_lo, block)
        _progress(f"intervals k={k_lo}..{k_lo + len(block['pi_k']) - 1} done")

    if k_next <= args.kmax:
        blocks.append(compute_interval_records(k_next, args.kmax, table, threads=args.threads,
                                               chunk_entries=args.segment_size, progress=save))
        run.sieve_entries = table.nth(args.kmax + 1) ** 2 - table.nth(k_next) ** 2
        run.workers = _pool_size(args.threads, chunks)
    run.record("scan", start)
    return IntervalSet({name: np.concatenate([b[name] for b in blocks])[: args.kmax]
                        for name in IntervalSet.COLUMNS}), table


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_intervals(args, argv) -> int:
    s, _ = _interval_set(args)
    ks = range(1, len(s) + 1)
    f1 = args.out / "intervals.csv"
    _write_csv(f1, _FIELDS,
               zip(ks, *(getattr(s, name).tolist() for name in IntervalSet.COLUMNS)))
    f2 = args.out / "deviations.csv"
    _write_csv(f2, ["k", "x", "pi_k", "li_k", "diff"],
               zip(ks, (s.p_next * s.p_next).tolist(), s.pi_k.tolist(), s.li_k.tolist(),
                   (s.pi_k - s.li_k).tolist()))
    _write_manifest("intervals", args, argv, [f1, f2], k_max=args.kmax)
    return 0


def _cmd_maier(args, argv) -> int:
    k_list = args.k
    if not k_list:
        raise DomainError("empty k list")
    table = _table_for(max(k_list) + 1)
    scans = [stats_lab.maier_scan(k, args.lam, table, step=args.step) for k in k_list]
    scan_rows = []
    for s in scans:
        scan_rows.extend((s.k, x, r) for x, r in s.ratios.points)
    f1 = args.out / "maier_scan.csv"
    _write_csv(f1, ["k", "x", "ratio"], scan_rows)
    summary_rows = [(s.k, s.ratios.metadata["phi_start"], s.ratios.metadata["phi_end"],
                     s.whole_interval_ratio, s.up_deviation, s.down_deviation, s.delta)
                    for s in scans]
    f2 = args.out / "maier_summary.csv"
    _write_csv(f2, ["k", "phi_start", "phi_end", "whole_interval_ratio",
                    "up_deviation", "down_deviation", "delta"], summary_rows)
    _write_manifest("maier", args, argv, [f1, f2], k_max=max(k_list),
                    extras={"lambda": args.lam, "delta_lambda": stats_lab.extract_delta(scans)})
    return 0


def _cmd_legendre(args, argv) -> int:
    table = _table_for(args.kmax + 1)
    rows = residue_legendre.legendre_scan(1, args.kmax, table)
    f1 = args.out / "legendre_scan.csv"
    _write_csv(f1, ["k", "ratio_full", "ratio_truncated", "pi_ratio"],
               [(r.k, r.ratio_full, r.ratio_truncated, r.pi_ratio) for r in rows])
    f2 = args.out / "legendre_terms.csv"
    _write_csv(f2, ["k", "terms", "l_k"], [(r.k, r.terms, r.length) for r in rows])
    _write_manifest("legendre", args, argv, [f1, f2], k_max=args.kmax)
    return 0


def _cmd_randmodel(args, argv) -> int:
    table = _table_for(args.k + 1)
    summary = randmodel.shift_model(args.k, table, budget=args.budget, seed=args.seed)
    binom = randmodel.binomial_reference(args.k, table)
    pois = randmodel.poisson_reference(args.k, table)
    f1 = args.out / "randmodel.csv"
    _write_csv(f1, ["k", "mode", "samples", "mean", "variance", "binom_var", "pois_var", "seed"],
               [(summary.k, summary.mode, summary.samples, summary.mean, summary.variance,
                 binom.variance, pois.variance,
                 summary.seed if summary.seed is not None else "")])
    f2 = args.out / "randmodel_hist.csv"
    hist_rows = [(v, int(c)) for v, c in enumerate(summary.histogram) if c > 0]
    _write_csv(f2, ["value", "count"], hist_rows)
    _write_manifest("randmodel", args, argv, [f1, f2], k_max=args.k,
                    extras={"mode": summary.mode, "budget": args.budget})
    return 0


def _cmd_bias(args, argv) -> int:
    interval_set, table = _interval_set(args)
    series = stats_lab.bias_series(interval_set, table)
    meta = series.metadata
    offset = 2.0 if args.count_offset else 0.0
    rows = []
    for i, (x, a) in enumerate(series.points):
        a_off = a + offset
        d = meta["delta"][i]
        rows.append((meta["k"][i], x, a_off, meta["b"][i], meta["c"][i],
                     a_off / d, meta["b_norm"][i], meta["c_norm"][i]))
    f1 = args.out / "bias.csv"
    _write_csv(f1, ["k", "x", "a", "b", "c", "a_norm", "b_norm", "c_norm"], rows)
    fit = meta["fit"]
    _write_manifest("bias", args, argv, [f1], k_max=args.kmax,
                    extras={"count_offset": bool(args.count_offset),
                            "fit_mean": fit.mean, "fit_stdev": fit.stdev})
    return 0


def _cmd_corr(args, argv) -> int:
    stats_lab.check_lag_arguments(args.kmax, args.max_lag, args.block)  # before the scan
    interval_set, _ = _interval_set(args)
    deviations = interval_set.pi_k - interval_set.li_k
    series = stats_lab.lag_correlation(deviations, args.max_lag, block=args.block)
    f1 = args.out / "corr.csv"
    _write_csv(f1, ["lag_or_block", "value"], [(int(x), v) for x, v in series.points])
    _write_manifest("corr", args, argv, [f1], k_max=args.kmax,
                    extras={"max_lag": args.max_lag, "block": args.block})
    return 0


def _cmd_conjecture(args, argv) -> int:
    interval_set, _ = _interval_set(args)
    series = randmodel.conjecture_check(interval_set)
    meta = series.metadata
    offset = 2.0 if args.count_offset else 0.0
    rows = []
    violations = 0
    for i, (x, d) in enumerate(series.points):
        d_off = d + offset
        if abs(d_off) >= meta["sqrt_li"][i]:
            violations += 1
        rows.append((meta["k"][i], x, d_off, meta["sqrt_li"][i]))
    f1 = args.out / "conjecture.csv"
    _write_csv(f1, ["k", "x", "pi_minus_li", "sqrt_li"], rows)
    _write_manifest("conjecture", args, argv, [f1], k_max=args.kmax,
                    extras={"count_offset": bool(args.count_offset),
                            "violations": violations})
    return 0


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------

def _add_common(sp, kmax=True):
    sp.add_argument("--out", type=Path, default="out", help="output directory (default: ./out)")
    sp.add_argument("--threads", type=_positive_int, default=1)
    if kmax:
        sp.add_argument("--kmax", type=_positive_int, required=True,
                        help="largest interval index k")


def _add_interval_scan_flags(sp):
    sp.add_argument("--segment-size", type=int, default=DEFAULT_CHUNK_ENTRIES,
                    help="sieve chunk span in integers: the unit of work of one worker")
    sp.add_argument("--checkpoint", help="JSONL checkpoint for resumable interval scans")


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
    sp.add_argument("--lambda", dest="lam", type=float, default=3.0)
    sp.add_argument("--step", type=int, default=0,
                    help="scan stride; 0 means ceil(Phi/100)")
    sp.set_defaults(func=_cmd_maier)

    sp = sub.add_parser("legendre", help="full/truncated/exact ratio scan and term counts")
    _add_common(sp)
    sp.set_defaults(func=_cmd_legendre)

    sp = sub.add_parser("randmodel", help="shifted-window model summary for one interval")
    _add_common(sp, kmax=False)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=randmodel.DEFAULT_BUDGET,
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
    try:
        args = parser.parse_args(argv)
        args.run = _RunLog()
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args, argv)
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


if __name__ == "__main__":
    raise SystemExit(main())
