"""sievelab benchmark: fresh `sievelab` CLI processes per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is run from ./src with no
build step. Each workload repetition runs the workload's CLI commands in
fresh processes, one after another, and checks every output against
digests recorded from the seed code and an oracle that does not use
sievelab (oracles.py). Repetitions continue until --seconds have passed.

--trace 0 prints the end-to-end metrics: medians over repetitions of
wall_s, cpu_s and peak_rss_mb, and setup_s, the median over fresh
processes (two before each repetition) of the time from spawn until
`import sievelab.cli` and the workload's prime table are done.

--trace 1 runs untraced repetitions for half of --seconds, then one
traced repetition (child.py cli) and one replay process (child.py
replay), and prints the per-layer metrics. Spans go to
.perfbench/trace-<workload>-<seed>.json. Exact counts are kept per
source tree in .perfbench/counts.json; a count that differs from an
earlier run of the same code marks the run incorrect.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Earlier lines are the environment record and a summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import IntervalOracle, LegendreOracle, ShiftModelOracle

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CHILD = HERE / "child.py"
LAUNCH = HERE / "launch.py"
RUN_DEADLINE_S = 170.0
SETUP_PROBES_PER_REP = 2
MODEL_SEEDS = 8  # digests.json holds randmodel digests for seeds 0..7

INTERVAL_K, LEGENDRE_K, SHIFT_K, SHIFT_DRAWS = 5000, 600, 200, 20000


def _interval_cmds(k_max: int) -> list:
    ck = ["--checkpoint", "{tmp}/scan.ckpt", "--out", "{tmp}/out"]
    common = ["--kmax", str(k_max), "--threads", "2"] + ck
    return [["intervals"] + common, ["bias"] + common, ["conjecture"] + common,
            ["corr"] + common + ["--max-lag", "50"]]


# Each workload: its commands and output check (given the benchmark seed
# and the model seed ms), the k its prime table must cover, and the
# probe-size commands the traced run uses for layers it does not reach.
WORKLOADS = {
    "interval_pipeline": {
        "commands": lambda ms: _interval_cmds(INTERVAL_K),
        "oracle": lambda seed, ms: IntervalOracle(INTERVAL_K),
        "table_k": INTERVAL_K + 1,
        "probe": lambda ms: _interval_cmds(1000),
    },
    "legendre_scan": {
        "commands": lambda ms: [["legendre", "--kmax", str(LEGENDRE_K), "--out", "{tmp}/out"]],
        "oracle": lambda seed, ms: LegendreOracle(LEGENDRE_K, seed),
        "table_k": LEGENDRE_K + 1,
        # k = 172 is the first k whose truncated sum takes the context path;
        # the CLI would need k = 1..171 of depth-first sums to get there.
        "probe": lambda ms: [["legendre", "--kmax", "40", "--out", "{tmp}/legendre"]],
        "probe_legendre_ranges": [[170, 175]],
    },
    "shift_model": {
        "commands": lambda ms: [["randmodel", "--k", str(SHIFT_K), "--budget", str(SHIFT_DRAWS),
                                 "--seed", str(ms), "--out", "{tmp}/out"]],
        "oracle": lambda seed, ms: ShiftModelOracle(SHIFT_K, SHIFT_DRAWS, ms, seed),
        "table_k": SHIFT_K + 1,
        "probe": lambda ms: [["randmodel", "--k", str(SHIFT_K), "--budget", "200",
                              "--seed", str(ms), "--out", "{tmp}/randmodel"]],
    },
}


def _table_bound(k: int) -> int:
    """The bound the CLI's prime table uses to cover the first k primes."""
    k = max(k, 6)
    return int(k * (math.log(k) + math.log(math.log(k))) * 1.15) + 100


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIEVELAB_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Deadline(Exception):
    pass


def spawn(argv: list, deadline: float, env_extra=None, capture=False) -> dict:
    """Run argv to completion through launch.py: wall, CPU and peak RSS of
    the command and the children it waited for."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline(" ".join(argv))
    env = _child_env()
    env.update(env_extra or {})
    report = _scratch() / "launch.json"
    proc = subprocess.Popen([sys.executable, str(LAUNCH), str(report)] + argv, cwd=ROOT,
                            env=env, start_new_session=True, stderr=subprocess.PIPE,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Deadline(" ".join(argv))
    r = json.loads(report.read_text())
    report.unlink()
    return {"code": r["code"] if proc.returncode == 0 else proc.returncode,
            "start_ns": r["start_ns"], "end_ns": r["end_ns"],
            "wall_s": (r["end_ns"] - r["start_ns"]) / 1e9, "cpu_s": r["cpu_s"],
            "maxrss_mb": r["maxrss_kb"] / 1024, "minflt": r["minflt"],
            "stdout": (out or b"").decode(), "stderr": err.decode(errors="replace")}


def _scratch() -> Path:
    path = STATE / "tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _expand(cmds: list, tmp: Path) -> list:
    return [[a.replace("{tmp}", str(tmp)) for a in cmd] for cmd in cmds]


# ---------------------------------------------------------------------------
# Repetitions.
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.spec = WORKLOADS[workload]
        self.model_seed = seed % MODEL_SEEDS
        self.commands = self.spec["commands"](self.model_seed)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.oracle = self.spec["oracle"](seed, self.model_seed)
        self.reps: list[dict] = []
        self.errors: list[str] = []
        self.setup_samples: list[float] = []

    def _tmp(self, tag: str) -> Path:
        path = _scratch() / tag
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def rep(self, traced: bool) -> dict:
        """One repetition of the workload's commands, checked."""
        tmp = self._tmp(f"rep{len(self.reps)}")
        procs, errors = [], []
        try:
            for i, cmd in enumerate(_expand(self.commands, tmp)):
                if traced:
                    span_file = tmp / f"spans{i}.json"
                    argv = [sys.executable, str(CHILD), "cli", str(span_file)] + cmd
                    run_id = f"main.{i}.{cmd[0]}"
                    p = spawn(argv, self.deadline, {"PERFBENCH_RUN_ID": run_id})
                    p["run_id"] = run_id
                    if span_file.exists():
                        p["spans"] = json.loads(span_file.read_text())
                else:
                    p = spawn([sys.executable, "-m", "sievelab.cli"] + cmd, self.deadline)
                p["cmd"] = cmd[0]
                procs.append(p)
                if p["code"] != 0:
                    errors.append(f"{cmd[0]} exited {p['code']}: {p['stderr'].strip()[-300:]}")
                    break
            if not errors:
                try:
                    errors = self.oracle.check(tmp / "out")
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors.append(f"unreadable output: {exc!r}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        rep = {"traced": traced, "procs": procs, "errors": errors,
               "wall_s": sum(p["wall_s"] for p in procs),
               "cpu_s": sum(p["cpu_s"] for p in procs),
               "peak_rss_mb": max(p["maxrss_mb"] for p in procs),
               "minflt": sum(p["minflt"] for p in procs)}
        self.reps.append(rep)
        self.errors.extend(f"rep {len(self.reps)}: {e}" for e in errors)
        return rep

    def untraced_reps(self, seconds: float, setup_probes: int = 0) -> list:
        """Repetitions until `seconds` have passed, each preceded by
        `setup_probes` set-up measurements, so both sample the whole run."""
        reps = []
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            for _ in range(setup_probes):
                self.setup_samples.append(self.setup_probe())
            reps.append(self.rep(traced=False))
        return reps

    def setup_probe(self) -> float:
        """Seconds from spawn until the CLI's imports and prime table are done."""
        argv = [sys.executable, str(CHILD), "setup", str(_table_bound(self.spec["table_k"]))]
        p = spawn(argv, self.deadline, capture=True)
        return (int(p["stdout"].split()[-1]) - p["start_ns"]) / 1e9


# ---------------------------------------------------------------------------
# Traced run: spans -> per-layer metrics.
# ---------------------------------------------------------------------------

def _self_times(spans: list) -> list:
    """Span duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s["start"]
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            lo, hi = max(spans[c]["start"], reach), min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"] - covered) / 1e9)
    return out


def _process_tree(rep: dict) -> list:
    """Spans of a traced repetition: one process span per command, holding
    startup (spawn to cli.main entry), the in-process spans, and exit."""
    spans = []
    for p in rep["procs"]:
        root, run = len(spans), p["run_id"]
        spans.append({"name": f"process.{p['cmd']}", "start": p["start_ns"], "end": p["end_ns"],
                      "parent": -1, "run": run, "attrs": {}})
        inner = p.get("spans", [])
        first = min((s["start"] for s in inner), default=p["end_ns"])
        last = max((s["end"] for s in inner), default=p["end_ns"])
        spans.append({"name": "process.startup", "start": p["start_ns"], "end": first,
                      "parent": root, "run": run, "attrs": {}})
        base = len(spans)
        for s in inner:
            s = dict(s)
            s["parent"] = root if s["parent"] < 0 else s["parent"] + base
            spans.append(s)
        spans.append({"name": "process.exit", "start": last, "end": p["end_ns"],
                      "parent": root, "run": run, "attrs": {}})
    return spans


class LayerView:
    """Per-layer sums over the traced workload's spans, falling back to the
    probe spans for a span name the workload never reaches."""

    def __init__(self, main: list, probe: list):
        self.sets = []
        for spans in (main, probe):
            self.sets.append((spans, _self_times(spans)))

    def pick(self, name: str):
        for spans, selfs in self.sets:
            idx = [i for i, s in enumerate(spans) if s["name"] == name]
            if idx:
                return spans, selfs, idx
        return self.sets[-1][0], self.sets[-1][1], []

    def busy(self, name: str) -> float:
        spans, _, idx = self.pick(name)
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx) / 1e9

    def self_s(self, name: str) -> float:
        _, selfs, idx = self.pick(name)
        return sum(selfs[i] for i in idx)

    def attr_sum(self, name: str, key: str):
        spans, _, idx = self.pick(name)
        return sum(spans[i]["attrs"].get(key, 0) for i in idx)

    def count(self, name: str) -> int:
        return len(self.pick(name)[2])


def layer_metrics(view: LayerView, rates: dict, untraced_wall: float, traced: dict,
                  main_spans: list) -> dict:
    m = {}
    cir = "intervals.compute_interval_records"
    busy_2w = view.busy(cir)
    m[f"{cir}.busy_s"] = (busy_2w, "s")
    m[f"{cir}.entries_per_s"] = (view.attr_sum(cir, "entries") / busy_2w, "1/s")
    r1 = rates["interval_1w"]
    m[f"{cir}.entries_per_s_1w"] = (r1["entries"] / r1["busy_s"], "1/s")
    spans, _, idx = view.pick(cir)
    same = [spans[i] for i in idx
            if (spans[i]["attrs"]["k_from"], spans[i]["attrs"]["k_to"]) == (r1["k_from"], r1["k_to"])]
    block_2w = sum(s["end"] - s["start"] for s in same) / 1e9 / len(same)
    m["intervals.parallel_efficiency"] = (r1["busy_s"] / (2 * block_2w), "ratio")
    m["intervals.entries"] = (view.attr_sum(cir, "entries"), "count")
    m["intervals.chunks"] = (view.attr_sum(cir, "chunks"), "count")
    m["intervals.blocks"] = (view.count(cir), "count")

    m["analytic.li_between.calls_per_s"] = (rates["li_between_calls_per_s"], "1/s")
    m["analytic.li_between.calls"] = (view.count("analytic.li_between"), "count")

    m["intervals.IntervalSet.build_s"] = (view.busy("intervals.IntervalSet.build"), "s")
    m["intervals.IntervalSet.columns_s"] = (view.busy("intervals.IntervalSet.columns"), "s")
    for name in ("stats_lab.bias_series", "randmodel.conjecture_check",
                 "stats_lab.lag_correlation"):
        m[f"{name}.busy_s"] = (view.busy(name), "s")
    for sub in ("intervals", "bias", "conjecture", "corr", "legendre", "randmodel"):
        m[f"cli.main.{sub}.busy_s"] = (view.busy(f"cli.main.{sub}"), "s")
    main_view = LayerView(main_spans, [])
    m["cli.self_s"] = (sum(main_view.self_s(f"cli.main.{sub}") for sub in
                           ("intervals", "bias", "conjecture", "corr", "legendre", "randmodel")), "s")

    rl = "residue_legendre"
    m[f"{rl}.MoebiusContext.build_s"] = (view.busy(f"{rl}.MoebiusContext.build"), "s")
    m[f"{rl}.MoebiusContext.preload_s"] = (view.busy(f"{rl}.MoebiusContext.preload"), "s")
    spans, _, idx = view.pick(f"{rl}.MoebiusContext.preload")
    rss = [spans[i]["attrs"].get("rss_mb", 0.0) for i in idx]
    spans, _, idx = view.pick(f"{rl}.MoebiusContext.build")
    rss += [spans[i]["attrs"].get("rss_mb", 0.0) for i in idx]
    m[f"{rl}.MoebiusContext.rss_mb"] = (max(rss, default=0.0), "MB")
    spans, _, idx = view.pick(f"{rl}.truncated_moebius_sum")
    via_context = {spans[i]["parent"] for i, s in enumerate(spans)
                   if s["name"] == f"{rl}.MoebiusContext.truncated_sum"}
    dfs = sum(spans[i]["end"] - spans[i]["start"] for i in idx if i not in via_context) / 1e9
    ctx = sum(spans[i]["end"] - spans[i]["start"] for i in idx if i in via_context) / 1e9
    m[f"{rl}.truncated_moebius_sum.busy_s.dfs"] = (dfs, "s")
    m[f"{rl}.truncated_moebius_sum.busy_s.context"] = (ctx, "s")
    m[f"{rl}.legendre_term_count.busy_s"] = (view.busy(f"{rl}.legendre_term_count"), "s")
    scan = view.busy(f"{rl}.legendre_scan")
    m[f"{rl}.legendre_scan.busy_s"] = (scan, "s")
    spans, _, idx = view.pick(f"{rl}.legendre_scan")
    named = {f"{rl}.truncated_moebius_sum", f"{rl}.legendre_term_count",
             f"{rl}.MoebiusContext.build", f"{rl}.MoebiusContext.preload"}
    scans = set(idx)
    inner = sum(s["end"] - s["start"] for s in spans
                if s["name"] in named and s["parent"] in scans) / 1e9
    m[f"{rl}.legendre_scan.other_s"] = (scan - inner, "s")
    m[f"{rl}.terms"] = (view.attr_sum(f"{rl}.legendre_term_count", "terms"), "count")

    m["randmodel.shift_model.busy_s"] = (view.busy("randmodel.shift_model"), "s")
    m["randmodel.shift_model.draws_per_s"] = (rates["draws_per_s_k200"], "1/s")
    m["randmodel.shift_model.draws_per_s_k50"] = (rates["draws_per_s_k50"], "1/s")
    m["sieve_core.sieve_window.windows_per_s"] = (rates["sieve_window_windows_per_s"], "1/s")
    m[f"{rl}.count_coprime_direct.windows_per_s"] = (
        rates["count_coprime_direct_windows_per_s"], "1/s")
    m["randmodel.draws"] = (view.attr_sum("randmodel.shift_model", "draws"), "count")

    m["sieve_core.build_prime_table.busy_s"] = (view.busy("sieve_core.build_prime_table"), "s")
    startups = [s["end"] - s["start"] for s in main_spans if s["name"] == "process.startup"]
    m["process.startup_s"] = (statistics.median(startups) / 1e9, "s")

    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    m["trace.unattributed_s"] = (traced["wall_s"] - sum(_self_times(main_spans)), "s")
    return m


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


EXACT_COUNTS = ("intervals.entries", "intervals.chunks", "intervals.blocks",
                "residue_legendre.terms", "randmodel.draws", "analytic.li_between.calls")


def check_counts(workload: str, metrics: dict) -> list:
    """Compare exact counts with earlier runs of the same source tree."""
    path = STATE / "counts.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    counts = {k: metrics[k][0] for k in EXACT_COUNTS}
    key = f"{_code_hash()}:{workload}"
    if key in state and state[key] != counts:
        return [f"exact counts differ from an earlier run of the same code: "
                f"{state[key]} then {counts}"]
    state[key] = counts
    path.write_text(json.dumps(state, indent=1, sort_keys=True))
    return []


def traced_run(bench: Bench) -> dict:
    untraced = bench.untraced_reps(bench.seconds / 2)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced = bench.rep(traced=True)
    main_spans = _process_tree(traced)

    tmp = bench._tmp("replay")
    try:
        blocks = [[s["attrs"]["k_from"], s["attrs"]["k_to"], s["attrs"]["chunk_entries"]]
                  for s in main_spans if s["name"] == "intervals.compute_interval_records"]
        others = [w for w in WORKLOADS if w != bench.name]
        spec = {
            "seed": bench.seed, "tmp": str(tmp),
            "interval_blocks": blocks[-1:],
            "probe_commands": [cmd for w in others for cmd in WORKLOADS[w]["probe"](bench.model_seed)],
            "probe_legendre_ranges": [r for w in others
                                      for r in WORKLOADS[w].get("probe_legendre_ranges", [])],
        }
        (tmp / "spec.json").write_text(json.dumps(spec))
        p = spawn([sys.executable, str(CHILD), "replay", str(tmp / "spec.json"),
                   str(tmp / "result.json")], bench.deadline)
        if p["code"] != 0:
            raise SystemExit(f"replay failed: {p['stderr'][-2000:]}")
        replay = json.loads((tmp / "result.json").read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    view = LayerView(main_spans, replay["spans"])
    metrics = layer_metrics(view, replay["rates"], untraced_wall, traced, main_spans)
    bench.errors.extend(check_counts(bench.name, metrics))
    unattributed = metrics["trace.unattributed_s"][0]
    if abs(unattributed) > 0.01 * traced["wall_s"]:
        bench.errors.append(f"spans do not nest: {unattributed:.4f} s of the traced wall "
                            "time is not attributed to any span")
    out = STATE / f"trace-{bench.name}-{bench.seed}.json"
    out.write_text(json.dumps({
        "workload": bench.name, "seed": bench.seed, "environment": environment(),
        "metrics": {k: v[0] for k, v in metrics.items()},
        "sources": {"main": "traced workload commands",
                    "probe": "probe-size commands, used only for span names the workload never reaches"},
        "computed_not_measured": {
            "sieve_flag_bytes": metrics["intervals.entries"][0],
            "note": "one bool byte per sieve entry, from the interval geometry"},
        "spans": main_spans, "probe_spans": replay["spans"], "rates": replay["rates"],
    }))
    return metrics


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _caches() -> list:
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        def read(name):
            f = idx / name
            return f.read_text().strip() if f.exists() else None
        out.append({"level": read("level"), "type": read("type"), "size": read("size"),
                    "shared_cpu_list": read("shared_cpu_list")})
    return out


def environment() -> dict:
    import numpy
    chunk_bytes = (1 << 25) * 1  # the CLI's default --segment-size, one bool per entry
    caches = _caches()
    l3 = [c["size"] for c in caches if c["level"] == "3"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "caches_from_sys": caches,
        "working_set_computed": {
            "sieve_chunk_bytes": chunk_bytes, "last_level_cache": l3[0] if l3 else None,
            "note": "computed from the default chunk of 2^25 bool entries, not measured"},
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "sievelab" / "cli.py").is_file():
        print(f"perfbench: no sievelab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds)
    print(json.dumps({"environment": environment()}))
    try:
        if args.trace:
            metrics = traced_run(bench)
        else:
            bench.setup_probe()  # warms the bytecode cache; not counted
            reps = bench.untraced_reps(args.seconds, SETUP_PROBES_PER_REP)
            metrics = {
                "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
                "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
                "setup_s": (statistics.median(bench.setup_samples), "s"),
            }
    except Deadline as exc:
        print(f"perfbench: run deadline reached during {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(STATE / "tmp" / str(os.getpid()), ignore_errors=True)
    attempted = len(bench.reps)
    failed = sum(1 for r in bench.reps if r["errors"])
    for err in bench.errors:
        print(f"perfbench: FAIL {err}", file=sys.stderr)
    print(json.dumps({"summary": {
        "workload": bench.name, "seed": bench.seed, "repetitions": attempted,
        "fail_rate": failed / attempted,
        "rep_wall_s": [round(r["wall_s"], 4) for r in bench.reps],
        "rep_minflt": [r["minflt"] for r in bench.reps]}}))
    print(json.dumps({
        "correct": not bench.errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
