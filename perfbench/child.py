"""Code that runs inside the processes the benchmark measures.

    python3 perfbench/child.py setup <bound>
        Import the CLI module and build a prime table of the given bound,
        then print the CLOCK_MONOTONIC time (ns) at which that finished.
    python3 perfbench/child.py cli <spans.json> <sievelab argv...>
        Run one sievelab command with spans around the calls into each
        module's public functions; spans stay in memory and are written
        to <spans.json> when the command returns.
    python3 perfbench/child.py replay <spec.json> <result.json>
        Layer replays: probe-size runs of the commands the measured
        workload does not reach (traced), then untraced rate replays.

Spans are recorded from this file only, by rebinding module attributes
and class methods of the imported package; the package itself is not
changed. The benchmark sets PYTHONPATH to the checkout's src directory.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

LAYERS = ("sieve_core", "intervals", "analytic", "residue_legendre",
          "randmodel", "stats_lab", "cli")

# Class methods that are layer boundaries, with the span name each gets.
# PrimeTable methods are left out: they are per-element accessors.
METHOD_SPANS = {
    ("intervals", "IntervalSet", "__init__"): "intervals.IntervalSet.build",
    ("intervals", "IntervalSet", "pi_array"): "intervals.IntervalSet.columns",
    ("intervals", "IntervalSet", "li_array"): "intervals.IntervalSet.columns",
    ("intervals", "IntervalSet", "length_array"): "intervals.IntervalSet.columns",
    ("intervals", "IntervalSet", "gap_array"): "intervals.IntervalSet.columns",
    ("intervals", "IntervalSet", "p_next_array"): "intervals.IntervalSet.columns",
    ("residue_legendre", "MoebiusContext", "__init__"): "residue_legendre.MoebiusContext.build",
    ("residue_legendre", "MoebiusContext", "preload"): "residue_legendre.MoebiusContext.preload",
    # Its span under truncated_moebius_sum marks the context path.
    ("residue_legendre", "MoebiusContext", "truncated_sum"):
        "residue_legendre.MoebiusContext.truncated_sum",
}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_kb() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE // 1024


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory spans: name, start, end (monotonic ns), parent index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._ctx_rss0: dict[int, int] = {}

    def span(self, name, fn, args, kwargs, before=None, after=None):
        idx = len(self.spans)
        rec = {"name": name, "start": 0, "end": 0, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else -1, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(idx)
        if before:
            before(rec["attrs"], args, kwargs)
        rec["start"] = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.monotonic_ns()
            self._stack.pop()
        if after:
            after(rec["attrs"], args, kwargs, result)
        return result

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, before, after)
        return traced

    # -- per-boundary attributes ------------------------------------------

    def _hooks(self, span_name, fn):
        if span_name == "intervals.compute_interval_records":
            sig = inspect.signature(fn)

            def before(attrs, args, kwargs):
                bound = sig.bind(*args, **kwargs)
                a = bound.arguments
                table = a["table"]
                attrs["k_from"], attrs["k_to"] = a["k_from"], a["k_to"]
                attrs["entries"] = table.nth(a["k_to"] + 1) ** 2 - table.nth(a["k_from"]) ** 2
                attrs["chunk_entries"] = a.get("chunk_entries")
                attrs["chunks"] = 0
                if "progress" in sig.parameters and a.get("progress") is None:
                    def count_chunk(_k_done, _k_to):
                        attrs["chunks"] += 1
                    kwargs["progress"] = count_chunk
            return before, None
        if span_name == "residue_legendre.legendre_term_count":
            def after(attrs, args, kwargs, result):
                attrs["terms"] = int(result)
            return None, after
        if span_name == "randmodel.shift_model":
            def after(attrs, args, kwargs, result):
                attrs["draws"] = int(result.samples) if result.mode == "sampled" else 0
            return None, after
        if span_name == "residue_legendre.MoebiusContext.build":
            def before(attrs, args, kwargs):
                self._ctx_rss0[id(args[0])] = _rss_kb()

            def after(attrs, args, kwargs, result):
                attrs["rss_mb"] = (_maxrss_kb() - self._ctx_rss0[id(args[0])]) / 1024
            return before, after
        if span_name == "residue_legendre.MoebiusContext.preload":
            def after(attrs, args, kwargs, result):
                rss0 = self._ctx_rss0.get(id(args[0]))
                if rss0 is not None:
                    attrs["rss_mb"] = (_maxrss_kb() - rss0) / 1024
            return None, after
        return None, None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import sievelab
        modules = {name: getattr(sievelab, name) for name in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span_name = f"{layer}.{attr}"
                if span_name == "cli.main":
                    wrapper = self._wrap_main(obj)
                else:
                    wrapper = self._wrap(span_name, obj, *self._hooks(span_name, obj))
                # Rebind every module-level reference, including
                # `from .x import f` copies held by other modules.
                for holder in list(modules.values()) + [sievelab]:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            self._restore.append((holder, name, value))
                            setattr(holder, name, wrapper)
        for (layer, cls_name, meth), span_name in METHOD_SPANS.items():
            cls = getattr(modules[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                continue
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(span_name, fn, *self._hooks(span_name, fn)))

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def _wrap_main(self, fn):
        @functools.wraps(fn)
        def traced(argv=None):
            argv = list(sys.argv[1:] if argv is None else argv)
            sub = argv[0] if argv else "none"
            return self.span(f"cli.main.{sub}", fn, (argv,), {})
        return traced


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------

def _setup(bound: int) -> int:
    import sievelab.cli  # noqa: F401  (the same imports the CLI pays for)
    from sievelab import build_prime_table
    build_prime_table(bound)
    print(time.monotonic_ns(), flush=True)
    return 0


def _cli(spans_path: str, argv: list) -> int:
    import sievelab.cli
    tracer = Tracer(os.environ.get("PERFBENCH_RUN_ID", "main"))
    tracer.install()
    code = sievelab.cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _replay(spec_path: str, result_path: str) -> int:
    """Probe commands (traced) first, then untraced rate replays."""
    spec = json.loads(Path(spec_path).read_text())
    import sievelab
    import sievelab.cli
    from sievelab import (Window, build_prime_table, compute_interval_records,
                          count_coprime_direct, li_between, primorial, shift_model,
                          sieve_window)

    tracer = Tracer("probe")
    tracer.install()
    with tempfile.TemporaryDirectory(dir=spec["tmp"]) as tmp:
        for argv in spec["probe_commands"]:
            argv = [a.replace("{tmp}", tmp) for a in argv]
            code = sievelab.cli.main(argv)
            if code != 0:
                raise SystemExit(f"probe command {argv} exited {code}")
        table = build_prime_table(60_000)  # p_6057; covers every call below
        for k_from, k_to in spec["probe_legendre_ranges"]:
            sievelab.legendre_scan(k_from, k_to, table)
    tracer.uninstall()

    seed = spec["seed"]
    rates = {}
    # 1-worker replay of the last interval block of the source run.
    blocks = spec["interval_blocks"] or [
        [s["attrs"]["k_from"], s["attrs"]["k_to"], s["attrs"]["chunk_entries"]]
        for s in tracer.spans if s["name"] == "intervals.compute_interval_records"][-1:]
    k_from, k_to, chunk = blocks[-1]
    t0 = time.perf_counter()
    compute_interval_records(k_from, k_to, table, threads=1, chunk_entries=chunk)
    rates["interval_1w"] = {"k_from": k_from, "k_to": k_to,
                            "entries": table.nth(k_to + 1) ** 2 - table.nth(k_from) ** 2,
                            "busy_s": time.perf_counter() - t0}
    # li_between over the interval endpoints k = 1..5000.
    ends = [(table.nth(k) ** 2, table.nth(k + 1) ** 2) for k in range(1, 5001)]
    t = _median_time(lambda: [li_between(a, b) for a, b in ends], 3)
    rates["li_between_calls_per_s"] = len(ends) / t
    # Sampled shift model at k = 200 and k = 50.
    for k, draws in ((200, 1000), (50, 2000)):
        t = _median_time(lambda: shift_model(k, table, budget=draws, seed=seed), 3)
        rates[f"draws_per_s_k{k}"] = draws / t
    # The two striking copies on the same s_200^j windows, 0 <= j < p_200#.
    rng = random.Random(seed)
    lo0, hi0 = table.nth(200) ** 2, table.nth(201) ** 2 - 1
    period = primorial(200, table).value
    shifts = [rng.randrange(period) for _ in range(300)]
    ps = table.first(200)
    t = _median_time(lambda: [sieve_window(lo0 + j, hi0 + j, ps) for j in shifts], 3)
    rates["sieve_window_windows_per_s"] = len(shifts) / t
    wins = [Window(lo0 + j, hi0 + j) for j in shifts]
    t = _median_time(lambda: [count_coprime_direct(w, 200, table) for w in wins], 3)
    rates["count_coprime_direct_windows_per_s"] = len(wins) / t

    Path(result_path).write_text(json.dumps({"spans": tracer.spans, "rates": rates}))
    return 0


def main(argv: list) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(int(rest[0]))
    if mode == "cli":
        return _cli(rest[0], rest[1:])
    if mode == "replay":
        return _replay(rest[0], rest[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
