"""Output checks for the benchmark workloads, independent of sievelab.

Every check returns a list of failure messages (empty means correct).
Two kinds of check run on every workload repetition:

* byte identity: each CSV's sha256 against digests.json, recorded once
  from the code the benchmark was written against;
* an oracle that uses sympy and plain integer arithmetic only.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import sympy

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())


def _p(k: int) -> int:
    """p_k, 1-based, from sympy's sieve."""
    return int(sympy.sieve[k])


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def check_digests(out: Path, expected: dict) -> list[str]:
    errors = []
    for name, digest in expected.items():
        path = out / name
        if not path.exists():
            errors.append(f"{name}: missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errors.append(f"{name}: sha256 differs from the recorded digest")
    return errors


class IntervalOracle:
    """pi(p_{k+1}^2 - 1) = 2 + sum of pi_k, with pi from sympy."""

    def __init__(self, k_max: int):
        self.k_max = k_max
        self.pi_total = int(sympy.primepi(_p(k_max + 1) ** 2 - 1))

    def check(self, out: Path) -> list[str]:
        errors = check_digests(out, DIGESTS["interval_pipeline"])
        rows = _rows(out / "intervals.csv")
        if [int(r[0]) for r in rows] != list(range(1, self.k_max + 1)):
            return errors + ["intervals.csv: k column is not 1..k_max"]
        for r in rows:
            k = int(r[0])
            if int(r[1]) != _p(k) or int(r[2]) != _p(k + 1):
                errors.append(f"intervals.csv: wrong primes at k={k}")
                break
        total = 2 + sum(int(r[5]) for r in rows)
        if total != self.pi_total:
            errors.append(f"intervals.csv: 2 + sum pi_k = {total}, sympy primepi = {self.pi_total}")
        return errors


def _smooth_squarefree_below(primes: list[int], bound: int) -> int:
    """Squarefree products of distinct primes from the list below bound (d = 1 included)."""
    count = 0
    stack = [(0, 1)]
    while stack:
        start, d = stack.pop()
        count += 1
        for i in range(start, len(primes)):
            nd = d * primes[i]
            if nd >= bound:
                break
            stack.append((i + 1, nd))
    return count


class LegendreOracle:
    """Admissible divisor counts by brute force, interval lengths by sympy."""

    def __init__(self, k_max: int, seed: int):
        self.k_max = k_max
        rng = random.Random(seed)
        # Every k <= 12 by subset enumeration, plus three seeded k in 13..40
        # by a pruned enumeration.
        self.subset_ks = list(range(1, 13))
        self.pruned_ks = sorted(rng.sample(range(13, 41), 3))

    def check(self, out: Path) -> list[str]:
        errors = check_digests(out, DIGESTS["legendre_scan"])
        rows = {int(r[0]): (int(r[1]), int(r[2])) for r in _rows(out / "legendre_terms.csv")}
        if sorted(rows) != list(range(1, self.k_max + 1)):
            return errors + ["legendre_terms.csv: k column is not 1..k_max"]
        for k, (_, l_k) in rows.items():
            if l_k != _p(k + 1) ** 2 - _p(k) ** 2:
                errors.append(f"legendre_terms.csv: wrong l_k at k={k}")
                break
        for k in self.subset_ks:
            ps = [_p(i) for i in range(1, k + 1)]
            bound = _p(k + 1) ** 2
            brute = sum(1 for mask in range(1 << k)
                        if math.prod(p for i, p in enumerate(ps) if mask >> i & 1) < bound)
            if rows[k][0] != brute:
                errors.append(f"legendre_terms.csv: terms at k={k} is {rows[k][0]}, brute force {brute}")
        for k in self.pruned_ks:
            count = _smooth_squarefree_below([_p(i) for i in range(1, k + 1)], _p(k + 1) ** 2)
            if rows[k][0] != count:
                errors.append(f"legendre_terms.csv: terms at k={k} is {rows[k][0]}, enumeration {count}")
        return errors


class ShiftModelOracle:
    """Recount seeded draws' windows with math.gcd against p_k#, and hold the
    sample mean to its exact expectation l_k * prod(1 - 1/p)."""

    def __init__(self, k: int, draws: int, model_seed: int, seed: int, recounts: int = 3):
        self.k, self.draws, self.model_seed = k, draws, model_seed
        self.primorial = math.prod(_p(i) for i in range(1, k + 1))
        self.lo0 = _p(k) ** 2
        self.length = _p(k + 1) ** 2 - self.lo0
        self.expected_mean = self.length * math.prod(1 - 1 / _p(i) for i in range(1, k + 1))
        rng = random.Random(seed)
        self.recount = {}
        for i in rng.sample(range(draws), recounts):
            # The per-draw shift the program documents: Random(f"{seed}:{k}:{i}").
            j = random.Random(f"{model_seed}:{k}:{i}").randrange(self.primorial)
            lo = self.lo0 + j
            self.recount[i] = sum(1 for n in range(lo, lo + self.length)
                                  if math.gcd(n, self.primorial) == 1)

    def check(self, out: Path) -> list[str]:
        errors = check_digests(out, DIGESTS["shift_model"][str(self.model_seed)])
        (row,) = _rows(out / "randmodel.csv")
        k, mode, samples, mean, var = int(row[0]), row[1], int(row[2]), float(row[3]), float(row[4])
        if (k, mode, samples, row[7]) != (self.k, "sampled", self.draws, str(self.model_seed)):
            errors.append(f"randmodel.csv: unexpected row {row}")
        # Six standard errors: a deterministic bound for the fixed model seeds,
        # and about 8 for a model that drops the largest prime.
        if abs(mean - self.expected_mean) > 6 * math.sqrt(var / self.draws):
            errors.append(f"randmodel.csv: mean {mean} is more than 6 standard errors "
                          f"from the expectation {self.expected_mean:.4f}")
        hist = {int(v): int(c) for v, c in _rows(out / "randmodel_hist.csv")}
        if sum(hist.values()) != self.draws:
            errors.append("randmodel_hist.csv: counts do not sum to the draw count")
        hist_mean = sum(v * c for v, c in hist.items()) / self.draws
        if abs(hist_mean - mean) > 1e-12 * abs(mean):
            errors.append(f"randmodel.csv: mean {mean} differs from the histogram's {hist_mean}")
        for i, value in self.recount.items():
            if hist.get(value, 0) < 1:
                errors.append(f"draw {i}: gcd recount {value} absent from the histogram")
        return errors
