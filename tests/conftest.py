import contextlib
import os

import pytest

from sievelab import (build_intervals, build_prime_table, intervals, randmodel, residue_legendre,
                      sieve_core)


def no_child_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="session")
def table_small():
    return build_prime_table(2000)


@pytest.fixture(scope="session")
def table():
    # Covers p_10001 = 104743 and counting up to bound^2 ~ 1.4e10.
    return build_prime_table(120_000)


@pytest.fixture(scope="session")
def set200(table):
    return build_intervals(200, table)


@pytest.fixture(scope="session")
def set1000(table):
    return build_intervals(1000, table)


@pytest.fixture
def small_blocks(monkeypatch):
    # Primes 19..31 strike with slices, 37 and up with the scatter. At 64
    # rows a block, every prime from 67 on skips some blocks and strikes others.
    monkeypatch.setattr(sieve_core, "_BLOCK_SLOTS", 64)
    monkeypatch.setattr(sieve_core, "_SCATTER_MIN", 37)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts of the sieve_core._worker_map blocks opened during the
    test that fork, one per block."""
    sizes = []
    real_map = sieve_core._worker_map

    @contextlib.contextmanager
    def recording_map(*args, **kwargs):
        with real_map(*args, **kwargs) as results:
            if sieve_core._pool_workers > 1:
                sizes.append(sieve_core._pool_workers)
            yield results

    for module in (sieve_core, intervals, randmodel, residue_legendre):
        monkeypatch.setattr(module, "_worker_map", recording_map)
    return sizes


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that this process forks during the test, in order."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
