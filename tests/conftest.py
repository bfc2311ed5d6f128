import multiprocessing.context

import pytest

from sievelab import build_intervals, build_prime_table, sieve_core


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
    """Worker counts of the multiprocessing pools created during the test."""
    sizes = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def recording_pool(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return real_pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", recording_pool)
    return sizes
