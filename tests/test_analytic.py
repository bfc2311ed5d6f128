import math

import numpy as np
import pytest

from sievelab import (
    EULER_GAMMA,
    DomainError,
    delta_normalizer,
    estimator_bundle,
    expected_pi_k,
    expected_pi_upto,
    interval_length,
    li,
    li_between,
    li_k,
    mertens_product,
    mertens_products,
    naive_expected_pi,
    pnt_interval_estimate,
)

from _oracles import fraction_mertens, li_between_oracle, li_oracle


def test_li_examples():
    assert li(2) == 0.0
    assert li(10) == pytest.approx(5.120435724669806, abs=1e-9)
    assert li(100) == pytest.approx(29.08097780396214, abs=1e-9)
    with pytest.raises(DomainError):
        li(1.5)


def test_li_matches_oracle_on_log_grid():
    # Quadrature validation: 100 log-spaced points across [2, 1e12].
    for x in np.logspace(np.log10(2.0), 12.0, 100):
        x = float(x)
        mine = li(x)
        ref = li_oracle(x)
        assert abs(mine - ref) <= max(1e-9, 1e-13 * abs(ref))


def test_li_k_value_and_sandwich(table_small):
    li_1 = li_k(1, table_small)
    assert li_1 == pytest.approx(2.7536526577885, abs=1e-9)
    assert li_1 == pytest.approx(li_between_oracle(4, 9), abs=1e-10)
    assert 5 / math.log(9) < li_1 < 5 / math.log(4)


def test_li_k_telescopes(table_small):
    k = 50
    total = math.fsum(li_k(j, table_small) for j in range(1, k + 1))
    p_next = table_small.nth(k + 1)
    assert total == pytest.approx(li(p_next ** 2) - li(4), rel=1e-11)


def test_li_between_errors():
    with pytest.raises(DomainError):
        li_between(1, 10)
    with pytest.raises(DomainError):
        li_between(10, 5)
    assert li_between(7, 7) == 0.0


def test_mertens_product_exact_small(table_small):
    assert mertens_product(1, table_small).product == 0.5
    assert mertens_product(3, table_small).product == pytest.approx(4 / 15, rel=1e-15)


def test_mertens_product_matches_fraction_oracle(table_small):
    for k in (2, 5, 10, 25, 50):
        ref = float(fraction_mertens(int(p) for p in table_small.first(k)))
        assert mertens_product(k, table_small).product == pytest.approx(ref, rel=1e-13)


def test_mertens_product_is_the_running_product(table):
    # One numeric path: the ordered running product, also beyond k = 1000.
    for k in (1, 1000, 1001, 5000):
        assert mertens_product(k, table).product == mertens_products(k, table)[k]
    ref = float(fraction_mertens(int(p) for p in table.first(2000)))
    assert mertens_product(2000, table).product == pytest.approx(ref, rel=1e-12)


def test_mertens_products_running(table_small):
    prods = mertens_products(60, table_small)
    assert prods[0] == 1.0
    for k in (1, 7, 33, 60):
        assert prods[k] == pytest.approx(mertens_product(k, table_small).product, rel=1e-13)
    assert np.all(np.diff(prods) < 0)


def test_mertens_error_bound_holds(table):
    # |log(product * log(x) / 2) + gamma| <= delta_bound at x = p_{k+1}^2 - 1.
    for k in list(range(1, 50)) + [100, 300, 1000]:
        ev = mertens_product(k, table)
        x = table.nth(k + 1) ** 2 - 1
        delta = math.log(ev.product * math.log(x) / 2.0) + EULER_GAMMA
        assert abs(delta) <= ev.delta_bound


def test_mertens_bound_all_k_vectorized(table):
    # Running products against the error bound for every k up to 10^4.
    k_max = 10_000
    prods = mertens_products(k_max, table)[1:]
    p_next = np.array([table.nth(k + 1) for k in range(1, k_max + 1)], dtype=np.float64)
    x = p_next * p_next - 1
    delta = np.log(prods * np.log(x) / 2.0) + EULER_GAMMA
    roots = np.sqrt(x)
    bound = 4.0 / np.log(roots + 1) + 2.0 / (roots * np.log(roots)) + 0.5 / roots
    assert np.all(np.abs(delta) <= bound)


def test_mertens_limit_at_k_1000(table):
    ev = mertens_product(1000, table)
    x = table.nth(1001) ** 2 - 1
    limit = 2 * math.exp(-EULER_GAMMA) / math.log(x)
    # product = 2 e^{-gamma+delta} / log x with |delta| <= bound
    assert abs(math.log(ev.product / limit)) <= ev.delta_bound


def test_naive_expected_pi(table):
    assert naive_expected_pi(25, table) == pytest.approx(20 / 3, rel=1e-13)
    assert naive_expected_pi(9, table) == pytest.approx(3.0, rel=1e-13)
    x = 10 ** 10
    ratio = naive_expected_pi(x, table) / (2 * math.exp(-EULER_GAMMA) * x / math.log(x))
    assert abs(ratio - 1) < 0.01
    with pytest.raises(DomainError):
        naive_expected_pi(3, table)


def test_expected_pi_k(table_small):
    assert expected_pi_k(1, table_small) == pytest.approx(2.5, rel=1e-15)
    assert expected_pi_k(3, table_small) == pytest.approx(6.4, rel=1e-14)
    assert expected_pi_k(2, table_small) == pytest.approx(16 / 3, rel=1e-14)


def test_expected_pi_upto(table_small, set200):
    assert expected_pi_upto(25, set200, table_small) == pytest.approx(2.5 + 16 / 3, rel=1e-13)
    # At a left endpoint the fractional term vanishes.
    k = 7
    x = table_small.nth(k) ** 2
    expect = math.fsum(expected_pi_k(j, table_small) for j in range(1, k))
    assert expected_pi_upto(x, set200, table_small) == pytest.approx(expect, rel=1e-12)


def test_expected_pi_upto_continuity(table_small, set200):
    k = 10
    hi = table_small.nth(k + 1) ** 2
    step = expected_pi_k(k, table_small) / interval_length(k, table_small)
    below = expected_pi_upto(hi - 1, set200, table_small)
    at = expected_pi_upto(hi, set200, table_small)
    assert 0 < at - below <= step * (1 + 1e-9)


def test_expected_pi_upto_telescoping(table_small, set200):
    k = 12
    x = table_small.nth(k + 1) ** 2
    total = math.fsum(expected_pi_k(j, table_small) for j in range(1, k + 1))
    assert expected_pi_upto(x, set200, table_small) == pytest.approx(total, rel=1e-12)


def test_pnt_interval_estimate(table):
    assert pnt_interval_estimate(3, table) == pytest.approx(24 / math.log(49), rel=1e-15)
    assert pnt_interval_estimate(1000, table) == pytest.approx(
        126768 / math.log(7927 ** 2), rel=1e-15)


def test_delta_normalizer(table_small):
    d1 = delta_normalizer(1, table_small)
    assert d1 == pytest.approx(0.5 * (5 / math.log(4) - 5 / math.log(9)), rel=1e-14)
    assert d1 == pytest.approx(0.66557, abs=5e-5)
    # Increment identity and strict growth.
    prev = d1
    for k in range(2, 40):
        cur = delta_normalizer(k, table_small)
        l = interval_length(k, table_small)
        p, pn = table_small.nth(k), table_small.nth(k + 1)
        inc = 0.5 * (l / math.log(p * p) - l / math.log(pn * pn))
        assert inc > 0
        assert cur - prev == pytest.approx(inc, rel=1e-10)
        prev = cur


def test_eta_bound_holds_exactly(table):
    for k in list(range(1, 200)) + [500, 1000]:
        bundle = estimator_bundle(k, table)
        p, pn = table.nth(k), table.nth(k + 1)
        eta = math.log(pn * pn) / math.log(p * p) - 1
        assert eta <= bundle.eta_bound
        assert bundle.eta_bound == pytest.approx(math.log(4) / math.log(p * p), rel=1e-15)


def test_estimator_bundle_ratio_tends_to_one(table):
    # tilde_pi_k / tilde_pi_k_asym within the Mertens error scale at large k.
    for k in (200, 500, 1000):
        b = estimator_bundle(k, table)
        ev = mertens_product(k, table)
        assert abs(math.log(b.tilde_pi_k / b.tilde_pi_k_asym)) <= ev.delta_bound
