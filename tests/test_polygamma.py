"""Accelerated digamma/trigamma vs closed forms, the reference oracle, and
their own raw series."""

import math
import time

import pytest

from conftest import grid
from gammaprod import polygamma
from gammaprod.errors import DomainError
from gammaprod.polygamma import (
    digamma,
    digamma_series_raw,
    trigamma,
    zeta_tail,
)
from gammaprod.reference import EULER_GAMMA, power_tail, ref_digamma, ref_trigamma, ref_zeta

PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)
# Gauss closed form at 1/3: -g - (3/2) ln 3 - pi/(2 sqrt 3)
PSI_THIRD = -EULER_GAMMA - 1.5 * math.log(3.0) - math.pi / (2.0 * math.sqrt(3.0))
CATALAN = 0.915965594177219015


def test_digamma_half_at_small_n0():
    res = digamma(0.5, 200)
    assert res.value == pytest.approx(PSI_HALF, abs=1e-6)
    assert res.head_terms == 200
    assert math.isfinite(res.tail_estimate)


def test_digamma_third():
    assert digamma(1.0 / 3.0, 500).value == pytest.approx(PSI_THIRD, abs=1e-5)
    assert PSI_THIRD == pytest.approx(-3.1320337800208063, abs=1e-12)


def test_digamma_grid_against_reference():
    for t in grid(0.05, 0.95, 19):
        assert digamma(t, 1000).value == pytest.approx(ref_digamma(t), abs=1e-5)


def test_digamma_approaches_limit_near_one():
    # psi(1) = -euler_gamma; the grid trend must close in on it as t -> 1-
    gaps = [abs(digamma(t, 1000).value - (-EULER_GAMMA)) for t in (0.7, 0.8, 0.9, 0.97)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_raw_series_decays_like_n_to_minus_t():
    # error constant is N^-t / (t Gamma(1-t)); at t = 1/2 that is ~0.0357
    # for N = 1e3 and ~0.00357 for N = 1e5
    err3 = abs(digamma_series_raw(0.5, 1000) - PSI_HALF)
    assert 0.02 < err3 < 0.05
    err5 = abs(digamma_series_raw(0.5, 100_000) - PSI_HALF)
    assert 0.002 < err5 < 0.005
    assert err5 == pytest.approx(err3 / 10.0, rel=0.05)
    err_t9 = abs(digamma_series_raw(0.9, 1000) - ref_digamma(0.9))
    assert err_t9 < 1e-3


def test_acceleration_dominates_raw_series():
    for t in grid(0.05, 0.95, 19):
        ref = ref_digamma(t)
        acc = abs(digamma(t, 1000).value - ref)
        raw = abs(digamma_series_raw(t, 1000) - ref)
        assert acc < raw


def test_trigamma_half():
    assert trigamma(0.5, 500).value == pytest.approx(math.pi**2 / 2.0, abs=1e-4)


def test_trigamma_quarter():
    want = math.pi**2 + 8.0 * CATALAN
    assert want == pytest.approx(17.1973291545071, abs=1e-10)
    assert trigamma(0.25, 500).value == pytest.approx(want, abs=1e-3)


def test_trigamma_grid_against_reference():
    for t in grid(0.05, 0.95, 19):
        assert trigamma(t, 1000).value == pytest.approx(ref_trigamma(t), abs=1e-3)


def test_trigamma_is_decreasing():
    vals = [trigamma(t, 500).value for t in grid(0.05, 0.95, 20)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_reflection_checks():
    for t in grid(0.1, 0.45, 8):
        lhs = digamma(1.0 - t, 1000).value - digamma(t, 1000).value
        assert lhs == pytest.approx(math.pi / math.tan(math.pi * t), abs=1e-5)
        s = trigamma(t, 1000).value + trigamma(1.0 - t, 1000).value
        assert s == pytest.approx(math.pi**2 / math.sin(math.pi * t) ** 2, abs=1e-3)


def test_zeta_tail_example():
    got = zeta_tail(0.5, 10)
    partial = math.fsum(n**-1.5 for n in range(1, 11))
    assert partial == pytest.approx(1.9953364933456017, rel=1e-12)
    assert got == pytest.approx(ref_zeta(1.5) - partial, abs=1e-14)
    assert got == pytest.approx(0.617, abs=5e-4)


def test_zeta_tail_monotone_to_zero():
    vals = [zeta_tail(0.3, n0) for n0 in (10, 50, 100, 1000, 5000)]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_zeta_tail_brute_force_cross_check():
    # one million direct terms plus an Euler-Maclaurin remainder
    brute = math.fsum(n**-1.5 for n in range(101, 1_000_001)) + power_tail(1.5, 1_000_000)
    assert zeta_tail(0.5, 100) == pytest.approx(brute, abs=1e-10)
    # 40-digit Hurwitz zeta at the exponent s = 1 + t as rounded in floats
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for n0 in (10, 20, 100, 1000):
            for t in grid(0.01, 0.99, 50):
                ref = mp.zeta(mp.mpf(1.0 + t), n0 + 1)
                assert abs((zeta_tail(t, n0) - ref) / ref) <= 5e-15, (n0, t)


def test_polygamma_result_fields():
    res = trigamma(0.3, 50)
    assert (res.t, res.n0, res.head_terms) == (0.3, 50, 50)
    assert math.isfinite(res.tail_estimate)


def test_domain_errors():
    for fn in (digamma, trigamma):
        with pytest.raises(DomainError):
            fn(0.0, 100)
        with pytest.raises(DomainError):
            fn(1.0, 100)
        with pytest.raises(DomainError):
            fn(0.5, 5)
    with pytest.raises(DomainError):
        digamma_series_raw(0.5, 0)
    with pytest.raises(DomainError):
        zeta_tail(1.5, 100)


def test_every_n0_gives_the_same_value_and_counts_n0_terms():
    for fn in (digamma, trigamma):
        results = [fn(0.3, n0) for n0 in (10, 11, 1000, 10**9)]
        assert len({r.value for r in results}) == 1
        assert [r.head_terms for r in results] == [10, 11, 1000, 10**9]
        tails = [abs(r.tail_estimate) for r in results]
        assert all(a > b > 0.0 for a, b in zip(tails, tails[1:]))


def test_a_billion_term_head_costs_what_ten_do():
    for fn in (digamma, trigamma):
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            fn(0.3, 10**9)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3


# digamma_series_raw(t, N) for t in (1e-6, 0.01, 0.3, 0.5, 0.77, 0.99) and
# N = 1, 1000, as computed from the oracle-seeded f(1, 1-t) = Gamma(2-t) Gamma(t)
RAW_SERIES = {
    1e-6: (-1.5772146649015317, -8.062657687412946),
    0.01: (-1.5672156649015316, -7.780729684032554),
    0.3: (-1.2772156649015327, -3.1792955432726284),
    0.5: (-1.0772156649015325, -1.9278379476885679),
    0.77: (-0.8072156649015328, -1.034452477055542),
    0.99: (-0.5872156649015329, -0.5937754242772374),
}


def test_raw_series_keeps_its_values_with_the_closed_form_seed():
    for t, (at_1, at_1000) in RAW_SERIES.items():
        assert digamma_series_raw(t, 1) == pytest.approx(at_1, rel=1e-13)
        assert digamma_series_raw(t, 1000) == pytest.approx(at_1000, rel=1e-13)
        # one term: -g - (sin(pi t)/pi) f(1, 1-t) = -g - (1-t)
        assert digamma_series_raw(t, 1) == pytest.approx(-EULER_GAMMA - (1.0 - t), rel=1e-15)


def test_polygamma_takes_nothing_from_the_oracle():
    assert not [name for name in vars(polygamma) if name.startswith("ref_") or name == "log_power_tail"]


@pytest.mark.parametrize("fn, fits, overflows", [(digamma, 5.6e-309, 5.5e-309), (trigamma, 7.5e-155, 7.4e-155)])
def test_tiny_t_up_to_the_double_range(fn, fits, overflows):
    for t in (1e-17, 1e-100, fits):
        value = fn(t, 1000).value
        assert math.isfinite(value)
        assert value == pytest.approx(-1.0 / t if fn is digamma else 1.0 / t / t, rel=1e-15)
    for t in (overflows, 1e-320, 5e-324):
        with pytest.raises(DomainError, match="overflows"):
            fn(t, 1000)


def test_n0_beyond_two_to_the_53_is_a_domain_error():
    for fn in (digamma, trigamma):
        assert math.isfinite(fn(0.5, 2**53).tail_estimate)
        for n0 in (2**53 + 1, 10**400):
            with pytest.raises(DomainError):
                fn(0.5, n0)
