"""The reference oracles must stand on their own: validated against stdlib
libm, closed forms, self-consistency identities and brute-force summation."""

import math

import pytest

from conftest import grid
from gammaprod.errors import DomainError
from gammaprod.reference import (
    EULER_GAMMA,
    OracleConfig,
    _psi3,
    log_power_tail,
    power_tail,
    ref_digamma,
    ref_gamma,
    ref_log_gamma,
    ref_trigamma,
    ref_zeta,
    run_self_test,
)


def test_self_test_passes():
    run_self_test()
    run_self_test(OracleConfig(target_abs_error=1e-12))


def test_oracle_config_rejects_silly_tolerances():
    with pytest.raises(DomainError):
        OracleConfig(target_abs_error=1e-20)
    with pytest.raises(DomainError):
        OracleConfig(target_abs_error=1e-3)


def test_gamma_against_libm():
    # math.lgamma is an entirely separate implementation; 1e-13 covers both
    for x in grid(0.05, 50.0, 400):
        assert abs(ref_log_gamma(x) - math.lgamma(x)) <= 1e-13 * max(1.0, abs(math.lgamma(x)))


def test_gamma_anchors():
    assert ref_gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-14)
    assert ref_gamma(0.25) == pytest.approx(3.6256099082219083, rel=1e-13)
    assert ref_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert ref_gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert ref_gamma(5.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_recurrence_self_consistency():
    for x in grid(0.05, 50.0, 500):
        lhs = ref_gamma(x + 1.0)
        assert abs(lhs - x * ref_gamma(x)) <= 1e-13 * lhs


def test_gamma_reflection_self_consistency():
    for x in grid(0.02, 0.98, 97):
        prod = ref_gamma(x) * ref_gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert abs(prod - 1.0) <= 1e-12


def test_digamma_anchors():
    assert ref_digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert ref_digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)
    assert ref_digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)


def test_trigamma_anchors():
    assert ref_trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-13)
    assert ref_trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)


def test_digamma_is_derivative_of_log_gamma():
    h = 1e-5
    for x in grid(0.4, 30.0, 50):
        fd = (ref_log_gamma(x + h) - ref_log_gamma(x - h)) / (2.0 * h)
        assert abs(fd - ref_digamma(x)) <= 1e-6


def test_trigamma_is_derivative_of_digamma():
    h = 1e-5
    for x in grid(0.4, 30.0, 50):
        fd = (ref_digamma(x + h) - ref_digamma(x - h)) / (2.0 * h)
        assert abs(fd - ref_trigamma(x)) <= 1e-6


def test_digamma_difference_matches_partial_fraction_sum():
    # psi(1) - psi(1/2) as a 1e6-term sum of 1/(1/2+k) - 1/(1+k) plus an
    # Euler-Maclaurin remainder for the dropped tail of 0.5/((k+0.5)(k+1))
    K = 1_000_000
    s = math.fsum(1.0 / (0.5 + k) - 1.0 / (1.0 + k) for k in range(K))
    a = float(K)
    # integral of 0.5/((x+0.5)(x+1)) from a to inf, plus h(a)/2 - h'(a)/12
    integral = math.log((a + 1.0) / (a + 0.5))
    h_a = 1.0 / (a + 0.5) - 1.0 / (a + 1.0)
    hp_a = -1.0 / (a + 0.5) ** 2 + 1.0 / (a + 1.0) ** 2
    tail = integral + 0.5 * h_a - hp_a / 12.0
    assert abs((s + tail) - (ref_digamma(1.0) - ref_digamma(0.5))) <= 1e-9


def test_psi3_matches_series():
    # psi'''(x) = 6 sum (x+j)^-4
    for x in (0.3, 1.0, 2.7):
        brute = 6.0 * math.fsum((x + j) ** -4 for j in range(200_000))
        assert _psi3(x) == pytest.approx(brute, rel=1e-10)


def test_zeta_values():
    assert ref_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert ref_zeta(1.5) == pytest.approx(2.6123753486854883, abs=1e-12)
    # brute force with Euler-Maclaurin remainder at 1e6 terms
    s = 1.1
    brute = math.fsum(n ** (-s) for n in range(1, 1_000_001)) + power_tail(s, 1_000_000)
    assert ref_zeta(1.1) == pytest.approx(brute, abs=1e-11)


def test_power_tail_matches_brute_force():
    # direct summation to N, then re-expanding the remainder at N: the two
    # Euler-Maclaurin anchor points must agree through the summed block
    for s, n0 in ((1.5, 50), (2.25, 10), (3.05, 100)):
        N = 500_000
        brute = math.fsum(n ** (-s) for n in range(n0 + 1, N + 1)) + power_tail(s, N)
        assert power_tail(s, n0) == pytest.approx(brute, rel=1e-10)


def test_log_power_tail_matches_brute_force():
    for s, n0 in ((1.5, 100), (2.25, 50)):
        N = 500_000
        brute = math.fsum(math.log(n) * n ** (-s) for n in range(n0 + 1, N + 1)) + log_power_tail(s, N)
        assert log_power_tail(s, n0) == pytest.approx(brute, rel=1e-9)


def test_domain_errors():
    for fn in (ref_gamma, ref_log_gamma, ref_digamma, ref_trigamma):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.3)
    with pytest.raises(DomainError):
        ref_zeta(1.0)
    with pytest.raises(DomainError):
        ref_zeta(2.5)


def _lanczos_loop(x: float) -> float:
    """ln Gamma(x) exactly as the oracle's Lanczos sum was first written, as a
    loop over the coefficients; the oracle must stay bit-identical to it."""
    from gammaprod.reference import _LANCZOS_C, _LANCZOS_G, _LN_SQRT_2PI

    w, log_shift = (x, math.log(x)) if x < 0.5 else (x - 1.0, 0.0)
    base = w + _LANCZOS_G + 0.5
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (w + i)
    return _LN_SQRT_2PI + (w + 0.5) * math.log(base) - base + math.log(s) - log_shift


def test_log_gamma_is_bit_identical_to_the_loop_form():
    import random

    rng = random.Random(20071202)
    xs = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(40000)]
    xs += [rng.uniform(1e-3, 4.0) for _ in range(5000)] + [0.5, 1.0, 2.0, 1e-300, 1e300]
    for x in xs:
        assert ref_log_gamma(x) == _lanczos_loop(x), x
