"""The reference oracles must stand on their own: validated against closed
forms, self-consistency identities and brute-force summation (and against
mpmath in test_referee.py)."""

import math

import pytest

from conftest import grid
from gammaprod.errors import DomainError
from gammaprod.reference import (
    EULER_GAMMA,
    _psi3,
    log_power_tail,
    power_tail,
    ref_digamma,
    ref_gamma,
    ref_log_gamma,
    ref_trigamma,
    ref_zeta,
)

_SQRT_PI = math.sqrt(math.pi)


@pytest.mark.parametrize(
    "got, want",
    [
        (lambda: ref_gamma(0.5), _SQRT_PI),
        (lambda: ref_gamma(1.0), 1.0),
        (lambda: ref_gamma(2.0), 1.0),
        (lambda: ref_gamma(1.5), 0.5 * _SQRT_PI),
        (lambda: ref_gamma(2.5), 0.75 * _SQRT_PI),
        (lambda: ref_digamma(1.0), -EULER_GAMMA),
        (lambda: ref_digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)),
        (lambda: ref_trigamma(0.5), math.pi * math.pi / 2.0),
        (lambda: ref_trigamma(1.0), math.pi * math.pi / 6.0),
        (lambda: ref_zeta(2.0), math.pi * math.pi / 6.0),
    ],
    ids=["gamma-0.5", "gamma-1", "gamma-2", "gamma-1.5", "gamma-2.5", "psi-1", "psi-0.5", "psi1-0.5", "psi1-1", "zeta-2"],
)
def test_closed_form_anchors(got, want):
    assert abs(got() - want) <= 1e-13 * max(1.0, abs(want))


def test_gamma_against_libm():
    # Gamma and ln Gamma are the C library's, bit for bit, wherever they are finite
    for x in grid(0.05, 50.0, 400) + [1e-300, 5e-324, 170.5, 1e300]:
        assert ref_log_gamma(x) == math.lgamma(x)
        if 1e-300 <= x < 171.0:
            assert ref_gamma(x) == math.gamma(x)


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
            fn(math.nan)
    # inf, and values beyond the double range: the stdlib's OverflowError is not let through
    for fn, x in ((ref_gamma, math.inf), (ref_log_gamma, math.inf), (ref_gamma, 172.0),
                  (ref_gamma, 1e-320), (ref_log_gamma, 1e308)):
        with pytest.raises(DomainError):
            fn(x)
    with pytest.raises(DomainError):
        ref_zeta(1.0)
    with pytest.raises(DomainError):
        ref_zeta(2.5)
