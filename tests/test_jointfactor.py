"""Joint-factor product: truncates, monotone bracketing, tail correction,
series route, and the adaptive policy."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid
from gammaprod.errors import ConvergenceError, DomainError
from gammaprod.jointfactor import (
    Estimate,
    JointFactorSpec,
    TruncationPolicy,
    joint_factor,
    joint_factor_series,
    truncate,
)
from gammaprod.reference import ref_log_gamma


def oracle_f(x: float, b: float) -> float:
    return math.exp(ref_log_gamma(x + b) + ref_log_gamma(1.0 - b) - ref_log_gamma(x))


def test_truncate_small_orders():
    spec = JointFactorSpec(1.0 / 3.0, 1.0 / 3.0)
    assert truncate(spec, 1) == pytest.approx(0.75, rel=1e-15)
    assert truncate(spec, 2) == pytest.approx(0.72, rel=1e-15)


def test_truncate_is_exactly_one_on_vanishing_line():
    assert truncate(JointFactorSpec(0.6, 0.4), 100) == 1.0
    assert truncate(JointFactorSpec(0.5, 0.5), 7) == 1.0


def test_monotone_truncation_three_branches():
    # sigma > 0: strictly decreasing over-estimates
    spec = JointFactorSpec(0.3, 0.2)
    f_true = oracle_f(0.3, 0.2)
    prev = math.inf
    for m in range(1, 60):
        fm = truncate(spec, m)
        assert fm < prev
        assert fm > f_true
        prev = fm
    # sigma < 0: strictly increasing under-estimates
    spec = JointFactorSpec(1.7, 0.6)
    f_true = oracle_f(1.7, 0.6)
    prev = 0.0
    for m in range(1, 60):
        fm = truncate(spec, m)
        assert fm > prev
        assert fm < f_true
        prev = fm
    # sigma = 0: identically one
    spec = JointFactorSpec(0.6, 0.4)
    assert all(truncate(spec, m) == 1.0 for m in (1, 5, 33))
    assert spec.sigma == 0.0


def test_sigma_sign():
    assert JointFactorSpec(0.3, 0.2).sigma == 1.0
    assert JointFactorSpec(1.7, 0.6).sigma == -1.0


def test_known_values():
    est = joint_factor(JointFactorSpec(1.0 / 3.0, 1.0 / 3.0))
    assert est.value == pytest.approx(0.6844634059797257, rel=1e-12)
    est = joint_factor(JointFactorSpec(0.25, 0.5))
    assert est.value == pytest.approx(0.5990701173677961, rel=1e-12)


def test_degenerate_cases():
    est = joint_factor(JointFactorSpec(0.5, 0.5))
    assert est.value == 1.0
    est = joint_factor(JointFactorSpec(0.73, 0.0))
    assert est.value == 1.0
    assert est.m_used == 0


def test_tail_corrected_matches_oracle_on_grid():
    policy = TruncationPolicy(mode="tail_corrected", m=1000)
    for x in grid(0.1, 2.9, 20):
        for b in grid(0.05, 0.95, 10):
            est = joint_factor(JointFactorSpec(x, b), policy)
            f = oracle_f(x, b)
            assert abs(est.value - f) <= 1e-9 * f


def test_raw_truncation_is_only_roughly_right():
    # the same grid with no tail correction only reaches ~1e-3
    policy = TruncationPolicy(mode="fixed", m=1000)
    worst = 0.0
    for x in grid(0.1, 2.9, 10):
        for b in grid(0.05, 0.95, 5):
            est = joint_factor(JointFactorSpec(x, b), policy)
            f = oracle_f(x, b)
            worst = max(worst, abs(est.value - f) / f)
    assert 1e-4 < worst < 1e-2


def test_bracket_contains_oracle():
    policy = TruncationPolicy(mode="bracket", m=200)
    for x in grid(0.1, 2.9, 15):
        for b in grid(0.05, 0.95, 8):
            est = joint_factor(JointFactorSpec(x, b), policy)
            f = oracle_f(x, b)
            assert est.lower <= f <= est.upper
            assert est.lower <= est.value <= est.upper


def test_tail_accuracy_across_the_quotient_switch():
    # accuracy must not cliff as the gap |x+2b-1| between the denominator
    # offsets -b and x+b-1 passes 0.5
    policy = TruncationPolicy(mode="tail_corrected", m=400)
    for x in (0.3, 0.9, 1.4):
        for delta in (-0.501, -0.499, -0.25, 0.0, 0.25, 0.499, 0.501):
            b = (1.0 + delta - x) / 2.0
            if not 0.01 < b < 0.99:
                continue
            est = joint_factor(JointFactorSpec(x, b), policy)
            f = oracle_f(x, b)
            assert abs(est.value - f) <= 1e-11 * f, (x, b, delta)


def test_raw_truncation_error_scales_like_one_over_m():
    spec = JointFactorSpec(1.0 / 3.0, 1.0 / 3.0)
    f = oracle_f(1.0 / 3.0, 1.0 / 3.0)
    errs = [abs(truncate(spec, m) - f) for m in (100, 1000, 10000)]
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.05)


def test_symmetry_identity():
    # f(x,b) sin(pi b) = f(b,x) sin(pi x) on (0,1)^2
    policy = TruncationPolicy(mode="tail_corrected", m=1000)
    for x in grid(0.1, 0.9, 9):
        for b in grid(0.15, 0.85, 8):
            fxb = joint_factor(JointFactorSpec(x, b), policy).value
            fbx = joint_factor(JointFactorSpec(b, x), policy).value
            lhs = fxb * math.sin(math.pi * b)
            rhs = fbx * math.sin(math.pi * x)
            assert abs(lhs - rhs) <= 1e-9 * fxb


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.05, max_value=3.0), b=st.floats(min_value=0.0, max_value=0.95))
def test_estimate_invariants_property(x, b):
    est = joint_factor(JointFactorSpec(x, b), TruncationPolicy(mode="bracket", m=400))
    assert est.value == pytest.approx(math.exp(est.log_value), rel=1e-14)
    assert est.lower <= est.value <= est.upper
    assert abs(est.value - oracle_f(x, b)) <= 1e-9 * abs(oracle_f(x, b))


def test_series_examples():
    assert joint_factor_series(JointFactorSpec(0.5, 0.5), 50) == 1.0
    # slow one-sided convergence toward the true value
    f = oracle_f(1.0 / 3.0, 1.0 / 3.0)
    vals = [joint_factor_series(JointFactorSpec(1.0 / 3.0, 1.0 / 3.0), n) for n in (50, 200, 1000)]
    assert vals[0] > vals[1] > vals[2] > f
    # fast setting: agreement with the corrected product
    series = joint_factor_series(JointFactorSpec(0.9, 0.05), 1000)
    assert series == pytest.approx(oracle_f(0.9, 0.05), rel=1e-3)


def test_series_product_agreement_where_series_converges():
    # N^-x decay needs either large x or a small series constant; this set
    # keeps the N = 1000 truncation below the 1e-3 target
    policy = TruncationPolicy(mode="tail_corrected", m=1000)
    for x, b in ((0.9, 0.05), (0.9, 0.35), (0.9, 0.6), (1.3, 0.5), (2.0, 0.8), (2.9, 0.25)):
        series = joint_factor_series(JointFactorSpec(x, b), 1000)
        product = joint_factor(JointFactorSpec(x, b), policy).value
        assert series == pytest.approx(product, rel=1e-3)


def test_adaptive_mode():
    est = joint_factor(JointFactorSpec(0.25, 0.5), TruncationPolicy(mode="adaptive", m=16, tol=1e-6))
    assert est.tail_corrected
    assert abs(est.value - oracle_f(0.25, 0.5)) <= 1e-8
    # the stopping rule is the exact tail's remainder bound, so a tight tol
    # needs only a short head
    est = joint_factor(JointFactorSpec(0.25, 0.5), TruncationPolicy(mode="adaptive", m=16, tol=1e-12, m_max=32))
    assert est.m_used == 16
    assert abs(est.value - oracle_f(0.25, 0.5)) <= 1e-12 * oracle_f(0.25, 0.5)
    # truly infeasible: a one-factor head leaves a Stirling remainder far above tol
    with pytest.raises(ConvergenceError):
        joint_factor(JointFactorSpec(0.25, 0.5), TruncationPolicy(mode="adaptive", m=1, tol=1e-12, m_max=1))


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(mode="nope")
    with pytest.raises(DomainError):
        TruncationPolicy(m=0)
    with pytest.raises(DomainError):
        TruncationPolicy(tol=2.0)
    with pytest.raises(DomainError):
        TruncationPolicy(m=100, m_max=10)


def test_spec_validation():
    with pytest.raises(DomainError):
        JointFactorSpec(0.0, 0.5)
    with pytest.raises(DomainError):
        JointFactorSpec(math.inf, 0.5)
    with pytest.raises(DomainError):
        JointFactorSpec(1.0, 1.0)
    with pytest.raises(DomainError):
        JointFactorSpec(1.0, -0.2)
    with pytest.raises(DomainError):
        truncate(JointFactorSpec(1.0, 0.5), 0)
    with pytest.raises(DomainError):
        joint_factor_series(JointFactorSpec(1.0, 0.5), 0)
