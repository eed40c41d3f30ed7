"""Joint-factor product: truncates, monotone bracketing, tail correction,
series route, and the truncation policy."""

import dataclasses
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid
from gammaprod.bounds import app1_bounds, app7_ball_ratio, app7_bounds, app9_refined, uniform_grid, verify_suite
from gammaprod.errors import DomainError
from gammaprod.jointfactor import (
    Estimate,
    JointFactorSpec,
    TruncationPolicy,
    joint_factor,
    joint_factor_bracket,
    joint_factor_series,
    log_head,
    log_partial_product,
    truncate,
)
from gammaprod import coeffs, gamma, identities, jointfactor
from gammaprod.polygamma import digamma, digamma_series_raw, trigamma, zeta_tail
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
    for x in grid(0.1, 2.9, 15):
        for b in grid(0.05, 0.95, 8):
            spec = JointFactorSpec(x, b)
            lower, upper = joint_factor_bracket(spec, 200)
            assert lower <= oracle_f(x, b) <= upper
            assert lower <= joint_factor(spec).value <= upper


def mp_f(x: float, b: float):
    """f(x, b) at the exact doubles x and b, to 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.mp.workdps(50):
        xs, bs = mpmath.mpf(x), mpmath.mpf(b)
        return mpmath.exp(mpmath.loggamma(xs + bs) + mpmath.loggamma(1 - bs) - mpmath.loggamma(xs))


def _bracket_draws():
    # 600 draws per m from one stream: x log-uniform in [1e-3, 1e3], b in [1e-12, 0.99]
    rng = random.Random(17)
    for m in (1, 10, 10**3, 10**6, 10**9, 2**53):
        for _ in range(600):
            yield 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-12, math.log10(0.99)), m


def test_bracket_holds_against_mpmath():
    # without its rounding budget the bracket missed 36, 211, 416 and 569 of
    # these at m = 10^3, 10^6, 10^9 and 2^53, by up to 9.2e-16 relative
    misses = []
    for x, b, m in _bracket_draws():
        lower, upper = joint_factor_bracket(JointFactorSpec(x, b), m)
        if not lower <= mp_f(x, b) <= upper:
            misses.append((x, b, m))
    assert misses == []


@settings(max_examples=150, deadline=None)
@given(
    x=st.floats(min_value=1e-300, max_value=1e6),
    b=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    m=st.integers(min_value=1, max_value=2**53),
)
def test_bracket_holds_over_the_whole_domain(x, b, m):
    lower, upper = joint_factor_bracket(JointFactorSpec(x, b), m)
    assert lower <= mp_f(x, b) <= upper


def test_bracket_is_exact_at_b_zero_and_widened_elsewhere():
    assert joint_factor_bracket(JointFactorSpec(0.73, 0.0), 5) == (1.0, 1.0)
    lower, upper = joint_factor_bracket(JointFactorSpec(0.5, 0.5), 5)  # f = 1, summed as logs
    assert lower < 1.0 < upper and upper - lower < 1e-14
    with pytest.raises(DomainError, match=r"\[1, 2\^53\]"):
        joint_factor_bracket(JointFactorSpec(0.3, 0.2), 0)


@pytest.mark.parametrize("x, b", [(0.1, 0.9), (2.093329357463195e-16, 0.9999999999999999)])
def test_factors_beside_the_unit_line(x, b):
    # x + b rounds to 1, so c = b (x+b-1) rounds to 0, but the first factor
    # x / [(1-b)(x+b)] is not 1: it is 1.886 at the second point, the
    # difference of two logs near -36.7, each rounded
    f = mp_f(x, b)
    spec = JointFactorSpec(x, b)
    assert abs(joint_factor(spec).value - f) <= 1e-14 * f
    lower, upper = joint_factor_bracket(spec, 1000)
    assert lower <= f <= upper


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
    est = joint_factor(JointFactorSpec(x, b), TruncationPolicy(m=400))
    assert est.value == pytest.approx(math.exp(est.log_value), rel=1e-14)
    lower, upper = joint_factor_bracket(JointFactorSpec(x, b), 400)
    assert lower <= est.value <= upper
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


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(mode="nope")
    with pytest.raises(DomainError):
        TruncationPolicy(m=0)
    for gone in ("adaptive", "bracket"):  # the bracket is joint_factor_bracket
        with pytest.raises(DomainError):
            TruncationPolicy(mode=gone)
    assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["mode", "m"]
    assert [f.name for f in dataclasses.fields(Estimate)] == ["value", "log_value", "m_used"]
    # both modes cost O(10) at any m up to 2^53, beyond which m + 1 is not exact
    for mode in ("fixed", "tail_corrected"):
        assert TruncationPolicy(mode=mode, m=2**53).m == 2**53
        with pytest.raises(DomainError, match=r"\[1, 2\^53\]"):
            TruncationPolicy(mode=mode, m=2**53 + 1)


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


_HEAD_CASES = pytest.mark.parametrize(
    "c, u, v, roots",
    [
        (0.2 * (0.3 + 0.2 - 1.0), 0.8, 0.5, (1.0, 0.3, -0.2)),  # joint factor, shifted
        (0.6 * (1.0 - 2.5), 0.6, 1.5, (0.0, 2.1, 0.6)),  # Beta(2.5, 0.6)
        (-(0.3 - 0.5) ** 2, -0.5, -0.5, (-0.3, -0.7, -0.2)),  # sin(0.3 pi)
    ],
    ids=["joint", "beta", "sin"],
)


@pytest.mark.parametrize("m", [1, 9, 10, 11, 57, 1000, 123456])
@_HEAD_CASES
def test_log_head_is_the_summed_head(c, u, v, roots, m):
    # ten factors summed, the rest as a difference of exact tails: the same
    # number as summing every factor, up to the long sum's own rounding
    assert log_head(c, u, v, roots, m) == pytest.approx(log_partial_product(c, u, v, m), rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("m", [1, 9, 10, 11, 57, 1000, 123456])
@_HEAD_CASES
def test_log_head_with_tail_is_the_whole_product(c, u, v, roots, m):
    # prod_{k>=1} (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)]
    #   = Gamma(1+r1+d) Gamma(1+r2-d) / [Gamma(1+r1) Gamma(1+r2)],
    # up to the Stirling remainder of the tail after ten factors, whatever m is
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    r1, r2, d = (mp.mpf(r) for r in roots)
    want = float(mp.loggamma(1 + r1 + d) + mp.loggamma(1 + r2 - d) - mp.loggamma(1 + r1) - mp.loggamma(1 + r2))
    # the first omitted Stirling term, |B_18| / (18 * 17) z^-17, at each of
    # the tail's four ln Gamma arguments z = 11 + a
    remainder = float(43867 / 244188 * sum((11 + a) ** -17 for a in (r1, r1 + d, r2, r2 - d)))
    assert abs(log_head(c, u, v, roots, m, tail=True) - want) <= remainder + 1e-14 * abs(want) + 1e-16


@pytest.mark.parametrize("x, b", [(0.3, 0.2), (1e-300, 0.5), (2.5, 0.9), (1e6, 0.01), (0.01, 0.99)])
def test_tail_modes_evaluate_one_product_whatever_m(x, b):
    # tail mode is the first factor, ten shifted factors and the exact tail
    # after them, so m changes no bit
    spec = JointFactorSpec(x, b)
    logs = {
        joint_factor(spec, TruncationPolicy(mode="tail_corrected", m=m)).log_value
        for m in (*range(1, 12), 1000, 10**7, 10**9, 2**53)
    }
    assert len(logs) == 1


def test_no_head_sums_more_than_ten_factors(monkeypatch):
    longest = []

    def recording(c, u, v, m):
        longest.append(m)
        return log_partial_product(c, u, v, m)

    monkeypatch.setattr(jointfactor, "log_partial_product", recording)
    gamma.clear_factor_cache()
    spec = JointFactorSpec(0.3, 0.2)
    for mode in ("fixed", "tail_corrected"):
        joint_factor(spec, TruncationPolicy(mode=mode, m=10**6))
    truncate(spec, 10**9)
    joint_factor_bracket(spec, 10**9)
    gamma.beta(2.5, 0.6, TruncationPolicy(mode="fixed", m=10**6))
    gamma.beta_partial(2.5, 0.6, 10**6)
    gamma.gamma_rational(gamma.RationalArgument(5, 12), TruncationPolicy(m=1000))
    for product in (identities.sin_product, identities.tan_product, identities.pow2_product):
        product(0.3, 10**6)
    gamma.clear_factor_cache()
    assert longest and max(longest) <= 10


def test_truncate_cost_does_not_grow_with_m():
    spec = JointFactorSpec(0.3, 0.2)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        truncate(spec, 10**9)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


@pytest.mark.parametrize("x", [1e-20, 1e-300, 1.5e-208])
@pytest.mark.parametrize("m", [1, 2, 1000])
def test_tiny_x_first_factor(x, m):
    # f_1 = x / [(1-b)(x+b)]: its log is taken directly, never as log1p(c/D_1)
    # with c/D_1 rounded to -1
    b = 0.032
    assert truncate(JointFactorSpec(x, b), 1) == pytest.approx(x / ((1.0 - b) * (x + b)), rel=1e-15)
    lower, upper = joint_factor_bracket(JointFactorSpec(x, b), m)
    assert 0.0 < lower <= upper
    assert math.isfinite(joint_factor(JointFactorSpec(x, b), TruncationPolicy(m=m)).log_value)


def test_overflow_is_a_domain_error():
    spec = JointFactorSpec(1e300, 0.9999999999999999)  # f ~ 1e316
    with pytest.raises(DomainError, match="overflow"):
        joint_factor(spec, TruncationPolicy(m=1000))
    with pytest.raises(DomainError, match="overflow"):
        joint_factor_bracket(spec, 1000)


_HALF_THIRD = JointFactorSpec(0.3, 0.5)


_ROOTS = (1.0, 0.3, -0.5)  # shifted_product's check comes before it reads them


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: truncate(_HALF_THIRD, 2.0), "m must be an int, got 2.0", id="truncate-float"),
    pytest.param(lambda: truncate(_HALF_THIRD, True), "m must be an int, got True", id="truncate-bool"),
    pytest.param(lambda: joint_factor_bracket(_HALF_THIRD, 2.0), "m must be an int, got 2.0", id="bracket-float"),
    pytest.param(lambda: joint_factor_bracket(_HALF_THIRD, True), "m must be an int, got True", id="bracket-bool"),
    pytest.param(lambda: joint_factor(_HALF_THIRD, TruncationPolicy(mode="fixed", m=2.5)), "m must be an int, got 2.5",
                 id="joint_factor-float"),
    pytest.param(lambda: TruncationPolicy(m=2.5), "m must be an int, got 2.5", id="policy-float"),
    pytest.param(lambda: TruncationPolicy(m=True), "m must be an int, got True", id="policy-bool"),
    pytest.param(lambda: jointfactor.shifted_product(1.0, 0.1, 0.5, 0.5, _ROOTS, 3.0, False), "m must be an int, got 3.0",
                 id="shifted_product-float"),
    pytest.param(lambda: jointfactor.shifted_product(1.0, 0.1, 0.5, 0.5, _ROOTS, True, False), "m must be an int, got True",
                 id="shifted_product-bool"),
    pytest.param(lambda: verify_suite("app7", m=2.0), "m must be an int, got 2.0", id="verify_suite-float"),
    pytest.param(lambda: verify_suite("app7", m=True), "m must be an int, got True", id="verify_suite-bool"),
    pytest.param(lambda: app9_refined(0.3, 2.0), "m must be an int, got 2.0", id="app9_refined-float"),
    pytest.param(lambda: app9_refined(0.3, 1.0), "m must be an int, got 1.0", id="app9_refined-one-float"),
    pytest.param(lambda: app9_refined(0.3, True), "m must be an int, got True", id="app9_refined-bool"),
    pytest.param(lambda: app7_bounds(3, 5, 2.0), "m must be an int, got 2.0", id="app7_bounds-m-float"),
    pytest.param(lambda: app7_bounds(3, 5, True), "m must be an int, got True", id="app7_bounds-m-bool"),
    pytest.param(lambda: app7_bounds(3, 2.0, 5), "s must be an int, got 2.0", id="app7_bounds-s-float"),
    pytest.param(lambda: app7_bounds(3, True, 5), "s must be an int, got True", id="app7_bounds-s-bool"),
    pytest.param(lambda: app7_bounds(2.5, 5, 5), "n must be an int, got 2.5", id="app7_bounds-n-float"),
    pytest.param(lambda: app7_bounds(True, 5, 5), "n must be an int, got True", id="app7_bounds-n-bool"),
    pytest.param(lambda: app7_ball_ratio(2.5), "n must be an int, got 2.5", id="app7_ball_ratio-float"),
    pytest.param(lambda: app7_ball_ratio(True), "n must be an int, got True", id="app7_ball_ratio-bool"),
    pytest.param(lambda: digamma(0.3, 20.5), "n0 must be an int, got 20.5", id="digamma-float"),
    pytest.param(lambda: digamma(0.3, True), "n0 must be an int, got True", id="digamma-bool"),
    pytest.param(lambda: trigamma(0.3, 10.0), "n0 must be an int, got 10.0", id="trigamma-float"),
    pytest.param(lambda: trigamma(0.3, True), "n0 must be an int, got True", id="trigamma-bool"),
    pytest.param(lambda: zeta_tail(0.3, 10.0), "n0 must be an int, got 10.0", id="zeta_tail-float"),
    pytest.param(lambda: zeta_tail(0.3, True), "n0 must be an int, got True", id="zeta_tail-bool"),
    pytest.param(lambda: digamma_series_raw(0.3, 5.0), "N must be an int, got 5.0", id="digamma_series_raw-float"),
    pytest.param(lambda: digamma_series_raw(0.3, True), "N must be an int, got True", id="digamma_series_raw-bool"),
    pytest.param(lambda: coeffs.g_sequence(0.5, 0.3, 5.0), "N must be an int, got 5.0", id="g_sequence-float"),
    pytest.param(lambda: coeffs.g_sequence(0.5, 0.3, True), "N must be an int, got True", id="g_sequence-bool"),
    pytest.param(lambda: coeffs.g_sequence_oracle(0.5, 0.3, 5.0), "N must be an int, got 5.0", id="g_sequence_oracle-float"),
    pytest.param(lambda: coeffs.g_sequence_oracle(0.5, 0.3, True), "N must be an int, got True",
                 id="g_sequence_oracle-bool"),
    pytest.param(lambda: joint_factor_series(_HALF_THIRD, 5.0), "N must be an int, got 5.0", id="joint_factor_series-float"),
    pytest.param(lambda: joint_factor_series(_HALF_THIRD, True), "N must be an int, got True", id="joint_factor_series-bool"),
    pytest.param(lambda: coeffs.h_sequence(0.3, 5.0), "N must be an int, got 5.0", id="h_sequence-float"),
    pytest.param(lambda: coeffs.h_sequence(0.3, True), "N must be an int, got True", id="h_sequence-bool"),
    pytest.param(lambda: coeffs.h_closed(5.0, 0.3), "n must be an int, got 5.0", id="h_closed-float"),
    pytest.param(lambda: coeffs.h_closed(True, 0.3), "n must be an int, got True", id="h_closed-bool"),
    pytest.param(lambda: coeffs.pochhammer(0.3, 5.0), "n must be an int, got 5.0", id="pochhammer-float"),
    pytest.param(lambda: coeffs.pochhammer(0.3, True), "n must be an int, got True", id="pochhammer-bool"),
    pytest.param(lambda: identities.quarter_partials(5.0), "m must be an int, got 5.0", id="quarter_partials-float"),
    pytest.param(lambda: identities.quarter_partials(True), "m must be an int, got True", id="quarter_partials-bool"),
    pytest.param(lambda: identities.gamma_quarter_squared(5.0), "m must be an int, got 5.0",
                 id="gamma_quarter_squared-float"),
    pytest.param(lambda: identities.gamma_quarter_squared(True), "m must be an int, got True",
                 id="gamma_quarter_squared-bool"),
    pytest.param(lambda: uniform_grid(0.1, 0.9, 5.0), "points must be an int, got 5.0", id="uniform_grid-float"),
    pytest.param(lambda: uniform_grid(0.1, 0.9, True), "points must be an int, got True", id="uniform_grid-bool"),
    pytest.param(lambda: verify_suite("app5", points=5.0), "points must be an int, got 5.0", id="verify_suite-points-float"),
    pytest.param(lambda: verify_suite("app5", points=True), "points must be an int, got True", id="verify_suite-points-bool"),
    pytest.param(lambda: gamma.RationalArgument(1.0, 3), "q must be an int, got 1.0", id="RationalArgument-q-float"),
    pytest.param(lambda: gamma.RationalArgument(True, 3), "q must be an int, got True", id="RationalArgument-q-bool"),
    pytest.param(lambda: gamma.RationalArgument(1, 3.0), "p must be an int, got 3.0", id="RationalArgument-p-float"),
    pytest.param(lambda: gamma.RationalArgument(1, True), "p must be an int, got True", id="RationalArgument-p-bool"),
    pytest.param(lambda: gamma.gamma_inv_p_pow(7.0), "p must be an int, got 7.0", id="gamma_inv_p_pow-float"),
    pytest.param(lambda: gamma.gamma_inv_p_pow(True), "p must be an int, got True", id="gamma_inv_p_pow-bool"),
    pytest.param(lambda: app1_bounds(5.0), "p must be an int, got 5.0", id="app1_bounds-float"),
    pytest.param(lambda: app1_bounds(True), "p must be an int, got True", id="app1_bounds-bool"),
])
def test_a_head_length_that_is_not_an_int_is_a_domain_error(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
