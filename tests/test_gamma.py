"""Rational Gamma values, ratios, duplication, negative arguments and Beta."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduced_pairs
from gammaprod.errors import DomainError
from gammaprod.gamma import (
    RationalArgument,
    _factor_log,
    beta,
    beta_partial,
    gamma_duplication,
    gamma_inv_p_pow,
    gamma_negative,
    gamma_ratio,
    gamma_rational,
    log_c_constant,
)
from gammaprod.jointfactor import JointFactorSpec, TruncationPolicy, joint_factor
from gammaprod.reference import ref_gamma, ref_log_gamma

SQRT_PI = math.sqrt(math.pi)


def test_rational_argument_reduces():
    arg = RationalArgument(6, 8)
    assert (arg.q, arg.p) == (3, 4)
    assert RationalArgument(3, 3).value == 1.0
    with pytest.raises(DomainError):
        RationalArgument(0, 3)
    with pytest.raises(DomainError):
        RationalArgument(2, 0)


def test_gamma_one_and_half_anchors():
    assert gamma_rational(RationalArgument(3, 3)).value == 1.0
    assert gamma_rational(RationalArgument(2, 4)).value == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma_rational(RationalArgument(1, 2)).method == "exact"
    assert gamma_rational(RationalArgument(1, 1)).method == "exact"


def test_gamma_rational_rejects_arguments_above_one():
    with pytest.raises(DomainError):
        gamma_rational(RationalArgument(5, 3))


def test_known_rational_values():
    assert gamma_rational(RationalArgument(1, 3)).value == pytest.approx(2.6789385347077476, rel=1e-10)
    assert gamma_rational(RationalArgument(1, 4)).value == pytest.approx(3.6256099082219083, rel=1e-10)
    assert gamma_rational(RationalArgument(1, 3)).method == "lemma31"
    assert gamma_rational(RationalArgument(2, 3)).method == "theorem31"


def test_matches_reference_for_all_reduced_fractions():
    for q, p in reduced_pairs(12):
        got = gamma_rational(RationalArgument(q, p)).value
        want = ref_gamma(q / p)
        assert abs(got - want) <= 1e-8 * want, (q, p)


def test_gamma_value_internal_consistency():
    for q, p in ((1, 3), (3, 7), (5, 12), (7, 11)):
        gv = gamma_rational(RationalArgument(q, p))
        assert gv.value == pytest.approx(math.exp(gv.log_value), rel=1e-14)
        assert gv.value * gv.reciprocal == pytest.approx(1.0, rel=1e-14)
        table = _factor_log(p, TruncationPolicy())
        mu, v = table.mu[: q - 1], table.v
        assert len(mu) == q - 1 and len(v) == p - 2
        assert len(table.mu) == p - 2  # mu_{p-1} feeds no value
        rebuilt = log_c_constant(p, q) + math.fsum(mu) - (q / p) * math.fsum(v)
        assert rebuilt == pytest.approx(gv.log_value, abs=1e-13)


def test_gamma_inv_p_pow():
    assert gamma_inv_p_pow(3) == pytest.approx(ref_gamma(1.0 / 3.0) ** 3, rel=1e-9)
    assert gamma_inv_p_pow(4) == pytest.approx(ref_gamma(0.25) ** 4, rel=1e-9)
    got = gamma_inv_p_pow(3)
    via_gamma = gamma_rational(RationalArgument(1, 3)).value ** 3
    assert got == pytest.approx(via_gamma, rel=1e-12)
    with pytest.raises(DomainError):
        gamma_inv_p_pow(2)


def test_values_beyond_the_double_range_are_domain_errors():
    # Gamma(170) ~ 4.3e304 is the last Gamma(2x) below the range; [Gamma(1/p)]^p ~ p^p passes it at p = 144
    assert gamma_duplication(85.0) == pytest.approx(ref_gamma(170.0), rel=1e-12)
    assert gamma_inv_p_pow(143) == pytest.approx(math.exp(143 * ref_log_gamma(1.0 / 143.0)), rel=1e-12)
    with pytest.raises(DomainError):
        gamma_duplication(86.0)
    with pytest.raises(DomainError):
        gamma_inv_p_pow(144)


def test_reflection_invariant():
    for q, p in reduced_pairs(12):
        lhs = gamma_rational(RationalArgument(q, p)).value * gamma_rational(RationalArgument(p - q, p)).value
        rhs = math.pi / math.sin(math.pi * q / p)
        assert abs(lhs - rhs) <= 1e-9 * rhs, (q, p)


def test_duplication_consistency():
    for q, p in ((1, 3), (1, 4), (3, 5), (5, 8)):
        got = gamma_duplication(q / (2.0 * p))
        want = gamma_rational(RationalArgument(q, p)).value
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("x", [0.0, -0.0, -1.5, -math.inf])
def test_duplication_refuses_a_non_positive_x(x):
    with pytest.raises(DomainError) as err:
        gamma_duplication(x)
    assert str(err.value) == f"x must be positive, got {x}"


def test_duplication_examples():
    assert gamma_duplication(0.5) == pytest.approx(1.0, rel=1e-12)
    assert gamma_duplication(0.25) == pytest.approx(SQRT_PI, rel=1e-10)
    assert gamma_duplication(0.75) == pytest.approx(0.5 * SQRT_PI, rel=1e-10)


def test_gamma_ratio_examples():
    assert gamma_ratio(0.5, 0.5) == pytest.approx(1.0 / SQRT_PI, rel=1e-10)
    assert gamma_ratio(0.5, 0.0) == 1.0
    assert gamma_ratio(1.7, 0.3) == pytest.approx(1.0 / ref_gamma(1.7), rel=1e-9)
    # irrational shift falls back to the oracle anchor for Gamma(1-b)
    b = 1.0 / math.pi
    assert gamma_ratio(1.0, b) == pytest.approx(ref_gamma(1.0 + b), rel=1e-9)


def test_gamma_ratio_chain_associativity():
    for x in (0.4, 1.1, 2.3):
        chained = gamma_ratio(x, 0.3) * gamma_ratio(x + 0.3, 0.4)
        direct = gamma_ratio(x, 0.7)
        assert chained == pytest.approx(direct, rel=1e-9)


def test_gamma_negative():
    got = gamma_negative(RationalArgument(1, 3))
    assert got == pytest.approx(-3.0 * ref_gamma(2.0 / 3.0), rel=1e-9)
    assert gamma_negative(RationalArgument(1, 2)) == pytest.approx(-2.0 * SQRT_PI, rel=1e-12)
    with pytest.raises(DomainError):
        gamma_negative(RationalArgument(3, 3))


def test_negative_cube_reconstruction():
    # Gamma(-1/3)^3 against the constant forced by the p-th power identity:
    # [-1/sin(pi/3)]^3 (2 pi / 2^3) 3^4 f(1/3, 1/3)
    cube = gamma_negative(RationalArgument(1, 3)) ** 3
    f = joint_factor(JointFactorSpec(1.0 / 3.0, 1.0 / 3.0)).value
    want = (-1.0 / math.sin(math.pi / 3.0)) ** 3 * (2.0 * math.pi / 8.0) * 81.0 * f
    assert cube == pytest.approx(want, rel=1e-9)
    assert cube == pytest.approx(-67.03988169281115, rel=1e-9)


def test_beta_values():
    assert beta(1.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-10)
    # every tail mode sums ten factors, so a one-factor head is the whole product
    assert beta(0.5, 0.5, TruncationPolicy(m=1)) == pytest.approx(math.pi, rel=1e-15)
    want = math.exp(ref_log_gamma(0.5) + ref_log_gamma(1.0 / 3.0) - ref_log_gamma(5.0 / 6.0))
    assert beta(0.5, 1.0 / 3.0) == pytest.approx(want, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=0.05, max_value=0.95), y=st.floats(min_value=0.05, max_value=0.95))
def test_beta_symmetry_property(x, y):
    assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-9)


def test_beta_partial_is_monotone_toward_beta():
    # x < 1: increasing under-estimates; x > 1: decreasing over-estimates
    want = math.exp(ref_log_gamma(0.5) + ref_log_gamma(0.5) - ref_log_gamma(1.0))
    vals = [beta_partial(0.5, 0.5, m) for m in (1, 2, 5, 10, 100)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < want
    want = math.exp(ref_log_gamma(2.0) + ref_log_gamma(0.5) - ref_log_gamma(2.5))
    vals = [beta_partial(2.0, 0.5, m) for m in (1, 2, 5, 10, 100)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > want


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(0.0, 0.5)
    with pytest.raises(DomainError):
        beta(1.0, 1.0)
    with pytest.raises(DomainError):
        beta_partial(1.0, 0.5, 0)


def test_fixed_policy_beta_skips_tail():
    raw = beta(0.5, 0.5, TruncationPolicy(mode="fixed", m=50))
    assert raw == pytest.approx(beta_partial(0.5, 0.5, 50), rel=1e-15)
    assert raw != pytest.approx(math.pi, rel=1e-9)


def test_per_call_latency_budget():
    for q, p in reduced_pairs(12):
        t0 = time.perf_counter()
        gamma_rational(RationalArgument(q, p))
        assert time.perf_counter() - t0 < 0.1, (q, p)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(min_value=0.1, max_value=3.0), b=st.floats(min_value=0.0, max_value=0.9))
def test_gamma_ratio_matches_reference_property(x, b):
    want = math.exp(ref_log_gamma(x + b) - ref_log_gamma(x))
    assert gamma_ratio(x, b) == pytest.approx(want, rel=1e-9)


_TABLE_POLICIES = [TruncationPolicy(), TruncationPolicy(mode="fixed", m=1000), TruncationPolicy(mode="tail_corrected", m=37)]


@pytest.mark.parametrize("policy", _TABLE_POLICIES, ids=["default", "fixed-1000", "tail_corrected-37"])
def test_denominator_table_is_bit_identical_to_the_summed_factors(policy):
    # every value read from the per-denominator table equals the fsum of the
    # joint factors it stands for, formed here from joint_factor directly
    for p in range(3, 65):
        mu = tuple(joint_factor(JointFactorSpec(k / p, 1 / p), policy).log_value for k in range(1, p - 1))
        v = tuple(joint_factor(JointFactorSpec(1 / p, k / p), policy).log_value for k in range(1, p - 1))
        log_inv_p_pow = (p - 1) * math.log(2.0 * math.pi) - math.log(p) - math.fsum(v)
        assert gamma_inv_p_pow(p, policy) == math.exp(log_inv_p_pow), p
        table = _factor_log(p, policy)
        for q in range(1, p):
            if math.gcd(q, p) != 1:
                continue
            gv = gamma_rational(RationalArgument(q, p), policy)
            log_value = log_c_constant(p, q) + math.fsum(mu[: q - 1]) - (q / p) * math.fsum(v)
            assert gv.log_value == log_value, (q, p)
            assert gv.value == math.exp(log_value) and gv.reciprocal == math.exp(-log_value), (q, p)
            assert (table.mu[: q - 1], table.v) == (mu[: q - 1], v), (q, p)
            t = q / p
            want = -math.pi / (t * math.sin(math.pi * t) * math.exp(log_value))
            assert gamma_negative(RationalArgument(q, p), policy) == want, (q, p)


def test_one_table_per_denominator():
    from gammaprod.gamma import _factor_log, clear_factor_cache

    clear_factor_cache()
    for q, p in reduced_pairs(64):
        gamma_rational(RationalArgument(q, p))
    info = _factor_log.cache_info()
    assert info.misses == 62 and info.currsize == 62  # p = 3..64
    assert info.hits == len(reduced_pairs(64)) - 62
    clear_factor_cache()
    assert _factor_log.cache_info().currsize == 0


def test_warm_calls_share_one_value():
    arg = RationalArgument(5, 12)
    assert gamma_rational(arg) is gamma_rational(arg)
    assert gamma_rational(RationalArgument(2, 4)) is gamma_rational(RationalArgument(1, 2))


def test_table_denominator_cap():
    # p = 1024 fills its table; one past it is refused before any factor is formed
    assert gamma_rational(RationalArgument(1, 1024)).value == pytest.approx(ref_gamma(1 / 1024), rel=1e-12)
    t0 = time.perf_counter()
    for fill in (
        lambda: gamma_rational(RationalArgument(1, 1025)),
        lambda: gamma_rational(RationalArgument(1, 100003)),
        lambda: gamma_negative(RationalArgument(1, 100003)),
        lambda: gamma_inv_p_pow(1025),
    ):
        with pytest.raises(DomainError):
            fill()
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("x", [1.7, 0.01, 250.0])
def test_gamma_ratio_under_a_fixed_policy_is_continuous_across_fractions(x):
    # the policy governs f alone; Gamma(1-b) is one method at every b, so
    # a short fixed head moves the ratio by no more than b moves it
    policy = TruncationPolicy(mode="fixed", m=2)
    at = gamma_ratio(x, 1 / 3, policy)
    near = gamma_ratio(x, 1 / 3 + 1e-9, policy)
    assert abs(near - at) <= 1e-8 * at


def test_m_used_is_the_longest_factor_head():
    # every factor uses the policy's head, in both modes
    for mode in ("fixed", "tail_corrected"):
        for m in (1, 10, 1000, 2**53):
            assert gamma_rational(RationalArgument(3, 7), TruncationPolicy(mode=mode, m=m)).m_used == m
    assert gamma_rational(RationalArgument(1, 2)).m_used == 0  # exact anchor, no factors


_POLICY_ENTRY_POINTS = {
    "gamma_rational": lambda pol: gamma_rational(RationalArgument(5, 12), pol).value,
    "gamma_inv_p_pow": lambda pol: gamma_inv_p_pow(7, pol),
    "gamma_ratio": lambda pol: gamma_ratio(1.7, 0.3, pol),
    "gamma_duplication": lambda pol: gamma_duplication(2.3, pol),
    "gamma_negative": lambda pol: gamma_negative(RationalArgument(2, 5), pol),
    "beta": lambda pol: beta(2.5, 0.6, pol),
}


@pytest.mark.parametrize("mode", ["tail_corrected"])
@pytest.mark.parametrize("name", list(_POLICY_ENTRY_POINTS))
def test_a_tail_mode_gives_one_number_at_every_entry_point(name, mode):
    # tail mode sums ten factors and the exact tail after them, so m moves
    # no bit of any value a policy reaches
    values = {_POLICY_ENTRY_POINTS[name](TruncationPolicy(mode=mode, m=m)) for m in (1, 10, 1000, 2**53)}
    assert len(values) == 1, values


def test_rational_path_is_thread_safe():
    # concurrent calls hit the shared factor-log memo; results must be
    # identical to the serial ones
    from concurrent.futures import ThreadPoolExecutor

    from gammaprod.gamma import clear_factor_cache

    clear_factor_cache()
    pairs = reduced_pairs(9) * 4
    serial = [gamma_rational(RationalArgument(q, p)).value for q, p in pairs]
    clear_factor_cache()
    with ThreadPoolExecutor(max_workers=8) as ex:
        threaded = list(ex.map(lambda qp: gamma_rational(RationalArgument(*qp)).value, pairs))
    assert threaded == serial
