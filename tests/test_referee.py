"""Accuracy claims of the README, checked against mpmath at 40 digits.

mpmath shares no code with the product path or with gammaprod.reference,
so agreement here is evidence, not a restatement.  Samples are seeded and
the whole file runs in about five seconds.
"""

import math
import random

import pytest

from conftest import reduced_pairs
from gammaprod.gamma import RationalArgument, beta, gamma_negative, gamma_rational
from gammaprod.identities import pow2_product, sin_product, tan_product
from gammaprod.jointfactor import JointFactorSpec, TruncationPolicy, joint_factor, truncate
from gammaprod.polygamma import digamma, trigamma
from gammaprod.reference import ref_digamma, ref_log_gamma, ref_trigamma

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

DEFAULT = TruncationPolicy()
M1000 = TruncationPolicy(m=1000)
FIXED1000 = TruncationPolicy(mode="fixed", m=1000)
# the worst point of the seed-7 benchmark sequence under the psi tail (3.22e-15)
BOX_CORNER = (2.788787782760156, 0.942385595376211)


def rel_err(value: float, exact) -> float:
    return float(abs(mp.mpf(value) - exact) / abs(exact))


def f_exact(x: float, b: float):
    x, b = mp.mpf(x), mp.mpf(b)
    return mp.gamma(x + b) * mp.gamma(1 - b) / mp.gamma(x)


def log_fm_exact(x: float, b: float, m: int):
    """ln f_m = ln prod_{k<=m} k (x+k-1) / [(k-b)(x+k+b-1)] in closed form."""
    x, b = mp.mpf(x), mp.mpf(b)
    lg = mp.loggamma
    return lg(m + 1) + lg(m + x) + lg(1 - b) + lg(x + b) - lg(x) - lg(m + 1 - b) - lg(m + x + b)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_gamma_rational_every_fraction_up_to_64():
    # exhaustive: all 1258 reduced q/p with 3 <= p <= 64, at the default head
    worst_small = worst_large = 0.0
    fractions = reduced_pairs(64)
    assert len(fractions) == 1258
    for q, p in fractions:
        err = rel_err(gamma_rational(RationalArgument(q, p), DEFAULT).value, mp.gamma(mp.mpf(q) / p))
        if p <= 12:
            worst_small = max(worst_small, err)
        else:
            worst_large = max(worst_large, err)
    # measured: 2.34e-15 (p <= 12) and 5.06e-14 (p > 12)
    assert worst_small <= 2.5e-15
    assert worst_large <= 6e-14


def test_gamma_negative_every_fraction_up_to_64():
    worst = max(
        rel_err(gamma_negative(RationalArgument(q, p), DEFAULT), mp.gamma(-mp.mpf(q) / p))
        for q, p in reduced_pairs(64)
    )
    assert worst <= 6e-14  # measured 4.67e-14


def box_points(n: int = 2000):
    rng = random.Random(20070)
    return [(rng.uniform(0.1, 2.9), rng.uniform(0.05, 0.95)) for _ in range(n)] + [BOX_CORNER]


def off_box_points(lo: float, hi: float, n: int = 2000):
    rng = random.Random(20074)
    points = []
    while len(points) < n:
        x, b = log_uniform(rng, lo, hi), rng.uniform(1e-6, 1.0 - 1e-6)
        if not (0.1 <= x <= 2.9 and 0.05 <= b <= 0.95):
            points.append((x, b))
    return points


@pytest.mark.parametrize("policy", [DEFAULT, M1000], ids=["default_m", "m1000"])
def test_joint_factor_on_readme_box(policy):
    worst = max(rel_err(joint_factor(JointFactorSpec(x, b), policy).value, f_exact(x, b)) for x, b in box_points())
    assert worst <= 3e-15


def test_fixed_truncate_at_m1000_on_readme_box():
    # f_m itself, ten factors summed and the other 990 as a difference of exact tails
    worst = max(
        rel_err(joint_factor(JointFactorSpec(x, b), FIXED1000).value, mp.exp(log_fm_exact(x, b, 1000)))
        for x, b in box_points()
    )
    assert worst <= 3e-15


@pytest.mark.parametrize("policy", [M1000, FIXED1000], ids=["tail_corrected", "fixed"])
def test_joint_factor_off_the_box(policy):
    worst = 0.0
    for x, b in off_box_points(0.01, 2.9):
        exact = mp.exp(log_fm_exact(x, b, 1000) if policy.mode == "fixed" else mp.log(f_exact(x, b)))
        worst = max(worst, rel_err(joint_factor(JointFactorSpec(x, b), policy).value, exact))
    assert worst <= 5e-14


def test_joint_factor_at_tiny_x():
    # value = exp(ln f): below x ~ 0.01 the rounding of ln f (|ln f| ~ |ln x|)
    # is the error floor, ~3.2e-16 |ln f| measured down to x = 1e-300
    for x, b in off_box_points(1e-300, 0.01, 500):
        log_f = mp.log(f_exact(x, b))
        est = joint_factor(JointFactorSpec(x, b), M1000)
        assert abs(est.log_value - log_f) <= 5e-16 * max(4.0, abs(log_f))


def test_truncate_at_a_billion_factors():
    assert rel_err(truncate(JointFactorSpec(0.3, 0.2), 10**9), mp.exp(log_fm_exact(0.3, 0.2, 10**9))) <= 1e-14


def test_joint_factor_over_log_uniform_x():
    rng = random.Random(20071)
    worst = 0.0
    for _ in range(200):
        x, b = log_uniform(rng, 0.01, 1e6), rng.uniform(0.01, 0.99)
        worst = max(worst, rel_err(joint_factor(JointFactorSpec(x, b), DEFAULT).value, f_exact(x, b)))
    assert worst <= 5e-14


def test_beta_over_log_uniform_x():
    rng = random.Random(20072)
    worst = 0.0
    for _ in range(200):
        x, y = log_uniform(rng, 0.01, 100.0), rng.uniform(0.01, 0.99)
        worst = max(worst, rel_err(beta(x, y, DEFAULT), mp.beta(x, y)))
    assert worst <= 5e-14


@pytest.mark.parametrize(
    "product, closed, hi",
    [
        (sin_product, lambda x: mp.sin(mp.pi * x), 0.99),
        (tan_product, lambda x: mp.tan(mp.pi * x), 0.49),
        (pow2_product, lambda b: mp.power(2, 2 * b - 1) / mp.sin(mp.pi * b), 0.99),
    ],
    ids=["sin", "tan", "pow2"],
)
def test_trig_products_at_m1000(product, closed, hi):
    rng = random.Random(20073)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(0.01, hi)
        worst = max(worst, rel_err(product(x, 1000), closed(mp.mpf(x))))
    assert worst <= 5e-14


def _pow2_exact(b):
    return mp.power(2, 2 * b - 1) / mp.sin(mp.pi * b)


@pytest.mark.parametrize(
    "value, exact",
    [
        (lambda: beta(1e-14, 0.5), lambda: mp.beta(mp.mpf(1e-14), 0.5)),
        (lambda: beta(1e-17, 0.5), lambda: mp.beta(mp.mpf(1e-17), 0.5)),
        (lambda: beta(1e-300, 0.5), lambda: mp.beta(mp.mpf(1e-300), 0.5)),
        (lambda: sin_product(1e-14, 1000), lambda: mp.sin(mp.pi * mp.mpf(1e-14))),
        (lambda: sin_product(1e-17, 1000), lambda: mp.sin(mp.pi * mp.mpf(1e-17))),
        (lambda: tan_product(1e-14, 1000), lambda: mp.tan(mp.pi * mp.mpf(1e-14))),
        (lambda: tan_product(1e-17, 1000), lambda: mp.tan(mp.pi * mp.mpf(1e-17))),
        (lambda: pow2_product(1e-12, 1000), lambda: _pow2_exact(mp.mpf(1e-12))),
        (lambda: pow2_product(1e-17, 1000), lambda: _pow2_exact(mp.mpf(1e-17))),
    ],
    ids=["B_1e-14", "B_1e-17", "B_1e-300", "sin_1e-14", "sin_1e-17", "tan_1e-14", "tan_1e-17", "pow2_1e-12", "pow2_1e-17"],
)
def test_products_at_tiny_arguments(value, exact):
    # the k = 1 factor is formed from its exact linear terms: these were off
    # by 8e-4 (B, sin, tan at 1e-14) and 2.2e-5 (pow2 at 1e-12), or raised
    assert rel_err(value(), exact()) <= 5e-14


@pytest.mark.parametrize(
    "product, closed, hi",
    [(sin_product, lambda x: mp.sin(mp.pi * x), 1.0), (tan_product, lambda x: mp.tan(mp.pi * x), 0.5), (pow2_product, _pow2_exact, 1.0)],
    ids=["sin", "tan", "pow2"],
)
def test_trig_products_over_log_uniform_arguments(product, closed, hi):
    # x down to 1e-300, and hi - x for each x that does not round it to hi
    rng = random.Random(20078)
    xs = [log_uniform(rng, 1e-300, 0.5 * hi) for _ in range(200)]
    xs += [hi - x for x in xs if hi - x < hi]
    assert max(rel_err(product(x, 1000), closed(mp.mpf(x))) for x in xs) <= 5e-14


def polygamma_points(lo: float):
    """1000 t log-uniform on [lo, 0.01], 1000 uniform on (0.01, 0.99), and edges."""
    rng = random.Random(20075)
    ts = [log_uniform(rng, lo, 0.01) for _ in range(1000)] + [rng.uniform(0.01, 0.99) for _ in range(1000)]
    return ts + [lo, 1e-12, 1e-6, 1e-3, 0.5, 0.999999, 1.0 - 2.0**-53]


# psi' = 1/t^2 + ... overflows below t ~ 7.5e-155
@pytest.mark.parametrize(
    "fn, exact, lo", [(digamma, mp.digamma, 1e-300), (trigamma, lambda t: mp.psi(1, t), 1e-154)], ids=["digamma", "trigamma"]
)
def test_polygamma_at_n0_1000(fn, exact, lo):
    # README: psi and psi' to 1e-15 relative on (0, 1) (measured 4.9e-16 and 2.4e-16)
    assert max(rel_err(fn(t, 1000).value, exact(mp.mpf(t))) for t in polygamma_points(lo)) <= 1e-15


@pytest.mark.parametrize(
    "fn, tail",
    [(digamma, lambda t, n: mp.digamma(n + t) - mp.digamma(n + 1)), (trigamma, lambda t, n: mp.psi(1, n + t))],
    ids=["digamma", "trigamma"],
)
def test_polygamma_tail_estimate_is_the_exact_tail(fn, tail):
    for n0 in (10, 11, 1000, 10**9):
        for t in (1e-100, 0.3, 0.999999):
            assert rel_err(fn(t, n0).tail_estimate, tail(mp.mpf(t), n0)) <= 2e-15, (n0, t)


@pytest.mark.parametrize(
    "fn, exact, worst_abs",
    [
        (ref_log_gamma, mp.loggamma, 1.5e-13),  # largest near x = 100, where ln Gamma ~ 360
        (ref_digamma, mp.digamma, 1e-13),  # largest near x = 0.01, where psi ~ -100
        (ref_trigamma, lambda x: mp.psi(1, x), 1e-11),  # largest near x = 0.01, where psi' ~ 1e4
    ],
    ids=["ln_gamma", "psi", "psi1"],
)
def test_reference_oracles(fn, exact, worst_abs):
    # relative where |value| >= 1, absolute below (ln Gamma and psi have zeros)
    rng = random.Random(20076)
    xs = [log_uniform(rng, 0.01, 100.0) for _ in range(1000)] + [0.01, 0.5, 1.0, 2.0, 100.0]
    worst_scaled = worst = 0.0
    for x in xs:
        e = exact(mp.mpf(x))
        err = float(abs(fn(x) - e))
        worst = max(worst, err)
        worst_scaled = max(worst_scaled, err / max(1.0, float(abs(e))))
    assert worst_scaled <= 2e-15
    assert worst <= worst_abs


def test_reference_log_gamma_at_tiny_x():
    # below 1/2 the oracle takes ln Gamma(1+x) - ln x; x - 1 used to round x away
    rng = random.Random(20077)
    for x in [log_uniform(rng, 1e-300, 0.5) for _ in range(300)] + [1e-300, 1e-20, 0.49]:
        assert rel_err(ref_log_gamma(x), mp.loggamma(mp.mpf(x))) <= 1e-15
