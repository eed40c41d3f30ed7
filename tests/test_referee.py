"""Accuracy claims of the README, checked against mpmath at 40 digits.

mpmath shares no code with the product path or with gammaprod.reference,
so agreement here is evidence, not a restatement.  Samples are seeded and
the whole file runs in about a second.
"""

import math
import random

import pytest

from conftest import reduced_pairs
from gammaprod.gamma import RationalArgument, beta, gamma_negative, gamma_rational
from gammaprod.identities import pow2_product, sin_product, tan_product
from gammaprod.jointfactor import JointFactorSpec, TruncationPolicy, joint_factor

mp = pytest.importorskip("mpmath")
mp.mp.dps = 40

DEFAULT = TruncationPolicy()
M1000 = TruncationPolicy(m=1000)
# the worst point of the seed-7 benchmark sequence under the psi tail (3.22e-15)
BOX_CORNER = (2.788787782760156, 0.942385595376211)


def rel_err(value: float, exact) -> float:
    return float(abs(mp.mpf(value) - exact) / abs(exact))


def f_exact(x: float, b: float):
    x, b = mp.mpf(x), mp.mpf(b)
    return mp.gamma(x + b) * mp.gamma(1 - b) / mp.gamma(x)


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
    assert worst_small <= 4e-15
    assert worst_large <= 5e-13


def test_gamma_negative_every_fraction_up_to_64():
    worst = max(
        rel_err(gamma_negative(RationalArgument(q, p), DEFAULT), mp.gamma(-mp.mpf(q) / p))
        for q, p in reduced_pairs(64)
    )
    assert worst <= 5e-13


@pytest.mark.parametrize("policy", [DEFAULT, M1000], ids=["default_m", "m1000"])
def test_joint_factor_on_readme_box(policy):
    rng = random.Random(20070)
    points = [(rng.uniform(0.1, 2.9), rng.uniform(0.05, 0.95)) for _ in range(200)] + [BOX_CORNER]
    worst = max(rel_err(joint_factor(JointFactorSpec(x, b), policy).value, f_exact(x, b)) for x, b in points)
    assert worst <= 3e-15


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
