"""Product identities: sin, tan, the power-of-two product, and the two
competing quarter-squared products."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid
from gammaprod.errors import DomainError
from gammaprod.identities import (
    check_identity,
    gamma_quarter_squared,
    pow2_product,
    pow2_reference,
    quarter_partials,
    quarter_reference,
    sin_product,
    tan_product,
)


def test_sin_product_half_is_exactly_one():
    for m in (1, 7, 100):
        assert sin_product(0.5, m, tail=False) == 1.0
        assert sin_product(0.5, m, tail=True) == 1.0


def test_sin_product_values():
    assert sin_product(1.0 / 6.0, 1000) == pytest.approx(0.5, abs=1e-6)
    assert sin_product(0.25, 1000) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)


def test_sin_product_sweep():
    for x in grid(0.02, 0.98, 50):
        assert sin_product(x, 1000) == pytest.approx(math.sin(math.pi * x), rel=1e-6)


def test_tan_product_quarter_is_exactly_one():
    for m in (1, 9, 64):
        assert tan_product(0.25, m, tail=False) == 1.0


def test_tan_product_values():
    assert tan_product(1.0 / 6.0, 1000) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert tan_product(1.0 / 3.0, 1000) == pytest.approx(math.sqrt(3.0), abs=1e-6)


def test_tan_product_sweep():
    for x in grid(0.02, 0.48, 50):
        assert tan_product(x, 1000) == pytest.approx(math.tan(math.pi * x), rel=1e-6)


def test_pow2_product_degenerate_points():
    # both 1/2 and 1/4 make every factor equal to one
    for m in (1, 13, 500):
        assert pow2_product(0.5, m, tail=False) == 1.0
        assert pow2_product(0.25, m, tail=False) == 1.0
    assert pow2_reference(0.5) == pytest.approx(1.0, rel=1e-15)
    assert pow2_reference(0.25) == pytest.approx(1.0, rel=1e-15)


def test_pow2_product_values():
    want = 2.0 ** (2.0 / 3.0 - 1.0) / math.sin(math.pi / 3.0)
    assert want == pytest.approx(0.9164864246657352, rel=1e-12)
    assert pow2_product(1.0 / 3.0, 1000) == pytest.approx(want, rel=1e-6)


def test_pow2_product_sweep():
    for b in grid(0.05, 0.95, 50):
        assert pow2_product(b, 1000) == pytest.approx(pow2_reference(b), rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=0.02, max_value=0.98))
def test_sin_product_property(x):
    assert sin_product(x, 400) == pytest.approx(math.sin(math.pi * x), rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(min_value=0.02, max_value=0.48))
def test_tan_product_property(x):
    assert tan_product(x, 400) == pytest.approx(math.tan(math.pi * x), rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(b=st.floats(min_value=0.02, max_value=0.98))
def test_pow2_product_property(b):
    assert pow2_product(b, 400) == pytest.approx(pow2_reference(b), rel=1e-6)


def test_check_identity_wraps_residual():
    chk = check_identity("sin", 0.3, 500)
    assert chk.name == "sin"
    assert chk.rel_residual == abs(chk.lhs - chk.rhs) / abs(chk.rhs)
    assert chk.rel_residual < 1e-6
    with pytest.raises(DomainError):
        check_identity("cos", 0.3, 10)


def test_quarter_first_partials():
    classical, new = gamma_quarter_squared(1)
    assert classical == pytest.approx(4.0 * math.pi * (3.0 / 5.0) * math.sqrt(3.0), rel=1e-14)
    assert new == pytest.approx(math.pi * math.sqrt(2.0 * math.pi) * 0.5 * 3.0, rel=1e-14)
    assert classical == pytest.approx(13.0593554, abs=1e-6)
    assert new == pytest.approx(11.8122076, abs=1e-6)


def test_quarter_converges_to_reference():
    ref = quarter_reference()
    assert ref == pytest.approx(13.1450472, abs=1e-6)
    classical, new = gamma_quarter_squared(200_000)
    assert classical == pytest.approx(ref, rel=1e-9)
    assert new == pytest.approx(ref, rel=1e-4)


def test_classical_stays_ahead_of_new():
    ref = quarter_reference()
    classical, new = quarter_partials(1000)
    for m, (c, n) in enumerate(zip(classical, new), start=1):
        assert abs(c - ref) <= abs(n - ref), m


def test_domain_errors():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError):
            sin_product(bad, 10)
    with pytest.raises(DomainError):
        tan_product(0.5, 10)
    with pytest.raises(DomainError):
        pow2_product(1.0, 10)
    for bad in (0.0, 1.0, -0.25, 1.5):
        with pytest.raises(DomainError, match=r"b must lie in \(0, 1\)"):
            pow2_reference(bad)
    with pytest.raises(DomainError):
        gamma_quarter_squared(0)
