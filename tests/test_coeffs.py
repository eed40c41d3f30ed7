"""Coefficient recursion vs the independent convolution oracle, plus the
derivative coefficients on the vanishing line."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import g2_closed_form
from gammaprod.coeffs import (
    CoeffTable,
    DerivTable,
    g_sequence,
    g_sequence_oracle,
    h_closed,
    h_sequence,
    pochhammer,
    sum_g,
)
from gammaprod.errors import DomainError


def test_g1_seed():
    assert g_sequence(0.25, 0.5, 1).g[0] == pytest.approx(0.125, abs=0)


def test_printed_g2_g3():
    table = g_sequence(0.25, 0.5, 3)
    assert table.g[1] == 0.05078125  # exact in binary
    assert table.g[2] == pytest.approx(float(Fraction(23, 768)), rel=1e-15)


def test_recursion_from_n1_reproduces_closed_g2():
    for x, b in ((0.25, 0.5), (0.7, 0.2), (1.9, 0.85), (0.05, 0.6)):
        assert g_sequence(x, b, 2).g[1] == pytest.approx(g2_closed_form(x, b), rel=1e-14)


def test_vanishing_line_gives_exact_zeros():
    table = g_sequence(0.6, 0.4, 20)
    assert table.g == (0.0,) * 20


@settings(max_examples=50, deadline=None)
@given(b=st.floats(min_value=0.01, max_value=0.99))
def test_vanishing_line_property(b):
    # x computed as 1 - b makes g_1 an exact zero, hence the whole sequence
    table = g_sequence(1.0 - b, b, 15)
    assert table.g == (0.0,) * 15


def test_b_zero_gives_exact_zeros():
    assert g_sequence(0.5, 0.0, 10).g == (0.0,) * 10
    assert g_sequence_oracle(0.5, 0.0, 10).g == (0.0,) * 10


def test_oracle_convolution_example():
    # c2 = 0.05859375, g2 = c2 - c1^2/2
    table = g_sequence_oracle(0.25, 0.5, 2)
    assert table.g[1] == pytest.approx(0.05859375 - 0.0078125, rel=1e-15)


def test_two_routes_agree_on_grid():
    for i in range(1, 10):
        x = i / 10.0
        for j in range(10):
            b = 0.05 + j / 10.0
            rec = g_sequence(x, b, 40).g
            orc = g_sequence_oracle(x, b, 40).g
            for n in range(40):
                assert abs(rec[n] - orc[n]) <= 1e-10 * max(1.0, abs(orc[n]))


def test_two_routes_agree_at_third_third():
    rec = g_sequence(1.0 / 3.0, 1.0 / 3.0, 40).g
    orc = g_sequence_oracle(1.0 / 3.0, 1.0 / 3.0, 40).g
    for gr, go in zip(rec, orc):
        assert abs(gr - go) <= 1e-10 * max(1.0, abs(go))


def g_sequence_exact(x: Fraction, b: Fraction, N: int) -> list[Fraction]:
    """The convolution oracle in exact rationals: c_0 = 1,
    c_n = c_{n-1} (a + n - 1)(b + n - 1) / n^2 with a = 1 - x - b, and
    g_n = (n c_n - sum_{j<n} j g_j c_{n-j}) / n.  Practical up to N ~ 30."""
    a = 1 - x - b
    c = [Fraction(1)]
    for n in range(1, N + 1):
        c.append(c[n - 1] * (a + n - 1) * (b + n - 1) / (n * n))
    g: list[Fraction] = []
    for n in range(1, N + 1):
        g.append((n * c[n] - sum(j * g[j - 1] * c[n - j] for j in range(1, n))) / n)
    return g


def test_exact_fraction_oracle_agrees_with_float_recursion():
    x, b = Fraction(1, 3), Fraction(1, 3)
    exact = g_sequence_exact(x, b, 30)
    rec = g_sequence(float(x), float(b), 30).g
    for n in range(30):
        assert abs(rec[n] - float(exact[n])) <= 1e-13 * max(1.0, abs(float(exact[n])))


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=0.05, max_value=2.5),
    b=st.floats(min_value=0.0, max_value=0.95),
    n=st.integers(min_value=1, max_value=30),
)
def test_routes_agree_property(x, b, n):
    rec = g_sequence(x, b, n).g
    orc = g_sequence_oracle(x, b, n).g
    for gr, go in zip(rec, orc):
        assert abs(gr - go) <= 1e-9 * max(1.0, abs(go))


def test_pochhammer():
    assert pochhammer(0.5, 0) == 1.0
    assert pochhammer(0.5, 5) == pytest.approx(29.53125, rel=1e-15)
    assert pochhammer(3.0, 3) == 60.0


def test_h_closed_anchors():
    assert h_closed(1, 0.5) == -0.5
    assert h_closed(2, 0.5) == -0.1875
    assert h_closed(5, 0.5) == pytest.approx(-0.04921875, rel=1e-15)


def test_h_sequence_seeds_and_signs():
    for b in (0.1, 0.5, 0.9):
        table = h_sequence(b, 12)
        assert isinstance(table, DerivTable)
        assert table.h[0] == -b
        assert table.h[1] == pytest.approx(-b * (1.0 + b) / 4.0, rel=1e-15)
        assert all(h < 0.0 for h in table.h)


def test_h_recursion_matches_closed_form():
    for b in (0.15, 0.5, 0.85):
        table = h_sequence(b, 50)
        for n in range(3, 51):
            assert table.h[n - 1] == pytest.approx(h_closed(n, b), rel=1e-12)


def test_h_is_x_derivative_of_g_on_vanishing_line():
    eps = 1e-6
    for b in (0.25, 0.5, 0.75):
        x0 = 1.0 - b
        hi = g_sequence(x0 + eps, b, 10).g
        lo = g_sequence(x0 - eps, b, 10).g
        for n in range(1, 11):
            fd = (hi[n - 1] - lo[n - 1]) / (2.0 * eps)
            assert abs(fd - h_closed(n, b)) <= 1e-5


def test_sum_g_matches_fsum():
    table = g_sequence(0.3, 0.6, 25)
    assert sum_g(table) == math.fsum(table.g)


@pytest.mark.parametrize(
    "fn,args",
    [
        (g_sequence, (-1.0, 0.5, 5)),
        (g_sequence, (0.5, 1.0, 5)),
        (g_sequence, (0.5, -0.1, 5)),
        (g_sequence, (0.5, 0.5, 0)),
        (g_sequence_oracle, (0.0, 0.5, 5)),
        (h_sequence, (0.0, 5)),
        (h_sequence, (1.0, 5)),
        (h_sequence, (0.5, 0)),
        (pochhammer, (0.5, -1)),
        (CoeffTable, (0.3, 0.5, 2, (0.1,))),
        (DerivTable, (0.5, 1, (-0.5, 0.1))),
    ],
)
def test_domain_errors(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("fn", [g_sequence, g_sequence_oracle])
@pytest.mark.parametrize("x, N", [(1e300, 2), (1e300, 5), (1e100, 4), (1e60, 12), (1e30, 40)])
def test_coefficients_beyond_the_double_range_are_domain_errors(fn, x, N):
    # g_n grows like x^n: an inf coefficient, or an inf - inf inside fsum
    with pytest.raises(DomainError, match="exceed the double range"):
        fn(x, 0.5, N)


def test_h_closed_domain():
    with pytest.raises(DomainError):
        h_closed(0, 0.5)
    with pytest.raises(DomainError):
        h_closed(3, 1.0)
