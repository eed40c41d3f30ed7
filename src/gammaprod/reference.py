"""Reference evaluators for Gamma, digamma, trigamma and zeta.

These are the oracles the rest of the package is verified against, so they
deliberately share no machinery with the product-based evaluators: Gamma and
ln Gamma are the C library's (``math.gamma`` and ``math.lgamma``), the psi
functions go through upward recurrence plus a Bernoulli asymptotic series,
and zeta through direct summation plus Euler-Maclaurin corrections.  This
module imports nothing from the package but its error type.

Accuracy, measured against 40-digit mpmath: ln Gamma within 1.1e-15
max(1, |value|) on x log-uniform in [1e-300, 1e300]; Gamma within 6e-16
relative on [0.001, 171]; psi and psi' on [0.01, 100] within 2e-15
max(1, |value|), with absolute errors growing to ~5e-14 for psi and ~4e-12
for psi' near x = 0.01; zeta good to ~2e-14.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329

# Recurrence shifts of psi, psi' and psi(3) before their asymptotic series.
_PSI_ASYMP_SHIFT = 12.0
_PSI3_ASYMP_SHIFT = 14.0

# (B_{2j}, (2j)!) pairs for Euler-Maclaurin corrections.
_EM_BERNOULLI = (
    (1.0 / 6.0, 2.0),
    (-1.0 / 30.0, 24.0),
    (1.0 / 42.0, 720.0),
    (-1.0 / 30.0, 40320.0),
    (5.0 / 66.0, 3628800.0),
    (-691.0 / 2730.0, 479001600.0),
)

_ZETA_DIRECT_TERMS = 10000


def ref_log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0; a value beyond the double range is a DomainError."""
    if not 0.0 < x < math.inf:  # x <= 0, NaN or inf
        raise DomainError(f"ref_log_gamma requires finite x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(f"ln Gamma({x!r}) exceeds the double range") from None


def ref_gamma(x: float) -> float:
    """Gamma(x) for finite x > 0; a value beyond the double range is a DomainError."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"ref_gamma requires finite x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x!r}) exceeds the double range") from None


def ref_digamma(x: float) -> float:
    """psi(x) for x > 0: shift the argument above 12, then sum the
    asymptotic series ln x - 1/2x - sum B_{2k}/(2k x^{2k})."""
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"ref_digamma requires x > 0, got {x}")
    v = 0.0
    while x < _PSI_ASYMP_SHIFT:
        v -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    v += math.log(x) - 0.5 / x
    v -= r * (
        1.0 / 12.0
        - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (1.0 / 240.0 - r * (1.0 / 132.0 - r * (691.0 / 32760.0)))))
    )
    return v


def ref_trigamma(x: float) -> float:
    """psi'(x) for x > 0, same recurrence-plus-asymptotics scheme."""
    if x <= 0.0 or math.isnan(x):
        raise DomainError(f"ref_trigamma requires x > 0, got {x}")
    v = 0.0
    while x < _PSI_ASYMP_SHIFT:
        v += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    v += 1.0 / x + 0.5 * r
    v += (r / x) * (
        1.0 / 6.0
        - r * (1.0 / 30.0 - r * (1.0 / 42.0 - r * (1.0 / 30.0 - r * (5.0 / 66.0 - r * (691.0 / 2730.0)))))
    )
    return v


def _psi3(x: float) -> float:
    """Polygamma of order 3, i.e. the third derivative of psi.

    Internal helper for product-tail estimates; not part of the oracle
    surface. Relative error below 1e-12.
    """
    if x <= 0.0:
        raise DomainError(f"_psi3 requires x > 0, got {x}")
    v = 0.0
    while x < _PSI3_ASYMP_SHIFT:
        v += 6.0 / x**4
        x += 1.0
    v += 2.0 / x**3 + 3.0 / x**4 + 2.0 / x**5 - 1.0 / x**7 + (4.0 / 3.0) / x**9 - 3.0 / x**11 + 10.0 / x**13
    return v


def power_tail(s: float, n0: int) -> float:
    """sum_{n > n0} n^{-s} for s > 1 by Euler-Maclaurin at a = n0 + 1, six corrections."""
    if s <= 1.0:
        raise DomainError(f"power_tail requires s > 1, got {s}")
    if n0 < 1:
        raise DomainError("power_tail requires n0 >= 1")
    a = n0 + 1.0
    t = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    for j, (b2j, fact) in enumerate(_EM_BERNOULLI, 1):
        rising = 1.0
        for i in range(2 * j - 1):
            rising *= s + i
        t += (b2j / fact) * rising * a ** (-s - 2 * j + 1)
    return t


def log_power_tail(s: float, n0: int) -> float:
    """sum_{n > n0} ln(n) n^{-s} for s > 1 by Euler-Maclaurin.

    Uses the closed-form integral plus four derivative corrections of
    g(x) = ln(x) x^{-s}; the truncation error at n0 >= 100 is far below
    double rounding.
    """
    if s <= 1.0:
        raise DomainError(f"log_power_tail requires s > 1, got {s}")
    a = n0 + 1.0
    la = math.log(a)
    sm1 = s - 1.0
    t = a ** (1.0 - s) * (la / sm1 + 1.0 / (sm1 * sm1))
    t += 0.5 * la * a ** (-s)
    t -= a ** (-s - 1.0) * (1.0 - s * la) / 12.0
    t += a ** (-s - 3.0) * (-s * (s + 1.0) * (s + 2.0) * la + (3.0 * s * s + 6.0 * s + 2.0)) / 720.0
    t -= (
        a ** (-s - 5.0)
        * (
            -s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * la
            + (5.0 * s**4 + 40.0 * s**3 + 105.0 * s * s + 100.0 * s + 24.0)
        )
        / 30240.0
    )
    return t


@lru_cache(maxsize=512)
def ref_zeta(s: float) -> float:
    """zeta(s) for 1 < s <= 2: ten thousand direct terms plus the
    Euler-Maclaurin tail with six Bernoulli corrections."""
    if not 1.0 < s <= 2.0:
        raise DomainError(f"ref_zeta requires 1 < s <= 2, got {s}")
    partial = math.fsum(n ** (-s) for n in range(1, _ZETA_DIRECT_TERMS + 1))
    return partial + power_tail(s, _ZETA_DIRECT_TERMS)
