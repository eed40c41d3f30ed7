"""High-precision reference evaluators for Gamma, digamma, trigamma and zeta.

These are the oracles the rest of the package is verified against, so they
deliberately share no machinery with the product-based evaluators: Gamma goes
through a Lanczos rational approximation with hard-coded coefficients, the psi
functions through upward recurrence plus a Bernoulli asymptotic series, and
zeta through direct summation plus Euler-Maclaurin corrections.

Accuracy on [0.01, 100], measured against 40-digit mpmath: ln Gamma, psi and
psi' are within 2e-15 max(1, |value|), i.e. relative where |value| >= 1 and
absolute near the zeros of ln Gamma and psi.  Absolute errors grow with the
value: ~1e-13 for ln Gamma near x = 100, ~5e-14 for psi and ~4e-12 for psi'
near x = 0.01.  ln Gamma keeps ~1e-16 relative down to x = 1e-300; zeta is
good to ~2e-14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329

_LN_SQRT_2PI = 0.9189385332046727

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficient set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8, _C9, _C10, _C11, _C12, _C13, _C14 = _LANCZOS_C

# Bernoulli-number driven asymptotic coefficients: B_{2k}/(2k) for psi,
# B_{2k} for psi'.
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


@dataclass(frozen=True)
class OracleConfig:
    """Accuracy contract of the reference evaluators: ``target_abs_error``
    is what the self test enforces."""

    target_abs_error: float = 1e-13

    def __post_init__(self) -> None:
        if not 1e-15 <= self.target_abs_error <= 1e-8:
            raise DomainError("target_abs_error must lie in [1e-15, 1e-8]")


def ref_log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 via the Lanczos rational approximation.

    Below 1/2, x - 1 would round away the low bits of x (all of them below
    ~1e-16), so there ln Gamma(x) = ln Gamma(1+x) - ln x with 1+x's offset
    taken as x itself.  The Lanczos sum is written out term by term, added
    left to right exactly as a loop over the coefficients would.
    """
    if not x > 0.0:  # x <= 0 or NaN
        raise DomainError(f"ref_log_gamma requires x > 0, got {x}")
    if x < 0.5:
        w = x
        log_shift = math.log(x)
    else:
        w = x - 1.0
        log_shift = 0.0
    base = w + _LANCZOS_G + 0.5
    s = (_C0 + _C1 / (w + 1.0) + _C2 / (w + 2.0) + _C3 / (w + 3.0) + _C4 / (w + 4.0) + _C5 / (w + 5.0)
         + _C6 / (w + 6.0) + _C7 / (w + 7.0) + _C8 / (w + 8.0) + _C9 / (w + 9.0) + _C10 / (w + 10.0)
         + _C11 / (w + 11.0) + _C12 / (w + 12.0) + _C13 / (w + 13.0) + _C14 / (w + 14.0))
    return _LN_SQRT_2PI + (w + 0.5) * math.log(base) - base + math.log(s) - log_shift


def ref_gamma(x: float) -> float:
    """Gamma(x) for x > 0; a value beyond the double range is a DomainError."""
    try:
        return math.exp(ref_log_gamma(x))
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


def power_tail(s: float, n0: int, corrections: int = 4) -> float:
    """sum_{n > n0} n^{-s} for s > 1 by Euler-Maclaurin at a = n0 + 1."""
    if s <= 1.0:
        raise DomainError(f"power_tail requires s > 1, got {s}")
    if n0 < 1:
        raise DomainError("power_tail requires n0 >= 1")
    a = n0 + 1.0
    t = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    for j in range(1, corrections + 1):
        b2j, fact = _EM_BERNOULLI[j - 1]
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
    return partial + power_tail(s, _ZETA_DIRECT_TERMS, corrections=6)


def run_self_test(config: OracleConfig = OracleConfig()) -> None:
    """Check the embedded coefficients against closed-form anchors.

    Raises AssertionError if any anchor misses the configured tolerance.
    """
    tol = config.target_abs_error
    sqrt_pi = math.sqrt(math.pi)
    anchors = [
        (ref_gamma(0.5), sqrt_pi),
        (ref_gamma(1.0), 1.0),
        (ref_gamma(2.0), 1.0),
        (ref_gamma(1.5), 0.5 * sqrt_pi),
        (ref_gamma(2.5), 0.75 * sqrt_pi),
        (ref_digamma(1.0), -EULER_GAMMA),
        (ref_digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)),
        (ref_trigamma(0.5), math.pi * math.pi / 2.0),
        (ref_trigamma(1.0), math.pi * math.pi / 6.0),
        (ref_zeta(2.0), math.pi * math.pi / 6.0),
    ]
    for got, want in anchors:
        assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)
