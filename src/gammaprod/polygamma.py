"""Digamma and trigamma on (0, 1) as b-derivatives of the joint factor.

With g the Euler-Mascheroni constant, f(x, b) = prod_k k (x+k-1) / [(k-b)(x+k+b-1)]
gives, at b = 0, d/db ln f(t, b) = psi(t) + g = sum_k [1/k - 1/(t+k-1)] and
d^2/db^2 ln f(t, b) = psi'(t) + zeta(2) = sum_k [1/(t+k-1)^2 + 1/k^2].  Ten
head terms are summed and the exact tail after them, psi(10+t) - psi(11) or
psi'(t+10), is the b-derivative of the ln Gamma differences the product
tails sum, from the derivatives of the same Stirling series (DLMF 5.11.2,
5.15.8): psi(z) ~ ln z - 1/(2z) - sum_j B_2j/(2j) z^-2j and
psi'(z) ~ 1/z + 1/(2z^2) + sum_j B_2j z^(-2j-1), with first omitted terms
below 1e-17 at z >= 10.  An n0-term head (n0 >= 10) takes terms 11..n0 as
the tail after 10 less the tail after n0: same value, same cost, any n0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .jointfactor import _STIRLING
from .reference import EULER_GAMMA, power_tail

# B_2j/(2j) and B_2j from the Stirling coefficients B_2j/(2j (2j-1)).
_PSI_COEF = tuple(c * (2 * j - 1) for j, c in enumerate(_STIRLING, 1))
_PSI1_COEF = tuple(c * 2 * j * (2 * j - 1) for j, c in enumerate(_STIRLING, 1))
_HEAD = 10


@dataclass(frozen=True)
class PolygammaResult:
    """A psi or psi' value with its head length and the exact tail after it."""

    t: float
    n0: int
    value: float
    head_terms: int
    tail_estimate: float


def _validate(t: float, n0: int) -> None:
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    if not 10 <= n0 <= 2**53:  # beyond 2^53, n0 + t cannot hold t
        raise DomainError(f"n0 must lie in [10, 2^53], got {n0}")


def _finite(value: float, name: str, t: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name}({t!r}) overflows the double range")
    return value


def _psi_tail(t: float, n: int) -> float:
    """psi(n+t) - psi(n+1) for n >= 10, with t - 1 = z1 - z2 taken out of
    every Stirling difference over (z1, z2) = (n+t, n+1), so the tail keeps
    its relative accuracy as t -> 1.  The Horner pass carries the slope
    [P(r1) - P(r2)] / (r1 - r2) of P(r) = sum_j B_2j/(2j) r^j along with P(r2)."""
    z1, z2 = n + t, n + 1.0
    r1, r2 = 1.0 / (z1 * z1), 1.0 / (z2 * z2)
    slope = p2 = 0.0
    for coef in (*reversed(_PSI_COEF), 0.0):
        slope = slope * r1 + p2
        p2 = p2 * r2 + coef
    return math.log1p((t - 1.0) / z2) + (t - 1.0) * (0.5 / (z1 * z2) + (z1 + z2) * r1 * r2 * slope)


def _trigamma_tail(z: float) -> float:
    """psi'(z) for z >= 10."""
    r = 1.0 / z
    s = 0.0
    for coef in reversed(_PSI1_COEF):
        s = s * r * r + coef
    return r + 0.5 * r * r + s * r * r * r


def digamma(t: float, n0: int) -> PolygammaResult:
    """psi(t) = -g + sum_{k<=10} (t-1) / [k (t+k-1)] + psi(10+t) - psi(11).

    Every term has the sign of t - 1, so nothing cancels.  ``tail_estimate``
    is the exact tail after n0 terms, psi(n0+t) - psi(n0+1).  Below
    t ~ 5.6e-309 the value overflows and a ``DomainError`` is raised.
    """
    _validate(t, n0)
    head = 0.0
    for k in range(1, _HEAD + 1):
        head += (t - 1.0) / (k * (t + (k - 1)))
    value = _finite(-EULER_GAMMA + head + _psi_tail(t, _HEAD), "digamma", t)
    return PolygammaResult(t, n0, value, n0, _psi_tail(t, n0))


def trigamma(t: float, n0: int) -> PolygammaResult:
    """psi'(t) = sum_{k<10} 1/(t+k)^2 + psi'(t+10), smallest terms first.

    ``tail_estimate`` is the exact tail after n0 terms, psi'(t+n0).  Below
    t ~ 7.5e-155 the value overflows and a ``DomainError`` is raised.
    """
    _validate(t, n0)
    total = _trigamma_tail(t + _HEAD)
    for k in range(_HEAD - 1, 0, -1):
        total += 1.0 / ((t + k) * (t + k))
    value = _finite(total + 1.0 / t / t, "trigamma", t)  # t*t is subnormal below 1.5e-154
    return PolygammaResult(t, n0, value, n0, _trigamma_tail(t + n0))


def zeta_tail(t: float, n0: int) -> float:
    """sum_{n > n0} n^{-1-t} by Euler-Maclaurin with six Bernoulli
    corrections (the default four leave 2.6e-12 relative at n0 = 10).
    No longer part of psi or psi'."""
    _validate(t, n0)
    return power_tail(1.0 + t, n0, corrections=6)


def digamma_series_raw(t: float, N: int) -> float:
    """The paper's raw series -g - (sin(pi t)/pi) sum_{n<=N} f(n, 1-t) / n^2,
    from f(1, 1-t) = Gamma(2-t) Gamma(t) = pi (1-t) / sin(pi t) by the exact
    ratio (n-t)/(n-1).  Converges like N^{-t}: it shows the acceleration."""
    _validate(t, 10)
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    sin_pi_t = math.sin(math.pi * t)
    fn = math.pi * (1.0 - t) / sin_pi_t
    terms = [fn]
    for n in range(2, N + 1):
        fn *= (n - t) / (n - 1.0)
        terms.append(fn / (n * n))
    return -EULER_GAMMA - (sin_pi_t / math.pi) * math.fsum(terms)
