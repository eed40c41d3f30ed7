"""Digamma and trigamma on (0, 1) by joint-factor series with zeta-tail
acceleration.

The underlying series are

    psi(t)  = -g - (sin(pi t)/pi) sum_{n>=1} f(n, 1-t) / n^2
    psi'(t) =      (sin(pi t)/pi) sum_{n>=1} f(n, 1-t) H_n(t) / n^2,

with H_n(t) = sum_{k<=n} 1/(k-t) and g the Euler-Mascheroni constant.  Raw
partial sums decay like N^{-t}, which is hopeless for small t.  The
accelerated evaluators sum n0 exact head terms (f advanced by the exact
ratio f(n+1, 1-t)/f(n, 1-t) = (n+1-t)/n from a single oracle-seeded value)
and replace the tail using f(n, 1-t) = G(t) n^{1-t} [1 - t(1-t)/(2n) + ...]:
the digamma tail becomes a zeta tail plus one power-tail correction, and the
trigamma tail an Euler-Maclaurin sum over (ln n + c0 + c1/n + c2/n^2) n^{-s}.
With n0 = 1000 this lands near 2e-9 for psi and 2e-8 for psi' across (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .reference import (
    EULER_GAMMA,
    log_power_tail,
    power_tail,
    ref_digamma,
    ref_gamma,
)


@dataclass(frozen=True)
class PolygammaResult:
    """An accelerated psi or psi' value with its head/tail split."""

    t: float
    n0: int
    value: float
    head_terms: int
    tail_estimate: float


def _validate(t: float, n0: int) -> None:
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    if n0 < 10:
        raise DomainError(f"n0 must be >= 10, got {n0}")


def _head_factors(t: float, n0: int):
    """Yield (n, f(n, 1-t)) for n = 1..n0.

    Seeded once from the oracle as f(1, 1-t) = Gamma(2-t) Gamma(t), then
    advanced by the exact ratio (n-t)/(n-1).
    """
    fn = ref_gamma(2.0 - t) * ref_gamma(t)
    for n in range(1, n0 + 1):
        if n > 1:
            fn *= (n - t) / (n - 1.0)
        yield n, fn


def zeta_tail(t: float, n0: int) -> float:
    """sum_{n > n0} n^{-1-t} by Euler-Maclaurin with six Bernoulli
    corrections (the default four leave 2.6e-12 relative at n0 = 10)."""
    _validate(t, n0)
    return power_tail(1.0 + t, n0, corrections=6)


def digamma(t: float, n0: int) -> PolygammaResult:
    """psi(t) with n0 exact head terms and an analytic zeta tail.

    The tail keeps the first correction of the f asymptotics (the
    -t(1-t)/(2n) term); without it the error floor sits near 2e-5 at
    n0 = 200 instead of a few 1e-9.
    """
    _validate(t, n0)
    sin_over_pi = math.sin(math.pi * t) / math.pi
    head = math.fsum(fn / (n * n) for n, fn in _head_factors(t, n0))
    tail = zeta_tail(t, n0) - 0.5 * t * (1.0 - t) * power_tail(2.0 + t, n0)
    tail /= ref_gamma(1.0 - t)
    value = -EULER_GAMMA - sin_over_pi * head - tail
    return PolygammaResult(t, n0, value, n0, -tail)


def digamma_series_raw(t: float, N: int) -> float:
    """The unaccelerated N-term partial sum of the psi series.

    Converges like N^{-t}; exists to make the acceleration gain measurable.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0, 1), got {t}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    sin_over_pi = math.sin(math.pi * t) / math.pi
    head = math.fsum(fn / (n * n) for n, fn in _head_factors(t, N))
    return -EULER_GAMMA - sin_over_pi * head


def trigamma(t: float, n0: int) -> PolygammaResult:
    """psi'(t) with n0 exact head terms and an Euler-Maclaurin tail.

    In the tail H_n = psi(n+1-t) - psi(1-t) is expanded as
    ln n + c0 + c1/n + c2/n^2 with c0 = -psi(1-t), c1 = 1/2 - t and
    c2 = -d^2/2 + d/2 - 1/12 (d = 1-t); each piece reduces to a log-power
    or power tail.
    """
    _validate(t, n0)
    sin_over_pi = math.sin(math.pi * t) / math.pi
    terms = []
    harmonic = 0.0
    for n, fn in _head_factors(t, n0):
        harmonic += 1.0 / (n - t)
        terms.append(fn * harmonic / (n * n))
    head = math.fsum(terms)

    c0 = -ref_digamma(1.0 - t)
    c1 = 0.5 - t
    d = 1.0 - t
    c2 = -0.5 * d * d + 0.5 * d - 1.0 / 12.0
    s1 = 1.0 + t
    t1 = log_power_tail(s1, n0) + c0 * zeta_tail(t, n0) + c1 * power_tail(s1 + 1.0, n0) + c2 * power_tail(s1 + 2.0, n0)
    s2 = 2.0 + t
    t2 = log_power_tail(s2, n0) + c0 * power_tail(s2, n0) + c1 * power_tail(s2 + 1.0, n0)
    tail = (t1 - 0.5 * t * (1.0 - t) * t2) / ref_gamma(1.0 - t)
    value = sin_over_pi * head + tail
    return PolygammaResult(t, n0, value, n0, tail)
