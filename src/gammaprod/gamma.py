"""Closed-type evaluation of Gamma at rational points through joint factors.

For a reduced fraction q/p with p >= 3 the value is assembled as

    Gamma(q/p) = C_{p,q} * prod_{k=1}^{q-1} f(k/p, 1/p)
                         * prod_{k=1}^{p-2} f(1/p, k/p)^{-q/p},

with C_{p,q} = 2 pi [2 sin(pi/p)]^{q-1} / (2 pi p)^{q/p}, everything kept in
log space.  The same factorization drives Gamma ratios, the duplication
formula, negative rational arguments (via the reflection chain) and the Beta
function's product form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from .errors import DomainError, check_int
from .jointfactor import (
    JointFactorSpec,
    TruncationPolicy,
    _exp,
    _stirling_sum,
    joint_factor,
    log_partial_product,  # noqa: F401 -- not called here; perfbench/test_perfbench.py reads gamma.log_partial_product
    shifted_product,
)

_TWO_PI = 2.0 * math.pi
# largest denominator that gets a factor table: at 1024 one fills in 20-35 ms
# and keeps about 0.36 MB, so the 128-table memo stays under 50 MB
_MAX_TABLE_DEN = 1024


@dataclass(frozen=True)
class RationalArgument:
    """A positive rational q/p, reduced at construction."""

    q: int
    p: int

    def __post_init__(self) -> None:
        q, p = self.q, self.p
        if type(q) is not int or type(p) is not int or q < 1 or p < 1:  # one test on every Gamma(q/p) call
            check_int(q, "q", 1)
            check_int(p, "p", 1)
        g = math.gcd(q, p)
        if g > 1:
            object.__setattr__(self, "q", q // g)
            object.__setattr__(self, "p", p // g)

    @property
    def value(self) -> float:
        return self.q / self.p


@dataclass(frozen=True)
class GammaValue:
    """Gamma(q/p) together with its log, reciprocal and assembly method;
    ``m_used`` is the policy's head length, which every factor used.  The
    factor logs it was assembled from are read from ``_factor_log(p, policy)``."""

    value: float
    log_value: float
    reciprocal: float
    method: str
    m_used: int = 0


_GAMMA_ONE = GammaValue(1.0, 0.0, 1.0, "exact")
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_GAMMA_HALF = GammaValue(math.sqrt(math.pi), _LOG_SQRT_PI, math.exp(-_LOG_SQRT_PI), "exact")


class _FactorTable(NamedTuple):
    """Everything Gamma(q/p) reads for one denominator p >= 3.

    mu_k = ln f(k/p, 1/p) for k < p-1, prefix[j] = fsum(mu[:j]), v_k =
    ln f(1/p, k/p) for k < p-1, v_sum = fsum(v), and values[q-1] the
    finished Gamma(q/p) for every q < p, which reads prefix[q-1]: no value
    reads mu_{p-1}, so the table does not form it.
    """

    mu: tuple[float, ...]
    prefix: tuple[float, ...]
    v: tuple[float, ...]
    v_sum: float
    values: tuple[GammaValue, ...]


@lru_cache(maxsize=128)
def _factor_log(p: int, policy: TruncationPolicy) -> _FactorTable:
    """p's factor table, filled once in O(p) and read by every Gamma(q/p)."""
    if p > _MAX_TABLE_DEN:
        raise DomainError(f"denominator {p} exceeds the factor-table limit {_MAX_TABLE_DEN}")
    mu = tuple(joint_factor(JointFactorSpec(k / p, 1 / p), policy).log_value for k in range(1, p - 1))
    v = tuple(joint_factor(JointFactorSpec(1 / p, k / p), policy).log_value for k in range(1, p - 1))
    # prefix in O(p): each mu_k is an integer multiple of 1/den (den a power of
    # two), so every running sum is an exact integer, rounded once as by fsum
    ratios = [x.as_integer_ratio() for x in mu]
    den = max(d for _, d in ratios)
    prefix = tuple(s / den for s in accumulate((n * (den // d) for n, d in ratios), initial=0))
    v_sum = math.fsum(v)
    values = []
    for q in range(1, p):
        log_value = log_c_constant(p, q) + prefix[q - 1] - (q / p) * v_sum
        method = "lemma31" if q == 1 else "theorem31"
        values.append(GammaValue(math.exp(log_value), log_value, math.exp(-log_value), method, policy.m))
    return _FactorTable(mu, prefix, v, v_sum, tuple(values))


def log_c_constant(p: int, q: int) -> float:
    """ln C_{p,q} = ln 2pi + (q-1) ln(2 sin(pi/p)) - (q/p) ln(2 pi p)."""
    return math.log(_TWO_PI) + (q - 1) * math.log(2.0 * math.sin(math.pi / p)) - (q / p) * math.log(_TWO_PI * p)


def gamma_rational(arg: RationalArgument, policy: TruncationPolicy = TruncationPolicy()) -> GammaValue:
    """Gamma(q/p) for a reduced fraction with q <= p, read from p's table.

    Fractions that reduce to 1/1 or 1/2 fall outside the product
    factorization (it needs p >= 3) and are served by the exact anchors
    Gamma(1) = 1 and Gamma(1/2) = sqrt(pi).  ``DomainError`` if p exceeds
    ``_MAX_TABLE_DEN`` (1024).  Calls with the same p and policy share one
    ``GammaValue`` per q while the table stays memoized.
    """
    q, p = arg.q, arg.p
    if q > p:
        raise DomainError(f"q/p must lie in (0, 1], got {q}/{p}")
    if p <= 2:
        return _GAMMA_ONE if p == 1 else _GAMMA_HALF
    return _factor_log(p, policy).values[q - 1]


def gamma_inv_p_pow(p: int, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """[Gamma(1/p)]^p = ((2 pi)^{p-1} / p) prod_{k=1}^{p-2} 1/f(1/p, k/p)."""
    check_int(p, "p", 3)
    log_val = (p - 1) * math.log(_TWO_PI) - math.log(p)
    log_val -= _factor_log(p, policy).v_sum
    return _exp(log_val)


_STIRLING_CONST = 0.5 * math.log(_TWO_PI) - 0.5
_LOG_11 = math.log(11.0)
_STIRLING_AT_11 = _stirling_sum(11.0)


def _log_gamma_anchor(t: float) -> float:
    """ln Gamma(t) for every t > 0: from 10 on the Stirling series (DLMF
    5.11.1), whose remainder there is below 2e-18; below, Euler's product
    Gamma(t) = Gamma(11+t) / [t (1+t) ... (10+t)] (DLMF 5.8.2) and the exact
    tail ln Gamma(11+t) - ln Gamma(11), written so that no ln 11! cancels.
    The ten log1p terms are written out: a loop costs more than they do."""
    if t >= 10.0:
        return (t - 0.5) * (math.log(t) - 1.0) + _STIRLING_CONST + _stirling_sum(t)
    head = (
        math.log1p(t) + math.log1p(t / 2.0) + math.log1p(t / 3.0) + math.log1p(t / 4.0) + math.log1p(t / 5.0)
        + math.log1p(t / 6.0) + math.log1p(t / 7.0) + math.log1p(t / 8.0) + math.log1p(t / 9.0) + math.log1p(t / 10.0)
    )
    tail = t * _LOG_11 + (10.5 + t) * math.log1p(t / 11.0) - t
    return tail - head - math.log(t) + (_stirling_sum(11.0 + t) - _STIRLING_AT_11)


def gamma_ratio(x: float, b: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(x+b)/Gamma(x) = f(x, b) / Gamma(1-b) for x > 0, 0 <= b < 1; ``policy`` governs f alone."""
    spec = JointFactorSpec(x, b)
    if b == 0.0:
        return 1.0
    log_f = joint_factor(spec, policy).log_value
    return math.exp(log_f - _log_gamma_anchor(1.0 - b))


def gamma_duplication(x: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(2x) = (2^{2x-1} / pi) f(x, 1/2) [Gamma(x)]^2; ``policy`` governs f alone."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    log_f = joint_factor(JointFactorSpec(x, 0.5), policy).log_value
    log_val = (2.0 * x - 1.0) * math.log(2.0) - math.log(math.pi) + log_f + 2.0 * _log_gamma_anchor(x)
    return _exp(log_val)


def gamma_negative(arg: RationalArgument, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(-q/p) for 0 < q/p < 1, by the reflection chain
    Gamma(-t) = -pi / (t sin(pi t) Gamma(t))."""
    if arg.q >= arg.p:
        raise DomainError(f"need 0 < q/p < 1, got {arg.q}/{arg.p}")
    t = arg.value
    log_gamma_t = gamma_rational(arg, policy).log_value
    return -math.pi / (t * math.sin(math.pi * t) * math.exp(log_gamma_t))


def _beta_product(x: float, y: float, m: int, tail: bool) -> float:
    """The k = 1 factor (x+y) / [(1+y) x] over y, then the factors
    j = k-1 >= 1, (j+1)(j+x+y) / [(j+1+y)(j+x)]: c = y (1-x), u = 1+y,
    v = x, roots 1 and x+y, shift d = y."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    if not 0.0 < y < 1.0:
        raise DomainError(f"y must lie in (0, 1), got {y}")
    first = (x + y) / x / ((1.0 + y) * y)
    return shifted_product(first, y * (1.0 - x), 1.0 + y, x, (1.0, x + y, y), m, tail)


def beta(x: float, y: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """B(x, y) = (1/y) prod_{k>=1} k (k-1+x+y) / [(k+y)(k-1+x)].

    Valid for finite x > 0, 0 < y < 1.  Factors have the standard shape
    1 + c/[(k+u)(k+v)] with c = y (1-x), u = y, v = x-1, and numerator
    roots 0 and x+y-1, so the joint-factor head and exact tail apply
    unchanged; the tail is skipped only in ``fixed`` mode.  ``DomainError``
    if B lies beyond the double range.
    """
    return _beta_product(x, y, policy.m, policy.mode != "fixed")


def beta_partial(x: float, y: float, m: int) -> float:
    """The raw m-term partial of the Beta product (no tail correction)."""
    return _beta_product(x, y, m, False)


def clear_factor_cache() -> None:
    """Drop the memoized per-denominator factor tables (mainly for benchmarks)."""
    _factor_log.cache_clear()


__all__ = [
    "RationalArgument",
    "GammaValue",
    "gamma_rational",
    "gamma_inv_p_pow",
    "gamma_ratio",
    "gamma_duplication",
    "gamma_negative",
    "beta",
    "beta_partial",
    "log_c_constant",
    "clear_factor_cache",
]
