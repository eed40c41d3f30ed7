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
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .jointfactor import (
    JointFactorSpec,
    TruncationPolicy,
    joint_factor,
    log_partial_product,  # noqa: F401 -- not called here; perfbench/test_perfbench.py reads gamma.log_partial_product
    shifted_product,
)
from .reference import ref_gamma, ref_log_gamma

_TWO_PI = 2.0 * math.pi
_MAX_RATIONAL_DEN = 64
_RATIONAL_TOL = 1e-12


@dataclass(frozen=True)
class RationalArgument:
    """A positive rational q/p, reduced at construction."""

    q: int
    p: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.p < 1:
            raise DomainError(f"q and p must be positive integers, got {self.q}/{self.p}")
        g = math.gcd(self.q, self.p)
        if g > 1:
            object.__setattr__(self, "q", self.q // g)
            object.__setattr__(self, "p", self.p // g)

    @property
    def value(self) -> float:
        return self.q / self.p


@dataclass(frozen=True)
class GammaValue:
    """Gamma(q/p) together with its log, reciprocal and assembly terms.

    ``term_logs`` holds (mu_k, v_k) = (ln f(k/p, 1/p), ln f(1/p, k/p)) when
    the product path produced them, so ln Gamma can be reassembled and
    audited term by term.
    """

    value: float
    log_value: float
    reciprocal: float
    method: str
    term_logs: tuple[tuple[float, ...], tuple[float, ...]] | None = None


def _as_small_fraction(t: float, max_den: int = _MAX_RATIONAL_DEN) -> RationalArgument | None:
    """Recognize t as q/p with p <= max_den, else None."""
    if t <= 0.0:
        return None
    frac = Fraction(t).limit_denominator(max_den)
    if frac.numerator < 1:
        return None
    if abs(t - float(frac)) <= _RATIONAL_TOL * max(1.0, t):
        return RationalArgument(frac.numerator, frac.denominator)
    return None


@lru_cache(maxsize=4096)
def _factor_log(xq: int, xp: int, bq: int, bp: int, policy: TruncationPolicy) -> float:
    """Cached ln f(xq/xp, bq/bp); keyed on exact rationals so grid sweeps
    over q reuse the per-p factor tables."""
    est = joint_factor(JointFactorSpec(xq / xp, bq / bp), policy)
    return est.log_value


def log_c_constant(p: int, q: int) -> float:
    """ln C_{p,q} = ln 2pi + (q-1) ln(2 sin(pi/p)) - (q/p) ln(2 pi p)."""
    return math.log(_TWO_PI) + (q - 1) * math.log(2.0 * math.sin(math.pi / p)) - (q / p) * math.log(_TWO_PI * p)


def gamma_rational(arg: RationalArgument, policy: TruncationPolicy = TruncationPolicy()) -> GammaValue:
    """Gamma(q/p) for a reduced fraction with q <= p.

    Fractions that reduce to 1/1 or 1/2 fall outside the product
    factorization (it needs p >= 3) and are served by the exact anchors
    Gamma(1) = 1 and Gamma(1/2) = sqrt(pi).
    """
    q, p = arg.q, arg.p
    if q > p:
        raise DomainError(f"q/p must lie in (0, 1], got {q}/{p}")
    if p == 1:
        return GammaValue(1.0, 0.0, 1.0, "oracle")
    if p == 2:
        v = math.sqrt(math.pi)
        lg = 0.5 * math.log(math.pi)
        return GammaValue(v, lg, math.exp(-lg), "oracle")
    mu = tuple(_factor_log(k, p, 1, p, policy) for k in range(1, q))
    v_terms = tuple(_factor_log(1, p, k, p, policy) for k in range(1, p - 1))
    log_value = log_c_constant(p, q) + math.fsum(mu) - (q / p) * math.fsum(v_terms)
    method = "lemma31" if q == 1 else "theorem31"
    return GammaValue(math.exp(log_value), log_value, math.exp(-log_value), method, (mu, v_terms))


def gamma_inv_p_pow(p: int, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """[Gamma(1/p)]^p = ((2 pi)^{p-1} / p) prod_{k=1}^{p-2} 1/f(1/p, k/p)."""
    if p < 3:
        raise DomainError(f"p must be >= 3, got {p}")
    log_val = (p - 1) * math.log(_TWO_PI) - math.log(p)
    log_val -= math.fsum(_factor_log(1, p, k, p, policy) for k in range(1, p - 1))
    return math.exp(log_val)


def _log_gamma_anchor(t: float, policy: TruncationPolicy) -> float:
    """ln Gamma(t) through the rational product path when t is a small
    fraction (denominator <= 64), else through the reference oracle."""
    frac = _as_small_fraction(t)
    if frac is not None and frac.q <= frac.p:
        return gamma_rational(frac, policy).log_value
    return ref_log_gamma(t)


def gamma_ratio(x: float, b: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(x+b)/Gamma(x) = f(x, b) / Gamma(1-b) for x > 0, 0 <= b < 1."""
    spec = JointFactorSpec(x, b)
    if b == 0.0:
        return 1.0
    log_f = joint_factor(spec, policy).log_value
    return math.exp(log_f - _log_gamma_anchor(1.0 - b, policy))


def gamma_duplication(x: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(2x) = (2^{2x-1} / pi) f(x, 1/2) [Gamma(x)]^2."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    log_f = joint_factor(JointFactorSpec(x, 0.5), policy).log_value
    log_val = (2.0 * x - 1.0) * math.log(2.0) - math.log(math.pi) + log_f + 2.0 * _log_gamma_anchor(x, policy)
    return math.exp(log_val)


def gamma_negative(arg: RationalArgument, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(-q/p) for 0 < q/p < 1, by the reflection chain
    Gamma(-t) = -pi / (t sin(pi t) Gamma(t))."""
    if arg.q >= arg.p:
        raise DomainError(f"need 0 < q/p < 1, got {arg.q}/{arg.p}")
    t = arg.value
    log_gamma_t = gamma_rational(arg, policy).log_value
    return -math.pi / (t * math.sin(math.pi * t) * math.exp(log_gamma_t))


def gamma_negative_duplication(arg: RationalArgument, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Gamma(-q/p) through the half-argument route: with t = 2y,
    Gamma(-2y) = -[2^{-2y} / (sin(2 pi y) y f(y, 1/2))] [pi / Gamma(y)]^2.

    Equal to :func:`gamma_negative` up to rounding; kept as a cross-check.
    """
    if arg.q >= arg.p:
        raise DomainError(f"need 0 < q/p < 1, got {arg.q}/{arg.p}")
    t = arg.value
    y = 0.5 * t
    log_f = joint_factor(JointFactorSpec(y, 0.5), policy).log_value
    log_gamma_y = gamma_rational(RationalArgument(arg.q, 2 * arg.p), policy).log_value
    log_mag = -t * math.log(2.0) - math.log(y) - log_f + 2.0 * (math.log(math.pi) - log_gamma_y)
    return -math.exp(log_mag) / math.sin(math.pi * t)


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
    """Drop the memoized per-p factor tables (mainly for benchmarks)."""
    _factor_log.cache_clear()


__all__ = [
    "RationalArgument",
    "GammaValue",
    "gamma_rational",
    "gamma_inv_p_pow",
    "gamma_ratio",
    "gamma_duplication",
    "gamma_negative",
    "gamma_negative_duplication",
    "beta",
    "beta_partial",
    "log_c_constant",
    "clear_factor_cache",
]
