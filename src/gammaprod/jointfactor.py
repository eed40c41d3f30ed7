"""The joint factor f(x, b) = Gamma(x+b) Gamma(1-b) / Gamma(x) as a product.

Two interchangeable estimators are exposed:

* ``joint_factor`` evaluates the infinite product
  f(x, b) = prod_{k>=1} k (x+k-1) / [(k-b)(x+k+b-1)]: its m-factor
  truncate in fixed mode, and in tail mode the whole product.
  ``joint_factor_bracket`` bounds f from the m-factor truncate.
* ``joint_factor_series`` evaluates exp(-sum g_n(x, b)) from the recursion
  coefficients in :mod:`gammaprod.coeffs`.

Every factor of the product has the shape 1 + c / [(k+u)(k+v)] with
c = b (x+b-1), u = -b, v = x+b-1, so the truncation error is monotone:
partial products decrease to f when 1 - x - b > 0, increase when it is
negative, and are identically 1 on the line x + b = 1.  The same factors
read (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)] with real roots r1 = 0, r2 = x-1
and shift d = -b, so the log of the omitted tail is exactly

    sum_{k>m} ln(1 + c/D_k) = sum_i [ln Gamma(m+1+r_i+d_i) - ln Gamma(m+1+r_i)],

with d_1 = d, d_2 = -d.  Each difference is evaluated by the Stirling series
(DLMF 5.11.1; Tricomi and Erdelyi, Pacific J. Math. 1 (1951) 133-142), so a
head of about ten factors gives full double precision for every x > 0.

The same tails give any head in closed form: :func:`log_head` sums at most
ten factors and takes factors 11..m as the difference of the tails after 10
and after m, so an m-factor truncate costs the same for m = 10 and m = 10^9
and still equals f_m; with the tail it is the whole product, ten factors
and the exact tail after them, whatever m is.  The joint factor's first
factor x / [(1-b)(x+b)] is taken by its own log, exact as x -> 0.  Beta and
the trigonometric products share the factor shape: :func:`shifted_product`
takes their k = 1 factor from its exact linear terms and the rest, with
closed-form roots, through the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import coeffs
from .errors import HEAD_MAX, DomainError, check_int
from .reference import _psi3, ref_digamma, ref_trigamma

_MODES = ("fixed", "tail_corrected")

# Default head length, and the factors log_head sums before an exact tail.
# With the exact tail, m = 10 already meets the Gamma(q/p) accuracy over the
# whole rational table (see README); longer heads add rounding, not accuracy.
_DEFAULT_M = 10

# Stirling coefficients B_2j / (2j (2j-1)), j = 1..8, of
# ln Gamma(z) ~ (z-1/2) ln z - z + ln(2 pi)/2 + sum_j B_2j / (2j (2j-1)) z^(1-2j).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_S1, _S2, _S3, _S4, _S5, _S6, _S7, _S8 = _STIRLING

# Taylor switch for the psi-difference quotient of tail_sum_inverse.
_DELTA_SWITCH = 0.5


@dataclass(frozen=True)
class JointFactorSpec:
    """Arguments (x, b) of a joint factor, finite x > 0 and 0 <= b < 1."""

    x: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.x < math.inf:
            raise DomainError(f"x must be positive and finite, got {self.x}")
        if not 0.0 <= self.b < 1.0:
            raise DomainError(f"b must lie in [0, 1), got {self.b}")

    @property
    def sigma(self) -> float:
        """Sign of 1 - x - b: +1 means truncates over-estimate, -1 under."""
        d = 1.0 - self.x - self.b
        return math.copysign(1.0, d) if d != 0.0 else 0.0


@dataclass(frozen=True)
class TruncationPolicy:
    """How to truncate the product: mode and head length m.

    ``fixed`` keeps the raw m-factor truncate f_m.  ``tail_corrected``
    evaluates the whole product, the same number whatever m is: m sets only
    ``m_used``.  Both modes cost O(10): see :func:`log_head`.
    """

    mode: str = "tail_corrected"
    m: int = _DEFAULT_M

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        check_int(self.m, "m", 1, HEAD_MAX)


@dataclass(frozen=True)
class Estimate:
    """A product estimate with its log form and the head length it used."""

    value: float
    log_value: float
    m_used: int


# tail_sum_inverse, tail_sum_inverse_sq and _extend_log_partial belong to the
# psi-based tail and the growing head that the exact tail replaced.  No
# product calls them; they stay while perfbench/tracer.py reads its
# jointfactor metrics through their names.

def tail_sum_inverse(u: float, v: float, m: int) -> float:
    """S1 = sum_{k>m} 1 / [(k+u)(k+v)] for m+1+u > 0, m+1+v > 0.

    For well separated u, v this is [psi(m+1+v) - psi(m+1+u)] / (v - u); as
    v -> u the quotient is replaced by its midpoint expansion
    psi'(c0) + (delta^2/24) psi'''(c0), which is exact in the limit.
    """
    delta = v - u
    if abs(delta) >= _DELTA_SWITCH:
        return (ref_digamma(m + 1.0 + v) - ref_digamma(m + 1.0 + u)) / delta
    c0 = m + 1.0 + 0.5 * (u + v)
    h = 0.5 * delta
    return ref_trigamma(c0) + (h * h / 6.0) * _psi3(c0)


def tail_sum_inverse_sq(u: float, v: float, m: int) -> float:
    """S2 = sum_{k>m} 1 / [(k+u)(k+v)]^2, same uniform treatment."""
    delta = v - u
    if abs(delta) >= _DELTA_SWITCH:
        s1 = tail_sum_inverse(u, v, m)
        return (ref_trigamma(m + 1.0 + u) + ref_trigamma(m + 1.0 + v) - 2.0 * s1) / (delta * delta)
    c0 = m + 1.0 + 0.5 * (u + v)
    return _psi3(c0) / 6.0


def _stirling_sum(z: float) -> float:
    """sum_{j=1..8} B_2j / (2j (2j-1)) z^(1-2j), by Horner in 1/z^2."""
    t = 1.0 / (z * z)
    return (((((((_S8 * t + _S7) * t + _S6) * t + _S5) * t + _S4) * t + _S3) * t + _S2) * t + _S1) / z


def log_product_tail(c: float, r1: float, r2: float, d: float, m: int) -> float:
    """Exact sum_{k>m} ln(1 + c/[(k+u)(k+v)]) for factors written as
    (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)], that is u = r1+d and v = r2-d.

    The sum is lnG(m+1+r1+d) - lnG(m+1+r1) + lnG(m+1+r2-d) - lnG(m+1+r2),
    evaluated by the Stirling series, whose remainder at each argument z is
    below its first omitted term |B_18| / (18 * 17) z^-17.  The two
    d ln(z+d) terms are joined into one log of a ratio, so nothing of size
    d ln m cancels, and the ratio's gap (r1+d) - (r2-d) is formed without
    the m offset.  Needs every m+1+r_i and m+1+r_i +- d
    positive; ``c`` is only tested for 0, where every factor is 1.
    """
    if c == 0.0:
        return 0.0
    z1 = m + 1.0 + r1
    z2 = m + 1.0 + r2
    w1 = z1 + d
    w2 = z2 - d
    ratio = ((r1 + d) - (r2 - d)) / w2  # w1/w2 - 1
    log_w = math.log1p(ratio) if abs(ratio) < 0.5 else math.log(w1 / w2)
    return (
        (z1 - 0.5) * math.log1p(d / z1)
        + (z2 - 0.5) * math.log1p(-d / z2)
        + d * log_w
        + (_stirling_sum(w1) - _stirling_sum(z1))
        + (_stirling_sum(w2) - _stirling_sum(z2))
    )


def log_partial_product(c: float, u: float, v: float, m: int) -> float:
    """ln prod_{k=1}^{m} (1 + c/[(k+u)(k+v)]), compensated accumulation."""
    if c == 0.0:
        return 0.0
    total = 0.0
    comp = 0.0
    for k in range(1, m + 1):
        term = math.log1p(c / ((k + u) * (k + v)))
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total


def log_head(c: float, u: float, v: float, roots: tuple[float, float, float], m: int, tail: bool = False) -> float:
    """ln of the first m factors 1 + c/[(k+u)(k+v)], whose roots form is
    ``roots`` = (r1, r2, d), or with ``tail`` of the whole product, at a
    cost independent of m.

    With ``tail`` m is not read: ten factors are summed and the exact tail
    after them follows.  Else the first min(m, 10) factors are summed and
    factors 11..m follow as log_product_tail(10) - log_product_tail(m).
    Stirling remainders are below 1e-17 from 10 on.
    """
    if tail:
        return log_partial_product(c, u, v, _DEFAULT_M) + log_product_tail(c, *roots, _DEFAULT_M)
    n = min(m, _DEFAULT_M)
    total = log_partial_product(c, u, v, n)
    if m > n:
        total += log_product_tail(c, *roots, n) - log_product_tail(c, *roots, m)
    return total


def shifted_product(first: float, c: float, u: float, v: float, roots: tuple[float, float, float], m: int, tail: bool) -> float:
    """A product of m factors whose k = 1 factor is ``first``, the other
    m-1 passed shifted to j = k-1 >= 1 as 1 + c/[(j+u)(j+v)] with roots
    (r1, r2, d); with ``tail``, the whole infinite product, which is the
    first 11 factors times the exact tail after them, whatever m is.

    Written as 1 + c/D_1, a k = 1 factor that vanishes or blows up with a
    small argument rounds that argument away.  The caller forms ``first``
    from the factor's exact linear terms instead, and the shifted roots never
    build a small argument as (a-1)+1.  ``first`` is kept as a ratio rather
    than a log, so a huge or tiny value does not carry the rounding of a
    large log through exp.  ``DomainError`` if the product lies beyond the
    double range.
    """
    check_int(m, "m", 1, HEAD_MAX)
    log_rest = log_head(c, u, v, roots, m - 1, tail)
    value = first * _exp(log_rest)
    if not math.isfinite(value):
        raise DomainError(f"the product {first!r} * exp({log_rest:.17g}) overflows the double range")
    return value


def _extend_log_partial(c: float, u: float, v: float, start: int, stop: int, total: float, comp: float):
    for k in range(start, stop + 1):
        term = math.log1p(c / ((k + u) * (k + v)))
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total, comp


# The joint factor's product is taken as its k = 1 factor x / [(1-b)(x+b)]
# times the shifted product over j = k-1 >= 1 of (j+1)(j+x) / [(j+1-b)(j+x+b)]:
# c = b (x+b-1), u = 1-b, v = x+b, roots 1 and x, shift d = -b.  At tiny x
# the unshifted c/D_1 rounds to -1, and x-1 loses x; the shifted form never
# builds x as (x-1)+1.

def _shifted(spec: JointFactorSpec) -> tuple[float, float, float, tuple[float, float, float]]:
    """c, u, v and the roots (r1, r2, d) of the shifted factors."""
    x, b = spec.x, spec.b
    return b * (x + b - 1.0), 1.0 - b, x + b, (1.0, x, -b)


def _log_first(x: float, b: float) -> float:
    """ln of the k = 1 factor x / [(1-b)(x+b)], that is ln f_1(x, b)."""
    return math.log(x / (x + b)) - math.log1p(-b)


def _log_truncate(spec: JointFactorSpec, m: int, tail: bool = False) -> float:
    """ln f_m, or with ``tail`` ln f: the k = 1 factor's log in closed form
    plus m-1 shifted factors (and with ``tail`` the rest of the product)."""
    c, u, v, roots = _shifted(spec)
    if c == 0.0 and math.fsum((spec.x, spec.b, -1.0)) == 0.0:  # x + b = 1 exactly: every factor is 1
        return 0.0
    return _log_first(spec.x, spec.b) + log_head(c, u, v, roots, m - 1, tail)


def _exp(log_value: float) -> float:
    """exp, with a result beyond the double range as a DomainError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"exp({log_value:.17g}) overflows the double range") from None


def truncate(spec: JointFactorSpec, m: int) -> float:
    """The m-truncate f_m: the product of the first m factors, via logs."""
    check_int(m, "m", 1, HEAD_MAX)
    return _exp(_log_truncate(spec, m))


def joint_factor_bracket(spec: JointFactorSpec, m: int) -> tuple[float, float]:
    """Bounds lower <= f(x, b) <= upper from the truncate f_m and an
    overestimate of the tail after it.

    D_k = (k-b)(k+x+b-1) >= (k-1)(k-1+x) on the domain and 1/(t(t+x)) is
    convex, so S1 = sum_{k>m} 1/D_k <= sum_{j>=m} 1/(j(j+x)) is at most the
    integral over [m-1/2, inf), log1p(x/h)/x with h = m-1/2: about 1/m for
    small x, ln(x)/x for large x.  The log tail lies between 0 and c S1; for
    negative c the bound is widened by D_{m+1}/(D_{m+1} - |c|), from
    ln(1+y) >= y/(1+y); it is finite, as c < 0 means |c| = b (1-x-b) < 1 < D_{m+1}.

    For rounding, the log ends move out by 8u M, u = 2^-53 and M = 4 + |ln f_m|
    + |ln(1-b)| + b ln(1+x) + bound: ln f_m sums ln(x/(x+b)), -ln(1-b) and the
    shifted factors' log, whose terms reach b ln(1+x), none above M; 8u is
    three times the largest error measured against mpmath, and its constant
    part covers exp's rounding, as one nextafter step out does among
    subnormals.  ``DomainError`` when an end lies beyond the double range.
    """
    check_int(m, "m", 1, HEAD_MAX)
    if spec.b == 0.0:  # f = 1 exactly
        return 1.0, 1.0
    c = _shifted(spec)[0]
    log_fm = _log_truncate(spec, m)
    h = m - 0.5
    t = spec.x / h
    bound = abs(c) * (math.log1p(t) / t if t > 0.0 else 1.0) / h
    if c < 0.0:
        d_next = (m + 1.0 - spec.b) * (m + spec.x + spec.b)
        bound *= d_next / (d_next - abs(c))
    budget = 8.0 * 2.0**-53 * (4.0 + abs(log_fm) - math.log1p(-spec.b) + spec.b * math.log1p(spec.x) + bound)
    low, high = (log_fm, log_fm + bound) if c > 0.0 else (log_fm - bound, log_fm)
    return math.nextafter(_exp(low - budget), 0.0), math.nextafter(_exp(high + budget), math.inf)


def joint_factor(spec: JointFactorSpec, policy: TruncationPolicy = TruncationPolicy()) -> Estimate:
    """Estimate f(x, b) under the given truncation policy.

    b = 0 is the degenerate case f = 1 and returns immediately with
    m_used = 0.  ``DomainError`` when f lies beyond the double range.
    """
    if spec.b == 0.0:
        return Estimate(1.0, 0.0, 0)
    log_value = _log_truncate(spec, policy.m, tail=policy.mode != "fixed")
    return Estimate(_exp(log_value), log_value, policy.m)


def joint_factor_series(spec: JointFactorSpec, N: int) -> float:
    """exp(-sum_{n<=N} g_n(x, b)): the log-series route to f(x, b).

    Converges like N^{-x}, much slower than the corrected product; it exists
    as an independent cross-check and to expose that contrast.
    """
    table = coeffs.g_sequence(spec.x, spec.b, N)
    return math.exp(-coeffs.sum_g(table))
