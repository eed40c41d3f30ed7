"""The joint factor f(x, b) = Gamma(x+b) Gamma(1-b) / Gamma(x) as a product.

Two interchangeable estimators are exposed:

* ``joint_factor`` evaluates the infinite product
  f(x, b) = prod_{k>=1} k (x+k-1) / [(k-b)(x+k+b-1)], truncated after m
  factors and, depending on the policy, completed by the exact tail,
  bracketed by rigorous bounds, or given the order a tolerance needs.
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
and still equals f_m.  The joint factor's first factor x / [(1-b)(x+b)] is
taken by its own log, which stays exact as x -> 0.  The Beta product and the
trigonometric product identities share the factor shape: :func:`shifted_product`
takes their k = 1 factor from its exact linear terms and their other factors,
with closed-form roots, through the same head and tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import coeffs
from .errors import ConvergenceError, DomainError
from .reference import _psi3, ref_digamma, ref_trigamma

_MODES = ("fixed", "tail_corrected", "bracket", "adaptive")

# Default head length, and the most factors log_head sums.  With the exact
# tail, m = 10 already meets the Gamma(q/p) accuracy over the whole rational
# table (see README); longer heads add rounding, not accuracy.
_DEFAULT_M = 10

# Stirling coefficients B_2j / (2j (2j-1)), j = 1..8, of
# ln Gamma(z) ~ (z-1/2) ln z - z + ln(2 pi)/2 + sum_j B_2j / (2j (2j-1)) z^(1-2j).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
# |B_18| / (18 * 17): for real z > 0 the remainder of that series is
# smaller than the first omitted term, |B_18| / (18 * 17) z^-17.
_STIRLING_NEXT = 43867 / 244188

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
    """How to truncate the product: mode, head length m, adaptive tolerance.

    ``fixed`` keeps the raw m-factor truncate f_m, ``tail_corrected`` adds
    the exact tail, ``bracket`` adds rigorous bounds too.  Every mode costs
    O(min(m, 10)) whatever m: see :func:`log_head`.  ``adaptive`` takes
    the first head of max(m, 16), 4 max(m, 16), ... (capped at ``m_max``)
    whose tail remainder bound is at most ``tol``: an absolute error in
    ln f, which is a relative error in f.
    """

    mode: str = "tail_corrected"
    m: int = _DEFAULT_M
    tol: float = 1e-9
    m_max: int = 10_000_000

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if not 0.0 < self.tol < 1.0:
            raise DomainError(f"tol must lie in (0, 1), got {self.tol}")
        if self.m_max < self.m:
            raise DomainError("m_max must be >= m")


@dataclass(frozen=True)
class Estimate:
    """A product estimate with its log form and optional rigorous bracket."""

    value: float
    log_value: float
    m_used: int
    lower: float | None = None
    upper: float | None = None
    tail_corrected: bool = False


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
    s = 0.0
    for coef in reversed(_STIRLING):
        s = s * t + coef
    return s / z


def log_product_tail(c: float, r1: float, r2: float, d: float, m: int) -> float:
    """Exact sum_{k>m} ln(1 + c/[(k+u)(k+v)]) for factors written as
    (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)], that is u = r1+d and v = r2-d.

    The sum is lnG(m+1+r1+d) - lnG(m+1+r1) + lnG(m+1+r2-d) - lnG(m+1+r2),
    evaluated by the Stirling series; :func:`tail_remainder` bounds the
    error.  The two d ln(z+d) terms are joined into one log of a ratio, so
    nothing of size d ln m cancels, and the ratio's gap (r1+d) - (r2-d) is
    formed without the m offset.  Needs every m+1+r_i and m+1+r_i +- d
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


def tail_remainder(r1: float, r2: float, d: float, m: int) -> float:
    """Bound on the error of :func:`log_product_tail`: the first omitted
    Stirling term at each of its four ln Gamma arguments."""
    return _STIRLING_NEXT * sum((m + 1.0 + a) ** -17 for a in (r1, r1 + d, r2, r2 - d))


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


def log_head(c: float, u: float, v: float, roots: tuple[float, float, float], m: int) -> float:
    """ln of the first m factors 1 + c/[(k+u)(k+v)], whose roots form is
    ``roots`` = (r1, r2, d), at a cost independent of m.

    The first min(m, 10) factors are summed; the rest, factors 11..m, are
    the difference of two exact tails, log_product_tail(10) - log_product_tail(m),
    whose Stirling remainders are below 1e-17.
    """
    n = min(m, _DEFAULT_M)
    total = log_partial_product(c, u, v, n)
    if m > n:
        total += log_product_tail(c, *roots, n) - log_product_tail(c, *roots, m)
    return total


def shifted_product(first: float, c: float, u: float, v: float, roots: tuple[float, float, float], m: int, tail: bool) -> float:
    """A product of m factors whose k = 1 factor is ``first``, the other
    m-1 passed shifted to j = k-1 >= 1 as 1 + c/[(j+u)(j+v)] with roots
    (r1, r2, d); with ``tail``, the whole infinite product, which is the
    first min(m, 11) factors times the exact tail after them.

    Written as 1 + c/D_1, a k = 1 factor that vanishes or blows up with a
    small argument rounds that argument away.  The caller forms ``first``
    from the factor's exact linear terms instead, and the shifted roots never
    build a small argument as (a-1)+1.  ``first`` is kept as a ratio rather
    than a log, so a huge or tiny value does not carry the rounding of a
    large log through exp.  ``DomainError`` if the product lies beyond the
    double range.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if tail:
        n = min(m - 1, _DEFAULT_M)
        log_rest = log_partial_product(c, u, v, n) + log_product_tail(c, *roots, n)
    else:
        log_rest = log_head(c, u, v, roots, m - 1)
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


def _log_truncate(spec: JointFactorSpec, m: int) -> float:
    """ln f_m: the k = 1 factor's log in closed form plus m-1 shifted factors."""
    c, u, v, roots = _shifted(spec)
    if c == 0.0:  # x + b = 1: every factor is 1
        return 0.0
    first = math.log(spec.x / v) - math.log1p(-spec.b)
    return first + log_head(c, u, v, roots, m - 1) if m > 1 else first


def _exp(log_value: float) -> float:
    """exp, with a result beyond the double range as a DomainError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"exp({log_value:.17g}) overflows the double range") from None


def truncate(spec: JointFactorSpec, m: int) -> float:
    """The m-truncate f_m: the product of the first m factors, via logs."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return _exp(_log_truncate(spec, m))


def _bracket(spec: JointFactorSpec, c: float, m: int, log_fm: float) -> tuple[float, float]:
    """Rigorous bounds on f from f_m and an overestimate of the tail.

    D_k = (k-b)(k+x+b-1) >= (k-1)(k-1+x) on the domain and 1/(t(t+x)) is
    convex, so S1 = sum_{k>m} 1/D_k <= sum_{j>=m} 1/(j(j+x)) is at most the
    integral over [m-1/2, inf), log1p(x/h)/x with h = m-1/2: about 1/m for
    small x, ln(x)/x for large x.  The log tail lies between 0 and c S1; for
    negative c the bound is widened by D_{m+1}/(D_{m+1} - |c|), from
    ln(1+y) >= y/(1+y).
    """
    if c == 0.0:
        f = _exp(log_fm)
        return f, f
    h = m - 0.5
    t = spec.x / h
    bound = abs(c) * (math.log1p(t) / t if t > 0.0 else 1.0) / h
    if c > 0.0:
        return _exp(log_fm), _exp(log_fm + bound)
    d_next = (m + 1.0 - spec.b) * (m + spec.x + spec.b)
    if d_next <= abs(c):
        raise DomainError("bracket mode needs m large enough that |c| < D_{m+1}")
    return _exp(log_fm - bound * d_next / (d_next - abs(c))), _exp(log_fm)


def _adaptive_order(spec: JointFactorSpec, policy: TruncationPolicy) -> int:
    """The head length adaptive mode uses: see :class:`TruncationPolicy`.
    The tail after m factors is the shifted product's tail after m-1."""
    roots = _shifted(spec)[3]
    if tail_remainder(*roots, policy.m_max - 1) > policy.tol:
        raise ConvergenceError(
            f"adaptive joint factor for (x={spec.x}, b={spec.b}) "
            f"needs more than m_max={policy.m_max} terms at tol={policy.tol}"
        )
    m = min(max(policy.m, 16), policy.m_max)
    while tail_remainder(*roots, m - 1) > policy.tol:
        m = min(4 * m, policy.m_max)
    return m


def joint_factor(spec: JointFactorSpec, policy: TruncationPolicy = TruncationPolicy()) -> Estimate:
    """Estimate f(x, b) under the given truncation policy.

    b = 0 is the degenerate case f = 1 and returns immediately with
    m_used = 0.  ``ConvergenceError`` is raised in adaptive mode when no
    head up to ``policy.m_max`` meets ``policy.tol``, ``DomainError`` when
    f (or its bracket) lies beyond the double range.
    """
    if spec.b == 0.0:
        one = 1.0
        if policy.mode == "bracket":
            return Estimate(one, 0.0, 0, lower=one, upper=one, tail_corrected=False)
        return Estimate(one, 0.0, 0, tail_corrected=False)
    m = _adaptive_order(spec, policy) if policy.mode == "adaptive" else policy.m
    log_fm = _log_truncate(spec, m)
    if policy.mode == "fixed":
        return Estimate(_exp(log_fm), log_fm, m, tail_corrected=False)
    c, _, _, roots = _shifted(spec)
    log_est = log_fm + log_product_tail(c, *roots, m - 1)
    value = _exp(log_est)
    if policy.mode != "bracket":
        return Estimate(value, log_est, m, tail_corrected=True)
    lower, upper = _bracket(spec, c, m, log_fm)
    return Estimate(value, log_est, m, lower=lower, upper=upper, tail_corrected=True)


def joint_factor_series(spec: JointFactorSpec, N: int) -> float:
    """exp(-sum_{n<=N} g_n(x, b)): the log-series route to f(x, b).

    Converges like N^{-x}, much slower than the corrected product; it exists
    as an independent cross-check and to expose that contrast.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    table = coeffs.g_sequence(spec.x, spec.b, N)
    return math.exp(-coeffs.sum_g(table))
