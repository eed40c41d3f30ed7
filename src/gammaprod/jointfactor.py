"""The joint factor f(x, b) = Gamma(x+b) Gamma(1-b) / Gamma(x) as a product.

Two interchangeable estimators are exposed:

* ``joint_factor`` evaluates the infinite product
  f(x, b) = prod_{k>=1} k (x+k-1) / [(k-b)(x+k+b-1)], truncated after m
  factors and, depending on the policy, corrected for the omitted tail,
  bracketed by rigorous bounds, or grown adaptively.
* ``joint_factor_series`` evaluates exp(-sum g_n(x, b)) from the recursion
  coefficients in :mod:`gammaprod.coeffs`.

Every factor of the product has the shape 1 + c / [(k+u)(k+v)] with
c = b (x+b-1), u = -b, v = x+b-1, so the truncation error is monotone:
partial products decrease to f when 1 - x - b > 0, increase when it is
negative, and are identically 1 on the line x + b = 1.  The tail of the log
product is estimated analytically through

    sum_{k>m} ln(1 + c/D_k)  ~=  c S1 - (c^2 / 2) S2,

where S1 = sum_{k>m} 1/D_k and S2 = sum_{k>m} 1/D_k^2 reduce to psi and
psi' differences by partial fractions.  Both sums are evaluated in a form
that stays accurate as u -> v (midpoint psi'/psi''' expansions), which turns
the raw O(1/m) truncation error into O(c^3/m^4): about 1e-15 relative at
m = 1000 on the working parameter box.  The same machinery serves the Beta
product and the trigonometric product identities, which share the
1 + c/[(k+u)(k+v)] factor shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import coeffs
from .errors import ConvergenceError, DomainError
from .reference import _psi3, ref_digamma, ref_trigamma

_MODES = ("fixed", "tail_corrected", "bracket", "adaptive")

# Taylor switch for the psi-difference quotient; below this the direct
# difference loses ~half its digits to cancellation.
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
    """How to truncate the product: mode, term count m, adaptive tolerance."""

    mode: str = "tail_corrected"
    m: int = 1000
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


def log_product_tail(c: float, u: float, v: float, m: int) -> float:
    """Analytic estimate of sum_{k>m} ln(1 + c/[(k+u)(k+v)]).

    Second order in c; the residual is O(c^3/m^4).
    """
    if c == 0.0:
        return 0.0
    return c * tail_sum_inverse(u, v, m) - 0.5 * c * c * tail_sum_inverse_sq(u, v, m)


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


def _extend_log_partial(c: float, u: float, v: float, start: int, stop: int, total: float, comp: float):
    for k in range(start, stop + 1):
        term = math.log1p(c / ((k + u) * (k + v)))
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total, comp


def _cuv(spec: JointFactorSpec) -> tuple[float, float, float]:
    return spec.b * (spec.x + spec.b - 1.0), -spec.b, spec.x + spec.b - 1.0


def truncate(spec: JointFactorSpec, m: int) -> float:
    """The m-truncate f_m: the product of the first m factors, via logs."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    c, u, v = _cuv(spec)
    return math.exp(log_partial_product(c, u, v, m))


def _bracket(c: float, u: float, v: float, m: int, log_fm: float) -> tuple[float, float]:
    """Rigorous bounds on f from f_m and a cheap overestimate of the tail.

    Uses sum_{k>m} 1/D_k < sum_{j>=m} 1/j^2 = psi'(m) (valid since
    D_k > (k-1)^2 on the domain) and, for negative c, the slack factor
    D_{m+1}/(D_{m+1} - |c|) from ln(1+y) >= y/(1+y).
    """
    if c == 0.0:
        f = math.exp(log_fm)
        return f, f
    bound = abs(c) * ref_trigamma(float(m))
    if c > 0.0:
        return math.exp(log_fm), math.exp(log_fm + bound)
    d_next = (m + 1.0 + u) * (m + 1.0 + v)
    if d_next <= abs(c):
        raise DomainError("bracket mode needs m large enough that |c| < D_{m+1}")
    return math.exp(log_fm - bound * d_next / (d_next - abs(c))), math.exp(log_fm)


def joint_factor(spec: JointFactorSpec, policy: TruncationPolicy = TruncationPolicy()) -> Estimate:
    """Estimate f(x, b) under the given truncation policy.

    b = 0 is the degenerate case f = 1 and returns immediately with
    m_used = 0.  ``ConvergenceError`` is raised if adaptive growth passes
    ``policy.m_max`` without meeting ``policy.tol``.
    """
    if spec.b == 0.0:
        one = 1.0
        if policy.mode == "bracket":
            return Estimate(one, 0.0, 0, lower=one, upper=one, tail_corrected=False)
        return Estimate(one, 0.0, 0, tail_corrected=False)
    c, u, v = _cuv(spec)

    if policy.mode == "adaptive":
        m = min(max(policy.m, 16), policy.m_max)
        total, comp = _extend_log_partial(c, u, v, 1, m, 0.0, 0.0)
        while True:
            tail = log_product_tail(c, u, v, m)
            log_est = total + tail
            tail_mag = abs(c) * tail_sum_inverse(u, v, m)
            threshold = policy.tol * abs(log_est)
            if tail_mag <= threshold or c == 0.0:
                return Estimate(math.exp(log_est), log_est, m, tail_corrected=True)
            # the raw tail decays like 1/m, so the order needed is predictable;
            # fail fast when it provably exceeds the cap
            if m >= policy.m_max or (threshold > 0.0 and m * tail_mag / threshold > 8.0 * policy.m_max):
                raise ConvergenceError(
                    f"adaptive joint factor for (x={spec.x}, b={spec.b}) "
                    f"needs more than m_max={policy.m_max} terms at tol={policy.tol}"
                )
            new_m = min(m * 4, policy.m_max)
            total, comp = _extend_log_partial(c, u, v, m + 1, new_m, total, comp)
            m = new_m

    m = policy.m
    log_fm = log_partial_product(c, u, v, m)
    if policy.mode == "fixed":
        return Estimate(math.exp(log_fm), log_fm, m, tail_corrected=False)
    log_est = log_fm + log_product_tail(c, u, v, m)
    if policy.mode == "tail_corrected":
        return Estimate(math.exp(log_est), log_est, m, tail_corrected=True)
    lower, upper = _bracket(c, u, v, m, log_fm)
    return Estimate(math.exp(log_est), log_est, m, lower=lower, upper=upper, tail_corrected=True)


def joint_factor_series(spec: JointFactorSpec, N: int) -> float:
    """exp(-sum_{n<=N} g_n(x, b)): the log-series route to f(x, b).

    Converges like N^{-x}, much slower than the corrected product; it exists
    as an independent cross-check and to expose that contrast.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    table = coeffs.g_sequence(spec.x, spec.b, N)
    return math.exp(-coeffs.sum_g(table))
