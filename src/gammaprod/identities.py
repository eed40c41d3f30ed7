"""Infinite-product identities for sin, tan, a power-of-two product, and the
two competing products for [Gamma(1/4)]^2.

All the trigonometric products have factors of the shape
1 + c / [(k+u)(k+v)] = (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)] and reuse the
joint-factor head and exact tail:

* sin(pi x)      = prod (2/(2k-1))^2 (k-x)(k-1+x)            c = -(x-1/2)^2, u = v = -1/2
                                                              r = -x, x-1; d = x-1/2
* tan(pi x)      = prod (2k-2+2x)(2k-2x) / [(2k-1)^2-(2x)^2]  c = x-1/4, u = -1/2-x, v = -1/2+x
                                                              r = x-1, -x; d = 1/2-2x
* 2^{2b-1}/sin(pi b) = prod (k-1/2)(k-1/2+b) / [(k-b)(k-1+2b)]
                                                              c = (1-2b)(1-4b)/4, u = -b, v = 2b-1
                                                              r = -1/2, b-1/2; d = 1/2-b

The quarter products are kept raw (no tail correction) because their point is
the convergence comparison: the classical product starts closer and stays
closer at every truncation order, while the newer one uses only rational
factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .jointfactor import log_head, log_product_tail
from .reference import ref_gamma


@dataclass(frozen=True)
class IdentityCheck:
    """One identity evaluation: product lhs vs closed-form rhs."""

    name: str
    argument: float
    m: int
    lhs: float
    rhs: float
    rel_residual: float


def _product(c: float, u: float, v: float, roots: tuple[float, float, float], m: int, tail: bool) -> float:
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    log_p = log_head(c, u, v, roots, m)
    if tail:
        log_p += log_product_tail(c, *roots, m)
    return math.exp(log_p)


def sin_product(x: float, m: int, tail: bool = True) -> float:
    """sin(pi x) as prod_{k<=m} (2/(2k-1))^2 (k-x)(k-1+x), 0 < x < 1."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    c = -((x - 0.5) * (x - 0.5))
    return _product(c, -0.5, -0.5, (-x, x - 1.0, x - 0.5), m, tail)


def tan_product(x: float, m: int, tail: bool = True) -> float:
    """tan(pi x) as prod_{n<=m} (2n-2+2x)(2n-2x) / [(2n-1)^2 - (2x)^2],
    0 < x < 1/2 (the pole at 1/2 is excluded)."""
    if not 0.0 < x < 0.5:
        raise DomainError(f"x must lie in (0, 1/2), got {x}")
    c = x - 0.25
    return _product(c, -0.5 - x, -0.5 + x, (x - 1.0, -x, 0.5 - 2.0 * x), m, tail)


def pow2_product(b: float, m: int, tail: bool = True) -> float:
    """prod_{n<=m} (n-1/2)(n-1/2+b) / [(n-b)(n-1+2b)] for 0 < b < 1.

    Converges to 2^{2b-1} / sin(pi b); the factors degenerate to 1 at both
    b = 1/4 and b = 1/2.
    """
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    c = (1.0 - 2.0 * b) * (1.0 - 4.0 * b) / 4.0
    return _product(c, -b, 2.0 * b - 1.0, (-0.5, b - 0.5, 0.5 - b), m, tail)


def pow2_reference(b: float) -> float:
    """Closed form 2^{2b-1} / sin(pi b)."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return math.exp((2.0 * b - 1.0) * math.log(2.0)) / math.sin(math.pi * b)


def gamma_quarter_squared(m: int) -> tuple[float, float]:
    """m-partials of the two [Gamma(1/4)]^2 products: (classical, new).

    classical: 4 pi prod (4k-1)/(4k+1) sqrt((2k+1)/(2k-1))
    new:       pi sqrt(2 pi) prod (2k-1)/(2k) (4k-1)/(4k-3)
    Raw partials by design; no tail correction.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    classical, new = quarter_partials(m)
    return classical[-1], new[-1]


def quarter_partials(m_max: int) -> tuple[list[float], list[float]]:
    """Running partial products of both quarter identities for m = 1..m_max."""
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    classical = []
    new = []
    c_acc = 4.0 * math.pi
    n_acc = math.pi * math.sqrt(2.0 * math.pi)
    for k in range(1, m_max + 1):
        c_acc *= (4.0 * k - 1.0) / (4.0 * k + 1.0) * math.sqrt((2.0 * k + 1.0) / (2.0 * k - 1.0))
        n_acc *= (2.0 * k - 1.0) / (2.0 * k) * (4.0 * k - 1.0) / (4.0 * k - 3.0)
        classical.append(c_acc)
        new.append(n_acc)
    return classical, new


def quarter_reference() -> float:
    """[Gamma(1/4)]^2 from the reference oracle."""
    g = ref_gamma(0.25)
    return g * g


_CLOSED_FORMS = {
    "sin": (sin_product, lambda x: math.sin(math.pi * x)),
    "tan": (tan_product, lambda x: math.tan(math.pi * x)),
    "pow2": (pow2_product, pow2_reference),
}


def check_identity(name: str, argument: float, m: int, tail: bool = True) -> IdentityCheck:
    """Evaluate one of the sin/tan/pow2 identities and its residual."""
    if name not in _CLOSED_FORMS:
        raise DomainError(f"unknown identity {name!r}; expected one of {sorted(_CLOSED_FORMS)}")
    product, closed = _CLOSED_FORMS[name]
    lhs = product(argument, m, tail)
    rhs = closed(argument)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return IdentityCheck(name, argument, m, lhs, rhs, rel)
