"""Infinite-product identities for sin, tan, a power-of-two product, and the
two competing products for [Gamma(1/4)]^2.

All the trigonometric products have factors of the shape
1 + c / [(k+u)(k+v)] = (k+r1)(k+r2) / [(k+r1+d)(k+r2-d)] and go through
:func:`gammaprod.jointfactor.shifted_product`: the k = 1 factor is formed
from its exact linear terms, so a small x is never rounded away, and the
rest, shifted to j = k-1, have u+1, v+1 and roots r+1 with the same c and d:

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
from .jointfactor import shifted_product
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


def _product(first: float, c: float, u: float, v: float, roots: tuple[float, float, float], m: int, tail: bool) -> float:
    # kept as a name: perfbench/tracer.py traces the identities layer through it
    return shifted_product(first, c, u, v, roots, m, tail)


def sin_product(x: float, m: int, tail: bool = True) -> float:
    """sin(pi x) as prod_{k<=m} (2/(2k-1))^2 (k-x)(k-1+x), 0 < x < 1.

    k = 1 gives 4x(1-x); the rest, j = k-1, have roots 1-x and x."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    first = 4.0 * x * (1.0 - x)
    return _product(first, -((x - 0.5) * (x - 0.5)), 0.5, 0.5, (1.0 - x, x, x - 0.5), m, tail)


def tan_product(x: float, m: int, tail: bool = True) -> float:
    """tan(pi x) as prod_{n<=m} (2n-2+2x)(2n-2x) / [(2n-1)^2 - (2x)^2],
    0 < x < 1/2 (the pole at 1/2 is excluded).

    n = 1 gives x(1-x) / [(1/2-x)(1/2+x)]; the rest, j = n-1, have roots
    x and 1-x."""
    if not 0.0 < x < 0.5:
        raise DomainError(f"x must lie in (0, 1/2), got {x}")
    first = x / (0.5 - x) * ((1.0 - x) / (0.5 + x))
    return _product(first, x - 0.25, 0.5 - x, 0.5 + x, (x, 1.0 - x, 0.5 - 2.0 * x), m, tail)


def pow2_product(b: float, m: int, tail: bool = True) -> float:
    """prod_{n<=m} (n-1/2)(n-1/2+b) / [(n-b)(n-1+2b)] for 0 < b < 1.

    Converges to 2^{2b-1} / sin(pi b); the factors degenerate to 1 at both
    b = 1/4 and b = 1/2.  n = 1 gives (1/2)(1/2+b) / [(1-b) 2b]; the rest,
    j = n-1, have roots 1/2 and b+1/2.
    """
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    c = (1.0 - 2.0 * b) * (1.0 - 4.0 * b) / 4.0
    first = 0.25 / b * ((0.5 + b) / (1.0 - b))
    return _product(first, c, 1.0 - b, 2.0 * b, (0.5, b + 0.5, 0.5 - b), m, tail)


def _sin_pi(x: float) -> float:
    """sin(pi x) on (0, 1), reflected to 1-x (exact) above 1/2."""
    return math.sin(math.pi * min(x, 1.0 - x))


def _tan_pi(x: float) -> float:
    """tan(pi x) on (0, 1/2), as 1/tan(pi (1/2-x)) (exact 1/2-x) above 1/4."""
    return math.tan(math.pi * x) if x <= 0.25 else 1.0 / math.tan(math.pi * (0.5 - x))


def pow2_reference(b: float) -> float:
    """Closed form 2^{2b-1} / sin(pi b)."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return math.exp((2.0 * b - 1.0) * math.log(2.0)) / _sin_pi(b)


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


# The quarter partials are raw running products, kept as two lists: time
# and memory grow with m, so orders beyond this are refused.
QUARTER_M_MAX = 1_000_000


def quarter_partials(m_max: int) -> tuple[list[float], list[float]]:
    """Running partial products of both quarter identities for m = 1..m_max,
    1 <= m_max <= QUARTER_M_MAX."""
    if not 1 <= m_max <= QUARTER_M_MAX:
        raise DomainError(f"m_max must lie in [1, {QUARTER_M_MAX}], got {m_max}")
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
    "sin": (sin_product, _sin_pi),
    "tan": (tan_product, _tan_pi),
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
