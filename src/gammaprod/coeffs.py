"""Coefficients of the log series behind the joint-factor products.

``g_sequence`` builds the sequence g_n(x, b) with
ln F = sum g_n t^n for the gauss-type series F of parameters
(1 - x - b, b, 1), by the quadratic recursion

    (n+1)^2 g_{n+1} = n (n + 1 - x - g_1) g_n
                      + sum_{k=0}^{n-2} (k+1) g_{k+1} [(n-k-1) g_{n-k-1} - (n-k) g_{n-k}]

seeded only with g_1 = b(1 - b - x).  ``g_sequence_oracle`` rebuilds the same
numbers independently, by generating the series coefficients c_n of F term by
term and unwinding the exp/log convolution n c_n = sum_j j g_j c_{n-j}; the
two paths share no arithmetic and are held to 1e-10 agreement in the tests.

``h_sequence`` / ``h_closed`` give the x-derivative of g_n on the line
x = 1 - b, where g_n itself vanishes identically:
h_1 = -b, (n+1)^2 h_{n+1} = n (n+b) h_n, with the closed form
h_n = -(b)_n / (n * n!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_int


@dataclass(frozen=True)
class CoeffTable:
    """Log-series coefficients g_1..g_N at parameters (x, b)."""

    x: float
    b: float
    N: int
    g: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.g) != self.N:
            raise DomainError("coefficient count does not match N")


@dataclass(frozen=True)
class DerivTable:
    """Derivative coefficients h_1..h_N at the vanishing line x = 1 - b."""

    b: float
    N: int
    h: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.h) != self.N:
            raise DomainError("coefficient count does not match N")


# Both routes cost O(N^2): N = 2000 takes about a second for the pair, so
# longer sequences are refused.
N_MAX = 2000


def _validate(x: float, b: float, N: int) -> None:
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if not 0.0 <= b < 1.0:
        raise DomainError(f"b must lie in [0, 1), got {b}")
    check_int(N, "N", 1, N_MAX)


def _finite(g: list[float], x: float, N: int) -> tuple[float, ...]:
    """g as a tuple; a coefficient beyond the double range (g_n grows like
    x^n) is a DomainError, not an inf or a NaN."""
    if not all(map(math.isfinite, g)):
        raise DomainError(f"g_1..g_{N} exceed the double range at x = {x!r}")
    return tuple(g)


def g_sequence(x: float, b: float, N: int) -> CoeffTable:
    """g_1..g_N by the quadratic recursion, seeded with g_1 = b(1-b-x).

    b = 0 short-circuits to the zero sequence (the series degenerates to 1),
    and x = 1 - b yields exact zeros because g_1 does.
    """
    _validate(x, b, N)
    if b == 0.0:
        return CoeffTable(x, b, N, (0.0,) * N)
    g1 = b * (1.0 - b - x)
    g = [g1]
    try:
        for n in range(1, N):
            # convolution terms carry cancellations; sum them exactly
            terms = [n * (n + 1.0 - x - g1) * g[n - 1]]
            for k in range(0, n - 1):
                terms.append((k + 1) * g[k] * ((n - k - 1) * g[n - k - 2] - (n - k) * g[n - k - 1]))
            g.append(math.fsum(terms) / ((n + 1.0) * (n + 1.0)))
    except (OverflowError, ValueError):  # fsum meets an overflow, or inf - inf
        g.append(math.inf)  # rejected by _finite below
    return CoeffTable(x, b, N, _finite(g, x, N))


def g_sequence_oracle(x: float, b: float, N: int) -> CoeffTable:
    """g_1..g_N by the independent series/convolution route.

    Taylor coefficients of the underlying series: c_0 = 1 and
    c_n = c_{n-1} (a + n - 1)(b + n - 1) / n^2 with a = 1 - x - b; then
    g_n = (n c_n - sum_{j<n} j g_j c_{n-j}) / n.
    """
    _validate(x, b, N)
    a = 1.0 - x - b
    c = [1.0]
    for n in range(1, N + 1):
        c.append(c[n - 1] * (a + n - 1.0) * (b + n - 1.0) / (n * n))
    g: list[float] = []
    try:
        for n in range(1, N + 1):
            terms = [n * c[n]]
            for j in range(1, n):
                terms.append(-j * g[j - 1] * c[n - j])
            g.append(math.fsum(terms) / n)
    except (OverflowError, ValueError):  # fsum meets an overflow, or inf - inf
        g.append(math.inf)  # rejected by _finite below
    return CoeffTable(x, b, N, _finite(g, x, N))


def pochhammer(b: float, n: int) -> float:
    """Rising factorial (b)_n = b (b+1) ... (b+n-1), by direct product."""
    check_int(n, "n", 0)
    out = 1.0
    for i in range(n):
        out *= b + i
    return out


def h_closed(n: int, b: float) -> float:
    """h_n = -(b)_n / (n * n!) for n >= 1 and 0 < b < 1."""
    check_int(n, "n", 1)
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    return -pochhammer(b, n) / (n * math.factorial(n))


def h_sequence(b: float, N: int) -> DerivTable:
    """h_1..h_N from the one-seed recursion (n+1)^2 h_{n+1} = n (n+b) h_n."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must lie in (0, 1), got {b}")
    check_int(N, "N", 1)
    h = [-b]
    for n in range(1, N):
        h.append(n * (n + b) * h[n - 1] / ((n + 1.0) * (n + 1.0)))
    return DerivTable(b, N, tuple(h))


def sum_g(table: CoeffTable) -> float:
    """Exactly rounded sum of a coefficient table."""
    return math.fsum(table.g)
