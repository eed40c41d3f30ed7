"""Shared test helpers: an independent adaptive quadrature, common grids, the
printed closed form of g_2 and the closed-form crossing of app9's K1 >= A
refinement claim."""

from __future__ import annotations

import math


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10, max_depth: int = 60) -> float:
    """Adaptive Simpson quadrature with Richardson correction.

    Independent of every estimator under test; used as the integral oracle.
    """

    def node(lo, flo, mid, fmid, hi, fhi, whole, tol, depth):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = (mid - lo) * (flo + 4.0 * flm + fmid) / 6.0
        right = (hi - mid) * (fmid + 4.0 * frm + fhi) / 6.0
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return node(lo, flo, lm, flm, mid, fmid, left, 0.5 * tol, depth - 1) + node(
            mid, fmid, rm, frm, hi, fhi, right, 0.5 * tol, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return node(a, fa, mid, fm, b, fb, whole, tol, max_depth)


def g2_closed_form(x: float, b: float) -> float:
    """The paper's printed closed form of g_2, a check on the recursion."""
    return b * (1.0 - b - x) * ((b - 1.0) * x + b * b - b + 2.0) / 4.0


def reduced_pairs(p_max: int = 12):
    """All reduced fractions q/p with 3 <= p <= p_max, 1 <= q < p."""
    return [(q, p) for p in range(3, p_max + 1) for q in range(1, p) if math.gcd(q, p) == 1]


def grid(lo: float, hi: float, n: int):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# Euler's constant as a literal, so the helpers below share no code with the package.
_EULER_GAMMA = 0.57721566490153286


def app9_i1_crossing() -> float:
    """The point x* in (0.3, 0.5) where K1(x) = A(x), by float bisection on the
    closed forms K1(x) = (sqrt(pi)/2x)(x+1/2)^{alpha(x+1/2)} and
    A(x) = x^{alpha x - 1}, alpha = 1 - Euler's gamma.

    K1 < A below x* and K1 > A above it on [0.241, 0.5); returns the
    smallest float found at which K1 >= A.
    """
    alpha = 1.0 - _EULER_GAMMA

    def log_k1_over_a(x: float) -> float:
        return (
            math.log(math.sqrt(math.pi) / (2.0 * x))
            + alpha * (x + 0.5) * math.log(x + 0.5)
            - (alpha * x - 1.0) * math.log(x)
        )

    lo, hi = 0.3, 0.5
    assert log_k1_over_a(lo) < 0.0 < log_k1_over_a(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if log_k1_over_a(mid) < 0.0:
            lo = mid
        else:
            hi = mid
