"""Bound families derived from truncated joint-factor products, plus the
grid harness that verifies each claimed inequality and reports violations.

Suites (tags used by the CLI and by :func:`verify_suite`):

* app1  - m = 1 truncate bounds on Gamma(1/p) and Gamma(-1/p)
* app5  - Gamma(a) < 1/a on (0, 1)
* app6  - Beta product partials bound B(x, y) from below (x < 1) / above (x > 1)
* app7  - unit-ball volume ratios bracketed by s/m-truncate products
* app8  - Wallis integrals I_a = (1/a) f(a/2, 1/2) and their truncate bounds
* app9  - power-law Gamma bounds A/D/E and the truncate-based refinements K_m, L_m
* app10 - Stirling/Noerlund remainders, Schuster's bounds and their improvement

Margins are signed so that positive means the claimed strict inequality holds
with that much slack; a violation is any point with margin <= 0.  The harness
asserts claims exactly as stated, so a false claim shows up as a nonzero
violation count rather than being silently repaired (app9's two refinement
intervals are the known case: see the report notes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import DomainError
from .gamma import beta_partial
from .jointfactor import JointFactorSpec, TruncationPolicy, joint_factor, truncate
from .reference import EULER_GAMMA, ref_gamma, ref_log_gamma

_SQRT_PI = math.sqrt(math.pi)
_LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AlzerConstants:
    """The exponent constants of the power-law Gamma bounds."""

    alpha: float = 1.0 - EULER_GAMMA
    beta: float = (math.pi * math.pi - 6.0 * EULER_GAMMA) / 12.0


@dataclass(frozen=True)
class StirlingDecomposition:
    """Stirling remainder mu(x) and the half-shift remainder v(x):

    Gamma(x)     = sqrt(2 pi) x^{x-1/2} e^{-x} e^{mu(x)}
    Gamma(x+1/2) = sqrt(2 pi) x^x       e^{-x} e^{v(x)}
    """

    x: float
    mu: float
    v: float


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one verification suite over a grid."""

    suite: str
    grid: str
    violations: int
    worst_margin: float
    holds: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class App1Result:
    """m = 1 bounds for Gamma(+-1/p) and the directions that actually hold."""

    p: int
    bound_pos: float
    bound_neg: float
    gamma_pos: float
    gamma_neg: float
    pos_direction: str
    neg_direction: str


def uniform_grid(lo: float, hi: float, points: int, include_lo: bool = True, include_hi: bool = True) -> list[float]:
    """Deterministic uniform grid on [lo, hi]; endpoints dropped on request
    (pole / equality cases)."""
    if points < 1:
        raise DomainError("points must be >= 1")
    if hi <= lo:
        raise DomainError("need hi > lo")
    step = (hi - lo) / (points - 1) if points > 1 else 0.0
    xs = [lo + i * step for i in range(points)] if points > 1 else [lo]
    if not include_lo:
        xs = [x for x in xs if x > lo]
    if not include_hi:
        xs = [x for x in xs if x < hi]
    return xs


# ---------------------------------------------------------------------------
# bound families
# ---------------------------------------------------------------------------

def app1_bounds(p: int) -> App1Result:
    """m = 1 truncate bounds at 1/p.

    bound_pos = (2 pi / p)^{1 - 1/p} [(p-1)!]^{2/p} comes from truncating
    every factor of the [Gamma(1/p)]^p product at one term; since those
    truncates over-estimate their joint factors, bound_pos under-estimates
    Gamma(1/p): it is a lower bound (the report records the direction that
    actually holds).  bound_neg = -[pi / sin(pi/p)] (2 pi)^{1 - 1/p} is a
    crude lower bound of Gamma(-1/p).
    """
    if p < 3:
        raise DomainError(f"p must be >= 3, got {p}")
    log_pos = (1.0 - 1.0 / p) * math.log(2.0 * math.pi / p) + (2.0 / p) * ref_log_gamma(float(p))
    bound_pos = math.exp(log_pos)
    bound_neg = -(math.pi / math.sin(math.pi / p)) * (2.0 * math.pi) ** (1.0 - 1.0 / p)
    gamma_pos = ref_gamma(1.0 / p)
    gamma_neg = -math.pi / ((1.0 / p) * math.sin(math.pi / p) * gamma_pos)
    return App1Result(
        p,
        bound_pos,
        bound_neg,
        gamma_pos,
        gamma_neg,
        "lower" if bound_pos < gamma_pos else "upper",
        "lower" if bound_neg < gamma_neg else "upper",
    )


def app5_upper(alpha: float) -> float:
    """The (0, 1) envelope 1/alpha; Gamma(alpha) stays strictly below it."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return 1.0 / alpha


def app6_beta_bound(x: float, y: float, m: int) -> float:
    """m-partial of the Beta product; bounds B(x, y) from below for x < 1
    and from above for x > 1 (x = 1 is the all-ones equality case)."""
    if x == 1.0:
        raise DomainError("x = 1 makes every factor 1; the strict bound is void")
    return beta_partial(x, y, m)


def app7_ball_ratio(n: int, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Ratio of consecutive unit-ball volumes: O_{n-1}/O_n = f((n+1)/2, 1/2)/pi."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return joint_factor(JointFactorSpec((n + 1.0) / 2.0, 0.5), policy).value / math.pi


def app7_bounds(n: int, s: int, m: int) -> tuple[float, float]:
    """(lower, upper) for O_{n-1}/O_n.

    lower = f_s((n+1)/2, 1/2) / pi  (that truncate under-estimates), written
    out as (1/pi) prod_{k<=s} 2k (n+2k-1) / [(2k-1)(n+2k)];
    upper = (n/2) prod_{k<=m} [(2k-1)/2k] [(2k+n-1)/(2k+n-2)], with equality
    only at n = 1.
    """
    if n < 1 or s < 1 or m < 1:
        raise DomainError("n, s, m must all be >= 1")
    lower = 1.0 / math.pi
    for k in range(1, s + 1):
        lower *= 2.0 * k * (n + 2.0 * k - 1.0) / ((2.0 * k - 1.0) * (n + 2.0 * k))
    upper = 0.5 * n
    for k in range(1, m + 1):
        upper *= (2.0 * k - 1.0) / (2.0 * k) * (2.0 * k + n - 1.0) / (2.0 * k + n - 2.0)
    return lower, upper


def app8_wallis(alpha: float, policy: TruncationPolicy = TruncationPolicy()) -> float:
    """Wallis integral I_alpha = int_0^{pi/2} sin^alpha = (1/alpha) f(alpha/2, 1/2)."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return joint_factor(JointFactorSpec(alpha / 2.0, 0.5), policy).value / alpha


def app8_bound(alpha: float, m: int) -> float:
    """(1/alpha) f_m(alpha/2, 1/2): upper bound of I_alpha on (0, 1),
    lower bound on (1, inf); m = 1 gives the closed form 2/(alpha+1)."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return truncate(JointFactorSpec(alpha / 2.0, 0.5), m) / alpha


def app9_alzer(x: float, constants: AlzerConstants = AlzerConstants()) -> tuple[float, float, float]:
    """The power-law bounds (A, D, E)(x) = x^(ax-1), x^(b(x-1)-g), x^(x-1-g).

    A < Gamma < D holds on (0, 1) and D < Gamma < E on (1, inf); the harness
    restricts each to its interval.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    a = x ** (constants.alpha * x - 1.0)
    d = x ** (constants.beta * (x - 1.0) - EULER_GAMMA)
    e = x ** (x - 1.0 - EULER_GAMMA)
    return a, d, e


def app9_refined(x: float, m: int, constants: AlzerConstants = AlzerConstants()) -> tuple[float, float]:
    """(K_m, L_m)(x) = sqrt(pi) A(x+1/2) / f_m(x, 1/2), sqrt(pi) E(x+1/2) / f_m(x, 1/2).

    K_m is a lower bound of Gamma on (0, 1/2), L_m an upper bound on
    (1/2, inf); both tighten monotonically in m.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    fm = truncate(JointFactorSpec(x, 0.5), m)
    a, _, e = app9_alzer(x + 0.5, constants)
    return _SQRT_PI * a / fm, _SQRT_PI * e / fm


def app10_stirling(x: float) -> StirlingDecomposition:
    """mu(x) and v(x) from the reference oracle."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    lx = math.log(x)
    mu = ref_log_gamma(x) - (0.5 * _LN_2PI + (x - 0.5) * lx - x)
    v = ref_log_gamma(x + 0.5) - (0.5 * _LN_2PI + x * lx - x)
    return StirlingDecomposition(x, mu, v)


def schuster_bounds(x: float) -> tuple[float, float]:
    """(-1/24)[1/x + 1/(120 x^3)] <= v(x) <= (-1/24)[1/x - 1/(8 x^3)]."""
    inv = 1.0 / x
    cube = inv ** 3
    return (-1.0 / 24.0) * (inv + cube / 120.0), (-1.0 / 24.0) * (inv - cube / 8.0)


def app10_truncate_rhs(x: float) -> float:
    """ln[f_1(x, 1/2) / sqrt(pi x)] = ln[4 sqrt(x) / ((1+2x) sqrt(pi))]:
    the m = 1 bound on v(x) - mu(x) (upper for x < 1/2, lower for x > 1/2)."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return math.log(4.0 * math.sqrt(x) / ((1.0 + 2.0 * x) * _SQRT_PI))


def app10_mu_lower(x: float) -> float:
    """Lower bound of mu(x) on (0, 1/2): Schuster's lower envelope of v(x)
    minus the m = 1 bound on v - mu; positive exactly from x ~ 0.1431 on."""
    return schuster_bounds(x)[0] - app10_truncate_rhs(x)


# ---------------------------------------------------------------------------
# per-point margin functions
# ---------------------------------------------------------------------------

_APP1_POS = "Gamma(1/p) > bound (lower-bound direction)"

def _app1_margins(p: int) -> list[tuple[str, float]]:
    r = app1_bounds(p)
    return [(_APP1_POS, r.gamma_pos - r.bound_pos), ("Gamma(-1/p) > bound", r.gamma_neg - r.bound_neg)]

def _app5_margins(alpha: float) -> list[tuple[str, float]]:
    return [("gamma < 1/alpha", app5_upper(alpha) - ref_gamma(alpha))]

def _app6_margins(y: float, xs: tuple[float, ...], ms: tuple[int, ...]) -> list[tuple[str, float]]:
    out = []
    for x in xs:
        b_true = math.exp(ref_log_gamma(x) + ref_log_gamma(y) - ref_log_gamma(x + y))
        for m in ms:
            part = app6_beta_bound(x, y, m)
            if x < 1.0:
                out.append((f"B > partial (x={x:g}, m={m})", b_true - part))
            else:
                out.append((f"B < partial (x={x:g}, m={m})", part - b_true))
    return out

def _app7_margins(n: int, s: int, m: int, eq_tol: float) -> list[tuple[str, float]]:
    ratio = app7_ball_ratio(n)
    lower, upper = app7_bounds(n, s, m)
    out = [("lower < ratio", ratio - lower)]
    if n == 1:
        # stated equality case: flagged, not a strict-violation candidate
        out.append(("upper == ratio at n=1", eq_tol - abs(upper - ratio)))
    else:
        out.append(("ratio < upper", upper - ratio))
    return out

def _app8_margins(alpha: float, m: int) -> list[tuple[str, float]]:
    i_alpha = app8_wallis(alpha)
    bound = app8_bound(alpha, m)
    out = []
    if alpha < 1.0:
        out.append((f"I < bound (alpha={alpha:g})", bound - i_alpha))
    elif alpha > 1.0:
        out.append((f"I > bound (alpha={alpha:g})", i_alpha - bound))
        trig_lo = math.pi / (2.0 * (alpha + 1.0))
        out.append((f"bound > pi/(2(a+1)) (alpha={alpha:g})", app8_bound(alpha, 1) - trig_lo))
    return out

def _app9_bracket_margins(x: float) -> list[tuple[str, float]]:
    a, d, e = app9_alzer(x)
    g = ref_gamma(x)
    if x < 1.0:
        return [("A < Gamma (0,1)", g - a), ("Gamma < D (0,1)", d - g)]
    return [("D < Gamma (1,inf)", g - d), ("Gamma < E (1,inf)", e - g)]

def _app9_gamma_side_margins(x: float) -> list[tuple[str, float]]:
    k1, l1 = app9_refined(x, 1)
    g = ref_gamma(x)
    if x < 0.5:
        return [("K1 <= Gamma (0,1/2)", g - k1)]
    return [("L1 >= Gamma (1/2,inf)", l1 - g)]

def _app9_refinement_margins(x: float, which: str) -> list[tuple[str, float]]:
    """Margin of one refinement claim; ``which`` is its report label,
    "K1 >= A on ...", "L1 <= D on ..." or "L1 <= E on ..."."""
    k1, l1 = app9_refined(x, 1)
    a, d, e = app9_alzer(x)
    return [(which, {"K1 >= A": k1 - a, "L1 <= D": d - l1, "L1 <= E": e - l1}[which[:7]])]

def _app10_margins(x: float) -> list[tuple[str, float]]:
    dec = app10_stirling(x)
    lo, hi = schuster_bounds(x)
    out = [("schuster lower <= v", dec.v - lo), ("v <= schuster upper", hi - dec.v)]
    if x < 0.5:
        out.append(("v < 1/(12x) + rhs (0,1/2)", 1.0 / (12.0 * x) + app10_truncate_rhs(x) - dec.v))
    elif x > 0.5:
        out.append(("v > rhs (1/2,inf)", dec.v - app10_truncate_rhs(x)))
    return out

def _app10_improvement_margins(x: float) -> list[tuple[str, float]]:
    rhs_i = 1.0 / (12.0 * x) + app10_truncate_rhs(x)
    return [("rhs of (i) < schuster upper (0,1/2)", schuster_bounds(x)[1] - rhs_i)]

def _app10_remark_margins(x: float) -> list[tuple[str, float]]:
    lb = app10_mu_lower(x)
    return [
        ("mu lower bound positive [0.144,0.5)", lb),
        ("mu > lower bound [0.144,0.5)", app10_stirling(x).mu - lb),
    ]


# ---------------------------------------------------------------------------
# suite table: each suite builds its checks and notes; one serial driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Check:
    """``margins(v, **kwargs)`` at every point ``v`` of ``grid``."""

    margins: Callable[..., list[tuple[str, float]]]
    var: str
    grid: Sequence[float]
    kwargs: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        g = self.grid
        span = "{" + ", ".join(f"{v:g}" for v in g) + "}" if len(g) <= 6 else f"[{g[0]:g}, {g[-1]:g}] x{len(g)}"
        extra = "".join(f", {k} = {v!r}" for k, v in self.kwargs.items())
        return f"{self.margins.__name__.strip('_').removesuffix('_margins')}: {self.var} in {span}{extra}"


# A builder takes (lo, hi, points, m) and returns its checks and a function
# from the labeled margins to the notes.  It names the margin functions when
# it runs, so each run looks them up among the module globals.
_Plan = tuple[list[_Check], Callable[[list[tuple[str, float]]], list[str]]]

def _or(value, default):
    return default if value is None else value

def _fixed_order(suite: str, m: int | None) -> None:
    """Suites whose claims name their own truncation order (or none) reject ``m``."""
    if m is not None:
        raise DomainError(f"suite {suite} asserts its claims at a fixed truncation order; m={m} cannot apply")

def _suite_app1(lo, hi, points, m) -> _Plan:
    _fixed_order("app1", m)

    def notes(labeled):
        dirs = {"lower" if v > 0.0 else "upper" for label, v in labeled if label == _APP1_POS}
        return [f"positive-argument bound direction verified: {sorted(dirs)} (upper-bound reading fails)"]

    return [_Check(_app1_margins, "p", range(int(_or(lo, 3)), int(_or(hi, 12)) + 1))], notes

def _suite_app5(lo, hi, points, m) -> _Plan:
    _fixed_order("app5", m)
    return [_Check(_app5_margins, "alpha", uniform_grid(_or(lo, 0.001), _or(hi, 0.999), points or 1000))], lambda _: []

def _suite_app6(lo, hi, points, m) -> _Plan:
    ys = uniform_grid(_or(lo, 0.1), _or(hi, 0.9), points or 9)
    ms = (m,) if m is not None else (1, 2, 5)
    return [_Check(_app6_margins, "y", ys, {"xs": (0.25, 0.5, 2.0, 4.0), "ms": ms})], lambda _: []

def _suite_app7(lo, hi, points, m) -> _Plan:
    ns, sm = range(int(_or(lo, 1)), int(_or(hi, 50)) + 1), _or(m, 5)
    eq = "n = 1 is the stated equality case: upper bound meets the ratio exactly (flagged, not a violation)"
    return [_Check(_app7_margins, "n", ns, {"s": sm, "m": sm, "eq_tol": 1e-9})], lambda _: [eq] if 1 in ns else []

def _suite_app8(lo, hi, points, m) -> _Plan:
    alphas = [0.25, 0.5, 2.0, 3.5]
    if lo is not None or hi is not None:
        alphas = [a for a in uniform_grid(_or(lo, 0.1), _or(hi, 4.0), points or 9) if abs(a - 1.0) > 1e-9]
    small = [a for a in alphas if a < 1.0]

    def notes(labeled):
        dominated = [a for a in small if app8_bound(a, 1) < (math.pi / 2.0) ** (a + 1.0) / (a + 1.0)]
        return [
            "m=1 upper bound vs (pi/2)^(a+1)/(a+1) on (0,1): recorded, not asserted "
            f"(dominates at {len(dominated)}/{len(small)} sampled alphas; fails for a < ~0.535)"
        ] if small else []

    return [_Check(_app8_margins, "alpha", alphas, {"m": _or(m, 1)})], notes

def _suite_app9(lo, hi, points, m) -> _Plan:
    _fixed_order("app9", m)
    n, i_lo, i_hi = points or 1000, _or(lo, 0.241), _or(hi, 0.5)
    i1, j1, p1 = f"K1 >= A on [{i_lo:g},{i_hi:g})", "L1 <= D on (0.5,0.526]", "L1 <= E on [1.562,100]"
    checks = [
        _Check(_app9_bracket_margins, "x", uniform_grid(0.001, 0.999, n)),
        _Check(_app9_bracket_margins, "x", uniform_grid(1.0, 100.0, n, include_lo=False)),
        _Check(_app9_gamma_side_margins, "x", uniform_grid(0.001, 0.499, n)),
        _Check(_app9_gamma_side_margins, "x", uniform_grid(0.501, 100.0, n)),
        _Check(_app9_refinement_margins, "x", uniform_grid(i_lo, i_hi, n, include_hi=False), {"which": i1}),
        _Check(_app9_refinement_margins, "x", uniform_grid(0.5, 0.526, n, include_lo=False), {"which": j1}),
        _Check(_app9_refinement_margins, "x", uniform_grid(1.562, 100.0, n), {"which": p1}),
    ]

    def notes(labeled):
        # a closed-form counterexample of each claim that failed, taken on its grid's interval
        failed = {label for label, v in labeled if not v > 0.0}
        cited = []
        if i1 in failed and i_lo <= 0.3 < i_hi:
            cited.append(f"K1(0.3) = {app9_refined(0.3, 1)[0]:.6f} < A(0.3) = {app9_alzer(0.3)[0]:.6f}")
        if p1 in failed:
            cited.append(f"L1(1.562) = {app9_refined(1.562, 1)[1]:.6f} > E(1.562) = {app9_alzer(1.562)[2]:.6f}")
        return ["refinement counterexamples are genuine, not numerical: " + "; ".join(cited)] if cited else []

    return checks, notes

def _suite_app10(lo, hi, points, m) -> _Plan:
    _fixed_order("app10", m)
    return [
        _Check(_app10_margins, "x", uniform_grid(_or(lo, 0.05), _or(hi, 50.0), points or 1000)),
        _Check(_app10_improvement_margins, "x", uniform_grid(1e-4, 0.5, 10000, include_hi=False)),
        _Check(_app10_remark_margins, "x", uniform_grid(0.144, 0.5, points or 1000, include_hi=False)),
    ], lambda _: []


_SUITES = {"app1": _suite_app1, "app5": _suite_app5, "app6": _suite_app6, "app7": _suite_app7,
           "app8": _suite_app8, "app9": _suite_app9, "app10": _suite_app10}
SUITES = tuple(_SUITES)


def _reduce(suite: str, grid_desc: str, labeled: list[tuple[str, float]], notes: list[str]) -> BoundReport:
    by_label: dict[str, list[float]] = {}
    for label, mgn in labeled:
        by_label.setdefault(label, []).append(mgn)
    violations = 0
    for label, ms in by_label.items():
        bad = sum(1 for v in ms if not v > 0.0)  # margin <= 0 or NaN
        if bad:
            notes.append(f"{label}: {bad}/{len(ms)} points violate (worst margin {min(ms):.6g})")
        violations += bad
    worst = min((mgn for _, mgn in labeled), default=math.inf)
    return BoundReport(suite, grid_desc, violations, worst, violations == 0, tuple(notes))


def verify_suite(
    suite: str, lo: float | None = None, hi: float | None = None, points: int | None = None, m: int | None = None
) -> BoundReport:
    """Run one suite's assertions over its grid and report the outcome.

    ``lo``/``hi``/``points`` override the suite's primary grid (for app1 and
    app7 they are integer ranges); ``m`` overrides the truncation order used
    by the bound being tested in app6, app7 and app8, and is a
    ``DomainError`` for the suites whose claims fix their order (app1, app5,
    app9, app10).  Claims are asserted exactly as stated; see
    the module docstring for the sign convention.  ``grid`` describes the
    grids as run, check by check.
    """
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES}")
    checks, notes = _SUITES[suite](lo, hi, points, m)
    labeled = [pair for c in checks for v in c.grid for pair in c.margins(v, **c.kwargs)]
    return _reduce(suite, "; ".join(c.describe() for c in checks), labeled, notes(labeled))
