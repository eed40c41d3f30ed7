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
from itertools import chain
from typing import Any, Callable, Sequence

from .errors import HEAD_MAX, DomainError, check_int
from .gamma import beta_partial
from .jointfactor import _STIRLING, JointFactorSpec, _log_first, joint_factor, truncate
from .reference import EULER_GAMMA, ref_gamma, ref_log_gamma

_SQRT_PI = math.sqrt(math.pi)
_LN_2PI = math.log(2.0 * math.pi)

# Points per grid above which a suite is refused before any point is evaluated.
MAX_GRID_POINTS = 10**6

# The exponent constants of the power-law Gamma bounds.
ALZER_ALPHA = 1.0 - EULER_GAMMA
ALZER_BETA = (math.pi * math.pi - 6.0 * EULER_GAMMA) / 12.0

# v(x)'s series coefficients (2^(1-2j) - 1) B_2j/(2j(2j-1)) (DLMF 5.11.8, h = 1/2).
_V_COEF = tuple((2.0 ** (1 - 2 * j) - 1.0) * c for j, c in enumerate(_STIRLING, 1))
# Above this, v's Schuster margin 1/(360 x^3) falls toward v's own rounding.
_V_X_MAX = 1e6


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
    (pole / equality cases).  A span hi - lo beyond the double range is a
    ``DomainError``."""
    check_int(points, "points", 1, MAX_GRID_POINTS)
    if hi <= lo:
        raise DomainError(f"need hi > lo, got lo = {lo!r}, hi = {hi!r}")
    if hi - lo == math.inf:
        raise DomainError(f"the span hi - lo exceeds the double range: lo = {lo!r}, hi = {hi!r}")
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
    crude lower bound of Gamma(-1/p).  gamma_neg has no subnormal step, so
    the first p refused is the oracle's ln Gamma(p) overflow near 2.56e305.
    """
    check_int(p, "p", 3)
    log_pos = (1.0 - 1.0 / p) * math.log(2.0 * math.pi / p) + (2.0 / p) * ref_log_gamma(float(p))
    bound_pos = math.exp(log_pos)
    reflect = math.pi / math.sin(math.pi / p)
    bound_neg = -reflect * (2.0 * math.pi) ** (1.0 - 1.0 / p)
    gamma_pos = ref_gamma(1.0 / p)
    gamma_neg = -reflect / (gamma_pos / p)  # Gamma(-t) = -pi / (sin(pi t) Gamma(t) t), t = 1/p
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


def app7_ball_ratio(n: int) -> float:
    """Ratio of consecutive unit-ball volumes: O_{n-1}/O_n = f((n+1)/2, 1/2)/pi."""
    check_int(n, "n", 1)
    return joint_factor(JointFactorSpec((n + 1.0) / 2.0, 0.5)).value / math.pi


def app7_bounds(n: int, s: int, m: int) -> tuple[float, float]:
    """(lower, upper) for O_{n-1}/O_n: lower = f_s((n+1)/2, 1/2) / pi (that
    truncate under-estimates), upper = (n/2) / f_m(n/2, 1/2), with equality
    only at n = 1, where every factor of f(1/2, 1/2) is 1.  O(1) in s and m.
    """
    check_int(n, "n", 1)
    check_int(m, "m", 1, HEAD_MAX)  # before s: verify_suite's m sets both
    check_int(s, "s", 1, HEAD_MAX)
    lower = truncate(JointFactorSpec((n + 1.0) / 2.0, 0.5), s) / math.pi
    upper = 0.5 * n / truncate(JointFactorSpec(n / 2.0, 0.5), m)
    return lower, upper


def app8_wallis(alpha: float) -> float:
    """Wallis integral I_alpha = int_0^{pi/2} sin^alpha = (1/alpha) f(alpha/2, 1/2)."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return joint_factor(JointFactorSpec(alpha / 2.0, 0.5)).value / alpha


def app8_bound(alpha: float, m: int) -> float:
    """(1/alpha) f_m(alpha/2, 1/2): upper bound of I_alpha on (0, 1),
    lower bound on (1, inf); m = 1 gives the closed form 2/(alpha+1)."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return truncate(JointFactorSpec(alpha / 2.0, 0.5), m) / alpha


def app9_alzer(x: float) -> tuple[float, float, float]:
    """The power-law bounds (A, D, E)(x) = x^(ax-1), x^(b(x-1)-g), x^(x-1-g).

    A < Gamma < D holds on (0, 1) and D < Gamma < E on (1, inf); the harness
    restricts each to its interval.
    """
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    return _alzer_a(x), _alzer_d(x), _alzer_e(x)


def _power_law(x: float, exponent: float) -> float:
    """x ** exponent, whose overflow is app9_alzer's DomainError."""
    try:
        return x ** exponent
    except OverflowError:
        raise DomainError(f"the power-law bounds exceed the double range at x = {x!r}") from None

# A, D and E one at a time, for the checks that read only some of them.
def _alzer_a(x: float) -> float:
    return _power_law(x, ALZER_ALPHA * x - 1.0)

def _alzer_d(x: float) -> float:
    return _power_law(x, ALZER_BETA * (x - 1.0) - EULER_GAMMA)

def _alzer_e(x: float) -> float:
    return _power_law(x, x - 1.0 - EULER_GAMMA)


def app9_refined(x: float, m: int) -> tuple[float, float]:
    """(K_m, L_m)(x) = sqrt(pi) A(x+1/2) / f_m(x, 1/2), sqrt(pi) E(x+1/2) / f_m(x, 1/2).

    K_m is a lower bound of Gamma on (0, 1/2), L_m an upper bound on
    (1/2, inf); both tighten monotonically in m.
    """
    check_int(m, "m", 1, HEAD_MAX)  # before _app9_f's m = 1 path, which would take m = 1.0 or True
    return _app9_k(x, m), _app9_l(x, m)


def _app9_f(x: float, m: int) -> float:
    """f_m(x, 1/2); at m = 1, exp of the first factor's closed log, which is
    truncate(JointFactorSpec(x, 0.5), 1) bit for bit and 1.0 at x = 1/2
    (inf and NaN take truncate's path, to its JointFactorSpec error)."""
    if x <= 0.0:
        raise DomainError(f"x must be positive, got {x}")
    if m == 1 and x < math.inf:
        return math.exp(_log_first(x, 0.5))
    return truncate(JointFactorSpec(x, 0.5), m)

# K_m and L_m, each forming only its own power-law bound.
def _app9_k(x: float, m: int) -> float:
    fm = _app9_f(x, m)
    return _SQRT_PI * _alzer_a(x + 0.5) / fm

def _app9_l(x: float, m: int) -> float:
    fm = _app9_f(x, m)
    return _SQRT_PI * _alzer_e(x + 0.5) / fm


def _stirling_mu(x: float) -> float:
    """mu(x) in Gamma(x) = sqrt(2 pi) x^{x-1/2} e^{-x} e^{mu(x)}, from the oracle."""
    return ref_log_gamma(x) - (0.5 * _LN_2PI + (x - 0.5) * math.log(x) - x)


def _stirling_v(x: float) -> float:
    """v(x) in Gamma(x+1/2) = sqrt(2 pi) x^x e^{-x} e^{v(x)}: the oracle's difference
    below 10, and v's own series from 10 on, where that difference of logs ~ x ln x
    would round away the 1/(360 x^3) margins of Schuster's bounds."""
    if not 0.0 < x <= _V_X_MAX:
        raise DomainError(f"app10 resolves v(x) for 0 < x <= 1e6 only, got x = {x!r}")
    if x < 10.0:
        return ref_log_gamma(x + 0.5) - (0.5 * _LN_2PI + x * math.log(x) - x)
    t, s = 1.0 / (x * x), 0.0
    for c in reversed(_V_COEF):
        s = s * t + c
    return s / x


def schuster_bounds(x: float) -> tuple[float, float]:
    """(-1/24)[1/x + 1/(120 x^3)] <= v(x) <= (-1/24)[1/x - 1/(8 x^3)]."""
    (lower,), (upper,) = _schuster_columns((x,))
    return lower, upper


def _schuster_columns(xs: Sequence[float]) -> tuple[list[float], list[float]]:
    """Schuster's lower and upper envelopes of v over a grid."""
    lower, upper = [], []
    for x in xs:
        inv = 1.0 / x
        if math.isinf(inv):  # subnormal x: inf ** 3 is inf and raises nothing
            raise DomainError(f"1/x exceeds the double range at x = {x!r}")
        try:
            cube = inv ** 3
        except OverflowError:
            raise DomainError(f"1/x^3 exceeds the double range at x = {x!r}") from None
        lower.append((-1.0 / 24.0) * (inv + cube / 120.0))
        upper.append((-1.0 / 24.0) * (inv - cube / 8.0))
    return lower, upper


def app10_truncate_rhs(x: float) -> float:
    """ln[f_1(x, 1/2) / sqrt(pi x)] = ln[4 sqrt(x) / ((1+2x) sqrt(pi))]:
    the m = 1 bound on v(x) - mu(x) (upper for x < 1/2, lower for x > 1/2)."""
    return _truncate_rhs_column((x,))[0]


def _truncate_rhs_column(xs: Sequence[float]) -> list[float]:
    """app10_truncate_rhs over a grid."""
    out = []
    for x in xs:
        if x <= 0.0:
            raise DomainError(f"x must be positive, got {x}")
        ratio = 4.0 * math.sqrt(x) / ((1.0 + 2.0 * x) * _SQRT_PI)
        if not ratio > 0.0:  # 1 + 2x overflows
            raise DomainError(f"1 + 2x exceeds the double range at x = {x!r}")
        out.append(math.log(ratio))
    return out


def app10_mu_lower(x: float) -> float:
    """Lower bound of mu(x) on (0, 1/2): Schuster's lower envelope of v(x)
    minus the m = 1 bound on v - mu; positive exactly from x ~ 0.1431 on."""
    return schuster_bounds(x)[0] - app10_truncate_rhs(x)


# ---------------------------------------------------------------------------
# margin functions: each evaluates its check over the whole grid and returns
# {label: [margins]}, labels in the order they first appear along the grid
# ---------------------------------------------------------------------------

_Columns = dict[str, list[float]]

def _split(xs: Sequence[float], cut: float) -> tuple[list[float], list[float]]:
    """An ascending grid's points below ``cut`` and the rest."""
    return [x for x in xs if x < cut], [x for x in xs if not x < cut]

def _labeled(*columns: tuple[str, list[float]]) -> _Columns:
    """The non-empty columns, in the order given."""
    return {label: ms for label, ms in columns if ms}

_APP1_POS = "Gamma(1/p) > bound (lower-bound direction)"

def _app1_margins(ps: Sequence[int]) -> _Columns:
    rs = [app1_bounds(p) for p in ps]
    return {_APP1_POS: [r.gamma_pos - r.bound_pos for r in rs],
            "Gamma(-1/p) > bound": [r.gamma_neg - r.bound_neg for r in rs]}

def _app5_margins(alphas: Sequence[float]) -> _Columns:
    return {"gamma < 1/alpha": [app5_upper(a) - ref_gamma(a) for a in alphas]}

def _app6_margins(ys: Sequence[float], xs: tuple[float, ...], ms: tuple[int, ...]) -> _Columns:
    out = {}
    for x in xs:
        try:
            b_true = [math.exp(ref_log_gamma(x) + ref_log_gamma(y) - ref_log_gamma(x + y)) for y in ys]
        except OverflowError:  # B ~ 1/y falls in y, so the grid's least y overflows first
            raise DomainError(f"B(x, y) exceeds the double range at y = {ys[0]!r} (x = {x:g})") from None
        for m in ms:
            parts = [app6_beta_bound(x, y, m) for y in ys]
            if x < 1.0:
                out[f"B > partial (x={x:g}, m={m})"] = [b - part for b, part in zip(b_true, parts)]
            else:
                out[f"B < partial (x={x:g}, m={m})"] = [part - b for b, part in zip(b_true, parts)]
    return out

def _app7_margins(ns: Sequence[int], s: int, m: int, eq_tol: float) -> _Columns:
    rows = [(n, app7_ball_ratio(n), *app7_bounds(n, s, m)) for n in ns]
    return _labeled(
        ("lower < ratio", [ratio - lower for _, ratio, lower, _ in rows]),
        # stated equality case: flagged, not a strict-violation candidate
        ("upper == ratio at n=1", [eq_tol - abs(upper - ratio) for n, ratio, _, upper in rows if n == 1]),
        ("ratio < upper", [upper - ratio for n, ratio, _, upper in rows if n != 1]),
    )

def _app8_margins(alphas: Sequence[float], m: int) -> _Columns:
    # alphas that print alike under :g share a label, so margins are appended
    out: _Columns = {}
    for alpha in alphas:
        i_alpha = app8_wallis(alpha)
        bound = app8_bound(alpha, m)
        if alpha < 1.0:
            out.setdefault(f"I < bound (alpha={alpha:g})", []).append(bound - i_alpha)
        elif alpha > 1.0:
            out.setdefault(f"I > bound (alpha={alpha:g})", []).append(i_alpha - bound)
            trig_lo = math.pi / (2.0 * (alpha + 1.0))
            out.setdefault(f"bound > pi/(2(a+1)) (alpha={alpha:g})", []).append(app8_bound(alpha, 1) - trig_lo)
    return out

def _app9_bracket_margins(xs: Sequence[float]) -> _Columns:
    below, above = _split(xs, 1.0)
    lo_g, hi_g = [ref_gamma(x) for x in below], [ref_gamma(x) for x in above]
    return _labeled(
        ("A < Gamma (0,1)", [g - _alzer_a(x) for x, g in zip(below, lo_g)]),
        ("Gamma < D (0,1)", [_alzer_d(x) - g for x, g in zip(below, lo_g)]),
        ("D < Gamma (1,inf)", [g - _alzer_d(x) for x, g in zip(above, hi_g)]),
        ("Gamma < E (1,inf)", [_alzer_e(x) - g for x, g in zip(above, hi_g)]),
    )

def _app9_gamma_side_margins(xs: Sequence[float]) -> _Columns:
    below, above = _split(xs, 0.5)
    return _labeled(
        ("K1 <= Gamma (0,1/2)", [ref_gamma(x) - _app9_k(x, 1) for x in below]),
        ("L1 >= Gamma (1/2,inf)", [_app9_l(x, 1) - ref_gamma(x) for x in above]),
    )

# margin of each refinement claim at x; the refinement is formed first, as it
# checks x > 0, so -L1 + D is the sum D - L1 with its terms in that order
_APP9_CLAIMS = {
    "K1 >= A": lambda x: _app9_k(x, 1) - _alzer_a(x),
    "L1 <= D": lambda x: -_app9_l(x, 1) + _alzer_d(x),
    "L1 <= E": lambda x: -_app9_l(x, 1) + _alzer_e(x),
}

def _app9_refinement_margins(xs: Sequence[float], which: str) -> _Columns:
    """Margins of one refinement claim; ``which`` is its report label,
    "K1 >= A on ...", "L1 <= D on ..." or "L1 <= E on ..."."""
    return {which: list(map(_APP9_CLAIMS[which[:7]], xs))}

def _app10_margins(xs: Sequence[float]) -> _Columns:
    vs = [_stirling_v(x) for x in xs]  # v's domain check runs over the whole grid first
    lower, upper = _schuster_columns(xs)
    rows = list(zip(xs, vs, _truncate_rhs_column(xs)))
    return _labeled(
        ("schuster lower <= v", [v - lo for v, lo in zip(vs, lower)]),
        ("v <= schuster upper", [hi - v for v, hi in zip(vs, upper)]),
        ("v < 1/(12x) + rhs (0,1/2)", [1.0 / (12.0 * x) + rhs - v for x, v, rhs in rows if x < 0.5]),
        ("v > rhs (1/2,inf)", [v - rhs for x, v, rhs in rows if x > 0.5]),
    )

def _app10_improvement_margins(xs: Sequence[float]) -> _Columns:
    upper = _schuster_columns(xs)[1]
    return {"rhs of (i) < schuster upper (0,1/2)":
            [hi - (1.0 / (12.0 * x) + rhs) for x, hi, rhs in zip(xs, upper, _truncate_rhs_column(xs))]}

def _app10_remark_margins(xs: Sequence[float]) -> _Columns:
    lbs = [lo - rhs for lo, rhs in zip(_schuster_columns(xs)[0], _truncate_rhs_column(xs))]  # app10_mu_lower
    return {
        "mu lower bound positive [0.144,0.5)": lbs,
        "mu > lower bound [0.144,0.5)": [_stirling_mu(x) - lb for x, lb in zip(xs, lbs)],
    }


# ---------------------------------------------------------------------------
# suite table: each suite builds its checks and notes; one serial driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Check:
    """``margins(grid, **kwargs)``: the check's margins over its whole grid."""

    margins: Callable[..., _Columns]
    var: str
    grid: Sequence[float]
    kwargs: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        g = self.grid
        span = "{" + ", ".join(f"{v:g}" for v in g) + "}" if len(g) <= 6 else f"[{g[0]:g}, {g[-1]:g}] x{len(g)}"
        extra = "".join(f", {k} = {v!r}" for k, v in self.kwargs.items())
        return f"{self.margins.__name__.strip('_').removesuffix('_margins')}: {self.var} in {span}{extra}"


# A builder takes (lo, hi, points, m) and returns its checks and a function
# from the margin columns to the notes.  It names the margin functions when
# it runs, so each run looks them up among the module globals.
_Plan = tuple[list[_Check], Callable[[_Columns], list[str]]]

def _or(value, default):
    return default if value is None else value

def _fixed_order(suite: str, m: int | None) -> None:
    """Suites whose claims name their own truncation order (or none) reject ``m``."""
    if m is not None:
        raise DomainError(f"suite {suite} asserts its claims at a fixed truncation order; m={m} cannot apply")

def _fixed_points(suite: str, points: int | None, why: str) -> None:
    """Grids that ``points`` cannot reach reject it."""
    if points is not None:
        raise DomainError(f"suite {suite} {why}; points={points} cannot apply")

def _int_grid(suite: str, lo: float | None, hi: float | None, default_lo: int, default_hi: int) -> range:
    """Every integer in [lo, hi]; an end that is not a whole number is refused, not cut to one."""
    for name, end in (("lo", lo), ("hi", hi)):
        if end is not None and end != int(end):
            raise DomainError(f"suite {suite} checks whole numbers only; {name}={end!r} is not one")
    first, last = int(_or(lo, default_lo)), int(_or(hi, default_hi))
    if last - first >= MAX_GRID_POINTS:
        raise DomainError(f"grid [{first}, {last}] has more than {MAX_GRID_POINTS} points")
    return range(first, last + 1)

def _suite_app1(lo, hi, points, m) -> _Plan:
    _fixed_order("app1", m)
    _fixed_points("app1", points, "checks every integer p in [lo, hi]")

    def notes(columns):
        dirs = {"lower" if v > 0.0 else "upper" for v in columns.get(_APP1_POS, ())}
        return [f"positive-argument bound direction verified: {sorted(dirs)} (upper-bound reading fails)"]

    return [_Check(_app1_margins, "p", _int_grid("app1", lo, hi, 3, 12))], notes

def _suite_app5(lo, hi, points, m) -> _Plan:
    _fixed_order("app5", m)
    return [_Check(_app5_margins, "alpha", uniform_grid(_or(lo, 0.001), _or(hi, 0.999), _or(points, 1000)))], lambda _: []

def _suite_app6(lo, hi, points, m) -> _Plan:
    ys = uniform_grid(_or(lo, 0.1), _or(hi, 0.9), _or(points, 9))
    ms = (m,) if m is not None else (1, 2, 5)
    return [_Check(_app6_margins, "y", ys, {"xs": (0.25, 0.5, 2.0, 4.0), "ms": ms})], lambda _: []

def _suite_app7(lo, hi, points, m) -> _Plan:
    _fixed_points("app7", points, "checks every integer n in [lo, hi]")
    ns, sm = _int_grid("app7", lo, hi, 1, 50), _or(m, 5)
    eq = "n = 1 is the stated equality case: upper bound meets the ratio exactly (flagged, not a violation)"
    return [_Check(_app7_margins, "n", ns, {"s": sm, "m": sm, "eq_tol": 1e-9})], lambda _: [eq] if 1 in ns else []

def _suite_app8(lo, hi, points, m) -> _Plan:
    alphas = [0.25, 0.5, 2.0, 3.5]
    if lo is not None or hi is not None:
        alphas = [a for a in uniform_grid(_or(lo, 0.1), _or(hi, 4.0), _or(points, 9)) if abs(a - 1.0) > 1e-9]
    else:
        _fixed_points("app8", points, "samples four fixed alphas unless lo or hi is given")
    small = [a for a in alphas if a < 1.0]

    def notes(columns):
        dominated = [a for a in small if app8_bound(a, 1) < (math.pi / 2.0) ** (a + 1.0) / (a + 1.0)]
        return [
            "m=1 upper bound vs (pi/2)^(a+1)/(a+1) on (0,1): recorded, not asserted "
            f"(dominates at {len(dominated)}/{len(small)} sampled alphas; fails for a < ~0.535)"
        ] if small else []

    return [_Check(_app8_margins, "alpha", alphas, {"m": _or(m, 1)})], notes

def _suite_app9(lo, hi, points, m) -> _Plan:
    _fixed_order("app9", m)
    n, i_lo, i_hi = _or(points, 1000), _or(lo, 0.241), _or(hi, 0.5)
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

    def notes(columns):
        # a closed-form counterexample of each claim that failed, taken on its grid's interval
        failed = {label for label, ms in columns.items() if not all(v > 0.0 for v in ms)}
        cited = []
        if i1 in failed and i_lo <= 0.3 < i_hi:
            cited.append(f"K1(0.3) = {_app9_k(0.3, 1):.6f} < A(0.3) = {_alzer_a(0.3):.6f}")
        if p1 in failed:
            cited.append(f"L1(1.562) = {_app9_l(1.562, 1):.6f} > E(1.562) = {_alzer_e(1.562):.6f}")
        return ["refinement counterexamples are genuine, not numerical: " + "; ".join(cited)] if cited else []

    return checks, notes

def _suite_app10(lo, hi, points, m) -> _Plan:
    _fixed_order("app10", m)
    return [
        _Check(_app10_margins, "x", uniform_grid(_or(lo, 0.05), _or(hi, 50.0), _or(points, 1000))),
        _Check(_app10_improvement_margins, "x", uniform_grid(1e-4, 0.5, 10000, include_hi=False)),
        _Check(_app10_remark_margins, "x", uniform_grid(0.144, 0.5, _or(points, 1000), include_hi=False)),
    ], lambda _: []


_SUITES = {"app1": _suite_app1, "app5": _suite_app5, "app6": _suite_app6, "app7": _suite_app7,
           "app8": _suite_app8, "app9": _suite_app9, "app10": _suite_app10}
SUITES = tuple(_SUITES)


def _reduce(suite: str, grid_desc: str, columns: _Columns, notes: list[str]) -> BoundReport:
    violations = 0
    for label, ms in columns.items():
        bad = sum(1 for v in ms if not v > 0.0)  # margin <= 0 or NaN
        if bad:
            notes.append(f"{label}: {bad}/{len(ms)} points violate (worst margin {min(ms):.6g})")
        violations += bad
    worst = min(chain.from_iterable(columns.values()), default=math.inf)
    return BoundReport(suite, grid_desc, violations, worst, violations == 0, tuple(notes))


def verify_suite(
    suite: str, lo: float | None = None, hi: float | None = None, points: int | None = None, m: int | None = None
) -> BoundReport:
    """Run one suite's assertions over its grid and report the outcome.

    ``lo``/``hi``/``points`` override the suite's primary grid (for app1 and
    app7 they are integer ranges, which ``points`` cannot reach: it is a
    ``DomainError`` there, as it is for app8 without ``lo`` or ``hi``);
    ``lo`` and ``hi`` must be finite, as must a float grid's ``hi - lo``,
    and a grid must hold at least one and at most ``MAX_GRID_POINTS``
    points; a check whose grid is empty is a
    ``DomainError`` naming it, raised before any point is evaluated.  ``m``
    overrides the truncation order used by the bound being tested in app6,
    app7 and app8, at O(1) cost per point whatever m, and is a
    ``DomainError`` for the suites whose claims fix their order (app1, app5,
    app9, app10).  Claims are asserted exactly as stated; see the module
    docstring for the sign convention.  ``grid`` describes the grids as
    run, check by check.
    """
    if suite not in _SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES}")
    for name, value in (("lo", lo), ("hi", hi)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    checks, notes = _SUITES[suite](lo, hi, points, m)
    for i, c in enumerate(checks, 1):
        if not c.grid:
            raise DomainError(f"suite {suite}, check {i} of {len(checks)} ({c.describe()}): the grid is empty")
    columns: _Columns = {}
    for c in checks:
        for label, ms in c.margins(c.grid, **c.kwargs).items():
            columns.setdefault(label, []).extend(ms)
    return _reduce(suite, "; ".join(c.describe() for c in checks), columns, notes(columns))
