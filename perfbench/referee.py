"""Correctness referee: mpmath at 40 significant digits.

The referee shares no code with gammaprod's product path or with its
``reference`` oracle; it only reads the outputs the workloads produced, after
the timed region.  Scalar outputs are compared by relative error; a miss of
the tolerance, a non-finite value or an exception counts as a failed
operation.  Suite outputs are compared on exit code, violation counts and
labels, and worst margin, the last against an mpmath recomputation of every
margin the suite asserts on its default grid.

Tolerances: where the README accuracy table states one it is used as
stated; elsewhere the value here is fixed for the benchmark and met by the
seed commit with room to spare (see perfbench/README.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath

DIGITS = 40
MAX_DIGITS = 17.0  # a double carries at most ~17 significant digits

mp = mpmath.MPContext()
mp.dps = DIGITS

# README: f(x, b), tail-corrected m = 1000, <= 3e-15 rel on this box.
README_JF_BOX = ((0.1, 2.9), (0.05, 0.95), 3e-15)
# README: Gamma(q/p), p <= 12, <= 4e-15 rel.
README_GAMMA_P12 = 4e-15
# README: psi and psi' at n0 = 1000, absolute error on (0, 1).
README_PSI_ABS = 2e-9
README_PSI1_ABS = 2e-8

# Fixed here (no README row); the seed's worst case is in the comment.
TOL_SMALL_ARGS = 5e-14  # f, B, Gamma ratios outside the README box, x <= 2.9 (9e-15)
TOL_LARGE_X_SCALE = 1e-13  # times x^2 for x > 2.9 (x=1e3: 1.1e-8)
TOL_LARGE_X_CAP = 1e-6  # large-x plateau (1.6e-7 at x = 1e6)
TOL_TRIG = 5e-14  # sin/tan/pow2 products, m = 1000 with tail (4.5e-15)
TOL_G_SEQUENCE = 1e-12  # max |g_n - ref_n| / max |ref_n|, N <= 40 (1.2e-14)
# g_1 = b(1-b-x) cancels near the line x + b = 1, where every g_n vanishes:
# the recursion's relative error grows like eps / |1-b-x| there (3.4e-12 at
# |1-b-x| = 1e-5), so the tolerance widens by this over |1-b-x|.
TOL_G_NEAR_LINE = 1e-14
TOL_GAMMA_RATIONAL = 5e-13  # Gamma(+-q/p) and anchored ratios, p <= 64 (2.2e-13)
TOL_SUITE_MARGIN = 1e-6  # worst margin of a suite, relative (app7: 1.1e-7)

# suite-gate: expected exit codes and violations at default grids.
EXPECTED_SUITES = {
    "app9": (3, {"K1 >= A on [0.241,0.5)": 681, "L1 <= E on [1.562,100]": 1000}),
}
EXIT_OK = 0


@dataclass
class Verdict:
    ok: bool
    rel_err: float  # inf when no comparable value exists

    @property
    def digits(self) -> float:
        if not math.isfinite(self.rel_err):
            return 0.0
        return min(MAX_DIGITS, -math.log10(self.rel_err)) if self.rel_err > 0.0 else MAX_DIGITS


def _rel(value: float, ref) -> float:
    if not isinstance(value, float) or not math.isfinite(value):
        return math.inf
    return float(abs((mp.mpf(value) - ref) / ref))


def _large_x_tol(x: float) -> float:
    if x <= 2.9:
        return TOL_SMALL_ARGS
    return min(TOL_LARGE_X_CAP, max(TOL_SMALL_ARGS, TOL_LARGE_X_SCALE * x * x))


def _jf_tol(x: float, b: float) -> float:
    (xlo, xhi), (blo, bhi), tol = README_JF_BOX
    if xlo <= x <= xhi and blo <= b <= bhi:
        return tol
    return _large_x_tol(x)


def _ln_gamma_ratio(x, b):
    """ln[Gamma(x+b) / Gamma(x)] at 40 digits."""
    x = mp.mpf(x)
    return mp.loggamma(x + b) - mp.loggamma(x)


def _verdict(value: float, ref, tol: float) -> Verdict:
    rel = _rel(value, ref)
    return Verdict(rel <= tol, rel)


def check_scalar(kind: str, args: tuple, out) -> Verdict:
    """Compare one scalar operation's output with the 40-digit reference."""
    if kind == "joint_factor":
        x, b = args
        ref = mp.exp(_ln_gamma_ratio(x, b) + mp.loggamma(1 - mp.mpf(b)))
        return _verdict(out.value, ref, _jf_tol(x, b))
    if kind == "beta":
        x, y = args
        return _verdict(out, mp.beta(x, y), _large_x_tol(x))
    if kind == "gamma_ratio":
        x, b = args
        return _verdict(out, mp.exp(_ln_gamma_ratio(x, b)), _large_x_tol(x))
    if kind == "gamma_duplication":
        (x,) = args
        return _verdict(out, mp.gamma(2 * mp.mpf(x)), _large_x_tol(x))
    if kind == "sin":
        return _verdict(out, mp.sinpi(args[0]), TOL_TRIG)
    if kind == "tan":
        x = mp.mpf(args[0])
        return _verdict(out, mp.sinpi(x) / mp.cospi(x), TOL_TRIG)
    if kind == "pow2":
        b = mp.mpf(args[0])
        return _verdict(out, mp.power(2, 2 * b - 1) / mp.sinpi(b), TOL_TRIG)
    if kind in ("digamma", "trigamma"):
        t = mp.mpf(args[0])
        ref, tol = (mp.digamma(t), README_PSI_ABS) if kind == "digamma" else (mp.psi(1, t), README_PSI1_ABS)
        rel = _rel(out.value, ref)
        return Verdict(rel != math.inf and abs(mp.mpf(out.value) - ref) <= tol, rel)
    if kind == "g_sequence":
        x, b, _ = args
        ref = g_coefficients(*args)
        if len(out.g) != len(ref) or not all(math.isfinite(g) for g in out.g):
            return Verdict(False, math.inf)
        err = max(abs(mp.mpf(g) - r) for g, r in zip(out.g, ref))
        scale = max(abs(r) for r in ref)
        if scale == 0:  # x + b == 1 exactly: every g_n is 0
            return Verdict(err == 0, 0.0 if err == 0 else math.inf)
        rel = float(err / scale)
        off_line = float(abs(1 - mp.mpf(b) - x))
        return Verdict(rel <= TOL_G_SEQUENCE + TOL_G_NEAR_LINE / off_line, rel)
    if kind in ("gamma_rational", "gamma_negative"):
        q, p = args
        t = mp.mpf(q) / p
        if kind == "gamma_rational":
            return _verdict(out.value, mp.gamma(t), README_GAMMA_P12 if p <= 12 else TOL_GAMMA_RATIONAL)
        return _verdict(out, mp.gamma(-t), TOL_GAMMA_RATIONAL)
    if kind == "gamma_ratio_rational":
        xq, xp, q, p = args
        # the product path sees the double-rounded arguments xq/xp and q/p
        return _verdict(out, mp.exp(_ln_gamma_ratio(xq / xp, q / p)), TOL_GAMMA_RATIONAL)
    if kind == "gamma_duplication_rational":
        q, p = args
        return _verdict(out, mp.gamma(2 * mp.mpf(q / p)), TOL_GAMMA_RATIONAL)
    raise ValueError(f"unknown op kind {kind!r}")


def g_coefficients(x: float, b: float, N: int) -> list:
    """g_1..g_N of ln 2F1(1-x-b, b; 1; t) from the hypergeometric Taylor
    coefficients and the log-of-series recurrence, at 40 digits."""
    b = mp.mpf(b)
    a = 1 - mp.mpf(x) - b
    c = [mp.mpf(1)]
    for n in range(1, N + 1):
        c.append(c[-1] * (a + n - 1) * (b + n - 1) / (n * n))
    g: list = []
    jg: list = []  # j g_j
    for n in range(1, N + 1):
        gn = (n * c[n] - mp.fdot(jg, c[n - 1:0:-1])) / n
        g.append(gn)
        jg.append(n * gn)
    return g


# ---------------------------------------------------------------------------
# suite referee: every margin of the default grids, at 40 digits
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, n: int, include_lo: bool = True, include_hi: bool = True) -> list[float]:
    """The suites' uniform grid points, as the doubles the program uses."""
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n)]
    return [x for x in xs if (include_lo or x > lo) and (include_hi or x < hi)]


def _f(x, b):
    """f(x, b) = Gamma(x+b) Gamma(1-b) / Gamma(x)."""
    return mp.gamma(x + b) * mp.gamma(1 - b) / mp.gamma(x)


def _suite_margins(suite: str) -> list[tuple[str, object]]:
    pi, euler = mp.pi, mp.euler
    half = mp.mpf(1) / 2
    out: list[tuple[str, object]] = []
    if suite == "app1":
        for p in range(3, 13):
            inv = mp.mpf(1) / p
            bound_pos = (2 * pi / p) ** (1 - inv) * mp.factorial(p - 1) ** (2 * inv)
            bound_neg = -(pi / mp.sin(pi * inv)) * (2 * pi) ** (1 - inv)
            out.append(("gamma(1/p) lower bound", mp.gamma(inv) - bound_pos))
            out.append(("gamma(-1/p) lower bound", mp.gamma(-inv) - bound_neg))
    elif suite == "app5":
        for a in _grid(0.001, 0.999, 1000):
            out.append(("gamma < 1/alpha", 1 / mp.mpf(a) - mp.gamma(a)))
    elif suite == "app6":
        for y in _grid(0.1, 0.9, 9):
            for x in (0.25, 0.5, 2.0, 4.0):
                b_true = mp.beta(x, y)
                for m in (1, 2, 5):
                    part = 1 / mp.mpf(y)
                    for k in range(1, m + 1):
                        part *= k * (k - 1 + mp.mpf(x) + y) / ((k + mp.mpf(y)) * (k - 1 + mp.mpf(x)))
                    out.append(("beta partial", b_true - part if x < 1 else part - b_true))
    elif suite == "app7":
        for n in range(1, 51):
            ratio = _f(mp.mpf(n + 1) / 2, half) / pi
            lower, upper = 1 / pi, mp.mpf(n) / 2
            for k in range(1, 6):
                lower *= mp.mpf(2 * k * (n + 2 * k - 1)) / ((2 * k - 1) * (n + 2 * k))
                upper *= mp.mpf((2 * k - 1) * (2 * k + n - 1)) / (2 * k * (2 * k + n - 2))
            out.append(("lower < ratio", ratio - lower))
            out.append(("upper", mp.mpf(1e-9) - abs(upper - ratio) if n == 1 else upper - ratio))
    elif suite == "app8":
        for a in (0.25, 0.5, 2.0, 3.5):
            a = mp.mpf(a)
            wallis = _f(a / 2, half) / a
            bound = 2 / (a + 1)  # (1/a) f_1(a/2, 1/2)
            if a < 1:
                out.append(("wallis upper", bound - wallis))
            else:
                out.append(("wallis lower", wallis - bound))
                out.append(("bound > pi/(2(a+1))", bound - pi / (2 * (a + 1))))
    elif suite == "app9":
        alpha, beta = 1 - euler, (pi * pi - 6 * euler) / 12

        def a_d_e(x):
            return x ** (alpha * x - 1), x ** (beta * (x - 1) - euler), x ** (x - 1 - euler)

        def k1_l1(x):
            f1 = 2 * x / (x + half)  # f_1(x, 1/2)
            a, _, e = a_d_e(x + half)
            return mp.sqrt(pi) * a / f1, mp.sqrt(pi) * e / f1

        for x in _grid(0.001, 0.999, 1000) + _grid(1.0, 100.0, 1000, include_lo=False):
            x = mp.mpf(x)
            a, d, e = a_d_e(x)
            g = mp.gamma(x)
            out.extend([("A < Gamma", g - a), ("Gamma < D", d - g)] if x < 1 else [("D < Gamma", g - d), ("Gamma < E", e - g)])
        for x in _grid(0.001, 0.499, 1000) + _grid(0.501, 100.0, 1000):
            x = mp.mpf(x)
            k1, l1 = k1_l1(x)
            out.append(("K1 <= Gamma", mp.gamma(x) - k1) if x < half else ("L1 >= Gamma", l1 - mp.gamma(x)))
        for x in _grid(0.241, 0.5, 1000, include_hi=False):
            x = mp.mpf(x)
            out.append(("K1 >= A on [0.241,0.5)", k1_l1(x)[0] - a_d_e(x)[0]))
        for x in _grid(0.5, 0.526, 1000, include_lo=False):
            x = mp.mpf(x)
            out.append(("L1 <= D on (0.5,0.526]", a_d_e(x)[1] - k1_l1(x)[1]))
        for x in _grid(1.562, 100.0, 1000):
            x = mp.mpf(x)
            out.append(("L1 <= E on [1.562,100]", a_d_e(x)[2] - k1_l1(x)[1]))
    elif suite == "app10":
        ln_sqrt_2pi = mp.log(2 * pi) / 2

        def schuster(x):
            return -(1 / x + 1 / (120 * x**3)) / 24, -(1 / x - 1 / (8 * x**3)) / 24

        def rhs(x):
            return mp.log(4 * mp.sqrt(x) / ((1 + 2 * x) * mp.sqrt(pi)))

        def v(x):
            return mp.loggamma(x + half) - (ln_sqrt_2pi + x * mp.log(x) - x)

        for x in _grid(0.05, 50.0, 1000):
            x = mp.mpf(x)
            lo, hi = schuster(x)
            vx = v(x)
            out.extend([("schuster lower", vx - lo), ("schuster upper", hi - vx)])
            if x < half:
                out.append(("v < 1/(12x) + rhs", 1 / (12 * x) + rhs(x) - vx))
            elif x > half:
                out.append(("v > rhs", vx - rhs(x)))
        for x in _grid(1e-4, 0.5, 10000, include_hi=False):
            x = mp.mpf(x)
            out.append(("improvement", schuster(x)[1] - (1 / (12 * x) + rhs(x))))
        for x in _grid(0.144, 0.5, 1000, include_hi=False):
            x = mp.mpf(x)
            lb = schuster(x)[0] - rhs(x)
            mu = mp.loggamma(x) - (ln_sqrt_2pi + (x - half) * mp.log(x) - x)
            out.extend([("mu bound positive", lb), ("mu > bound", mu - lb)])
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return out


@dataclass(frozen=True)
class SuiteReference:
    worst_margin: object
    violations: dict[str, int]


def suite_reference(suite: str) -> SuiteReference:
    margins = _suite_margins(suite)
    violations: dict[str, int] = {}
    for label, m in margins:
        if m <= 0:
            violations[label] = violations.get(label, 0) + 1
    return SuiteReference(min(m for _, m in margins), violations)


def check_suite(suite: str, out, ref: SuiteReference) -> Verdict:
    """Exit code, violation count and labels, and worst margin of one
    ``bounds --suite`` run against the expected outcome and the referee."""
    code, text = out
    try:
        payload = json.loads(text)
    except ValueError:
        return Verdict(False, math.inf)
    want_code, want_labels = EXPECTED_SUITES.get(suite, (EXIT_OK, {}))
    ok = code == want_code and payload.get("suite") == suite
    ok = ok and payload.get("violations") == sum(want_labels.values())
    ok = ok and ref.violations == want_labels
    noted = {}
    for note in payload.get("notes", []):
        label, sep, rest = note.partition(": ")
        if sep and " points violate" in rest:
            noted[label] = int(rest.split("/", 1)[0])
    ok = ok and noted == want_labels
    margin = payload.get("worst_margin")
    if not isinstance(margin, float):
        return Verdict(False, math.inf)
    rel = _rel(margin, ref.worst_margin)
    return Verdict(ok and rel <= TOL_SUITE_MARGIN, rel)
