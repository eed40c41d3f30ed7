"""Bound families and the verification suites, including the documented
counterexamples to the two claimed refinement intervals."""

import functools
import json
import math
import time

import pytest

from conftest import adaptive_simpson, app9_i1_crossing, grid
from gammaprod import bounds
from gammaprod.cli import run
from gammaprod.bounds import (
    ALZER_ALPHA,
    ALZER_BETA,
    MAX_GRID_POINTS,
    _app8_margins,
    _app9_f,
    _stirling_mu,
    _stirling_v,
    _suite_app9,
    _suite_app10,
    app1_bounds,
    app5_upper,
    app6_beta_bound,
    app7_ball_ratio,
    app7_bounds,
    app8_bound,
    app8_wallis,
    app9_alzer,
    app9_refined,
    app10_mu_lower,
    app10_truncate_rhs,
    schuster_bounds,
    uniform_grid,
    verify_suite,
)
from gammaprod.errors import DomainError
from gammaprod.jointfactor import JointFactorSpec, joint_factor, truncate
from gammaprod.reference import EULER_GAMMA, ref_gamma, ref_log_gamma

SQRT_PI = math.sqrt(math.pi)
# where K1(x) = A(x) on [0.241, 0.5), to 14 digits (closed forms, mpmath at 40 digits)
APP9_I1_CROSSING = 0.41751022878714


# --- app1 ---------------------------------------------------------------

def test_app1_p3():
    r = app1_bounds(3)
    assert r.bound_pos == pytest.approx((2.0 * math.pi / 3.0) ** (2.0 / 3.0) * 2.0 ** (2.0 / 3.0), rel=1e-12)
    assert r.bound_pos == pytest.approx(2.5985, abs=1e-4)
    assert r.gamma_pos == pytest.approx(2.678939, abs=1e-6)
    # the bound actually holds as a LOWER bound of Gamma(1/p)
    assert r.pos_direction == "lower"
    assert r.gamma_pos > r.bound_pos
    assert r.neg_direction == "lower"
    assert r.gamma_neg > r.bound_neg


def test_app1_p4():
    r = app1_bounds(4)
    assert r.bound_pos == pytest.approx((math.pi / 2.0) ** 0.75 * math.sqrt(6.0), rel=1e-12)
    assert r.bound_pos == pytest.approx(3.4368892, abs=1e-6)
    assert r.gamma_pos > r.bound_pos


def test_app1_suite_and_domain():
    rep = verify_suite("app1")
    assert rep.holds and rep.violations == 0
    assert any("lower" in n for n in rep.notes)
    with pytest.raises(DomainError):
        app1_bounds(2)


# --- app5 ---------------------------------------------------------------

def test_app5_examples():
    assert app5_upper(0.5) == 2.0 > ref_gamma(0.5)
    assert app5_upper(0.1) == pytest.approx(10.0)
    assert app5_upper(0.1) > ref_gamma(0.1) == pytest.approx(9.513508, abs=1e-6)
    assert app5_upper(0.9) > ref_gamma(0.9) == pytest.approx(1.068629, abs=1e-6)
    with pytest.raises(DomainError):
        app5_upper(1.0)


def test_app5_suite():
    rep = verify_suite("app5")
    assert rep.holds and rep.violations == 0 and rep.worst_margin > 0.0


# --- app6 ---------------------------------------------------------------

def test_app6_examples():
    assert app6_beta_bound(0.5, 0.5, 1) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert app6_beta_bound(0.5, 0.5, 1) < math.pi
    assert app6_beta_bound(2.0, 0.5, 1) == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert app6_beta_bound(2.0, 0.5, 1) > 4.0 / 3.0
    with pytest.raises(DomainError):
        app6_beta_bound(1.0, 0.5, 3)


def test_app6_partials_monotone_in_m():
    for x, y in ((0.25, 0.3), (0.5, 0.7), (2.0, 0.4), (4.0, 0.85)):
        vals = [app6_beta_bound(x, y, m) for m in (1, 2, 5, 10, 100)]
        if x < 1.0:
            assert all(a < b for a, b in zip(vals, vals[1:]))
        else:
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_app6_suite():
    rep = verify_suite("app6")
    assert rep.holds and rep.violations == 0


# --- app7 ---------------------------------------------------------------

def test_app7_closed_form_ratios():
    assert app7_ball_ratio(1) == pytest.approx(0.5, rel=1e-10)
    assert app7_ball_ratio(2) == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert app7_ball_ratio(3) == pytest.approx(0.75, rel=1e-10)
    with pytest.raises(DomainError):
        app7_ball_ratio(0)


def test_app7_bounds_bracket():
    for n in range(1, 51):
        ratio = app7_ball_ratio(n)
        lower, upper = app7_bounds(n, 5, 5)
        assert lower < ratio
        if n == 1:
            assert upper == pytest.approx(ratio, abs=1e-12)
        else:
            assert ratio < upper


def test_app7_upper_equality_at_n1_any_m():
    for m in (1, 3, 17):
        _, upper = app7_bounds(1, 1, m)
        assert upper == pytest.approx(0.5, abs=1e-14)


def test_app7_bounds_monotone_in_order():
    n = 4
    ratio = app7_ball_ratio(n)
    lowers = [app7_bounds(n, s, 1)[0] for s in (1, 2, 5, 10, 100)]
    uppers = [app7_bounds(n, 1, m)[1] for m in (1, 2, 5, 10, 100)]
    assert all(a < b for a, b in zip(lowers, lowers[1:]))
    assert all(a > b for a, b in zip(uppers, uppers[1:]))
    assert lowers[-1] < ratio < uppers[-1]


def test_app7_suite():
    rep = verify_suite("app7")
    assert rep.holds and rep.violations == 0
    assert any("equality" in n for n in rep.notes)


# --- app8 ---------------------------------------------------------------

def test_app8_closed_values():
    assert app8_wallis(2.0) == pytest.approx(math.pi / 4.0, rel=1e-10)
    assert app8_wallis(1.0) == pytest.approx(1.0, rel=1e-12)
    f = joint_factor(JointFactorSpec(0.25, 0.5)).value
    assert app8_wallis(0.5) == pytest.approx(2.0 * f, rel=1e-12)
    assert app8_wallis(0.5) == pytest.approx(1.19814, abs=1e-5)


def test_app8_quadrature_cross_check():
    for alpha in (0.25, 0.5, 1.0, 2.0, 3.5, 7.0):
        integral = adaptive_simpson(lambda th: math.sin(th) ** alpha, 0.0, math.pi / 2.0, tol=1e-10)
        assert abs(integral - app8_wallis(alpha)) <= 1e-8


def test_app8_m1_bound_is_closed_form():
    for alpha in (0.25, 0.5, 2.0, 3.5):
        assert app8_bound(alpha, 1) == pytest.approx(2.0 / (alpha + 1.0), rel=1e-12)


def test_app8_directions_and_monotonicity():
    for alpha in (0.25, 0.5):
        vals = [app8_bound(alpha, m) for m in (1, 2, 5, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > app8_wallis(alpha) for v in vals)
    for alpha in (2.0, 3.5):
        vals = [app8_bound(alpha, m) for m in (1, 2, 5, 10, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < app8_wallis(alpha) for v in vals)


def test_app8_trig_comparison_is_mixed():
    # for alpha > 1 the m=1 bound beats pi/(2(a+1)); on (0,1) the analogous
    # upper-bound comparison genuinely fails below ~0.535 and is only
    # recorded by the suite, not asserted
    for alpha in (2.0, 3.5):
        assert app8_bound(alpha, 1) > math.pi / (2.0 * (alpha + 1.0))
    assert app8_bound(0.25, 1) > (math.pi / 2.0) ** 1.25 / 1.25
    assert app8_bound(0.9, 1) < (math.pi / 2.0) ** 1.9 / 1.9


def test_app8_suite():
    rep = verify_suite("app8")
    assert rep.holds and rep.violations == 0
    assert any("recorded, not asserted" in n for n in rep.notes)


# --- app9 ---------------------------------------------------------------

def test_alzer_constants():
    assert ALZER_ALPHA == pytest.approx(0.4227843351, abs=1e-10)
    assert ALZER_BETA == pytest.approx(0.5338592, abs=1e-7)
    assert ALZER_ALPHA < ALZER_BETA


def test_app9_bound_values_at_half():
    a, d, _ = app9_alzer(0.5)
    assert a == pytest.approx(1.7274068, abs=1e-6)
    assert d == pytest.approx(1.7952009, abs=1e-6)
    g = ref_gamma(0.5)
    assert a < g < d


def test_app9_k1_l1_closed_forms():
    for x in (0.3, 0.45, 0.7, 2.0):
        k1, l1 = app9_refined(x, 1)
        assert k1 == pytest.approx((SQRT_PI / (2.0 * x)) * (x + 0.5) ** (ALZER_ALPHA * (x + 0.5)), rel=1e-12)
        assert l1 == pytest.approx((SQRT_PI / (2.0 * x)) * (x + 0.5) ** (x + 0.5 - EULER_GAMMA), rel=1e-12)


def test_app9_brackets_hold():
    for x in grid(0.01, 0.99, 99):
        a, d, _ = app9_alzer(x)
        assert a < ref_gamma(x) < d
    for x in grid(1.01, 100.0, 100):
        _, d, e = app9_alzer(x)
        assert d < ref_gamma(x) < e


def test_app9_k1_l1_are_gamma_bounds():
    for x in grid(0.01, 0.49, 49):
        assert app9_refined(x, 1)[0] <= ref_gamma(x)
    for x in grid(0.51, 50.0, 100):
        assert app9_refined(x, 1)[1] >= ref_gamma(x)


def test_app9_km_lm_tighten_with_m():
    ks = [app9_refined(0.3, m)[0] for m in (1, 2, 5, 10, 100)]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    ls = [app9_refined(2.0, m)[1] for m in (1, 2, 5, 10, 100)]
    assert all(a > b for a, b in zip(ls, ls[1:]))


def test_app9_j1_refinement_holds():
    for x in uniform_grid(0.5, 0.526, 1000, include_lo=False):
        _, d, _ = app9_alzer(x)
        _, l1 = app9_refined(x, 1)
        assert l1 <= d
    # and it genuinely stops holding just past the right endpoint
    _, d, _ = app9_alzer(0.53)
    _, l1 = app9_refined(0.53, 1)
    assert l1 > d


def test_app9_i1_claim_has_counterexamples():
    # K1 >= A fails on [0.241, x*); these are honest counterexamples,
    # reported by the suite rather than patched over
    x_star = app9_i1_crossing()
    assert x_star == pytest.approx(APP9_I1_CROSSING, abs=1e-9)
    for x in (0.241, 0.3, 0.4, x_star - 1e-7):
        k1, _ = app9_refined(x, 1)
        a, _, _ = app9_alzer(x)
        assert k1 < a, x
    for x in (x_star + 1e-7, 0.42, 0.499):
        k1, _ = app9_refined(x, 1)
        a, _, _ = app9_alzer(x)
        assert k1 > a, x  # holds from x* to 1/2
    # an mpmath referee at 40 digits, sharing no code with the package or
    # the float bisection, places the crossing at the same x*
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(40):
        alpha = 1 - mp.euler

        def log_k1_over_a(x):
            return mp.log(mp.sqrt(mp.pi) / (2 * x)) + alpha * (x + 0.5) * mp.log(x + 0.5) - (alpha * x - 1) * mp.log(x)

        root = mp.findroot(log_k1_over_a, (mp.mpf("0.3"), mp.mpf("0.5")), solver="bisect")
        assert abs(root - mp.mpf(APP9_I1_CROSSING)) < 1e-13
        assert abs(root - x_star) < 1e-14


def test_app9_p1_claim_has_counterexamples():
    for x in (1.562, 2.0, 10.0, 100.0):
        _, l1 = app9_refined(x, 1)
        _, _, e = app9_alzer(x)
        assert l1 > e, x
    # 40-digit mpmath referee: L1/E > 1 at every point of the suite's grid,
    # smallest at the left endpoint
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(40):
        def e_of(x):
            return x ** (x - 1 - mp.euler)

        def l1_over_e(x):
            return mp.sqrt(mp.pi) / (2 * x) * (x + 0.5) ** (x + 0.5 - mp.euler) / e_of(x)

        ratios = [l1_over_e(mp.mpf(x)) for x in uniform_grid(1.562, 100.0, 1000)]
        assert all(r > 1 for r in ratios)
        assert min(ratios) == ratios[0] > mp.mpf("1.67")
        # no order m rescues P1: L_m decreases in m to
        # sqrt(pi) E(x+1/2) / f(x, 1/2) = E(x+1/2) Gamma(x) / Gamma(x+1/2),
        # which still exceeds E at the left endpoint
        x = mp.mpf("1.562")
        l_inf = e_of(x + 0.5) * mp.gamma(x) / mp.gamma(x + 0.5)
        assert l_inf / e_of(x) > mp.mpf("1.237")


def test_app9_suite_reports_the_failures():
    rep = verify_suite("app9", points=400)
    assert not rep.holds
    assert rep.violations > 0
    assert any("K1 >= A" in n for n in rep.notes)
    assert any("L1 <= E" in n for n in rep.notes)
    assert any("counterexamples" in n for n in rep.notes)


def test_app9_i1_report_follows_its_grid():
    # [0.45, 0.5) lies above the crossing x* = 0.4175: I1 holds there, so
    # neither a K1 violation nor the K1(0.3) counterexample is reported,
    # while P1 still fails at every point
    rep = verify_suite("app9", lo=0.45)
    assert "which = 'K1 >= A on [0.45,0.5)'" in rep.grid
    assert "x in [0.45, 0.49995] x999" in rep.grid
    assert not any("K1" in n for n in rep.notes)
    assert "L1 <= E on [1.562,100]: 1000/1000 points violate" in " ".join(rep.notes)
    assert rep.violations == 1000
    assert any(n.startswith("refinement counterexamples") and "L1(1.562)" in n for n in rep.notes)


# --- app10 --------------------------------------------------------------

def test_app10_stirling_invariants():
    for x in grid(0.05, 50.0, 200):
        assert 0.0 < _stirling_mu(x) < 1.0 / (12.0 * x)


def test_app10_v_identity_via_joint_factor():
    for x in grid(0.05, 50.0, 40):
        f = joint_factor(JointFactorSpec(x, 0.5)).value
        want = _stirling_mu(x) + math.log(f / math.sqrt(math.pi * x))
        assert _stirling_v(x) == pytest.approx(want, abs=1e-9)


def test_app10_v_at_one():
    v = _stirling_v(1.0)
    assert v == pytest.approx(math.log(ref_gamma(1.5)) - 0.5 * math.log(2.0 * math.pi) + 1.0, abs=1e-12)
    assert v == pytest.approx(-0.0397, abs=1e-4)


def test_app10_schuster_bounds_hold():
    for x in grid(0.05, 50.0, 500):
        lo, hi = schuster_bounds(x)
        assert lo <= _stirling_v(x) <= hi


def test_app10_polynomial_probe_value():
    # the cubic 96 ln(2/pi) x^3 + 24 x^2 - 1 at 1/2: negative there, but
    # positive near 0.37, which is why the improvement claim is verified
    # pointwise instead
    poly = lambda x: 96.0 * math.log(2.0 / math.pi) * x**3 + 24.0 * x * x - 1.0
    assert poly(0.5) == pytest.approx(-0.419, abs=1e-3)
    assert poly(0.37) > 0.0


def test_app10_improvement_margin_at_tightest_point():
    x = 0.37
    rhs_i = 1.0 / (12.0 * x) + app10_truncate_rhs(x)
    assert rhs_i == pytest.approx(-0.0118, abs=1e-4)
    assert schuster_bounds(x)[1] == pytest.approx(-0.0098, abs=1e-4)
    assert rhs_i < schuster_bounds(x)[1]


def test_app10_mu_lower_bound_window():
    assert app10_mu_lower(0.144) > 0.0
    assert app10_mu_lower(0.14) < 0.0  # window boundary is genuinely near 0.143
    for x in grid(0.144, 0.4995, 200):
        lb = app10_mu_lower(x)
        assert lb > 0.0
        assert _stirling_mu(x) > lb


def test_app10_suite():
    rep = verify_suite("app10")
    assert rep.holds and rep.violations == 0


# --- driver -------------------------------------------------------------

def test_verify_suite_rejects_unknown():
    with pytest.raises(DomainError):
        verify_suite("app3")


@pytest.mark.parametrize("suite", ["app6", "app7", "app8"])
def test_truncation_suites_honour_m(suite):
    assert verify_suite(suite, m=3).grid != verify_suite(suite).grid


def test_uniform_grid_endpoints():
    g = uniform_grid(0.0, 1.0, 5)
    assert g == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert uniform_grid(0.0, 1.0, 5, include_lo=False)[0] == 0.25
    assert uniform_grid(0.0, 1.0, 5, include_hi=False)[-1] == 0.75
    with pytest.raises(DomainError, match=r"need hi > lo, got lo = 1\.0, hi = 0\.0"):
        uniform_grid(1.0, 0.0, 5)
    # one end the suite's default: the message names both values as run
    with pytest.raises(DomainError, match=r"need hi > lo, got lo = 2\.0, hi = 0\.999"):
        verify_suite("app5", lo=2.0)


def test_uniform_grid_refuses_a_span_beyond_the_double_range():
    with pytest.raises(DomainError, match=r"lo = -1e\+308, hi = 1e\+308"):
        uniform_grid(-1e308, 1e308, 3)
    # the widest finite spans keep lo + i * step, with step = (hi - lo) / (points - 1)
    for lo, hi in ((-7e307, 1e308), (0.0, 1.7976931348623157e308), (-1.7976931348623157e308, 0.0)):
        step = (hi - lo) / 4
        assert uniform_grid(lo, hi, 5) == [lo + i * step for i in range(5)]


def test_app1_reflection_matches_mpmath_up_to_the_ln_gamma_overflow(capsys):
    # gamma_neg = -[pi / sin(pi/p)] / [Gamma(1/p) / p] has no subnormal step,
    # so it keeps full precision until the oracle's ln Gamma(p) overflows
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for p in (*range(3, 13), 10**9, 10**155, 10**162, 2 * 10**162, 10**300, 25 * 10**304):
            want = mpmath.gamma(-mpmath.mpf(1) / p)
            assert abs(app1_bounds(p).gamma_neg / want - 1) <= 1e-15, p
    assert run(["bounds", "--suite", "app1", "--lo", "2e162", "--hi", "2e162"]) == 0
    capsys.readouterr()
    with pytest.raises(DomainError, match=r"ln Gamma\(2\.6e\+305\) exceeds the double range"):
        app1_bounds(26 * 10**304)


# Every default suite's report, pinned bit for bit: grid, violation count,
# notes (they carry the per-label counts of each violated claim) and the worst
# margin's exact bits, so that a change to how the grids are evaluated cannot
# move a single margin unnoticed.
_DEFAULT_REPORTS = {
    "app1": (0, "0x1.4966fad991fe0p-4", "app1: p in [3, 12] x10",
             ("positive-argument bound direction verified: ['lower'] (upper-bound reading fails)",)),
    "app5": (0, "0x1.bb5544b4a7000p-12", "app5: alpha in [0.001, 0.999] x1000", ()),
    "app6": (0, "0x1.674c59d316738p-4", "app6: y in [0.1, 0.9] x9, xs = (0.25, 0.5, 2.0, 4.0), ms = (1, 2, 5)", ()),
    "app7": (0, "0x1.12e0be826d695p-30", "app7: n in [1, 50] x50, s = 5, m = 5, eq_tol = 1e-09",
             ("n = 1 is the stated equality case: upper bound meets the ratio exactly (flagged, not a violation)",)),
    "app8": (0, "0x1.86abb462a0a58p-4", "app8: alpha in {0.25, 0.5, 2, 3.5}, m = 1",
             ("m=1 upper bound vs (pi/2)^(a+1)/(a+1) on (0,1): recorded, not asserted "
              "(dominates at 0/2 sampled alphas; fails for a < ~0.535)",)),
    "app9": (1681, "-0x1.979c059681172p+657",
             "app9_bracket: x in [0.001, 0.999] x1000; app9_bracket: x in [1.0991, 100] x999; "
             "app9_gamma_side: x in [0.001, 0.499] x1000; app9_gamma_side: x in [0.501, 100] x1000; "
             "app9_refinement: x in [0.241, 0.499741] x999, which = 'K1 >= A on [0.241,0.5)'; "
             "app9_refinement: x in [0.500026, 0.526] x999, which = 'L1 <= D on (0.5,0.526]'; "
             "app9_refinement: x in [1.562, 100] x1000, which = 'L1 <= E on [1.562,100]'",
             ("refinement counterexamples are genuine, not numerical: "
              "K1(0.3) = 2.739341 < A(0.3) = 2.861273; L1(1.562) = 1.661555 > E(1.562) = 0.993237",
              "K1 >= A on [0.241,0.5): 681/999 points violate (worst margin -0.24167)",
              "L1 <= E on [1.562,100]: 1000/1000 points violate (worst margin -9.52163e+197)")),
    "app10": (0, "0x1.7dbb8cb598000p-26",
              "app10: x in [0.05, 50] x1000; app10_improvement: x in [0.0001, 0.49995] x9999; "
              "app10_remark: x in [0.144, 0.499644] x999", ()),
}


@pytest.mark.parametrize("suite", sorted(_DEFAULT_REPORTS))
def test_default_suite_reports_are_pinned(suite):
    violations, worst_hex, grid_desc, notes = _DEFAULT_REPORTS[suite]
    rep = verify_suite(suite)
    assert (rep.violations, rep.grid, rep.notes) == (violations, grid_desc, notes)
    assert rep.worst_margin.hex() == worst_hex
    assert rep.holds is (violations == 0)


# The suites form each margin from only the bounds its check reads; these are
# the same margins formed per point from the public functions, which the
# column forms must equal bit for bit.
_APP9_MARGIN_AT = {
    "A < Gamma": lambda x: ref_gamma(x) - app9_alzer(x)[0],
    "Gamma < D": lambda x: app9_alzer(x)[1] - ref_gamma(x),
    "D < Gamma": lambda x: ref_gamma(x) - app9_alzer(x)[1],
    "Gamma < E": lambda x: app9_alzer(x)[2] - ref_gamma(x),
    "K1 <= Gamma": lambda x: ref_gamma(x) - app9_refined(x, 1)[0],
    "L1 >= Gamma": lambda x: app9_refined(x, 1)[1] - ref_gamma(x),
    "K1 >= A": lambda x: app9_refined(x, 1)[0] - app9_alzer(x)[0],
    "L1 <= D": lambda x: app9_alzer(x)[1] - app9_refined(x, 1)[1],
    "L1 <= E": lambda x: app9_alzer(x)[2] - app9_refined(x, 1)[1],
}


def test_app9_f1_is_the_one_factor_truncate_bit_for_bit():
    # every grid that reads f_1 (gamma side and refinements), x = 1/2 and the least double
    xs = [x for check in _suite_app9(None, None, None, None)[0][2:] for x in check.grid] + [0.5, 5e-324]
    assert [_app9_f(x, 1).hex() for x in xs] == [truncate(JointFactorSpec(x, 0.5), 1).hex() for x in xs]
    assert _app9_f(0.5, 1) == 1.0


@pytest.mark.parametrize("i", range(7))
def test_app9_columns_equal_the_public_functions_bit_for_bit(i):
    check = _suite_app9(None, None, None, None)[0][i]
    columns = check.margins(check.grid, **check.kwargs)
    assert len(columns) in (1, 2)  # each default grid lies on one side of its split
    for label, ms in columns.items():
        (margin,) = [f for key, f in _APP9_MARGIN_AT.items() if label.startswith(key)]
        assert ms == [margin(x) for x in check.grid], label


def test_app10_columns_equal_the_public_functions_bit_for_bit():
    (main, improvement, remark), _ = _suite_app10(None, None, None, None)
    xs = main.grid
    v = [_stirling_v(x) for x in xs]
    assert main.margins(xs) == {
        "schuster lower <= v": [vx - schuster_bounds(x)[0] for x, vx in zip(xs, v)],
        "v <= schuster upper": [schuster_bounds(x)[1] - vx for x, vx in zip(xs, v)],
        "v < 1/(12x) + rhs (0,1/2)": [1.0 / (12.0 * x) + app10_truncate_rhs(x) - vx for x, vx in zip(xs, v) if x < 0.5],
        "v > rhs (1/2,inf)": [vx - app10_truncate_rhs(x) for x, vx in zip(xs, v) if x > 0.5],
    }
    xs = improvement.grid
    assert improvement.margins(xs) == {"rhs of (i) < schuster upper (0,1/2)":
                                       [schuster_bounds(x)[1] - (1.0 / (12.0 * x) + app10_truncate_rhs(x)) for x in xs]}
    xs = remark.grid
    assert remark.margins(xs) == {
        "mu lower bound positive [0.144,0.5)": [app10_mu_lower(x) for x in xs],
        "mu > lower bound [0.144,0.5)": [_stirling_mu(x) - app10_mu_lower(x) for x in xs],
    }
    # the public functions keep their float expressions
    for x in improvement.grid[::97] + main.grid[::97]:
        inv = 1.0 / x
        assert schuster_bounds(x) == ((-1.0 / 24.0) * (inv + inv**3 / 120.0), (-1.0 / 24.0) * (inv - inv**3 / 8.0))
        assert app10_truncate_rhs(x) == math.log(4.0 * math.sqrt(x) / ((1.0 + 2.0 * x) * SQRT_PI))


@pytest.mark.parametrize("suite, kw", [
    ("app1", {"points": 5}),
    ("app7", {"points": 5}),
    ("app7", {"lo": 2, "hi": 9, "points": 5}),
    ("app8", {"points": 5}),
])
def test_points_a_grid_cannot_take_is_rejected(suite, kw):
    with pytest.raises(DomainError, match="points"):
        verify_suite(suite, **kw)


def test_points_moves_app8_once_lo_or_hi_is_given():
    assert verify_suite("app8", lo=0.1, points=5).grid != verify_suite("app8", lo=0.1).grid


@pytest.mark.parametrize("suite", ["app5", "app6", "app9", "app10"])
@pytest.mark.parametrize("points", [0, -3])
def test_points_below_one_is_rejected(suite, points):
    with pytest.raises(DomainError) as err:
        verify_suite(suite, points=points)
    assert str(err.value) == f"points must lie in [1, 1000000], got {points}"


@pytest.mark.parametrize("suite", ["app1", "app5", "app6", "app7", "app8", "app9", "app10"])
@pytest.mark.parametrize("bound", ["lo", "hi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_grid_ends_are_rejected(suite, bound, value):
    with pytest.raises(DomainError, match="must be finite"):
        verify_suite(suite, **{bound: value})


@pytest.mark.parametrize("suite, kw", [
    ("app5", {"points": MAX_GRID_POINTS + 1}),
    ("app9", {"points": 10**9}),
    ("app1", {"hi": 1e9}),
    ("app7", {"lo": -1e300}),
])
def test_grids_beyond_the_cap_are_refused_before_any_point(suite, kw):
    with pytest.raises(DomainError, match=str(MAX_GRID_POINTS)):
        verify_suite(suite, **kw)


def test_app8_alphas_that_print_alike_keep_every_margin():
    # the five alphas all print as 2 under :g, so they share each label
    columns = _app8_margins(uniform_grid(2.0, 2.000001, 5), 1)
    assert [len(ms) for ms in columns.values()] == [5, 5]
    # every margin counts: the worst one is the minimum over all five alphas, bit for bit
    rep = verify_suite("app8", lo=2.0, hi=2.000001, points=5)
    assert (rep.violations, rep.grid, rep.notes) == (0, "app8: alpha in {2, 2, 2, 2, 2}, m = 1", ())
    assert rep.worst_margin.hex() == "0x1.e652ff776be18p-4"
    rep = verify_suite("app8", lo=2.0, hi=2.000001, points=7, m=40)
    assert rep.worst_margin.hex() == "0x1.3cbda83c64f80p-8"


def test_app7_holds_at_any_order():
    # app7's bounds are truncates, O(1) in s and m, so no order is refused
    t0 = time.perf_counter()
    assert verify_suite("app7", m=10**9).holds
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 50, 999])
def test_app7_bounds_match_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40

    def f_m(x, m):  # m-truncate of f(x, 1/2) by its Gamma closed form
        x, h = mp.mpf(x), mp.mpf(1) / 2
        return mp.exp(mp.loggamma(m + 1) + mp.loggamma(x + m) - mp.loggamma(x) + mp.loggamma(h)
                      - mp.loggamma(m + h) + mp.loggamma(x + h) - mp.loggamma(x + m + h))

    for order in (1, 5, 1000, 10**9):
        lower, upper = app7_bounds(n, order, order)
        want_lower = f_m(mp.mpf(n + 1) / 2, order) / mp.pi
        want_upper = (mp.mpf(n) / 2) / f_m(mp.mpf(n) / 2, order)
        assert abs(lower / want_lower - 1) < 1e-15
        assert abs(upper / want_upper - 1) < 1e-15


@pytest.mark.parametrize("suite, kw, check", [
    ("app1", {"lo": 5, "hi": 3}, "check 1 of 1 (app1: p in {})"),
    ("app7", {"lo": 9, "hi": 2}, "check 1 of 1 (app7: n in {}"),
    ("app9", {"points": 1}, "check 2 of 7 (app9_bracket: x in {})"),
])
def test_empty_grids_are_refused_before_any_point(suite, kw, check, monkeypatch):
    evaluated = []
    monkeypatch.setattr(bounds, "ref_gamma", lambda x: evaluated.append(x))
    monkeypatch.setattr(bounds, "truncate", lambda *a: evaluated.append(a))
    with pytest.raises(DomainError, match="the grid is empty") as err:
        verify_suite(suite, **kw)
    assert check in str(err.value)
    assert evaluated == []


def test_overflowing_bounds_are_domain_errors():
    # 1/x^3 and the power-law bounds leave the float range; both were OverflowError tracebacks
    with pytest.raises(DomainError):
        verify_suite("app10", lo=1e-300, points=5)
    with pytest.raises(DomainError):
        verify_suite("app9", hi=1000.0)
    with pytest.raises(DomainError):  # Gamma(1e-320) ~ 1e320
        verify_suite("app5", lo=1e-320, hi=1e-300)
    with pytest.raises(DomainError):  # ln Gamma(x) and x ln x overflow; 1 + 2x overflows
        verify_suite("app10", hi=5e307)
    with pytest.raises(DomainError):
        app10_truncate_rhs(1e308)
    for x in (1e-110, 5e-324):  # 1/x^3 overflows; 1/x itself is inf
        with pytest.raises(DomainError):
            schuster_bounds(x)
    assert schuster_bounds(1e-100)[0] < 0.0


def test_app10_stirling_halves_are_the_decomposition():
    # mu and v against their definitions at 50 digits: Gamma(x) = sqrt(2 pi) x^{x-1/2} e^{-x} e^{mu}
    # and Gamma(x+1/2) = sqrt(2 pi) x^x e^{-x} e^{v}.  mu, and v below 10, are the oracle's
    # differences, so their error is absolute (~eps ln Gamma); from 10 on v is its own series,
    # accurate relative to v.
    mp = pytest.importorskip("mpmath")
    for x in (1e-3, 0.3, 1.0, 7.5, 9.999999, 10.0, 10.5, 1e3, 1e6):
        with mp.workdps(50):
            xm, ln_sqrt_2pi = mp.mpf(x), mp.log(2 * mp.pi) / 2
            mu = mp.loggamma(xm) - (ln_sqrt_2pi + (xm - 0.5) * mp.log(xm) - xm)
            v = mp.loggamma(xm + 0.5) - (ln_sqrt_2pi + xm * mp.log(xm) - xm)
        assert float(abs(_stirling_mu(x) - mu)) <= 4e-15 * max(1.0, abs(math.lgamma(x))), x
        err_v = float(abs(_stirling_v(x) - v))
        assert err_v <= (4e-15 if x < 10.0 else 1e-15 * float(abs(v))), x
    for half in (_stirling_mu, _stirling_v):
        with pytest.raises(DomainError):
            half(0.0)
    with pytest.raises(DomainError, match="1e6"):
        _stirling_v(1e6 * (1 + 2**-52))


def _mp_app10_v_margins(mp, hi):
    """Margins of app10's first check, on its default grid ending at ``hi``."""
    half = mp.mpf(1) / 2
    out = []
    for x in map(mp.mpf, uniform_grid(0.05, hi, 1000)):
        v = mp.loggamma(x + half) - (mp.log(2 * mp.pi) / 2 + x * mp.log(x) - x)
        lower, upper = -(1 / x + 1 / (120 * x**3)) / 24, -(1 / x - 1 / (8 * x**3)) / 24
        rhs = mp.log(4 * mp.sqrt(x) / ((1 + 2 * x) * mp.sqrt(mp.pi)))
        out += [v - lower, upper - v]
        if x != half:  # the suite's two truncate claims leave x = 1/2 out
            out.append(1 / (12 * x) + rhs - v if x < half else v - rhs)
    return out


@functools.cache
def _mp_app10_fixed_worst(mp):
    """Least margin of app10's second and third checks, whose grids are fixed."""
    half = mp.mpf(1) / 2
    rhs = lambda x: mp.log(4 * mp.sqrt(x) / ((1 + 2 * x) * mp.sqrt(mp.pi)))
    out = []
    for x in map(mp.mpf, uniform_grid(1e-4, 0.5, 10000, include_hi=False)):
        out.append(-(1 / x - 1 / (8 * x**3)) / 24 - (1 / (12 * x) + rhs(x)))
    for x in map(mp.mpf, uniform_grid(0.144, 0.5, 1000, include_hi=False)):
        lb = -(1 / x + 1 / (120 * x**3)) / 24 - rhs(x)
        out += [lb, mp.loggamma(x) - (mp.log(2 * mp.pi) / 2 + (x - half) * mp.log(x) - x) - lb]
    return min(out)


def _mp_app10_worst(hi=50.0):
    """app10's worst margin at 50 digits, its first grid ending at ``hi``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return min(_mp_app10_fixed_worst(mpmath.mp), *_mp_app10_v_margins(mpmath.mp, hi))


def test_pinned_margins_moved_toward_mpmath():
    # the stdlib oracle and v's own series moved app5's and app10's default worst
    # margins; each is closer to a 50-digit recomputation than the Lanczos-oracle pin
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        app5 = min(1 / mpmath.mpf(a) - mpmath.gamma(a) for a in uniform_grid(0.001, 0.999, 1000))
    for suite, exact, old_hex, tol in (("app5", app5, "0x1.bb5544b4a4000p-12", 5e-13),
                                       ("app10", _mp_app10_worst(), "0x1.7dbb8c9830000p-26", 1e-11)):
        new = float.fromhex(_DEFAULT_REPORTS[suite][1])
        err_new = float(abs(new / exact - 1))
        assert err_new <= tol
        assert err_new < float(abs(float.fromhex(old_hex) / exact - 1))


@pytest.mark.parametrize("hi", ["1e3", "5e3", "1e5", "1e6"])
def test_app10_holds_up_to_a_million(capsys, hi):
    # v(x) from its series keeps Schuster's 1/(360 x^3) margins; its oracle
    # difference reported 663 false violations at --hi 5e3
    code = run(["bounds", "--suite", "app10", "--hi", hi])
    payload = json.loads(capsys.readouterr().out)
    assert (code, payload["violations"]) == (0, 0)
    exact = _mp_app10_worst(float(hi))
    assert abs(payload["worst_margin"] / float(exact) - 1.0) <= 1e-2


def test_app10_beyond_a_million_is_a_domain_error(capsys):
    code = run(["bounds", "--suite", "app10", "--hi", "2e6"])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert "1e6" in out.err


@pytest.mark.parametrize("call, message", [
    (lambda: app7_bounds(0, 5, 5), "n must be >= 1, got 0"),
    (lambda: app7_bounds(3, 0, 5), "s must lie in [1, 2^53], got 0"),
    (lambda: app7_bounds(3, 5, 0), "m must lie in [1, 2^53], got 0"),
    (lambda: app8_bound(0.0, 1), "alpha must be positive, got 0.0"),
    (lambda: app8_bound(-2.0, 3), "alpha must be positive, got -2.0"),
    (lambda: app9_alzer(0.0), "x must be positive, got 0.0"),
    (lambda: app9_alzer(-1.0), "x must be positive, got -1.0"),
    (lambda: app10_truncate_rhs(0.0), "x must be positive, got 0.0"),
    (lambda: app10_truncate_rhs(-0.5), "x must be positive, got -0.5"),
    # cut down to a whole number, lo = 3.5 would check p = 3, below the lo given
    (lambda: verify_suite("app1", lo=3.5, hi=4.9), "suite app1 checks whole numbers only; lo=3.5 is not one"),
    (lambda: verify_suite("app1", lo=3.0, hi=4.9), "suite app1 checks whole numbers only; hi=4.9 is not one"),
    (lambda: verify_suite("app7", lo=0.5), "suite app7 checks whole numbers only; lo=0.5 is not one"),
], ids=["app7-n0", "app7-s0", "app7-m0", "app8-zero", "app8-negative", "app9-zero", "app9-negative",
        "app10-zero", "app10-negative", "app1-fractional-lo", "app1-fractional-hi", "app7-fractional-lo"])
def test_bound_families_refuse_arguments_below_their_domain(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message
