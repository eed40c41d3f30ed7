"""Bound families and the verification suites, including the documented
counterexamples to the two claimed refinement intervals."""

import math

import pytest

from conftest import adaptive_simpson, app9_i1_crossing, grid
from gammaprod.bounds import (
    AlzerConstants,
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
    app10_stirling,
    app10_truncate_rhs,
    schuster_bounds,
    uniform_grid,
    verify_suite,
)
from gammaprod.errors import DomainError
from gammaprod.jointfactor import JointFactorSpec, joint_factor
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
    c = AlzerConstants()
    assert c.alpha == pytest.approx(0.4227843351, abs=1e-10)
    assert c.beta == pytest.approx(0.5338592, abs=1e-7)
    assert c.alpha < c.beta


def test_app9_bound_values_at_half():
    a, d, _ = app9_alzer(0.5)
    assert a == pytest.approx(1.7274068, abs=1e-6)
    assert d == pytest.approx(1.7952009, abs=1e-6)
    g = ref_gamma(0.5)
    assert a < g < d


def test_app9_k1_l1_closed_forms():
    c = AlzerConstants()
    for x in (0.3, 0.45, 0.7, 2.0):
        k1, l1 = app9_refined(x, 1)
        assert k1 == pytest.approx((SQRT_PI / (2.0 * x)) * (x + 0.5) ** (c.alpha * (x + 0.5)), rel=1e-12)
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
        dec = app10_stirling(x)
        assert 0.0 < dec.mu < 1.0 / (12.0 * x)


def test_app10_v_identity_via_joint_factor():
    for x in grid(0.05, 50.0, 40):
        dec = app10_stirling(x)
        f = joint_factor(JointFactorSpec(x, 0.5)).value
        want = dec.mu + math.log(f / math.sqrt(math.pi * x))
        assert dec.v == pytest.approx(want, abs=1e-9)


def test_app10_v_at_one():
    dec = app10_stirling(1.0)
    assert dec.v == pytest.approx(math.log(ref_gamma(1.5)) - 0.5 * math.log(2.0 * math.pi) + 1.0, abs=1e-12)
    assert dec.v == pytest.approx(-0.0397, abs=1e-4)


def test_app10_schuster_bounds_hold():
    for x in grid(0.05, 50.0, 500):
        lo, hi = schuster_bounds(x)
        assert lo <= app10_stirling(x).v <= hi


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
        assert app10_stirling(x).mu > lb


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
    with pytest.raises(DomainError):
        uniform_grid(1.0, 0.0, 5)
