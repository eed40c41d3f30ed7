"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.

Criterion 9's app9 suite is run on its refinement intervals exactly as
stated, and the test asserts its exact verdict: two of the claimed intervals
contain genuine counterexamples, so the suite reports them as violations
(`bounds --suite app9` exits 3) and the test checks that it reports those and
nothing else (test_bounds.py pins the counterexamples directly).
"""

import math
import re
import time

import pytest

from conftest import adaptive_simpson, app9_i1_crossing, g2_closed_form, grid, reduced_pairs
from gammaprod.bounds import uniform_grid, verify_suite
from gammaprod.cli import run
from gammaprod.coeffs import g_sequence, g_sequence_oracle
from gammaprod.gamma import RationalArgument, gamma_duplication, gamma_rational
from gammaprod.identities import (
    check_identity,
    pow2_reference,
    quarter_partials,
    quarter_reference,
)
from gammaprod.jointfactor import JointFactorSpec, TruncationPolicy, joint_factor, joint_factor_bracket, truncate
from gammaprod.polygamma import digamma, digamma_series_raw, trigamma
from gammaprod.reference import EULER_GAMMA, ref_digamma, ref_gamma, ref_log_gamma, ref_trigamma

_timings: dict[str, float] = {}


def _report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{tag}: {detail}"


def _timed(tag):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _timings[tag] = time.perf_counter() - self.t0
            return False

    return _Ctx()


def oracle_f(x: float, b: float) -> float:
    return math.exp(ref_log_gamma(x + b) + ref_log_gamma(1.0 - b) - ref_log_gamma(x))


def test_criterion_01_coefficient_equivalence():
    with _timed("c01"):
        worst = 0.0
        for x in grid(0.1, 0.9, 9):
            for b in grid(0.05, 0.95, 10):
                rec = g_sequence(x, b, 40).g
                orc = g_sequence_oracle(x, b, 40).g
                for gr, go in zip(rec, orc):
                    worst = max(worst, abs(gr - go) / max(1.0, abs(go)))
        anchor_ok = g_sequence(0.25, 0.5, 1).g[0] == 0.125
        g2_ok = all(
            abs(g_sequence(x, b, 2).g[1] - g2_closed_form(x, b)) <= 1e-14 * max(1.0, abs(g2_closed_form(x, b)))
            for x, b in ((0.25, 0.5), (0.7, 0.2), (1.9, 0.85))
        )
    elapsed = _timings["c01"]
    _report(
        "criterion 01 coefficient equivalence (9x10 grid, n<=40, rel 1e-10, <1s)",
        worst <= 1e-10 and anchor_ok and g2_ok and elapsed < 1.0,
        f"worst rel diff {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_joint_factor_accuracy():
    with _timed("c02"):
        xs = grid(0.1, 2.9, 20)
        bs = grid(0.05, 0.95, 10)
        policy = TruncationPolicy(mode="tail_corrected", m=1000)
        worst_corrected = 0.0
        worst_raw = 0.0
        bracket_ok = True
        for x in xs:
            for b in bs:
                spec = JointFactorSpec(x, b)
                f = oracle_f(x, b)
                est = joint_factor(spec, policy)
                worst_corrected = max(worst_corrected, abs(est.value - f) / f)
                raw = truncate(spec, 1000)
                worst_raw = max(worst_raw, abs(raw - f) / f)
        # 200-point bracket validity at a cheaper order
        for x in xs:
            for b in bs:
                lower, upper = joint_factor_bracket(JointFactorSpec(x, b), 200)
                bracket_ok = bracket_ok and lower <= oracle_f(x, b) <= upper
    elapsed = _timings["c02"]
    _report(
        "criterion 02 joint-factor accuracy (200-grid: corrected 1e-9, raw ~1e-3, <2s)",
        worst_corrected <= 1e-9 and 1e-4 < worst_raw < 1e-2 and bracket_ok and elapsed < 2.0,
        f"corrected {worst_corrected:.3e}, raw {worst_raw:.3e}, {elapsed:.2f}s",
    )


def test_criterion_03_rational_gamma():
    with _timed("c03"):
        worst = 0.0
        slowest = 0.0
        for q, p in reduced_pairs(12):
            t0 = time.perf_counter()
            got = gamma_rational(RationalArgument(q, p)).value
            slowest = max(slowest, time.perf_counter() - t0)
            worst = max(worst, abs(got - ref_gamma(q / p)) / ref_gamma(q / p))
    _report(
        "criterion 03 rational Gamma (all reduced q/p, p<=12, rel 1e-8, each <0.1s)",
        worst <= 1e-8 and slowest < 0.1,
        f"worst rel err {worst:.3e}, slowest call {slowest * 1e3:.1f}ms",
    )


def test_criterion_04_reflection_and_duplication():
    with _timed("c04"):
        worst_refl = 0.0
        for q, p in reduced_pairs(12):
            lhs = gamma_rational(RationalArgument(q, p)).value * gamma_rational(RationalArgument(p - q, p)).value
            rhs = math.pi / math.sin(math.pi * q / p)
            worst_refl = max(worst_refl, abs(lhs - rhs) / rhs)
        worst_dup = 0.0
        for q, p in reduced_pairs(12):
            got = gamma_duplication(q / (2.0 * p))
            want = gamma_rational(RationalArgument(q, p)).value
            worst_dup = max(worst_dup, abs(got - want) / want)
    _report(
        "criterion 04 reflection and duplication invariants (rel 1e-9)",
        worst_refl <= 1e-9 and worst_dup <= 1e-9,
        f"reflection {worst_refl:.3e}, duplication {worst_dup:.3e}",
    )


def test_criterion_05_quarter_products(capsys):
    with _timed("c05"):
        ref = quarter_reference()
        classical, new = quarter_partials(1000)
        ahead = all(abs(c - ref) <= abs(n - ref) for c, n in zip(classical, new))
        converge = abs(classical[-1] - ref) < 1e-6 * ref and abs(new[-1] - ref) < 2e-3 * ref
        ref_ok = abs(ref - 13.1450472) < 1e-6
        t0 = time.perf_counter()
        code = run(["convergence", "--target", "quarter", "--m-list", "1,10,100,1000", "--format", "csv"])
        csv_elapsed = time.perf_counter() - t0
        capsys.readouterr()
    _report(
        "criterion 05 quarter-squared products (converge to 13.1450472, stays-ahead m<=1e3, CSV <5s)",
        ahead and converge and ref_ok and code == 0 and csv_elapsed < 5.0,
        f"classical_1000 err {abs(classical[-1] - ref):.2e}, new_1000 err {abs(new[-1] - ref):.2e}, csv {csv_elapsed:.2f}s",
    )


def test_criterion_06_identity_suite():
    with _timed("c06"):
        worst = 0.0
        for x in grid(0.02, 0.98, 50):
            worst = max(worst, check_identity("sin", x, 1000).rel_residual)
        for x in grid(0.02, 0.48, 50):
            worst = max(worst, check_identity("tan", x, 1000).rel_residual)
        for b in grid(0.05, 0.95, 50):
            worst = max(worst, check_identity("pow2", b, 1000).rel_residual)
    _report(
        "criterion 06 sin/tan/pow2 identities (50 args each, tail-corrected m=1e3, rel 1e-6)",
        worst <= 1e-6,
        f"worst residual {worst:.3e}",
    )


def test_criterion_07_digamma():
    with _timed("c07"):
        half_err = abs(digamma(0.5, 200).value - (-EULER_GAMMA - 2.0 * math.log(2.0)))
        grid_ok = True
        dominance_ok = True
        for t in grid(0.05, 0.95, 19):
            ref = ref_digamma(t)
            acc_err = abs(digamma(t, 1000).value - ref)
            raw_err = abs(digamma_series_raw(t, 1000) - ref)
            grid_ok = grid_ok and acc_err <= 1e-5
            dominance_ok = dominance_ok and acc_err < raw_err
    _report(
        "criterion 07 digamma (psi(1/2) 1e-6 at n0=200; grid 1e-5 at n0=1e3; acceleration dominance)",
        half_err <= 1e-6 and grid_ok and dominance_ok,
        f"psi(1/2) err {half_err:.3e}",
    )


def test_criterion_08_trigamma():
    with _timed("c08"):
        half_err = abs(trigamma(0.5, 500).value - math.pi**2 / 2.0)
        grid_ok = all(abs(trigamma(t, 1000).value - ref_trigamma(t)) <= 1e-3 for t in grid(0.05, 0.95, 19))
    _report(
        "criterion 08 trigamma (psi'(1/2) 1e-4 at n0=500; grid 1e-3)",
        half_err <= 1e-4 and grid_ok,
        f"psi'(1/2) err {half_err:.3e}",
    )


def test_criterion_09_bound_suites_that_hold():
    with _timed("c09a"):
        reports = {}
        for suite in ("app5", "app6", "app7", "app8", "app10"):
            reports[suite] = verify_suite(suite)
        app1 = verify_suite("app1")
        quad_ok = all(
            abs(adaptive_simpson(lambda th: math.sin(th) ** a, 0.0, math.pi / 2.0, tol=1e-10)
                - joint_factor(JointFactorSpec(a / 2.0, 0.5)).value / a) <= 1e-8
            for a in (0.25, 0.5, 2.0, 3.5)
        )
        ok = all(r.holds for r in reports.values()) and app1.holds and quad_ok
        # the app1 report must record the corrected (lower bound) direction
        direction_ok = any("lower" in note for note in app1.notes)
    _report(
        "criterion 09 bound suites app1/5/6/7/8/10 (all hold; app1 records corrected direction)",
        ok and direction_ok,
        "; ".join(f"{k}:{'ok' if v.holds else 'VIOLATIONS'}" for k, v in reports.items()),
    )


_APP9_I1 = "K1 >= A on [0.241,0.5)"
_APP9_P1 = "L1 <= E on [1.562,100]"


def _violations_by_label(notes) -> dict[str, tuple[int, int]]:
    """{label: (violating points, points)} from a report's violation notes."""
    found = {}
    for note in notes:
        hit = re.match(r"(.*): (\d+)/(\d+) points violate", note)
        if hit:
            found[hit.group(1)] = (int(hit.group(2)), int(hit.group(3)))
    return found


def test_criterion_09_app9_suite_as_stated():
    """Run on its intervals exactly as stated, the app9 suite must give the
    mathematically correct verdict.  Two refinement claims are false:
    K1 >= A on [0.241, 0.5) fails below the closed-form crossing
    x* = 0.41751022878714 (K1(0.3) = 2.7393 < A(0.3) = 2.8613), and
    L1 <= E on [1.562, 100] fails everywhere (L1(1.562) = 1.6616 >
    E(1.562) = 0.9932).  So the suite must not hold, must report exactly
    those violations (the I1 grid points below x*, all 1000 P1 points) and
    no other, and must find no K1 >= A violation once the I1 grid starts
    at x*.
    """
    with _timed("c09b"):
        x_star = app9_i1_crossing()
        i1_grid = uniform_grid(0.241, 0.5, 1000, include_hi=False)
        i1_below = sum(1 for x in i1_grid if x < x_star)
        rep = verify_suite("app9")
        found = _violations_by_label(rep.notes)
        from_x_star = _violations_by_label(verify_suite("app9", lo=x_star + 1e-9).notes)
    expected = {_APP9_I1: (i1_below, len(i1_grid)), _APP9_P1: (1000, 1000)}
    _report(
        "criterion 09 app9 refinements on [0.241,0.5), (0.5,0.526], [1.562,100] "
        "(exit 3: I1 fails below x*, P1 everywhere, counterexamples reported)",
        not rep.holds
        and found == expected
        and rep.violations == i1_below + 1000
        and not any(label.startswith("K1 >= A") for label in from_x_star),
        f"x*={x_star!r}; expected {expected}, got {found} (violations={rep.violations}); "
        f"from x*: {from_x_star}",
    )


def test_criterion_10_monotone_truncation_law():
    with _timed("c10"):
        ok = True
        # sigma > 0: strictly decreasing, every truncate above the oracle value
        for x, b in ((0.3, 0.2), (0.1, 0.45), (0.5, 0.25)):
            f = oracle_f(x, b)
            vals = [truncate(JointFactorSpec(x, b), m) for m in range(1, 120)]
            ok = ok and all(a > b_ for a, b_ in zip(vals, vals[1:])) and all(v > f for v in vals)
        # sigma < 0: strictly increasing, every truncate below
        for x, b in ((1.7, 0.6), (2.9, 0.95), (0.9, 0.4)):
            f = oracle_f(x, b)
            vals = [truncate(JointFactorSpec(x, b), m) for m in range(1, 120)]
            ok = ok and all(a < b_ for a, b_ in zip(vals, vals[1:])) and all(v < f for v in vals)
        # sigma = 0: identically one
        for x, b in ((0.6, 0.4), (0.5, 0.5), (0.25, 0.75)):
            vals = [truncate(JointFactorSpec(x, b), m) for m in (1, 2, 10, 50)]
            ok = ok and all(v == 1.0 for v in vals)
    _report("criterion 10 monotone truncation law (all three sign branches)", ok)


def test_overall_wall_clock_budget():
    total = sum(_timings.values())
    _report(
        "overall acceptance wall clock (<60s single-threaded)",
        total < 60.0,
        f"{total:.1f}s across {len(_timings)} timed criteria",
    )
