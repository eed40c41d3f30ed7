"""CLI surface: verbs, exit codes, deterministic JSON/CSV output."""

import json
import math
import time

import pytest

from gammaprod.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    run,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_json_payload(capsys):
    code, out, _ = invoke(capsys, "gamma", "--q", "1", "--p", "4", "--m", "10000", "--tail")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert list(payload.keys()) == [
        "op", "q", "p", "value", "log_value", "reciprocal", "method", "m_used", "tail_corrected", "rel_err_vs_oracle",
    ]
    assert payload["op"] == "gamma"
    assert payload["value"] == pytest.approx(3.6256099, abs=1e-6)
    assert payload["tail_corrected"] is True
    assert payload["rel_err_vs_oracle"] < 1e-9


def test_output_is_byte_identical_across_runs(capsys):
    args = ("jointfactor", "--x", "0.3333333333333333", "--b", "0.25", "--m", "500", "--tail")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert "lower" in payload and "upper" in payload
    assert payload["lower"] <= payload["value"] <= payload["upper"]


def test_numbers_have_17_significant_digits(capsys):
    _, out, _ = invoke(capsys, "jointfactor", "--x", "0.25", "--b", "0.5", "--m", "1000", "--tail")
    assert format(0.5990701173677961, ".17g") in out


def test_identity_tan_quarter_residual_zero(capsys):
    code, out, _ = invoke(capsys, "identity", "--name", "tan", "--x", "0.25", "--m", "100")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lhs"] == 1.0
    assert payload["rel_residual"] < 1e-15


def test_identity_quarter(capsys):
    code, out, _ = invoke(capsys, "identity", "--name", "quarter", "--m", "1000")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["stays_ahead"] is True
    assert payload["classical_rel_err"] < payload["new_rel_err"]


def test_identity_missing_argument_is_usage_error(capsys):
    code, _, err = invoke(capsys, "identity", "--name", "sin", "--m", "10")
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_coeffs_csv(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--x", "0.25", "--b", "0.5", "--n", "3", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,g,g_oracle,abs_diff"
    assert lines[1].startswith("1,0.125,0.125,")
    assert len(lines) == 4


def test_digamma_verb(capsys):
    code, out, _ = invoke(capsys, "digamma", "--t", "0.5", "--n0", "200")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == pytest.approx(-1.9635100260214235, abs=1e-6)
    assert payload["rel_err_vs_oracle"] < 1e-6


def test_trigamma_verb(capsys):
    code, out, _ = invoke(capsys, "trigamma", "--t", "0.5", "--n0", "500")
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.pi**2 / 2.0, abs=1e-4)


def test_beta_verb(capsys):
    code, out, _ = invoke(capsys, "beta", "--x", "0.5", "--y", "0.5", "--m", "1000", "--tail")
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(math.pi, rel=1e-9)


@pytest.mark.parametrize("x, b", [(1e6, 0.9), (1e300, 0.5), (1e300, 0.9)])
def test_jointfactor_bracket_at_huge_x(capsys, x, b):
    # the bracket's tail bound grows like ln(x)/x, so it neither overflows nor misses f
    mp = pytest.importorskip("mpmath")
    code, out, _ = invoke(capsys, "jointfactor", "--x", repr(x), "--b", repr(b), "--m", "1000", "--tail")
    assert code == EXIT_OK
    payload = json.loads(out)
    with mp.workdps(360):  # ln Gamma(1e300) has 303 digits before the point
        f = mp.exp(mp.loggamma(mp.mpf(x) + b) - mp.loggamma(x)) * mp.gamma(1 - mp.mpf(b))
    assert payload["lower"] <= f <= payload["upper"]
    # the value is exp(ln f): a few ulps of ln f (~346 and ~624 at 1e300) is its floor
    assert abs(payload["value"] - f) <= 4e-16 * max(1.0, payload["log_value"]) * f


@pytest.mark.parametrize("tail", [False, True])
def test_jointfactor_reports_the_tail_flag_at_b_zero(capsys, tail):
    # f(x, 0) = 1 exactly; tail_corrected echoes --tail, and the bracket is the point 1
    code, out, _ = invoke(capsys, "jointfactor", "--x", "0.73", "--b", "0", *(["--tail"] if tail else []))
    payload = json.loads(out)
    assert code == EXIT_OK and payload["tail_corrected"] is tail and payload["value"] == 1.0
    assert (payload.get("lower"), payload.get("upper")) == ((1.0, 1.0) if tail else (None, None))


def test_beta_at_huge_x(capsys):
    # B(1e300, 1/2) = sqrt(pi) (1e300)^(-1/2) (1 + O(1e-300)): finite, not NaN
    code, out, _ = invoke(capsys, "beta", "--x", "1e300", "--y", "0.5", "--tail")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(math.pi) * 1e-150, rel=4e-16 * 346)


def _f_exact(mp, x, b):
    with mp.workdps(360):  # ln Gamma(1e300) has 303 digits before the point
        return mp.exp(mp.loggamma(mp.mpf(x) + b) - mp.loggamma(x)) * mp.gamma(1 - mp.mpf(b))


@pytest.mark.parametrize("x, b", [(1e-20, 0.5), (1e-300, 0.5), (1.5e-208, 0.032)])
@pytest.mark.parametrize("m", ["1", "1000"])
def test_jointfactor_at_tiny_x(capsys, x, b, m):
    # the k = 1 factor's c/D_1 rounds to -1 below x ~ 1e-16; its log is now direct
    mp = pytest.importorskip("mpmath")
    f = _f_exact(mp, x, b)
    code, out, _ = invoke(capsys, "jointfactor", "--x", repr(x), "--b", repr(b), "--m", m, "--tail")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lower"] <= f <= payload["upper"]
    if m == "1000":
        assert abs(payload["value"] - f) <= 1e-13 * f
        assert payload["rel_err_vs_oracle"] <= 1e-13
    # raw truncates (fixed mode and the convergence study) take the same head
    code, out, _ = invoke(capsys, "jointfactor", "--x", repr(x), "--b", repr(b), "--m", m)
    assert code == EXIT_OK and json.loads(out)["value"] > 0.0
    code, _, _ = invoke(capsys, "convergence", "--target", "jointfactor", "--x", repr(x), "--b", repr(b), "--m-list", "1,10,1000")
    assert code == EXIT_OK


def test_jointfactor_overflow_is_domain_error(capsys):
    # f(1e300, 1 - 2^-53) ~ 1e316 lies beyond the double range
    code, out, err = invoke(capsys, "jointfactor", "--x", "1e300", "--b", "0.9999999999999999", "--tail")
    assert code == EXIT_DOMAIN and out == ""
    assert "overflow" in err


@pytest.mark.parametrize(
    "verb, t, value",
    [
        ("digamma", "1e-17", -1e17),  # used to fail in the zeta tail's power_tail(1+t)
        ("digamma", "5.6e-309", -1.0 / 5.6e-309 - 0.5772156649015329),  # psi ~ -1/t still fits a double
        ("trigamma", "1e-154", 1e308),
        ("trigamma", "7.5e-155", 1.0 / 7.5e-155**2),
    ],
)
def test_polygamma_at_tiny_t(capsys, verb, t, value):
    code, out, _ = invoke(capsys, verb, "--t", t)
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize(
    "verb, t", [("digamma", "5.5e-309"), ("digamma", "5e-324"), ("trigamma", "7.4e-155"), ("trigamma", "1e-200")]
)
def test_polygamma_overflow_is_domain_error(capsys, verb, t):
    code, out, err = invoke(capsys, verb, "--t", t)
    assert code == EXIT_DOMAIN and out == ""
    assert "overflows" in err


@pytest.mark.parametrize(
    "argv, value",
    [
        (("beta", "--x", "1e-17", "--y", "0.5", "--tail"), 1e17),  # B(x, y) = 1/x - psi(y) - g + O(x)
        (("beta", "--x", "1e-300", "--y", "0.5", "--tail"), 1e300),
        (("identity", "--name", "sin", "--x", "1e-17", "--m", "1000", "--tail"), math.pi * 1e-17),
        (("identity", "--name", "tan", "--x", "1e-17", "--m", "1000", "--tail"), math.pi * 1e-17),
        (("identity", "--name", "pow2", "--b", "1e-17", "--m", "1000", "--tail"), 0.5 / (math.pi * 1e-17)),
    ],
)
def test_products_at_tiny_arguments(capsys, argv, value):
    # each ended in a traceback while the k = 1 factor was formed as 1 + c/D_1
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload.get("value", payload.get("lhs")) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize(
    "argv",
    [
        ("beta", "--x", "1e-320", "--y", "0.5"),  # B ~ 1/x overflows
        ("beta", "--x", "nan", "--y", "0.5"),
        ("beta", "--x", "inf", "--y", "0.5"),
        ("identity", "--name", "quarter", "--m", "1000000000"),  # raw running products, O(m) lists
    ],
)
def test_product_inputs_out_of_range_are_domain_errors(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""


def test_identity_residual_near_the_reflection_points(capsys):
    # the closed forms reflect, so 1/2 - x and 1 - x keep their bits
    for argv in (
        ("--name", "tan", "--x", "0.49999999999999994"),
        ("--name", "sin", "--x", "0.9999999999"),
        ("--name", "pow2", "--b", "0.9999999999"),
    ):
        code, out, _ = invoke(capsys, "identity", *argv, "--m", "1000", "--tail")
        assert code == EXIT_OK
        assert json.loads(out)["rel_residual"] < 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ("jointfactor", "--x", "0.25", "--b", "0.5", "--tail"),
        ("jointfactor", "--x", "1e6", "--b", "0.5", "--tail"),
        ("jointfactor", "--x", "1e-20", "--b", "0.5", "--tail"),
        ("beta", "--x", "0.5", "--y", "0.5", "--tail"),
        ("beta", "--x", "1e6", "--y", "0.5", "--tail"),
    ],
)
def test_rel_err_vs_oracle_where_the_oracle_resolves(capsys, argv):
    # the oracle's ln Gamma difference at x = 1e6 keeps ~8 digits, so the
    # field reads the oracle's error, not the product's (~1e-15)
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    assert json.loads(out)["rel_err_vs_oracle"] <= 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ("jointfactor", "--x", "1e300", "--b", "0.5", "--tail"),
        ("jointfactor", "--x", "1e7", "--b", "0.5", "--tail"),
        ("jointfactor", "--x", "1e20", "--b", "1e-5", "--tail"),  # x + b == x
        ("beta", "--x", "1e300", "--y", "0.5", "--tail"),
    ],
)
def test_rel_err_vs_oracle_is_null_where_the_oracle_cancels(capsys, argv):
    # ln Gamma(x+b) - ln Gamma(x) loses every digit at x = 1e300 (the field
    # read 1.77e150 for jointfactor and 1 for beta) and all but ~7 at x = 1e7
    code, out, _ = invoke(capsys, *argv)
    assert code == EXIT_OK
    assert '"rel_err_vs_oracle":null' in out
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert out.splitlines()[1].endswith(",")


def test_convergence_error_is_null_where_the_oracle_cancels(capsys):
    # at x = 1e300 the field read the estimate itself (~1.77e150)
    code, out, _ = invoke(capsys, "convergence", "--target", "jointfactor", "--x", "1e300", "--b", "0.5", "--m-list", "1,1000", "--tail")
    assert code == EXIT_OK
    assert [row["abs_err_vs_oracle"] for row in json.loads(out)["rows"]] == [None, None]


def test_bounds_app5_exit_zero(capsys):
    code, out, _ = invoke(capsys, "bounds", "--suite", "app5", "--lo", "0.001", "--hi", "0.999", "--points", "1000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["holds"] is True and payload["violations"] == 0


def test_bounds_app9_exit_three(capsys):
    # the suite faithfully reports the two failing refinement claims
    code, out, _ = invoke(capsys, "bounds", "--suite", "app9", "--points", "200")
    assert code == EXIT_VIOLATION
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["violations"] > 0


@pytest.mark.parametrize("suite", ["app1", "app5", "app9", "app10"])
def test_bounds_m_on_fixed_order_suite_is_domain_error(capsys, suite):
    code, out, err = invoke(capsys, "bounds", "--suite", suite, "--points", "20", "--m", "5")
    assert code == EXIT_DOMAIN and out == ""
    assert "fixed truncation order" in err


@pytest.mark.parametrize("argv, limit", [
    (("convergence", "--target", "digamma", "--t", "0.5", "--m-list", "1000000000"), "1000000"),
    (("coeffs", "--x", "0.25", "--b", "0.5", "--n", "100000"), "2000"),
])
def test_quadratic_or_unbounded_work_is_refused_at_once(capsys, argv, limit):
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_DOMAIN and out == "" and limit in err
    assert time.perf_counter() - t0 < 0.1  # refused before any term is formed


def test_bounds_csv_format(capsys):
    code, out, _ = invoke(capsys, "bounds", "--suite", "app1", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert lines[0].startswith("op,suite,grid,violations,worst_margin,holds")


def test_convergence_quarter_csv(capsys):
    code, out, _ = invoke(capsys, "convergence", "--target", "quarter", "--m-list", "1,10,100,1000", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,classical,classical_abs_err,new,new_abs_err"
    assert len(lines) == 5
    # classical error column dominates row-wise
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) <= float(cells[4])


def test_convergence_jointfactor(capsys):
    code, out, _ = invoke(
        capsys, "convergence", "--target", "jointfactor", "--x", "0.3333333333333333",
        "--b", "0.3333333333333333", "--m-list", "1,10,100",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = payload["rows"]
    assert rows[0]["estimate"] == pytest.approx(0.75, rel=1e-12)
    assert rows[0]["abs_err_vs_oracle"] == pytest.approx(0.0655366, abs=1e-5)
    errs = [r["abs_err_vs_oracle"] for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_convergence_digamma(capsys):
    code, out, _ = invoke(capsys, "convergence", "--target", "digamma", "--t", "0.5", "--m-list", "100,1000")
    payload = json.loads(out)
    for row in payload["rows"]:
        assert row["accelerated_abs_err"] < row["raw_abs_err"]


def test_convergence_mlist_validation(capsys):
    code, _, err = invoke(capsys, "convergence", "--target", "quarter", "--m-list", "10,5")
    assert code == EXIT_USAGE
    code, out, err = invoke(capsys, "convergence", "--target", "quarter", "--m-list", "0,5")
    assert (code, out) == (EXIT_USAGE, "")  # m = 0 read the last partial as its row


@pytest.mark.parametrize("argv, flag, internal", [
    (("identity", "--name", "quarter", "--m", "2000000"), "--m", "m_max"),
    (("convergence", "--target", "digamma", "--t", "0.3", "--m-list", "1,2000000"), "--m-list", "N must"),
    (("convergence", "--target", "quarter", "--m-list", "1,2000000"), "--m-list", "m_max"),
])
def test_range_errors_name_the_flag_typed(capsys, argv, flag, internal):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert f"{flag} must lie in [1, 1000000], got 2000000" in err
    assert internal not in err


def test_coeffs_range_error_names_the_flag_typed(capsys):
    code, out, err = invoke(capsys, "coeffs", "--x", "0.25", "--b", "0.5", "--n", "100000")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert "--n must lie in [1, 2000], got 100000" in err and "N must" not in err


@pytest.mark.parametrize("argv, message", [
    (("gamma", "--q", "1", "--p", "4", "--m", "0"), "--m must lie in [1, 2^53], got 0"),
    (("beta", "--x", "0.5", "--y", "0.5", "--m", "0"), "--m must lie in [1, 2^53], got 0"),
    (("jointfactor", "--x", "0.5", "--b", "0.5", "--m", "0"), "--m must lie in [1, 2^53], got 0"),
    (("jointfactor", "--x", "0.5", "--b", "0.5", "--m", str(2**53 + 1)), f"--m must lie in [1, 2^53], got {2**53 + 1}"),
    (("identity", "--name", "sin", "--x", "0.3", "--m", "0"), "--m must lie in [1, 2^53], got 0"),
    (("bounds", "--suite", "app6", "--m", "0"), "--m must lie in [1, 2^53], got 0"),
    (("convergence", "--target", "jointfactor", "--x", "0.3", "--b", "0.2", "--m-list", f"1,{2**53 + 1}"),
     f"--m-list must lie in [1, 2^53], got {2**53 + 1}"),
    (("digamma", "--t", "0.5", "--n0", "5"), "--n0 must lie in [10, 2^53], got 5"),
    (("trigamma", "--t", "0.5", "--n0", "5"), "--n0 must lie in [10, 2^53], got 5"),
    (("gamma", "--q", "0", "--p", "3"), "--q must be >= 1, got 0"),
    (("bounds", "--suite", "app10", "--points", "0"), "--points must lie in [1, 1000000], got 0"),
    (("bounds", "--suite", "app5", "--lo", "0.5", "--hi", "0.2"), "--hi must not lie below --lo, got --lo 0.5 --hi 0.2"),
    (("gamma", "--q", "5", "--p", "3"), "--q must not exceed --p, got --q 5 --p 3"),
])
def test_head_length_errors_name_the_flag_typed(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: {message}\n"


@pytest.mark.parametrize("grid, message", [
    (("--lo", "-1", "--hi", "0.5"), "x must be positive, got -1.0"),
    (("--lo", "0", "--hi", "0.5"), "x must be positive, got 0.0"),
    (("--lo", "1e-320"), "the power-law bounds exceed the double range at x = 1e-320"),
    # A(x + 1/2) itself overflows; below that, only unread powers did
    (("--hi", "1000"), "the power-law bounds exceed the double range at x = 297.96664864864863"),
], ids=["negative-lo", "zero-lo", "subnormal-lo", "hi-1000"])
def test_app9_grid_domain_errors(capsys, grid, message):
    code, out, err = invoke(capsys, "bounds", "--suite", "app9", *grid)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: {message}\n"


_SPAN = ("--lo", "-1e308", "--hi", "1e308", "--points", "3")


@pytest.mark.parametrize("argv, message", [
    (("app6", "--lo", "1e-320", "--hi", "1e-319", "--points", "3"),
     "B(x, y) exceeds the double range at y = 1e-320 (x = 0.25)"),
    (("app1", "--lo", "2.6e305", "--hi", "2.6e305"), "ln Gamma(2.6e+305) exceeds the double range"),
    *[((suite, *_SPAN), "the span hi - lo exceeds the double range: lo = -1e+308, hi = 1e+308")
      for suite in ("app5", "app6", "app9", "app10")],
], ids=["app6-tiny-y", "app1-huge-p", "app5-span", "app6-span", "app9-span", "app10-span"])
def test_bounds_beyond_the_double_range_are_domain_errors(capsys, argv, message):
    code, out, err = invoke(capsys, "bounds", "--suite", *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: {message}\n"


def test_app9_reports_where_only_an_unread_power_overflows(capsys):
    # E(x + 1/2) overflows from x = 144.01 on, but K1 >= A reads only A
    code, out, _ = invoke(capsys, "bounds", "--suite", "app9", "--hi", "200")
    assert code == EXIT_VIOLATION
    notes = json.loads(out)["notes"]
    assert "K1 >= A on [0.241,200): 1/999 points violate (worst margin -0.24167)" in notes


def test_domain_error_exit(capsys):
    code, _, err = invoke(capsys, "gamma", "--q", "0", "--p", "4")
    assert code == EXIT_DOMAIN
    assert "domain error" in err
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "gamma", "--q", "1", "--p", "100003")
    assert code == EXIT_DOMAIN and out == "" and "1024" in err
    assert time.perf_counter() - t0 < 0.1  # refused before any factor is formed
    code, out, err = invoke(capsys, "jointfactor", "--x", "inf", "--b", "0.5")
    assert code == EXIT_DOMAIN and out == ""
    assert "finite" in err


def test_gamma_reports_the_head_its_factors_used(capsys):
    # fixed and tail modes use --m for every factor
    for extra in ((), ("--tail",)):
        code, out, _ = invoke(capsys, "gamma", "--q", "3", "--p", "7", "--m", "1", *extra)
        assert code == EXIT_OK
        assert json.loads(out)["m_used"] == 1, extra


@pytest.mark.parametrize(
    "argv",
    [
        ("beta", "--x", "2.5", "--y", "0.5"),
        ("gamma", "--q", "3", "--p", "7"),
        ("jointfactor", "--x", "0.25", "--b", "0.5"),
    ],
    ids=lambda argv: argv[0],
)
def test_heads_beyond_ten_million_are_accepted(capsys, argv):
    # the fixed and tail modes cost the same at any m up to 2^53
    for extra in ((), ("--tail",)):
        code, out, err = invoke(capsys, *argv, "--m", "100000000", *extra)
        assert code == EXIT_OK, err
        assert json.loads(out)["m_used"] == 100000000


_HUGE_M = "1" + "0" * 400  # beyond the double range: m + 1.0 would overflow
_HUGE_M_COMMANDS = [
    ("jointfactor", "--x", "0.5", "--b", "0.3", "--m", _HUGE_M),
    ("jointfactor", "--x", "0.5", "--b", "0.3", "--m", _HUGE_M, "--tail"),
    ("gamma", "--q", "3", "--p", "7", "--m", _HUGE_M),
    ("beta", "--x", "2.5", "--y", "0.5", "--m", _HUGE_M),
    ("identity", "--name", "sin", "--x", "0.3", "--m", _HUGE_M),
    ("convergence", "--target", "jointfactor", "--x", "0.5", "--b", "0.3", "--m-list", "1," + _HUGE_M),
] + [("bounds", "--suite", suite, "--m", _HUGE_M) for suite in ("app6", "app7", "app8")]


@pytest.mark.parametrize("argv", _HUGE_M_COMMANDS, ids=lambda argv: " ".join(argv).replace(_HUGE_M, "1e400"))
def test_heads_beyond_two_to_the_53_are_domain_errors(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_DOMAIN and out == "" and err.startswith("domain error:"), err
    assert "2^53" in err


def test_a_head_of_two_to_the_53_is_accepted(capsys):
    for extra in ((), ("--tail",)):
        code, out, err = invoke(capsys, "jointfactor", "--x", "0.5", "--b", "0.3", "--m", str(2**53), *extra)
        assert code == EXIT_OK, err
        assert json.loads(out)["m_used"] == 2**53
    code, _, err = invoke(capsys, "jointfactor", "--x", "0.5", "--b", "0.3", "--m", str(2**53 + 1))
    assert code == EXIT_DOMAIN and "2^53" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("beta", "--x", "-1e-300", "--y", "0.5"),
        ("beta", "--x", "2.5", "--y", "-1e5"),
        ("digamma", "--t", "-inf"),
        ("digamma", "--t", "-1E-5"),
        ("jointfactor", "--x", "-1e-300", "--b", "0.5"),
        ("jointfactor", "--x", "0.5", "--b", "-inf"),
        ("jointfactor", "--x", "0.5", "--b", "-nan"),
    ],
    ids=" ".join,
)
def test_negative_values_after_a_space_are_values(capsys, argv):
    # argparse alone reads -1e-300 or -inf after "--x " as a flag
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_DOMAIN and out == "" and "domain error" in err
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert invoke(capsys, *joined)[0] == EXIT_DOMAIN


def test_usage_error_exit(capsys):
    code, _, _ = invoke(capsys, "gamma", "--bogus")
    assert code == EXIT_USAGE
    code, _, _ = invoke(capsys)
    assert code == EXIT_USAGE
    code, _, _ = invoke(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code = run(["gamma", "--q", "1", "--p", "3", "--tail", "--output", str(dest)])
    assert code == EXIT_OK
    payload = json.loads(dest.read_text())
    assert payload["value"] == pytest.approx(2.678938534707747, rel=1e-9)


def test_gamma_without_tail_is_raw_truncation(capsys):
    _, out, _ = invoke(capsys, "gamma", "--q", "1", "--p", "3", "--m", "1000")
    payload = json.loads(out)
    assert payload["tail_corrected"] is False
    assert 1e-6 < payload["rel_err_vs_oracle"] < 1e-3


_VERB_ARGS = {
    "gamma": ("--q", "1", "--p", "3"),
    "jointfactor": ("--x", "0.25", "--b", "0.5"),
    "coeffs": ("--x", "0.25", "--b", "0.5", "--n", "3"),
    "digamma": ("--t", "0.5", "--n0", "100"),
    "trigamma": ("--t", "0.5", "--n0", "100"),
    "beta": ("--x", "0.5", "--y", "0.5"),
    "identity": ("--name", "sin", "--x", "0.25"),
    "bounds": ("--suite", "app5", "--points", "8"),
    "convergence": ("--target", "quarter", "--m-list", "1,10"),
}
_UNREAD_FLAGS = [
    ("coeffs", "--m", "5"), ("coeffs", "--tail"), ("coeffs", "--tol", "1e-6"),
    ("digamma", "--m", "5"), ("digamma", "--tail"), ("digamma", "--tol", "1e-6"),
    ("trigamma", "--m", "5"), ("trigamma", "--tail"), ("trigamma", "--tol", "1e-6"),
    ("gamma", "--tol", "1e-6"), ("jointfactor", "--tol", "1e-6"),
    ("beta", "--tol", "1e-12"), ("identity", "--tol", "1e-6"),
    ("bounds", "--tail"), ("bounds", "--tol", "1e-3"),
    ("convergence", "--m", "5"), ("convergence", "--tol", "1e-6"),
] + [(verb, "--jobs", "2") for verb in _VERB_ARGS]
# identity and convergence register the flags of all their targets; each target refuses the others'
_TARGET_ARGS = {
    "identity-quarter": ("identity", "--name", "quarter"),
    "identity-sin": ("identity", "--name", "sin", "--x", "0.25"),
    "identity-tan": ("identity", "--name", "tan", "--x", "0.25"),
    "identity-pow2": ("identity", "--name", "pow2", "--b", "0.25"),
    "convergence-quarter": ("convergence", "--target", "quarter", "--m-list", "1,10"),
    "convergence-digamma": ("convergence", "--target", "digamma", "--t", "0.3", "--m-list", "1,10"),
    "convergence-jointfactor": ("convergence", "--target", "jointfactor", "--x", "0.3", "--b", "0.2", "--m-list", "1,10"),
}
_UNREAD_FLAGS += [
    ("identity-quarter", "--tail"), ("identity-quarter", "--x", "0"), ("identity-quarter", "--b", "0.25"),
    ("identity-sin", "--b", "0.25"), ("identity-tan", "--b", "0.25"), ("identity-pow2", "--x", "0.25"),
    ("convergence-quarter", "--tail"), ("convergence-digamma", "--tail"),
    ("convergence-quarter", "--x", "0.3"), ("convergence-quarter", "--b", "0.2"),
    ("convergence-digamma", "--x", "0.3"), ("convergence-digamma", "--b", "0.2"),
    ("convergence-quarter", "--t", "0.3"), ("convergence-jointfactor", "--t", "0.3"),
]


@pytest.mark.parametrize("verb, flag", [(v, f) for v, *f in _UNREAD_FLAGS], ids=[" ".join(f) for f in _UNREAD_FLAGS])
def test_flags_a_verb_does_not_read_are_usage_errors(capsys, verb, flag):
    argv = _TARGET_ARGS[verb] if verb in _TARGET_ARGS else (verb, *_VERB_ARGS[verb])
    code, _, err = invoke(capsys, *argv)
    assert code == EXIT_OK, err
    code, out, err = invoke(capsys, *argv, *flag)
    assert code == EXIT_USAGE and out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("argv, needs", [
    (("identity", "--name", "sin"), "--x"),
    (("identity", "--name", "pow2", "--tail"), "--b"),
    (("convergence", "--target", "jointfactor", "--x", "0.3", "--m-list", "1"), "--b"),
    (("convergence", "--target", "digamma", "--m-list", "1"), "--t"),
])
def test_a_target_without_its_argument_is_a_usage_error(capsys, argv, needs):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "") and f"needs {needs}" in err


def test_every_value_verb_carries_the_common_keys(capsys):
    invocations = [
        ("gamma", "--q", "2", "--p", "5", "--tail"),
        ("jointfactor", "--x", "0.4", "--b", "0.3", "--tail"),
        ("digamma", "--t", "0.4", "--n0", "100"),
        ("trigamma", "--t", "0.4", "--n0", "100"),
        ("beta", "--x", "0.4", "--y", "0.3", "--tail"),
        ("identity", "--name", "sin", "--x", "0.4", "--m", "200", "--tail"),
    ]
    for argv in invocations:
        code, out, _ = invoke(capsys, *argv)
        assert code == EXIT_OK, argv
        payload = json.loads(out)
        assert payload["op"] == argv[0]
        assert "m_used" in payload and "tail_corrected" in payload, argv
        # inputs are echoed (identity echoes its argument under "argument")
        if argv[0] == "identity":
            assert payload["name"] == "sin" and payload["argument"] == 0.4
        else:
            for flag, value in zip(argv[1::2], argv[2::2]):
                key = flag.lstrip("-")
                if key in ("m", "tail"):
                    continue
                assert key in payload, (argv, key)


def test_a_bad_command_line_leaves_no_state_behind(capsys):
    # the parser is built once per process; a failed parse must not leak into the next call
    import os
    import subprocess
    import sys

    import gammaprod

    good = ["bounds", "--suite", "app8", "--format", "csv"]
    src = os.path.dirname(os.path.dirname(gammaprod.__file__))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from gammaprod.cli import main; sys.argv[1:] = %r; main()" % good],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    for bad in (["bounds", "--suite", "app11"], ["gamma", "--q", "1"], ["bounds", "--suite", "app8", "--lo", "x"]):
        assert invoke(capsys, *bad)[0] == EXIT_USAGE
        code, out, err = invoke(capsys, *good)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv, code, out_start, err_start", [
    (("convergence", "--target", "quarter", "--m-list", "1,a"), EXIT_USAGE, "", "usage error: bad --m-list: "),
    (("--help",), EXIT_OK, "usage: gammaprod", ""),
], ids=["m-list-not-an-int", "help"])
def test_usage_branches_end_in_their_exit_code(capsys, argv, code, out_start, err_start):
    got, out, err = invoke(capsys, *argv)
    assert got == code
    assert out.startswith(out_start) and err.startswith(err_start)
    assert (out == "") == (out_start == "") and (err == "") == (err_start == "")
