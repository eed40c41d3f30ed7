"""Command-line surface: evaluation, identity checks, bound suites and
convergence studies, with deterministic JSON/CSV output.

Exit codes: 0 success, 1 domain error, 3 bound-suite violation, 64 malformed
usage.  Numbers are printed with 17 significant digits and no locale
dependence, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from typing import Any, Sequence

from . import bounds as bounds_mod
from . import coeffs as coeffs_mod
from . import identities as ident_mod
from . import polygamma as poly_mod
from .errors import DomainError
from .gamma import RationalArgument, beta, gamma_rational
from .jointfactor import JointFactorSpec, TruncationPolicy, joint_factor, joint_factor_bracket
from .reference import ref_digamma, ref_gamma, ref_log_gamma, ref_trigamma

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VIOLATION = 3
EXIT_USAGE = 64

# Values argparse reads after "--f " besides -1 and -0.5: -1e-300, -inf, -nan.
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefix matching: --m is not --m-list
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # argparse would exit(2); we want 64
        raise _UsageError(message)


def _fmt(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            return '"%s"' % repr(x)
        return format(x, ".17g")
    return str(x)


def _render_json(obj: Any) -> str:
    if isinstance(obj, dict):
        inner = ",".join(f'"{k}":{_render_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if obj is None:
        return "null"
    return _fmt(obj)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    def cell(v: Any) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            if any(ch in v for ch in ',"\n'):
                return '"' + v.replace('"', '""') + '"'
            return v
        return _fmt(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _policy(args: argparse.Namespace) -> TruncationPolicy:
    return TruncationPolicy(mode="tail_corrected" if args.tail else "fixed", m=args.m)


_POLICY_FLAGS = {
    "m": {"type": int, "default": 1000, "help": "product truncation order"},
    "tail": {"action": "store_true", "help": "apply the exact tail correction"},
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The whole argparse tree, built at the first ``run`` and reused: parsing
    leaves nothing behind in it, so every later call parses alike."""
    top = _Parser(prog="gammaprod", description=__doc__)
    sub = top.add_subparsers(dest="verb", metavar="|".join(_HANDLERS))

    def common(p: _Parser, *policy: str) -> None:
        """The output flags, plus the policy flags the verb reads."""
        for name in policy:
            p.add_argument(f"--{name}", **_POLICY_FLAGS[name])
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="destination path (default: stdout)")

    p = sub.add_parser("gamma", description="Gamma(q/p) via the rational product factorization")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p, "m", "tail")

    p = sub.add_parser("jointfactor", description="f(x,b) = Gamma(x+b)Gamma(1-b)/Gamma(x)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    common(p, "m", "tail")

    p = sub.add_parser("coeffs", description="log-series coefficients g_n(x,b), both construction routes")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    for verb in ("digamma", "trigamma"):
        p = sub.add_parser(verb, description=f"accelerated {verb} on (0,1)")
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--n0", type=int, default=1000, help="head length before the analytic tail")
        common(p)

    p = sub.add_parser("beta", description="B(x,y) via the tail-corrected product")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    common(p, "m", "tail")

    p = sub.add_parser("identity", description="infinite-product identity checks")
    p.add_argument("--name", choices=("sin", "tan", "pow2", "quarter"), required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    common(p, "m", "tail")

    p = sub.add_parser("bounds", description="inequality verification suites")
    p.add_argument("--suite", choices=bounds_mod.SUITES, required=True)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    common(p, "m")
    p.set_defaults(m=None)  # suites pick their own truncation orders

    p = sub.add_parser("convergence", description="truncation-order studies against the reference oracle")
    p.add_argument("--target", choices=("quarter", "jointfactor", "digamma"), required=True)
    p.add_argument("--m-list", dest="m_list", required=True, help="comma-separated ascending truncation orders")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    common(p, "tail")
    return top


def _log_gamma_gap(x: float, h: float) -> float | None:
    """The oracle's ln Gamma(x+h) - ln Gamma(x), or None where it cannot
    resolve it: x+h rounds to x, or the two logs are so large that their
    difference keeps fewer than ~8 correct digits."""
    if x + h == x:
        return None
    big, small = ref_log_gamma(x + h), ref_log_gamma(x)
    if sys.float_info.epsilon * (abs(big) + abs(small)) > 1e-8:
        return None
    return big - small


def _rel_err(log_value: float, log_oracle: float | None) -> float | None:
    """|value/oracle - 1| from the logs, so it neither overflows nor cancels."""
    return None if log_oracle is None else abs(math.expm1(log_value - log_oracle))


_TARGET_FLAGS = {  # the flags each identity name or convergence target reads, of x, b, t and tail
    "identity": {"sin": ("x", "tail"), "tan": ("x", "tail"), "pow2": ("b", "tail"), "quarter": ()},
    "convergence": {"jointfactor": ("x", "b", "tail"), "digamma": ("t",), "quarter": ()},
}


def _check_target_flags(args, key: str, target: str) -> None:
    """A usage error for a flag that only other targets read, or for one ``target`` reads but lacks."""
    reads = _TARGET_FLAGS[args.verb][target]
    for flag in ("x", "b", "t", "tail"):
        given = args.tail if flag == "tail" else getattr(args, flag, None) is not None
        if given and flag not in reads:
            raise _UsageError(f"unrecognized arguments: --{flag} ({args.verb} {key} {target} does not read it)")
        if not given and flag in reads and flag != "tail":
            raise _UsageError(f"{args.verb} {key} {target} needs --{flag}")


def _dict_to_csv(payload: dict) -> str:
    row = ["; ".join(str(item) for item in v) if isinstance(v, (list, tuple)) else v for v in payload.values()]
    return _render_csv(list(payload.keys()), [row])


def _do_gamma(args) -> tuple[Any, int]:
    arg = RationalArgument(args.q, args.p)
    gv = gamma_rational(arg, _policy(args))
    oracle = ref_gamma(arg.value)
    payload = {
        "op": "gamma",
        "q": args.q,
        "p": args.p,
        "value": gv.value,
        "log_value": gv.log_value,
        "reciprocal": gv.reciprocal,
        "method": gv.method,
        "m_used": gv.m_used,
        "tail_corrected": args.tail,
        "rel_err_vs_oracle": abs(gv.value - oracle) / oracle,
    }
    return payload, EXIT_OK


def _do_jointfactor(args) -> tuple[Any, int]:
    pol = _policy(args)
    spec = JointFactorSpec(args.x, args.b)
    est = joint_factor(spec, pol)
    payload: dict[str, Any] = {
        "op": "jointfactor", "x": args.x, "b": args.b, "value": est.value,
        "log_value": est.log_value, "m_used": est.m_used, "tail_corrected": args.tail,
    }
    if args.tail:
        payload["lower"], payload["upper"] = joint_factor_bracket(spec, args.m)
    gap = _log_gamma_gap(args.x, args.b) if args.b > 0 else 0.0
    log_oracle = None if gap is None else gap + ref_log_gamma(1.0 - args.b)
    payload["rel_err_vs_oracle"] = _rel_err(est.log_value, log_oracle)
    return payload, EXIT_OK


def _do_coeffs(args) -> tuple[Any, int]:
    rec = coeffs_mod.g_sequence(args.x, args.b, args.n)
    orc = coeffs_mod.g_sequence_oracle(args.x, args.b, args.n)
    diff = max(abs(a - b) for a, b in zip(rec.g, orc.g))
    payload = {
        "op": "coeffs",
        "x": args.x,
        "b": args.b,
        "n": args.n,
        "g": list(rec.g),
        "g_oracle": list(orc.g),
        "max_abs_diff": diff,
    }
    if args.format == "csv":
        rows = [[i + 1, rec.g[i], orc.g[i], abs(rec.g[i] - orc.g[i])] for i in range(args.n)]
        return ("csv", _render_csv(["n", "g", "g_oracle", "abs_diff"], rows)), EXIT_OK
    return payload, EXIT_OK


def _do_polygamma(args) -> tuple[Any, int]:
    which = args.verb
    fn = poly_mod.digamma if which == "digamma" else poly_mod.trigamma
    res = fn(args.t, args.n0)
    oracle = ref_digamma(args.t) if which == "digamma" else ref_trigamma(args.t)
    payload = {
        "op": which,
        "t": args.t,
        "n0": args.n0,
        "value": res.value,
        "head_terms": res.head_terms,
        "tail_estimate": res.tail_estimate,
        "m_used": res.n0,
        "tail_corrected": True,
        "rel_err_vs_oracle": abs(res.value - oracle) / abs(oracle),
    }
    return payload, EXIT_OK


def _do_beta(args) -> tuple[Any, int]:
    pol = _policy(args)
    val = beta(args.x, args.y, pol)
    gap = _log_gamma_gap(args.x, args.y)
    log_oracle = None if gap is None else ref_log_gamma(args.y) - gap
    payload = {
        "op": "beta",
        "x": args.x,
        "y": args.y,
        "value": val,
        "m_used": pol.m,
        "tail_corrected": pol.mode != "fixed",
        "rel_err_vs_oracle": _rel_err(math.log(val), log_oracle),
    }
    return payload, EXIT_OK


def _do_identity(args) -> tuple[Any, int]:
    _check_target_flags(args, "--name", args.name)
    if args.name == "quarter":
        partials = ident_mod.quarter_partials(args.m)
        classical, new = partials[0][-1], partials[1][-1]
        ref = ident_mod.quarter_reference()
        ahead = all(abs(c - ref) <= abs(n - ref) for c, n in zip(*partials))
        payload = {
            "op": "identity",
            "name": "quarter",
            "m_used": args.m,
            "tail_corrected": False,
            "classical": classical,
            "new": new,
            "reference": ref,
            "classical_rel_err": abs(classical - ref) / ref,
            "new_rel_err": abs(new - ref) / ref,
            "stays_ahead": ahead,
        }
        return payload, EXIT_OK
    argument = args.b if args.name == "pow2" else args.x
    chk = ident_mod.check_identity(args.name, argument, args.m, tail=args.tail)
    payload = {
        "op": "identity",
        "name": chk.name,
        "argument": chk.argument,
        "lhs": chk.lhs,
        "rhs": chk.rhs,
        "rel_residual": chk.rel_residual,
        "m_used": chk.m,
        "tail_corrected": bool(args.tail),
    }
    return payload, EXIT_OK


def _do_bounds(args) -> tuple[Any, int]:
    report = bounds_mod.verify_suite(args.suite, lo=args.lo, hi=args.hi, points=args.points, m=args.m)
    payload = {
        "op": "bounds",
        "suite": report.suite,
        "grid": report.grid,
        "violations": report.violations,
        "worst_margin": report.worst_margin,
        "holds": report.holds,
        "notes": list(report.notes),
    }
    return payload, EXIT_OK if report.holds else EXIT_VIOLATION


def _parse_m_list(text: str) -> list[int]:
    try:
        ms = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad --m-list: {exc}")
    if not ms or ms[0] < 1 or any(b <= a for a, b in zip(ms, ms[1:])):
        raise _UsageError("--m-list must be ascending positive integers")
    return ms


def _do_convergence(args) -> tuple[Any, int]:
    _check_target_flags(args, "--target", args.target)
    ms = _parse_m_list(args.m_list)
    rows: list[list[Any]] = []
    if args.target == "quarter":
        classical, new = ident_mod.quarter_partials(ms[-1])
        ref = ident_mod.quarter_reference()
        header = ["m", "classical", "classical_abs_err", "new", "new_abs_err"]
        for m in ms:
            c, n = classical[m - 1], new[m - 1]
            rows.append([m, c, abs(c - ref), n, abs(n - ref)])
    elif args.target == "jointfactor":
        spec = JointFactorSpec(args.x, args.b)
        gap = _log_gamma_gap(args.x, args.b) if args.b > 0 else 0.0
        oracle = None if gap is None else math.exp(gap + ref_log_gamma(1.0 - args.b))
        header = ["m", "estimate", "abs_err_vs_oracle", "tail_corrected"]
        for m in ms:
            est = joint_factor(spec, TruncationPolicy(mode="tail_corrected" if args.tail else "fixed", m=m)).value
            rows.append([m, est, None if oracle is None else abs(est - oracle), bool(args.tail)])
    else:
        oracle = ref_digamma(args.t)
        header = ["n0", "raw", "raw_abs_err", "accelerated", "accelerated_abs_err"]
        for m in ms:
            raw = poly_mod.digamma_series_raw(args.t, m)
            acc = poly_mod.digamma(args.t, max(m, 10)).value
            rows.append([m, raw, abs(raw - oracle), acc, abs(acc - oracle)])
    if args.format == "json":
        payload = {
            "op": "convergence",
            "target": args.target,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        return payload, EXIT_OK
    return ("csv", _render_csv(header, rows)), EXIT_OK


# The library's input names that differ from the flag that sets them, per verb.
_FLAGS = {"coeffs": {"N": "--n"}, "convergence": {"m": "--m-list", "N": "--m-list"}}

_HANDLERS = {
    "gamma": _do_gamma,
    "jointfactor": _do_jointfactor,
    "coeffs": _do_coeffs,
    "digamma": _do_polygamma,
    "trigamma": _do_polygamma,
    "beta": _do_beta,
    "identity": _do_identity,
    "bounds": _do_bounds,
    "convergence": _do_convergence,
}


def run(argv: Sequence[str]) -> int:
    """Execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.verb is None:
            raise _UsageError("a verb is required")
        payload, code = _HANDLERS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        text = str(exc)
        for param in exc.params:  # each input the library blames, named by the flag typed
            text = re.sub(rf"\b{param}\b", _FLAGS.get(args.verb, {}).get(param, "--" + param), text)
        print(f"domain error: {text}", file=sys.stderr)
        return EXIT_DOMAIN
    except SystemExit:  # argparse --help
        return EXIT_OK

    if isinstance(payload, tuple) and payload and payload[0] == "csv":
        _emit(payload[1], args.output)
    elif args.format == "csv":
        _emit(_dict_to_csv(payload), args.output)
    else:
        _emit(_render_json(payload) + "\n", args.output)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
