"""Command-line surface: evaluation, identity checks, bound suites and
convergence studies, with deterministic JSON/CSV output.

Exit codes: 0 success, 1 domain error, 2 convergence failure, 3 bound-suite
violation, 64 malformed usage.  Numbers are printed with 17 significant
digits and no locale dependence, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Sequence

from . import bounds as bounds_mod
from . import coeffs as coeffs_mod
from . import identities as ident_mod
from . import polygamma as poly_mod
from .errors import ConvergenceError, DomainError
from .gamma import RationalArgument, beta, gamma_rational
from .jointfactor import JointFactorSpec, TruncationPolicy, joint_factor, truncate
from .reference import ref_digamma, ref_gamma, ref_log_gamma, ref_trigamma

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONVERGENCE = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # no prefix matching: --m is not --m-list
        super().__init__(*args, allow_abbrev=False, **kwargs)

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
    if getattr(args, "tol", None) is not None:
        return TruncationPolicy(mode="adaptive", m=args.m, tol=args.tol)
    if args.tail:
        return TruncationPolicy(mode="tail_corrected", m=args.m)
    return TruncationPolicy(mode="fixed", m=args.m)


_POLICY_FLAGS = {
    "m": {"type": int, "default": 1000, "help": "product truncation order"},
    "tail": {"action": "store_true", "help": "apply the exact tail correction"},
    "tol": {"type": float, "default": None, "help": "relative tolerance (switches to adaptive truncation)"},
}


def _build_parser() -> _Parser:
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
    common(p, "m", "tail", "tol")

    p = sub.add_parser("jointfactor", description="f(x,b) = Gamma(x+b)Gamma(1-b)/Gamma(x)")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    common(p, "m", "tail", "tol")

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


def _estimate_payload(op: str, inputs: dict, est, oracle: float | None) -> dict:
    out: dict[str, Any] = {"op": op, **inputs}
    out["value"] = est.value
    out["log_value"] = est.log_value
    out["m_used"] = est.m_used
    out["tail_corrected"] = est.tail_corrected
    if est.lower is not None:
        out["lower"] = est.lower
        out["upper"] = est.upper
    if oracle is not None:
        out["rel_err_vs_oracle"] = abs(est.value - oracle) / abs(oracle)
    return out


def _dict_to_csv(payload: dict) -> str:
    row = []
    for v in payload.values():
        if isinstance(v, (list, tuple)):
            row.append("; ".join(str(item) for item in v))
        else:
            row.append(v)
    return _render_csv(list(payload.keys()), [row])


def _do_gamma(args) -> tuple[Any, int]:
    gv = gamma_rational(RationalArgument(args.q, args.p), _policy(args))
    arg = RationalArgument(args.q, args.p)
    oracle = ref_gamma(arg.value)
    payload = {
        "op": "gamma",
        "q": args.q,
        "p": args.p,
        "value": gv.value,
        "log_value": gv.log_value,
        "reciprocal": gv.reciprocal,
        "method": gv.method,
        "m_used": args.m,
        "tail_corrected": args.tail or args.tol is not None,
        "rel_err_vs_oracle": abs(gv.value - oracle) / oracle,
    }
    return payload, EXIT_OK


def _do_jointfactor(args) -> tuple[Any, int]:
    pol = _policy(args)
    if pol.mode == "tail_corrected":
        pol = TruncationPolicy(mode="bracket", m=pol.m)  # same estimate, plus bounds
    spec = JointFactorSpec(args.x, args.b)
    est = joint_factor(spec, pol)
    oracle = math.exp(ref_log_gamma(args.x + args.b) + ref_log_gamma(1.0 - args.b) - ref_log_gamma(args.x)) if args.b > 0 else 1.0
    return _estimate_payload("jointfactor", {"x": args.x, "b": args.b}, est, oracle), EXIT_OK


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
    oracle = math.exp(ref_log_gamma(args.x) + ref_log_gamma(args.y) - ref_log_gamma(args.x + args.y))
    payload = {
        "op": "beta",
        "x": args.x,
        "y": args.y,
        "value": val,
        "m_used": pol.m,
        "tail_corrected": pol.mode != "fixed",
        "rel_err_vs_oracle": abs(val - oracle) / oracle,
    }
    return payload, EXIT_OK


def _do_identity(args) -> tuple[Any, int]:
    if args.name == "quarter":
        classical, new = ident_mod.gamma_quarter_squared(args.m)
        ref = ident_mod.quarter_reference()
        partials = ident_mod.quarter_partials(args.m)
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
    if argument is None:
        raise _UsageError(f"identity --name {args.name} needs --{'b' if args.name == 'pow2' else 'x'}")
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
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise _UsageError("--m-list must be ascending positive integers")
    return ms


def _do_convergence(args) -> tuple[Any, int]:
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
        if args.x is None or args.b is None:
            raise _UsageError("convergence --target jointfactor needs --x and --b")
        spec = JointFactorSpec(args.x, args.b)
        oracle = math.exp(ref_log_gamma(args.x + args.b) + ref_log_gamma(1.0 - args.b) - ref_log_gamma(args.x))
        header = ["m", "estimate", "abs_err_vs_oracle", "tail_corrected"]
        for m in ms:
            if args.tail:
                est = joint_factor(spec, TruncationPolicy(mode="tail_corrected", m=m)).value
            else:
                est = truncate(spec, m)
            rows.append([m, est, abs(est - oracle), bool(args.tail)])
    else:
        if args.t is None:
            raise _UsageError("convergence --target digamma needs --t")
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
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
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
