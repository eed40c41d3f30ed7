"""Span tracing from outside the program, for the per-layer metrics.

Each layer is one gammaprod module.  Its functions are wrapped under every
name that any gammaprod module (or the package itself) holds for them:
gammaprod imports with ``from .x import y``, so patching only the defining
module would miss the calls made through the importer's own binding.

A span is (name, start, end, parent).  Spans are folded into per-function
aggregates as they close, instead of being kept, because a suite run makes
tens of thousands of them: the open spans live on a stack, and on close the
span's duration and self time (duration minus the time its child spans
cover) are added to its function's totals and to its (parent, child) edge.

Every traced name feeds a per-layer metric, so a name that is gone, or a work
counter that no longer fits its function's signature, stops the run with
``MetricSourceError`` instead of reading as zero work: a refactor that moves
the work elsewhere has to remap the metric, not inherit a fake gain.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Functions traced per layer.  Private names are listed where the layer's
# work or its counters sit in them (the Gamma(q/p) memo, the oracle anchor,
# the suites' per-point margin functions).
LAYERS = {
    "jointfactor": (
        "joint_factor", "truncate", "log_partial_product", "_extend_log_partial",
        "log_product_tail", "tail_sum_inverse", "tail_sum_inverse_sq", "joint_factor_series",
    ),
    "gamma": (
        "gamma_rational", "gamma_negative", "gamma_ratio", "gamma_duplication", "gamma_inv_p_pow",
        "beta", "beta_partial", "_factor_log", "_log_gamma_anchor",
    ),
    "polygamma": ("digamma", "trigamma", "zeta_tail", "digamma_series_raw"),
    "reference": (
        "ref_log_gamma", "ref_gamma", "ref_digamma", "ref_trigamma", "_psi3",
        "ref_zeta", "power_tail", "log_power_tail",
    ),
    "identities": (
        "sin_product", "tan_product", "pow2_product", "_product", "check_identity",
        "gamma_quarter_squared", "quarter_partials",
    ),
    "coeffs": ("g_sequence", "g_sequence_oracle", "h_sequence", "h_closed", "sum_g"),
    "bounds": (
        "verify_suite", "app1_bounds", "_app5_margins", "_app6_margins", "_app7_margins",
        "_app8_margins", "_app9_bracket_margins", "_app9_gamma_side_margins",
        "_app9_refinement_margins", "_app10_margins", "_app10_improvement_margins",
        "_app10_remark_margins",
    ),
    "cli": ("run",),
}

# Exact work counts taken from a call's arguments.
_HEAD_TERMS = {
    ("jointfactor", "log_partial_product"): lambda c, u, v, m: m if c != 0.0 else 0,
    ("jointfactor", "_extend_log_partial"): lambda c, u, v, start, stop, *rest: max(0, stop - start + 1),
    ("polygamma", "digamma"): lambda t, n0: n0,
    ("polygamma", "trigamma"): lambda t, n0: n0,
}


class MetricSourceError(RuntimeError):
    """A gammaprod name that defines a per-layer metric is missing or no
    longer fits how the metric reads it."""


class Tracer:
    """Installs span wrappers on gammaprod's layer functions while active."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.terms: dict[str, int] = defaultdict(int)
        self.violations = 0
        self.error: Exception | None = None  # first work-counter failure
        self._stack: list[list] = []  # open spans: [name, start, child_time]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dur
                if stack:
                    stack[-1][2] += dur
                if count is not None:
                    # an exception here would land in the program's call, so
                    # it is kept and raised when the tracer is uninstalled
                    try:
                        self.terms[name] += count(*args, **kwargs)
                    except Exception as exc:
                        self.error = self.error or exc

        for attr in ("cache_info", "cache_clear"):  # keep memo APIs working
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def _wrap_suite(self, fn):
        """verify_suite also adds up the violations its reports count."""

        @functools.wraps(fn)
        def suite(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.violations += report.violations
            return report

        return suite

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "gammaprod" or n.startswith("gammaprod.")}
        for layer, names in LAYERS.items():
            home = modules.get(f"gammaprod.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    raise MetricSourceError(f"gammaprod.{layer}.{fname} is gone; remap the metrics traced through it")
                wrapped = self._wrap(f"{layer}.{fname}", original, _HEAD_TERMS.get((layer, fname)))
                if (layer, fname) == ("bounds", "verify_suite"):
                    wrapped = self._wrap_suite(wrapped)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        if self.error is not None:
            raise MetricSourceError(f"a work counter failed: {self.error!r}") from self.error

    def layer_sum(self, table: dict, layer: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(layer + "."))

    def edge_time(self, parent: str, child: str) -> float:
        return self.edges[(parent, child)][1] if (parent, child) in self.edges else 0.0

    def edge_calls(self, parent: str, child: str) -> int:
        return self.edges[(parent, child)][0] if (parent, child) in self.edges else 0
