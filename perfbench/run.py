"""gammaprod benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload scalar-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` replays the seed's fixed op sessions for ``--seconds`` with
tracing off, each pass in a fresh fork of the warmed-up process, and reports
the end-to-end metrics, scaled to a reference host speed.  ``--trace 1`` runs a fixed number of operations
untraced, traced, and untraced again, and reports the per-layer metrics and
the tracing overhead (suite-gate also times each bound suite).  Either way every output is
checked against the mpmath referee after the timed regions, a summary line
per metric goes to stdout, and the last stdout line is the JSON result.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import workloads
from tracer import MetricSourceError
from workloads import Op

MIN_OPS = 1000  # p99 needs ten samples beyond it
# Host-speed calibration: the shared host's speed swings by up to 2x from
# one tenth of a second to the next, so a timed pass times calibration_loop
# (median of CALIBRATION_LOOPS runs) before its first call and after each
# call that closes a window of at least CALIBRATE_EVERY_S, and every latency
# is scaled by its window's calibrations to the speed at which the loop
# takes CALIBRATION_REF_S.
CALIBRATE_EVERY_S = 0.01
CALIBRATION_LOOPS = 5
CALIBRATION_REF_S = 1e-4
SETUP_RUNS = 7  # fresh-interpreter probes per run; setup_s is their median
IMPORT_RUNS = 3  # probes in a traced run, for cli.import_s
# The seed's fixed op sequence, in blocks: a timed run replays it pass after
# pass, a traced run executes it once, so counts and verdicts are exact.
TRACE_BLOCKS = {"scalar-mix": 300, "rational-table": 1000, "suite-gate": 12}
# Sessions of TRACE_BLOCKS blocks a timed run replays in turn (the first is
# the traced run's sequence).  rational-table's p99 is set by how a
# session's cold fills fall into calls, which one session fixes per seed, so
# its timed runs pool several.
SESSIONS = {"scalar-mix": 1, "rational-table": 8, "suite-gate": 1}
CENSUS_RUNS = 3  # verify_suite calls per suite for bounds.*_s
JOBS_SUITES = ("app9", "app10")

LAYER_OF_KIND = {
    "joint_factor": "jointfactor",
    "digamma": "polygamma",
    "trigamma": "polygamma",
    "sin": "identities",
    "tan": "identities",
    "pow2": "identities",
    "g_sequence": "coeffs",
    "suite": "bounds",
}


def layer_of(kind: str) -> str:
    return LAYER_OF_KIND.get(kind, "gamma")


# ---------------------------------------------------------------------------
# set-up: fresh interpreters
# ---------------------------------------------------------------------------

def probe(workload: str) -> tuple[float, float]:
    """(wall seconds, import seconds) of one set-up probe process."""
    cmd = [sys.executable, str(workloads.ROOT / "perfbench" / "probe.py"), "--workload", workload]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=workloads.ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1])["import_s"]


def measure_setup(workload: str, runs: int) -> tuple[float, float, float]:
    """Median probe wall time and import time, each scaled to the reference
    host speed by calibrations taken just before and after its probe, and
    the median wall time as measured.  One unmeasured probe goes first so
    bytecode compilation is not counted."""
    probe(workload)
    walls, scaled = [], []
    for _ in range(runs):
        before = calibrate()
        wall, import_s = probe(workload)
        slowdown = (before + calibrate()) / (2 * CALIBRATION_REF_S)
        walls.append(wall)
        scaled.append((wall / slowdown, import_s / slowdown))
    return statistics.median(s[0] for s in scaled), statistics.median(s[1] for s in scaled), statistics.median(walls)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def _timed_call(execute, op) -> tuple[float, object]:
    """(latency, output) of one op; a failed operation is recorded, not fatal."""
    t0 = time.perf_counter()
    try:
        out = execute(op)
    except Exception as exc:
        out = exc
    return time.perf_counter() - t0, out


def calibration_loop() -> float:
    """Fixed pure-Python work of the kinds gammaprod's calls are made of
    (float math, calls, tuple-keyed dict updates).  It runs no gammaprod
    code, so only the host's speed moves its time."""
    table: dict = {}
    s = 0.0
    for k in range(1, 201):
        s += math.log1p(0.5 / (k * (k + 1.0)))
        key = (k & 31, 7)
        table[key] = table.get(key, 0.0) + s
    return s


def calibrate() -> float:
    """Seconds one calibration_loop takes now: the median of CALIBRATION_LOOPS
    runs back to back, so a preemption inside one run does not count."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated_pass(block_list, execute) -> tuple[list, list, list]:
    """Run the blocks once and return (latencies, slowdowns, outputs), one
    entry per op.  An op's slowdown is the mean of the calibrations that
    open and close its window over CALIBRATION_REF_S (> 1 when the host ran
    slower than the reference speed); calibration is outside every latency."""
    clock = time.perf_counter
    latencies: list[float] = []
    slowdowns: list[float] = []
    outputs: list = []

    def close_window():
        nonlocal before, last
        after = calibrate()
        slowdowns.extend([(before + after) / (2 * CALIBRATION_REF_S)] * (len(latencies) - len(slowdowns)))
        before, last = after, clock()

    before, last = calibrate(), clock()
    for block in block_list:
        for op in block.ops:
            latency, out = _timed_call(execute, op)
            latencies.append(latency)
            outputs.append(out)
            if clock() - last >= CALIBRATE_EVERY_S:
                close_window()
    if len(slowdowns) < len(latencies):
        close_window()
    return latencies, slowdowns, outputs


def forked_pass(block_list, execute) -> tuple[list, list, list]:
    """calibrated_pass in a fork of this process.  Whatever the pass caches
    dies with the fork, so every pass starts from the same warmed-up state
    and no argument is ever seen twice by one process unless the workload
    repeats it."""
    read_fd, write_fd = os.pipe()
    # the fork inherits the outputs of earlier passes; frozen, the cyclic
    # collector skips them instead of walking (and copying) them in a pass
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = calibrated_pass(block_list, execute)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(data, pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"a timed pass failed in its fork (wait status {status})")
    return pickle.loads(data)


def timed_passes(sessions, seconds: float, execute) -> tuple[float, int, list, list, list]:
    """Replay the sessions in turn, one forked pass each, until every session
    has run and ``seconds`` of summed latency and MIN_OPS ops are done.
    Returns that sum, the pass count and every latency, slowdown and
    (op, output)."""
    elapsed = 0.0
    passes = 0
    latencies: list[float] = []
    slowdowns: list[float] = []
    results: list = []
    while elapsed < seconds or len(latencies) < MIN_OPS or passes < len(sessions):
        block_list = sessions[passes % len(sessions)]
        pass_latencies, pass_slowdowns, outputs = forked_pass(block_list, execute)
        elapsed += sum(pass_latencies)
        passes += 1
        latencies += pass_latencies
        slowdowns += pass_slowdowns
        results += zip((op for b in block_list for op in b.ops), outputs)
    return elapsed, passes, latencies, slowdowns, results


def fixed_loop(block_list, execute) -> tuple[float, list]:
    """Run the blocks once in this process; (wall seconds, [(op, output)])."""
    t0 = time.perf_counter()
    results = [(op, _timed_call(execute, op)[1]) for b in block_list for op in b.ops]
    return time.perf_counter() - t0, results


# ---------------------------------------------------------------------------
# referee
# ---------------------------------------------------------------------------

class Checker:
    """Applies the referee to outputs, memoizing repeated (op, output) pairs."""

    def __init__(self) -> None:
        import referee

        self.referee = referee
        self._memo: dict = {}
        self._suite_refs: dict = {}

    def verdict(self, op: Op, out):
        if isinstance(out, Exception):
            return self.referee.Verdict(False, math.inf)
        key = (op, out)
        try:
            return self._memo[key]
        except KeyError:
            pass
        if op.kind == "suite":
            suite = op.args[0]
            if suite not in self._suite_refs:
                self._suite_refs[suite] = self.referee.suite_reference(suite)
            v = self.referee.check_suite(suite, out, self._suite_refs[suite])
        else:
            v = self.referee.check_scalar(op.kind, op.args, out)
        self._memo[key] = v
        return v

    def check(self, results) -> tuple[int, dict, str]:
        """(failed count, {layer: min digits}, first failure) over a list
        of (op, out)."""
        failed = 0
        first = ""
        digits: dict[str, float] = {}
        for op, out in results:
            v = self.verdict(op, out)
            if not v.ok:
                failed += 1
                first = first or f"first failure: {op.kind}{op.args} -> {out!r:.300} (rel err {v.rel_err:.3g})"
            layer = layer_of(op.kind)
            digits[layer] = min(digits.get(layer, math.inf), v.digits)
        return failed, digits, first


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def end_to_end(args, gp) -> dict:
    setup_s, _, setup_raw_s = measure_setup(args.workload, SETUP_RUNS)
    execute = workloads.Executor(gp)
    workloads.warm_up(args.workload, execute)
    sessions = workloads.sessions(args.workload, args.seed, TRACE_BLOCKS[args.workload], SESSIONS[args.workload])
    elapsed, passes, latencies, slowdowns, results = timed_passes(sessions, args.seconds, execute)
    failed, digits, first_failure = Checker().check(results)
    lat = sorted(latencies)
    scaled = sorted(l / s for l, s in zip(latencies, slowdowns))
    n, n_seq = len(lat), sum(len(b.ops) for b in sessions[0])
    metrics = {
        "ops_per_s": (n / math.fsum(scaled), "1/s"),
        "latency_p50_ms": (percentile(scaled, 0.50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(scaled, 0.99) * 1e3, "ms"),
        "min_correct_digits": (min(digits.values()), "digits"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"latency samples: {n} ({passes} passes over {len(sessions)} sessions of {n_seq} ops) in {elapsed:.3f} s, "
        f"{n - math.ceil(0.99 * n)} beyond p99",
        f"host slowdown: median {statistics.median(slowdowns):.4g}, range {min(slowdowns):.4g}-"
        f"{max(slowdowns):.4g} over the calibration windows; as measured: ops_per_s {n / elapsed:.6g}, "
        f"latency_p50_ms {percentile(lat, 0.50) * 1e3:.6g}, latency_p99_ms {percentile(lat, 0.99) * 1e3:.6g}",
        f"failed_ratio {failed / n:.6g} ({failed} of {n} attempted)",
        f"setup_s is the median of {SETUP_RUNS} fresh-interpreter probes, scaled like the latencies; "
        f"as measured {setup_raw_s:.6g} s",
    ]
    if first_failure:
        notes.append(first_failure)
    return {"attempted": n, "failed": failed, "metrics": metrics, "notes": notes}


def census() -> tuple[dict, list]:
    """Untraced verify_suite timings per suite, jobs=1 and jobs=2; the
    jobs=2 times read 0 once verify_suite no longer takes ``jobs``."""
    import inspect

    from gammaprod import bounds

    def timed(suite, **kw):
        ts = []
        for _ in range(CENSUS_RUNS):
            t0 = time.perf_counter()
            bounds.verify_suite(suite, **kw)
            ts.append(time.perf_counter() - t0)
        return statistics.median(ts)

    out = {f"bounds.{s}_s": (timed(s), "s") for s in workloads.SUITES}
    has_jobs = "jobs" in inspect.signature(bounds.verify_suite).parameters
    for s in JOBS_SUITES:
        out[f"bounds.{s}_jobs1_s"] = out[f"bounds.{s}_s"]
        out[f"bounds.{s}_jobs2_s"] = (timed(s, jobs=2) if has_jobs else 0.0, "s")
    notes = [] if has_jobs else ["bounds.*_jobs2_s skipped: verify_suite takes no jobs"]
    return out, notes


def no_census() -> tuple[dict, list]:
    """The census metrics at 0, for workloads that do not use the bounds layer."""
    names = [f"bounds.{s}_s" for s in workloads.SUITES]
    names += [f"bounds.{s}_jobs{j}_s" for s in JOBS_SUITES for j in (1, 2)]
    return {n: (0.0, "s") for n in names}, []


@dataclass
class TracedPass:
    tracer: object
    elapsed: float
    results: list
    memo_hits: int
    memo_misses: int
    zeta_misses: int


def _memo(module: str, name: str):
    """A gammaprod lru_cache whose cache_info() defines a per-layer metric."""
    fn = getattr(sys.modules[f"gammaprod.{module}"], name, None)
    if not hasattr(fn, "cache_info"):
        raise MetricSourceError(f"gammaprod.{module}.{name} is no longer an lru_cache; remap the metrics read from it")
    return fn


def reset_caches(execute) -> None:
    """Start a pass from empty Gamma(q/p) and zeta memos."""
    execute.clear_memo()
    _memo("reference", "ref_zeta").cache_clear()


def traced_pass(execute, block_list) -> TracedPass:
    """Run the blocks once under the tracer; memo and zeta counts are
    cache_info() deltas over the pass."""
    from tracer import Tracer

    memo, zeta = _memo("gamma", "_factor_log"), _memo("reference", "ref_zeta")
    reset_caches(execute)
    memo0, zeta0 = memo.cache_info(), zeta.cache_info()
    with Tracer() as tr:
        elapsed, results = fixed_loop(block_list, execute)
    memo1, zeta1 = memo.cache_info(), zeta.cache_info()
    return TracedPass(
        tr, elapsed, results, memo1.hits - memo0.hits, memo1.misses - memo0.misses, zeta1.misses - zeta0.misses
    )


def layer_metrics(tp: TracedPass, digits: dict) -> dict:
    """Per-layer metrics of one traced pass; unit "count" marks the exact
    counters, which repeat exactly for a given seed."""
    tr = tp.tracer

    def self_of(*names):
        return sum(tr.self_time.get(n, 0.0) for n in names)

    def entries(layer):
        """Spans entering the layer from outside it."""
        return sum(
            c for (parent, child), (c, _) in tr.edges.items()
            if child.startswith(layer + ".") and (parent is None or not parent.startswith(layer + "."))
        )

    head_terms = tr.terms["jointfactor.log_partial_product"] + tr.terms["jointfactor._extend_log_partial"]
    head_self = self_of("jointfactor.log_partial_product", "jointfactor._extend_log_partial", "jointfactor.truncate")
    hits, misses = tp.memo_hits, tp.memo_misses
    return {
        "jointfactor.calls": (entries("jointfactor"), "count"),
        "jointfactor.head_terms": (head_terms, "count"),
        "jointfactor.head_self_s": (head_self, "s"),
        "jointfactor.ns_per_head_term": (head_self / head_terms * 1e9 if head_terms else 0.0, "ns"),
        "jointfactor.tail_calls": (tr.calls["jointfactor.log_product_tail"], "count"),
        "jointfactor.tail_self_s": (
            self_of("jointfactor.log_product_tail", "jointfactor.tail_sum_inverse", "jointfactor.tail_sum_inverse_sq"),
            "s",
        ),
        "jointfactor.min_digits": (digits.get("jointfactor", 0.0), "digits"),
        "gamma.rational_calls": (tr.calls["gamma.gamma_rational"], "count"),
        "gamma.memo_hits": (hits, "count"),
        "gamma.memo_misses": (misses, "count"),
        "gamma.memo_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "gamma.assembly_self_s": (tr.layer_sum(tr.self_time, "gamma"), "s"),
        "gamma.oracle_fallbacks": (tr.edge_calls("gamma._log_gamma_anchor", "reference.ref_log_gamma"), "count"),
        "gamma.min_digits": (digits.get("gamma", 0.0), "digits"),
        "polygamma.calls": (entries("polygamma"), "count"),
        "polygamma.head_terms": (tr.terms["polygamma.digamma"] + tr.terms["polygamma.trigamma"], "count"),
        "polygamma.head_self_s": (self_of("polygamma.digamma", "polygamma.trigamma", "polygamma.digamma_series_raw"), "s"),
        "polygamma.tail_self_s": (self_of("polygamma.zeta_tail"), "s"),
        "polygamma.min_digits": (digits.get("polygamma", 0.0), "digits"),
        "reference.calls": (entries("reference"), "count"),
        "reference.self_s": (tr.layer_sum(tr.self_time, "reference"), "s"),
        "reference.zeta_misses": (tp.zeta_misses, "count"),
        "reference.zeta_s": (tr.total.get("reference.ref_zeta", 0.0), "s"),
        "identities.calls": (entries("identities"), "count"),
        "identities.self_s": (tr.layer_sum(tr.self_time, "identities"), "s"),
        "coeffs.calls": (entries("coeffs"), "count"),
        "coeffs.self_s": (tr.layer_sum(tr.self_time, "coeffs"), "s"),
        "bounds.points": (
            sum(c for k, c in tr.calls.items() if k.startswith("bounds._app") or k == "bounds.app1_bounds"),
            "count",
        ),
        "bounds.violations": (tr.violations, "count"),
        "cli.dispatch_s": (tr.total.get("cli.run", 0.0) - tr.edge_time("cli.run", "bounds.verify_suite"), "s"),
    }


def per_layer(args, gp) -> dict:
    _, import_s, _ = measure_setup(args.workload, IMPORT_RUNS)
    execute = workloads.Executor(gp)
    workloads.warm_up(args.workload, execute)
    block_list = workloads.fixed_ops(args.workload, args.seed, TRACE_BLOCKS[args.workload])

    def untraced():
        reset_caches(execute)
        return fixed_loop(block_list, execute)

    # untraced passes on both sides of the traced one, so drift during the
    # run does not show up as tracing overhead
    plain_a, plain = untraced()
    tp = traced_pass(execute, block_list)
    plain_b, _ = untraced()
    plain_s = 0.5 * (plain_a + plain_b)
    suites, suite_notes = census() if args.workload == "suite-gate" else no_census()

    failed, digits, first_failure = Checker().check(tp.results)
    # tracing must not change any output
    failed += sum(1 for (_, a), (_, b) in zip(plain, tp.results) if not _same(a, b))
    n = len(tp.results)
    m = {
        **layer_metrics(tp, digits),
        **suites,
        "cli.import_s": (import_s, "s"),
        "trace.untraced_ops_per_s": (n / plain_s, "1/s"),
        "trace.traced_ops_per_s": (n / tp.elapsed, "1/s"),
        "trace.overhead_share": (1.0 - plain_s / tp.elapsed, "ratio"),
    }
    notes = [
        f"traced run: {n} ops ({TRACE_BLOCKS[args.workload]} blocks), "
        f"untraced {plain_a:.3f} s and {plain_b:.3f} s, traced {tp.elapsed:.3f} s",
        f"failed_ratio {failed / n:.6g} ({failed} of {n} attempted)",
        *suite_notes,
    ]
    if first_failure:
        notes.append(first_failure)
    return {"attempted": n, "failed": failed, "metrics": m, "notes": notes}


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        gp = workloads.import_gammaprod()
    except (workloads.CheckoutError, ImportError) as exc:
        print(f"perfbench: cannot import gammaprod from this checkout: {exc}", file=sys.stderr)
        return 2
    try:
        result = (per_layer if args.trace else end_to_end)(args, gp)
    except MetricSourceError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in result["notes"]:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
