"""Seeded workload generators and the single-client executor.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one returns, on one thread, in one process
at a time.
Inputs come only from the workload seed; the program sees nothing but the
generated arguments.  Operations are produced in small blocks whose op mix
is fixed, so the share of each operation kind does not drift with the seed
or with how many blocks a run gets through; only arguments and order do.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("scalar-mix", "rational-table", "suite-gate")

SUITES = ("app1", "app5", "app6", "app7", "app8", "app9", "app10")

# rational-table: every reduced q/p with 3 <= p <= 64 (the product path's
# designed regime, gamma._MAX_RATIONAL_DEN), 1258 fractions in all.
FRACTIONS = tuple((q, p) for p in range(3, 65) for q in range(1, p) if math.gcd(q, p) == 1)


class CheckoutError(RuntimeError):
    """The checkout does not hold the gammaprod sources to benchmark."""


def import_gammaprod():
    """Import gammaprod from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gammaprod" / "__init__.py").is_file():
        raise CheckoutError(f"no gammaprod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gammaprod
    import gammaprod.cli

    if Path(gammaprod.__file__).resolve().parent != (SRC / "gammaprod").resolve():
        raise CheckoutError(f"gammaprod imported from {gammaprod.__file__}, not from {SRC}")
    return gammaprod


@dataclass(frozen=True)
class Op:
    """One public-API call: an operation kind and its arguments."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Block:
    """Ops run back to back."""

    ops: tuple[Op, ...]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _is_small_fraction(t: float) -> bool:
    """True when t is within 1e-12 of q/p with p <= 64, the test the
    Gamma anchor applies before taking the rational product path."""
    frac = Fraction(t).limit_denominator(64)
    return frac.numerator >= 1 and abs(t - float(frac)) <= 1e-12 * max(1.0, t)


def _not_small_fraction(draw) -> float:
    while True:
        t = draw()
        if not _is_small_fraction(t):
            return t


class _ScalarMix:
    """Independent single-value calls with fresh arguments; 19 ops a block:
    12 joint_factor, 3 Gamma-family, 2 trig products, 1 psi/psi', 1 g_n."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen_t: set[float] = set()

    def _fresh_t(self) -> float:
        while True:
            t = self.rng.uniform(0.01, 0.99)
            if t not in self.seen_t:
                self.seen_t.add(t)
                return t

    def block(self) -> Block:
        rng = self.rng
        ops = []
        for _ in range(12):
            ops.append(Op("joint_factor", (_log_uniform(rng, 0.01, 1e6), rng.uniform(0.01, 0.99))))
        ops.append(Op("beta", (_log_uniform(rng, 0.01, 100.0), rng.uniform(0.01, 0.99))))
        x = _log_uniform(rng, 0.01, 1e3)
        ops.append(Op("gamma_ratio", (x, 1.0 - _not_small_fraction(lambda: rng.uniform(0.01, 0.99)))))
        ops.append(Op("gamma_duplication", (_not_small_fraction(lambda: _log_uniform(rng, 0.01, 50.0)),)))
        for _ in range(2):
            name = rng.choice(("sin", "tan", "pow2"))
            hi = 0.49 if name == "tan" else 0.99
            ops.append(Op(name, (rng.uniform(0.01, hi),)))
        ops.append(Op(rng.choice(("digamma", "trigamma")), (self._fresh_t(),)))
        ops.append(Op("g_sequence", (rng.uniform(0.1, 3.0), rng.uniform(0.05, 0.95), rng.randint(8, 40))))
        rng.shuffle(ops)
        return Block(tuple(ops))


class _RationalTable:
    """Gamma at random reduced fractions q/p, p in [3, 64]; 10 ops a block:
    8 gamma_rational, 1 gamma_negative, 1 gamma_ratio or gamma_duplication
    at small-fraction arguments (through the rational anchor)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def block(self) -> Block:
        rng = self.rng
        ops = [Op("gamma_rational", rng.choice(FRACTIONS)) for _ in range(8)]
        ops.append(Op("gamma_negative", rng.choice(FRACTIONS)))
        q, p = rng.choice(FRACTIONS)
        if rng.random() < 0.5:
            xq, xp = rng.choice(FRACTIONS)
            ops.append(Op("gamma_ratio_rational", (xq, xp, q, p)))
        else:
            ops.append(Op("gamma_duplication_rational", (q, p)))
        rng.shuffle(ops)
        return Block(tuple(ops))


class _SuiteGate:
    """``gammaprod bounds --suite s`` in process with default grids; one
    block is a pass over all seven suites in a seed-shuffled order."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def block(self) -> Block:
        order = list(SUITES)
        self.rng.shuffle(order)
        return Block(tuple(Op("suite", (s,)) for s in order))


_GENERATORS = {"scalar-mix": _ScalarMix, "rational-table": _RationalTable, "suite-gate": _SuiteGate}

# Blocks run before timing: loads code paths and lets lazy set-up finish.
WARMUP_BLOCKS = {"scalar-mix": 2, "rational-table": 2, "suite-gate": 1}


def blocks(workload: str, seed: int, stream: str = "run"):
    """Endless block generator for a workload; ``stream`` separates the
    warm-up inputs from the measured ones under the same seed."""
    gen = _GENERATORS[workload](random.Random(f"{workload}/{stream}/{seed}"))
    while True:
        yield gen.block()


def fixed_ops(workload: str, seed: int, n_blocks: int) -> list[Block]:
    """The first ``n_blocks`` measured blocks for a seed."""
    return sessions(workload, seed, n_blocks, 1)[0]


def sessions(workload: str, seed: int, n_blocks: int, count: int) -> list[list[Block]]:
    """The seed's measured blocks cut into ``count`` sessions of ``n_blocks``."""
    it = blocks(workload, seed)
    return [[next(it) for _ in range(n_blocks)] for _ in range(count)]


class Executor:
    """Runs one Op through gammaprod's public API and returns its output."""

    def __init__(self, gp) -> None:
        from gammaprod import cli, gamma

        self.gp = gp
        self.cli = cli
        self.clear_memo = gamma.clear_factor_cache  # empties the Gamma(q/p) memo
        self._policy = gp.TruncationPolicy(mode="tail_corrected", m=1000)

    def __call__(self, op: Op):
        gp = self.gp
        k, a = op.kind, op.args
        if k == "joint_factor":
            return gp.joint_factor(gp.JointFactorSpec(*a), self._policy)
        if k == "beta":
            return gp.beta(*a)
        if k == "gamma_ratio":
            return gp.gamma_ratio(*a)
        if k == "gamma_duplication":
            return gp.gamma_duplication(*a)
        if k == "sin":
            return gp.sin_product(a[0], 1000)
        if k == "tan":
            return gp.tan_product(a[0], 1000)
        if k == "pow2":
            return gp.pow2_product(a[0], 1000)
        if k == "digamma":
            return gp.digamma(a[0], 1000)
        if k == "trigamma":
            return gp.trigamma(a[0], 1000)
        if k == "g_sequence":
            return gp.g_sequence(*a)
        if k == "gamma_rational":
            return gp.gamma_rational(gp.RationalArgument(*a))
        if k == "gamma_negative":
            return gp.gamma_negative(gp.RationalArgument(*a))
        if k == "gamma_ratio_rational":
            xq, xp, q, p = a
            return gp.gamma_ratio(xq / xp, q / p)
        if k == "gamma_duplication_rational":
            return gp.gamma_duplication(a[0] / a[1])
        if k == "suite":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(["bounds", "--suite", a[0]])
            return code, buf.getvalue()
        raise ValueError(f"unknown op kind {k!r}")


def warm_up(workload: str, execute: Executor) -> None:
    """Run the warm-up blocks; rational-table then clears the memo so every
    measured pass starts cold, as a user's process does.  The warm-up inputs
    do not depend on the seed, so set-up time does not either."""
    it = blocks(workload, 0, stream="warmup")
    for _ in range(WARMUP_BLOCKS[workload]):
        for op in next(it).ops:
            execute(op)
    if workload == "rational-table":
        execute.clear_memo()
