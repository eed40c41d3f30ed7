"""Property tests of the CLI's exit-code contract: any float arguments, finite
or not, any head length up to 10^9 or far beyond the double range, any bound
suite over any grid ends, grid sizes and truncation orders up to 10^9 or far
beyond, end in a documented exit code, with no traceback and no NaN in the
JSON; a float reads the same after ``--f `` as after ``--f=``."""

import contextlib
import io
import json
import math

import pytest

from gammaprod.bounds import SUITES
from gammaprod.cli import run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXIT_CODES = {0, 1, 3, 64}
floats = st.floats(allow_nan=True, allow_infinity=True)
# heads up to 10^9, and from 2^53 (the largest accepted) to beyond the double range
huge_orders = st.integers(min_value=2**53, max_value=10**400)
orders = st.one_of(st.integers(max_value=10**9), huge_orders)
# gamma fills one table of 2p-4 joint factors for each new denominator p up to
# 1024 (tens of ms each) and exits 1 at once above it; q and p up to 10^4 cover
# both sides of that cap
fractions = st.integers(min_value=-10, max_value=10**4)
# grid sizes around the defaults, plus one far beyond the 10^6-point cap (refused
# before any point is evaluated)
grid_points = st.one_of(st.integers(min_value=-5, max_value=3000), st.just(10**9))
# grid ends: any float, often one inside a suite's own range, and often one near
# the double range, where hi - lo, 1/p or B ~ 1/y overflow
grid_ends = st.one_of(
    floats,
    st.floats(min_value=-2.0, max_value=120.0),
    st.sampled_from([-1.7976931348623157e308, -1e308, 1e-320, 2e162, 1e308, 1.7976931348623157e308]),
)
# app6's, app7's and app8's bounds are truncates, O(1) per point in m, so
# m up to 10^9 is quick
suite_orders = st.one_of(
    st.integers(min_value=-3, max_value=200), st.integers(min_value=-3, max_value=10**9), huge_orders
)
# often ascending and positive, else anything; digamma's raw series costs O(max m)
m_lists = st.one_of(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=4, unique=True).map(sorted),
    st.lists(st.integers(min_value=-3, max_value=5000), max_size=4),
).map(lambda ms: ",".join(map(str, ms)))
# any float, and often one in the verbs' domains: x > 0, b and t in [0, 1)
positives = st.one_of(floats, st.floats(min_value=1e-300, max_value=1e15))
units = st.one_of(floats, st.floats(min_value=0.0, max_value=0.999))


def maybe(strategy):
    return st.one_of(st.just([]), strategy)


formats = maybe(st.sampled_from([["--format", "json"], ["--format", "csv"]]))


@st.composite
def flag(draw, name, values):
    """``--name=value`` or ``--name value``."""
    value = draw(values)
    return [f"--{name}={value!r}"] if draw(st.booleans()) else [f"--{name}", repr(value)]


argvs = st.one_of(
    st.tuples(st.sampled_from(["digamma", "trigamma"]), flag("t", floats), maybe(flag("n0", orders))),
    st.tuples(
        st.just("gamma"),
        flag("q", fractions),
        flag("p", fractions),
        maybe(flag("m", orders)),
        maybe(st.just(["--tail"])),
    ),
    st.tuples(
        st.just("jointfactor"),
        flag("x", floats),
        flag("b", floats),
        maybe(flag("m", orders)),
        maybe(st.just(["--tail"])),
    ),
    st.tuples(st.just("beta"), flag("x", floats), flag("y", floats), maybe(flag("m", orders)), maybe(st.just(["--tail"]))),
    st.tuples(
        st.just("identity"),
        st.sampled_from(["sin", "tan", "pow2", "quarter"]).map(lambda name: ["--name", name]),
        maybe(flag("x", floats)),
        maybe(flag("b", floats)),
        maybe(flag("m", orders)),
        maybe(st.just(["--tail"])),
    ),
).map(lambda parts: [parts[0]] + [arg for part in parts[1:] for arg in part])

# the verbs that run grids and tables: bound suites, coefficients, convergence studies
grid_argvs = st.one_of(
    st.tuples(
        st.just("bounds"),
        st.sampled_from(SUITES).map(lambda suite: ["--suite", suite]),
        maybe(flag("lo", grid_ends)),
        maybe(flag("hi", grid_ends)),
        maybe(flag("points", grid_points)),
        maybe(flag("m", suite_orders)),
        formats,
    ),
    st.tuples(st.just("coeffs"), flag("x", positives), flag("b", units), flag("n", st.integers(-3, 60)), formats),
    st.tuples(
        st.just("convergence"),
        st.sampled_from(["quarter", "jointfactor", "digamma"]).map(lambda target: ["--target", target]),
        m_lists.map(lambda text: [f"--m-list={text}"]),
        maybe(flag("x", positives)),
        maybe(flag("b", units)),
        maybe(flag("t", units)),
        maybe(st.just(["--tail"])),
        formats,
    ),
).map(lambda parts: [parts[0]] + [arg for part in parts[1:] for arg in part])


def _no_nan(value) -> bool:
    if isinstance(value, dict):
        return all(_no_nan(v) for v in value.values())
    if isinstance(value, list):
        return all(_no_nan(v) for v in value)
    if isinstance(value, float):
        return not math.isnan(value)
    if isinstance(value, str):
        return value.lower() != "nan"
    return True


def _assert_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an uncaught exception here is a traceback
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 3) and "csv" not in argv:
        assert _no_nan(json.loads(out.getvalue())), (argv, out.getvalue())


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(argvs)
def test_cli_exit_codes_under_fuzz(argv):
    _assert_documented_exit(argv)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(grid_argvs)
def test_grid_verbs_exit_codes_under_fuzz(argv):
    _assert_documented_exit(argv)


# (verb, float flag, the verb's other required flags)
FLOAT_FLAGS = [
    ("beta", "x", ["--y", "0.5"]),
    ("beta", "y", ["--x", "2.5"]),
    ("digamma", "t", []),
    ("trigamma", "t", []),
    ("jointfactor", "x", ["--b", "0.5"]),
    ("jointfactor", "b", ["--x", "0.5"]),
    ("identity", "x", ["--name", "sin"]),
    ("identity", "b", ["--name", "pow2"]),
    ("bounds", "lo", ["--suite", "app10", "--points", "20"]),
    ("bounds", "hi", ["--suite", "app9", "--points", "20"]),
    ("coeffs", "x", ["--b", "0.5", "--n", "8"]),
    ("convergence", "t", ["--target", "digamma", "--m-list", "1,10"]),
]


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(FLOAT_FLAGS), floats)
def test_a_float_reads_alike_in_both_spellings(case, value):
    verb, name, rest = case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        spaced = run([verb, f"--{name}", repr(value), *rest])
        joined = run([verb, f"--{name}={value!r}", *rest])
    assert spaced == joined, (verb, name, value)
