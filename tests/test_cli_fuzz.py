"""Property test of the CLI's exit-code contract: any float arguments, finite
or not, and any head length up to 10^9 end in a documented exit code, with
no traceback and no NaN in the JSON."""

import contextlib
import io
import json
import math

import pytest

from gammaprod.cli import run

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXIT_CODES = {0, 1, 2, 3, 64}
floats = st.floats(allow_nan=True, allow_infinity=True)
orders = st.integers(max_value=10**9)


@st.composite
def flag(draw, name, values):
    """``--name=value`` or ``--name value``: argparse reads a negative value
    in exponent form (``-1e-300``) as a flag in the second form."""
    value = draw(values)
    return [f"--{name}={value!r}"] if draw(st.booleans()) else [f"--{name}", repr(value)]


def maybe(strategy):
    return st.one_of(st.just([]), strategy)


argvs = st.one_of(
    st.tuples(st.sampled_from(["digamma", "trigamma"]), flag("t", floats), maybe(flag("n0", orders))),
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


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(argvs)
def test_cli_exit_codes_under_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # an uncaught exception here is a traceback
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert _no_nan(json.loads(out.getvalue())), (argv, out.getvalue())
