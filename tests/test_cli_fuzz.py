"""Fuzzes of the CLI and the kill trace.

Every argv exits 0, 1 or 2 with no exception and a one-line error, trace JSON
matches json.dumps, and the kills do not depend on vL.
"""

import contextlib
import io
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from padicelim.cli import emit_report, main  # noqa: E402
from padicelim.eliminator import run_elimination, theorem_r_values  # noqa: E402
from padicelim.verify import VERIFIERS  # noqa: E402
from trace_reference import reference_dict, reference_json  # noqa: E402

# While pytest collects, hypothesis caches the constants it finds in local
# source under its home directory, ./.hypothesis unless set: keep the tree clean.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "padicelim-hypothesis")

# Small pools keep every call cheap: primes up to 13, narrow ranges, and
# verify only ever at p = 5.  Valid values dominate each pool, so most draws
# get past parsing; the rest are out of range or malformed.
PRIMES = st.sampled_from(["5", "7", "11", "13"] * 3 + ["-5", "0", "4", "9", "x"])
SMALL = st.sampled_from([str(k) for k in range(5, 41)] + ["-2", "0", "1.5", "ten"])
VLS = st.sampled_from(["-9/2", "-13/2", "-41/2", "-30", "-100", "-4", "3", "1/0", "-4.5", "abc"])
RANGES = st.sampled_from(
    [f"{lo}:{hi}" for lo in (-5, 0, 5, 7, 11) for hi in (4, 7, 13, 20, 40)] + ["5", "a:b"]
)
COMMANDS = {
    "predict": (("--p", PRIMES), ("--r", SMALL)),
    "eliminate": (("--p", PRIMES), ("--r", SMALL), ("--vL", VLS)),
    "congruence": (("--p", PRIMES), ("--r", SMALL), ("--n", SMALL), ("--vL", VLS)),
    "lambda": (("--p", PRIMES), ("--b", st.sampled_from(["-1", "0", "1", "2", "3"])), ("--n", SMALL)),
    "sweep": (("--p-range", RANGES), ("--r-range", RANGES)),
    "verify": (),
}


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS) * 3 + ["nothing"]))
    argv = [cmd]
    if cmd == "verify":
        # without --p a lemma runs at its larger default primes; a repeated --p exits 2
        argv += [draw(st.sampled_from(sorted(VERIFIERS) + ["everything"])), "--p", "5"]
        argv += draw(st.sampled_from([[]] * 9 + [["--p", "5"]]))
    for flag, pool in COMMANDS.get(cmd, ()):
        # a flag is sometimes left out, a required one too
        if draw(st.integers(0, 9)):
            argv += [flag, draw(pool)]
    if draw(st.booleans()):
        argv += ["--emit", draw(st.sampled_from(["table", "json", "tsv"] * 3 + ["xml"]))]
    return argv


@settings(max_examples=300, database=None, derandomize=True, deadline=None)
@given(argv=argvs())
def test_main_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code == 2:
        # one error line, argparse's errors too
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    elif code == 1 and argv[0] != "verify":
        assert len(lines) == 1, (argv, lines)


@st.composite
def eliminations(draw):
    """(p, r, vL) with r in the elimination's range and vL < -r/2 of denominator > 2."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    r = draw(st.sampled_from(theorem_r_values(p) + (2 * p - 1,)))
    den = draw(st.integers(3, 12))
    vL = Fraction(-r * den // 2 - draw(st.integers(0, 60)), den)
    assume(vL < Fraction(-r, 2) and vL.denominator > 2)
    return p, r, vL


@settings(max_examples=40, database=None, derandomize=True, deadline=None)
@given(args=eliminations())
def test_trace_json_matches_json_dumps(args):
    trace = run_elimination(*args)
    assert emit_report(trace, "json") == reference_json(trace)
    assert trace.to_dict() == reference_dict(trace)


@settings(max_examples=40, database=None, derandomize=True, deadline=None)
@given(args=eliminations())
def test_kills_do_not_depend_on_vl(args):
    p, r, vL = args
    assert run_elimination(p, r, vL).entries == run_elimination(p, r).entries
