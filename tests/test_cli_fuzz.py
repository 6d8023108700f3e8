"""Fuzz of ``cli.main`` over a bounded argv grammar.

Every subcommand, moduli 0..9, sequences of length <= 8 and sizes <= 7:
small enough that the slowest draw (a full classify with witnesses at
N = 9) takes under a second.  A second test breaks drawn argv: it drops a
token (a required option or a value goes missing), inserts an unknown
flag, or replaces a token with a bad value (a non-integer, -1 or an empty
range).  Whatever the input, the CLI must exit 0, 1 or 2 without a
traceback, keep a failure to one ``error:`` line, and print parseable JSON
when asked for it.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from quiddity.cli import main

moduli = st.integers(0, 9).map(str)
small = st.integers(-1, 3).map(str)
# a negative --shard-index and a --shard-count below 1 are usage errors;
# broken_argvs draws them instead
naturals = st.integers(0, 3).map(str)
positives = st.integers(1, 3).map(str)
# solutions for some moduli, so that the solution-only paths run too
SOLUTIONS = ("0,0", "1,1,1", "-1,-1,-1", "0,0,0,0", "1,2,1,2", "1,1,1,0,0",
             "2,2,2,2", "2,2,2,2,2", "3,3,3,3,3,3", "1,2,1,2,1,2,1,2")
seqs = st.one_of(
    st.lists(st.integers(-3, 12), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(SOLUTIONS))
sizes = st.integers(0, 7).map(str)
# an empty range (LO > HI) is a usage error; broken_argvs draws it instead
size_ranges = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
    lambda r: f"{min(r)}..{max(r)}")


def _argv(command, formats, *parts):
    """argv for one subcommand: its required parts, then its options in any subset.

    A required part is a strategy for one argument or a tuple of them; an
    option is a (flag, strategy for its value or None) pair.
    """
    positional = [p for p in parts if not isinstance(p, tuple)]
    options = [p for p in parts if isinstance(p, tuple)]

    @st.composite
    def build(draw):
        argv = [command, "--modulus", draw(moduli), "--format", draw(st.sampled_from(formats))]
        for p in positional:
            drawn = draw(p)
            argv += [drawn] if isinstance(drawn, str) else list(drawn)
        for flag, values in options:
            if draw(st.booleans()):
                argv += [flag] if values is None else [flag, draw(values)]
        return argv

    return build()


PLAIN = ("text", "json")
LISTS = ("text", "json", "csv")
PICTURES = ("text", "json", "svg")

argvs = st.one_of(
    _argv("check", PLAIN, seqs),
    _argv("sum", PLAIN, seqs, seqs),
    _argv("canon", PLAIN, seqs),
    _argv("reduce", PLAIN, seqs, ("--right", seqs)),
    _argv("enumerate", LISTS, st.tuples(st.just("--size"), sizes), ("--alphabet", seqs),
          ("--allow-large", None)),
    _argv("classify", LISTS,
          st.one_of(st.tuples(st.just("--size"), sizes), st.tuples(st.just("--sizes"), size_ranges)),
          ("--irreducible-only", None), ("--witnesses", None),
          ("--shard-index", naturals), ("--shard-count", positives),
          ("--jobs", st.sampled_from(["1", "2"])), ("--allow-large", None)),
    _argv("verify", PLAIN, ("--size", sizes), ("--allow-large", None)),
    _argv("verify", PLAIN, ("--sizes", size_ranges), ("--allow-large", None)),
    _argv("monomial", PLAIN, ("--k", st.integers(-2, 12).map(str))),
    _argv("dissect", PICTURES, seqs, ("--seed", small)),
    _argv("dissect", PICTURES, ("--random", st.integers(-1, 8).map(str)), ("--seed", small)),
    _argv("triangulate", PICTURES, seqs, ("--via-rewrite", None)),
    _argv("evidence", PLAIN, ("--n-max", sizes), ("--allow-large", None)),
)


@st.composite
def broken_argvs(draw):
    argv = draw(argvs)
    i = draw(st.integers(0, len(argv) - 1))
    how = draw(st.sampled_from(("drop", "unknown flag", "bad value")))
    if how == "drop":
        del argv[i]
    elif how == "unknown flag":
        argv.insert(i, draw(st.sampled_from(("--bogus", "-x", "--size-max"))))
    else:
        argv[i] = draw(st.sampled_from(("x", "1.5", "3..", "3..1", "", "0x10", "-1")))
    return argv


WARNING = "warning: work budget override active"


def _run_and_check(argv, well_formed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    lines = err.splitlines()
    if well_formed and "--allow-large" in argv:
        assert lines[:1] == [WARNING], argv
    if lines[:1] == [WARNING]:
        lines = lines[1:]
    if code:
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), (argv, err)
    else:
        assert lines == [], (argv, err)
        if "--format" in argv[:-1] and argv[argv.index("--format") + 1] == "json":
            json.loads(out)


@settings(max_examples=100, deadline=None)
@given(argv=argvs)
def test_cli_exits_cleanly(argv):
    _run_and_check(argv, well_formed=True)


@settings(max_examples=100, deadline=None)
@given(argv=broken_argvs())
def test_cli_rejects_malformed_argv(argv):
    _run_and_check(argv, well_formed=False)
