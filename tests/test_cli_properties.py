"""Property tests: no malformed request makes the CLI escape.

One leaf of a valid request's JSON is replaced by a small JSON value.
Whatever the result, main returns 0, 1 or 2 and never raises; a request
it refuses leaves stdout empty and one JSON object with "error" on
stderr, and an answer is one JSON object on stdout.  A bad command line
(an unknown flag, a seed that is not an integer in [0, 2^64), an --out
that cannot be written, a flag with no value) exits 2 the same way, on
every command.  A well-formed command line, read without argparse, reads
as argparse would read it.
"""

import contextlib
import io
import json
import os
import string
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isotropy.cli import (_COMMANDS, _build_parser,  # noqa: E402
                          _parse_well_formed, main)

PAIR = {"lambda": "i", "blocks": [{"alpha": 2, "m": 1}, {"alpha": 1, "m": 1}]}
WIDE = {"lambda": "1", "blocks": [{"alpha": 2, "m": 2}]}
ONE = {"rows": 1, "cols": 1, "entries": ["1"]}
ZERO = {"rows": 1, "cols": 1, "entries": ["0"]}
EYE3 = {"rows": 3, "cols": 3,
        "entries": ["1", "0", "0", "0", "1", "0", "0", "0", "1"]}

# (command, {flag: JSON argument}): every request here is valid
REQUESTS = [
    ("describe", {"structure": PAIR}),
    ("describe", {"structure": {"parts": [PAIR, WIDE]}}),
    ("sample", {"structure": PAIR}),
    ("sample", {"structure": PAIR, "params": {
        "seeds": {"1": ONE, "2": ONE}, "skews": {"1,1": ZERO},
        "sub": {"2,1,0": ONE}}}),
    ("generators", {"structure": PAIR, "params": {
        "kind": "G", "p": 1, "t": 2, "k": 0, "F": ONE}}),
    ("generators", {"structure": WIDE, "params": {
        "kind": "W", "skews": {"1,1": {"rows": 2, "cols": 2,
                                       "entries": ["0", "1", "-1", "0"]}}}}),
    ("verify", {"structure": PAIR, "matrix": EYE3}),
    ("factor", {"structure": PAIR, "matrix": EYE3}),
]


def _leaves(value, path=()):
    """Paths to every scalar, empty list and empty object in value."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _replaced(value[head], rest, new)}
    return [*value[:head], _replaced(value[head], rest, new), *value[head + 1:]]


LEAVES = [(i, flag, path)
          for i, (_, args) in enumerate(REQUESTS)
          for flag, payload in args.items()
          for path in _leaves(payload)]

SMALL_JSON = st.one_of(
    st.integers(-2, 3), st.text(max_size=3), st.none(), st.booleans(),
    st.just([]), st.just({}))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(leaf=st.sampled_from(LEAVES), new=SMALL_JSON)
# edge cases kept fixed: a zero denominator, a zero size, a bool count
@example(leaf=(0, "structure", ("lambda",)), new="1/0")
@example(leaf=(6, "matrix", ("rows",)), new=0)
@example(leaf=(4, "params", ("p",)), new=True)
def test_cli_never_escapes(leaf, new):
    index, flag, path = leaf
    command, args = REQUESTS[index]
    argv = [command, "--seed", "3"]
    for name, payload in args.items():
        if name == flag:
            payload = _replaced(payload, path, new)
        argv += [f"--{name}", json.dumps(payload)]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if err:
        assert code != 0 and out == ""
        assert list(json.loads(err)) == ["error"]
    else:
        assert code != 2
        assert isinstance(json.loads(out), dict)


# one valid request per command, so that the bad flag is the only fault
_VALID = {
    "canonical": {"structure": PAIR}, "describe": {"structure": PAIR},
    "dim": {"structure": PAIR}, "codim": {"structure": PAIR},
    "sample": {"structure": PAIR}, "commutant": {"structure": PAIR},
    "generators": REQUESTS[4][1], "verify": REQUESTS[6][1],
    "factor": REQUESTS[7][1],
}
_OPTIONS = [o for a in _build_parser()._actions for o in a.option_strings]

UNKNOWN_FLAG = st.text(string.ascii_lowercase + "-", min_size=1, max_size=8).map(
    lambda t: "--" + t).filter(lambda f: not any(o.startswith(f) for o in _OPTIONS))
BAD_SEED = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=1 << 64),
    st.sampled_from(["", "x", "1.5", "0x10", "1e3", "--", "7 7"]))


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


# ten drawn faults per command, and one of each kind kept fixed
@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=10, derandomize=True, deadline=None)
@example(fault=("flag", "--bogus"))
@example(fault=("seed", 1 << 64))
@example(fault=("out", "missing"))
@example(fault=("dashes", "--structure"))
@given(fault=st.one_of(
    st.tuples(st.just("flag"), UNKNOWN_FLAG),
    st.tuples(st.just("seed"), BAD_SEED),
    st.tuples(st.just("out"), st.sampled_from(
        ["directory", "missing", "empty"])),
    # argparse reads "--flag=--" as an empty list of values
    st.tuples(st.just("dashes"), st.sampled_from(
        [o for o in _OPTIONS if o.startswith("--") and o != "--help"]))))
def test_bad_command_line_exits_two(command, fault):
    kind, value = fault
    argv = [command]
    for name, payload in _VALID.get(command, {}).items():
        argv += [f"--{name}", json.dumps(payload)]
    if command == "selftest":
        argv += ["--max-n", "1", "--cases", "1"]
    with tempfile.TemporaryDirectory() as folder:
        if kind == "flag":
            argv.append(value)
        elif kind == "seed":
            argv.append(f"--seed={value}")
        elif kind == "dashes":
            argv.append(f"{value}=--")
        elif value == "directory":
            argv += ["--out", folder]
        elif value == "empty":
            argv += ["--out", ""]
        else:
            argv += ["--out", os.path.join(folder, "missing", "out.json")]
        code, out, err = _exit_code(argv)
        assert os.listdir(folder) == []
    assert (code, out) == (2, ""), argv
    assert "Traceback" not in err
    assert list(json.loads(err)) == ["error"]


_LONG = [o for o in _OPTIONS if o.startswith("--") and o != "--help"]
FLAG = st.one_of(
    st.sampled_from(_LONG),
    st.sampled_from(_LONG).flatmap(
        lambda o: st.integers(3, len(o) - 1).map(lambda k: o[:k])),
    st.sampled_from(["-h", "--help", "--bogus"]))
VALUE = st.one_of(
    st.sampled_from(["", "-", "--", "-1", "-x", " -2", "+3", "1_0", " 4 ",
                     "5 5", "0x10", "describe", "{}"]),
    st.integers(-3, 1 << 65).map(str),
    st.text(max_size=4))
# a flag and its value as two words, or as one: --flag=value
FLAG_AND_VALUE = st.tuples(FLAG, VALUE).flatmap(lambda pair: st.sampled_from(
    [list(pair), ["=".join(pair)]]))


def _argparse_reads(argv):
    """vars of the namespace argparse returns for argv; None where it exits
    (an error, or the help)."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=300, derandomize=True, deadline=None)
@example(command="sample", args=[["--seed", " +7_0 "], ["--out", ""]],
         place=0)
@example(command="dim", args=[["--seed", "1"], ["--seed", "2"]], place=0)
@example(command="selftest", args=[["--max-n", "-1"]], place=0)
@example(command="dim", args=[["--out", "-x"]], place=0)
@given(command=st.sampled_from(sorted(_COMMANDS)),
       args=st.lists(FLAG_AND_VALUE, max_size=4),
       place=st.one_of(st.just(0), st.integers(1, 8)))
def test_a_well_formed_command_line_reads_as_argparse_reads_it(
        command, args, place):
    # the command is put at place, or last; the direct reading declines, or
    # gives what argparse gives, and declines no command line argparse
    # reads that is the command and then exact long flags, each with one
    # value not led by "-"
    argv = [word for arg in args for word in arg]
    argv.insert(place, command)
    want, got = _argparse_reads(argv), _parse_well_formed(argv)
    if got is not None:
        assert vars(got) == want, argv
    elif want is not None:
        assert argv[0] != command or len(argv) % 2 == 0 \
            or any(flag not in _LONG for flag in argv[1::2]) \
            or any(value.startswith("-") for value in argv[2::2]), argv
