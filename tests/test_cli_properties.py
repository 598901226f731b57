"""Property test: no malformed request makes the CLI escape.

One leaf of a valid request's JSON is replaced by a small JSON value.
Whatever the result, main returns 0, 1 or 2 and never raises; a request
it refuses leaves stdout empty and one JSON object with "error" on
stderr, and an answer is one JSON object on stdout.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isotropy.cli import main  # noqa: E402

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
