"""What a fresh process loads: `import isotropy` runs none of the package's
modules, the first public name loads the whole library, and each command
of `python -m isotropy.cli` runs only the modules it reads, and imports
argparse only for a command line it cannot read directly.  A module bound
lazily but never read does not count as loaded (its type is not yet
types.ModuleType)."""

import ast
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import isotropy

_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")

# The package modules in the order `import isotropy` loaded them when its
# __init__ imported them all.
_LIBRARY = ["errors", "scalars", "matrices", "forms", "rng", "toeplitz",
            "solver", "generators", "stabilizer", "orbit", "jsonio"]

_LOADED = """
def loaded():
    import sys, types
    return [name.partition(".")[2] for name, module in sys.modules.items()
            if name.startswith("isotropy.")
            and type(module) is types.ModuleType]
"""


def _fresh(code, *argv, cwd=None):
    """Run `code` in a fresh interpreter, with loaded() defined; returns
    the JSON value of its last line of stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED + code, *argv], capture_output=True,
        text=True, timeout=120, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=_SRC))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _exports():
    """{name: package module} for every __all__ name but __version__, read
    off the imports of the package's __init__."""
    tree = ast.parse((_ROOT / "src" / "isotropy" / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_importing_the_package_runs_none_of_its_modules():
    got = _fresh("""
import json, isotropy
seen = {"import": loaded()}
seen["version"] = isotropy.__version__
seen["dir"] = dir(isotropy)
try:
    isotropy.no_such_name
except AttributeError as exc:
    seen["unknown"] = str(exc)
seen["after"] = loaded()
print(json.dumps(seen))
""")
    assert got["import"] == [] and got["after"] == []
    assert got["version"] == "0.1.0"
    assert set(got["dir"]) >= set(isotropy.__all__)
    assert got["unknown"] == "module 'isotropy' has no attribute 'no_such_name'"


def test_the_first_public_name_loads_the_whole_library_in_order():
    got = _fresh("""
import json, isotropy
isotropy.SegreStructure
print(json.dumps(loaded()))
""")
    assert got == _LIBRARY


def test_every_public_name_is_the_object_its_module_defines():
    exports = _exports()
    got = _fresh("""
import importlib, json, sys, isotropy
exports = json.loads(sys.argv[1])
print(json.dumps(sorted(
    name for name, module in exports.items()
    if getattr(isotropy, name)
    is not getattr(importlib.import_module("isotropy." + module), name))))
""", json.dumps(exports))
    assert got == []
    assert set(exports) | {"__version__"} == set(isotropy.__all__)


def test_star_import_binds_every_public_name():
    got = _fresh("""
import json
names = {}
exec("from isotropy import *", names)
print(json.dumps(sorted(set(names) - {"__builtins__"})))
""")
    assert got == sorted(isotropy.__all__)


PAIR = '{"lambda": "i", "blocks": [{"alpha": 2, "m": 1}, {"alpha": 1, "m": 1}]}'
EYE3 = ('{"rows": 3, "cols": 3, "entries": '
        '["1", "0", "0", "0", "1", "0", "0", "0", "1"]}')
G_SPEC = ('{"kind": "G", "p": 1, "t": 2, "k": 0, '
          '"F": {"rows": 1, "cols": 1, "entries": ["1"]}}')
_REQUESTS = {
    "canonical": [],
    "codim": [],
    "commutant": [],
    "describe": [],
    "dim": [],
    "factor": ["--matrix", EYE3],
    "generators": ["--params", G_SPEC],
    "sample": ["--seed", "5"],
    "verify": ["--matrix", EYE3],
}
# Every command loads the modules the command line imports; each loads on
# top of them the modules it runs.
_START = {"errors", "forms", "jsonio", "matrices", "scalars"}
_RUNS = {
    "canonical": set(),
    "codim": {"orbit"},
    "commutant": {"toeplitz"},
    "describe": {"stabilizer"},
    "dim": set(),
    "factor": {"generators", "solver", "stabilizer", "toeplitz"},
    "generators": {"generators", "solver", "toeplitz"},
    "sample": {"rng", "solver", "stabilizer", "toeplitz"},
    "selftest": set(_LIBRARY) | {"acceptance"},
    "verify": {"stabilizer", "toeplitz"},
}

# `python -m isotropy.cli ARGS`, run the way -m runs it, reporting at exit
# the modules that ran (the command line itself runs as __main__) and which
# of the command-line parser's modules were imported
_PARSING = ("argparse", "gettext", "locale")
_CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: print("\\n" + json.dumps([
    sorted(loaded()), [name for name in %r if name in sys.modules]])))
runpy.run_module("isotropy.cli", run_name="__main__", alter_sys=True)
""" % (_PARSING,)


def test_each_command_runs_only_the_modules_it_reads(tmp_path):
    def modules_run(command):
        argv = ["--max-n", "3", "--cases", "2"] if command == "selftest" \
            else ["--structure", PAIR, *_REQUESTS[command]]
        out = tmp_path / command
        out.mkdir()
        got = _fresh(_CLI, command, *argv, "--out", "out.json", cwd=out)
        assert json.loads((out / "out.json").read_text())
        return got

    # two processes at a time: the runs are independent of each other
    with ThreadPoolExecutor(2) as pool:
        got = dict(zip(_RUNS, pool.map(modules_run, _RUNS)))
    # each command line is well-formed, so none loads argparse
    assert got == {command: [sorted(_START | runs), []]
                   for command, runs in _RUNS.items()}


def test_only_a_command_line_argparse_must_read_loads_it(tmp_path):
    # an abbreviated flag goes to argparse, which reads it as --structure
    got = _fresh(_CLI, "dim", "--struct", PAIR, "--out", "out.json",
                 cwd=tmp_path)
    assert json.loads((tmp_path / "out.json").read_text())
    assert got == [sorted(_START), list(_PARSING)]


# perfbench wraps the package from outside: cli_child.py imports the
# command line, wraps every module loaded by then, and runs the command.
# A module a handler imported only when it runs would go unwrapped.
@pytest.mark.parametrize("command, span", [
    ("describe", "stabilizer.describe_isotropy"),
    ("codim", "orbit.consistency_check")])
def test_the_tracer_sees_the_modules_a_command_runs(command, span, tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "cli_child.py"), command,
         "--structure", PAIR], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=_SRC,
                 PERFBENCH_SPAWN=repr(time.monotonic()),
                 PERFBENCH_TRACE_FILE=str(trace)))
    assert proc.returncode == 0, proc.stderr[-2000:]
    spans = json.loads(trace.read_text())["summary"]["spans"]
    assert spans.get(span, [0])[0] >= 1, sorted(spans)
