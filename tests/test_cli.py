"""CLI behavior: exit codes, JSON shapes, byte-identical determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

import isotropy
from isotropy.cli import main
from isotropy.forms import SegreStructure, symmetric_form
from isotropy.generators import generator_from_spec
from isotropy.jsonio import (generator_spec_from_json, matrix_from_json,
                             matrix_to_json, structure_from_json)
from isotropy.scalars import IMAG
from isotropy.stabilizer import from_toeplitz_coordinates, verify_isotropy
from isotropy.toeplitz import ToeplitzForm, commutant_dimension

O3 = '{"lambda": "i", "blocks": [{"alpha": 1, "m": 3}]}'
RIGID = '{"lambda": "0", "blocks": [{"alpha": 2, "m": 1}]}'
PAIR = '{"lambda": "i", "blocks": [{"alpha": 2, "m": 1}, {"alpha": 1, "m": 1}]}'
EYE2 = '{"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]}'


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_example(capsys):
    code, out, _ = _run(capsys, "dim", "--structure", O3)
    assert code == 0
    assert json.loads(out) == {"dimension": 3}


# the directory that holds the package, for fresh interpreters
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(isotropy.__file__)))

_CAPPED = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from isotropy.cli import main
sys.exit(main([sys.argv[1], "--structure", sys.argv[2]]))
"""


def _run_capped(command, structure):
    """The CLI in a fresh interpreter limited to a 1 GB address space."""
    return subprocess.run(
        [sys.executable, "-c", _CAPPED, command, structure],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=_SRC))


def test_start_up_loads_neither_the_checks_nor_hashlib():
    # only selftest needs acceptance and only sample needs hashlib, so a
    # fresh process that imports the CLI loads neither
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, isotropy.cli; print(sorted("
         "m for m in ('hashlib', 'isotropy.acceptance') if m in sys.modules))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=_SRC))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n"


_HUGE_ALPHA = '{"lambda": "0", "blocks": [{"alpha": 1000000000, "m": 2}]}'


def test_dim_of_huge_alpha_runs_in_bounded_memory():
    # dim answers from the closed form, so alpha = 10^9 fits in a 1 GB
    # address space; listing one recipe per coefficient slot would not
    proc = _run_capped("dim", _HUGE_ALPHA)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"dimension": 10**9}


def test_request_too_large_for_memory_exits_two():
    # describe lists one recipe per coefficient slot, which at alpha = 10^9
    # does not fit: a JSON error and exit 2, not a traceback and exit 1
    proc = _run_capped("describe", _HUGE_ALPHA)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "request too large: out of memory"}


def _blocks(*pairs, lam="0"):
    return json.dumps({"lambda": lam, "blocks": [
        {"alpha": a, "m": m} for a, m in pairs]})


def _parts(*parts):
    return '{"parts": [' + ", ".join(parts) + "]}"


# every command that builds dense n x n matrices
_BOUNDED = ["canonical", "codim", "sample", "generators", "verify",
            "commutant", "factor"]


@pytest.mark.parametrize("command", _BOUNDED)
def test_dense_commands_refuse_an_oversize_structure_at_once(capsys, command):
    # n = 200000 is refused from the structure, before any n x n matrix
    # is built and before --params or --matrix is read (none is passed),
    # so the refusal is quick and fits in 1 GB
    # sample runs out of 1 GB sooner, so it stops at n = 512
    bound = 512 if command == "sample" else 1024
    structure = '{"lambda": "0", "blocks": [{"alpha": 100000, "m": 2}]}'
    start = time.monotonic()
    proc = _run_capped(command, structure)
    assert time.monotonic() - start < 5
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": f"request too large: n = 200000, and {command} builds "
                 f"dense matrices only up to n = {bound}"}
    # one more than the bound is refused, on several parts too
    multi = _parts(_blocks((bound, 1)), _blocks((1, 1), lam="1"))
    code, out, err = _run(capsys, command, "--structure", multi)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(
        f"request too large: n = {bound + 1},")


_CODIM_BOUND = "codim ranks tangent systems only for blocks up to size 40"
_SAMPLE_BOUND = "sample takes orthogonal seeds only up to size 32"
_COMMUTANT_BOUND = "commutant prints at most 4194304 entries"


@pytest.mark.parametrize("command, over, over_error, edge, edge_error", [
    # codim ranks the tangent system of a block of size a densely, about
    # a^2/2 rows of a^2/2 entries
    ("codim", _blocks((150, 1)),
     f"the largest block has size 150, and {_CODIM_BOUND}",
     _parts(_blocks((2, 1)), _blocks((41, 1), (1, 2), lam="1")),
     f"the largest block has size 41, and {_CODIM_BOUND}"),
    # sample works on an m x m orthogonal seed per group
    ("sample", _blocks((1, 512)),
     f"the largest multiplicity is 512, and {_SAMPLE_BOUND}",
     _parts(_blocks((2, 1)), _blocks((2, 1), (1, 33), lam="i")),
     f"the largest multiplicity is 33, and {_SAMPLE_BOUND}"),
    # the basis has 4 * 200 = 800 dense 400 x 400 matrices; at the bound,
    # [(64, 2)] has 256 of 128 x 128, and one more row tips it over
    ("commutant", _blocks((200, 2)),
     "the commutant basis has 800 matrices of 400 x 400, and "
     f"{_COMMUTANT_BOUND}",
     _blocks((64, 2), (1, 1)),
     "the commutant basis has 261 matrices of 129 x 129, and "
     f"{_COMMUTANT_BOUND}"),
], ids=["codim", "sample", "commutant"])
def test_commands_refuse_beyond_their_own_bound_at_once(
        capsys, command, over, over_error, edge, edge_error):
    # far below the n bound, but over the command's own bound: refused from
    # the structure alone, so quickly and in 1 GB
    start = time.monotonic()
    proc = _run_capped(command, over)
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-2000:]
    assert json.loads(proc.stderr) == {
        "error": "request too large: " + over_error}
    code, out, err = _run(capsys, command, "--structure", edge)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "request too large: " + edge_error}


def test_codim_example(capsys):
    code, out, _ = _run(capsys, "codim", "--structure", PAIR)
    assert code == 0
    payload = json.loads(out)
    assert payload["codimension"] == 4
    assert payload["report"]["isotropy_dim"] == 1


def test_describe_reports_reductive_sizes(capsys):
    code, out, _ = _run(capsys, "describe", "--structure", O3)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["reductive_part"] == [3]
    assert payload["nilpotency_class_bound"] == 1


def test_canonical_emits_the_four_matrices(capsys):
    code, out, _ = _run(capsys, "canonical", "--structure", RIGID)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"symmetric", "transition", "interleave", "flip"}
    st = SegreStructure(0, [(2, 1)])
    assert matrix_from_json(payload["symmetric"]) == symmetric_form(st)


def test_verify_identity_is_member(capsys):
    code, out, _ = _run(capsys, "verify", "--structure", RIGID,
                        "--matrix", EYE2)
    assert code == 0
    assert json.loads(out)["member"] is True


def test_verify_non_member_exits_one(capsys):
    bad = '{"rows": 2, "cols": 2, "entries": ["2", "0", "0", "2"]}'
    code, out, _ = _run(capsys, "verify", "--structure", RIGID,
                        "--matrix", bad)
    assert code == 1
    payload = json.loads(out)
    assert payload["member"] is False
    assert "orthogonality" in payload["report"]


def test_sample_is_byte_identical_per_seed(capsys, monkeypatch):
    monkeypatch.delenv("ISOTROPY_SEED", raising=False)
    code, first, _ = _run(capsys, "sample", "--structure", PAIR,
                          "--seed", "11")
    assert code == 0
    _, second, _ = _run(capsys, "sample", "--structure", PAIR,
                        "--seed", "11")
    assert first == second
    _, third, _ = _run(capsys, "sample", "--structure", PAIR,
                       "--seed", "12")
    assert third != first
    payload = json.loads(first)
    st = SegreStructure(IMAG, [(2, 1), (1, 1)])
    q = matrix_from_json(payload["matrix"])
    assert verify_isotropy(st, q)[0]
    assert payload["provenance"]["seed"] == 11
    assert len(payload["provenance"]["params_digest"]) == 64


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ISOTROPY_SEED", "11")
    _, via_env, _ = _run(capsys, "sample", "--structure", PAIR)
    monkeypatch.delenv("ISOTROPY_SEED")
    _, via_flag, _ = _run(capsys, "sample", "--structure", PAIR,
                          "--seed", "11")
    assert via_env == via_flag


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_is_refused(capsys, monkeypatch, seed):
    # the stream keeps 64 bits: -1 would alias 2^64 - 1 and 2^64 alias 0,
    # each with a different provenance seed
    monkeypatch.delenv("ISOTROPY_SEED", raising=False)
    code, out, err = _run(capsys, "sample", "--structure", PAIR,
                          "--seed", str(seed))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": f"--seed must be in [0, 2**64), got {seed}"}
    monkeypatch.setenv("ISOTROPY_SEED", str(seed))
    code, out, err = _run(capsys, "sample", "--structure", PAIR)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": f"ISOTROPY_SEED must be in [0, 2**64), got {seed}"}
    monkeypatch.setenv("ISOTROPY_SEED", str((1 << 64) - 1))
    code, out, _ = _run(capsys, "sample", "--structure", PAIR)
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == (1 << 64) - 1


def test_sample_multi_structure(capsys):
    multi = ('{"parts": [{"lambda": "0", "blocks": [{"alpha": 2, "m": 1}]},'
             ' {"lambda": "1", "blocks": [{"alpha": 1, "m": 2}]}]}')
    code, out, _ = _run(capsys, "sample", "--structure", multi,
                        "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["rows"] == 4
    assert payload["provenance"]["seed"] == 3


def test_generators_worked_example(capsys):
    structure = ('{"lambda": "0", "blocks": [{"alpha": 4, "m": 2},'
                 ' {"alpha": 2, "m": 3}, {"alpha": 1, "m": 1}]}')
    spec = ('{"kind": "G", "p": 1, "t": 2, "k": 0,'
            ' "F": {"rows": 3, "cols": 2,'
            ' "entries": ["1", "2", "3", "4", "5", "6"]}}')
    code, out, _ = _run(capsys, "generators", "--structure", structure,
                        "--params", spec)
    assert code == 0
    payload = json.loads(out)
    mat = matrix_from_json(payload["matrix"])
    assert mat.rows == mat.cols == 15
    st = SegreStructure(0, [(4, 2), (2, 3), (1, 1)])
    expected = generator_from_spec(
        st, generator_spec_from_json(json.loads(spec))).assemble()
    assert mat == expected


def test_commutant_counts_and_basis(capsys):
    code, out, _ = _run(capsys, "commutant", "--structure", PAIR)
    assert code == 0
    payload = json.loads(out)
    st = SegreStructure(IMAG, [(2, 1), (1, 1)])
    assert payload["dimension"] == commutant_dimension(st)
    assert len(payload["basis"]) == payload["dimension"]


def test_factor_round_trip_through_wire(capsys):
    spec = ('{"kind": "G", "p": 1, "t": 2, "k": 0,'
            ' "F": {"rows": 1, "cols": 1, "entries": ["2"]}}')
    st = SegreStructure(IMAG, [(2, 1), (1, 1)])
    form = generator_from_spec(
        st, generator_spec_from_json(json.loads(spec)))
    q = from_toeplitz_coordinates(st, form)
    code, out, _ = _run(capsys, "factor", "--structure", PAIR,
                        "--matrix", json.dumps(matrix_to_json(q)))
    assert code == 0
    payload = json.loads(out)
    wire = payload["core"]["coeffs"]
    core = ToeplitzForm.build(
        structure_from_json(payload["core"]["structure"]),
        lambda r, s, j: matrix_from_json(wire[f"{r + 1},{s + 1}"][j]))
    rebuilt = core
    for spec_json in payload["factors"]:
        rebuilt = rebuilt * generator_from_spec(
            st, generator_spec_from_json(spec_json))
    assert rebuilt == form


def test_factor_rejects_non_unipotent_member(capsys):
    minus = '{"rows": 2, "cols": 2, "entries": ["-1", "0", "0", "-1"]}'
    code, _, err = _run(capsys, "factor", "--structure", RIGID,
                        "--matrix", minus)
    assert code == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command, structure, params", [
    ("sample", RIGID,
     '{"seeds": {"1": {"rows": 1, "cols": 1, "entries": ["1"]}},'
     ' "skews": {"1,1": {"rows": 1, "cols": 1, "entries": ["0"]},'
     ' "1,1 ": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
    ("sample", RIGID,
     '{"seeds": {"1": {"rows": 1, "cols": 1, "entries": ["1"]},'
     ' "01": {"rows": 1, "cols": 1, "entries": ["-1"]}},'
     ' "skews": {"1,1": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
    ("generators", RIGID,
     '{"kind": "W", "skews": {'
     '"1,1": {"rows": 1, "cols": 1, "entries": ["0"]},'
     ' "+1,1": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
    # a literally repeated key: plain json.loads would keep the last value
    ("sample", RIGID,
     '{"seeds": {"1": {"rows": 1, "cols": 1, "entries": ["1"]}},'
     ' "skews": {"1,1": {"rows": 1, "cols": 1, "entries": ["0"]},'
     ' "1,1": {"rows": 1, "cols": 1, "entries": ["1"]}}}'),
    ("dim", '{"lambda": "0", "blocks": [{"alpha": 2, "m": 1}],'
            ' "blocks": [{"alpha": 3, "m": 1}]}', None),
    ("dim", '{"lambda": "0", "blocks": [{"alpha": 2, "m": 1, "alpha": 3}]}',
     None),
], ids=["sample-skews", "sample-seeds", "generators-W", "sample-repeated-skew",
        "dim-repeated-blocks", "dim-repeated-alpha"])
def test_keys_naming_one_slot_exit_two(capsys, command, structure, params):
    argv = [command, "--structure", structure]
    if params is not None:
        argv += ["--params", params]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "name the same slot" in json.loads(err)["error"]


def test_missing_required_flag_exits_two(capsys):
    code, _, err = _run(capsys, "dim")
    assert code == 2
    assert "structure" in json.loads(err)["error"]


@pytest.mark.parametrize("text", ["[" * 100000, '{"a": ' * 100000,
                                  '{"lambda": "0", "blocks": ' + "[" * 100000],
                         ids=["lists", "objects", "blocks"])
@pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
def test_deeply_nested_json_exits_two(capsys, tmp_path, text, from_file):
    # the JSON parser gives up with a RecursionError, which must not escape
    argument = text
    if from_file:
        argument = str(tmp_path / "deep.json")
        with open(argument, "w", encoding="utf-8") as handle:
            handle.write(text)
    for argv in (["dim", "--structure", argument],
                 ["sample", "--structure", RIGID, "--params", argument]):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in json.loads(err)["error"]


def test_nested_parts_chain_exits_two(capsys):
    structure = RIGID
    for _ in range(480):
        structure = '{"parts": [' + structure + "]}"
    code, out, err = _run(capsys, "dim", "--structure", structure)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_bad_json_and_missing_file_exit_two(capsys):
    code, _, _ = _run(capsys, "dim", "--structure", '{"lambda": ')
    assert code == 2
    code, _, _ = _run(capsys, "dim", "--structure", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--structure", RIGID, "--seed", "abc"],
    ["nonesuch", "--structure", RIGID],
    ["dim", "--structure", RIGID, "--no-such-flag"],
])
def test_malformed_command_line_exits_two_with_json(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == 2
    assert captured.out == ""
    assert set(json.loads(captured.err)) == {"error"}


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_selftest_rejects_max_n_below_one(capsys, max_n):
    code, out, err = _run(capsys, "selftest", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"error"}


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = _run(capsys, "dim", "--structure", O3,
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"dimension": 3}


def test_out_flag_write_failure_exits_two(capsys, tmp_path):
    # tmp_path is a directory: the write fails after the command succeeded
    code, out, err = _run(capsys, "sample", "--structure", RIGID,
                          "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"error"}


def test_selftest_smoke(capsys, tmp_path):
    target = tmp_path / "selftest.json"
    code, _, err = _run(capsys, "selftest", "--max-n", "4", "--cases", "6",
                        "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 10
    assert err.count("PASS") == 10
