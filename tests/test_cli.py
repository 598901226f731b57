"""CLI behavior: exit codes, JSON shapes, byte-identical determinism."""

import json

import pytest

from isotropy.cli import main
from isotropy.forms import SegreStructure, symmetric_form
from isotropy.generators import generator_from_spec
from isotropy.jsonio import (generator_spec_from_json, matrix_from_json,
                             matrix_to_json, toeplitz_from_json)
from isotropy.scalars import IMAG
from isotropy.stabilizer import from_toeplitz_coordinates, verify_isotropy
from isotropy.toeplitz import commutant_dimension

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
    core = toeplitz_from_json(payload["core"])
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


@pytest.mark.parametrize("command, params", [
    ("sample", '{"seeds": {"1": {"rows": 1, "cols": 1, "entries": ["1"]}},'
               ' "skews": {"1,1": {"rows": 1, "cols": 1, "entries": ["0"]},'
               ' "1,1 ": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
    ("sample", '{"seeds": {"1": {"rows": 1, "cols": 1, "entries": ["1"]},'
               ' "01": {"rows": 1, "cols": 1, "entries": ["-1"]}},'
               ' "skews": {"1,1": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
    ("generators", '{"kind": "W", "skews": {'
                   '"1,1": {"rows": 1, "cols": 1, "entries": ["0"]},'
                   ' "+1,1": {"rows": 1, "cols": 1, "entries": ["0"]}}}'),
], ids=["sample-skews", "sample-seeds", "generators-W"])
def test_keys_naming_one_slot_exit_two(capsys, command, params):
    code, out, err = _run(capsys, command, "--structure", RIGID,
                          "--params", params)
    assert code == 2
    assert out == ""
    assert "name the same slot" in json.loads(err)["error"]


def test_missing_required_flag_exits_two(capsys):
    code, _, err = _run(capsys, "dim")
    assert code == 2
    assert "structure" in json.loads(err)["error"]


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


def test_selftest_smoke(capsys, tmp_path):
    target = tmp_path / "selftest.json"
    code, _, err = _run(capsys, "selftest", "--max-n", "4", "--cases", "6",
                        "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 10
    assert err.count("PASS") == 10
