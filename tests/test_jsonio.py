"""Wire format round trips and canonical dump stability."""

import pytest

from isotropy.errors import ParameterError, ScalarParseError, StructureError
from isotropy.forms import MultiSegreStructure, SegreStructure
from isotropy.generators import GeneratorSpec
from isotropy.jsonio import (congruence_data_from_json,
                             congruence_data_to_json, description_to_json,
                             dumps_canonical, free_params_from_json,
                             free_params_to_json, generator_spec_from_json,
                             generator_spec_to_json, matrix_from_json,
                             matrix_to_json, orbit_report_to_json,
                             structure_from_json, structure_to_json,
                             toeplitz_from_json, toeplitz_to_json)
from isotropy.matrices import ExactMatrix, identity
from isotropy.orbit import consistency_check
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, SQRT2, rat
from isotropy.solver import (CongruenceData, FreeParams, random_free_params,
                             solve_congruence)
from isotropy.stabilizer import describe_isotropy


def _st(blocks, lam=IMAG):
    return SegreStructure(lam, blocks)


def test_matrix_round_trip_exotic_entries():
    m = ExactMatrix.from_rows([
        [rat(1, 2), IMAG * rat(-3, 4)],
        [SQRT2, rat(0)],
    ])
    assert matrix_from_json(matrix_to_json(m)) == m


def test_matrix_json_shape():
    payload = matrix_to_json(identity(2))
    assert payload == {"rows": 2, "cols": 2,
                       "entries": ["1", "0", "0", "1"]}


def test_matrix_json_rejections():
    with pytest.raises(ParameterError):
        matrix_from_json([1, 2])
    with pytest.raises(ParameterError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": ["1"] * 3})
    with pytest.raises(ParameterError):
        matrix_from_json({"rows": 0, "cols": 1, "entries": []})
    with pytest.raises(ParameterError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [7]})
    with pytest.raises(ScalarParseError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": ["bogus&"]})


def test_structure_round_trip_single_and_multi():
    st = _st([(3, 2), (1, 1)])
    assert structure_from_json(structure_to_json(st)) == st
    multi = MultiSegreStructure([_st([(2, 1)], 0), _st([(1, 2)], 1)])
    assert structure_from_json(structure_to_json(multi)) == multi


def test_structure_json_wire_shape():
    assert structure_to_json(_st([(2, 1)], 0)) == {
        "lambda": "0", "blocks": [{"alpha": 2, "m": 1}]}


def test_structure_json_rejections():
    with pytest.raises(StructureError):
        structure_from_json({"blocks": [{"alpha": 1, "m": 1}]})
    with pytest.raises(StructureError):
        structure_from_json({"lambda": "0", "blocks": []})
    with pytest.raises(ParameterError):
        structure_from_json({"lambda": "0", "blocks": [{"alpha": 0, "m": 1}]})
    with pytest.raises(StructureError):
        structure_from_json({"parts": []})


def test_toeplitz_round_trip():
    rnd = RandomSource(20240864)
    st = _st([(3, 1), (2, 2)])
    data = CongruenceData.identity(st)
    form = solve_congruence(data, random_free_params(data, rnd))
    assert toeplitz_from_json(toeplitz_to_json(form)) == form


def test_toeplitz_json_requires_all_blocks():
    st = _st([(2, 1), (1, 1)])
    payload = toeplitz_to_json(solve_congruence(
        CongruenceData.identity(st), FreeParams.zero(st)))
    del payload["coeffs"]["1,2"]
    with pytest.raises(ParameterError):
        toeplitz_from_json(payload)


def test_congruence_data_round_trip():
    rnd = RandomSource(20240865)
    st = _st([(2, 2), (1, 1)])
    b0, b1 = rnd.symmetric_nonsingular(2), rnd.symmetric_nonsingular(1)
    data = CongruenceData(
        st, [[b0, rnd.symmetric(2)], [b1]], [[b0, rnd.symmetric(2)], [b1]])
    assert congruence_data_from_json(congruence_data_to_json(data)) == data


def test_free_params_round_trip_and_keys():
    rnd = RandomSource(20240866)
    st = _st([(3, 1), (1, 2)])
    data = CongruenceData.identity(st)
    params = random_free_params(data, rnd)
    payload = free_params_to_json(params)
    assert set(payload) == {"sub", "seeds", "skews"}
    assert set(payload["seeds"]) == {"1", "2"}
    assert set(payload["skews"]) == {"1,1", "1,2"}
    assert set(payload["sub"]) == {"2,1,0"}
    back = free_params_from_json(payload)
    assert back.sub_blocks == params.sub_blocks
    assert back.diag_seeds == params.diag_seeds
    assert back.skews == params.skews


def test_keys_naming_one_slot_are_rejected():
    # "1,1", "01,1", "+1,1" and "1,1 " all parse to slot (1, 1)
    rnd = RandomSource(20240867)
    st = _st([(3, 1), (1, 2)])
    data = CongruenceData.identity(st)
    form = solve_congruence(data, random_free_params(data, rnd))
    params = free_params_to_json(random_free_params(data, rnd))
    for payload, wire, key, twin in [
            (toeplitz_to_json(form), "coeffs", "1,2", "01,2"),
            (congruence_data_to_json(data), "b", "2", "+2"),
            (congruence_data_to_json(data), "c", "1", " 1"),
            (params, "sub", "2,1,0", "2,1,00"),
            (params, "seeds", "2", "02"),
            (params, "skews", "1,1", "1,1 ")]:
        section = payload[wire]
        section[twin] = section[key]
        parse = {"coeffs": toeplitz_from_json, "b": congruence_data_from_json,
                 "c": congruence_data_from_json}.get(wire, free_params_from_json)
        with pytest.raises(ParameterError, match="name the same slot"):
            parse(payload)
        del section[twin]
    spec = generator_spec_to_json(GeneratorSpec(
        "diagonal_W", skews={(0, 1): rnd.skew(1), (0, 2): rnd.skew(1)}))
    spec["skews"]["+1,1"] = spec["skews"]["1,1"]
    with pytest.raises(ParameterError, match="name the same slot"):
        generator_spec_from_json(spec)


def test_generator_spec_round_trip():
    z = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    w_spec = GeneratorSpec("diagonal_W", skews={(0, 1): z})
    assert generator_spec_from_json(generator_spec_to_json(w_spec)) == w_spec
    g_spec = GeneratorSpec("two_block_G", p=0, t=2, k=1,
                           coupling=ExactMatrix.from_rows([[1], [2]]))
    payload = generator_spec_to_json(g_spec)
    assert payload["p"] == 1 and payload["t"] == 3 and payload["k"] == 1
    assert generator_spec_from_json(payload) == g_spec
    with pytest.raises(ParameterError):
        generator_spec_from_json({"kind": "X"})


def test_description_json_one_based_groups():
    payload = description_to_json(describe_isotropy(_st([(3, 1), (1, 2)])))
    recipes = payload["generator_recipes"]
    assert [e["group"] for e in recipes["orthogonal_seeds"]] == [1, 2]
    assert recipes["couplings"][0]["p"] == 1
    assert recipes["couplings"][0]["t"] == 2
    multi = MultiSegreStructure([_st([(2, 1)], 0), _st([(1, 1)], 1)])
    multi_payload = description_to_json(describe_isotropy(multi))
    assert len(multi_payload["parts"]) == 2
    assert "parts" in multi_payload["generator_recipes"]


def test_orbit_report_json_counts():
    report = consistency_check(_st([(2, 1), (1, 1)]))
    payload = orbit_report_to_json(report)
    assert payload["codim_formula"] == 4
    assert payload["n"] == 3
    assert payload["isotropy_dim"] == 1
    assert payload["tangent_dim"] + payload["oracle_codim"] == 6


def test_canonical_dumps_are_stable():
    st = _st([(2, 2)])
    one = dumps_canonical(structure_to_json(st))
    two = dumps_canonical(structure_to_json(_st([(2, 2)])))
    assert one == two
    assert one.endswith("\n")
    payload = dumps_canonical({"b": 1, "a": 2})
    assert payload.index('"a"') < payload.index('"b"')
