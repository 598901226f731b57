"""Property tests of the wire format: every scalar survives
parse_scalar(format_scalar(x)), every jsonio wire type survives
*_from_json(*_to_json(x)), and every coefficient of a Toeplitz form
survives toeplitz_to_json."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isotropy.forms import MultiSegreStructure, SegreStructure  # noqa: E402
from isotropy.generators import GeneratorSpec  # noqa: E402
from isotropy.jsonio import (free_params_from_json,  # noqa: E402
                             free_params_to_json, generator_spec_from_json,
                             generator_spec_to_json, matrix_from_json,
                             matrix_to_json, structure_from_json,
                             structure_to_json, toeplitz_to_json)
from isotropy.matrices import ExactMatrix  # noqa: E402
from isotropy.scalars import (ExactScalar, format_scalar,  # noqa: E402
                              parse_scalar)
from isotropy.solver import FreeParams  # noqa: E402
from isotropy.toeplitz import ToeplitzForm  # noqa: E402

# derandomized: the same examples on every run, 200 in all
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10**12, 10**12),
              st.integers(1, 10**12)))
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)
# a few eigenvalues, so that multi-eigenvalue structures draw distinct ones
eigenvalues = st.sampled_from(["0", "1", "i", "-1/2 + 3 i", "r2", "(1 - i) r2"])


def matrices(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(ExactMatrix.from_rows)


@st.composite
def segre_structures(draw, lam=None):
    alphas = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                           unique=True))
    blocks = [(alpha, draw(st.integers(1, 2))) for alpha in alphas]
    return SegreStructure(parse_scalar(lam or draw(eigenvalues)), blocks)


@st.composite
def structures(draw):
    lams = draw(st.lists(eigenvalues, min_size=1, max_size=3, unique=True))
    if len(lams) == 1:
        return draw(segre_structures(lams[0]))
    return MultiSegreStructure([draw(segre_structures(lam)) for lam in lams])


@given(scalars)
@settings(PROPERTY, max_examples=50)
def test_scalar_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(st.integers(1, 3), st.integers(1, 3), st.data())
@PROPERTY
def test_matrix_round_trip(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    assert matrix_from_json(matrix_to_json(m)) == m


@given(structures())
@PROPERTY
def test_structure_round_trip(structure):
    assert structure_from_json(structure_to_json(structure)) == structure


def _toeplitz_from_wire(payload):
    """The form a toeplitz_to_json payload writes: one matrix_from_json per
    coefficient, read under its 1-based "r,s" key."""
    return ToeplitzForm(structure_from_json(payload["structure"]), {
        tuple(int(g) - 1 for g in key.split(",")): [
            matrix_from_json(mat) for mat in entry]
        for key, entry in payload["coeffs"].items()})


@given(segre_structures(), st.data())
@PROPERTY
def test_toeplitz_round_trip(structure, data):
    mults = structure.mults
    coeffs = {(r, s, j): data.draw(matrices(mults[r], mults[s]))
              for r in range(structure.part_count)
              for s in range(structure.part_count)
              for j in range(structure.depth(r, s))}
    form = ToeplitzForm.from_sparse(structure, coeffs)
    assert _toeplitz_from_wire(toeplitz_to_json(form)) == form


def _skews(structure, data):
    out = {}
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            x = data.draw(matrices(m, m))
            out[(r, j)] = x - x.transpose()
    return out


@given(segre_structures(), st.data())
@PROPERTY
def test_free_params_round_trip(structure, data):
    mults = structure.mults
    sub = {(r, s, j): data.draw(matrices(mults[r], mults[s]))
           for r in range(structure.part_count) for s in range(r)
           for j in range(structure.alphas[r])}
    seeds = [data.draw(matrices(m, m)) for m in mults]
    params = FreeParams(sub, seeds, _skews(structure, data))
    back = free_params_from_json(free_params_to_json(params))
    assert (back.sub_blocks, back.diag_seeds, back.skews) == (
        params.sub_blocks, params.diag_seeds, params.skews)


@given(segre_structures(), st.data())
@PROPERTY
def test_generator_spec_round_trip(structure, data):
    if structure.part_count == 1 or data.draw(st.booleans()):
        spec = GeneratorSpec("diagonal_W", skews=_skews(structure, data))
    else:
        p, t = sorted(data.draw(st.lists(
            st.integers(0, structure.part_count - 1), min_size=2,
            max_size=2, unique=True)))
        spec = GeneratorSpec(
            "two_block_G", p=p, t=t,
            k=data.draw(st.integers(0, structure.alphas[t] - 1)),
            coupling=data.draw(matrices(structure.mults[t],
                                        structure.mults[p])))
    assert generator_spec_from_json(generator_spec_to_json(spec)) == spec
