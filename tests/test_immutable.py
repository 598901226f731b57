"""The immutability rule of the package's values: each of the ten value
classes refuses set and del on every field, and the parameter maps a check
has passed are read-only copies."""

import pytest

from isotropy.forms import MultiSegreStructure, SegreStructure
from isotropy.generators import GeneratorSpec
from isotropy.matrices import ExactMatrix, zeros
from isotropy.orbit import consistency_check
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ExactScalar
from isotropy.solver import FreeParams, constant_data, random_free_params
from isotropy.stabilizer import describe_isotropy, sample_isotropy_element
from isotropy.toeplitz import ToeplitzForm

_ST = SegreStructure(IMAG, [(3, 1), (2, 2)])


def _skew():
    return ExactMatrix.from_rows([[0, "1/2"], ["-1/2", 0]])


# one builder per value class; each call builds a fresh, equal value
_VALUES = {
    "SegreStructure": lambda: SegreStructure(IMAG, [(3, 1), (2, 2)]),
    "MultiSegreStructure": lambda: MultiSegreStructure(
        [SegreStructure(0, [(2, 1)]), SegreStructure(1, [(1, 2)])]),
    "ExactScalar": lambda: ExactScalar(1, "2/3", 0, -1),
    "ExactMatrix": lambda: ExactMatrix.from_rows([["1/2", IMAG], [3, 0]]),
    "ToeplitzForm": lambda: ToeplitzForm.identity(_ST),
    "CongruenceData": lambda: constant_data(_ST),
    "FreeParams": lambda: FreeParams.zero(_ST),
    "GeneratorSpec": lambda: GeneratorSpec("diagonal_W",
                                           skews={(1, 1): _skew()}),
    "IsotropyDescription": lambda: describe_isotropy(_ST),
    "OrbitReport": lambda: consistency_check(_ST),
}


def _fields(value):
    return [getattr(value, name, None) for name in type(value).__slots__]


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_a_value_refuses_set_and_del_on_every_field(name):
    value, twin = _VALUES[name](), _VALUES[name]()
    assert type(value).__name__ == name
    before = hash(value) if type(value).__hash__ is not None else None
    message = f"^{name} is immutable$"
    # every slot, public and private, every public property (ExactScalar's
    # parts are read-only views of its private pair), and a private name it
    # does not have
    names = type(value).__slots__ + tuple(
        n for n, v in vars(type(value)).items()
        if isinstance(v, property) and not n.startswith("_")) + ("_unset",)
    assert any(not n.startswith("_") for n in names)
    assert any(n.startswith("_") for n in names)
    for field in names:
        with pytest.raises(AttributeError, match=message):
            setattr(value, field, None)
        # an alias of __setattr__ would raise TypeError here, not this
        with pytest.raises(AttributeError, match=message):
            delattr(value, field)
    if before is not None:
        assert hash(value) == before
        hash(twin)  # ExactScalar sets its _hash slot on the first call
    assert _fields(value) == _fields(twin)
    if type(value).__eq__ is not object.__eq__:
        assert value == twin
        assert before is None or hash(twin) == before


@pytest.mark.parametrize("owner, field", [
    ("FreeParams", "sub_blocks"), ("FreeParams", "skews"),
    ("GeneratorSpec", "skews")])
def test_checked_parameter_maps_are_read_only(owner, field):
    mapping = getattr(_VALUES[owner](), field)
    key = next(iter(mapping))
    with pytest.raises(TypeError):
        mapping[key] = mapping[key]
    with pytest.raises(TypeError):
        del mapping[key]


def test_free_params_keep_what_was_checked_when_the_source_changes():
    data = constant_data(_ST)
    drawn = random_free_params(data, RandomSource(36))
    sub, skews = dict(drawn.sub_blocks), dict(drawn.skews)
    params = FreeParams(sub, drawn.diag_seeds, skews)
    before = sample_isotropy_element(_ST, params=params)
    # a non-skew matrix in the caller's dicts does not reach the params
    key = next(iter(skews))
    skews[key] = ExactMatrix.from_rows([[1, 0], [0, 1]])
    sub.clear()
    assert dict(params.skews) == dict(drawn.skews)
    assert dict(params.sub_blocks) == dict(drawn.sub_blocks)
    assert sample_isotropy_element(_ST, params=params) == before


def test_a_generator_spec_keeps_its_skews_when_the_source_changes():
    skews = {(1, 1): _skew()}
    spec = GeneratorSpec("diagonal_W", skews=skews)
    skews[(1, 1)] = zeros(2, 2)
    assert spec == _VALUES["GeneratorSpec"]()
    assert spec.skews[(1, 1)] == _skew()
