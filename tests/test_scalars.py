from fractions import Fraction

import pytest

from isotropy.errors import ScalarParseError
from isotropy.matrices import ExactMatrix
from isotropy.rng import RandomSource
from isotropy.scalars import (
    ExactScalar, HALF, IMAG, MINUS_ONE, ONE, SQRT2, ZERO,
    _divisor, _mul4, format_scalar, parse_scalar, rat,
)


# ---------------------------------------------------------------------------
# fixed values
# ---------------------------------------------------------------------------

def test_defining_relations():
    assert SQRT2 * SQRT2 == ExactScalar(2)
    assert IMAG * IMAG == MINUS_ONE
    assert (IMAG * SQRT2) * (IMAG * SQRT2) == ExactScalar(-2)


def test_norm_identity_hand_checked():
    # (1 + sqrt2)(-1 + sqrt2) = 2 - 1 = 1, worked by hand
    x = ONE + SQRT2
    y = MINUS_ONE + SQRT2
    assert x * y == ONE


def test_half_angle_style_products():
    # (1 + i)/sqrt2 squared is i
    w = (ONE + IMAG) * SQRT2.inverse()
    assert w * w == IMAG


def test_inverse_examples():
    assert SQRT2.inverse() == ExactScalar(0, 0, rat(1, 2))
    assert IMAG.inverse() == -IMAG
    x = ExactScalar(rat(1, 2), rat(-1, 3), rat(2), rat(0))
    assert x * x.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_inverse_with_large_denominators():
    rs = RandomSource(4242)

    def big(parts):
        return ExactScalar(*(rat(rs.stream.randint(-10**6, 10**6),
                                 rs.stream.randint(1, 10**10))
                             if k in parts else 0 for k in range(4)))

    for parts in ((0,), (1,), (0, 1), (2,), (3,), (2, 3), (0, 1, 2, 3)):
        for _ in range(10):
            x, y = big(parts), big((0, 1, 2, 3))
            if x.is_zero:
                continue
            assert x * x.inverse() == ONE
            assert x.inverse().inverse() == x
            assert (x * y).inverse() == x.inverse() * y.inverse()
            assert y / x == y * x.inverse()


def test_divisor_of_a_rational_integer_is_its_sign():
    # y m = norm for the (m, norm) of _divisor; a rational integer a gives
    # m = sign a and norm |a|, the others their full norm
    for a in (7, -7, 1, -1):
        m, norm = _divisor((a, 0, 0, 0))
        assert (m, norm) == ((1 if a > 0 else -1, 0, 0, 0), abs(a))
        assert _mul4((a, 0, 0, 0), m) == (norm, 0, 0, 0)
    for y in ((3, -2, 0, 0), (0, 5, 0, 0), (1, 1, 1, 0), (0, 0, -2, 3)):
        m, norm = _divisor(y)
        assert norm > 0 and _mul4(y, m) == (norm, 0, 0, 0)


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


# ---------------------------------------------------------------------------
# parsing / formatting
# ---------------------------------------------------------------------------

def test_parse_grammar_examples():
    x = parse_scalar("1/2 - 1/2 i")
    assert (x.a, x.b, x.c, x.d) == (rat(1, 2), rat(-1, 2), 0, 0)
    y = parse_scalar("(1/2) r2")
    assert (y.a, y.b, y.c, y.d) == (0, 0, rat(1, 2), 0)
    z = parse_scalar("(1/3 - 2 i) r2")
    assert (z.c, z.d) == (rat(1, 3), rat(-2))
    assert parse_scalar("3") == ExactScalar(3)
    assert parse_scalar("-3/4") == ExactScalar(rat(-3, 4))
    assert parse_scalar("2 r2") == ExactScalar(0, 0, 2)
    assert parse_scalar("1+1i") == ONE + IMAG  # whitespace is insignificant
    assert parse_scalar(" 1 + 1 i ") == ONE + IMAG


def test_parse_lenient_forms():
    assert parse_scalar("i") == IMAG
    assert parse_scalar("-i") == -IMAG
    assert parse_scalar("r2") == SQRT2
    assert parse_scalar("1 - r2") == ONE - SQRT2


def test_parse_errors_have_positions():
    for bad in ["", "1 +", "1/0", "1//2", "(1 + 2 i", "x", "1 2", "i i"]:
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)
    try:
        parse_scalar("1 + $")
    except ScalarParseError as e:
        assert e.position == 4


def test_format_canonical_examples():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(ONE) == "1"
    assert format_scalar(-HALF) == "-1/2"
    assert format_scalar(IMAG) == "1 i"
    assert format_scalar(ONE - IMAG) == "1 - 1 i"
    assert format_scalar(SQRT2) == "1 r2"
    assert format_scalar(ExactScalar(0, 0, 0, rat(-1, 2))) == "(0 - 1/2 i) r2"
    assert format_scalar(ExactScalar(1, 2, 3, 4)) == "1 + 2 i + (3 + 4 i) r2"


def test_format_parse_round_trip_fuzzed():
    # 1000 pseudo-random scalars: format then parse must return the value,
    # and formatting again must be byte-identical.
    rs = RandomSource(20240817)
    for _ in range(1000):
        x = rs.scalar(with_i=True, with_sqrt2=True, max_num=9, max_den=7)
        text = format_scalar(x)
        back = parse_scalar(text)
        assert back == x
        assert format_scalar(back) == text


# ---------------------------------------------------------------------------
# field axioms and automorphisms on sampled triples
# ---------------------------------------------------------------------------

def _triples(count=200, seed=91, **kw):
    rs = RandomSource(seed)
    for _ in range(count):
        yield (rs.scalar(with_sqrt2=True, **kw),
               rs.scalar(with_sqrt2=True, **kw),
               rs.scalar(with_sqrt2=True, **kw))


def test_field_axioms():
    for x, y, z in _triples():
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x + ZERO == x and x * ONE == x
        assert x - x == ZERO
        if not x.is_zero:
            assert x * x.inverse() == ONE


def test_components_stay_reduced():
    # reduced, positive-denominator invariant (via Fraction round-trip)
    for x, y, _ in _triples(count=60, seed=3):
        z = x * y + x
        for comp in (z.a, z.b, z.c, z.d):
            f = Fraction(int(comp.numerator), int(comp.denominator))
            assert f.numerator == int(comp.numerator)
            assert f.denominator == int(comp.denominator) > 0


def test_int_interop():
    assert 2 * HALF == ONE
    assert ONE + 1 == ExactScalar(2)
    assert 1 - HALF == HALF
    assert HALF / 2 == ExactScalar(rat(1, 4))
    with pytest.raises(TypeError):
        ExactScalar(0.5)
    with pytest.raises(TypeError):
        rat(0.5)


def test_hash_is_the_hash_of_the_parts():
    # the hash is made once per scalar and is the one of its four parts, or
    # of its rational part alone when the others vanish, so equal scalars
    # made in different ways hash alike
    for x, y, _ in _triples(count=30, seed=11):
        for z in (x, y, x * y, x + y, x - x + x.a):
            # the first call keeps the hash, the second reads it back
            parts = (z.a, z.b, z.c, z.d) if z.b or z.c or z.d else z.a
            assert [hash(z), hash(z)] == [hash(parts)] * 2
    built = [IMAG, ExactScalar(0, 1), parse_scalar("i"), -(-IMAG),
             (ONE + IMAG) - ONE, SQRT2 * SQRT2 * IMAG / 2]
    assert all(b == IMAG for b in built)
    assert {hash(b) for b in built} == {hash((rat(0), rat(1), rat(0), rat(0)))}
    assert hash(ExactScalar(2)) == hash(ExactScalar(rat(4, 2)))


def _reference_eq(x, y):
    """Equality as four Fraction comparisons, the rule the fast path of
    ExactScalar.__eq__ must keep."""
    return (x.a == y.a and x.b == y.b and x.c == y.c and x.d == y.d)


def test_equality_and_hash_agree():
    # the six ways of making i, and scalars near them: equal exactly when
    # the parts are, and equal scalars hash alike
    built = [IMAG, ExactScalar(0, 1), parse_scalar("i"), -(-IMAG),
             (ONE + IMAG) - ONE, SQRT2 * SQRT2 * IMAG / 2]
    others = [ZERO, ONE, -IMAG, IMAG * SQRT2, ExactScalar(0, rat(1, 2)),
              ExactScalar(0, 1, 0, rat(1, 3)), ExactScalar(rat(1, 2), 1)]
    # scalars one part apart, by its numerator or by its denominator alone
    others += [ExactScalar(*(q if k == part else 0 for k in range(4)))
               for part in range(4)
               for q in (rat(1, 2), rat(1, 3), rat(2, 3))]
    for x in built + others:
        for y in built + others:
            assert (x == y) is _reference_eq(x, y)
            assert (x != y) is not _reference_eq(x, y)
            if x == y:
                assert hash(x) == hash(y)
    for x, y, _ in _triples(count=30, seed=12):
        for u, v in ((x, y), (x, x * ONE), (x + y, y + x)):
            assert (u == v) is _reference_eq(u, v)


def test_equality_with_other_types_is_unchanged():
    # ints, Fractions and strings still coerce exactly; floats and other
    # types compare unequal
    assert ExactScalar(2) == 2 and 2 == ExactScalar(2)
    assert ExactScalar(rat(1, 2)) == Fraction(1, 2) == ExactScalar(rat(1, 2))
    assert ExactScalar(rat(1, 2)) == "1/2"
    assert IMAG != 0 and ZERO == 0 and not (IMAG == 1)
    assert ONE != 1.0 and not (ONE == 1.0)
    assert ONE != None and ONE != [1] and ONE != object()  # noqa: E711
    assert ExactScalar(1).__eq__(1.0) is NotImplemented
    assert ExactScalar(1).__eq__(None) is NotImplemented


def test_a_string_that_is_no_number_compares_unequal():
    for text in ("x", "", "1/0", "i"):
        assert not (ONE == text) and ONE != text and text != ONE
        assert ONE.__eq__(text) is NotImplemented
    assert ONE not in ["x"] and ZERO in ["x", 0]
    assert ExactScalar(rat(1, 2)) == "1/2" and ExactScalar(rat(1, 2)) != "1/3"


def test_a_string_that_is_no_number_is_no_operand():
    # arithmetic refuses it as it refuses other non-numbers, with TypeError;
    # a string that names a rational still coerces
    for text in ("x", "", "1/0", "i"):
        for op in (lambda: ONE + text, lambda: ONE - text,
                   lambda: ONE * text, lambda: ONE / text,
                   lambda: text - ONE, lambda: text / ONE):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError, match="^cannot use str as an exact scalar$"):
        ExactMatrix.from_rows([["x"]])
    assert ONE + "1/2" == rat(3, 2) and "1/2" - ONE == rat(-1, 2)
    assert ExactMatrix.from_rows([["1/2"]]) == ExactMatrix.from_rows(
        [[rat(1, 2)]])


def test_a_rational_scalar_hashes_like_the_number_it_equals():
    for value in (0, 1, -7, 2 ** 70, Fraction(1, 2), Fraction(-22, 7)):
        for x in (ExactScalar(value), parse_scalar(str(value)),
                  ExactScalar(value, 1) - IMAG):
            assert x == value and hash(x) == hash(value)
            assert value in {x} and x in {value}
            assert {x: "x"}[value] == "x"
    assert hash(IMAG) == hash((rat(0), rat(1), rat(0), rat(0))) != hash(1)


def test_cached_eigenvalue_lookups_make_no_fraction_comparison(monkeypatch):
    # a cold run of the codim structure feed over every partition with
    # n <= 6 at 0, 1 and i, each structure built on a fresh eigenvalue, so
    # that its cache hits compare equal scalars that are distinct objects
    from isotropy import forms, orbit
    from isotropy.forms import SegreStructure, enumerate_structures
    calls = []
    fraction_eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda self, other: calls.append(
        other) or fraction_eq(self, other))
    forms._symmetric_block.cache_clear()
    orbit._row_key.cache_clear()
    for text in ("0", "1", "i") * 2:
        for n in range(1, 7):
            for st in enumerate_structures(n):
                orbit._structure_grids(SegreStructure(parse_scalar(text),
                                                      st.blocks))
    hits = (forms._symmetric_block.cache_info().hits
            + orbit._row_key.cache_info().hits)
    assert hits > 100
    assert calls == []


@pytest.mark.parametrize("name", ["a", "b", "c", "d", "_hash", "other"])
def test_no_attribute_can_be_set(name):
    x = ExactScalar(1, 2, 3, 4)
    hash(x)
    for y in (x, ExactScalar(rat(1, 3))):
        with pytest.raises(AttributeError):
            setattr(y, name, 5)
    assert x == ExactScalar(1, 2, 3, 4)
    assert hash(x) == hash((rat(1), rat(2), rat(3), rat(4)))
