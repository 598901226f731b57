import hashlib
from fractions import Fraction

import pytest

from isotropy.errors import ScalarParseError
from isotropy.matrices import ExactMatrix
from isotropy.rng import RandomSource
from isotropy.scalars import (
    ExactScalar, HALF, IMAG, MINUS_ONE, ONE, SQRT2, ZERO,
    _divisor, _from_ints, _mul4, format_scalar, parse_scalar, rat,
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


# the exact message of malformed inputs, one or more for each message the
# parser has, pinned from the parser that stored scalars as four Fractions
_PARSE_ERRORS = [
    ("", "empty scalar at position 0 in ''"),
    (" ", "empty scalar at position 0 in ' '"),
    ("1 +", "dangling sign at position 2 in '1 +'"),
    ("-", "dangling sign at position 0 in '-'"),
    ("1/0", "denominator must be positive at position 2 in '1/0'"),
    ("1//2", "expected a denominator at position 2 in '1//2'"),
    ("1/-2", "expected a denominator at position 2 in '1/-2'"),
    ("1/", "expected a denominator at position 2 in '1/'"),
    ("(1 + 2 i", "expected ')', got None at position 8 in '(1 + 2 i'"),
    ("(1)", "expected 'r2', got None at position 3 in '(1)'"),
    ("( ) r2", "expected a number, got ')' at position 2 in '( ) r2'"),
    ("(1 r2) r2", "expected ')', got 'r2' at position 3 in '(1 r2) r2'"),
    ("(1 + 2 i) i",
     "expected 'r2', got 'i' at position 10 in '(1 + 2 i) i'"),
    ("(1 +) r2", "expected a number, got ')' at position 4 in '(1 +) r2'"),
    ("x", "unexpected character 'x' at position 0 in 'x'"),
    ("r", "unexpected character 'r' at position 0 in 'r'"),
    ("1 + $", "unexpected character '$' at position 4 in '1 + $'"),
    ("1 2", "expected '+' or '-', got '2' at position 2 in '1 2'"),
    ("i i", "expected '+' or '-', got 'i' at position 2 in 'i i'"),
    ("1/2/3", "expected '+' or '-', got '/' at position 3 in '1/2/3'"),
    ("r2 r2", "expected '+' or '-', got 'r2' at position 3 in 'r2 r2'"),
    ("1 + - 2", "unexpected token '-' at position 4 in '1 + - 2'"),
    (")", "unexpected token ')' at position 0 in ')'"),
    ("/", "unexpected token '/' at position 0 in '/'"),
]


def test_parse_errors_have_positions():
    for text, message in _PARSE_ERRORS:
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert str(info.value) == message
        assert message.endswith(
            f" at position {info.value.position} in {text!r}")


def test_digits_int_refuses_are_parse_errors_with_a_position():
    # str.isdigit takes a superscript two, which int() refuses; the
    # tokenizer takes decimal digits alone, so it is an unexpected character
    for text, pos in (("²", 0), ("1²", 1), ("1/²", 2), ("1 + ²/3", 4)):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert str(info.value) == \
            f"unexpected character '²' at position {pos} in {text!r}"
    # int() refuses a run of digits past the interpreter's int-string limit
    long = "1" * 5000
    for text, pos in ((long, 0), ("1/" + long, 2), ("1 + " + long + " i", 4)):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert str(info.value) == \
            f"too many digits at position {pos} in {text!r}"
        assert info.value.position == pos
    # decimal digits of other scripts still read as int() reads them
    assert parse_scalar("\u0661/\u0662 i") == ExactScalar(0, rat(1, 2))


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
    # and formatting again must be byte-identical.  The digest of the bytes
    # was taken from the formatter that read four Fractions.
    rs = RandomSource(20240817)
    digest = hashlib.sha256()
    for _ in range(1000):
        x = rs.scalar(with_i=True, with_sqrt2=True, max_num=9, max_den=7)
        text = format_scalar(x)
        back = parse_scalar(text)
        assert back == x
        assert format_scalar(back) == text
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == \
        "e7968d21c71c483012e68d44e2008040828dc7a155a57a9feeb57a76c3eaf43f"


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


def test_the_kernel_conversions_make_no_fraction(monkeypatch):
    # a scalar is its canonical integer pair: reading scalars onto a grid,
    # scaling by one, formatting one and laying out the canonical blocks
    # read and write pairs, and none of them makes a Fraction
    from isotropy import forms
    xs = [ExactScalar(rat(1, 2), 3), ExactScalar(0, 0, rat(-2, 3), rat(1, 5)),
          ZERO]
    lam = ExactScalar(rat(1, 3), -1)
    hash(lam)  # a cache keyed by lam hashes its Fraction views once
    forms._symmetric_block.cache_clear()
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: (
        made.append(args) or new(cls, *args, **kw)))
    m = ExactMatrix.from_rows([xs, xs[::-1]])
    scaled = m.scale(xs[1])
    texts = [format_scalar(x) for x in xs]
    y = _from_ints(2, 0, 4, -6, 8)
    block = forms.symmetric_block(3, lam)
    p = forms.transition_matrix(3)
    monkeypatch.undo()
    assert made == []
    assert forms._symmetric_block.cache_info().misses == 1
    assert m.to_lists() == [xs, xs[::-1]]
    assert scaled[1, 1] == xs[1] * xs[1] and scaled[0, 2] == ZERO
    assert texts == ["1/2 + 3 i", "(-2/3 + 1/5 i) r2", "0"]
    assert y == ExactScalar(rat(1, 4), 0, rat(1, 2), rat(-3, 4))
    assert block[1, 1] == lam and block[0, 1] == HALF - IMAG / 2
    assert p * p == IMAG * ExactMatrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@pytest.mark.parametrize("name", ["a", "b", "c", "d", "_hash", "other"])
def test_no_attribute_can_be_set(name):
    x = ExactScalar(1, 2, 3, 4)
    hash(x)
    for y in (x, ExactScalar(rat(1, 3))):
        with pytest.raises(AttributeError):
            setattr(y, name, 5)
    assert x == ExactScalar(1, 2, 3, 4)
    assert hash(x) == hash((rat(1), rat(2), rat(3), rat(4)))
