"""Exact scalars over the field Q(i, sqrt2).

Every scalar is (a + b*i) + (c + d*i)*sqrt2 with rational a, b, c, d.  The
field is closed under all constructions in this package: i/2 enters through
the symmetric canonical blocks and 1/sqrt2 through the transition matrices.
Arithmetic is exact; there are no floats anywhere.

Rationals are fractions.Fraction: arbitrary precision, auto-reduced, and
printed as "n" or "n/d", which the string grammar below relies on.  Dense
matrices do not hold scalars at all: matrices.ExactMatrix keeps an integer
grid over one denominator and makes an ExactScalar only when an entry is
read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ScalarParseError

Rational = Fraction

_R0 = Fraction(0)
_R2 = Fraction(2)


def rat(num, den=None) -> Rational:
    """Exact rational from ints, strings or another rational. Floats are refused."""
    if isinstance(num, float) or isinstance(den, float):
        raise TypeError("floats are not exact; pass ints, strings or rationals")
    if den is None:
        return Fraction(num)
    return Fraction(num, den)


class ExactScalar:
    """Immutable element of Q(i, sqrt2), stored as four rationals."""

    # _hash: hash((a, b, c, d)), or hash(a) when b = c = d = 0, so that a
    # rational scalar hashes like the int or Fraction it equals; set on the
    # first __hash__ call, so that caches keyed by an eigenvalue hash its
    # four Fractions once
    __slots__ = ("a", "b", "c", "d", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        if any(isinstance(v, float) for v in (a, b, c, d)):
            raise TypeError("floats are not exact; pass ints, strings or rationals")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "c", Fraction(c))
        object.__setattr__(self, "d", Fraction(d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a + other.a, self.b + other.b,
                           self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.a - other.a, self.b - other.b,
                           self.c - other.c, self.d - other.d)

    def __rsub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        if not (c1 or d1 or c2 or d2):
            # Gaussian fast path: the bulk of the arithmetic lives here.
            return ExactScalar(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
        # (g1 + h1*s)(g2 + h2*s) = (g1 g2 + 2 h1 h2) + (g1 h2 + h1 g2) s
        return ExactScalar(
            a1 * a2 - b1 * b2 + _R2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + _R2 * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        )

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Exact multiplicative inverse: with self = y / den, y its parts
        scaled to integers, self^-1 = den m / norm for (m, norm) =
        _divisor(y)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        parts = (self.a, self.b, self.c, self.d)
        den = lcm(*(q.denominator for q in parts))
        m, norm = _divisor(tuple(q.numerator * (den // q.denominator)
                                 for q in parts))
        return _from_ints(den * m[0], den * m[1], den * m[2], den * m[3], norm)

    def __truediv__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        try:
            other = _coerce(other)
        except (ValueError, ZeroDivisionError):
            # a string that names no number: unequal, as other types are
            return NotImplemented
        if other is NotImplemented:
            return NotImplemented
        # part by part as integer pairs of reduced Fractions, without
        # Fraction.__eq__: each cache hit keyed by an eigenvalue pays this
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return (a.numerator == e.numerator
                and a.denominator == e.denominator
                and b.numerator == f.numerator
                and b.denominator == f.denominator
                and c.numerator == g.numerator
                and c.denominator == g.denominator
                and d.numerator == h.numerator
                and d.denominator == h.denominator)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            a, b, c, d = self.a, self.b, self.c, self.d
            value = hash((a, b, c, d) if b or c or d else a)
            object.__setattr__(self, "_hash", value)
            return value

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


def _coerce(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, int) or type(value) is Fraction:
        return ExactScalar(value)
    if isinstance(value, float):
        return NotImplemented
    try:
        # Fractions (and ints behind abstract types) still coerce exactly.
        return ExactScalar(Fraction(value))
    except TypeError:
        return NotImplemented


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
IMAG = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)
HALF = ExactScalar(Fraction(1, 2))


def _from_ints(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    """(a + b i + (c + d i) sqrt2) / den for integers a, b, c, d and a
    positive integer den: the trusted constructor of the integer kernel.

    Each nonzero part is reduced once and __init__'s checks and
    re-coercion are skipped; an all-zero entry is the shared ZERO.
    """
    if not (a or b or c or d):
        return ZERO
    x = object.__new__(ExactScalar)
    put = object.__setattr__
    put(x, "a", Fraction(a, den) if a else _R0)
    put(x, "b", Fraction(b, den) if b else _R0)
    put(x, "c", Fraction(c, den) if c else _R0)
    put(x, "d", Fraction(d, den) if d else _R0)
    return x


def _mul4(x: tuple, y: tuple) -> tuple:
    """Product in Z[i, sqrt2] of two integer 4-tuples."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    if not (c1 or d1 or c2 or d2):
        # Gaussian fast path: the systems of Gaussian eigenvalues live here.
        return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 0, 0)
    # (g1 + h1 r2)(g2 + h2 r2) = (g1 g2 + 2 h1 h2) + (g1 h2 + h1 g2) r2
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def _divisor(y: tuple) -> tuple:
    """(m, norm) with y m = norm, a positive integer, for a nonzero integer
    4-tuple y: the one exact-division rule of the package.

    A divisor with a sqrt2 part is first multiplied by its sqrt2-conjugate,
    which leaves the Gaussian number g = y conj_sqrt2(y), nonzero since
    sqrt2 is not in Q(i); then g conj_i(g) is the integer norm.  Dividing
    x by y exactly is x m divided by norm.  A rational integer a is its own
    norm, up to sign: m = sign a, norm = |a|.
    """
    if y[2] or y[3]:
        conj2 = (y[0], y[1], -y[2], -y[3])
        g = _mul4(y, conj2)
        return _mul4(conj2, (g[0], -g[1], 0, 0)), g[0] * g[0] + g[1] * g[1]
    if not y[1]:
        return (1 if y[0] > 0 else -1, 0, 0, 0), abs(y[0])
    return (y[0], -y[1], 0, 0), y[0] * y[0] + y[1] * y[1]


# ---------------------------------------------------------------------
# String grammar
#
#   SCALAR := TERM (("+"|"-") TERM)*
#   TERM   := RAT | RAT "i" | "(" RAT ("+"|"-") RAT "i" ")" "r2" | RAT "r2"
#   RAT    := INT ("/" POSINT)?
#
# Whitespace is insignificant.  The formatter below always emits strings in
# this grammar; the parser is slightly more lenient (bare "i", bare "r2",
# "(RAT) r2") so hand-written inputs round-trip too.
# ---------------------------------------------------------------------


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if text.startswith("r2", i):
            tokens.append(("r2", "r2", i))
            i += 2
            continue
        if ch == "i":
            tokens.append(("i", "i", i))
            i += 1
            continue
        raise ScalarParseError(f"unexpected character {ch!r}", text, i)
    return tokens


class _TokenStream:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ScalarParseError(f"expected {kind!r}, got {tok[1]!r}", self.text, tok[2])
        return tok

    def error(self, message):
        raise ScalarParseError(message, self.text, self.peek()[2])


def _parse_rat(ts: _TokenStream, sign: int) -> Rational:
    kind, value, pos = ts.take()
    if kind != "int":
        raise ScalarParseError(f"expected a number, got {value!r}", ts.text, pos)
    num = int(value)
    if ts.peek()[0] == "/":
        ts.take()
        kind2, value2, pos2 = ts.take()
        if kind2 != "int":
            raise ScalarParseError("expected a denominator", ts.text, pos2)
        den = int(value2)
        if den <= 0:
            raise ScalarParseError("denominator must be positive", ts.text, pos2)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _parse_gauss(ts: _TokenStream):
    """Signed Gaussian sum (used inside parentheses): RAT, RAT i, mixes."""
    ga, gb = _R0, _R0
    sign = 1
    first = True
    while True:
        kind, _, _ = ts.peek()
        if kind in ("+", "-"):
            ts.take()
            sign = 1 if kind == "+" else -1
        elif not first:
            break
        if ts.peek()[0] == "i":
            ts.take()
            gb += sign
        else:
            value = _parse_rat(ts, sign)
            if ts.peek()[0] == "i":
                ts.take()
                gb += value
            else:
                ga += value
        sign = 1
        first = False
        if ts.peek()[0] == ")":
            break
    return ga, gb


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar string. Raises ScalarParseError with a position."""
    ts = _TokenStream(text)
    if not ts.tokens:
        raise ScalarParseError("empty scalar", text, 0)
    a = b = c = d = _R0
    sign = 1
    first = True
    while ts.peek()[0] is not None:
        kind, value, pos = ts.peek()
        if kind in ("+", "-"):
            ts.take()
            sign = 1 if kind == "+" else -1
            if ts.peek()[0] is None:
                raise ScalarParseError("dangling sign", text, pos)
        elif not first:
            raise ScalarParseError(f"expected '+' or '-', got {value!r}", text, pos)
        kind, value, pos = ts.peek()
        if kind == "(":
            ts.take()
            ga, gb = _parse_gauss(ts)
            ts.expect(")")
            ts.expect("r2")
            c += sign * ga
            d += sign * gb
        elif kind == "i":
            ts.take()
            b += sign
        elif kind == "r2":
            ts.take()
            c += sign
        elif kind == "int":
            value = _parse_rat(ts, sign)
            nxt = ts.peek()[0]
            if nxt == "i":
                ts.take()
                b += value
            elif nxt == "r2":
                ts.take()
                c += value
            else:
                a += value
        else:
            raise ScalarParseError(f"unexpected token {value!r}", text, pos)
        sign = 1
        first = False
    return ExactScalar(a, b, c, d)


def format_scalar(x: ExactScalar) -> str:
    """Canonical string form; parse_scalar(format_scalar(x)) == x.

    Emits terms in the fixed order: rational, imaginary, sqrt2 part.  The
    sqrt2 part is "c r2" when d = 0, "(c +/- d i) r2" otherwise, so output
    always stays inside the strict grammar.
    """
    terms = []  # (sign, body) with sign in "+-"

    def push(value: Rational, suffix: str):
        sign = "-" if value < 0 else "+"
        body = str(-value if value < 0 else value)
        terms.append((sign, body + suffix))

    if x.a:
        push(x.a, "")
    if x.b:
        push(x.b, " i")
    if x.c or x.d:
        if not x.d:
            push(x.c, " r2")
        else:
            inner_sign = "-" if x.d < 0 else "+"
            inner = f"({x.c} {inner_sign} {-x.d if x.d < 0 else x.d} i) r2"
            terms.append(("+", inner))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
