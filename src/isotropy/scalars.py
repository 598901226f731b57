"""Exact scalars over the field Q(i, sqrt2).

Every scalar is (a + b*i) + (c + d*i)*sqrt2 with rational a, b, c, d.  The
field is closed under all constructions in this package: i/2 enters through
the symmetric canonical blocks and 1/sqrt2 through the transition matrices.
Arithmetic is exact; there are no floats anywhere.

A scalar is the 1 x 1 case of the integer kernel of matrices.ExactMatrix:
one integer 4-tuple v = (a, b, c, d) over a positive den, canonical
(gcd(den, *v) = 1), so equal scalars have equal pairs.  Its arithmetic is
the kernel's: _mul4 for products, _divisor for inverses, sums over the lcm
of the two dens, tuple equality.  A fractions.Fraction is made only where
a rational enters or leaves: the arguments of ExactScalar(...), the
read-only views .a to .d, the hash and the parser's accumulators.  The
formatter prints each part v / den as its reduced Fraction prints, "n" or
"n/d", which the string grammar below relies on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ScalarParseError, _Immutable

Rational = Fraction

_R0 = Fraction(0)


def rat(num, den=None) -> Rational:
    """Exact rational from ints, strings or another rational. Floats are refused."""
    if isinstance(num, float) or isinstance(den, float):
        raise TypeError("floats are not exact; pass ints, strings or rationals")
    if den is None:
        return Fraction(num)
    return Fraction(num, den)


def _pair(parts) -> tuple:
    """The canonical (v, den) of four Fractions: den is the lcm of their
    reduced denominators, so each prime power of den divides exactly the
    denominator of some part, whose scaled numerator it leaves coprime."""
    den = lcm(*[q.denominator for q in parts])
    return tuple([q.numerator * (den // q.denominator) for q in parts]), den


class ExactScalar(_Immutable):
    """Immutable element of Q(i, sqrt2), stored as one canonical integer
    pair (module docstring)."""

    # _v and _den: the canonical pair.  _hash: hash((a, b, c, d)), or
    # hash(a) when b = c = d = 0, so that a rational scalar hashes like the
    # int or Fraction it equals; set on the first __hash__ call, so that
    # caches keyed by an eigenvalue make its four Fractions once
    __slots__ = ("_v", "_den", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        if any(isinstance(v, float) for v in (a, b, c, d)):
            raise TypeError("floats are not exact; pass ints, strings or rationals")
        v, den = _pair((Fraction(a), Fraction(b), Fraction(c), Fraction(d)))
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_den", den)

    # the four rational parts: read-only views of the pair
    a = property(lambda self: Fraction(self._v[0], self._den))
    b = property(lambda self: Fraction(self._v[1], self._den))
    c = property(lambda self: Fraction(self._v[2], self._den))
    d = property(lambda self: Fraction(self._v[3], self._den))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self._v)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _plus(self, other, -1)

    def __rsub__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ExactScalar":
        return _from_ints(*(-k for k in self._v), self._den)

    def __mul__(self, other) -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_ints(*_mul4(self._v, other._v), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Exact multiplicative inverse: self = v / den, so self^-1 =
        den m / norm for (m, norm) = _divisor(v)."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        m, norm = _divisor(self._v)
        return _from_ints(*(self._den * k for k in m), norm)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._v == other._v

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
    if type(value) is int or type(value) is Fraction:
        return _from_ints(value.numerator, 0, 0, 0, value.denominator)
    if isinstance(value, float):
        return NotImplemented
    try:
        # ints and Fractions behind other types still coerce exactly, and
        # so does a string that names a rational
        return ExactScalar(Fraction(value))
    except (TypeError, ValueError, ZeroDivisionError):
        return NotImplemented


def _from_ints(a: int, b: int, c: int, d: int, den: int) -> ExactScalar:
    """(a + b i + (c + d i) sqrt2) / den for integers a, b, c, d and a
    positive integer den: the trusted constructor of the integer kernel.

    The pair is reduced by one gcd and __init__'s checks and coercion are
    skipped; an all-zero entry is the shared ZERO.
    """
    if not (a or b or c or d):
        return ZERO
    g = gcd(den, a, b, c, d)
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = object.__new__(ExactScalar)
    object.__setattr__(x, "_v", (a, b, c, d))
    object.__setattr__(x, "_den", den)
    return x


def _plus(x: ExactScalar, y: ExactScalar, sign: int) -> ExactScalar:
    """x + sign y over the lcm of the two dens."""
    den = lcm(x._den, y._den)
    f, h = den // x._den, sign * (den // y._den)
    (a1, b1, c1, d1), (a2, b2, c2, d2) = x._v, y._v
    return _from_ints(a1 * f + a2 * h, b1 * f + b2 * h,
                      c1 * f + c2 * h, d1 * f + d2 * h, den)


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
MINUS_ONE = ExactScalar(-1)
IMAG = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)
HALF = ExactScalar(Fraction(1, 2))


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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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
    num = _int(value, ts.text, pos)
    if ts.peek()[0] == "/":
        ts.take()
        kind2, value2, pos2 = ts.take()
        if kind2 != "int":
            raise ScalarParseError("expected a denominator", ts.text, pos2)
        den = _int(value2, ts.text, pos2)
        if den <= 0:
            raise ScalarParseError("denominator must be positive", ts.text, pos2)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _int(digits: str, text: str, pos: int) -> int:
    """int(digits), which refuses only a run past the int-string limit."""
    try:
        return int(digits)
    except ValueError:
        raise ScalarParseError("too many digits", text, pos) from None


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
    v, den = _pair((a, b, c, d))
    return _from_ints(*v, den)


def format_scalar(x: ExactScalar) -> str:
    """Canonical string form; parse_scalar(format_scalar(x)) == x.

    Emits terms in the fixed order: rational, imaginary, sqrt2 part.  The
    sqrt2 part is "c r2" when d = 0, "(c +/- d i) r2" otherwise, so output
    always stays inside the strict grammar.  Each part is read off the
    pair (_part), so no Fraction is made.
    """
    (a, b, c, d), den = x._v, x._den
    terms = []  # signed bodies; only a rational or imaginary part has "-"
    if a:
        terms.append(_part(a, den))
    if b:
        terms.append(_part(b, den) + " i")
    if d:
        terms.append(f"({_part(c, den)} {'-' if d < 0 else '+'} "
                     f"{_part(abs(d), den)} i) r2")
    elif c:
        terms.append(_part(c, den) + " r2")
    if not terms:
        return "0"
    out = terms[0]
    for body in terms[1:]:
        out += f" - {body[1:]}" if body[0] == "-" else f" + {body}"
    return out


def _part(v: int, den: int) -> str:
    """v / den as its reduced Fraction prints: "n", or "n/d" with d > 1."""
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"
