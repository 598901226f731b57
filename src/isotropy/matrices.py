"""Exact dense matrices over Q(i, sqrt2).

Immutable, row-major.  A matrix is stored as an integer grid over one
denominator, m = G / den: G holds its entries as integer 4-tuples
(a, b, c, d), meaning (a + b i) + (c + d i) sqrt2, and den is a positive
integer.  The pair is kept in canonical form: the gcd of den and every
component of G is 1, so the zero matrix has den = 1 and two matrices are
equal exactly when their shapes, dens and grids are; equality and hashing
are tuple operations.  ExactScalar entries are made only at the boundary:
__getitem__, row, to_lists and repr read them off the grid, and from_rows
and build scale scalars onto it.  Nothing else keeps a second copy of the
entries.

Every operation works on the grid, on one private integer kernel over the
ring Z[i, sqrt2]:

- transpose, negation, conjugate_i, direct_sum and the predicates move,
  negate or compare 4-tuples; laying canonical matrices out over the lcm
  of their dens keeps the result canonical (so does the strip of a
  toeplitz.ToeplitzForm, written from its coefficients).  Sums and
  scaling reduce once, by one gcd over the result (_reduced).
- Products and sums of products (_sum_of_products, behind
  ExactMatrix.__mul__ and the sums of the solver's sweep) multiply the
  grids, skipping zero entries, accumulate every term over the lcm of the
  term denominators and reduce once per result (_reduced).
- The product of two Toeplitz forms is one grid product (_grid_mul): a
  form is one canonical matrix, its strip, and the left strip multiplies
  the dense rows of the right operand, all on one grid each
  (toeplitz.ToeplitzForm.__mul__).
- Rank and inverse share one fraction-free (Bareiss) elimination
  (_fraction_free; E. H. Bareiss, Sylvester's identity and multistep
  integer-preserving Gaussian elimination, Math. Comp. 22, 1968) over
  grids scaled row by row, each row reduced on its own denominator by one
  gcd (_scaled_rows).  The rank runs it forward only; scaling rows keeps
  the rank.  The inverse runs it Gauss-Jordan style on [G | I] and divides
  once at the end, through the exact-division rule scalars._divisor.
  Pivot selection is the first row with a nonzero entry: exact arithmetic
  needs no magnitude heuristics, and a fixed rule keeps every run
  deterministic.
- The membership test of stabilizer.verify_isotropy compares integer grids
  too.

Degenerate 0 x n shapes are first-class so direct sums over empty lists
work uniformly.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, IntegrityError, SingularMatrixError
from .scalars import (ExactScalar, MINUS_ONE, ONE, ZERO, _coerce, _divisor,
                      _from_ints, _mul4)


class ExactMatrix:
    # _g and _den: the canonical grid and denominator (module docstring).
    # _member_of is unset until an exact membership check succeeds; it then
    # names the structure whose isotropy group the matrix belongs to.
    __slots__ = ("rows", "cols", "_g", "_den", "_member_of")

    def __init__(self, rows: int, cols: int, grid: tuple, den: int = 1):
        # grid: tuple of row tuples of integer 4-tuples, with (grid, den)
        # canonical; the constructors and kernel helpers ensure both
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_g", grid)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        out = []
        for row in data:
            if len(row) != cols:
                raise DimensionMismatchError("ragged rows")
            out.append([_as_scalar(x) for x in row])
        return _from_scalars(rows, cols, out)

    @classmethod
    def build(cls, rows: int, cols: int, fn: Callable[[int, int], ExactScalar]) -> "ExactMatrix":
        return _from_scalars(rows, cols,
                             [[_as_scalar(fn(i, j)) for j in range(cols)]
                              for i in range(rows)])

    # -- access ---------------------------------------------------------

    def __getitem__(self, key) -> ExactScalar:
        i, j = key
        return _from_ints(*self._g[i][j], self._den)

    def row(self, i: int) -> tuple:
        den = self._den
        return tuple(_from_ints(*x, den) for x in self._g[i])

    def to_lists(self) -> list:
        den = self._den
        return [[_from_ints(*x, den) for x in r] for r in self._g]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(map(any, chain.from_iterable(self._g)))

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and tuple(zip(*self._g)) == self._g

    @property
    def is_skew(self) -> bool:
        # x = -x only for x = 0, so the diagonal vanishes too
        return self.is_square and tuple(
            tuple((-a, -b, -c, -d) for a, b, c, d in r)
            for r in zip(*self._g)) == self._g

    @property
    def is_identity(self) -> bool:
        return self.is_square and self._den == 1 and all(
            x == (_ONE4 if i == j else _Z4)
            for i, r in enumerate(self._g) for j, x in enumerate(r))

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._g == other._g)

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, self._g))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign other over the lcm of the two dens."""
        self._need_same_shape(other)
        den = lcm(self._den, other._den)
        f, h = den // self._den, sign * (den // other._den)
        return _reduced(self.rows, self.cols, tuple(
            tuple((a1 * f + a2 * h, b1 * f + b2 * h,
                   c1 * f + c2 * h, d1 * f + d2 * h)
                  for (a1, b1, c1, d1), (a2, b2, c2, d2) in zip(r1, r2))
            for r1, r2 in zip(self._g, other._g)), den)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(
            tuple((-a, -b, -c, -d) for a, b, c, d in r) for r in self._g),
            self._den)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            return _sum_of_products(((self, other),), self.rows, other.cols)
        scalar = _as_scalar_or_none(other)
        if scalar is None:
            return NotImplemented
        return self.scale(scalar)

    def __rmul__(self, other):
        scalar = _as_scalar_or_none(other)
        if scalar is None:
            return NotImplemented
        return self.scale(scalar)

    def scale(self, scalar) -> "ExactMatrix":
        s = _from_scalars(1, 1, [[_as_scalar(scalar)]])
        y, den = s._g[0][0], s._den
        if y[1] or y[2] or y[3]:
            g = tuple(tuple(_mul4(x, y) for x in r) for r in self._g)
        else:
            k = y[0]
            g = tuple(tuple((a * k, b * k, c * k, d * k) for a, b, c, d in r)
                      for r in self._g)
        return _reduced(self.rows, self.cols, g, self._den * den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, tuple(zip(*self._g)) if self.rows else
                           tuple(() for _ in range(self.cols)), self._den)

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

    def trace(self) -> ExactScalar:
        if not self.is_square:
            raise DimensionMismatchError("trace of a non-square matrix")
        diag = [self._g[i][i] for i in range(self.rows)]
        return _from_ints(*(sum(x[k] for x in diag) for k in range(4)),
                          self._den)

    def conjugate_i(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(
            tuple((a, -b, c, -d) for a, b, c, d in r) for r in self._g),
            self._den)

    def power(self, k: int) -> "ExactMatrix":
        if not self.is_square:
            raise DimensionMismatchError("power of a non-square matrix")
        if k < 0:
            return self.inverse().power(-k)
        out = identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- elimination ------------------------------------------------------

    def inverse(self) -> "ExactMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination on
        [G | I] (_fraction_free), where self = D^-1 G, D the diagonal of the
        row denominators (_scaled_rows): it leaves d G^-1 on the right for
        the last pivot d, so self^-1 = (d G^-1) D m / norm with (m, norm) =
        _divisor(d)."""
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.rows
        grid, dens = _scaled_rows(self)
        for i, row in enumerate(grid):
            row.extend(_ONE4 if i == j else _Z4 for j in range(n))
        _, mult, norm = _fraction_free(grid, jordan=True)
        scales = [tuple(den * v for v in mult) for den in dens]
        return _reduced(n, n, tuple(
            tuple(_mul4(x, scale) for x, scale in zip(row[n:], scales))
            for row in grid), norm)

    def rank(self) -> int:
        return _fraction_free(_scaled_rows(self)[0])[0]

    def nullity(self) -> int:
        return self.cols - self.rank()

    # -- misc ---------------------------------------------------------------

    def _need_same_shape(self, other: "ExactMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.to_lists())
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _mark_member(x, structure):
    """Record on an immutable matrix or form that an exact membership check
    for structure has just succeeded."""
    object.__setattr__(x, "_member_of", structure)


def _is_member(x, structure) -> bool:
    """True when x carries the mark of a successful check for an equal
    structure."""
    return getattr(x, "_member_of", None) == structure


def _as_scalar(x) -> ExactScalar:
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as an exact scalar")
    return s


def _as_scalar_or_none(x):
    s = _coerce(x)
    return None if s is NotImplemented else s


# -- the integer kernel -----------------------------------------------------

_Z4 = (0, 0, 0, 0)
_ONE4 = (1, 0, 0, 0)


def _reduced(rows: int, cols: int, grid: tuple, den: int) -> ExactMatrix:
    """The matrix grid / den, for rows of integer 4-tuples and a positive
    den, in canonical form: divided through by one gcd of den and every
    component, and den 1 for the zero matrix."""
    if not any(map(any, chain.from_iterable(grid))):
        return ExactMatrix(rows, cols, grid, 1)
    g = _gcd_with(den, chain.from_iterable(grid))
    if g != 1:
        grid = tuple(tuple((a // g, b // g, c // g, d // g)
                           for a, b, c, d in r) for r in grid)
        den //= g
    return ExactMatrix(rows, cols, grid, den)


def _from_scalars(rows: int, cols: int, entries: list) -> ExactMatrix:
    """The matrix with the given rows of ExactScalars: the way in.  Its den
    is the lcm of all their denominators (1 for none), which leaves the
    grid canonical: each prime power of den divides exactly the
    denominator of some part, whose scaled numerator it leaves coprime."""
    parts = [[(x.a, x.b, x.c, x.d) for x in r] for r in entries]
    dens = {q.denominator for r in parts for x in r for q in x}
    den = lcm(*dens)
    f = {q: den // q for q in dens}
    return ExactMatrix(rows, cols, tuple(
        tuple((a.numerator * f[a.denominator], b.numerator * f[b.denominator],
               c.numerator * f[c.denominator], d.numerator * f[d.denominator])
              if a or b or c or d else _Z4 for a, b, c, d in r)
        for r in parts), den)


def _scaled_rows(m: ExactMatrix) -> tuple:
    """(grid, dens) with row i of m = grid[i] / dens[i], reduced by one gcd
    per row, so dens[i] is the lcm of the denominators of row i: the input
    of an elimination, rows as lists.  With one denominator over all
    entries, every entry of the grid, and so every pivot, would carry the
    digits of all the denominators together."""
    grid, dens = [], []
    for row in m._g:
        g = _gcd_with(m._den, row)
        grid.append([(a // g, b // g, c // g, d // g) for a, b, c, d in row]
                    if g != 1 else list(row))
        dens.append(m._den // g)
    return grid, dens


def _rescaled(grid: Sequence, f: int) -> Sequence:
    """grid with every component multiplied by f."""
    if f == 1 or not any(map(any, chain.from_iterable(grid))):
        return grid
    return tuple(tuple((a * f, b * f, c * f, d * f) for a, b, c, d in r)
                 for r in grid)


def _scaled_all(mats: Sequence[ExactMatrix]) -> tuple:
    """(grids, den) with mats[t] = grids[t] / den for every t, on the one
    denominator den, the lcm of the dens of the matrices (1 for none):
    each grid is rescaled, none is reduced."""
    den = lcm(*(m._den for m in mats))
    return [_rescaled(m._g, den // m._den) for m in mats], den


def _grid_mul(x: Sequence, y: Sequence, cols: int, acc: list | None = None) -> list:
    """Add the product in Z[i, sqrt2] of the grids x and y (y has cols
    columns) into acc, rows of four integer component lists [a, b, c, d],
    and return it; a fresh zero acc when None.

    Zero entries of x and y are skipped, and a Gaussian entry of x times a
    Gaussian row of y forms only the Gaussian parts.
    """
    # the nonzeros of each row of y, and whether the row is Gaussian
    sparse = []
    for row in y:
        nz = [(j,) + e for j, e in enumerate(row) if e != _Z4]
        sparse.append((nz, not any(e[3] or e[4] for e in nz)))
    if acc is None:
        acc = [[[0] * cols for _ in range(4)] for _ in range(len(x))]
    for xrow, (ta, tb, tc, td) in zip(x, acc):
        for (a1, b1, c1, d1), (nz, gaussian) in zip(xrow, sparse):
            if not nz or not (a1 or b1 or c1 or d1):
                continue
            if gaussian and not (c1 or d1):
                for j, a2, b2, _, _ in nz:
                    ta[j] += a1 * a2 - b1 * b2
                    tb[j] += a1 * b2 + b1 * a2
                continue
            # (g1 + h1 r2)(g2 + h2 r2) = (g1 g2 + 2 h1 h2) + (g1 h2 + h1 g2) r2
            for j, a2, b2, c2, d2 in nz:
                ta[j] += a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
                tb[j] += a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
                tc[j] += a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
                td[j] += a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
    return acc


def _gcd_with(den: int, parts: Iterable) -> int:
    """gcd of den and every integer tuple in parts, stopping at 1."""
    g = den
    for part in parts:
        if g == 1:
            break
        g = gcd(g, *part)
    return g


def _sum_of_products(pairs: Iterable, rows: int, cols: int) -> ExactMatrix:
    """sum of x y over the (x, y) in pairs, a rows x cols matrix (zero for
    no pairs).  Each term is formed in integers over the lcm of the term
    denominators, by scaling its left grid, and the sum is reduced once.
    """
    terms = [(x._g, y._g, x._den * y._den) for x, y in pairs]
    den = lcm(*(d for _, _, d in terms))
    acc = [[[0] * cols for _ in range(4)] for _ in range(rows)]
    for xg, yg, d in terms:
        _grid_mul(_rescaled(xg, den // d), yg, cols, acc)
    return _reduced(rows, cols, tuple(tuple(zip(*row)) for row in acc), den)


def _fraction_free(m: list, jordan: bool = False) -> tuple:
    """Fraction-free (Bareiss) elimination, in place, on the rows m (lists
    of integer 4-tuples) of a matrix over Z[i, sqrt2]; returns (rank, mult,
    norm), where (mult, norm) = _divisor(the last pivot), or ((1, 0, 0, 0),
    1) with no pivot.

    Step k takes the first row from k on with a nonzero entry in the next
    column as the pivot row and updates the rows to (p r - f prow) / prev,
    p the pivot, f the row's entry in the pivot column and prev the
    previous pivot (1 at the first step), in every column after the
    pivot's.  Every entry so formed is a minor of the input, so the
    division is exact in Z[i, sqrt2]; a remainder is an internal fault and
    raises IntegrityError.

    The rank mode (jordan False) updates the rows below the pivot and skips
    a column with no pivot.  The Gauss-Jordan mode is for a square G
    augmented to [G | I]: it updates every other row, pivots in the first
    len(m) columns only and raises SingularMatrixError on one with no
    pivot.  It leaves d G^-1 on the right, d the last pivot; the entries
    of the left part are then stale.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    # dividing by the previous pivot is multiplying by mult, then dividing
    # each integer component exactly by norm
    mult, norm = (1, 0, 0, 0), 1
    for col in range(n_rows if jordan else n_cols):
        if rank == n_rows:
            break
        pivot = next((r for r in range(rank, n_rows) if any(m[r][col])), None)
        if pivot is None:
            if jordan:
                raise SingularMatrixError(
                    f"matrix is singular (no pivot in column {col})")
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        prow = m[rank]
        p = _mul4(prow[col], mult)
        for r in range(0 if jordan else rank + 1, n_rows):
            if r == rank:
                continue
            row = m[r]
            f = _mul4(row[col], mult)
            f_zero = not any(f)
            for j in range(col + 1, n_cols):
                x, y = row[j], prow[j]
                # the terms p x and f y, skipped when they vanish
                px_zero, fy_zero = not any(x), f_zero or not any(y)
                if px_zero and fy_zero:
                    continue
                if px_zero:
                    v = _mul4(f, y)
                    v = (-v[0], -v[1], -v[2], -v[3])
                elif fy_zero:
                    v = _mul4(p, x)
                else:
                    u, w = _mul4(p, x), _mul4(f, y)
                    v = (u[0] - w[0], u[1] - w[1], u[2] - w[2], u[3] - w[3])
                if norm != 1:
                    q0, r0 = divmod(v[0], norm)
                    q1, r1 = divmod(v[1], norm)
                    q2, r2 = divmod(v[2], norm)
                    q3, r3 = divmod(v[3], norm)
                    if r0 or r1 or r2 or r3:
                        raise IntegrityError(
                            "fraction-free elimination left a remainder")
                    v = (q0, q1, q2, q3)
                row[j] = v
        mult, norm = _divisor(prow[col])
        rank += 1
    return rank, mult, norm


# -- free constructors ------------------------------------------------------


def zeros(rows: int, cols: int) -> ExactMatrix:
    return ExactMatrix(rows, cols, ((_Z4,) * cols,) * rows)


def _permutation(perm: Iterable[int]) -> ExactMatrix:
    """The permutation matrix P with P e_c = e_{perm[c]}, no arithmetic."""
    perm = list(perm)
    n = len(perm)
    cols = [0] * n
    for c, r in enumerate(perm):
        cols[r] = c
    return ExactMatrix(n, n, tuple(
        (_Z4,) * c + (_ONE4,) + (_Z4,) * (n - 1 - c) for c in cols))


def identity(n: int) -> ExactMatrix:
    return _permutation(range(n))


def diagonal(values: Iterable) -> ExactMatrix:
    vals = [_as_scalar(v) for v in values]
    n = len(vals)
    return ExactMatrix.build(n, n, lambda i, j: vals[i] if i == j else ZERO)


def direct_sum(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal stacking; empty input gives the 0x0 matrix."""
    total_c = sum(b.cols for b in blocks)
    grids, den = _scaled_all(blocks)
    out = []
    c0 = 0
    for b, grid in zip(blocks, grids):
        left, right = (_Z4,) * c0, (_Z4,) * (total_c - c0 - b.cols)
        out.extend(left + tuple(r) + right for r in grid)
        c0 += b.cols
    return ExactMatrix(len(out), total_c, tuple(out), den)


def _permuted(m: ExactMatrix, perm: Sequence[int]) -> ExactMatrix:
    """The square matrix with entry (a, b) equal to m[perm[a], perm[b]]."""
    return ExactMatrix(m.rows, m.cols, tuple(
        tuple(row[p] for p in perm) for row in (m._g[p] for p in perm)),
        m._den)


def cayley_orthogonal(z: ExactMatrix, signs: Sequence[int] | None = None) -> ExactMatrix:
    """Exact orthogonal matrix diag(signs) * (I - Z)(I + Z)^{-1} from skew Z.

    Raises SingularMatrixError when I + Z is singular (caller re-samples).
    The result is asserted orthogonal before being returned.
    """
    if not z.is_skew:
        raise DimensionMismatchError("cayley_orthogonal needs a skew-symmetric input")
    n = z.rows
    ident = identity(n)
    q = (ident - z) * (ident + z).inverse()
    if signs is not None:
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be a length-n list of +1/-1")
        q = diagonal([ONE if s == 1 else MINUS_ONE for s in signs]) * q
    if not (q.T * q).is_identity:
        raise SingularMatrixError("cayley transform lost orthogonality")  # pragma: no cover
    return q
