"""Exact dense matrices over Q(i, sqrt2).

Immutable, row-major.  A matrix is stored as an integer grid over one
denominator, m = G / den: G holds its entries as integer 4-tuples
(a, b, c, d), meaning (a + b i) + (c + d i) sqrt2, and den is a positive
integer.  The pair is kept in canonical form: the gcd of den and every
component of G is 1, so the zero matrix has den = 1 and two matrices are
equal exactly when their shapes, dens and grids are; equality and hashing
are tuple operations.  An ExactScalar is the 1 x 1 case of the same
pair (scalars), and entries are made only at the boundary: __getitem__,
to_lists and repr read them off the grid, and from_rows, build and scale
read each scalar's pair onto it, with no Fraction in between.  Nothing
else keeps a second copy of the entries.

Every operation works on the grid, on one private integer kernel over the
ring Z[i, sqrt2]:

- transpose, negation, direct_sum and the predicates move,
  negate or compare 4-tuples; laying canonical matrices out over the lcm
  of their dens keeps the result canonical (so does the strip of a
  toeplitz.ToeplitzForm, written from its coefficients).  Sums and
  scaling reduce once, by one gcd over the result (_reduced).
- Products and sums of products (_sum_of_products, behind
  ExactMatrix.__mul__, toeplitz.ToeplitzForm.__mul__ and the steps of the
  solver's sweep) multiply the grids (_grid_mul, on the nonzeros of each
  right row, _sparse_rows), accumulate every term over the lcm of the term
  denominators and reduce once per result (_reduced); the solver's sweep
  and the generators keep the reduced (grid, den) pair itself (_pair_sum,
  _pair_mul).
- Rank and inverse share one fraction-free (Bareiss) elimination
  (_fraction_free; E. H. Bareiss, Sylvester's identity and multistep
  integer-preserving Gaussian elimination, Math. Comp. 22, 1968) over
  grids scaled row by row, each row reduced on its own denominator by one
  gcd (_scaled_rows).  The rank runs it forward only; scaling rows keeps
  the rank.  The inverse runs it Gauss-Jordan style on [G | I] and divides
  once at the end, through the exact-division rule scalars._divisor.
  A step updates only the rows with a nonzero entry in the pivot column;
  the others keep their entries and catch up when next touched.  The
  pivot row is the candidate with the fewest nonzero entries, the first
  such row on a tie: exact arithmetic needs no magnitude heuristics, a
  sparse pivot row makes a step touch fewer entries, and a fixed rule
  keeps every run deterministic.
- The membership test of stabilizer.verify_isotropy compares integer grids
  too.

Degenerate 0 x n shapes are first-class so direct sums over empty lists
work uniformly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import (DimensionMismatchError, IntegrityError,
                     SingularMatrixError, _Immutable)
from .scalars import (ExactScalar, MINUS_ONE, ONE, ZERO, _coerce, _divisor,
                      _from_ints, _mul4)


class ExactMatrix(_Immutable):
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
            return _sum_of_products(((self._g, _sparse_rows(other._g),
                                      self._den * other._den),),
                                    self.rows, other.cols)
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
        s = _as_scalar(scalar)
        y = s._v
        if y[1] or y[2] or y[3]:
            g = tuple(tuple(_mul4(x, y) for x in r) for r in self._g)
        else:
            k = y[0]
            g = tuple(tuple((a * k, b * k, c * k, d * k) for a, b, c, d in r)
                      for r in self._g)
        return _reduced(self.rows, self.cols, g, self._den * s._den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, tuple(zip(*self._g)) if self.rows else
                           tuple(() for _ in range(self.cols)), self._den)

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

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


def _first_mismatch(a: Sequence, b: Sequence):
    """The first (i, j), in row-major order, where the rows a and b differ,
    or None."""
    return next(((i, j) for i, (x, y) in enumerate(zip(a, b))
                 for j, (u, v) in enumerate(zip(x, y)) if u != v), None)


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
    den, in canonical form (_canonical)."""
    return ExactMatrix(rows, cols, *_canonical(grid, den))


def _canonical(grid: tuple, den: int) -> tuple:
    """(grid, den) divided through by the gcd of den and every component,
    taken row by row, so den 1 for a zero grid: the canonical pair of
    grid / den, which the coefficient layer keeps without an ExactMatrix
    around it."""
    g = den
    for row in grid:
        g = gcd(g, *chain.from_iterable(row))
        if g == 1:
            return grid, den
    return tuple(tuple((a // g, b // g, c // g, d // g) for a, b, c, d in r)
                 for r in grid), den // g


def _from_scalars(rows: int, cols: int, entries: list) -> ExactMatrix:
    """The matrix with the given rows of ExactScalars: the way in.  Its den
    is the lcm of their canonical dens (1 for none), which leaves the grid
    canonical: each prime power of den divides exactly the den of some
    entry, whose scaled 4-tuple it leaves coprime."""
    den = lcm(*{x._den for r in entries for x in r})
    return ExactMatrix(rows, cols, tuple(
        tuple(x._v if x._den == den else
              tuple(k * (den // x._den) for k in x._v) for x in r)
        for r in entries), den)


def _scaled_rows(m: ExactMatrix) -> tuple:
    """(grid, dens) with row i of m = grid[i] / dens[i], reduced by one gcd
    per row, so dens[i] is the lcm of the denominators of row i: the input
    of an elimination, rows as lists.  With one denominator over all
    entries, every entry of the grid, and so every pivot, would carry the
    digits of all the denominators together."""
    grid, dens = [], []
    for row in m._g:
        g = gcd(m._den, *chain.from_iterable(row))
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


def _sparse_rows(y: Sequence) -> list:
    """The right operand of _grid_mul, made from the grid y: the nonzeros
    (j, a, b, c, d) of each row, and whether the row is Gaussian."""
    out = []
    for row in y:
        nz = [(j, a, b, c, d) for j, (a, b, c, d) in enumerate(row)
              if a or b or c or d]
        out.append((nz, not any([e[3] or e[4] for e in nz])))
    return out


def _grid_of(acc: list) -> tuple:
    """The grid of integer 4-tuples an accumulator of _grid_mul holds."""
    return tuple(tuple(zip(*row)) for row in acc)


def _identity_grid(m: int) -> tuple:
    """The grid of the m x m identity."""
    return tuple((_Z4,) * c + (_ONE4,) + (_Z4,) * (m - 1 - c)
                 for c in range(m))


@lru_cache(maxsize=64)
def _identity_rows(m: int) -> list:
    """The _sparse_rows of the m x m identity, made once per m (m small
    lists, not the m x m grid): a term (x, _identity_rows(m), d) of
    _sum_of_products is x / d."""
    return _sparse_rows(_identity_grid(m))


def _grid_mul(x: Sequence, y: list, cols: int, acc: list | None = None,
              f: int = 1) -> list:
    """Add f times the product in Z[i, sqrt2] of the grid x and the grid
    with cols columns and _sparse_rows y into acc, rows of four integer
    component lists [a, b, c, d], and return it (a fresh acc when None).

    Zero entries of x and y are skipped, and a Gaussian entry of x times a
    Gaussian row of y forms only the Gaussian parts.
    """
    if acc is None:
        acc = [[[0] * cols, [0] * cols, [0] * cols, [0] * cols] for _ in x]
    for xrow, (ta, tb, tc, td) in zip(x, acc):
        for (a1, b1, c1, d1), (nz, gaussian) in zip(xrow, y):
            if not nz or not (a1 or b1 or c1 or d1):
                continue
            if f != 1:
                a1, b1, c1, d1 = a1 * f, b1 * f, c1 * f, d1 * f
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


def _sum_of_products(terms: Sequence, rows: int, cols: int) -> ExactMatrix:
    """The sum of x y / d over the terms (x, y, d): a grid x, the
    _sparse_rows y of a grid and a nonzero integer d, which subtracts its
    term when negative; a rows x cols matrix, zero for no terms.  Each term
    is accumulated in integers over the lcm of the |d| (_accumulate), and
    the sum is reduced once (_pair_sum)."""
    return ExactMatrix(rows, cols, *_pair_sum(terms, rows, cols))


def _pair_sum(terms: Sequence, rows: int, cols: int) -> tuple:
    """The canonical pair (grid, den) of the sum of _sum_of_products, which
    the coefficient layer (the solver's sweep and the generators) keeps
    without an ExactMatrix around it."""
    acc, den = _accumulate(terms, rows, cols)
    return _canonical(_grid_of(acc), den)


def _pair_mul(x: tuple, y_rows: list, y_den: int, cols: int) -> tuple:
    """The canonical pair of the product of the pair x = (grid, den) and
    the grid over y_den, with cols columns, whose _sparse_rows are y_rows."""
    return _pair_sum(((x[0], y_rows, x[1] * y_den),), len(x[0]), cols)


def _accumulate(terms: Sequence, rows: int, cols: int) -> tuple:
    """(acc, den): the sum of the terms of _sum_of_products is the grid acc
    holds (an accumulator of _grid_mul) over den, the lcm of the |d|;
    not reduced."""
    den = lcm(*(d for _, _, d in terms))
    acc = [[[0] * cols, [0] * cols, [0] * cols, [0] * cols]
           for _ in range(rows)]
    for xg, y, d in terms:
        _grid_mul(xg, y, cols, acc, den // d)
    return acc, den


def _fraction_free(m: list, jordan: bool = False) -> tuple:
    """Fraction-free (Bareiss) elimination, in place, on the rows m (lists
    of integer 4-tuples) of a matrix over Z[i, sqrt2]; returns (rank, mult,
    norm), where (mult, norm) = _divisor(the last pivot), or ((1, 0, 0, 0),
    1) with no pivot.

    Step k picks, among the rows from k on with a nonzero entry in the next
    column (the candidates), the one with the fewest nonzero entries from
    that column on, the first such row on a tie, as the pivot row y with
    pivot p_k.  Plain Bareiss would then set every other row x to
    (p_k x - f y) / p_{k-1}, f the row's entry in the pivot column and
    p_{-1} = 1, in every column after the pivot's.  Each entry so formed
    is a minor of the row-permuted input, so the division is exact in
    Z[i, sqrt2]; a remainder is an internal fault and raises
    IntegrityError.

    A row with f = 0 would only be scaled by p_k / p_{k-1}, so it is left
    alone: each row keeps the level s of its last update, and as the ratios
    telescope its plain-Bareiss value at step k is its stored value times
    p_{k-1} / p_{s-1}.  So its next update is (p_k x_s - f_s y) / p_{s-1},
    on its stored entries x_s and f_s, and the row that becomes the pivot
    row is first brought to level k by that same ratio, in the columns from
    the pivot's on.  Both results are plain-Bareiss entries of a
    row-permuted input, so each division stays exact.

    The rank mode (jordan False) updates the rows below the pivot and skips
    a column with no pivot.  The Gauss-Jordan mode is for a square G
    augmented to [G | I]: it updates the other rows, the earlier pivot
    rows too, pivots in the first len(m) columns only and raises
    SingularMatrixError on one with no pivot.  Its pivot row is not
    rescaled: plain Bareiss leaves it as it is, so it counts as updated to
    level k + 1.  At the end each row's right block is brought to the last
    level, which leaves d G^-1 on the right, d the last pivot; the left
    block is stale, and its entries are not minors, so it is not scaled.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    # level[r]: the steps row r has seen; nnz[r]: its nonzeros from the
    # current column on; divs[s]: (mult, norm) = _divisor(p_{s-1}), so that
    # dividing by p_{s-1} is multiplying by mult, then dividing each integer
    # component exactly by norm
    level = [0] * n_rows
    nnz = [n_cols - row.count(_Z4) for row in m]
    divs = [(_ONE4, 1)]
    p = _ONE4
    for col in range(n_rows if jordan else n_cols):
        if rank == n_rows:
            break
        cands = [r for r in range(rank, n_rows) if m[r][col] != _Z4]
        if not cands:
            if jordan:
                raise SingularMatrixError(
                    f"matrix is singular (no pivot in column {col})")
            continue
        pivot = min(cands, key=nnz.__getitem__)
        for seq in (m, level, nnz):
            seq[rank], seq[pivot] = seq[pivot], seq[rank]
        prow = m[rank]
        s = level[rank]
        if s != rank:
            mult, norm = divs[s]
            prow[col:] = _times_exact(prow[col:], _mul4(p, mult), norm)
        p = prow[col]
        for r in range(0 if jordan else rank + 1, n_rows):
            row = m[r]
            f = row[col]
            if f == _Z4 or r == rank:
                continue
            mult, norm = divs[level[r]]
            pm, fm = _mul4(p, mult), _mul4(f, mult)
            count = 0
            for j in range(col + 1, n_cols):
                x, y = row[j], prow[j]
                # the terms p x and f y, skipped when they vanish
                if y == _Z4:
                    if x == _Z4:
                        continue
                    v = _mul4(pm, x)
                elif x == _Z4:
                    v = _mul4(fm, y)
                    v = (-v[0], -v[1], -v[2], -v[3])
                else:
                    u, w = _mul4(pm, x), _mul4(fm, y)
                    v = (u[0] - w[0], u[1] - w[1], u[2] - w[2], u[3] - w[3])
                if norm != 1:
                    v = _exact(v, norm)
                row[j] = v
                if v != _Z4:
                    count += 1
            level[r] = rank + 1
            nnz[r] = count
        # the pivot row stands at the next level as it is
        level[rank] = rank + 1
        divs.append(_divisor(p))
        rank += 1
    if jordan:
        # bring the right block, d G^-1, to the last level
        for row, s in zip(m, level):
            if s != rank:
                mult, norm = divs[s]
                row[rank:] = _times_exact(row[rank:], _mul4(p, mult), norm)
    return (rank,) + divs[rank]


def _exact(v: tuple, norm: int) -> tuple:
    """The integer 4-tuple v divided by the integer norm, which must leave
    no remainder."""
    q0, r0 = divmod(v[0], norm)
    q1, r1 = divmod(v[1], norm)
    q2, r2 = divmod(v[2], norm)
    q3, r3 = divmod(v[3], norm)
    if r0 or r1 or r2 or r3:
        raise IntegrityError("fraction-free elimination left a remainder")
    return (q0, q1, q2, q3)


def _times_exact(xs: list, g: tuple, norm: int) -> list:
    """xs times g, divided exactly by norm: a row brought from level s to
    level k, with g = p_{k-1} mult and (mult, norm) = _divisor(p_{s-1})."""
    return [_exact(_mul4(g, x), norm) if x != _Z4 else x for x in xs]


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
    return ExactMatrix(n, n, _identity_grid(n))


def diagonal(values: Iterable) -> ExactMatrix:
    vals = [_as_scalar(v) for v in values]
    n = len(vals)
    return ExactMatrix.build(n, n, lambda i, j: vals[i] if i == j else ZERO)


def direct_sum(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal stacking; empty input gives the 0x0 matrix."""
    total_c = sum(b.cols for b in blocks)
    den = lcm(*(b._den for b in blocks))
    out = []
    c0 = 0
    for b in blocks:
        left, right = (_Z4,) * c0, (_Z4,) * (total_c - c0 - b.cols)
        out.extend(left + tuple(r) + right
                   for r in _rescaled(b._g, den // b._den))
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
