"""Exact dense matrices over Q(i, sqrt2).

Immutable, row-major.  Products, rank and inverse run on one private
integer kernel over the ring Z[i, sqrt2]: a matrix m is scaled once to
m = G / den, den the lcm of all its denominators and G its entries as
integer 4-tuples (a, b, c, d) meaning (a + b i) + (c + d i) sqrt2
(_scaled).

- Products and sums of products (_sum_of_products, behind
  ExactMatrix.__mul__ and the sums of the solver's sweep) multiply the
  integer grids, skipping zero entries, accumulate every term over the lcm
  of the term denominators and normalize once per result: one reduction
  per entry of the result (_from_grid).
- The product of two Toeplitz forms is one grid product (_grid_mul): each
  operand's coefficients are scaled once onto one denominator
  (_scaled_all), and the first cell-rows of the left operand multiply the
  assembled right operand (toeplitz.ToeplitzForm.__mul__).
- Rank and inverse share one fraction-free (Bareiss) elimination
  (_fraction_free; E. H. Bareiss, Sylvester's identity and multistep
  integer-preserving Gaussian elimination, Math. Comp. 22, 1968) over
  grids scaled row by row, each row on its own denominator (_scaled_rows).
  The rank runs it forward only; scaling rows keeps the rank.  The
  inverse runs it Gauss-Jordan style on [G | I] and divides once at the
  end, through the exact-division rule scalars._divisor.  Pivot selection is the first row
  with a nonzero entry: exact arithmetic needs no magnitude heuristics,
  and a fixed rule keeps every run deterministic.
- The membership test of stabilizer.verify_isotropy compares integer grids
  too.

The grids are transient: nothing caches them on a matrix.  Degenerate
0 x n shapes are first-class so direct sums over empty lists work
uniformly.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, IntegrityError, SingularMatrixError
from .scalars import (ExactScalar, MINUS_ONE, ONE, ZERO, _coerce, _divisor,
                      _from_ints, _mul4)


class ExactMatrix:
    # _member_of is unset until an exact membership check succeeds; it then
    # names the structure whose isotropy group the matrix belongs to.
    __slots__ = ("rows", "cols", "_m", "_member_of")

    def __init__(self, rows: int, cols: int, entries: tuple):
        # entries: tuple of row tuples, already validated by constructors
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_m", entries)

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
            out.append(tuple(_as_scalar(x) for x in row))
        return cls(rows, cols, tuple(out))

    @classmethod
    def build(cls, rows: int, cols: int, fn: Callable[[int, int], ExactScalar]) -> "ExactMatrix":
        return cls(rows, cols,
                   tuple(tuple(_as_scalar(fn(i, j)) for j in range(cols))
                         for i in range(rows)))

    # -- access ---------------------------------------------------------

    def __getitem__(self, key) -> ExactScalar:
        i, j = key
        return self._m[i][j]

    def row(self, i: int) -> tuple:
        return self._m[i]

    def to_lists(self) -> list:
        return [list(r) for r in self._m]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def submatrix(self, row_start: int, row_stop: int, col_start: int, col_stop: int) -> "ExactMatrix":
        return ExactMatrix(row_stop - row_start, col_stop - col_start,
                           tuple(r[col_start:col_stop] for r in self._m[row_start:row_stop]))

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for r in self._m for x in r)

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(self._m[i][j] == self._m[j][i]
                                      for i in range(self.rows) for j in range(i + 1, self.cols))

    @property
    def is_skew(self) -> bool:
        if not self.is_square:
            return False
        if any(not self._m[i][i].is_zero for i in range(self.rows)):
            return False
        return all(self._m[i][j] == -self._m[j][i]
                   for i in range(self.rows) for j in range(i + 1, self.cols))

    @property
    def is_identity(self) -> bool:
        return self.is_square and all(
            self._m[i][j] == (ONE if i == j else ZERO)
            for i in range(self.rows) for j in range(self.cols))

    # -- arithmetic -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._m == other._m)

    def __hash__(self):
        return hash((self.rows, self.cols, self._m))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._need_same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(a + b for a, b in zip(ra, rb))
                                 for ra, rb in zip(self._m, other._m)))

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._need_same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(a - b for a, b in zip(ra, rb))
                                 for ra, rb in zip(self._m, other._m)))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(-a for a in r) for r in self._m))

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
        s = _as_scalar(scalar)
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(s * a for a in r) for r in self._m))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, tuple(zip(*self._m)) if self.rows else
                           tuple(() for _ in range(self.cols)))

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

    def trace(self) -> ExactScalar:
        if not self.is_square:
            raise DimensionMismatchError("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self._m[i][i]
        return t

    def map(self, fn: Callable[[ExactScalar], ExactScalar]) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(fn(a) for a in r) for r in self._m))

    def conjugate_i(self) -> "ExactMatrix":
        return self.map(lambda x: x.conjugate_i())

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
            row.extend((1, 0, 0, 0) if i == j else _Z4 for j in range(n))
        _, mult, norm = _fraction_free(grid, jordan=True)
        scales = [tuple(den * v for v in mult) for den in dens]
        return ExactMatrix(n, n, tuple(
            tuple(_from_ints(*_mul4(x, scale), norm)
                  for x, scale in zip(row[n:], scales))
            for row in grid))

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
        body = "; ".join(" ".join(str(x) for x in r) for r in self._m)
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


def _scaled(m: ExactMatrix) -> tuple:
    """(grid, den) with m = grid / den: den is the lcm of all denominators
    of m and grid its rows of integer 4-tuples (a, b, c, d), meaning
    (a + b i) + (c + d i) sqrt2.  A linear system built from grid has the
    rank of the one built from m."""
    (grid,), den = _scaled_all((m,))
    return grid, den


def _scaled_rows(m: ExactMatrix) -> tuple:
    """(grid, dens) with row i of m = grid[i] / dens[i], dens[i] the lcm of
    the denominators of row i: the input of an elimination.  With one lcm
    over all entries, every entry of the grid, and so every pivot, would
    carry the digits of all the denominators together."""
    grid, dens = [], []
    for i in range(m.rows):
        (row,), den = _scaled(m.submatrix(i, i + 1, 0, m.cols))
        grid.append(row)
        dens.append(den)
    return grid, dens


def _scaled_all(mats: Sequence[ExactMatrix]) -> tuple:
    """(grids, den) with mats[t] = grids[t] / den for every t, on the one
    denominator den, the lcm of all denominators of all the matrices
    (1 for none)."""
    parts = [[[(x.a, x.b, x.c, x.d) for x in r] for r in m._m] for m in mats]
    dens = {q.denominator for p in parts for r in p for x in r for q in x}
    den = lcm(*map(int, dens))
    f = {q: den // int(q) for q in dens}
    return [[[(int(a.numerator) * f[a.denominator],
               int(b.numerator) * f[b.denominator],
               int(c.numerator) * f[c.denominator],
               int(d.numerator) * f[d.denominator])
              if a or b or c or d else _Z4 for a, b, c, d in r]
             for r in p] for p in parts], den


def _grid_mul(x: Sequence, y: Sequence, cols: int, acc: list | None = None) -> list:
    """Add the product in Z[i, sqrt2] of the grids x and y (y has cols
    columns) into acc, rows of four integer component lists [a, b, c, d],
    and return it; a fresh zero acc when None.

    Zero entries of x and y are skipped.
    """
    # the nonzeros of each row of y
    sparse = [[(j,) + e for j, e in enumerate(row) if e != _Z4] for row in y]
    if acc is None:
        acc = [[[0] * cols for _ in range(4)] for _ in range(len(x))]
    for xrow, (ta, tb, tc, td) in zip(x, acc):
        for (a1, b1, c1, d1), nz in zip(xrow, sparse):
            if not nz or not (a1 or b1 or c1 or d1):
                continue
            # (g1 + h1 r2)(g2 + h2 r2) = (g1 g2 + 2 h1 h2) + (g1 h2 + h1 g2) r2
            for j, a2, b2, c2, d2 in nz:
                ta[j] += a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
                tb[j] += a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
                tc[j] += a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
                td[j] += a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
    return acc


def _from_grid(acc: list, den: int, cols: int) -> ExactMatrix:
    """The matrix acc / den from rows of four integer component lists, one
    reduction per entry."""
    return ExactMatrix(len(acc), cols, tuple(
        tuple(_from_ints(a, b, c, d, den) for a, b, c, d in zip(*row))
        for row in acc))


def _sum_of_products(pairs: Iterable, rows: int, cols: int) -> ExactMatrix:
    """sum of x y over the (x, y) in pairs, a rows x cols matrix (zero for
    no pairs).  Each term is formed in integers over the lcm of the term
    denominators, by scaling its left grid, and the sum is normalized once.
    """
    terms = []
    for x, y in pairs:
        (xg, dx), (yg, dy) = _scaled(x), _scaled(y)
        terms.append((xg, yg, dx * dy))
    den = lcm(*(d for _, _, d in terms))
    acc = [[[0] * cols for _ in range(4)] for _ in range(rows)]
    for xg, yg, d in terms:
        f = den // d
        if f != 1:
            xg = [[(a * f, b * f, c * f, e * f) for a, b, c, e in r] for r in xg]
        _grid_mul(xg, yg, cols, acc)
    return _from_grid(acc, den, cols)


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
    return ExactMatrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))


def identity(n: int) -> ExactMatrix:
    return ExactMatrix(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n))
                                   for i in range(n)))


def diagonal(values: Iterable) -> ExactMatrix:
    vals = [_as_scalar(v) for v in values]
    n = len(vals)
    return ExactMatrix.build(n, n, lambda i, j: vals[i] if i == j else ZERO)


def direct_sum(blocks: Sequence[ExactMatrix]) -> ExactMatrix:
    """Block-diagonal stacking; empty input gives the 0x0 matrix."""
    total_r = sum(b.rows for b in blocks)
    total_c = sum(b.cols for b in blocks)
    out = [[ZERO] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            row = b.row(i)
            for j in range(b.cols):
                out[r0 + i][c0 + j] = row[j]
        r0 += b.rows
        c0 += b.cols
    return ExactMatrix(total_r, total_c, tuple(tuple(r) for r in out))


def block_assemble(grid: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """Assemble a matrix from a 2-D grid of blocks (row sizes must agree)."""
    if not grid:
        return zeros(0, 0)
    row_heights = [row[0].rows for row in grid]
    col_widths = [b.cols for b in grid[0]]
    for i, row in enumerate(grid):
        if len(row) != len(col_widths):
            raise DimensionMismatchError("ragged block grid")
        for j, b in enumerate(row):
            if b.rows != row_heights[i] or b.cols != col_widths[j]:
                raise DimensionMismatchError(
                    f"block ({i},{j}) is {b.rows}x{b.cols}, expected "
                    f"{row_heights[i]}x{col_widths[j]}")
    out = []
    for i, row in enumerate(grid):
        for ii in range(row_heights[i]):
            out.append(tuple(x for b in row for x in b.row(ii)))
    return ExactMatrix(sum(row_heights), sum(col_widths), tuple(out))


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
