"""Exact dense matrices over Q(i, sqrt2).

Immutable, row-major, with exact Gauss-Jordan inversion, rank and nullspace.
Pivot selection is the first row with a nonzero entry: exact arithmetic
needs no magnitude heuristics, and a fixed rule keeps every run
deterministic.  Degenerate 0 x n shapes are first-class so direct sums over
empty lists work uniformly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatchError, SingularMatrixError
from .scalars import ExactScalar, MINUS_ONE, ONE, ZERO, _coerce


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
            acc = [[ZERO] * other.cols for _ in range(self.rows)]
            om = other._m
            for i in range(self.rows):
                row_i = self._m[i]
                acc_i = acc[i]
                for k in range(self.cols):
                    a = row_i[k]
                    if a.is_zero:
                        continue
                    brow = om[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if not b.is_zero:
                            acc_i[j] = acc_i[j] + a * b
            return ExactMatrix(self.rows, other.cols, tuple(tuple(r) for r in acc))
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
        """Exact inverse by Gauss-Jordan on [A | I]."""
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self._m[i]) + [ONE if i == j else ZERO for j in range(n)]
               for i in range(n)]
        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if not aug[r][col].is_zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
            if pivot_row != col:
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            inv = aug[col][col].inverse()
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                f = aug[r][col]
                if f.is_zero:
                    continue
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix(n, n, tuple(tuple(row[n:]) for row in aug))

    def _rref(self):
        """Reduced row echelon form; returns (rows, pivot_columns)."""
        m = [list(r) for r in self._m]
        pivots = []
        lead = 0
        for col in range(self.cols):
            pivot_row = None
            for r in range(lead, self.rows):
                if not m[r][col].is_zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[lead], m[pivot_row] = m[pivot_row], m[lead]
            inv = m[lead][col].inverse()
            m[lead] = [x * inv for x in m[lead]]
            for r in range(self.rows):
                if r == lead:
                    continue
                f = m[r][col]
                if not f.is_zero:
                    m[r] = [x - f * y for x, y in zip(m[r], m[lead])]
            pivots.append(col)
            lead += 1
            if lead == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._rref()[1])

    def nullspace(self) -> list["ExactMatrix"]:
        """Basis of the right kernel, as column vectors; deterministic order."""
        m, pivots = self._rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for i, p in enumerate(pivots):
                v[p] = -m[i][f]
            basis.append(ExactMatrix(self.cols, 1, tuple((x,) for x in v)))
        return basis

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
