"""Block upper-triangular Toeplitz calculus.

Matrices commuting with a nilpotent Jordan layout become, after the
interleaving change of basis, block matrices whose (r, s) block is an
alpha_r x alpha_s grid of m_r x m_s cells, constant along cell diagonals
and zero below a leading offset.  This module provides the exact algebra
of such forms: assembly to dense matrices and strict extraction back,
sums, products and the transpose twisted by the backward block form.

A ToeplitzForm is stored as its strip: the first cell-row of each group
of its dense matrix, one M x n ExactMatrix (M = sum m_r).  In the rows of
group r, coefficient (r, s, j) is cell j + shift(r, s) of block (r, s),
the weight of the coefficient, and the cells before it are zero.  As
shift(r, s) = alpha_s - depth(r, s), the strip holds every coefficient
once, on one canonical integer grid (matrices.py).  Where each
coefficient sits is one table per block shape (_placement), which every
writer and reader of the strip uses, and the sweep's plan its shifts
(solver._pairs).  The strip is written from canonical (grid, den) pairs
(_strip_of), so the sweep and the generators hand over their cells without
an ExactMatrix each, and the zero test of a cell (_is_zero_at) and the
identity-diagonal test read the strip in place, without making the
coefficient.  Sums, scaling, equality and the zero test are the
strip's; flip_transpose gathers its entries through an index map made
once per block shape (_maps).  Cell-row u of a group of
the dense matrix is its strip moved right by u cells in every block
(assemble), and extract reads the strip back, zeroing the cells before
each first coefficient.  A product is one integer product
(_sum_of_products): the left strip times the dense rows of the right
operand is the product's strip, and those rows are read off the right
strip's nonzeros, each moved right by u cells while it stays inside its
block (_moved_rows).  Neither builds an n x n matrix.  The commutant builder
(commutant_basis) goes the other way: from a sparse assignment, checked as
from_sparse checks it (_check_sparse), it writes the dense copy-major
matrix in one pass, each coefficient row as strided slices placed by the
same table, with no strip, assembly or Omega permutation between.

Weights add under products and stay below alpha_1, so a form whose
nonzero coefficients all have weight >= 1 is nilpotent of index at most
alpha_1.  The upper coupling cell (r, s, 0), r < s, has weight 0, so the
bound does not cover X - I for every unipotent member X (README, "Known
limitation").

Membership of a product or inverse is checked where it is returned
(solver.verify_congruence); that the product equals the dense product of
the assemblies is a property the test suite checks.

Coordinates are 0-based throughout: group indices r, s in
[0, part_count), coefficient index j in [0, depth(r, s)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product
from math import lcm
from typing import Iterator, Mapping

from .errors import (
    DimensionMismatchError,
    ParameterError,
    ShapeViolationError,
    StructureError,
)
from .forms import (SegreStructure, _omega_indices, _require_square,
                    commutant_dimension)
from .matrices import (ExactMatrix, _Z4, _first_mismatch, _permuted,
                       _reduced, _rescaled, _sparse_rows, _sum_of_products,
                       identity as dense_identity, zeros as dense_zeros)

__all__ = [
    "ToeplitzForm",
    "commutant_basis",
    "conjugate_by_omega",
]


def _block_keys(structure: SegreStructure) -> Iterator[tuple[int, int]]:
    return product(range(structure.part_count), repeat=2)


@lru_cache(maxsize=128)
def _placement(blocks) -> tuple:
    """Where the strip of a form with these blocks holds what, made once per
    block shape.  tops: the strip rows of group r are tops[r]:tops[r + 1].
    shift[r][s] = alpha_s - depth(r, s), the zero cells of block (r, s)
    before its coefficient 0.  cols[r][s]: the strip column of coefficient
    (r, s, 0), after those cells; coefficient (r, s, j) starts j m_s columns
    on, and cols[r][r] is where group r starts, in the dense rows as in the
    columns.  reach, step: per column, a nonzero there stays inside its
    block s when moved right by u < reach cells, alpha_s less its cell, and
    moves u m_s columns; the cells of block (r, s) before its coefficient 0
    are those with reach > alpha_r."""
    starts = tuple(accumulate((alpha * m for alpha, m in blocks), initial=0))
    shift = tuple(tuple(max(0, alpha_s - alpha_r) for alpha_s, _ in blocks)
                  for alpha_r, _ in blocks)
    cols = tuple(tuple(start + zero * m_s for zero, (_, m_s), start
                       in zip(row, blocks, starts)) for row in shift)
    reach = tuple(alpha - v for alpha, m in blocks
                  for v in range(alpha) for _ in range(m))
    step = tuple(m for alpha, m in blocks for _ in range(alpha * m))
    tops = tuple(accumulate((m for _, m in blocks), initial=0))
    return tops, shift, cols, reach, step


@lru_cache(maxsize=128)
def _maps(blocks) -> tuple:
    """The flip map of the structures with these blocks, made once: per
    strip row of F X^T F, the index of each entry in the strip read row by
    row, M n meaning the zero slot past its end.  Coefficient (r, s, j) of
    the flip, where _placement puts it, is coefficient (s, r, j) read down
    its columns.  Cached apart from _placement: the dense bridge needs only
    that, and the commutant builder meets many a block shape once.  The
    dense membership check reads it too (stabilizer._check_tables)."""
    tops, _, cols, reach, _ = _placement(blocks)
    n = len(reach)
    flip = []
    for r, (alpha_r, m_r) in enumerate(blocks):
        for a in range(m_r):
            row = [tops[-1] * n] * n
            for s, (alpha_s, m_s) in enumerate(blocks):
                for j in range(min(alpha_r, alpha_s)):
                    at, src = cols[r][s] + j * m_s, cols[s][r] + j * m_r + a
                    row[at:at + m_s] = range(tops[s] * n + src,
                                             tops[s + 1] * n + src, n)
            flip.append(tuple(row))
    return tuple(flip)


def _check_cell(structure: SegreStructure, r: int, s: int, j: int, mat):
    if not isinstance(mat, ExactMatrix):
        raise StructureError(f"coefficient ({r}, {s}, {j}) is not an ExactMatrix")
    m_r, m_s = structure.mults[r], structure.mults[s]
    if mat.rows != m_r or mat.cols != m_s:
        raise DimensionMismatchError(
            f"coefficient ({r}, {s}, {j}) must be {m_r}x{m_s}, "
            f"got {mat.rows}x{mat.cols}")


def _strip_of(structure: SegreStructure, cells: Mapping) -> ExactMatrix:
    """The strip with coefficient (r, s, j) = grid / den for cells[(r, s,
    j)] = (grid, den), a canonical pair of the right shape, zero where cells
    has none: each grid rescaled to the lcm of the dens and written where
    _placement puts it into rows of zeros, so canonical as it is
    (matrices.py)."""
    den = lcm(*(d for _, d in cells.values()))
    tops, _, cols, _, _ = _placement(structure.blocks)
    mults = structure.mults
    rows = [[_Z4] * structure.n for _ in range(tops[-1])]
    for (r, s, j), (grid, cell_den) in cells.items():
        col = cols[r][s] + j * mults[s]
        end = col + mults[s]
        for row, part in zip(rows[tops[r]:tops[r + 1]],
                             _rescaled(grid, den // cell_den)):
            row[col:end] = part
    return ExactMatrix(len(rows), structure.n, tuple(map(tuple, rows)), den)


def _pairs_of(cells: Mapping) -> dict:
    """cells, ExactMatrix coefficients, as the (grid, den) pairs of
    _strip_of."""
    return {key: (x._g, x._den) for key, x in cells.items()}


def _need_segre(structure):
    if not isinstance(structure, SegreStructure):
        raise StructureError("ToeplitzForm needs a single-eigenvalue structure")


def _check_block(structure: SegreStructure, r: int, s: int):
    count = structure.part_count
    if not (0 <= r < count and 0 <= s < count):
        raise ParameterError(f"block index ({r}, {s}) out of range")


def _check_sparse(structure: SegreStructure, entries: Mapping):
    """Check a sparse assignment {(r, s, j): m_r x m_s ExactMatrix}: every
    key in range, in the assignment's order, then every cell, in key
    order.  from_sparse and the commutant builder take it after this."""
    for (r, s, j) in entries:
        _check_block(structure, r, s)
        if not (0 <= j < structure.depth(r, s)):
            raise ParameterError(
                f"coefficient index {j} out of range for block ({r}, {s})")
    for key in sorted(entries):
        _check_cell(structure, *key, entries[key])


class ToeplitzForm:
    """Coefficient family {A_j^{rs}} of a block Toeplitz matrix.

    Block (r, s) holds depth(r, s) = min(alpha_r, alpha_s) coefficients
    of size m_r x m_s; its dense cell at grid position (u, v) equals
    A_{v - u - shift(r, s)}, with out-of-range indices reading as zero.
    The form is stored as its strip (module docstring): canonical, and
    zero in the cells before each block's first coefficient.
    """

    # _member_of: see ExactMatrix; on a form it means F X^T F X = I was
    # checked exactly for that structure.
    __slots__ = ("structure", "_strip", "_member_of")

    def __init__(self, structure: SegreStructure, coeffs: Mapping):
        _need_segre(structure)
        cells = {}
        seen = set(coeffs)
        for r, s in _block_keys(structure):
            if (r, s) not in seen:
                raise StructureError(f"missing coefficient list for block ({r}, {s})")
            entry = tuple(coeffs[(r, s)])
            depth = structure.depth(r, s)
            if len(entry) != depth:
                raise StructureError(
                    f"block ({r}, {s}) needs {depth} coefficients, got {len(entry)}")
            for j, mat in enumerate(entry):
                _check_cell(structure, r, s, j, mat)
                cells[(r, s, j)] = mat
        if len(seen) != structure.part_count ** 2:
            extra = sorted(seen - set(_block_keys(structure)))
            raise StructureError(f"unknown block keys {extra}")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "_strip",
                           _strip_of(structure, _pairs_of(cells)))

    @classmethod
    def _from_strip(cls, structure: SegreStructure,
                    strip: ExactMatrix) -> "ToeplitzForm":
        """The form with this strip, trusted: what the class computes."""
        form = object.__new__(cls)
        object.__setattr__(form, "structure", structure)
        object.__setattr__(form, "_strip", strip)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("ToeplitzForm is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, structure: SegreStructure) -> "ToeplitzForm":
        _need_segre(structure)
        return cls._from_strip(structure, dense_zeros(sum(structure.mults), structure.n))

    @classmethod
    def identity(cls, structure: SegreStructure) -> "ToeplitzForm":
        _need_segre(structure)
        return cls.from_sparse(structure, {
            (r, r, 0): dense_identity(m) for r, m in enumerate(structure.mults)})

    @classmethod
    def from_sparse(cls, structure: SegreStructure,
                    entries: Mapping[tuple[int, int, int], ExactMatrix]
                    ) -> "ToeplitzForm":
        """Form with the given (r, s, j) -> matrix entries, zeros elsewhere."""
        _need_segre(structure)
        _check_sparse(structure, entries)
        return cls._from_strip(structure,
                               _strip_of(structure, _pairs_of(entries)))

    # -- access -------------------------------------------------------

    def _slice(self, r: int, s: int, j: int) -> tuple:
        # the strip's grid of coefficient (r, s, j), 0 <= j < depth(r, s),
        # over the strip's den, read where _placement puts it
        tops, _, cols, _, _ = _placement(self.structure.blocks)
        m_s = self.structure.mults[s]
        col = cols[r][s] + j * m_s
        return tuple(row[col:col + m_s]
                     for row in self._strip._g[tops[r]:tops[r + 1]])

    def _cell(self, r: int, s: int, j: int) -> ExactMatrix:
        # coefficient (r, s, j), 0 <= j < depth(r, s), sliced off the strip
        return _reduced(self.structure.mults[r], self.structure.mults[s],
                        self._slice(r, s, j), self._strip._den)

    def _is_zero_at(self, r: int, s: int, j: int) -> bool:
        """True when coefficient (r, s, j) is zero, j outside [0, depth)
        included: read off the strip, without making the coefficient."""
        return not (0 <= j < self.structure.depth(r, s) and any(
            map(any, chain.from_iterable(self._slice(r, s, j)))))

    @property
    def coeffs(self) -> dict:
        """{(r, s): (A_0, A_1, ...)}, read off the strip."""
        st = self.structure
        return {(r, s): tuple(self._cell(r, s, j) for j in range(st.depth(r, s)))
                for r, s in _block_keys(st)}

    def coefficient(self, r: int, s: int, j: int) -> ExactMatrix:
        """A_j^{rs}; indices j outside [0, depth) read as the zero matrix,
        block indices (r, s) out of range raise ParameterError."""
        _check_block(self.structure, r, s)
        if 0 <= j < self.structure.depth(r, s):
            return self._cell(r, s, j)
        return dense_zeros(self.structure.mults[r], self.structure.mults[s])

    def __eq__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        return self.structure == other.structure and self._strip == other._strip

    def __hash__(self):
        return hash((self.structure, self._strip))

    def __repr__(self):
        nonzero = sum(1 for entry in self.coeffs.values()
                      for mat in entry if not mat.is_zero)
        return (f"ToeplitzForm(structure={self.structure!r}, "
                f"nonzero_coefficients={nonzero})")

    # -- linear structure ----------------------------------------------

    def _same_structure(self, other: "ToeplitzForm"):
        if self.structure != other.structure:
            raise DimensionMismatchError("forms live on different structures")

    def __add__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        self._same_structure(other)
        return ToeplitzForm._from_strip(self.structure, self._strip + other._strip)

    def __sub__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        self._same_structure(other)
        return ToeplitzForm._from_strip(self.structure, self._strip - other._strip)

    def __neg__(self):
        return ToeplitzForm._from_strip(self.structure, -self._strip)

    def scale(self, scalar) -> "ToeplitzForm":
        return ToeplitzForm._from_strip(self.structure, self._strip.scale(scalar))

    # -- dense bridge ---------------------------------------------------

    def assemble(self) -> ExactMatrix:
        """Dense n x n matrix with cell (u, v) of block (r, s) equal to
        coefficient v - u - shift(r, s): cell-row u of group r is the strip
        rows of group r moved right by u cells per block.  It holds the
        strip's entries and zeros, so it is canonical over the strip's den."""
        st = self.structure
        rows = []
        for (alpha_r, m_r), top in zip(st.blocks, _placement(st.blocks)[0]):
            for u in range(alpha_r):
                for row in self._strip._g[top:top + m_r]:
                    new, col = [], 0
                    for alpha, m in st.blocks:
                        width, zero = alpha * m, min(u, alpha) * m
                        new.extend((_Z4,) * zero)
                        new.extend(row[col:col + width - zero])
                        col += width
                    rows.append(tuple(new))
        return ExactMatrix(st.n, st.n, tuple(rows), self._strip._den)

    def _moved_rows(self) -> list:
        """The _sparse_rows of the dense matrix, in its row order, read off
        the strip: cell-row u of group k keeps the nonzeros of the strip
        rows of group k that lie fewer than alpha_s - u cells into their
        block s, each moved u cells right."""
        st = self.structure
        _, _, _, reach, step = _placement(st.blocks)
        strip_rows = iter(_sparse_rows(self._strip._g))
        rows = []
        for alpha, m in st.blocks:
            group = [next(strip_rows) for _ in range(m)]
            rows += group
            for u in range(1, alpha):
                rows += [([(j + u * step[j], a, b, c, d)
                           for j, a, b, c, d in nz if reach[j] > u], gaussian)
                         for nz, gaussian in group]
        return rows

    @classmethod
    def extract(cls, dense: ExactMatrix,
                structure: SegreStructure) -> "ToeplitzForm":
        """Read a shape-conforming dense matrix back into coefficients.

        Raises ShapeViolationError at the first dense entry, in row-major
        order, that breaks the constant-diagonal block pattern.
        """
        _need_segre(structure)
        _require_square(structure, dense)
        _, _, cols, reach, _ = _placement(structure.blocks)
        rows = []
        for r, (alpha, m) in enumerate(structure.blocks):
            rows += [tuple(_Z4 if far > alpha else x for x, far in zip(row, reach))
                     for row in dense._g[cols[r][r]:cols[r][r] + m]]
        candidate = cls._from_strip(structure, _reduced(
            len(rows), structure.n, tuple(rows), dense._den))
        expected = candidate.assemble()
        if expected == dense:
            return candidate
        i, j = _first_mismatch(dense, expected)
        raise ShapeViolationError(
            f"entry ({i}, {j}) = {dense[i, j]} breaks the block "
            f"Toeplitz pattern (expected {expected[i, j]})", i, j)

    # -- multiplicative structure ----------------------------------------

    def __mul__(self, other):
        """Product by one integer grid product: the left strip times the
        dense rows of the right operand, read off its strip, is the
        product's strip."""
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        self._same_structure(other)
        st, strip = self.structure, self._strip
        return ToeplitzForm._from_strip(st, _sum_of_products(
            ((strip._g, other._moved_rows(), strip._den * other._strip._den),),
            strip.rows, st.n))

    def flip_transpose(self) -> "ToeplitzForm":
        """F X^T F for the backward block form F: coefficient (r, s, j)
        becomes the transpose of coefficient (s, r, j).  The strip's entries
        are gathered through the block shape's index map (_maps), so the
        result is canonical over the same den."""
        st, strip = self.structure, self._strip
        flat = tuple(chain.from_iterable(strip._g)) + (_Z4,)
        return ToeplitzForm._from_strip(st, ExactMatrix(
            strip.rows, st.n,
            tuple(tuple(map(flat.__getitem__, idx)) for idx in _maps(st.blocks)),
            strip._den))

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._strip.is_zero

    @property
    def is_identity(self) -> bool:
        return self == ToeplitzForm.identity(self.structure)

    @property
    def has_identity_diagonal(self) -> bool:
        """True when every leading diagonal coefficient A_0^{rr} is I: its
        grid on the strip is den I, read without making the coefficient."""
        one = (self._strip._den, 0, 0, 0)
        return all(x == (one if a == b else _Z4)
                   for r in range(self.structure.part_count)
                   for a, row in enumerate(self._slice(r, r, 0))
                   for b, x in enumerate(row))


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def conjugate_by_omega(dense: ExactMatrix, structure: SegreStructure,
                       direction: str) -> ExactMatrix:
    """Change of basis by the interleaving permutation Omega.

    to_toeplitz: Omega^T X Omega, copy-major to position-major;
    to_dense:    Omega X Omega^T, the inverse map.
    Omega is applied as an index permutation, without arithmetic.
    """
    _require_square(structure, dense)
    n = structure.n
    perm = _omega_indices(structure)
    if direction == "to_dense":
        inverse = [0] * n
        for c, r in enumerate(perm):
            inverse[r] = c
        perm = inverse
    elif direction != "to_toeplitz":
        raise ParameterError(f"unknown direction {direction!r}")
    return _permuted(dense, perm)


def commutant_basis(structure: SegreStructure):
    """Parameterization of all matrices commuting with the Jordan layout.

    Returns (dimension, builder).  builder maps a sparse assignment
    {(r, s, j): m_r x m_s ExactMatrix} to the dense copy-major matrix X
    with J X = X J; omitted slots are zero.  It is the Omega conjugate of
    the assembled from_sparse form, written in one pass: row a of
    coefficient (r, s, j) is, for each u with v = u + shift(r, s) + j <
    alpha_s, dense row off_r + a alpha_r + u at the columns off_s + b
    alpha_s + v, b < m_s, one strided slice, off_r where group r starts.
    Rescaled to the lcm of the coefficient dens, it is canonical as the
    strip is (_strip_of): every coefficient appears, at u = 0.
    """
    _need_segre(structure)
    dimension = commutant_dimension(structure)
    blocks, n = structure.blocks, structure.n
    _, shift, cols, _, _ = _placement(blocks)

    def builder(assignment: Mapping[tuple[int, int, int], ExactMatrix]) -> ExactMatrix:
        _check_sparse(structure, assignment)
        den = lcm(*(x._den for x in assignment.values()))
        rows = [[_Z4] * n for _ in range(n)]
        for (r, s, j), x in assignment.items():
            alpha_r, (alpha_s, m_s) = blocks[r][0], blocks[s]
            top, left = cols[r][r], cols[s][s]
            end = left + alpha_s * m_s
            for a, part in enumerate(_rescaled(x._g, den // x._den)):
                at = top + a * alpha_r
                for u, v in enumerate(range(shift[r][s] + j, alpha_s)):
                    rows[at + u][left + v:end:alpha_s] = part
        return ExactMatrix(n, n, tuple(map(tuple, rows)), den)

    return dimension, builder
