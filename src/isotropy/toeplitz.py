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
shift(r, s) + depth(r, s) = alpha_s, the strip holds every coefficient
once, on one canonical integer grid (matrices.py).  Sums, scaling,
equality and the zero test are the strip's; flip_transpose permutes its
entries.  Cell-row u of a group of the dense matrix is its strip moved
right by u cells in every block (assemble), and extract reads the strip
back, zeroing the cells before each first coefficient; both are one walk
(_cell_rows).  A product is one integer product (_sum_of_products): the
left strip times the dense rows of the right operand is the product's
strip.

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

from itertools import product
from math import lcm
from typing import Iterator, Mapping

from .errors import (
    DimensionMismatchError,
    ParameterError,
    ShapeViolationError,
    StructureError,
)
from .forms import SegreStructure, _omega_indices, _require_square
from .matrices import (ExactMatrix, _Z4, _permuted, _reduced, _rescaled,
                       _sparse_rows, _sum_of_products,
                       identity as dense_identity, zeros as dense_zeros)

__all__ = [
    "ToeplitzForm",
    "commutant_basis",
    "commutant_dimension",
    "conjugate_by_omega",
]


def _block_keys(structure: SegreStructure) -> Iterator[tuple[int, int]]:
    return product(range(structure.part_count), repeat=2)


def _cell_rows(structure: SegreStructure, rows, leads, moved: bool) -> list:
    """rows (of integer 4-tuples, n wide) with the first leads[s] cells of
    each block s zero: the block moved right by leads[s] cells when moved
    (assembly), else kept in place (extraction).  The one assembly walk."""
    out = []
    for row in rows:
        new = []
        col = 0
        for (alpha, m), lead in zip(structure.blocks, leads):
            width, zero = alpha * m, min(lead, alpha) * m
            new.extend((_Z4,) * zero)
            new.extend(row[col:col + width - zero] if moved
                       else row[col + zero:col + width])
            col += width
        out.append(tuple(new))
    return out


def _check_cell(structure: SegreStructure, r: int, s: int, j: int, mat):
    if not isinstance(mat, ExactMatrix):
        raise StructureError(f"coefficient ({r}, {s}, {j}) is not an ExactMatrix")
    m_r, m_s = structure.mults[r], structure.mults[s]
    if mat.rows != m_r or mat.cols != m_s:
        raise DimensionMismatchError(
            f"coefficient ({r}, {s}, {j}) must be {m_r}x{m_s}, "
            f"got {mat.rows}x{mat.cols}")


def _strip_of(structure: SegreStructure, cells: Mapping) -> ExactMatrix:
    """The strip with coefficient (r, s, j) = cells[(r, s, j)], a checked
    ExactMatrix, zero where cells has none, written in one pass over the
    lcm of the coefficient dens: canonical as it is (matrices.py).  A
    missing coefficient, like the cells before a block's first one, is a
    run of zero tuples."""
    den = lcm(*(x._den for x in cells.values()))
    alphas, mults = structure.alphas, structure.mults
    rows = []
    for r, m_r in enumerate(mults):
        group, zero = [[] for _ in range(m_r)], 0  # zero: columns to write
        for s, m_s in enumerate(mults):
            zero += max(0, alphas[s] - alphas[r]) * m_s  # shift(r, s) cells
            for j in range(min(alphas[r], alphas[s])):  # depth(r, s)
                x = cells.get((r, s, j))
                if x is None:
                    zero += m_s
                    continue
                pad, zero = (_Z4,) * zero, 0
                for row, part in zip(group, _rescaled(x._g, den // x._den)):
                    row += pad + part
        rows.extend(tuple(row) + (_Z4,) * zero for row in group)
    return ExactMatrix(len(rows), structure.n, tuple(rows), den)


def _need_segre(structure):
    if not isinstance(structure, SegreStructure):
        raise StructureError("ToeplitzForm needs a single-eigenvalue structure")


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
        object.__setattr__(self, "_strip", _strip_of(structure, cells))

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
        return cls._from_strip(structure, _strip_of(structure, {
            (r, r, 0): dense_identity(m) for r, m in enumerate(structure.mults)}))

    @classmethod
    def from_sparse(cls, structure: SegreStructure,
                    entries: Mapping[tuple[int, int, int], ExactMatrix]
                    ) -> "ToeplitzForm":
        """Form with the given (r, s, j) -> matrix entries, zeros elsewhere."""
        _need_segre(structure)
        count = structure.part_count
        for (r, s, j) in entries:
            if not (0 <= r < count and 0 <= s < count):
                raise ParameterError(f"block index ({r}, {s}) out of range")
            if not (0 <= j < structure.depth(r, s)):
                raise ParameterError(
                    f"coefficient index {j} out of range for block ({r}, {s})")
        for key in sorted(entries):
            _check_cell(structure, *key, entries[key])
        return cls._from_strip(structure, _strip_of(structure, entries))

    # -- access -------------------------------------------------------

    def _cell(self, r: int, s: int, j: int) -> ExactMatrix:
        # coefficient (r, s, j), 0 <= j < depth(r, s), sliced off the strip
        st = self.structure
        grid, den = self._strip._g, self._strip._den
        top = sum(st.mults[:r])
        m_r, m_s = st.mults[r], st.mults[s]
        col = st.group_offset(s) + (j + st.shift(r, s)) * m_s
        return _reduced(m_r, m_s, tuple(row[col:col + m_s]
                                        for row in grid[top:top + m_r]), den)

    @property
    def coeffs(self) -> dict:
        """{(r, s): (A_0, A_1, ...)}, read off the strip."""
        st = self.structure
        return {(r, s): tuple(self._cell(r, s, j) for j in range(st.depth(r, s)))
                for r, s in _block_keys(st)}

    def coefficient(self, r: int, s: int, j: int) -> ExactMatrix:
        """A_j^{rs}; indices outside [0, depth) read as the zero matrix."""
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

    def _dense_rows(self) -> tuple:
        """(rows, den) of the dense matrix rows / den: cell-row u of group r
        is the strip rows of group r moved right by u cells per block."""
        st = self.structure
        grid, den = self._strip._g, self._strip._den
        rows, top = [], 0
        for alpha_r, m_r in st.blocks:
            for u in range(alpha_r):
                rows += _cell_rows(st, grid[top:top + m_r], [u] * len(st.blocks), True)
            top += m_r
        return rows, den

    def assemble(self) -> ExactMatrix:
        """Dense n x n matrix with cell (u, v) of block (r, s) equal to
        coefficient v - u - shift(r, s).  It holds the strip's entries and
        zeros, so it is canonical over the strip's den."""
        n = self.structure.n
        rows, den = self._dense_rows()
        return ExactMatrix(n, n, tuple(rows), den)

    @classmethod
    def extract(cls, dense: ExactMatrix,
                structure: SegreStructure) -> "ToeplitzForm":
        """Read a shape-conforming dense matrix back into coefficients.

        Raises ShapeViolationError at the first dense entry, in row-major
        order, that breaks the constant-diagonal block pattern.
        """
        _require_square(structure, dense)
        n = structure.n
        grid, den = dense._g, dense._den
        rows = []
        for r, m in enumerate(structure.mults):
            top = structure.group_offset(r)
            rows += _cell_rows(structure, grid[top:top + m], [
                structure.shift(r, s) for s in range(structure.part_count)], False)
        candidate = cls._from_strip(
            structure, _reduced(len(rows), n, tuple(rows), den))
        expected = candidate.assemble()
        if expected == dense:
            return candidate
        for i in range(n):
            for j in range(n):
                if dense[i, j] != expected[i, j]:
                    raise ShapeViolationError(
                        f"entry ({i}, {j}) = {dense[i, j]} breaks the block "
                        f"Toeplitz pattern (expected {expected[i, j]})", i, j)
        return candidate

    # -- multiplicative structure ----------------------------------------

    def __mul__(self, other):
        """Product by one integer grid product: the left strip times the
        dense rows of the right operand is the product's strip."""
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        self._same_structure(other)
        st, strip = self.structure, self._strip
        right, right_den = other._dense_rows()
        return ToeplitzForm._from_strip(st, _sum_of_products(
            ((strip._g, _sparse_rows(right), strip._den * right_den),),
            strip.rows, st.n))

    def flip_transpose(self) -> "ToeplitzForm":
        """F X^T F for the backward block form F: coefficient (r, s, j)
        becomes the transpose of coefficient (s, r, j).  The strip's entries
        are permuted, so the result is canonical over the same den."""
        st = self.structure
        grid, den = self._strip._g, self._strip._den
        tops = [sum(st.mults[:r]) for r in range(st.part_count)]
        rows = []
        for r, m_r in enumerate(st.mults):
            for a in range(m_r):
                row = []
                for s, m_s in enumerate(st.mults):
                    row.extend((_Z4,) * (st.shift(r, s) * m_s))
                    # column a of each coefficient (s, r, j), read down
                    source = grid[tops[s]:tops[s] + m_s]
                    col = st.group_offset(r) + st.shift(s, r) * m_r + a
                    for c in range(col, col + st.depth(r, s) * m_r, m_r):
                        row.extend(x[c] for x in source)
                rows.append(tuple(row))
        return ToeplitzForm._from_strip(
            st, ExactMatrix(len(rows), st.n, tuple(rows), den))

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._strip.is_zero

    @property
    def is_identity(self) -> bool:
        return self == ToeplitzForm.identity(self.structure)

    @property
    def has_identity_diagonal(self) -> bool:
        """True when every leading diagonal coefficient A_0^{rr} is I."""
        return all(self._cell(r, r, 0).is_identity
                   for r in range(self.structure.part_count))


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


def commutant_dimension(structure: SegreStructure) -> int:
    """Number of free coefficients: sum over r, s of m_r m_s min(alpha_r, alpha_s)."""
    total = 0
    for r, s in _block_keys(structure):
        total += structure.mults[r] * structure.mults[s] * structure.depth(r, s)
    return total


def commutant_basis(structure: SegreStructure):
    """Parameterization of all matrices commuting with the Jordan layout.

    Returns (dimension, builder).  builder maps a sparse assignment
    {(r, s, j): m_r x m_s ExactMatrix} to the dense copy-major matrix X
    with J X = X J; omitted slots are zero.
    """
    dimension = commutant_dimension(structure)

    def builder(assignment: Mapping[tuple[int, int, int], ExactMatrix]) -> ExactMatrix:
        form = ToeplitzForm.from_sparse(structure, assignment)
        return conjugate_by_omega(form.assemble(), structure, "to_dense")

    return dimension, builder
