"""Block upper-triangular Toeplitz calculus.

Matrices commuting with a nilpotent Jordan layout become, after the
interleaving change of basis, block matrices whose (r, s) block is an
alpha_r x alpha_s grid of m_r x m_s cells, constant along cell diagonals
and zero below a leading offset.  ToeplitzForm stores one rectangular
coefficient per cell diagonal.  This module provides the exact algebra
of such forms: assembly to dense matrices and strict extraction back,
sums and products computed in coefficient space, the transpose twisted
by the backward block form, inverses of identity-diagonal forms, and
the additive weight filtration that controls nilpotency.

A product is formed once, in coefficient space, with no dense pass.  The
rule for one coefficient of a product (_product_pairs) is written once,
here; the congruence solver applies the same rule to its partial forms.
Membership of a product or inverse is checked where it is returned
(solver.verify_congruence); that the coefficient product equals the
dense product of the assemblies is a property the test suite checks.

Coordinates are 0-based throughout: group indices r, s in
[0, part_count), coefficient index j in [0, depth(r, s)).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from .errors import (
    DimensionMismatchError,
    IntegrityError,
    ParameterError,
    ShapeViolationError,
    StructureError,
)
from .forms import MultiSegreStructure, SegreStructure
from .matrices import (ExactMatrix, _sum_of_products, identity as dense_identity,
                       zeros as dense_zeros)
from .scalars import ZERO

__all__ = [
    "ToeplitzForm",
    "commutant_basis",
    "commutant_dimension",
    "conjugate_by_omega",
]


def _block_keys(structure: SegreStructure) -> Iterator[tuple[int, int]]:
    count = structure.part_count
    for r in range(count):
        for s in range(count):
            yield r, s


def _product_pairs(structure: SegreStructure, left, right,
                   r: int, s: int, j: int) -> list:
    """The nonzero term pairs (A_l^{rk}, B_{n - l}^{ks}) of coefficient
    C_j^{rs} of the product of two block Toeplitz forms A and B:
    C_j^{rs} = sum_k sum_l A_l^{rk} B_{n - l}^{ks}, with
    n = j + shift(r, s) - shift(r, k) - shift(k, s), over 0 <= l < depth(r, k)
    and 0 <= n - l < depth(k, s).

    left(r, k, l) and right(k, s, l) are only asked for in-range slots, and
    return the coefficient there or None for a zero one; right is only asked
    once its left partner is nonzero.  A j < 0 gives no pairs.
    """
    shift_rs = structure.shift(r, s)
    pairs = []
    for k in range(structure.part_count):
        n = j + shift_rs - structure.shift(r, k) - structure.shift(k, s)
        for l in range(max(0, n - structure.depth(k, s) + 1),
                       min(structure.depth(r, k), n + 1)):
            lhs = left(r, k, l)
            if lhs is None or lhs.is_zero:
                continue
            rhs = right(k, s, n - l)
            if rhs is not None and not rhs.is_zero:
                pairs.append((lhs, rhs))
    return pairs


class ToeplitzForm:
    """Coefficient family {A_j^{rs}} of a block Toeplitz matrix.

    Block (r, s) holds depth(r, s) = min(alpha_r, alpha_s) coefficients
    of size m_r x m_s; its dense cell at grid position (u, v) equals
    A_{v - u - shift(r, s)}, with out-of-range indices reading as zero.
    """

    # _member_of: see ExactMatrix; on a form it means F X^T F X = I was
    # checked exactly for that structure.
    __slots__ = ("structure", "coeffs", "_member_of")

    def __init__(self, structure: SegreStructure, coeffs: Mapping):
        if not isinstance(structure, SegreStructure):
            raise StructureError("ToeplitzForm needs a single-eigenvalue structure")
        normalized: dict[tuple[int, int], tuple[ExactMatrix, ...]] = {}
        seen = set()
        for key in coeffs:
            seen.add(key)
        for r, s in _block_keys(structure):
            if (r, s) not in seen:
                raise StructureError(f"missing coefficient list for block ({r}, {s})")
            entry = tuple(coeffs[(r, s)])
            depth = structure.depth(r, s)
            if len(entry) != depth:
                raise StructureError(
                    f"block ({r}, {s}) needs {depth} coefficients, got {len(entry)}")
            m_r = structure.mults[r]
            m_s = structure.mults[s]
            for j, mat in enumerate(entry):
                if not isinstance(mat, ExactMatrix):
                    raise StructureError(
                        f"coefficient ({r}, {s}, {j}) is not an ExactMatrix")
                if mat.rows != m_r or mat.cols != m_s:
                    raise DimensionMismatchError(
                        f"coefficient ({r}, {s}, {j}) must be {m_r}x{m_s}, "
                        f"got {mat.rows}x{mat.cols}")
            normalized[(r, s)] = entry
        if len(seen) != len(normalized):
            extra = sorted(seen - set(normalized))
            raise StructureError(f"unknown block keys {extra}")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "coeffs", normalized)

    def __setattr__(self, name, value):
        raise AttributeError("ToeplitzForm is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def build(cls, structure: SegreStructure,
              cell: Callable[[int, int, int], ExactMatrix]) -> "ToeplitzForm":
        """Form with coefficient (r, s, j) = cell(r, s, j)."""
        coeffs = {}
        for r, s in _block_keys(structure):
            coeffs[(r, s)] = [cell(r, s, j) for j in range(structure.depth(r, s))]
        return cls(structure, coeffs)

    @classmethod
    def zero(cls, structure: SegreStructure) -> "ToeplitzForm":
        mults = structure.mults
        return cls.build(structure, lambda r, s, j: dense_zeros(mults[r], mults[s]))

    @classmethod
    def identity(cls, structure: SegreStructure) -> "ToeplitzForm":
        mults = structure.mults

        def cell(r, s, j):
            if r == s and j == 0:
                return dense_identity(mults[r])
            return dense_zeros(mults[r], mults[s])

        return cls.build(structure, cell)

    @classmethod
    def from_sparse(cls, structure: SegreStructure,
                    entries: Mapping[tuple[int, int, int], ExactMatrix]
                    ) -> "ToeplitzForm":
        """Form with the given (r, s, j) -> matrix entries, zeros elsewhere."""
        count = structure.part_count
        for (r, s, j) in entries:
            if not (0 <= r < count and 0 <= s < count):
                raise ParameterError(f"block index ({r}, {s}) out of range")
            if not (0 <= j < structure.depth(r, s)):
                raise ParameterError(
                    f"coefficient index {j} out of range for block ({r}, {s})")
        mults = structure.mults

        def cell(r, s, j):
            return entries.get((r, s, j), dense_zeros(mults[r], mults[s]))

        return cls.build(structure, cell)

    # -- access -------------------------------------------------------

    def coefficient(self, r: int, s: int, j: int) -> ExactMatrix:
        """A_j^{rs}; indices outside [0, depth) read as the zero matrix."""
        if 0 <= j < self.structure.depth(r, s):
            return self.coeffs[(r, s)][j]
        return dense_zeros(self.structure.mults[r], self.structure.mults[s])

    def with_coefficient(self, r: int, s: int, j: int,
                         mat: ExactMatrix) -> "ToeplitzForm":
        if not (0 <= j < self.structure.depth(r, s)):
            raise ParameterError(
                f"coefficient index {j} out of range for block ({r}, {s})")
        coeffs = dict(self.coeffs)
        entry = list(coeffs[(r, s)])
        entry[j] = mat
        coeffs[(r, s)] = tuple(entry)
        return ToeplitzForm(self.structure, coeffs)

    def __eq__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        return self.structure == other.structure and self.coeffs == other.coeffs

    def __repr__(self):
        nonzero = sum(1 for entry in self.coeffs.values()
                      for mat in entry if not mat.is_zero)
        return (f"ToeplitzForm(structure={self.structure!r}, "
                f"nonzero_coefficients={nonzero})")

    # -- linear structure ----------------------------------------------

    def _zip(self, other: "ToeplitzForm", op) -> "ToeplitzForm":
        if self.structure != other.structure:
            raise DimensionMismatchError("forms live on different structures")
        coeffs = {}
        for key, entry in self.coeffs.items():
            coeffs[key] = [op(a, b) for a, b in zip(entry, other.coeffs[key])]
        return ToeplitzForm(self.structure, coeffs)

    def __add__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        coeffs = {key: [-mat for mat in entry] for key, entry in self.coeffs.items()}
        return ToeplitzForm(self.structure, coeffs)

    def scale(self, scalar) -> "ToeplitzForm":
        coeffs = {key: [mat.scale(scalar) for mat in entry]
                  for key, entry in self.coeffs.items()}
        return ToeplitzForm(self.structure, coeffs)

    # -- dense bridge ---------------------------------------------------

    def assemble(self) -> ExactMatrix:
        """Dense n x n matrix with cell (u, v) of block (r, s) equal to
        coefficient v - u - shift(r, s)."""
        st = self.structure
        n = st.n
        grid = [[ZERO] * n for _ in range(n)]
        for r, s in _block_keys(st):
            alpha_r, m_r = st.blocks[r]
            alpha_s, m_s = st.blocks[s]
            shift = st.shift(r, s)
            depth = st.depth(r, s)
            row0 = st.group_offset(r)
            col0 = st.group_offset(s)
            for u in range(alpha_r):
                for v in range(alpha_s):
                    j = v - u - shift
                    if not (0 <= j < depth):
                        continue
                    mat = self.coeffs[(r, s)][j]
                    if mat.is_zero:
                        continue
                    for i in range(m_r):
                        dst = grid[row0 + u * m_r + i]
                        for l in range(m_s):
                            dst[col0 + v * m_s + l] = mat[i, l]
        return ExactMatrix.from_rows(grid)

    @classmethod
    def extract(cls, dense: ExactMatrix,
                structure: SegreStructure) -> "ToeplitzForm":
        """Read a shape-conforming dense matrix back into coefficients.

        Raises ShapeViolationError at the first dense entry, in row-major
        order, that breaks the constant-diagonal block pattern.
        """
        n = structure.n
        if dense.rows != n or dense.cols != n:
            raise DimensionMismatchError(
                f"matrix is {dense.rows}x{dense.cols}, structure needs {n}x{n}")
        coeffs = {}
        for r, s in _block_keys(structure):
            m_r = structure.mults[r]
            m_s = structure.mults[s]
            shift = structure.shift(r, s)
            row0 = structure.group_offset(r)
            col0 = structure.group_offset(s)
            entry = []
            # canonical cell for coefficient j is (u, v) = (0, j + shift)
            for j in range(structure.depth(r, s)):
                v = j + shift
                entry.append(ExactMatrix.build(
                    m_r, m_s,
                    lambda i, l: dense[row0 + i, col0 + v * m_s + l]))
            coeffs[(r, s)] = entry
        candidate = cls(structure, coeffs)
        expected = candidate.assemble()
        for i in range(n):
            for j in range(n):
                if dense[i, j] != expected[i, j]:
                    raise ShapeViolationError(
                        f"entry ({i}, {j}) = {dense[i, j]} breaks the block "
                        f"Toeplitz pattern (expected {expected[i, j]})", i, j)
        return candidate

    # -- multiplicative structure ----------------------------------------

    def __mul__(self, other):
        """Product in coefficient space: each C_j^{rs} is one sum, on the
        integer kernel of matrices.py, of the term pairs _product_pairs
        lists."""
        if not isinstance(other, ToeplitzForm):
            return NotImplemented
        st = self.structure
        if st != other.structure:
            raise DimensionMismatchError("forms live on different structures")
        mults = st.mults

        def left(r, k, l):
            return self.coeffs[(r, k)][l]

        def right(k, s, l):
            return other.coeffs[(k, s)][l]

        coeffs = {}
        for r, s in _block_keys(st):
            coeffs[(r, s)] = [
                _sum_of_products(_product_pairs(st, left, right, r, s, j),
                                 mults[r], mults[s])
                for j in range(st.depth(r, s))]
        return ToeplitzForm(st, coeffs)

    def flip_transpose(self) -> "ToeplitzForm":
        """F X^T F for the backward block form F: coefficient (r, s, j)
        becomes the transpose of coefficient (s, r, j)."""
        return ToeplitzForm.build(
            self.structure, lambda r, s, j: self.coeffs[(s, r)][j].transpose())

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(mat.is_zero for entry in self.coeffs.values() for mat in entry)

    @property
    def is_identity(self) -> bool:
        return self == ToeplitzForm.identity(self.structure)

    @property
    def has_identity_diagonal(self) -> bool:
        """True when every leading diagonal coefficient A_0^{rr} is I."""
        return all(self.coeffs[(r, r)][0].is_identity
                   for r in range(self.structure.part_count))

    # -- weight filtration -------------------------------------------------

    def weight(self, r: int, s: int, j: int) -> int:
        """Filtration weight of coefficient slot (r, s, j): j + shift(r, s).

        Weights add under multiplication and never exceed alpha_1 - 1, so
        a form whose nonzero coefficients all have weight >= 1 is nilpotent
        of index at most alpha_1.
        """
        return j + self.structure.shift(r, s)

    def min_weight(self) -> int | None:
        """Smallest weight carrying a nonzero coefficient; None if zero."""
        best = None
        for (r, s), entry in self.coeffs.items():
            for j, mat in enumerate(entry):
                if mat.is_zero:
                    continue
                w = self.weight(r, s, j)
                if best is None or w < best:
                    best = w
        return best

    def weight_component(self, w: int) -> "ToeplitzForm":
        """Restriction to coefficient slots of weight exactly w."""
        mults = self.structure.mults

        def cell(r, s, j):
            if self.weight(r, s, j) == w:
                return self.coeffs[(r, s)][j]
            return dense_zeros(mults[r], mults[s])

        return ToeplitzForm.build(self.structure, cell)

    # -- inverse ------------------------------------------------------------

    def neumann_inverse(self) -> "ToeplitzForm":
        """Inverse of an identity-diagonal form by the alternating series
        I - N + N^2 - ... with N = self - I, iterated until the power of N
        vanishes exactly.

        The series always terminates within n = dim steps; weight counting
        alone would allow alpha_1 terms only when N has no weight-0 part,
        and products of weight-0 coupling cells can genuinely survive past
        that, so the loop keys on the computed power, not on alpha_1.
        """
        if not self.has_identity_diagonal:
            raise ParameterError(
                "series inverse requires identity diagonal coefficients")
        st = self.structure
        eye = ToeplitzForm.identity(st)
        nilpotent = self - eye
        inverse = eye
        term = nilpotent
        sign = -1
        steps = 0
        while not term.is_zero:
            steps += 1
            if steps > st.n:
                raise IntegrityError(
                    "series inverse failed to terminate within dense size")
            inverse = inverse + term if sign > 0 else inverse - term
            term = term * nilpotent
            sign = -sign
        # N^k = 0 exactly here, so (I + N) sum_{j<k} (-N)^j = I - (-N)^k = I.
        return inverse


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _omega_indices(structure) -> list[int]:
    """Omega as indices: Omega e_c = e_{perm[c]}.  Within each eigenvalue row
    (alpha, m), position-major index i*m + k is copy-major index k*alpha + i."""
    parts = (structure.parts if isinstance(structure, MultiSegreStructure)
             else (structure,))
    perm = []
    offset = 0
    for part in parts:
        for alpha, m in part.blocks:
            perm.extend(offset + k * alpha + i
                        for i in range(alpha) for k in range(m))
            offset += alpha * m
    return perm


def conjugate_by_omega(dense: ExactMatrix, structure: SegreStructure,
                       direction: str) -> ExactMatrix:
    """Change of basis by the interleaving permutation Omega.

    to_toeplitz: Omega^T X Omega, copy-major to position-major;
    to_dense:    Omega X Omega^T, the inverse map.
    Omega is applied as an index permutation, without arithmetic.
    """
    n = structure.n
    if dense.rows != n or dense.cols != n:
        raise DimensionMismatchError(
            f"matrix is {dense.rows}x{dense.cols}, structure needs {n}x{n}")
    perm = _omega_indices(structure)
    if direction == "to_dense":
        inverse = [0] * n
        for c, r in enumerate(perm):
            inverse[r] = c
        perm = inverse
    elif direction != "to_toeplitz":
        raise ParameterError(f"unknown direction {direction!r}")
    return ExactMatrix.build(n, n, lambda a, b: dense[perm[a], perm[b]])


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
