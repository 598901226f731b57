"""General solution of the twisted congruence F X^T F B X = C in block
Toeplitz coordinates.

B and C are block-diagonal forms with symmetric coefficients and
nonsingular leading blocks.  The solution set is parameterized by
FreeParams: one leading diagonal seed per group (any exact solution of
C_0^r = A^T B_0^r A), one skew matrix per higher diagonal coefficient,
and every sub-diagonal block coefficient free.  The sweep determines
all remaining coefficients in the order offset j ascending, block
distance p = 0 first and then ascending, and verifies the full
congruence on the result before returning it.  Each step reads one
coefficient of F X^T F B X off the partial solution, by the product rule
of toeplitz._product_pairs applied twice: to B and X, then to F X^T F
and B X.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from .errors import (
    IntegrityError,
    ParameterError,
    SeedConstraintError,
    SequencingError,
    SingularMatrixError,
    StructureError,
)
from .forms import SegreStructure
from .matrices import (ExactMatrix, _mark_member, _sum_of_products,
                       identity as dense_identity, zeros as dense_zeros)
from .rng import RandomSource
from .scalars import HALF
from .toeplitz import ToeplitzForm, _product_pairs

__all__ = [
    "CongruenceData",
    "FreeParams",
    "free_parameter_count",
    "random_free_params",
    "solution_dimension",
    "solve_congruence",
    "verify_congruence",
]


def _check_side(structure: SegreStructure, coeffs, label: str):
    if len(coeffs) != structure.part_count:
        raise StructureError(
            f"{label} needs one coefficient list per group, got {len(coeffs)}")
    out = []
    for r, entry in enumerate(coeffs):
        alpha, m = structure.blocks[r]
        entry = tuple(entry)
        if len(entry) != alpha:
            raise StructureError(
                f"{label} group {r} needs {alpha} coefficients, got {len(entry)}")
        for j, mat in enumerate(entry):
            if not isinstance(mat, ExactMatrix) or mat.rows != m or mat.cols != m:
                raise StructureError(
                    f"{label} coefficient ({r}, {j}) must be a {m}x{m} ExactMatrix")
            if not mat.is_symmetric:
                raise ParameterError(
                    f"{label} coefficient ({r}, {j}) is not symmetric")
        if entry[0].rank() != m:
            raise SingularMatrixError(
                f"{label} leading coefficient of group {r} is singular")
        out.append(entry)
    return tuple(out)


class CongruenceData:
    """Right-hand data of the congruence: block-diagonal forms B and C.

    b_coeffs[r][j] and c_coeffs[r][j] are the symmetric m_r x m_r
    coefficients of group r at offset j; leading coefficients must be
    nonsingular.
    """

    __slots__ = ("structure", "b_coeffs", "c_coeffs")

    def __init__(self, structure: SegreStructure,
                 b_coeffs: Sequence[Sequence[ExactMatrix]],
                 c_coeffs: Sequence[Sequence[ExactMatrix]]):
        if not isinstance(structure, SegreStructure):
            raise StructureError("CongruenceData needs a single-eigenvalue structure")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "b_coeffs", _check_side(structure, b_coeffs, "B"))
        object.__setattr__(self, "c_coeffs", _check_side(structure, c_coeffs, "C"))

    def __setattr__(self, name, value):
        raise AttributeError("CongruenceData is immutable")

    @classmethod
    def identity(cls, structure: SegreStructure) -> "CongruenceData":
        """B = C = the identity form (leading I, higher coefficients 0),
        built and checked once per structure."""
        return _identity_data(structure)

    def b(self, r: int, j: int) -> ExactMatrix:
        """B_j^r, zero-padded outside [0, alpha_r)."""
        entry = self.b_coeffs[r]
        if 0 <= j < len(entry):
            return entry[j]
        m = self.structure.mults[r]
        return dense_zeros(m, m)

    def c(self, r: int, j: int) -> ExactMatrix:
        entry = self.c_coeffs[r]
        if 0 <= j < len(entry):
            return entry[j]
        m = self.structure.mults[r]
        return dense_zeros(m, m)

    def _side_form(self, coeffs) -> ToeplitzForm:
        st = self.structure
        mults = st.mults

        def cell(r, s, j):
            if r == s:
                return coeffs[r][j]
            return dense_zeros(mults[r], mults[s])

        return ToeplitzForm.build(st, cell)

    def b_form(self) -> ToeplitzForm:
        return self._side_form(self.b_coeffs)

    def c_form(self) -> ToeplitzForm:
        return self._side_form(self.c_coeffs)

    @property
    def sides_equal(self) -> bool:
        return self.b_coeffs == self.c_coeffs

    @property
    def b_is_identity(self) -> bool:
        """True when B is the identity form (leading I, higher coefficients 0)."""
        return all(entry[0].is_identity and all(mat.is_zero for mat in entry[1:])
                   for entry in self.b_coeffs)

    @property
    def is_identity(self) -> bool:
        """True when B = C = the identity form."""
        return self.sides_equal and self.b_is_identity

    def __eq__(self, other):
        if not isinstance(other, CongruenceData):
            return NotImplemented
        return (self.structure == other.structure
                and self.b_coeffs == other.b_coeffs
                and self.c_coeffs == other.c_coeffs)


@lru_cache(maxsize=4)
def _identity_data(structure: SegreStructure) -> CongruenceData:
    side = []
    for alpha, m in structure.blocks:
        side.append([dense_identity(m)] + [dense_zeros(m, m)] * (alpha - 1))
    return CongruenceData(structure, side, side)


class FreeParams:
    """Free variables of the general solution.

    sub_blocks: (r, s, j) -> m_r x m_s matrix for r > s, 0 <= j < alpha_r;
    diag_seeds: per group r, the leading diagonal coefficient;
    skews:      (r, j) -> skew m_r x m_r matrix for 1 <= j < alpha_r.
    """

    __slots__ = ("sub_blocks", "diag_seeds", "skews")

    def __init__(self, sub_blocks: Mapping, diag_seeds: Sequence[ExactMatrix],
                 skews: Mapping):
        sub = dict(sub_blocks)
        skw = dict(skews)
        for key, mat in skw.items():
            if not isinstance(mat, ExactMatrix) or not mat.is_skew:
                raise ParameterError(f"skew parameter {key} is not skew-symmetric")
        object.__setattr__(self, "sub_blocks", sub)
        object.__setattr__(self, "diag_seeds", tuple(diag_seeds))
        object.__setattr__(self, "skews", skw)

    def __setattr__(self, name, value):
        raise AttributeError("FreeParams is immutable")

    @classmethod
    def zero(cls, structure: SegreStructure) -> "FreeParams":
        """Identity seeds, zero sub-blocks, zero skews."""
        sub = {}
        skews = {}
        count = structure.part_count
        for r in range(count):
            alpha_r, m_r = structure.blocks[r]
            for j in range(1, alpha_r):
                skews[(r, j)] = dense_zeros(m_r, m_r)
            for s in range(r):
                for j in range(alpha_r):
                    sub[(r, s, j)] = dense_zeros(m_r, structure.mults[s])
        seeds = [dense_identity(m) for _, m in structure.blocks]
        return cls(sub, seeds, skews)

    def validate_for(self, structure: SegreStructure):
        """Exact completeness check against the structure."""
        count = structure.part_count
        if len(self.diag_seeds) != count:
            raise ParameterError(
                f"need {count} diagonal seeds, got {len(self.diag_seeds)}")
        want_sub = set()
        want_skew = set()
        for r in range(count):
            alpha_r, m_r = structure.blocks[r]
            seed = self.diag_seeds[r]
            if seed.rows != m_r or seed.cols != m_r:
                raise ParameterError(f"seed {r} must be {m_r}x{m_r}")
            for j in range(1, alpha_r):
                want_skew.add((r, j))
            for s in range(r):
                for j in range(alpha_r):
                    want_sub.add((r, s, j))
        if set(self.sub_blocks) != want_sub:
            missing = sorted(want_sub - set(self.sub_blocks))
            extra = sorted(set(self.sub_blocks) - want_sub)
            raise ParameterError(
                f"sub-block keys off: missing {missing}, extra {extra}")
        if set(self.skews) != want_skew:
            missing = sorted(want_skew - set(self.skews))
            extra = sorted(set(self.skews) - want_skew)
            raise ParameterError(f"skew keys off: missing {missing}, extra {extra}")
        for (r, s, j), mat in self.sub_blocks.items():
            if mat.rows != structure.mults[r] or mat.cols != structure.mults[s]:
                raise ParameterError(f"sub-block ({r}, {s}, {j}) has wrong shape")
        for (r, j), mat in self.skews.items():
            if mat.rows != structure.mults[r] or mat.cols != structure.mults[r]:
                raise ParameterError(f"skew ({r}, {j}) has wrong shape")


# ---------------------------------------------------------------------------
# accumulators
# ---------------------------------------------------------------------------


def _lookup(partial: Mapping, skip, r: int, s: int, j: int):
    # the slot `skip` reads as zero; every other slot must be determined
    if (r, s, j) == skip:
        return None
    try:
        return partial[(r, s, j)]
    except KeyError:
        raise SequencingError(
            f"coefficient ({r}, {s}, {j}) referenced before it is determined"
        ) from None


def _phi(data: CongruenceData, partial: Mapping, n: int, k: int, s: int,
         skip) -> ExactMatrix:
    """Coefficient (k, s, n) of B X, the product rule on the block-diagonal
    B and the partial X: sum_l B_l^k A_{n-l}^{ks}; zero when n < 0."""
    st = data.structure
    pairs = _product_pairs(
        st, lambda a, b, l: data.b_coeffs[a][l] if a == b else None,
        lambda a, b, l: _lookup(partial, skip, a, b, l), k, s, n)
    return _sum_of_products(pairs, st.mults[k], st.mults[s])


def _rhs_without(data: CongruenceData, partial: Mapping, r: int, s: int, j: int,
                 skip) -> ExactMatrix:
    """Coefficient (r, s, j) of F X^T F B X with the slot `skip` read as zero:
    the product rule on F X^T F, whose coefficient (r, k, u) is
    (A_u^{kr})^T, and B X (_phi)."""
    st = data.structure

    def flipped(a, b, u):
        mat = _lookup(partial, skip, b, a, u)
        return None if mat is None or mat.is_zero else mat.transpose()

    pairs = _product_pairs(
        st, flipped, lambda a, b, n: _phi(data, partial, n, a, b, skip),
        r, s, j)
    return _sum_of_products(pairs, st.mults[r], st.mults[s])


# ---------------------------------------------------------------------------
# dimension bookkeeping
# ---------------------------------------------------------------------------


def solution_dimension(structure: SegreStructure) -> int:
    """Dimension of the solution space:
    sum_r alpha_r m_r ((m_r - 1)/2 + sum_{s<r} m_s)."""
    total = 0
    below = 0
    for alpha, m in structure.blocks:
        total += alpha * m * (m - 1) // 2 + alpha * m * below
        below += m
    return total


def free_parameter_count(structure: SegreStructure) -> dict:
    """Free entries by kind; their total plus the seed manifolds equals
    solution_dimension."""
    sub = 0
    skews = 0
    seed_manifold = 0
    below = 0
    for alpha, m in structure.blocks:
        sub += alpha * m * below
        skews += (alpha - 1) * m * (m - 1) // 2
        seed_manifold += m * (m - 1) // 2
        below += m
    return {"sub_blocks": sub, "skews": skews, "seed_manifold": seed_manifold}


# ---------------------------------------------------------------------------
# solve and verify
# ---------------------------------------------------------------------------


def solve_congruence(data: CongruenceData, params: FreeParams) -> ToeplitzForm:
    """Sweep out the unique solution determined by the free parameters.

    Offsets j ascend; within an offset the diagonal blocks come first
    (distance p = 0), then the super-diagonal distances ascend.  Every
    quantity a step reads is determined by earlier steps, and the result
    is verified against the full congruence before it is returned.
"""
    st = data.structure
    params.validate_for(st)
    count = st.part_count
    coeffs: dict[tuple[int, int, int], ExactMatrix] = {}

    ginv = []
    for r in range(count):
        seed = params.diag_seeds[r]
        if seed.transpose() * data.b(r, 0) * seed != data.c(r, 0):
            raise SeedConstraintError(
                f"seed {r} does not satisfy the leading congruence "
                "C_0 = A^T B_0 A")
        coeffs[(r, r, 0)] = seed
        c0 = data.c(r, 0)
        ginv.append(seed if c0.is_identity else seed * c0.inverse())

    for key, mat in params.sub_blocks.items():
        coeffs[key] = mat

    for j in range(st.alphas[0]):
        for r in range(count):
            # p = 0: diagonal coefficient at offset j >= 1
            if 1 <= j < st.alphas[r]:
                d = _rhs_without(data, coeffs, r, r, j, (r, r, j))
                m = data.c(r, j) - d
                if not m.is_symmetric:
                    raise IntegrityError(
                        f"diagonal step ({r}, {j}) lost symmetry")
                coeffs[(r, r, j)] = ginv[r] * (m.scale(HALF) + params.skews[(r, j)])
        for p in range(1, count):
            for r in range(count - p):
                s = r + p
                if j < st.alphas[s]:
                    d = _rhs_without(data, coeffs, r, s, j, (r, s, j))
                    coeffs[(r, s, j)] = -(ginv[r] * d)

    try:
        solution = ToeplitzForm.build(st, lambda r, s, j: coeffs[(r, s, j)])
    except KeyError as missing:  # pragma: no cover - sweep covers all slots
        raise IntegrityError(f"sweep left slot {missing} undetermined") from None

    ok, report = verify_congruence(data, solution)
    if not ok:  # pragma: no cover - the sweep enforces every block equation
        raise IntegrityError(f"solver output failed the congruence: {report}")
    return solution


def verify_congruence(data: CongruenceData,
                      x: ToeplitzForm) -> tuple[bool, str]:
    """Exact check of F X^T F B X = C.

    Returns (True, "") on success, else (False, report) naming the first
    mismatching block coefficient in (r, s, offset) order.  It always
    computes (when B is the identity form, B X is X itself and is not
    formed); when B = C = I a success marks x as a verified member of its
    structure's group, so that group operations need not check it again.
    """
    if x.structure != data.structure:
        raise StructureError("form and data live on different structures")
    bx = x if data.b_is_identity else data.b_form() * x
    lhs = x.flip_transpose() * bx
    rhs = data.c_form()
    st = data.structure
    for r in range(st.part_count):
        for s in range(st.part_count):
            for j in range(st.depth(r, s)):
                got = lhs.coefficient(r, s, j)
                want = rhs.coefficient(r, s, j)
                if got != want:
                    return False, (
                        f"block ({r}, {s}) coefficient {j}: "
                        f"got {got.to_lists()}, want {want.to_lists()}")
    if data.is_identity:
        _mark_member(x, st)
    return True, ""


def random_free_params(data: CongruenceData, rnd: RandomSource,
                       seeds: Sequence[ExactMatrix] | None = None,
                       **scalar_kw) -> FreeParams:
    """Draw a complete FreeParams from one deterministic stream.

    Seeds default to twisted Cayley transforms solving A^T B_0 A = B_0,
    which is only a valid seed set when the leading coefficients of B
    and C agree; callers must supply exact seeds otherwise.
    """
    st = data.structure
    count = st.part_count
    if seeds is None:
        for r in range(count):
            if data.b(r, 0) != data.c(r, 0):
                raise ParameterError(
                    "leading coefficients differ; supply explicit seeds")
        seeds = [rnd.twisted_orthogonal(st.mults[r], data.b(r, 0), **scalar_kw)
                 for r in range(count)]
    sub = {}
    skews = {}
    for r in range(count):
        alpha_r, m_r = st.blocks[r]
        for j in range(1, alpha_r):
            skews[(r, j)] = rnd.skew(m_r, **scalar_kw)
        for s in range(r):
            for j in range(alpha_r):
                sub[(r, s, j)] = rnd.matrix(m_r, st.mults[s], **scalar_kw)
    return FreeParams(sub, seeds, skews)
