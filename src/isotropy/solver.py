"""General solution of the twisted congruence F X^T F B X = C in block
Toeplitz coordinates.

B and C are block-diagonal forms with symmetric coefficients and
nonsingular leading blocks.  The solution set is parameterized by
FreeParams: one leading diagonal seed per group (any exact solution of
C_0^r = A^T B_0^r A), one skew matrix per higher diagonal coefficient,
and every sub-diagonal block coefficient free.  The sweep determines
all remaining coefficients in the order offset j ascending, block
distance p = 0 first and then ascending (_sweep); solve_congruence
verifies the full congruence on the result before returning it, while
sampling checks the dense matrix it returns instead.  Each step reads one
coefficient of F X^T F B X off the partial solution, by the rule for one
coefficient of a form product (_product_pairs, the sweep's alone) applied
twice: to B and X, then to F X^T F and B X.  When B is the identity form
(every sample and every gen_W / gen_V), B X is X, and the second
application reads X directly.  Whole forms (the verification's F X^T F X)
are multiplied by ToeplitzForm.__mul__, one integer product each.

CongruenceData checks B and C and lays out their forms once, when it is
made; constant_data is the one constructor of the self-congruence data
B = C = diag(B_r, 0, ..., 0), cached per structure and diagonal blocks.
_require_congruence is the one "verify, else raise" of the package for
forms: the solver, the generators and the group operations all call it.
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
from .matrices import (ExactMatrix, _is_member, _mark_member,
                       _sum_of_products, identity as dense_identity,
                       zeros as dense_zeros)
from .rng import RandomSource
from .scalars import HALF
from .toeplitz import ToeplitzForm

__all__ = [
    "CongruenceData",
    "FreeParams",
    "constant_data",
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


def _diagonal_form(structure: SegreStructure, side) -> ToeplitzForm:
    mults = structure.mults
    return ToeplitzForm.build(structure, lambda r, s, j: (
        side[r][j] if r == s else dense_zeros(mults[r], mults[s])))


class CongruenceData:
    """Right-hand data of the congruence: block-diagonal forms B and C.

    b_coeffs[r][j] and c_coeffs[r][j] are the symmetric m_r x m_r
    coefficients of group r at offset j; leading coefficients must be
    nonsingular.  b_is_identity is True when B is the identity form
    (leading I, higher coefficients 0); B X is then X itself.  Both sides
    are checked and laid out as forms once, here; equal sides are stored
    once, as one coefficient tuple and one form.
    """

    __slots__ = ("structure", "b_coeffs", "c_coeffs", "b_is_identity",
                 "_b_form", "_c_form")

    def __init__(self, structure: SegreStructure,
                 b_coeffs: Sequence[Sequence[ExactMatrix]],
                 c_coeffs: Sequence[Sequence[ExactMatrix]]):
        if not isinstance(structure, SegreStructure):
            raise StructureError("CongruenceData needs a single-eigenvalue structure")
        b = _check_side(structure, b_coeffs, "B")
        c = b if c_coeffs is b_coeffs else _check_side(structure, c_coeffs, "C")
        if c == b:
            c = b
        b_form = _diagonal_form(structure, b)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "b_coeffs", b)
        object.__setattr__(self, "c_coeffs", c)
        object.__setattr__(self, "b_is_identity", all(
            entry[0].is_identity and all(mat.is_zero for mat in entry[1:])
            for entry in b))
        object.__setattr__(self, "_b_form", b_form)
        object.__setattr__(self, "_c_form",
                           b_form if c is b else _diagonal_form(structure, c))

    def __setattr__(self, name, value):
        raise AttributeError("CongruenceData is immutable")

    @classmethod
    def identity(cls, structure: SegreStructure) -> "CongruenceData":
        """B = C = the identity form (leading I, higher coefficients 0)."""
        return constant_data(structure)

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

    def b_form(self) -> ToeplitzForm:
        return self._b_form

    def c_form(self) -> ToeplitzForm:
        return self._c_form

    @property
    def sides_equal(self) -> bool:
        return self.c_coeffs is self.b_coeffs

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


def constant_data(structure: SegreStructure,
                  b_diag: Sequence[ExactMatrix] | None = None) -> CongruenceData:
    """Self-congruence data with constant diagonal blocks: B = C, group r
    coefficients (B_r, 0, ..., 0); without b_diag, B_r = I and this is the
    identity data.  Built and checked once per structure and blocks."""
    return _constant_data(structure, None if b_diag is None else tuple(b_diag))


@lru_cache(maxsize=4)
def _constant_data(structure: SegreStructure, b_diag) -> CongruenceData:
    if b_diag is not None:
        if len(b_diag) != structure.part_count:
            raise ParameterError(
                f"need {structure.part_count} diagonal blocks, got {len(b_diag)}")
        for r, mat in enumerate(b_diag):
            m = structure.mults[r]
            if mat.rows != m or mat.cols != m:
                raise ParameterError(f"diagonal block {r} must be {m}x{m}")
            if not mat.is_symmetric:
                raise ParameterError(f"diagonal block {r} is not symmetric")
            if mat.rank() != m:
                raise ParameterError(f"diagonal block {r} is singular")
    side = [[dense_identity(m) if b_diag is None else b_diag[r]]
            + [dense_zeros(m, m)] * (alpha - 1)
            for r, (alpha, m) in enumerate(structure.blocks)]
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


def _product_pairs(structure: SegreStructure, left, right,
                   r: int, s: int, j: int) -> list:
    """The nonzero term pairs (A_l^{rk}, B_{n - l}^{ks}) of coefficient
    C_j^{rs} of the product of two block Toeplitz forms A and B, the
    sweep's rule for one coefficient of a partial product:
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
    (A_u^{kr})^T, and B X (_phi), read off X itself when B = I."""
    st = data.structure

    def flipped(a, b, u):
        mat = _lookup(partial, skip, b, a, u)
        return None if mat is None or mat.is_zero else mat.transpose()

    if data.b_is_identity:
        def bx(a, b, n):
            return _lookup(partial, skip, a, b, n)
    else:
        def bx(a, b, n):
            return _phi(data, partial, n, a, b, skip)

    pairs = _product_pairs(st, flipped, bx, r, s, j)
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


def _sweep(data: CongruenceData, params: FreeParams) -> ToeplitzForm:
    """The unique solution determined by the free parameters, unchecked.

    Offsets j ascend; within an offset the diagonal blocks come first
    (distance p = 0), then the super-diagonal distances ascend.  Every
    quantity a step reads is determined by earlier steps.  The caller
    checks what it returns: solve_congruence the form itself, sampling
    the dense matrix it maps the form to.
    """
    st = data.structure
    params.validate_for(st)
    count = st.part_count
    coeffs: dict[tuple[int, int, int], ExactMatrix] = {}

    # ginv[r] = A_0^r (C_0^r)^-1, None when it is the identity: every
    # gen_W and every gen_V without diagonal blocks, whose products by it
    # are then skipped
    ginv = []
    for r in range(count):
        seed = params.diag_seeds[r]
        c0 = data.c(r, 0)
        lead = seed.transpose() * (
            seed if data.b_is_identity else data.b(r, 0) * seed)
        if lead != c0:
            raise SeedConstraintError(
                f"seed {r} does not satisfy the leading congruence "
                "C_0 = A^T B_0 A")
        coeffs[(r, r, 0)] = seed
        g = seed if c0.is_identity else seed * c0.inverse()
        ginv.append(None if g.is_identity else g)

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
                m = m.scale(HALF) + params.skews[(r, j)]
                coeffs[(r, r, j)] = m if ginv[r] is None else ginv[r] * m
        for p in range(1, count):
            for r in range(count - p):
                s = r + p
                if j < st.alphas[s]:
                    d = _rhs_without(data, coeffs, r, s, j, (r, s, j))
                    coeffs[(r, s, j)] = -d if ginv[r] is None else -(ginv[r] * d)

    try:
        solution = ToeplitzForm.build(st, lambda r, s, j: coeffs[(r, s, j)])
    except KeyError as missing:  # pragma: no cover - sweep covers all slots
        raise IntegrityError(f"sweep left slot {missing} undetermined") from None
    return solution


def solve_congruence(data: CongruenceData, params: FreeParams) -> ToeplitzForm:
    """Sweep out the unique solution determined by the free parameters
    (_sweep) and verify it against the full congruence, once, before it is
    returned."""
    solution = _sweep(data, params)
    _require_congruence(data, solution, IntegrityError,
                        "solver output failed the congruence: ")
    return solution


def verify_congruence(data: CongruenceData,
                      x: ToeplitzForm) -> tuple[bool, str]:
    """Exact check of F X^T F B X = C.

    Returns (True, "") on success, else (False, report) naming the first
    mismatching block coefficient in (r, s, offset) order.  It always
    computes (when B is the identity form, B X is X itself and is not
    formed) and builds no form of B or C: data laid them out once.  When
    B = C = I a success marks x as a verified member of its structure's
    group, so that group operations need not check it again.
    """
    if x.structure != data.structure:
        raise StructureError("form and data live on different structures")
    bx = x if data.b_is_identity else data.b_form() * x
    lhs = x.flip_transpose() * bx
    rhs = data.c_form()
    st = data.structure
    if lhs != rhs:
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


def _require_congruence(data: CongruenceData, x: ToeplitzForm, error,
                        prefix: str):
    """Raise error(prefix + report) unless x solves the congruence.  A form
    already verified as a member of the identity data's group is not
    checked again."""
    if data.is_identity and _is_member(x, data.structure):
        return
    ok, report = verify_congruence(data, x)
    if not ok:
        raise error(prefix + report)


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
