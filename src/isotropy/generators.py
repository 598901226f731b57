"""Closed-form generators of the unipotent part of the isotropy group.

Two families generate every identity-diagonal solution of the self-congruence
F X^T F B X = B (B block-diagonal with constant symmetric nonsingular
diagonal blocks):

  * diagonal generators gen_W / gen_V, parameterized by skew matrices, one
    per higher diagonal offset of each group: the congruence solver's sweep
    at zero sub-blocks, identity seeds and half the skews;
  * coupling generators gen_G, embedding a two-group solution that couples
    a longer group p to a shorter group t through one rectangular
    coefficient F.

The two-group family is driven by the Catalan-flavored rational sequence
a_0 = -1/2, a_n = -1/2 sum_{j} a_j a_{n-j-1}: its diagonal correction at
offset n(2k + alpha - beta) is a_{n-1} times the n-th power of a fixed
product matrix.  factor_unipotent runs the reverse direction, peeling
coupling generators off an arbitrary identity-diagonal solution until only
a block-diagonal (gen_V shaped) core remains.
"""

from __future__ import annotations

from math import comb
from typing import Mapping, Sequence

from .errors import (
    IntegrityError,
    MembershipError,
    ParameterError,
)
from .forms import SegreStructure
from .matrices import (ExactMatrix, _is_member, identity as dense_identity,
                       zeros as dense_zeros)
from .scalars import ExactScalar, HALF, rat
from .solver import (CongruenceData, FreeParams, solve_congruence,
                     verify_congruence)
from .toeplitz import ToeplitzForm

__all__ = [
    "GeneratorSpec",
    "catalan_coeff",
    "catalan_series",
    "constant_data",
    "diagonal_skews",
    "factor_unipotent",
    "gen_G",
    "gen_V",
    "gen_W",
    "gen_two_block",
    "generator_from_spec",
]


def catalan_coeff(n: int) -> ExactScalar:
    """a_n = -C(2n, n) / ((n + 1) 2^(2n+1)); a_0 = -1/2, a_1 = -1/8."""
    if n < 0:
        raise ParameterError("coefficient index must be nonnegative")
    return ExactScalar(rat(-comb(2 * n, n), (n + 1) * 2 ** (2 * n + 1)))


def catalan_series(count: int) -> list[ExactScalar]:
    """First `count` coefficients via the defining recursion
    a_n = -1/2 sum_{j=0}^{n-1} a_j a_{n-j-1}."""
    out: list[ExactScalar] = []
    for n in range(count):
        if n == 0:
            out.append(ExactScalar(rat(-1, 2)))
            continue
        acc = ExactScalar(0)
        for j in range(n):
            acc = acc + out[j] * out[n - j - 1]
        out.append(-(HALF * acc))
    return out


# ---------------------------------------------------------------------------
# shared validation
# ---------------------------------------------------------------------------


def _checked_b_diag(structure: SegreStructure,
                    b_diag: Sequence[ExactMatrix] | None):
    if b_diag is None:
        return [dense_identity(m) for m in structure.mults]
    b_diag = list(b_diag)
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
    return b_diag


def constant_data(structure: SegreStructure,
                  b_diag: Sequence[ExactMatrix] | None = None) -> CongruenceData:
    """Self-congruence data with constant diagonal blocks: B = C, group r
    coefficients (B_r, 0, ..., 0).  Without b_diag this is the identity
    data, built once per structure."""
    if b_diag is None:
        return CongruenceData.identity(structure)
    b_diag = _checked_b_diag(structure, b_diag)
    side = []
    for r, (alpha, m) in enumerate(structure.blocks):
        side.append([b_diag[r]] + [dense_zeros(m, m)] * (alpha - 1))
    return CongruenceData(structure, side, [list(entry) for entry in side])


def _checked_skews(structure: SegreStructure, skews: Mapping) -> dict:
    want = set()
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            want.add((r, j))
    if set(skews) != want:
        missing = sorted(want - set(skews))
        extra = sorted(set(skews) - want)
        raise ParameterError(f"skew keys off: missing {missing}, extra {extra}")
    for (r, j), mat in skews.items():
        m = structure.mults[r]
        if mat.rows != m or mat.cols != m:
            raise ParameterError(f"skew ({r}, {j}) must be {m}x{m}")
        if not mat.is_skew:
            raise ParameterError(f"skew ({r}, {j}) is not skew-symmetric")
    return dict(skews)


def _assert_member(data: CongruenceData, form: ToeplitzForm, what: str):
    ok, report = verify_congruence(data, form)
    if not ok:  # pragma: no cover - the constructions satisfy the equation
        raise IntegrityError(f"{what} failed the defining congruence: {report}")


# ---------------------------------------------------------------------------
# diagonal family
# ---------------------------------------------------------------------------


def gen_V(structure: SegreStructure, b_diag: Sequence[ExactMatrix] | None,
          skews: Mapping) -> ToeplitzForm:
    """Block-diagonal generator from skew parameters.

    Group r is the Toeplitz block T(I, V_1, ..., V_{alpha_r - 1}) with
    V_n = 1/2 B_r^{-1} (Z_n - sum_{j=1}^{n-1} V_j^T B_r V_{n-j}).  This is
    the sweep of solve_congruence at zero sub-blocks, identity seeds and
    skews Z_n / 2, which verifies the result once.
    """
    data = constant_data(structure, b_diag)
    skews = _checked_skews(structure, skews)
    zero = FreeParams.zero(structure)
    return solve_congruence(data, FreeParams(
        zero.sub_blocks, zero.diag_seeds,
        {key: mat.scale(HALF) for key, mat in skews.items()}))


def gen_W(structure: SegreStructure, skews: Mapping) -> ToeplitzForm:
    """gen_V specialized to identity diagonal blocks:
    W_n = 1/2 (Z_n - sum W_j^T W_{n-j})."""
    return gen_V(structure, None, skews)


def diagonal_skews(structure: SegreStructure, v: ToeplitzForm,
                   b_diag: Sequence[ExactMatrix] | None = None) -> dict:
    """Recover the skew parameters of a block-diagonal member:
    Z_n = B_r V_n - (B_r V_n)^T.  Inverse of gen_V (tested round-trip)."""
    b_diag = _checked_b_diag(structure, b_diag)
    out = {}
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            prod = b_diag[r] * v.coefficient(r, r, j)
            out[(r, j)] = prod - prod.transpose()
    return out


# ---------------------------------------------------------------------------
# coupling family
# ---------------------------------------------------------------------------


def _two_block_cells(alpha: int, beta: int, k: int, coupling: ExactMatrix,
                     b: ExactMatrix, c: ExactMatrix):
    """Coefficient lookup for the two-group solution with F = coupling.

    Block (0,0): corrections a_{n-1} (B^-1 F^T C F)^n at offsets n(2k+alpha-beta);
    block (1,1): a_{n-1} (F B^-1 F^T C)^n at the same offsets;
    block (0,1): -B^-1 F^T C at offset k; block (1,0): F at offset k.
    """
    m1, m2 = b.rows, c.rows
    binv = b if b.is_identity else b.inverse()
    upper = -(binv * coupling.transpose() * c)
    x = (-upper) * coupling  # B^-1 F^T C F
    y = coupling * binv * coupling.transpose() * c
    step = 2 * k + alpha - beta

    diag_a = {0: dense_identity(m1)}
    n = 1
    while n * step <= alpha - 1:
        diag_a[n * step] = x.power(n).scale(catalan_coeff(n - 1))
        n += 1
    diag_d = {0: dense_identity(m2)}
    n = 1
    while n * step <= beta - 1:
        diag_d[n * step] = y.power(n).scale(catalan_coeff(n - 1))
        n += 1

    def cell(r, s, j):
        if r == 0 and s == 0:
            return diag_a.get(j, dense_zeros(m1, m1))
        if r == 1 and s == 1:
            return diag_d.get(j, dense_zeros(m2, m2))
        if r == 0 and s == 1:
            return upper if j == k else dense_zeros(m1, m2)
        return coupling if j == k else dense_zeros(m2, m1)

    return cell


def _check_two_block_args(alpha, beta, k, coupling, b, c):
    if not (alpha > beta >= 1):
        raise ParameterError("need alpha > beta >= 1")
    if not (0 <= k <= beta - 1):
        raise ParameterError(f"offset k = {k} outside [0, {beta - 1}]")
    if not b.is_symmetric or b.rank() != b.rows:
        raise ParameterError("left diagonal block must be symmetric nonsingular")
    if not c.is_symmetric or c.rank() != c.rows:
        raise ParameterError("right diagonal block must be symmetric nonsingular")
    _check_coupling_shape(coupling, c.rows, b.rows)


def _check_coupling_shape(coupling, rows, cols):
    if coupling.rows != rows or coupling.cols != cols:
        raise ParameterError(
            f"coupling must be {rows}x{cols}, got "
            f"{coupling.rows}x{coupling.cols}")


def gen_two_block(alpha: int, beta: int, k: int, coupling: ExactMatrix,
                  b: ExactMatrix, c: ExactMatrix
                  ) -> tuple[ExactMatrix, ExactMatrix]:
    """Dense two-group solution and its inverse (the same family at -F).

    Lives on the structure ((alpha, rows of b), (beta, rows of c)); both
    outputs are checked against the defining congruence and against each
    other before returning.
    """
    _check_two_block_args(alpha, beta, k, coupling, b, c)
    st = SegreStructure(0, [(alpha, b.rows), (beta, c.rows)])
    form = ToeplitzForm.build(st, _two_block_cells(alpha, beta, k, coupling, b, c))
    inverse = ToeplitzForm.build(
        st, _two_block_cells(alpha, beta, k, -coupling, b, c))
    if not (inverse * form).is_identity:  # pragma: no cover
        raise IntegrityError("two-group inverse pair does not multiply to I")
    _assert_member(constant_data(st, [b, c]), form, "two-group generator")
    return form.assemble(), inverse.assemble()


def gen_G(structure: SegreStructure, p: int, t: int, k: int,
          coupling: ExactMatrix,
          b_diag: Sequence[ExactMatrix] | None = None) -> ToeplitzForm:
    """Embed the two-group solution at groups (p, t), identity elsewhere.

    p < t are group indices, 0 <= k <= alpha_t - 1, coupling is
    m_t x m_p.  The output satisfies the self-congruence for the constant
    diagonal data exactly (asserted).
    """
    count = structure.part_count
    if not (0 <= p < t < count):
        raise ParameterError(f"need 0 <= p < t < {count}, got ({p}, {t})")
    data = constant_data(structure, b_diag)
    alpha_p, alpha_t = structure.alphas[p], structure.alphas[t]
    if not (0 <= k <= alpha_t - 1):
        raise ParameterError(f"offset k = {k} outside [0, {alpha_t - 1}]")
    # p < t gives alpha_p > alpha_t, and constant_data has checked the
    # diagonal blocks, so only the coupling's shape is left to check.
    _check_coupling_shape(coupling, structure.mults[t], structure.mults[p])
    pair = _two_block_cells(alpha_p, alpha_t, k, coupling,
                            data.b(p, 0), data.b(t, 0))
    remap = {p: 0, t: 1}

    def cell(r, s, j):
        if r in remap and s in remap:
            return pair(remap[r], remap[s], j)
        if r == s:
            m = structure.mults[r]
            return dense_identity(m) if j == 0 else dense_zeros(m, m)
        return dense_zeros(structure.mults[r], structure.mults[s])

    form = ToeplitzForm.build(structure, cell)
    _assert_member(data, form, "coupling generator")
    return form


# ---------------------------------------------------------------------------
# generator descriptions and factorization
# ---------------------------------------------------------------------------


class GeneratorSpec:
    """Serializable description of one generator.

    kind "diagonal_W": skews maps (group, offset) -> skew matrix.
    kind "two_block_G": group pair p < t, offset k, coupling matrix.
    """

    __slots__ = ("kind", "skews", "p", "t", "k", "coupling")

    def __init__(self, kind: str, *, skews: Mapping | None = None,
                 p: int | None = None, t: int | None = None,
                 k: int | None = None, coupling: ExactMatrix | None = None):
        if kind == "diagonal_W":
            if skews is None or p is not None or coupling is not None:
                raise ParameterError("diagonal spec takes only skews")
            object.__setattr__(self, "skews", dict(skews))
            object.__setattr__(self, "p", None)
            object.__setattr__(self, "t", None)
            object.__setattr__(self, "k", None)
            object.__setattr__(self, "coupling", None)
        elif kind == "two_block_G":
            if skews is not None or None in (p, t, k) or coupling is None:
                raise ParameterError("coupling spec needs p, t, k, coupling")
            object.__setattr__(self, "skews", None)
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "t", t)
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "coupling", coupling)
        else:
            raise ParameterError(f"unknown generator kind {kind!r}")
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSpec is immutable")

    def __eq__(self, other):
        if not isinstance(other, GeneratorSpec):
            return NotImplemented
        return (self.kind == other.kind and self.skews == other.skews
                and (self.p, self.t, self.k) == (other.p, other.t, other.k)
                and self.coupling == other.coupling)

    def __repr__(self):
        if self.kind == "diagonal_W":
            return f"GeneratorSpec(diagonal_W, {len(self.skews)} skews)"
        return (f"GeneratorSpec(two_block_G, p={self.p}, t={self.t}, "
                f"k={self.k})")


def generator_from_spec(structure: SegreStructure, spec: GeneratorSpec,
                        b_diag: Sequence[ExactMatrix] | None = None
                        ) -> ToeplitzForm:
    if spec.kind == "diagonal_W":
        return gen_V(structure, b_diag, spec.skews)
    return gen_G(structure, spec.p, spec.t, spec.k, spec.coupling, b_diag)


def factor_unipotent(structure: SegreStructure, y: ToeplitzForm,
                     b_diag: Sequence[ExactMatrix] | None = None
                     ) -> tuple[ToeplitzForm, list[GeneratorSpec]]:
    """Split an identity-diagonal solution as Y = V * product(couplings).

    V is block-diagonal (of gen_V shape); the list holds two_block_G specs
    in multiplication order.  Sweep: columns p left to right; inside a
    column the dense positions ascend, and at each position the largest
    group index with a nonzero coefficient is cleared first (right-
    multiplying by the coupling generator at the negated coefficient).
    """
    if b_diag is not None:
        b_diag = _checked_b_diag(structure, b_diag)
    data = constant_data(structure, b_diag)
    if y.structure != structure:
        raise MembershipError("form lives on a different structure")
    if not y.has_identity_diagonal:
        raise MembershipError("leading diagonal coefficients must be I")
    if not (b_diag is None and _is_member(y, structure)):
        ok, report = verify_congruence(data, y)
        if not ok:
            raise MembershipError(
                f"input fails the defining congruence: {report}")

    count = structure.part_count
    alphas = structure.alphas
    residual = y
    used: list[tuple[int, int, int, ExactMatrix]] = []
    for p in range(count - 1):
        width = alphas[p + 1]
        for pos in range(width):
            while True:
                hit = None
                for t in range(count - 1, p, -1):
                    slot = pos - width + alphas[t]
                    if slot < 0:
                        continue
                    coeff = residual.coefficient(t, p, slot)
                    if not coeff.is_zero:
                        hit = (t, slot, coeff)
                        break
                if hit is None:
                    break
                t, slot, coeff = hit
                used.append((p, t, slot, coeff))
                residual = residual * gen_G(structure, p, t, slot, -coeff,
                                            b_diag)

    for r in range(count):
        for s in range(count):
            if r == s:
                continue
            for j in range(structure.depth(r, s)):
                if not residual.coefficient(r, s, j).is_zero:
                    raise IntegrityError(
                        f"sweep left block ({r}, {s}) coefficient {j} nonzero")

    specs = [GeneratorSpec("two_block_G", p=p, t=t, k=slot, coupling=coeff)
             for (p, t, slot, coeff) in reversed(used)]
    return residual, specs
