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

Each function takes its congruence data from solver.constant_data, which
checks the diagonal blocks once per structure and blocks, and reads B_r off
that data; the skews are checked by the solver (FreeParams).  A coupling
form is built in one place (_coupling_form), as a strip written from cells
the package computed out of checked inputs, without a second check of their
ranges and shapes.  Those cells are canonical (grid, den) pairs: the powers
are integer products, and the Catalan coefficients enter as cached integer
ratios (_catalan); gen_V halves a skew by doubling its den.
factor_unipotent tests cells for zero on the residual's strip
(ToeplitzForm._is_zero_at) and makes a coefficient matrix only for a cell it
peels.  Every form a function here returns is verified once by
solver._require_congruence: each generator, and factor_unipotent's core; the
coupling forms factor_unipotent peels off internally are not.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    IntegrityError,
    MembershipError,
    ParameterError,
    _Immutable,
)
from .forms import SegreStructure
from .matrices import (ExactMatrix, _canonical, _identity_grid, _pair_mul,
                       _reduced, _rescaled, _sparse_rows)
from .scalars import ExactScalar, HALF, rat
from .solver import (FreeParams, _diagonal_blocks, _need_single,
                     _require_congruence, constant_data, solve_congruence)
from .toeplitz import ToeplitzForm, _strip_of

__all__ = [
    "GeneratorSpec",
    "catalan_coeff",
    "catalan_series",
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
    return ExactScalar(rat(*_catalan(n)))


@lru_cache(maxsize=64)
def _catalan(n: int) -> tuple:
    """a_n, n >= 0, as the integer ratio (numerator, denominator) in lowest
    terms, denominator positive: made once per n, and what the coupling
    cells multiply their integer grids by."""
    q = rat(-comb(2 * n, n), (n + 1) * 2 ** (2 * n + 1))
    return q.numerator, q.denominator


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
    zero = FreeParams.zero(structure)
    given = FreeParams(zero.sub_blocks, zero.diag_seeds, skews)
    # half a skew is skew, its grid over twice the den, so the halves skip
    # the skewness check; the sweep checks their keys and shapes
    return solve_congruence(data, FreeParams._of_skews(
        zero.sub_blocks, zero.diag_seeds,
        {key: _reduced(mat.rows, mat.cols, mat._g, 2 * mat._den)
         for key, mat in given.skews.items()}))


def gen_W(structure: SegreStructure, skews: Mapping) -> ToeplitzForm:
    """gen_V specialized to identity diagonal blocks:
    W_n = 1/2 (Z_n - sum W_j^T W_{n-j})."""
    return gen_V(structure, None, skews)


# ---------------------------------------------------------------------------
# coupling family
# ---------------------------------------------------------------------------


def gen_two_block(alpha: int, beta: int, k: int, coupling: ExactMatrix,
                  b: ExactMatrix, c: ExactMatrix
                  ) -> tuple[ExactMatrix, ExactMatrix]:
    """Dense two-group solution and its inverse (the same family at -F).

    Both are gen_G on the structure ((alpha, rows of b), (beta, rows of c))
    at the groups (0, 1), so both are verified against the defining
    congruence.
    """
    if not (alpha > beta >= 1):
        raise ParameterError("need alpha > beta >= 1")
    b_diag = _diagonal_blocks((b, c), 2)
    st = SegreStructure(0, [(alpha, b.rows), (beta, c.rows)])
    return tuple(gen_G(st, 0, 1, k, f, b_diag).assemble()
                 for f in (coupling, -coupling))


def gen_G(structure: SegreStructure, p: int, t: int, k: int,
          coupling: ExactMatrix,
          b_diag: Sequence[ExactMatrix] | None = None) -> ToeplitzForm:
    """Embed the two-group solution at groups (p, t), identity elsewhere.

    p < t are group indices, 0 <= k <= alpha_t - 1, coupling is
    m_t x m_p.  The output satisfies the self-congruence for the constant
    diagonal data exactly (asserted).
    """
    _need_single(structure)
    count = structure.part_count
    if not (0 <= p < t < count):
        raise ParameterError(f"need 0 <= p < t < {count}, got ({p}, {t})")
    data = constant_data(structure, b_diag)
    alpha_t = structure.alphas[t]
    if not (0 <= k <= alpha_t - 1):
        raise ParameterError(f"offset k = {k} outside [0, {alpha_t - 1}]")
    # p < t gives alpha_p > alpha_t, and constant_data has checked the
    # diagonal blocks, so only the coupling's shape is left to check.
    rows, cols = structure.mults[t], structure.mults[p]
    if coupling.rows != rows or coupling.cols != cols:
        raise ParameterError(f"coupling must be {rows}x{cols}, got "
                             f"{coupling.rows}x{coupling.cols}")
    form = _coupling_form(data, p, t, k, coupling)
    _require_congruence(data, form, IntegrityError,
                        "coupling generator failed the defining congruence: ")
    return form


def _coupling_form(data, p: int, t: int, k: int,
                   coupling: ExactMatrix) -> ToeplitzForm:
    """gen_G's form on data's structure, unchecked: the caller has checked
    p, t, k and the coupling's shape, so the cells fit their slots, and
    checks what it returns.  With F = coupling, B = B_p and C = B_t, it is
    I but for the two-group solution at groups p (size alpha) and t (beta):
    block (p,p): corrections a_{n-1} (B^-1 F^T C F)^n at offsets n(2k+alpha-beta);
    block (t,t): a_{n-1} (F B^-1 F^T C)^n at the same offsets;
    block (p,t): -B^-1 F^T C at offset k; block (t,p): F at offset k.
    A product by B^-1 or C is skipped when it is the identity.  Every cell
    is a canonical pair (grid, den): each power is one integer product, and
    a_{n-1} enters as its integer ratio (_catalan)."""
    structure = data.structure
    alphas, mults = structure.alphas, structure.mults
    b, c = data.b_coeffs[p][0], data.b_coeffs[t][0]
    lower = coupling.transpose()  # B^-1 F^T C
    if not b.is_identity:
        lower = b.inverse() * lower
    if not c.is_identity:
        lower = lower * c
    f, low = (coupling._g, coupling._den), (lower._g, lower._den)
    cells = {(r, r, 0): (_identity_grid(m), 1) for r, m in enumerate(mults)}
    cells[(p, t, k)], cells[(t, p, k)] = (_rescaled(low[0], -1), low[1]), f
    step = 2 * k + alphas[p] - alphas[t]
    for r, x, y in ((p, low, f), (t, f, low)):
        count, m = (alphas[r] - 1) // step, mults[r]
        if not count:
            continue
        z = _pair_mul(x, _sparse_rows(y[0]), y[1], m)  # z = x y
        z_rows, power = _sparse_rows(z[0]), z  # z^n, one product per offset
        for n in range(1, count + 1):
            if n > 1:
                power = _pair_mul(power, z_rows, z[1], m)
            num, den = _catalan(n - 1)
            cells[(r, r, n * step)] = _canonical(_rescaled(power[0], num),
                                                 power[1] * den)
    return ToeplitzForm._from_strip(structure, _strip_of(structure, cells))


# ---------------------------------------------------------------------------
# generator descriptions and factorization
# ---------------------------------------------------------------------------


class GeneratorSpec(_Immutable):
    """Serializable description of one generator.

    kind "diagonal_W": skews maps (group, offset) -> skew matrix, read-only.
    kind "two_block_G": group pair p < t, offset k, coupling matrix.
    """

    __slots__ = ("kind", "skews", "p", "t", "k", "coupling")

    def __init__(self, kind: str, *, skews: Mapping | None = None,
                 p: int | None = None, t: int | None = None,
                 k: int | None = None, coupling: ExactMatrix | None = None):
        if kind == "diagonal_W":
            if skews is None or p is not None or coupling is not None:
                raise ParameterError("diagonal spec takes only skews")
            object.__setattr__(self, "skews", MappingProxyType(dict(skews)))
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

    Y is checked against the defining congruence on the way in (a form
    already verified as a member is not checked again).  The peeled
    generators are built unchecked, since they are not returned; a caller
    that rebuilds one from its spec goes through gen_G, which checks.  The
    core V is checked once before it is returned; with no peel V is Y
    itself.
    """
    data = constant_data(structure, b_diag)
    if not isinstance(y, ToeplitzForm):
        raise ParameterError(
            f"factor_unipotent needs a ToeplitzForm, got {type(y).__name__}")
    if y.structure != structure:
        raise MembershipError("form lives on a different structure")
    if not y.has_identity_diagonal:
        raise MembershipError("leading diagonal coefficients must be I")
    _require_congruence(data, y, MembershipError,
                        "input fails the defining congruence: ")

    count = structure.part_count
    alphas = structure.alphas
    residual = y
    used: list[tuple[int, int, int, ExactMatrix]] = []
    for p in range(count - 1):
        width = alphas[p + 1]
        for pos in range(width):
            # a slot before the block's first coefficient reads as zero
            t = count - 1
            while t > p:
                slot = pos - width + alphas[t]
                if residual._is_zero_at(t, p, slot):
                    t -= 1
                else:
                    coeff = residual._cell(t, p, slot)
                    used.append((p, t, slot, coeff))
                    residual = residual * _coupling_form(data, p, t, slot,
                                                         -coeff)
                    t = count - 1

    for r, s in product(range(count), repeat=2):
        for j in range(structure.depth(r, s)):
            if r != s and not residual._is_zero_at(r, s, j):
                raise IntegrityError(
                    f"sweep left block ({r}, {s}) coefficient {j} nonzero")
    if used:
        _require_congruence(data, residual, IntegrityError,
                            "factorization core failed the congruence: ")

    specs = [GeneratorSpec("two_block_G", p=p, t=t, k=slot, coupling=coeff)
             for (p, t, slot, coeff) in reversed(used)]
    return residual, specs
