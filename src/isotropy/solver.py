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
sampling checks the dense matrix it returns instead.  The sweep is planned
once per block shape (_plan), from the shifts of the strip's placement
table (toeplitz._placement), and walked on canonical (grid, den) pairs
(matrices.py), with no ExactMatrix between its steps: one integer
accumulation per step, multiplied raw by the step's g and reduced once.
One path serves every B: its right factors are the coefficients of X when B
is the identity form (every sample and every gen_W / gen_V), else those of
B X (_bx).

The solver owns its inputs, on one eigenvalue (_need_single).
CongruenceData checks B and C and lays out their forms once; constant_data
makes the self-congruence data B = C = diag(B_r, 0, ..., 0) once per
structure and diagonal blocks, without a second check (_lay_out), so
identity data ranks nothing.  The free-parameter slots are walked in one
place (_slots); parameters whose skews the package drew or has checked
skip the skewness check (FreeParams._of_skews).  Forms built from checked or computed coefficients
are written as strips directly, and membership is checked once, on what is
returned.  verify_congruence tests the congruence by the rule the dense
check reads too (toeplitz._congruent), on strips, and _require_congruence
is the one "verify, else raise" for forms.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    IntegrityError,
    ParameterError,
    SeedConstraintError,
    SequencingError,
    SingularMatrixError,
    StructureError,
    _Immutable,
)
from .forms import SegreStructure
from .matrices import (ExactMatrix, _accumulate, _grid_of, _identity_rows,
                       _is_member, _mark_member, _pair_mul, _pair_sum,
                       _sparse_rows, _sum_of_products,
                       identity as dense_identity, zeros as dense_zeros)
from .toeplitz import (ToeplitzForm, _congruent, _moved_rows, _placement,
                       _strip_of)

__all__ = [
    "CongruenceData",
    "FreeParams",
    "constant_data",
    "random_free_params",
    "solve_congruence",
    "verify_congruence",
]


def _need_single(structure):
    """The one check that congruence data has a single-eigenvalue structure:
    CongruenceData, constant_data and gen_G run it first."""
    if not isinstance(structure, SegreStructure):
        raise StructureError("CongruenceData needs a single-eigenvalue structure")


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
    # side holds checked m_r x m_r coefficients, alpha_r of group r
    return ToeplitzForm._from_strip(structure, _strip_of(structure, {
        (r, r, j): (c._g, c._den)
        for r, entry in enumerate(side) for j, c in enumerate(entry)}))


class CongruenceData(_Immutable):
    """Right-hand data of the congruence: block-diagonal forms B and C.

    b_coeffs[r][j] and c_coeffs[r][j] are the symmetric m_r x m_r
    coefficients of group r at offset j; leading coefficients must be
    nonsingular.  b_form and c_form are B and C as forms.  b_is_identity
    is True when B is the identity form (leading I, higher coefficients
    0); B X is then X itself.  Both sides are checked and laid out once,
    here; equal sides are stored once, as one coefficient tuple and one
    form.
    """

    __slots__ = ("structure", "b_coeffs", "c_coeffs", "b_is_identity",
                 "b_form", "c_form")

    def __init__(self, structure: SegreStructure,
                 b_coeffs: Sequence[Sequence[ExactMatrix]],
                 c_coeffs: Sequence[Sequence[ExactMatrix]]):
        _need_single(structure)
        b = _check_side(structure, b_coeffs, "B")
        c = b if c_coeffs is b_coeffs else _check_side(structure, c_coeffs, "C")
        self._lay_out(structure, b, c)

    def _lay_out(self, structure, b, c):
        # b and c: checked sides, tuples of coefficient tuples
        if c == b:
            c = b
        b_form = _diagonal_form(structure, b)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "b_coeffs", b)
        object.__setattr__(self, "c_coeffs", c)
        object.__setattr__(self, "b_is_identity", all(
            entry[0].is_identity and all(mat.is_zero for mat in entry[1:])
            for entry in b))
        object.__setattr__(self, "b_form", b_form)
        object.__setattr__(self, "c_form",
                           b_form if c is b else _diagonal_form(structure, c))

    @property
    def is_identity(self) -> bool:
        """True when B = C = the identity form."""
        return self.c_coeffs is self.b_coeffs and self.b_is_identity

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
    _need_single(structure)
    return _constant_data(structure, None if b_diag is None else
                          _diagonal_blocks(b_diag, structure.part_count))


def _diagonal_blocks(b_diag, count: int) -> tuple:
    """b_diag as a tuple, after the checks that it holds count blocks and
    that each is an ExactMatrix: constant_data and gen_two_block run them
    first, and _constant_data checks each block's shape and values."""
    b_diag = tuple(b_diag)
    if len(b_diag) != count:
        raise ParameterError(
            f"need {count} diagonal blocks, got {len(b_diag)}")
    for r, mat in enumerate(b_diag):
        if not isinstance(mat, ExactMatrix):
            raise ParameterError(f"diagonal block {r} must be an ExactMatrix, "
                                 f"got {type(mat).__name__}")
    return b_diag


@lru_cache(maxsize=4)
def _constant_data(structure: SegreStructure, b_diag) -> CongruenceData:
    if b_diag is not None:
        for r, mat in enumerate(b_diag):
            m = structure.mults[r]
            if mat.rows != m or mat.cols != m:
                raise ParameterError(f"diagonal block {r} must be {m}x{m}")
            if not mat.is_symmetric:
                raise ParameterError(f"diagonal block {r} is not symmetric")
            if mat.rank() != m:
                raise ParameterError(f"diagonal block {r} is singular")
    side = tuple((dense_identity(m) if b_diag is None else b_diag[r],)
                 + (dense_zeros(m, m),) * (alpha - 1)
                 for r, (alpha, m) in enumerate(structure.blocks))
    # checked above, or identity blocks: laid out without _check_side
    data = object.__new__(CongruenceData)
    data._lay_out(structure, side, side)
    return data


def _slots(structure: SegreStructure):
    """Every free-parameter slot as (key, rows, cols), group by group: the
    skews (r, j), 1 <= j < alpha_r, then the sub-blocks (r, s, j), s < r,
    0 <= j < alpha_r.  random_free_params draws them in this order."""
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            yield (r, j), m, m
        for s, m_s in enumerate(structure.mults[:r]):
            for j in range(alpha):
                yield (r, s, j), m, m_s


def _check_keys(kind: str, given, want: set):
    """The one check that the keys of the mapping given are exactly want."""
    if set(given) != want:
        raise ParameterError(
            f"{kind} keys off: missing {sorted(want - set(given))}, "
            f"extra {sorted(set(given) - want)}")


class FreeParams(_Immutable):
    """Free variables of the general solution.

    sub_blocks: (r, s, j) -> m_r x m_s matrix for r > s, 0 <= j < alpha_r;
    diag_seeds: per group r, the leading diagonal coefficient;
    skews:      (r, j) -> skew m_r x m_r matrix for 1 <= j < alpha_r.
    Both maps are read-only copies, so the skews stay as checked.
    """

    __slots__ = ("sub_blocks", "diag_seeds", "skews")

    def __init__(self, sub_blocks: Mapping, diag_seeds: Sequence[ExactMatrix],
                 skews: Mapping):
        if not isinstance(skews, Mapping):
            raise ParameterError(
                f"skews must be a mapping, got {type(skews).__name__}")
        for key, mat in skews.items():
            if not isinstance(mat, ExactMatrix) or not mat.is_skew:
                raise ParameterError(f"skew parameter {key} is not skew-symmetric")
        self._fill(sub_blocks, diag_seeds, skews)

    def _fill(self, sub_blocks, diag_seeds, skews):
        object.__setattr__(self, "sub_blocks",
                           MappingProxyType(dict(sub_blocks)))
        object.__setattr__(self, "diag_seeds", tuple(diag_seeds))
        object.__setattr__(self, "skews", MappingProxyType(dict(skews)))

    @classmethod
    def _of_skews(cls, sub_blocks: Mapping, diag_seeds: Sequence[ExactMatrix],
                  skews: Mapping) -> "FreeParams":
        """FreeParams whose skews are known to be skew matrices: laid out
        without the check of __init__."""
        params = object.__new__(cls)
        params._fill(sub_blocks, diag_seeds, skews)
        return params

    @classmethod
    def zero(cls, structure: SegreStructure) -> "FreeParams":
        """Identity seeds, zero sub-blocks, zero skews."""
        sub, skews = {}, {}
        for key, rows, cols in _slots(structure):
            (skews if len(key) == 2 else sub)[key] = dense_zeros(rows, cols)
        return cls._of_skews(sub, [dense_identity(m) for m in structure.mults],
                             skews)

    def validate_for(self, structure: SegreStructure):
        """Exact completeness check against the structure."""
        count = structure.part_count
        if len(self.diag_seeds) != count:
            raise ParameterError(
                f"need {count} diagonal seeds, got {len(self.diag_seeds)}")
        for r, (seed, m_r) in enumerate(zip(self.diag_seeds, structure.mults)):
            if seed.rows != m_r or seed.cols != m_r:
                raise ParameterError(f"seed {r} must be {m_r}x{m_r}")
        shapes = {key: (rows, cols) for key, rows, cols in _slots(structure)}
        for kind, given, width in (("sub-block", self.sub_blocks, 3),
                                   ("skew", self.skews, 2)):
            _check_keys(kind, given, {key for key in shapes if len(key) == width})
        for (r, s, j), mat in self.sub_blocks.items():
            if (mat.rows, mat.cols) != shapes[(r, s, j)]:
                raise ParameterError(f"sub-block ({r}, {s}, {j}) has wrong shape")
        for (r, j), mat in self.skews.items():
            if (mat.rows, mat.cols) != shapes[(r, j)]:
                raise ParameterError(f"skew ({r}, {j}) has wrong shape")


# ---------------------------------------------------------------------------
# the sweep's plan and its terms
# ---------------------------------------------------------------------------


def _pairs(blocks, r: int, s: int, j: int) -> list:
    """The pairs (left key, right key) of the terms (X_l^{kr})^T Y_{n-l}^{ks}
    of coefficient (r, s, j) of F X^T F Y for block Toeplitz X and Y with
    these blocks, by the product rule: over 0 <= l < depth(r, k) and
    0 <= n - l < depth(k, s), n = j + shift(r, s) - shift(r, k) - shift(k, s),
    the shifts read off the placement table."""
    shift = _placement(blocks)[1]
    alpha_r, alpha_s = blocks[r][0], blocks[s][0]
    out = []
    for k, (alpha_k, _) in enumerate(blocks):
        n = j + shift[r][s] - shift[r][k] - shift[k][s]
        out += [((k, r, l), (k, s, n - l))
                for l in range(max(0, n - min(alpha_k, alpha_s) + 1),
                               min(alpha_r, alpha_k, n + 1))]
    return out


@lru_cache(maxsize=128)
def _plan(blocks) -> tuple:
    """The sweep of the structures with these blocks, made once: its steps
    (slot, pairs) in order, offsets j ascending and within one the diagonal
    slots (r, r, j), j >= 1, first, then the distances s - r ascending.
    The pairs are those of _pairs for the slot less the one that reads the
    slot as its left factor."""
    alphas = [alpha for alpha, _ in blocks]
    count = len(alphas)
    steps = []
    for j in range(alphas[0]):
        slots = [(r, r, j) for r in range(count) if 1 <= j < alphas[r]]
        slots += [(r, r + p, j) for p in range(1, count)
                  for r in range(count - p) if j < alphas[r + p]]
        steps += [(slot, tuple(pair for pair in _pairs(blocks, *slot)
                               if pair[0] != slot)) for slot in slots]
    return tuple(steps)


def _terms(pairs, left, right, factor: int) -> list:
    """The terms of _sum_of_products of the pairs, each times 1 / factor:
    left holds each X slot transposed, as (grid, den), right each Y slot, as
    (_sparse_rows, den), None for zero; a pair with a zero factor is
    skipped.  An unset slot raises KeyError."""
    out = []
    for lkey, rkey in pairs:
        lhs = left[lkey]
        if lhs is not None and (rhs := right[rkey]) is not None:
            out.append((lhs[0], rhs[0], factor * lhs[1] * rhs[1]))
    return out


def _right_factor(grid: tuple, den: int):
    """The canonical pair (grid, den) as the right factor of a term,
    (_sparse_rows, den), None for zero."""
    rows = _sparse_rows(grid)
    return (rows, den) if any(nz for nz, _ in rows) else None


def _bx(data: CongruenceData, x: Mapping, k: int, s: int, q: int,
        first: int = 0):
    """Coefficient (k, s, q) of B X for the block-diagonal B, as a right
    factor (_right_factor): sum_l B_l^k X_{q - l}^{ks} over
    first <= l <= q, x holding each slot as a pair (grid, den)."""
    terms = [(b._g, _sparse_rows(grid), b._den * den) for b, (grid, den) in (
        (data.b_coeffs[k][l], x[(k, s, q - l)]) for l in range(first, q + 1))]
    mults = data.structure.mults
    return _right_factor(*_pair_sum(terms, mults[k], mults[s]))


def _put(data: CongruenceData, x: dict, left: dict, right: dict, key,
         grid: tuple, den: int):
    """Set slot key of x to the canonical pair (grid, den): its transpose
    in left, None for zero, and its B X in right (_bx), which is its own
    right factor when B is the identity form."""
    x[key] = grid, den
    own = _right_factor(grid, den)
    left[key] = own and (tuple(zip(*grid)), den)
    right[key] = own if data.b_is_identity else _bx(data, x, *key)


# ---------------------------------------------------------------------------
# solve and verify
# ---------------------------------------------------------------------------


def _sweep(data: CongruenceData, params: FreeParams) -> ToeplitzForm:
    """The unique solution determined by the free parameters, unchecked.

    Step (r, s, j) of the plan (_plan) sums d, the terms of coefficient
    (r, s, j) of F X^T F B X that do not read X_j^{rs}, with those of C_j and
    the skew Z_j, and sets X_j^{rs} = g ((C_j - d) / 2 + Z_j) on the diagonal,
    -g d above it, g = A_0^r (C_0^r)^-1.  A step accumulates its terms once,
    in integers (matrices._accumulate), multiplies the raw sum by g and
    reduces once (matrices._pair_mul); every slot is kept as its canonical
    pair (grid, den) with its transpose and the right factor it gives
    (_put), and the strip is written from the pairs.  B = I and any other
    B take this one path: only the right factors differ (_bx).  A slot read
    before it is set raises SequencingError.  The caller checks what it
    returns (solve_congruence the form, sampling the dense matrix), so a
    faulty step raises IntegrityError there.
    """
    if not isinstance(params, FreeParams):
        raise ParameterError(
            f"params must be a FreeParams, got {type(params).__name__}")
    st = data.structure
    params.validate_for(st)
    x, left, right = {}, {}, {}

    # g[r] = A_0^r (C_0^r)^-1 as a pair (grid, den), None when it is the
    # identity: every gen_W and every gen_V without diagonal blocks, whose
    # products by it are then skipped
    g = []
    for r in range(st.part_count):
        seed = params.diag_seeds[r]
        c0 = data.c_coeffs[r][0]
        lead = seed.transpose() * (
            seed if data.b_is_identity else data.b_coeffs[r][0] * seed)
        if lead != c0:
            raise SeedConstraintError(
                f"seed {r} does not satisfy the leading congruence "
                "C_0 = A^T B_0 A")
        _put(data, x, left, right, (r, r, 0), seed._g, seed._den)
        g_r = seed if c0.is_identity else seed * c0.inverse()
        g.append(None if g_r.is_identity else (g_r._g, g_r._den))
    # in key order: a coefficient of B X reads the lower offsets of its block
    for key in sorted(params.sub_blocks):
        mat = params.sub_blocks[key]
        _put(data, x, left, right, key, mat._g, mat._den)

    for key, pairs in _plan(st.blocks):
        r, s, j = key
        try:
            # the plan's pair (A_0^r)^T (B X)_j^{rs} reads (B X)_j^{rs} less
            # B_0 X_j^{rs}: its terms in B_l, l >= 1, none when B = I
            right[key] = None if data.b_is_identity else _bx(
                data, x, r, s, j, 1)
            terms = _terms(pairs, left, right, -2 if r == s else -1)
        except KeyError as missing:
            raise SequencingError(f"coefficient {missing.args[0]} referenced "
                                  "before it is determined") from None
        m_s = st.mults[s]
        if r == s:
            c, z = data.c_coeffs[r][j], params.skews[(r, j)]
            ident = _identity_rows(m_s)
            terms += [(c._g, ident, 2 * c._den), (z._g, ident, z._den)]
        if g[r] is None:
            pair = _pair_sum(terms, st.mults[r], m_s)
        else:
            acc, den = _accumulate(terms, st.mults[r], m_s)
            pair = _pair_mul(g[r], _sparse_rows(_grid_of(acc)), den, m_s)
        _put(data, x, left, right, key, *pair)

    # every slot is set, by a checked parameter or a step of the sweep
    return ToeplitzForm._from_strip(st, _strip_of(st, x))


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
    mismatching block coefficient of x.flip_transpose() * B X in (r, s,
    offset) order.  It always computes, by the congruence rule on strips
    (toeplitz._congruent), and a success builds no form.  When B = C = I a
    success marks x a verified member of its structure's group.
    """
    if not isinstance(x, ToeplitzForm):
        raise ParameterError(
            f"verify_congruence needs a ToeplitzForm, got {type(x).__name__}")
    if x.structure != data.structure:
        raise StructureError("form and data live on different structures")
    st, strip = data.structure, x._strip
    rows, den = _moved_rows(strip._g, st.blocks), strip._den
    if not data.b_is_identity:
        b = data.b_form._strip
        bx = _sum_of_products(((b._g, rows, b._den * den),), b.rows, st.n)
        rows, den = _moved_rows(bx._g, st.blocks), bx._den
    c = data.c_form._strip
    if not _congruent(strip._g, st.blocks, rows, strip._den * den, c._g,
                      c._den):
        lhs = x.flip_transpose() * (
            x if data.b_is_identity else data.b_form * x)
        for r in range(st.part_count):
            for s in range(st.part_count):
                for j in range(st.depth(r, s)):
                    got = lhs.coefficient(r, s, j)
                    if got != (want := data.c_form.coefficient(r, s, j)):
                        return False, (f"block ({r}, {s}) coefficient {j}: got "
                                       f"{got.to_lists()}, want {want.to_lists()}")
        raise IntegrityError("the strip check rejected a form that matches C")
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


def random_free_params(data: CongruenceData, rnd,
                       seeds: Sequence[ExactMatrix] | None = None,
                       **scalar_kw) -> FreeParams:
    """Draw a complete FreeParams from one deterministic stream, rnd.

    Seeds default to twisted Cayley transforms solving A^T B_0 A = B_0,
    which is only a valid seed set when the leading coefficients of B
    and C agree; callers must supply exact seeds otherwise.
    """
    st = data.structure
    if seeds is None:
        leads = [entry[0] for entry in data.b_coeffs]
        if leads != [entry[0] for entry in data.c_coeffs]:
            raise ParameterError(
                "leading coefficients differ; supply explicit seeds")
        seeds = [rnd.twisted_orthogonal(b0.rows, b0, **scalar_kw)
                 for b0 in leads]
    sub, skews = {}, {}
    for key, rows, cols in _slots(st):
        if len(key) == 2:
            skews[key] = rnd.skew(rows, **scalar_kw)
        else:
            sub[key] = rnd.matrix(rows, cols, **scalar_kw)
    return FreeParams._of_skews(sub, seeds, skews)
