"""Isotropy groups of canonical complex symmetric matrices.

Everything here works at two coordinate levels.  Dense level: exact
orthogonal matrices Q with Q^T S Q = S, where S is the canonical
symmetric matrix of a structure.  Coefficient level: block Toeplitz
forms X solving the flip congruence F X^T F X = I.  An exact change of
basis exchanges the two, so membership checks never approximate.
"""

from functools import lru_cache
from itertools import accumulate, chain

from .errors import (IntegrityError, MembershipError, ParameterError,
                     StructureError)
from .forms import (SegreStructure, _conjugate_by_transition,
                    _require_square, _require_structure, _transition_indices,
                    _transition_rows, solution_dimension, symmetric_form)
from .matrices import (ExactMatrix, _Z4, _first_mismatch, _grid_mul,
                       _is_member, _mark_member, _sparse_rows, direct_sum)
from .scalars import ONE, ZERO, _from_ints
from .solver import (FreeParams, _require_congruence, _sweep, constant_data,
                     random_free_params)
from .toeplitz import ToeplitzForm, _maps


class IsotropyDescription:
    """Size and shape summary of one isotropy group.

    dimension counts free parameters; reductive_part lists the sizes of
    the orthogonal factors acting on the leading diagonal coefficients;
    the two bounds describe the complementary normal subgroup; the
    recipes spell out every free parameter slot.  A multi-eigenvalue
    description carries the per-eigenvalue descriptions in parts.
    """

    __slots__ = ("structure", "dimension", "reductive_part",
                 "unipotent_order_bound", "nilpotency_class_bound",
                 "generator_recipes", "parts")

    def __init__(self, structure, dimension, reductive_part,
                 unipotent_order_bound, nilpotency_class_bound,
                 generator_recipes, parts=()):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "reductive_part", tuple(reductive_part))
        object.__setattr__(self, "unipotent_order_bound",
                           unipotent_order_bound)
        object.__setattr__(self, "nilpotency_class_bound",
                           nilpotency_class_bound)
        object.__setattr__(self, "generator_recipes", generator_recipes)
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("IsotropyDescription is immutable")

    def __eq__(self, other):
        if not isinstance(other, IsotropyDescription):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def __repr__(self):
        return (f"IsotropyDescription({self.structure!r}, "
                f"dimension={self.dimension})")


def _single_description(st: SegreStructure) -> IsotropyDescription:
    recipes = {
        "orthogonal_seeds": [
            {"group": r, "size": m} for r, m in enumerate(st.mults)],
        "diagonal_skews": [
            {"group": r, "offset": j, "size": m}
            for r, (alpha, m) in enumerate(st.blocks)
            for j in range(1, alpha)],
        "couplings": [
            {"p": p, "t": t, "offset": k,
             "shape": [st.mults[t], st.mults[p]]}
            for p in range(st.part_count)
            for t in range(p + 1, st.part_count)
            for k in range(st.alphas[t])],
    }
    return IsotropyDescription(
        structure=st,
        dimension=solution_dimension(st),
        reductive_part=st.mults,
        unipotent_order_bound=st.alphas[0] - 1,
        nilpotency_class_bound=st.alphas[0],
        generator_recipes=recipes)


def describe_isotropy(structure) -> IsotropyDescription:
    """Describe the group of exact orthogonal congruences fixing S."""
    _require_structure(structure)
    if isinstance(structure, SegreStructure):
        return _single_description(structure)
    parts = tuple(_single_description(p) for p in structure.parts)
    return IsotropyDescription(
        structure=structure,
        dimension=sum(d.dimension for d in parts),
        reductive_part=[m for d in parts for m in d.reductive_part],
        unipotent_order_bound=max(d.unipotent_order_bound for d in parts),
        nilpotency_class_bound=max(d.nilpotency_class_bound for d in parts),
        generator_recipes={"parts": [d.generator_recipes for d in parts]},
        parts=parts)


@lru_cache(maxsize=4)
def _check_tables(structure) -> tuple:
    """What verify_isotropy reads of a structure, made once: (s, t, sign)
    of _transition_indices towards Toeplitz coordinates; tops, the row of
    X of each strip row; flips, toeplitz._maps of each part read off X's
    strip rows in place (one past their end for zero); and per row of X,
    its checks (a, b, src, shift): row[a:b] equals the slice of row src
    of X moved shift columns right, src = n standing for a zero row."""
    n, tops, flips, checks = structure.n, [], [], []
    off, zero = 0, sum(sum(part.mults) for part in structure.parts) * n
    for part in structure.parts:
        blocks, row0, n_p = part.blocks, len(tops), part.n
        starts = tuple(accumulate((a * m for a, m in blocks), initial=off))
        for (alpha_r, m_r), top in zip(blocks, starts):
            tops += range(top, top + m_r)
            for i in range(top, top + alpha_r * m_r):
                row = [(0, off, n, 0), (off + n_p, n, n, 0)]
                for (alpha_s, m_s), left in zip(blocks, starts):
                    if i < top + m_r:  # cell-row 0: zero before shift(r, s)
                        row.append((left, left + max(0, alpha_s - alpha_r)
                                    * m_s, n, 0))
                    else:  # zero first cell, then cell-row u - 1 moved
                        row += [(left, left + m_s, n, 0),
                                (left + m_s, left + alpha_s * m_s, i - m_r, m_s)]
                checks.append(tuple(c for c in row if c[1] > c[0]))
        end = (len(tops) - row0) * n_p  # the zero slot of _maps
        flips += [(zero,) * off + tuple(
            zero if k == end else (row0 + k // n_p) * n + off + k % n_p
            for k in idx)
            + (zero,) * (n - off - n_p) for idx in _maps(blocks)]
        off += n_p
    return (_transition_indices(structure, False), tuple(tops), tuple(flips),
            tuple(checks))


def _in_group(structure, grid: tuple, den: int) -> bool:
    """True when grid / den is a member of the group of structure, checked
    on X, 2 den times its transition image (verify_isotropy)."""
    indices, tops, flips, checks = _check_tables(structure)
    x = _transition_rows(grid, *indices)
    n = len(x)
    rows = x + [(_Z4,) * n]
    if any(row[a:b] != rows[src][a - shift:b - shift]
           for row, spans in zip(x, checks) for a, b, src, shift in spans):
        return False
    flat = tuple(chain.from_iterable(map(x.__getitem__, tops))) + (_Z4,)
    one, zero = 4 * den * den, [0] * n
    return _grid_mul([tuple(map(flat.__getitem__, idx)) for idx in flips],
                     _sparse_rows(x), n) == [
        [[one if j == i else 0 for j in range(n)], zero, zero, zero]
        for i in tops]


def verify_isotropy(structure, q: ExactMatrix):
    """Exact membership test.  Returns (bool, report).

    The report names the first condition that fails, orthogonality
    before congruence, with the first offending entry of Q^T Q or
    Q^T S Q in row-major order.  Every test runs on the integer kernel of
    matrices.py, with Q = G / d and G over Z[i, sqrt2].

    A member is accepted in Toeplitz coordinates, on the transition image
    X = Omega^T P^{-1} Q P Omega of Q, read off G by index
    (forms._transition_rows) and kept unreduced over 2 d.  Q is a member
    exactly when

    1. X is block Toeplitz: it commutes with J = P^{-1} S P, conjugated
       by Omega.  Between two parts, whose eigenvalues differ, J X = X J
       forces every entry to zero.  Within a part it says, in each block
       (r, s), that cell-row u >= 1 is cell-row u - 1 moved one cell
       right, with a zero first cell, and that the first shift(r, s)
       cells of cell-row 0 are zero: cell (u, v) is coefficient
       v - u - shift(r, s), zero below.  Each is one tuple slice per row
       and block, at O(n^2) cost in all.
    2. F X^T F X = I, F = Omega^T E Omega.  P is symmetric with
       P^T P = P^2 = i E, so Q^T Q = i P^{-1} Omega X^T F X Omega^T P^{-1},
       which is I exactly when X^T F X = F.  With X block Toeplitz, so is
       Y = F X^T F X (toeplitz.py), and its strip, the first cell-row of
       each group, determines it.  The strip of F X^T F is gathered from
       X's strip rows through toeplitz._maps, multiplied once by X, at
       O(M n^2) cost for M strip rows, and compared with (2 d)^2 times the
       identity's strip.

    1 says S Q = Q S, so with Q^T = Q^{-1} from 2, Q^T S Q = S; a member
    satisfies both, since it commutes with S.  S is not built.

    When either test fails, the full product G^T G is compared with
    d^2 I entry by entry, and Q^T S Q is formed only if that holds, to
    name the first failing entry; the two tests hold exactly for members,
    so the failure path always finds one.  The test always computes;
    on success it marks q as a verified member of structure, so that the
    group operations need not check it again.
    """
    _require_square(structure, q)
    grid, den = q._g, q._den
    if _in_group(structure, grid, den):
        _mark_member(q, structure)
        return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"
    n, one = structure.n, den * den
    gram = _grid_mul(list(zip(*grid)), _sparse_rows(grid), n)
    for i, (ga, gb, gc, gd) in enumerate(gram):
        for j in range(n):
            if ga[j] != (one if i == j else 0) or gb[j] or gc[j] or gd[j]:
                entry = _from_ints(ga[j], gb[j], gc[j], gd[j], one)
                return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                               f"{entry}, expected "
                               f"{ONE if i == j else ZERO}")
    s = symmetric_form(structure)
    cong = q.transpose() * s * q
    i, j = _first_mismatch(cong, s)
    return False, (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
                   f"{cong[i, j]}, expected {s[i, j]}")


_BUILT = "constructed element failed: "


def _require_member(structure, x, error, prefix: str):
    """Raise error(prefix + report) unless x is a member of the group of
    structure: a dense matrix by verify_isotropy, a form by the congruence
    against the identity data, once its structure matches.  A member
    already verified for structure is not checked again."""
    if isinstance(x, ToeplitzForm):
        if x.structure != structure:
            raise error(prefix + "built for a different structure")
        _require_congruence(constant_data(structure), x, error, prefix)
    elif not _is_member(x, structure):
        ok, report = verify_isotropy(structure, x)
        if not ok:
            raise error(prefix + report)


def from_toeplitz_coordinates(structure: SegreStructure,
                              form: ToeplitzForm) -> ExactMatrix:
    """Dense member Q from a coefficient-level solution; Q is verified."""
    if form.structure != structure:
        raise StructureError("form was built for a different structure")
    q = _conjugate_by_transition(structure, form.assemble(), True)
    _require_member(structure, q, IntegrityError, _BUILT)
    return q


def to_toeplitz_coordinates(structure: SegreStructure,
                            q: ExactMatrix) -> ToeplitzForm:
    """Coefficient-level solution from a dense member (inverse map)."""
    if not isinstance(structure, SegreStructure):
        raise StructureError(
            "coefficient coordinates exist per eigenvalue; split the "
            "matrix along parts first")
    _require_member(structure, q, MembershipError, "")
    return ToeplitzForm.extract(
        _conjugate_by_transition(structure, q, False), structure)


def _sample_single(st, params, seeds, rnd, scalar_kw):
    data = constant_data(st)
    if params is None:
        if rnd is None:
            raise ParameterError(
                "sampling needs explicit params or a random source")
        params = random_free_params(data, rnd, seeds=seeds, **scalar_kw)
    elif seeds is not None:
        params = FreeParams(params.sub_blocks, seeds, params.skews)
    return _conjugate_by_transition(st, _sweep(data, params).assemble(), True)


def sample_isotropy_element(structure, params=None, seeds=None, rnd=None,
                            **scalar_kw) -> ExactMatrix:
    """Produce one exact member Q of the isotropy group of S.

    params / seeds may be omitted when a RandomSource is supplied; for a
    multi-eigenvalue structure pass per-part sequences (or nothing).
    Each part is swept out (solver._sweep, unchecked) and mapped to dense
    coordinates; the returned Q, the direct sum of the parts, is the one
    object checked: verify_isotropy asserts Q^T Q = I and Q^T S Q = S
    exactly, once, before Q is returned.
    """
    _require_structure(structure)
    if isinstance(structure, SegreStructure):
        q = _sample_single(structure, params, seeds, rnd, scalar_kw)
    else:
        count = len(structure.parts)
        params_list = list(params) if params is not None else [None] * count
        seeds_list = list(seeds) if seeds is not None else [None] * count
        if len(params_list) != count or len(seeds_list) != count:
            raise ParameterError(
                f"need one params/seeds entry per part ({count})")
        q = direct_sum([
            _sample_single(part, params_list[i], seeds_list[i], rnd,
                           scalar_kw)
            for i, part in enumerate(structure.parts)])
    _require_member(structure, q, IntegrityError, _BUILT)
    return q


def _check_level(structure, elems):
    if all(isinstance(e, ExactMatrix) for e in elems):
        return "dense"
    if all(isinstance(e, ToeplitzForm) for e in elems):
        if not isinstance(structure, SegreStructure):
            raise StructureError(
                "coefficient-level elements need a single-eigenvalue "
                "structure")
        return "form"
    raise ParameterError(
        "elements must be all dense matrices or all Toeplitz forms")


def group_element_mul(structure, elems) -> ExactMatrix | ToeplitzForm:
    """Product of members; the product is verified before it is returned.

    Accepts dense matrices or coefficient-level forms, never mixed.
    Inputs that fail membership raise MembershipError; an input already
    verified for this structure is not checked again.  A failing product
    would be an internal fault and raises IntegrityError.
    """
    elems = list(elems)
    if not elems:
        raise ParameterError("need at least one element")
    form = _check_level(structure, elems) == "form"
    for i, x in enumerate(elems):
        _require_member(structure, x, MembershipError, f"element {i}: ")
    product = elems[0]
    for x in elems[1:]:
        product = product * x
    _require_member(structure, product, IntegrityError,
                    "product left the group: " if form else _BUILT)
    return product


def group_element_inv(structure, elem) -> ExactMatrix | ToeplitzForm:
    """Inverse of a member: Q^T dense, flip transpose on forms."""
    form = _check_level(structure, [elem]) == "form"
    _require_member(structure, elem, MembershipError,
                    "element: " if form else "")
    inverse = elem.flip_transpose() if form else elem.transpose()
    _require_member(structure, inverse, IntegrityError,
                    "inverse left the group: " if form else _BUILT)
    return inverse
