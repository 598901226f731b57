"""Isotropy groups of canonical complex symmetric matrices.

Everything here works at two coordinate levels.  Dense level: exact
orthogonal matrices Q with Q^T S Q = S, where S is the canonical
symmetric matrix of a structure.  Coefficient level: block Toeplitz
forms X solving the flip congruence F X^T F X = I.  An exact change of
basis exchanges the two, so membership checks never approximate.
"""

from __future__ import annotations

from itertools import chain

from . import solver, toeplitz
from .errors import (IntegrityError, MembershipError, ParameterError,
                     StructureError, _Immutable)
from .forms import (SegreStructure, _conjugate_by_transition,
                    _require_square, _require_structure, _transition_indices,
                    _transition_rows, solution_dimension, symmetric_form)
from .matrices import (ExactMatrix, _first_mismatch, _grid_mul, _is_member,
                       _mark_member, _reduced, _sparse_rows, direct_sum)
from .scalars import ONE, ZERO, _from_ints


class IsotropyDescription(_Immutable):
    """Size and shape summary of one isotropy group.

    dimension counts free parameters; reductive_part lists the sizes of
    the orthogonal factors acting on the leading diagonal coefficients;
    the recipes spell out every free parameter slot.  A multi-eigenvalue
    description carries the per-eigenvalue descriptions in parts.

    unipotent_order_bound and nilpotency_class_bound are alpha_1 - 1 and
    alpha_1, alpha_1 the largest block size (the largest over the parts).
    They are not proven bounds on the complementary normal subgroup: on
    [(3, 1), (2, 1)] they read 2 and 3, yet the zero-offset coupling
    G = gen_G(structure, 0, 1, 0, [[1]]) has (G - I)^4 != 0 and
    (G - I)^5 = 0.
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


def _in_group(structure, q: ExactMatrix):
    """The dense check (verify_isotropy): if q = G / d is a member of
    structure's group, mark it so and return the strips of the parts of X,
    2 d times its transition image (F X^T F X = (2 d)^2 I); else None."""
    _require_square(structure, q)
    x = _transition_rows(q._g, *_transition_indices(structure, False))
    n, strips, off = len(x), [], 0
    for part in structure.parts:
        blocks, end = part.blocks, off + part.n
        rows = x[off:end]
        if part.n < n:  # several parts: X is zero outside this one
            if any(map(any, chain.from_iterable(row[:off] + row[end:]
                                                for row in rows))):
                return None
            rows = tuple(row[off:end] for row in rows)
        strip = toeplitz._strip_rows(rows, blocks)
        if toeplitz._assembled(strip, blocks) != rows \
                or not toeplitz._congruent(
                    strip, blocks, toeplitz._moved_rows(strip, blocks), 1,
                    toeplitz._identity_strip(
                        blocks, (4 * q._den ** 2, 0, 0, 0)), 1):
            return None
        strips.append(strip)
        off = end
    _mark_member(q, structure)
    return strips


def verify_isotropy(structure, q: ExactMatrix):
    """Exact membership test.  Returns (bool, report).

    The report names the first condition that fails, orthogonality
    before congruence, with the first offending entry of Q^T Q or
    Q^T S Q in row-major order.  Every test runs on the integer kernel of
    matrices.py, with Q = G / d and G over Z[i, sqrt2].

    A member is accepted in Toeplitz coordinates, on the transition image
    X = Omega^T P^{-1} Q P Omega of Q, read off G by index
    (forms._transition_rows) and kept unreduced over 2 d (_in_group).  Q
    is a member exactly when

    1. X is block Toeplitz: it commutes with J = P^{-1} S P, conjugated
       by Omega.  Between two parts, whose eigenvalues differ, J X = X J
       forces every entry to zero.  Within a part it says that cell (u, v)
       of block (r, s) is coefficient v - u - shift(r, s), zero below:
       the part's rows are the assembly of their own strip
       (toeplitz._strip_rows, toeplitz._assembled), at O(n^2) cost.
    2. F X^T F X = I, F = Omega^T E Omega.  P is symmetric with
       P^T P = P^2 = i E, so Q^T Q = i P^{-1} Omega X^T F X Omega^T P^{-1},
       which is I exactly when X^T F X = F.  With X block Toeplitz, so is
       Y = F X^T F X, and its strip determines it: per part, the strip of
       F X^T F times X is the identity's, by the rule verify_congruence
       reads too (toeplitz._congruent), at O(M n^2) cost for M strip rows.

    1 says S Q = Q S, so with Q^T = Q^{-1} from 2, Q^T S Q = S; a member
    satisfies both, since it commutes with S.  S is not built, and X's
    strip is the member's form (to_toeplitz_coordinates).  On failure,
    G^T G is compared with d^2 I, and Q^T S Q formed only if that holds,
    to name the first failing entry; a matrix both accept is a fault of
    the library (IntegrityError).  The test always computes; on success
    it marks q as a verified member of structure, so that the group
    operations need not check it again.
    """
    if _in_group(structure, q):
        return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"
    return False, _first_failure(structure, q)


def _first_failure(structure, q: ExactMatrix) -> str:
    """The report on a matrix the dense check rejected (verify_isotropy)."""
    grid, n, one = q._g, structure.n, q._den ** 2
    gram = _grid_mul(list(zip(*grid)), _sparse_rows(grid), n)
    for i, (ga, gb, gc, gd) in enumerate(gram):
        for j in range(n):
            if ga[j] != (one if i == j else 0) or gb[j] or gc[j] or gd[j]:
                return (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                        f"{_from_ints(ga[j], gb[j], gc[j], gd[j], one)}, "
                        f"expected {ONE if i == j else ZERO}")
    s = symmetric_form(structure)
    cong = q.transpose() * s * q
    found = _first_mismatch(cong.to_lists(), s.to_lists())
    if found is None:
        raise IntegrityError("the Toeplitz check rejected a matrix that "
                             "Q^T Q = I and Q^T S Q = S accept")
    i, j = found
    return (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
            f"{cong[i, j]}, expected {s[i, j]}")


_BUILT = "constructed element failed: "


def _require_member(structure, x, error, prefix: str):
    """Raise error(prefix + report) unless x is a member of the group of
    structure: a dense matrix by verify_isotropy, a form by the congruence
    against the identity data, once its structure matches.  A member
    already verified for structure is not checked again."""
    if isinstance(x, toeplitz.ToeplitzForm):
        if x.structure != structure:
            raise error(prefix + "built for a different structure")
        solver._require_congruence(solver.constant_data(structure), x,
                                   error, prefix)
    elif not _is_member(x, structure):
        ok, report = verify_isotropy(structure, x)
        if not ok:
            raise error(prefix + report)


def from_toeplitz_coordinates(structure: SegreStructure,
                              form: toeplitz.ToeplitzForm) -> ExactMatrix:
    """Dense member Q from a coefficient-level solution; Q is verified."""
    if not isinstance(form, toeplitz.ToeplitzForm):
        raise ParameterError("from_toeplitz_coordinates needs a ToeplitzForm, "
                             f"got {type(form).__name__}")
    if form.structure != structure:
        raise StructureError("form was built for a different structure")
    q = _conjugate_by_transition(structure, form.assemble())
    _require_member(structure, q, IntegrityError, _BUILT)
    return q


def to_toeplitz_coordinates(structure: SegreStructure,
                            q: ExactMatrix) -> toeplitz.ToeplitzForm:
    """Coefficient-level solution from a dense member (inverse map): the
    strip of its transition image, marked a member; for an unmarked q, the
    strip its check (_in_group) accepted."""
    if not isinstance(structure, SegreStructure):
        raise StructureError(
            "coefficient coordinates exist per eigenvalue; split the "
            "matrix along parts first")
    if _is_member(q, structure):
        strips = [toeplitz._strip_rows(_transition_rows(
            q._g, *_transition_indices(structure, False)), structure.blocks)]
    elif not (strips := _in_group(structure, q)):
        raise MembershipError(_first_failure(structure, q))
    form = toeplitz.ToeplitzForm._from_strip(structure, _reduced(
        sum(structure.mults), structure.n, strips[0], 2 * q._den))
    _mark_member(form, structure)
    return form


def _sample_single(st, params, seeds, rnd, scalar_kw):
    data = solver.constant_data(st)
    if params is None:
        if rnd is None:
            raise ParameterError(
                "sampling needs explicit params or a random source")
        params = solver.random_free_params(data, rnd, seeds=seeds,
                                           **scalar_kw)
    elif seeds is not None and isinstance(params, solver.FreeParams):
        params = solver.FreeParams(params.sub_blocks, seeds, params.skews)
    return _conjugate_by_transition(
        st, solver._sweep(data, params).assemble())


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
    if all(isinstance(e, toeplitz.ToeplitzForm) for e in elems):
        if not isinstance(structure, SegreStructure):
            raise StructureError(
                "coefficient-level elements need a single-eigenvalue "
                "structure")
        return "form"
    raise ParameterError(
        "elements must be all dense matrices or all Toeplitz forms")


def group_element_mul(structure,
                      elems) -> ExactMatrix | toeplitz.ToeplitzForm:
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


def group_element_inv(structure,
                      elem) -> ExactMatrix | toeplitz.ToeplitzForm:
    """Inverse of a member: Q^T dense, flip transpose on forms."""
    form = _check_level(structure, [elem]) == "form"
    _require_member(structure, elem, MembershipError,
                    "element: " if form else "")
    inverse = elem.flip_transpose() if form else elem.transpose()
    _require_member(structure, inverse, IntegrityError,
                    "inverse left the group: " if form else _BUILT)
    return inverse
