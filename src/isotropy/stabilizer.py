"""Isotropy groups of canonical complex symmetric matrices.

Everything here works at two coordinate levels.  Dense level: exact
orthogonal matrices Q with Q^T S Q = S, where S is the canonical
symmetric matrix of a structure.  Coefficient level: block Toeplitz
forms X solving the flip congruence F X^T F X = I.  An exact change of
basis exchanges the two, so membership checks never approximate.
"""

from .errors import (IntegrityError, MembershipError, ParameterError,
                     StructureError)
from .forms import (SegreStructure, _conjugate_by_transition, _layout,
                    _require_square, _require_structure, _symmetric_rows,
                    symmetric_form)
from .matrices import (ExactMatrix, _grid_mul, _is_member, _mark_member,
                       _sparse_rows, direct_sum)
from .scalars import ONE, ZERO, _from_ints
from .solver import (FreeParams, _require_congruence, _sweep, constant_data,
                     random_free_params, solution_dimension)
from .toeplitz import ToeplitzForm


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


def _first_mismatch(a: ExactMatrix, b: ExactMatrix):
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return i, j
    return None


def _chain_tops(structure) -> list:
    """Dense index of the last basis vector of each block copy, in layout
    order (forms._layout: parts, then rows, then copies)."""
    return [offset + (k + 1) * alpha - 1
            for _, alpha, m, offset in _layout(structure) for k in range(m)]


def verify_isotropy(structure, q: ExactMatrix):
    """Exact membership test.  Returns (bool, report).

    The report names the first condition that fails, orthogonality
    before congruence, with the first offending entry of Q^T Q or
    Q^T S Q in row-major order.  Every test runs on the integer kernel of
    matrices.py, with Q = G / d and G over Z[i, sqrt2].

    A member is accepted at O(M n^2) cost, M the number of block copies,
    by two tests, which share one scan of the nonzeros of G:

    1. S Q = Q S, compared in integers over the nonzeros of S (found once
       per structure) at O(n^2) cost, since S has a few nonzeros per row;
    2. the M rows (G e_c)^T G of G^T G at the chain tops c (the last index
       of each block copy, in layout order) equal d^2 times the unit rows.
       G^T G is symmetric, so these rows are its columns G^T (G e_c).

    Together they are exact.  Transposing S Q = Q S with S^T = S gives
    Q^T S = S Q^T, so C = Q^T Q - I commutes with S and with every
    polynomial in S.  On each block copy S - lam I = P N P^{-1}, with N
    the nilpotent Jordan block (N e_k = e_{k-1}) and
    P^{-1} = (1/sqrt2)(I - i E); since (P^{-1})_{a-1,a-1} is nonzero, the
    chain top e_{a-1} is a cyclic vector of S - lam I on that copy, and
    the vectors (S - lam I)^k e_c over all chain tops c span the whole
    space.  C (S - lam I)^k e_c = (S - lam I)^k C e_c, so C e_c = 0 at
    every chain top forces C = 0, and then Q^T Q = I with Q^{-1} = Q^T
    turns S Q = Q S into Q^T S Q = S.

    When either test fails, the full product G^T G is compared with
    d^2 I entry by entry, and Q^T S Q is formed only if that holds, to
    name the first failing entry; the chain-top rows are rows of G^T G,
    so the two paths cannot disagree.  The test always computes;
    on success it marks q as a verified member of structure, so that the
    group operations need not check it again.
    """
    _require_square(structure, q)
    n = structure.n
    grid, den = q._g, q._den
    one = den * den
    s = symmetric_form(structure)
    g_rows = _sparse_rows(grid)
    if _grid_mul(s._g, g_rows, n) == \
            _grid_mul(grid, _symmetric_rows(structure), n):
        tops = _chain_tops(structure)
        zero = [0] * n
        rows = _grid_mul([[row[c] for row in grid] for c in tops], g_rows, n)
        if rows == [[[one if j == c else 0 for j in range(n)], zero, zero, zero]
                    for c in tops]:
            _mark_member(q, structure)
            return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"
    gram = _grid_mul(list(zip(*grid)), g_rows, n)
    for i, (ga, gb, gc, gd) in enumerate(gram):
        for j in range(n):
            if ga[j] != (one if i == j else 0) or gb[j] or gc[j] or gd[j]:
                entry = _from_ints(ga[j], gb[j], gc[j], gd[j], one)
                return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                               f"{entry}, expected "
                               f"{ONE if i == j else ZERO}")
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
