"""Isotropy groups of canonical complex symmetric matrices.

Everything here works at two coordinate levels.  Dense level: exact
orthogonal matrices Q with Q^T S Q = S, where S is the canonical
symmetric matrix of a structure.  Coefficient level: block Toeplitz
forms X solving the flip congruence F X^T F X = I.  An exact change of
basis exchanges the two, so membership checks never approximate.
"""

from .errors import (DimensionMismatchError, IntegrityError, MembershipError,
                     ParameterError, StructureError)
from .forms import (MultiSegreStructure, SegreStructure, symmetric_form,
                    transition_form, transition_form_inverse)
from .matrices import ExactMatrix, _is_member, _mark_member, direct_sum
from .scalars import ONE, ZERO, ExactScalar
from .solver import (CongruenceData, FreeParams, random_free_params,
                     solution_dimension, solve_congruence, verify_congruence)
from .toeplitz import ToeplitzForm, conjugate_by_omega


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
    if isinstance(structure, SegreStructure):
        return _single_description(structure)
    if isinstance(structure, MultiSegreStructure):
        parts = tuple(_single_description(p) for p in structure.parts)
        return IsotropyDescription(
            structure=structure,
            dimension=sum(d.dimension for d in parts),
            reductive_part=[m for d in parts for m in d.reductive_part],
            unipotent_order_bound=max(
                d.unipotent_order_bound for d in parts),
            nilpotency_class_bound=max(
                d.nilpotency_class_bound for d in parts),
            generator_recipes={
                "parts": [d.generator_recipes for d in parts]},
            parts=parts)
    raise StructureError(
        "expected SegreStructure or MultiSegreStructure, "
        f"got {type(structure).__name__}")


def _first_mismatch(a: ExactMatrix, b: ExactMatrix):
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return i, j
    return None


def _dot(u, v) -> ExactScalar:
    acc = ZERO
    for a, b in zip(u, v):
        if not (a.is_zero or b.is_zero):
            acc = acc + a * b
    return acc


def _commutes(s: ExactMatrix, q: ExactMatrix) -> bool:
    """S Q = Q S for symmetric S, summing only over the nonzeros of S."""
    n = s.rows
    sparse = [[(k, x) for k, x in enumerate(s.row(i)) if not x.is_zero]
              for i in range(n)]
    rows = [q.row(i) for i in range(n)]
    for i in range(n):
        q_i = rows[i]
        for j in range(n):
            sq = qs = ZERO
            for k, x in sparse[i]:
                y = rows[k][j]
                if not y.is_zero:
                    sq = sq + x * y
            for k, x in sparse[j]:
                y = q_i[k]
                if not y.is_zero:
                    qs = qs + y * x
            if sq != qs:
                return False
    return True


def verify_isotropy(structure, q: ExactMatrix):
    """Exact membership test.  Returns (bool, report).

    The report names the first condition that fails, orthogonality
    before congruence, with the first offending entry of Q^T Q or
    Q^T S Q in row-major order.  Q^T Q is symmetric, so its first
    mismatch lies in the upper triangle, the only part computed; the
    scan stops there.  Once Q^T Q = I holds, Q is invertible
    with Q^{-1} = Q^T, so Q^T S Q = S holds exactly when S Q = Q S, which
    costs O(n^2) since S has a few nonzeros per row; Q^T S Q is formed
    only to report a failure.  The test always computes; on success it
    marks q as a verified member of structure, so that the group
    operations need not check it again.
    """
    n = structure.n
    if q.rows != n or q.cols != n:
        raise DimensionMismatchError(
            f"matrix is {q.rows}x{q.cols}, structure needs {n}x{n}")
    cols = q.transpose()
    for i in range(n):
        col_i = cols.row(i)
        for j in range(i, n):
            entry = _dot(col_i, cols.row(j))
            want = ONE if i == j else ZERO
            if entry != want:
                return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                               f"{entry}, expected {want}")
    s = symmetric_form(structure)
    if not _commutes(s, q):
        cong = cols * s * q
        i, j = _first_mismatch(cong, s)
        return False, (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
                       f"{cong[i, j]}, expected {s[i, j]}")
    _mark_member(q, structure)
    return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"


def _assert_membership(structure, q: ExactMatrix):
    ok, report = verify_isotropy(structure, q)
    if not ok:
        raise IntegrityError(f"constructed element failed: {report}")


def _check_member(structure, q: ExactMatrix, prefix: str):
    """MembershipError, its report after prefix, unless q is a verified
    member of structure."""
    if _is_member(q, structure):
        return
    ok, report = verify_isotropy(structure, q)
    if not ok:
        raise MembershipError(prefix + report)


def from_toeplitz_coordinates(structure: SegreStructure,
                              form: ToeplitzForm) -> ExactMatrix:
    """Dense member Q from a coefficient-level solution."""
    if form.structure != structure:
        raise StructureError("form was built for a different structure")
    x = conjugate_by_omega(form.assemble(), structure, "to_dense")
    q = transition_form(structure) * x * transition_form_inverse(structure)
    _assert_membership(structure, q)
    return q


def to_toeplitz_coordinates(structure: SegreStructure,
                            q: ExactMatrix) -> ToeplitzForm:
    """Coefficient-level solution from a dense member (inverse map)."""
    if not isinstance(structure, SegreStructure):
        raise StructureError(
            "coefficient coordinates exist per eigenvalue; split the "
            "matrix along parts first")
    _check_member(structure, q, "")
    dense = conjugate_by_omega(
        transition_form_inverse(structure) * q * transition_form(structure),
        structure, "to_toeplitz")
    return ToeplitzForm.extract(dense, structure)


def _sample_single(st, params, seeds, rnd, scalar_kw):
    data = CongruenceData.identity(st)
    if params is None:
        if rnd is None:
            raise ParameterError(
                "sampling needs explicit params or a random source")
        params = random_free_params(data, rnd, seeds=seeds, **scalar_kw)
    elif seeds is not None:
        params = FreeParams(params.sub_blocks, seeds, params.skews)
    x = solve_congruence(data, params)
    return from_toeplitz_coordinates(st, x)


def sample_isotropy_element(structure, params=None, seeds=None, rnd=None,
                            **scalar_kw) -> ExactMatrix:
    """Produce one exact member Q of the isotropy group of S.

    params / seeds may be omitted when a RandomSource is supplied; for a
    multi-eigenvalue structure pass per-part sequences (or nothing).
    The result always satisfies Q^T Q = I and Q^T S Q = S exactly; both
    are asserted before returning.
    """
    if isinstance(structure, SegreStructure):
        return _sample_single(structure, params, seeds, rnd, scalar_kw)
    if not isinstance(structure, MultiSegreStructure):
        raise StructureError(
            "expected SegreStructure or MultiSegreStructure, "
            f"got {type(structure).__name__}")
    count = len(structure.parts)
    params_list = list(params) if params is not None else [None] * count
    seeds_list = list(seeds) if seeds is not None else [None] * count
    if len(params_list) != count or len(seeds_list) != count:
        raise ParameterError(
            f"need one params/seeds entry per part ({count})")
    q = direct_sum([
        _sample_single(part, params_list[i], seeds_list[i], rnd, scalar_kw)
        for i, part in enumerate(structure.parts)])
    _assert_membership(structure, q)
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


def _check_form_member(structure, form, label):
    if form.structure != structure:
        raise MembershipError(f"{label}: built for a different structure")
    if _is_member(form, structure):
        return
    ok, report = verify_congruence(CongruenceData.identity(structure), form)
    if not ok:
        raise MembershipError(f"{label}: {report}")


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
    level = _check_level(structure, elems)
    if level == "dense":
        for i, q in enumerate(elems):
            _check_member(structure, q, f"element {i}: ")
        product = elems[0]
        for q in elems[1:]:
            product = product * q
        _assert_membership(structure, product)
        return product
    for i, form in enumerate(elems):
        _check_form_member(structure, form, f"element {i}")
    product = elems[0]
    for form in elems[1:]:
        product = product * form
    ok, report = verify_congruence(
        CongruenceData.identity(structure), product)
    if not ok:
        raise IntegrityError(f"product left the group: {report}")
    return product


def group_element_inv(structure, elem) -> ExactMatrix | ToeplitzForm:
    """Inverse of a member: Q^T dense, flip transpose on forms."""
    level = _check_level(structure, [elem])
    if level == "dense":
        _check_member(structure, elem, "")
        inverse = elem.transpose()
        _assert_membership(structure, inverse)
        return inverse
    _check_form_member(structure, elem, "element")
    inverse = elem.flip_transpose()
    ok, report = verify_congruence(
        CongruenceData.identity(structure), inverse)
    if not ok:
        raise IntegrityError(f"inverse left the group: {report}")
    return inverse
