"""Group-level API tests: description, sampling, verification, arithmetic."""

from itertools import chain

import pytest

from isotropy import stabilizer
from isotropy.errors import (DimensionMismatchError, IntegrityError,
                             MembershipError, ParameterError, StructureError)
from isotropy.forms import (MultiSegreStructure, SegreStructure,
                            _conjugate_by_transition, enumerate_structures,
                            solution_dimension, symmetric_form)
from isotropy.generators import factor_unipotent, gen_W
from isotropy.matrices import (ExactMatrix, cayley_orthogonal, diagonal,
                               direct_sum, identity, zeros)
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, SQRT2, ZERO, rat
from isotropy.solver import (FreeParams, constant_data, random_free_params,
                             solve_congruence)
from isotropy.stabilizer import (describe_isotropy, from_toeplitz_coordinates,
                                 group_element_inv, group_element_mul,
                                 sample_isotropy_element,
                                 to_toeplitz_coordinates, verify_isotropy)
from isotropy.toeplitz import ToeplitzForm

import _oracles as oracle


def _power(m, n):
    """m^n by repeated products."""
    out = identity(m.rows)
    for _ in range(n):
        out = out * m
    return out


def _st(blocks, lam=IMAG):
    return SegreStructure(lam, blocks)


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------


def test_describe_full_orthogonal_case():
    for n in (1, 2, 5):
        d = describe_isotropy(_st([(1, n)]))
        assert d.dimension == n * (n - 1) // 2
        assert d.reductive_part == (n,)
        assert d.unipotent_order_bound == 0
        assert d.nilpotency_class_bound == 1
        assert d.generator_recipes["diagonal_skews"] == []
        assert d.generator_recipes["couplings"] == []


def test_describe_rigid_block():
    d = describe_isotropy(_st([(2, 1)]))
    assert d.dimension == 0
    assert d.reductive_part == (1,)
    assert d.unipotent_order_bound == 1
    assert d.nilpotency_class_bound == 2


def test_describe_two_distinct_scalar_parts():
    multi = MultiSegreStructure([_st([(1, 1)], 0), _st([(1, 1)], 1)])
    d = describe_isotropy(multi)
    assert d.dimension == 0
    assert d.reductive_part == (1, 1)
    assert len(d.parts) == 2
    assert all(p.dimension == 0 for p in d.parts)


def test_describe_totals_are_part_sums():
    multi = MultiSegreStructure([_st([(3, 2), (1, 1)], 0), _st([(2, 2)], 1)])
    d = describe_isotropy(multi)
    assert d.dimension == sum(p.dimension for p in d.parts)
    assert d.dimension == (solution_dimension(_st([(3, 2), (1, 1)], 0))
                           + solution_dimension(_st([(2, 2)], 1)))
    assert d.reductive_part == (2, 1, 2)
    assert d.unipotent_order_bound == 2
    assert d.nilpotency_class_bound == 3


def test_recipe_slots_count_the_dimension():
    for n in range(1, 7):
        for st in enumerate_structures(n, IMAG):
            d = describe_isotropy(st)
            total = 0
            for seed in d.generator_recipes["orthogonal_seeds"]:
                total += seed["size"] * (seed["size"] - 1) // 2
            for sk in d.generator_recipes["diagonal_skews"]:
                total += sk["size"] * (sk["size"] - 1) // 2
            for cp in d.generator_recipes["couplings"]:
                total += cp["shape"][0] * cp["shape"][1]
            assert total == d.dimension == solution_dimension(st)


def test_describe_rejects_junk():
    with pytest.raises(StructureError):
        describe_isotropy([(2, 1)])


def test_duplicate_eigenvalues_rejected_at_construction():
    with pytest.raises(StructureError):
        MultiSegreStructure([_st([(2, 1)], 0), _st([(1, 1)], 0)])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_plain_rotation():
    st = _st([(1, 2)])
    z = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    q = sample_isotropy_element(st, FreeParams.zero(st),
                                seeds=[cayley_orthogonal(z)])
    assert q == ExactMatrix.from_rows([[0, -1], [1, 0]])
    s = symmetric_form(st)
    assert q.transpose() * s * q == s


def test_sample_central_element():
    st = _st([(2, 1)])
    q = sample_isotropy_element(st, FreeParams.zero(st),
                                seeds=[ExactMatrix.from_rows([[-1]])])
    assert q == identity(2).scale(rat(-1))


def test_sample_nontrivial_sub_block():
    st = _st([(2, 1), (1, 1)])
    params = FreeParams(
        {(1, 0, 0): ExactMatrix.from_rows([[1]])},
        [identity(1), identity(1)],
        {(0, 1): zeros(1, 1)},
    )
    q = sample_isotropy_element(st, params)
    assert q != identity(3)
    ok, report = verify_isotropy(st, q)
    assert ok, report


def test_sample_random_members_across_structures():
    rnd = RandomSource(20240855)
    shapes = [[(1, 3)], [(2, 2)], [(3, 1)], [(2, 1), (1, 2)],
              [(3, 2), (1, 1)], [(4, 1), (2, 1)]]
    for blocks in shapes:
        st = _st(blocks)
        for _ in range(3):
            q = sample_isotropy_element(st, rnd=rnd)
            ok, report = verify_isotropy(st, q)
            assert ok, report


def test_sample_multi_is_block_diagonal():
    rnd = RandomSource(20240856)
    multi = MultiSegreStructure([_st([(2, 1)], 0), _st([(1, 2)], 1)])
    q = sample_isotropy_element(multi, rnd=rnd)
    ok, report = verify_isotropy(multi, q)
    assert ok, report
    for i in range(2):
        for j in range(2, 4):
            assert q[i, j] == ZERO
            assert q[j, i] == ZERO
    top = ExactMatrix.from_rows([[q[i, j] for j in range(2)]
                                 for i in range(2)])
    bottom = ExactMatrix.from_rows([[q[i, j] for j in range(2, 4)]
                                    for i in range(2, 4)])
    assert verify_isotropy(multi.parts[0], top)[0]
    assert verify_isotropy(multi.parts[1], bottom)[0]


def test_sample_requires_params_or_rng():
    with pytest.raises(ParameterError):
        sample_isotropy_element(_st([(2, 1)]))
    multi = MultiSegreStructure([_st([(1, 1)], 0), _st([(1, 1)], 1)])
    with pytest.raises(ParameterError):
        sample_isotropy_element(multi, params=[None])


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def test_verify_identity_and_center():
    st = _st([(3, 1), (1, 1)])
    ok, report = verify_isotropy(st, identity(4))
    assert ok and "member" in report
    assert verify_isotropy(st, identity(4).scale(rat(-1)))[0]


def test_verify_reports_orthogonality_first():
    st = _st([(2, 1)])
    ok, report = verify_isotropy(st, identity(2).scale(rat(2)))
    assert not ok
    assert "orthogonality" in report


def test_verify_reports_congruence_for_orthogonal_non_member():
    st = _st([(2, 1)], 0)
    flip = diagonal([ONE, -ONE])
    assert symmetric_form(st)[0, 1] != ZERO
    ok, report = verify_isotropy(st, flip)
    assert not ok
    assert "congruence" in report


def test_verify_rejects_wrong_shape():
    with pytest.raises(DimensionMismatchError):
        verify_isotropy(_st([(2, 1)]), identity(3))


_STRUCTURE = "expected SegreStructure or MultiSegreStructure, got str"
_PARAMS = "params must be a FreeParams, got str"
_MULTI = MultiSegreStructure([_st([(2, 1)], 0), _st([(1, 2)], 1)])
_WRONG_TYPES = {
    "verify_isotropy(str, q)": (
        StructureError, _STRUCTURE, lambda st, q: verify_isotropy("x", q)),
    "group_element_mul(str, [q])": (
        StructureError, _STRUCTURE, lambda st, q: group_element_mul("x", [q])),
    "group_element_inv(str, q)": (
        StructureError, _STRUCTURE, lambda st, q: group_element_inv("x", q)),
    "verify_isotropy(st, str)": (
        ParameterError, "expected an ExactMatrix, got str",
        lambda st, q: verify_isotropy(st, "x")),
    "to_toeplitz_coordinates(st, list)": (
        ParameterError, "expected an ExactMatrix, got list",
        lambda st, q: to_toeplitz_coordinates(st, [[1]])),
    "from_toeplitz_coordinates(st, str)": (
        ParameterError, "from_toeplitz_coordinates needs a ToeplitzForm, "
        "got str", lambda st, q: from_toeplitz_coordinates(st, "x")),
    "sample_isotropy_element(st, params=str)": (
        ParameterError, _PARAMS,
        lambda st, q: sample_isotropy_element(st, params="x")),
    "sample_isotropy_element(st, params=str, seeds=list)": (
        ParameterError, _PARAMS, lambda st, q: sample_isotropy_element(
            st, params="x", seeds=[identity(1), identity(1)])),
    "sample_isotropy_element(multi, params=[FreeParams, str], seeds=list)": (
        ParameterError, _PARAMS, lambda st, q: sample_isotropy_element(
            _MULTI, params=[FreeParams.zero(_MULTI.parts[0]), "x"],
            seeds=[[identity(1)], [identity(2)]])),
}


@pytest.mark.parametrize("call", sorted(_WRONG_TYPES))
def test_wrong_argument_types_raise_the_package_errors(call):
    # each call reads an attribute off the wrong argument unless it is
    # checked first; the error is the package's, never AttributeError
    error, message, run = _WRONG_TYPES[call]
    st = _st([(2, 1), (1, 1)])
    q = sample_isotropy_element(st, rnd=RandomSource(36))
    with pytest.raises(error) as raised:
        run(st, q)
    assert str(raised.value) == message


def _commuting_probes(st):
    """Per block copy, I + N^(alpha-1) with N = S - lam I on that copy and
    zero elsewhere: it commutes with S but is not orthogonal, and
    Q^T Q - I is zero outside two columns of that copy, its first and its
    chain top (its last)."""
    parts = st.parts if isinstance(st, MultiSegreStructure) else (st,)
    s = symmetric_form(st)
    n = s.rows
    off = 0
    for part in parts:
        for alpha, m in part.blocks:
            for _ in range(m):
                lam = identity(alpha).scale(part.lam)
                nil = ExactMatrix.build(
                    alpha, alpha, lambda i, j: s[off + i, off + j]) - lam
                rest = n - off - alpha
                yield identity(n) + direct_sum([
                    zeros(off, off), _power(nil, alpha - 1), zeros(rest, rest)])
                off += alpha


def _membership_probes(st, q):
    """A member q, then non-members: a scaled identity, orthogonal matrices
    (a sign flip alone, q times it, the reversal), q with one entry
    changed at several positions, by 1 and by sqrt2 (which leaves Gram
    entries with a sqrt2 part and no Gaussian part), and the commuting
    non-members of _commuting_probes."""
    n = q.rows

    def unit(i, j):
        return ExactMatrix.build(n, n, lambda r, c: ONE if (r, c) == (i, j) else ZERO)

    flip = diagonal([-ONE] + [ONE] * (n - 1))
    yield q
    yield identity(n).scale(rat(2))
    yield flip
    yield q * flip
    yield ExactMatrix.build(n, n, lambda i, j: ONE if i + j == n - 1 else ZERO)
    for i, j in sorted({(0, 0), (0, n - 1), (n // 2, n // 3), (n - 1, n - 1)}):
        yield q + unit(i, j)
        yield q + unit(i, j).scale(SQRT2)
    yield from _commuting_probes(st)


def _transition_probes(st):
    """Non-members Q whose transition image Omega^T P^-1 Q P Omega is I plus
    one unit: in the last cell-row of a group, at the first and at the
    last cell of each block of its part, which breaks the block pattern
    there only and leaves the strip of I; between two parts, in a strip
    row and below it; and the unit between two parts alone."""
    n, parts = st.n, st.parts
    units, off, starts = [], 0, []
    for part in parts:
        groups = []
        for alpha, m in part.blocks:
            groups.append((alpha, m, off))
            off += alpha * m
        starts.append(groups)
    for groups in starts:
        for alpha_r, m_r, top in groups:
            if alpha_r > 1:
                last = top + (alpha_r - 1) * m_r
                for alpha_s, m_s, left in groups:
                    units += [(last, left), (last, left + (alpha_s - 1) * m_s)]
    for a, b in ((0, 1), (1, 0))[:2 * (len(parts) > 1)]:
        first, after = starts[a][0][2], starts[b][0][2]
        units += [(first, after), (first + starts[a][0][1], after)]

    def unit(i, j):
        return ExactMatrix.build(n, n, lambda r, c: ONE if (r, c) == (i, j) else ZERO)

    for i, j in units:
        yield _conjugate_by_transition(st, identity(n) + unit(i, j))
    if len(parts) > 1:
        yield _conjugate_by_transition(st, unit(*units[-1]))


def test_verify_matches_two_product_reference():
    # exhaustive over every partition with n <= 7 at eigenvalues 0, 1 and
    # i, n <= 5 at 1 + sqrt2 with samples drawn with sqrt2 parts, plus
    # multi-eigenvalue structures
    rnd = RandomSource(20240862)
    structures = [(st, {}) for n in range(1, 8) for lam in (ZERO, ONE, IMAG)
                  for st in enumerate_structures(n, lam)]
    structures += [(st, {"with_sqrt2": True}) for n in range(1, 6)
                   for st in enumerate_structures(n, ONE + SQRT2)]
    for parts in ((_st([(2, 1), (1, 1)], 0), _st([(2, 1)], 1)),
                  (_st([(3, 1), (1, 1)], 0), _st([(2, 2)], IMAG)),
                  (_st([(4, 1)], 1), _st([(3, 1), (2, 1)], 0)),
                  (_st([(2, 1), (1, 1)], ONE + SQRT2), _st([(2, 1), (1, 1)], 0))):
        structures.append((MultiSegreStructure(parts), {}))
    for st, kw in structures:
        q = sample_isotropy_element(st, rnd=rnd, max_num=2, max_den=2, **kw)
        s = symmetric_form(st)
        for probe in chain(_membership_probes(st, q), _transition_probes(st)):
            assert verify_isotropy(st, probe) == oracle.two_product_membership(s, probe)


def test_parts_swapped_is_orthogonal_but_no_member():
    # two parts of one shape at different eigenvalues: swapping them is
    # orthogonal and nonzero only between the parts
    st = MultiSegreStructure([_st([(2, 1), (1, 1)], 0), _st([(2, 1), (1, 1)], 1)])
    swap = ExactMatrix.build(6, 6, lambda i, j: ONE if abs(i - j) == 3 else ZERO)
    ok, report = verify_isotropy(st, swap)
    assert (ok, report) == oracle.two_product_membership(symmetric_form(st), swap)
    assert report.startswith("congruence fails first")


@pytest.mark.parametrize("st", [_st([(3, 1), (2, 2), (1, 1)], IMAG),
                                MultiSegreStructure([_st([(2, 1)], 0),
                                                     _st([(1, 2)], 1)])],
                         ids=["single", "multi"])
def test_checks_that_disagree_raise_an_integrity_error(monkeypatch, st):
    # a Toeplitz check that rejected a member, which both full products
    # accept, is a fault of the library, named as such
    q = sample_isotropy_element(st, rnd=RandomSource(20261020))
    monkeypatch.setattr(stabilizer, "_in_group", lambda *args: False)
    with pytest.raises(IntegrityError, match="^the Toeplitz check rejected "
                       r"a matrix that Q\^T Q = I and Q\^T S Q = S accept$"):
        verify_isotropy(st, q)


def test_forged_mark_is_not_trusted_by_verify():
    st = _st([(2, 1)])
    fake = identity(2).scale(rat(2))
    object.__setattr__(fake, "_member_of", st)
    ok, report = verify_isotropy(st, fake)
    assert not ok and "orthogonality" in report


# ---------------------------------------------------------------------------
# coordinate round trips
# ---------------------------------------------------------------------------


def test_coordinate_maps_invert_each_other():
    rnd = RandomSource(20240857)
    for blocks in ([(3, 2)], [(2, 1), (1, 2)], [(4, 1), (2, 1)]):
        st = _st(blocks)
        data = constant_data(st)
        x = solve_congruence(data, random_free_params(data, rnd))
        q = from_toeplitz_coordinates(st, x)
        assert to_toeplitz_coordinates(st, q) == x
        assert from_toeplitz_coordinates(st, to_toeplitz_coordinates(st, q)) == q


def test_to_toeplitz_rejects_non_members(monkeypatch):
    # with the report of verify_isotropy, after one dense check
    st = _st([(2, 1)])
    bad = identity(2).scale(rat(3))
    report = verify_isotropy(st, bad)[1]
    checks, check = [], stabilizer._in_group
    monkeypatch.setattr(stabilizer, "_in_group",
                        lambda *args: checks.append(1) or check(*args))
    with pytest.raises(MembershipError) as raised:
        to_toeplitz_coordinates(st, bad)
    assert str(raised.value) == report and checks == [1]


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------


def test_products_and_inverses_stay_members():
    rnd = RandomSource(20240858)
    st = _st([(3, 1), (2, 2)])
    q1 = sample_isotropy_element(st, rnd=rnd)
    q2 = sample_isotropy_element(st, rnd=rnd)
    prod = group_element_mul(st, [q1, q2])
    assert verify_isotropy(st, prod)[0]
    inv = group_element_inv(st, q1)
    assert inv == q1.transpose()
    assert group_element_mul(st, [q1, inv]) == identity(st.n)
    assert verify_isotropy(st, group_element_mul(st, [q1, group_element_inv(st, q2)]))[0]


def test_mul_rejects_non_member_input():
    st = _st([(2, 1)])
    with pytest.raises(MembershipError):
        group_element_mul(st, [identity(2), identity(2).scale(rat(2))])
    with pytest.raises(MembershipError):
        group_element_inv(st, identity(2).scale(rat(2)))


def test_mul_rejects_mixed_or_empty():
    st = _st([(2, 1)])
    form = solve_congruence(constant_data(st),
                            FreeParams.zero(st))
    with pytest.raises(ParameterError):
        group_element_mul(st, [identity(2), form])
    with pytest.raises(ParameterError):
        group_element_mul(st, [])


def test_form_level_products_and_inverses():
    rnd = RandomSource(20240859)
    st = _st([(3, 2), (2, 1)])
    data = constant_data(st)
    x1 = solve_congruence(data, random_free_params(data, rnd))
    x2 = solve_congruence(data, random_free_params(data, rnd))
    prod = group_element_mul(st, [x1, x2])
    assert prod == x1 * x2
    inv = group_element_inv(st, x1)
    assert inv == x1.flip_transpose()
    assert (x1 * inv).is_identity


def test_leading_diagonal_projection_is_homomorphism():
    rnd = RandomSource(20240860)
    st = _st([(3, 1), (2, 2), (1, 1)])
    data = constant_data(st)
    for _ in range(4):
        x1 = solve_congruence(data, random_free_params(data, rnd))
        x2 = solve_congruence(data, random_free_params(data, rnd))
        prod = x1 * x2
        for r in range(st.part_count):
            lead1 = x1.coefficient(r, r, 0)
            lead2 = x2.coefficient(r, r, 0)
            assert prod.coefficient(r, r, 0) == lead1 * lead2
            assert lead1.transpose() * lead1 == identity(st.mults[r])


def test_orthogonal_conjugate_preserves_unipotent_shape():
    rnd = RandomSource(20240861)
    st = _st([(3, 1), (2, 2)])
    data = constant_data(st)
    o_params = random_free_params(data, rnd)
    base = FreeParams.zero(st)
    o_form = solve_congruence(
        data, FreeParams(base.sub_blocks, o_params.diag_seeds, base.skews))
    skews = {(0, 1): rnd.skew(1), (0, 2): rnd.skew(1), (1, 1): rnd.skew(2)}
    v_form = gen_W(st, skews)
    conj = group_element_mul(
        st, [o_form, v_form, group_element_inv(st, o_form)])
    assert conj.has_identity_diagonal
    assert not conj.is_identity


def test_member_of_another_structure_is_checked_again():
    rnd = RandomSource(20240863)
    st0 = SegreStructure(0, [(2, 1), (1, 1)])
    st1 = SegreStructure(1, [(3, 1)])
    q = sample_isotropy_element(st0, rnd=rnd)
    assert not verify_isotropy(st1, q)[0]
    with pytest.raises(MembershipError, match=r"^element 1: "):
        group_element_mul(st1, [identity(3), q])
    with pytest.raises(MembershipError):
        group_element_inv(st1, q)
    with pytest.raises(MembershipError):
        to_toeplitz_coordinates(st1, q)


def test_changed_form_is_checked_again():
    rnd = RandomSource(20240864)
    st = _st([(3, 2), (2, 1)])
    w = gen_W(st, {(0, 1): rnd.skew(2), (0, 2): rnd.skew(2), (1, 1): rnd.skew(1)})
    one = ExactMatrix.from_rows([[1]])
    # coefficient (1, 1, 1) set to 1
    bad = w + ToeplitzForm.from_sparse(
        st, {(1, 1, 1): one - w.coefficient(1, 1, 1)})
    assert bad.has_identity_diagonal
    assert group_element_mul(st, [w, w]) == w * w
    with pytest.raises(MembershipError, match=r"^element 1: block"):
        group_element_mul(st, [w, bad])
    with pytest.raises(MembershipError):
        group_element_inv(st, bad)
    with pytest.raises(MembershipError):
        factor_unipotent(st, bad)
