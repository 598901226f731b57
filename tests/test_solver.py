"""Congruence solver tests: accumulators, sweep output, dimension counts."""

import pytest

import _oracles as oracle
from isotropy.errors import (
    IntegrityError,
    ParameterError,
    SeedConstraintError,
    SequencingError,
    SingularMatrixError,
    StructureError,
)
from isotropy.forms import (MultiSegreStructure, SegreStructure,
                            block_backward_form, enumerate_structures,
                            free_parameter_count, solution_dimension,
                            symmetric_form)
from isotropy.generators import gen_V
from isotropy.matrices import ExactMatrix, identity, zeros
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, SQRT2, parse_scalar, rat
from isotropy import solver
from isotropy.matrices import _sparse_rows, _sum_of_products
from isotropy.solver import (
    CongruenceData,
    FreeParams,
    _bx,
    _pairs,
    _plan,
    _put,
    _right_factor,
    _sweep,
    _terms,
    constant_data,
    random_free_params,
    solve_congruence,
    verify_congruence,
)
from isotropy.toeplitz import ToeplitzForm


def _st(blocks):
    return SegreStructure(IMAG, blocks)


def _tampered(x, cells):
    """x with the coefficients cells names, {(r, s, j): matrix}, replaced."""
    return x + ToeplitzForm.from_sparse(x.structure, {
        key: mat - x.coefficient(*key) for key, mat in cells.items()})


def _full_coeffs(rnd, structure, **kw):
    # every in-range slot assigned, for accumulator identities
    out = {}
    count = structure.part_count
    for r in range(count):
        for s in range(count):
            for j in range(structure.depth(r, s)):
                out[(r, s, j)] = rnd.matrix(structure.mults[r],
                                            structure.mults[s], **kw)
    return out


# ---------------------------------------------------------------------------
# data and parameter containers
# ---------------------------------------------------------------------------


def test_data_rejects_wrong_group_count():
    st = _st([(2, 1), (1, 1)])
    with pytest.raises(StructureError):
        CongruenceData(st, [[identity(1), zeros(1, 1)]],
                       [[identity(1), zeros(1, 1)]])


def test_data_rejects_wrong_coefficient_count():
    st = _st([(2, 1)])
    with pytest.raises(StructureError):
        CongruenceData(st, [[identity(1)]], [[identity(1)]])


def test_data_rejects_asymmetric_coefficient():
    st = _st([(1, 2)])
    bad = ExactMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ParameterError):
        CongruenceData(st, [[bad]], [[identity(2)]])


def test_data_rejects_singular_leading_coefficient():
    st = _st([(1, 2)])
    sym_singular = ExactMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrixError):
        CongruenceData(st, [[sym_singular]], [[identity(2)]])


def test_data_rejects_non_structure():
    with pytest.raises(StructureError):
        CongruenceData(((2, 1),), [[identity(1), zeros(1, 1)]],
                       [[identity(1), zeros(1, 1)]])


def test_identity_data_forms():
    st = _st([(3, 2), (2, 3)])
    data = constant_data(st)
    assert data.c_coeffs is data.b_coeffs and data.is_identity
    assert data.b_form == ToeplitzForm.identity(st)
    assert data.c_form == ToeplitzForm.identity(st)


def test_free_params_reject_non_skew():
    with pytest.raises(ParameterError):
        FreeParams({}, [identity(1)],
                   {(0, 1): ExactMatrix.from_rows([[0, 1], [1, 0]])})


def test_free_params_completeness_checked():
    st = _st([(2, 1), (1, 1)])
    base = FreeParams.zero(st)
    base.validate_for(st)

    missing_sub = dict(base.sub_blocks)
    del missing_sub[(1, 0, 0)]
    with pytest.raises(ParameterError):
        FreeParams(missing_sub, base.diag_seeds, base.skews).validate_for(st)

    extra_skew = dict(base.skews)
    extra_skew[(0, 5)] = zeros(1, 1)
    with pytest.raises(ParameterError):
        FreeParams(base.sub_blocks, base.diag_seeds, extra_skew).validate_for(st)

    with pytest.raises(ParameterError):
        FreeParams(base.sub_blocks, [identity(1), identity(2)],
                   base.skews).validate_for(st)


# ---------------------------------------------------------------------------
# the sweep's plan and terms
# ---------------------------------------------------------------------------


def _pair(mat):
    return mat._g, mat._den


def _walk(data, partial):
    """The sweep's state (x, left, right) with every slot of partial set,
    in key order, as the sweep sets its parameters."""
    x, left, right = {}, {}, {}
    for key in sorted(partial):
        _put(data, x, left, right, key, *_pair(partial[key]))
    return x, left, right


def _full(data, partial, r, s, j):
    """Coefficient (r, s, j) of F X^T F B X: every pair of the product
    rule, summed as a step of the sweep sums its terms."""
    st = data.structure
    _, left, right = _walk(data, partial)
    return _sum_of_products(_terms(_pairs(st.blocks, r, s, j), left, right, 1),
                            st.mults[r], st.mults[s])


def test_accum_phi_hand_example():
    st = _st([(2, 1)])
    data = CongruenceData(
        st,
        [[ExactMatrix.from_rows([[2]]), ExactMatrix.from_rows([[3]])]],
        [[ExactMatrix.from_rows([[2]]), ExactMatrix.from_rows([[3]])]],
    )
    partial = {(0, 0, 0): ExactMatrix.from_rows([[5]]),
               (0, 0, 1): ExactMatrix.from_rows([[7]])}
    # B X: B_0 A_0 = 10, and B_1 A_0 + B_0 A_1 = 15 + 14
    pairs = {key: _pair(mat) for key, mat in partial.items()}
    assert _bx(data, pairs, 0, 0, 0) == \
        _right_factor(*_pair(ExactMatrix.from_rows([[10]])))
    assert _bx(data, pairs, 0, 0, 1) == \
        _right_factor(*_pair(ExactMatrix.from_rows([[29]])))
    # A_0^T (B X)_1 + A_1^T (B X)_0 = 5*29 + 7*10
    assert _full(data, partial, 0, 0, 1) == ExactMatrix.from_rows([[215]])
    # the step of slot (0, 0, 1) leaves out the terms that read it: the pair
    # A_1^T (B X)_0, and B_0 A_1 of (B X)_1, which the sweep reads as B X
    # without the slot; that leaves A_0^T B_1 A_0 = 5*3*5
    x, left, right = _walk(data, partial)
    (slot, pairs), = _plan(st.blocks)
    assert slot == (0, 0, 1) and pairs == (((0, 0, 0), (0, 0, 1)),)
    right[slot] = _bx(data, x, 0, 0, 1, 1)
    assert _sum_of_products(_terms(pairs, left, right, 1), 1, 1) == \
        ExactMatrix.from_rows([[75]])


def test_accum_identity_data_reduces_to_coefficients():
    # with B = identity data, the right factors are the coefficients of X
    st = _st([(3, 2), (2, 1)])
    data = constant_data(st)
    rnd = RandomSource(20240833)
    partial = _full_coeffs(rnd, st, max_num=3, max_den=2)
    x, left, right = _walk(data, partial)
    assert x == {key: _pair(mat) for key, mat in partial.items()}
    for key, mat in partial.items():
        assert right[key] == _right_factor(*_pair(mat)) == \
            (_sparse_rows(mat._g), mat._den)
        assert left[key] == (mat.transpose()._g, mat._den)


def test_accum_psi_transpose_symmetry():
    # X^T B X is symmetric for a symmetric B, so coefficient (r, s, j) of
    # F X^T F B X is the transpose of coefficient (s, r, j)
    rnd = RandomSource(20240834)
    for st in (_st([(3, 2), (2, 3)]), _st([(4, 1), (2, 2), (1, 1)])):
        b0 = [rnd.symmetric_nonsingular(m) for _, m in st.blocks]
        side = [[b0[r]] + [rnd.symmetric(m) for _ in range(alpha - 1)]
                for r, (alpha, m) in enumerate(st.blocks)]
        data = CongruenceData(st, side, side)
        partial = _full_coeffs(rnd, st, max_num=2, max_den=2)
        for r in range(st.part_count):
            for s in range(st.part_count):
                for j in range(st.depth(r, s)):
                    assert _full(data, partial, r, s, j) == \
                        _full(data, partial, s, r, j).transpose()


def test_accum_raises_on_undetermined_slot(monkeypatch):
    # the plan walked backwards reads slots before the sweep sets them
    st = _st([(3, 1), (2, 1), (1, 1)])
    data = constant_data(st)
    params = random_free_params(data, RandomSource(20240835))
    steps = _plan(st.blocks)
    assert [key for key, _ in steps] == [
        (0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1),
        (0, 0, 2)]
    monkeypatch.setattr(solver, "_plan", lambda blocks: steps[::-1])
    with pytest.raises(SequencingError, match=r"^coefficient \(0, 0, 1\) "
                       r"referenced before it is determined$"):
        _sweep(data, params)


def test_rhs_is_a_coefficient_of_the_dense_congruence_product():
    # F X^T F B X formed densely, away from the product rule
    rnd = RandomSource(20240836)
    for st in (_st([(3, 1), (2, 2)]), _st([(4, 1), (2, 2), (1, 1)])):
        side = [[rnd.symmetric_nonsingular(m)] + [rnd.symmetric(m)
                                                  for _ in range(alpha - 1)]
                for alpha, m in st.blocks]
        data = CongruenceData(st, side, side)
        partial = _full_coeffs(rnd, st, max_num=2, max_den=2)
        x = ToeplitzForm.from_sparse(st, partial).assemble()
        flip = block_backward_form(st)
        dense = flip * x.transpose() * flip * data.b_form.assemble() * x
        want = ToeplitzForm.extract(dense, st)
        for r in range(st.part_count):
            for s in range(st.part_count):
                for j in range(st.depth(r, s)):
                    assert _full(data, partial, r, s, j) == \
                        want.coefficient(r, s, j)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def test_single_jordan_block_solutions_are_plus_minus_identity():
    st = _st([(2, 1)])
    data = constant_data(st)
    for sign in (1, -1):
        seed = ExactMatrix.from_rows([[sign]])
        params = FreeParams({}, [seed], {(0, 1): zeros(1, 1)})
        x = solve_congruence(data, params)
        assert x.assemble() == identity(2).scale(sign)


def test_semisimple_block_solution_is_the_seed():
    # alpha = 1: the solution is exactly the orthogonal-like seed
    st = _st([(1, 4)])
    data = constant_data(st)
    rnd = RandomSource(20240835)
    params = random_free_params(data, rnd)
    x = solve_congruence(data, params)
    q = x.assemble()
    assert q == params.diag_seeds[0]
    assert q.transpose() * q == identity(4)


def test_zero_params_give_identity_solution():
    for blocks in ([(2, 1)], [(3, 2), (1, 1)], [(4, 2), (2, 3), (1, 1)]):
        st = _st(blocks)
        data = constant_data(st)
        x = solve_congruence(data, FreeParams.zero(st))
        assert x.is_identity


def test_seed_constraint_enforced():
    st = _st([(1, 2)])
    data = constant_data(st)
    bad = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(SeedConstraintError):
        solve_congruence(data, FreeParams({}, [bad], {}))


def test_solve_and_verify_random_structures():
    rnd = RandomSource(20240836)
    checked = 0
    for n in range(1, 7):
        for st in enumerate_structures(n, lam=IMAG):
            data = constant_data(st)
            params = random_free_params(data, rnd, max_num=3, max_den=2)
            x = solve_congruence(data, params)
            ok, report = verify_congruence(data, x)
            assert ok and report == ""
            checked += 1
    assert checked >= 20


def test_solve_and_verify_larger_structures():
    shapes = [
        [(5, 1), (3, 1)],
        [(4, 2), (2, 3), (1, 1)],
        [(3, 1), (2, 2), (1, 3)],
        [(2, 3), (1, 4)],
        [(6, 1), (4, 1), (1, 2)],
        [(2, 4)],
        [(1, 8)],
        [(3, 3)],
    ]
    rnd = RandomSource(20240837)
    runs = 0
    for blocks in shapes:
        for _ in range(4):
            st = _st(blocks)
            data = constant_data(st)
            params = random_free_params(data, rnd, max_num=2, max_den=2)
            x = solve_congruence(data, params)
            assert verify_congruence(data, x)[0]
            runs += 1
    assert runs == 32


def test_solution_respects_sub_diagonal_inputs():
    st = _st([(3, 1), (1, 2)])
    data = constant_data(st)
    rnd = RandomSource(20240838)
    params = random_free_params(data, rnd)
    x = solve_congruence(data, params)
    for (r, s, j), mat in params.sub_blocks.items():
        assert x.coefficient(r, s, j) == mat
    for r, seed in enumerate(params.diag_seeds):
        assert x.coefficient(r, r, 0) == seed


def test_determinism_bit_for_bit():
    st = _st([(4, 2), (2, 3), (1, 1)])
    data = constant_data(st)
    first = solve_congruence(data, random_free_params(data, RandomSource(99)))
    second = solve_congruence(data, random_free_params(data, RandomSource(99)))
    assert first == second
    for r in range(st.part_count):
        for s in range(st.part_count):
            for j in range(st.depth(r, s)):
                a = first.coefficient(r, s, j)
                b = second.coefficient(r, s, j)
                assert a.to_lists() == b.to_lists()


def test_general_data_with_constructed_seed():
    # B != C; a valid seed must be supplied by the caller
    rnd = RandomSource(20240839)
    st = _st([(2, 2)])
    b0 = rnd.symmetric_nonsingular(2)
    b1 = rnd.symmetric(2)
    a0 = ExactMatrix.from_rows([[1, 1], [0, 1]])
    c0 = a0.transpose() * b0 * a0
    c1 = rnd.symmetric(2)
    data = CongruenceData(st, [[b0, b1]], [[c0, c1]])
    assert data.c_coeffs is not data.b_coeffs
    with pytest.raises(ParameterError):
        random_free_params(data, rnd)
    params = random_free_params(data, rnd, seeds=[a0])
    x = solve_congruence(data, params)
    assert verify_congruence(data, x)[0]


def test_general_data_multi_group():
    rnd = RandomSource(20240840)
    st = _st([(2, 1), (1, 2)])
    b_side = []
    c_side = []
    seeds = []
    for alpha, m in st.blocks:
        b0 = rnd.symmetric_nonsingular(m)
        seed = rnd.matrix(m, m)
        while seed.rank() != m:
            seed = rnd.matrix(m, m)
        b_side.append([b0] + [rnd.symmetric(m) for _ in range(alpha - 1)])
        c_side.append([seed.transpose() * b0 * seed]
                      + [rnd.symmetric(m) for _ in range(alpha - 1)])
        seeds.append(seed)
    data = CongruenceData(st, b_side, c_side)
    params = random_free_params(data, rnd, seeds=seeds)
    x = solve_congruence(data, params)
    ok, report = verify_congruence(data, x)
    assert ok, report


def test_verify_reports_first_bad_block():
    st = _st([(2, 1), (1, 1)])
    data = constant_data(st)
    x = solve_congruence(data, FreeParams.zero(st))
    tampered = _tampered(x, {(1, 0, 0): ExactMatrix.from_rows([[1]])})
    ok, report = verify_congruence(data, tampered)
    assert not ok
    assert "block (" in report and "coefficient" in report


def test_verify_report_names_the_first_mismatch_exactly():
    # two tampered coefficients of a member: F X^T F X then differs from I
    # at (0, 1, 0), (1, 0, 0) and (1, 1, 0), and the report names the first
    st = _st([(2, 1), (1, 1)])
    data = constant_data(st)
    x = solve_congruence(data, FreeParams.zero(st))
    tampered = _tampered(x, {(1, 1, 0): ExactMatrix.from_rows([[3]]),
                             (0, 1, 0): ExactMatrix.from_rows([[2]])})
    assert verify_congruence(data, tampered) == (
        False, "block (0, 1) coefficient 0: "
               "got [[ExactScalar(2)]], want [[ExactScalar(0)]]")
    # C other than the identity form: the identity misses C at (0, 0, 1)
    # and at (1, 1, 0)
    st = SegreStructure(0, [(2, 2), (1, 1)])
    third = rat(1, 3)
    data = CongruenceData(
        st, [[identity(2), zeros(2, 2)], [identity(1)]],
        [[identity(2), ExactMatrix.from_rows([[0, third], [third, 0]])],
         [ExactMatrix.from_rows([[2]])]])
    assert verify_congruence(data, ToeplitzForm.identity(st)) == (
        False, "block (0, 0) coefficient 1: "
               "got [[ExactScalar(0), ExactScalar(0)], "
               "[ExactScalar(0), ExactScalar(0)]], "
               "want [[ExactScalar(0), ExactScalar(1/3)], "
               "[ExactScalar(1/3), ExactScalar(0)]]")


def test_data_is_laid_out_once(monkeypatch):
    # B and C are laid out when the data is made, so verify_congruence
    # builds no form: after ToeplitzForm.__init__ is made to raise it still
    # accepts a member and names the first mismatch of a non-member.  A
    # success reads strips alone: no form product and no flip form
    rnd = RandomSource(20240841)
    st = _st([(3, 2), (2, 1)])
    ident = constant_data(st)
    member = solve_congruence(ident, random_free_params(ident, rnd))
    tampered = _tampered(member, {(1, 0, 0): ExactMatrix.from_rows([[5, 7]])})
    b_side = [[rnd.symmetric_nonsingular(m)] + [rnd.symmetric(m)] * (alpha - 1)
              for alpha, m in st.blocks]
    seeds = [identity(2), identity(1)]
    c_side = [[b_side[0][0], rnd.symmetric(2), rnd.symmetric(2)],
              [b_side[1][0], rnd.symmetric(1)]]
    general = CongruenceData(st, b_side, c_side)
    solution = solve_congruence(
        general, random_free_params(general, rnd, seeds=seeds))

    assert ident.c_form is ident.b_form
    assert general.c_form is not general.b_form
    equal = CongruenceData(st, b_side, [list(entry) for entry in b_side])
    assert equal.c_coeffs is equal.b_coeffs and equal.c_form is equal.b_form

    def refuse(*args, **kwargs):
        raise AssertionError("a form was built")

    monkeypatch.setattr(ToeplitzForm, "__init__", refuse)
    with monkeypatch.context() as strips_only:
        strips_only.setattr(ToeplitzForm, "__mul__", refuse)
        strips_only.setattr(ToeplitzForm, "flip_transpose", refuse)
        assert verify_congruence(ident, member) == (True, "")
        assert verify_congruence(general, solution) == (True, "")
    ok, report = verify_congruence(ident, tampered)
    assert not ok and report.startswith("block (")
    ok, report = verify_congruence(general, member)
    assert not ok and report.startswith("block (")


def _by_definition(data, x):
    """verify_congruence by its definition, with the public form
    operations: F X^T F (B X) = C, and the first coefficient that differs
    in (r, s, offset) order for the report."""
    lhs = x.flip_transpose() * (data.b_form * x)
    if lhs == data.c_form:
        return True, ""
    st = data.structure
    for r in range(st.part_count):
        for s in range(st.part_count):
            for j in range(st.depth(r, s)):
                got = lhs.coefficient(r, s, j)
                want = data.c_form.coefficient(r, s, j)
                if got != want:
                    return False, (f"block ({r}, {s}) coefficient {j}: got "
                                   f"{got.to_lists()}, want {want.to_lists()}")
    raise AssertionError("unequal forms with equal coefficients")


def _one_cell_changed(rnd, x, step):
    """x with one entry of one random coefficient moved by step."""
    st = x.structure
    r, s = rnd.stream.below(st.part_count), rnd.stream.below(st.part_count)
    j = rnd.stream.below(st.depth(r, s))
    a, b = rnd.stream.below(st.mults[r]), rnd.stream.below(st.mults[s])
    cell = ExactMatrix.build(st.mults[r], st.mults[s], lambda u, v: (
        step if (u, v) == (a, b) else 0))
    return x + ToeplitzForm.from_sparse(st, {(r, s, j): cell})


def test_verify_agrees_with_its_definition():
    # every partition with n <= 6, on identity data and on data with
    # B != I, C != B and sqrt2 parts (dens up to 3): a solution, the
    # solution with one cell moved by 1 and by sqrt2, and the identity
    # data's member against the other data; the verdict and the report
    # equal those of the public form operations, on an unmarked copy
    rnd = RandomSource(20261037)
    verdicts = set()
    for n in range(1, 7):
        for st in enumerate_structures(n, IMAG):
            ident = constant_data(st)
            general, seeds = _unlike_data(rnd, st, with_sqrt2=True, max_den=3)
            member = solve_congruence(ident, random_free_params(ident, rnd))
            solution = solve_congruence(general, random_free_params(
                general, rnd, seeds=seeds, with_sqrt2=True, max_den=3))
            for data, x in ((ident, member), (general, solution),
                            (general, member)):
                for y in (x, _one_cell_changed(rnd, x, 1),
                          _one_cell_changed(rnd, x, SQRT2)):
                    got = verify_congruence(data, ToeplitzForm._from_strip(
                        st, y._strip))
                    assert got == _by_definition(data, y), (st, got)
                    verdicts.add(got[0])
    assert verdicts == {True, False}


def test_a_rule_that_disagrees_with_the_coefficients_is_a_fault(monkeypatch):
    # the strip rule rejecting a solution whose coefficients all match C is
    # a fault of the library, named as such, never a report of no mismatch
    st = _st([(3, 1), (1, 2)])
    data = constant_data(st)
    x = solve_congruence(data, random_free_params(data, RandomSource(37)))
    monkeypatch.setattr(solver, "_congruent", lambda *args: False)
    with pytest.raises(IntegrityError, match="^the strip check rejected a "
                       "form that matches C$"):
        verify_congruence(data, ToeplitzForm._from_strip(st, x._strip))


def test_verify_requires_matching_structure():
    data = constant_data(_st([(2, 1)]))
    other = ToeplitzForm.identity(_st([(1, 2)]))
    with pytest.raises(StructureError):
        verify_congruence(data, other)


# ---------------------------------------------------------------------------
# frozen sweeps: the sha256 of the canonical strips the sweep writes
# ---------------------------------------------------------------------------


_SWEEP_DIGESTS = {
    "0": "4207c5b889a6d983750d0757d65ae9b02c656f20ee8be7ae65edbe7cb499ea97",
    "1": "94f6a5bb2da0d706e6fb6d2ade5f6b111f51d127b9b3518cb71d9d2fb92779e8",
    "i": "7cfe217ae2ce89c99ad0f4970dccb509026966e0ee4219b71b7c03fdd4cc223d",
}


@pytest.mark.parametrize("lam", sorted(_SWEEP_DIGESTS))
def test_sweep_strips_are_frozen(lam):
    # every partition with n <= 7, drawn from one stream per eigenvalue
    rnd = RandomSource(20241020 + sorted(_SWEEP_DIGESTS).index(lam))
    forms = []
    for n in range(1, 8):
        for st in enumerate_structures(n, lam=parse_scalar(lam)):
            data = constant_data(st)
            forms.append(_sweep(data, random_free_params(data, rnd)))
    assert len(forms) == 44
    assert oracle.strip_digest(forms) == _SWEEP_DIGESTS[lam]


def test_gen_v_strips_with_diagonal_blocks_are_frozen():
    rnd = RandomSource(20241023)
    forms = []
    for blocks in ([(4, 2), (2, 3), (1, 1)], [(3, 1), (2, 2)],
                   [(5, 1), (3, 2), (2, 1)]):
        st = _st(blocks)
        b_diag = [rnd.symmetric_nonsingular(m) for m in st.mults]
        skews = {(r, j): rnd.skew(m) for r, (alpha, m) in enumerate(st.blocks)
                 for j in range(1, alpha)}
        forms.append(gen_V(st, b_diag, skews))
    assert oracle.strip_digest(forms) == \
        "c000553256a9d1ec34195efb7f1bce470af7138d9523eaf0f6d7077cb123064b"


def test_sweep_strip_with_higher_b_coefficients_is_frozen():
    # B and C share their leading blocks and differ above them
    rnd = RandomSource(20241024)
    st = _st([(4, 1), (2, 2), (1, 1)])
    b_side = [[rnd.symmetric_nonsingular(m)]
              + [rnd.symmetric(m) for _ in range(alpha - 1)]
              for alpha, m in st.blocks]
    c_side = [[entry[0]] + [rnd.symmetric(m) for _ in entry[1:]]
              for entry, m in zip(b_side, st.mults)]
    data = CongruenceData(st, b_side, c_side)
    form = _sweep(data, random_free_params(data, rnd, with_sqrt2=True))
    assert verify_congruence(data, form) == (True, "")
    assert oracle.strip_digest([form]) == \
        "2b746fa70b7ad44d1f0406c60e55bcb6c123a301e7fd4bb176a2c07cd5bde1f9"


def _unlike_data(rnd, st, **kw):
    """Data with B != C throughout: C_0 = A^T B_0 A for a random
    nonsingular seed A != I, and higher coefficients drawn apart; returns
    (data, seeds)."""
    b_side, c_side, seeds = [], [], []
    for alpha, m in st.blocks:
        b0 = rnd.symmetric_nonsingular(m, **kw)
        seed = rnd.matrix(m, m, **kw)
        while seed.rank() != m:
            seed = rnd.matrix(m, m, **kw)
        b_side.append([b0] + [rnd.symmetric(m, **kw) for _ in range(alpha - 1)])
        c_side.append([seed.transpose() * b0 * seed]
                      + [rnd.symmetric(m, **kw) for _ in range(alpha - 1)])
        seeds.append(seed)
    return CongruenceData(st, b_side, c_side), seeds


def test_solutions_with_b_unlike_c_are_frozen():
    # computed before the sweep kept its slots as integer pairs
    rnd = RandomSource(20261102)
    forms = []
    for blocks in ([(3, 1), (2, 2), (1, 1)], [(4, 2), (1, 1)],
                   [(3, 2), (2, 1)]):
        st = _st(blocks)
        data, seeds = _unlike_data(rnd, st, with_sqrt2=True, max_den=3)
        forms.append(solve_congruence(data, random_free_params(
            data, rnd, seeds=seeds, with_sqrt2=True, max_den=3)))
    assert oracle.strip_digest(forms) == \
        "2dcf5a215898e265d4008f7215d48e86f9de0c6b9031a7e09d5e120ede9e8621"


def test_sweep_error_messages_are_pinned(monkeypatch):
    rnd = RandomSource(20261103)
    st = _st([(3, 1), (2, 2), (1, 1)])
    data, seeds = _unlike_data(rnd, st)
    params = random_free_params(data, rnd, seeds=seeds)
    bad = FreeParams(params.sub_blocks,
                     [seeds[0], seeds[1] * seeds[1], seeds[2]], params.skews)
    with pytest.raises(SeedConstraintError) as caught:
        _sweep(data, bad)
    assert str(caught.value) == ("seed 1 does not satisfy the leading "
                                 "congruence C_0 = A^T B_0 A")
    steps = _plan(st.blocks)
    messages = []
    # the last order reads (B X) at (0, 1, 0) first, X only later
    for order in (steps[::-1], steps[1::2] + steps[::2],
                  steps[2:] + steps[:2], steps[5:6] + steps[:5] + steps[6:]):
        for case in (data, constant_data(st)):
            monkeypatch.setattr(solver, "_plan", lambda blocks: order)
            with pytest.raises(SequencingError) as caught:
                _sweep(case, params if case is data else
                       random_free_params(case, rnd))
            messages.append(str(caught.value))
    assert messages == [
        f"coefficient {key} referenced before it is determined"
        for key in ((0, 0, 1), (0, 0, 1), (0, 1, 0), (0, 1, 0), (1, 2, 0),
                    (1, 2, 0), (0, 1, 0), (0, 0, 1))]

# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_solution_dimension_examples():
    assert solution_dimension(_st([(1, 1)])) == 0
    assert solution_dimension(_st([(2, 1)])) == 0
    assert solution_dimension(_st([(2, 1), (1, 1)])) == 1
    assert solution_dimension(_st([(4, 2), (2, 3), (1, 1)])) == 27
    for n in range(1, 9):
        assert solution_dimension(_st([(1, n)])) == n * (n - 1) // 2
    # several eigenvalues add up part by part
    assert solution_dimension(MultiSegreStructure([
        SegreStructure(0, [(4, 2), (2, 3), (1, 1)]),
        SegreStructure(1, [(2, 1), (1, 1)])])) == 28


def test_free_parameter_count_matches_dimension():
    for n in range(1, 9):
        for st in enumerate_structures(n, lam=IMAG):
            counts = free_parameter_count(st)
            assert sum(counts.values()) == solution_dimension(st)


def test_solution_dimension_against_tangent_oracle():
    for n in range(1, 7):
        for st in enumerate_structures(n, lam=IMAG):
            s = symmetric_form(st)
            grid = oracle.grid(s)
            assert oracle.is_gaussian(grid)
            system = oracle.vectorize_tangent_system(grid)
            assert solution_dimension(st) == oracle.nullity(system)


def test_random_params_are_complete_and_deterministic():
    st = _st([(3, 2), (2, 1), (1, 3)])
    data = constant_data(st)
    p1 = random_free_params(data, RandomSource(7))
    p2 = random_free_params(data, RandomSource(7))
    p1.validate_for(st)
    assert p1.sub_blocks == p2.sub_blocks
    assert p1.diag_seeds == p2.diag_seeds
    assert p1.skews == p2.skews
    counts = free_parameter_count(st)
    assert len(p1.sub_blocks) > 0
    total_sub = sum(m.rows * m.cols for m in p1.sub_blocks.values())
    assert total_sub == counts["sub_blocks"]
