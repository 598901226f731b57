"""Congruence solver tests: accumulators, sweep output, dimension counts."""

from fractions import Fraction

import pytest

import _oracles as oracle
from isotropy.errors import (
    ParameterError,
    SeedConstraintError,
    SequencingError,
    SingularMatrixError,
    StructureError,
)
from isotropy.forms import (SegreStructure, block_backward_form,
                            enumerate_structures, symmetric_form)
from isotropy.matrices import ExactMatrix, identity, zeros
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, rat
from isotropy.solver import (
    CongruenceData,
    FreeParams,
    _phi,
    _rhs_without,
    free_parameter_count,
    random_free_params,
    solution_dimension,
    solve_congruence,
    verify_congruence,
)
from isotropy.toeplitz import ToeplitzForm


def _st(blocks):
    return SegreStructure(IMAG, blocks)


def _to_oracle(mat):
    out = []
    for i in range(mat.rows):
        row = []
        for j in range(mat.cols):
            x = mat[i, j]
            assert x.is_gaussian
            row.append((Fraction(int(x.a.numerator), int(x.a.denominator)),
                        Fraction(int(x.b.numerator), int(x.b.denominator))))
        out.append(row)
    return out


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
    data = CongruenceData.identity(st)
    assert data.sides_equal
    assert data.b_form() == ToeplitzForm.identity(st)
    assert data.c_form() == ToeplitzForm.identity(st)
    assert data.b(0, 5).is_zero  # padded beyond alpha_0
    assert data.c(1, -1).is_zero


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
# accumulators
# ---------------------------------------------------------------------------


def _psi(data, partial, n, k, r, s):
    # Psi_n^{k, rs} = sum_u (A_u^{kr})^T Phi_{n-u}^{ks}: the contribution of
    # middle group k to block (r, s) of F X^T F B X; zero when n < 0
    st = data.structure
    total = zeros(st.mults[r], st.mults[s])
    for u in range(min(n + 1, st.depth(k, r))):
        phi = _phi(data, partial, n - u, k, s, None)
        total = total + partial[(k, r, u)].transpose() * phi
    return total


def test_accum_phi_hand_example():
    st = _st([(2, 1)])
    data = CongruenceData(
        st,
        [[ExactMatrix.from_rows([[2]]), ExactMatrix.from_rows([[3]])]],
        [[ExactMatrix.from_rows([[2]]), ExactMatrix.from_rows([[3]])]],
    )
    partial = {(0, 0, 0): ExactMatrix.from_rows([[5]]),
               (0, 0, 1): ExactMatrix.from_rows([[7]])}
    assert _phi(data, partial, 0, 0, 0, None) == ExactMatrix.from_rows([[10]])
    # B_1 A_0 + B_0 A_1 = 15 + 14
    assert _phi(data, partial, 1, 0, 0, None) == ExactMatrix.from_rows([[29]])
    assert _phi(data, partial, -1, 0, 0, None).is_zero
    # A_0^T Phi_1 + A_1^T Phi_0 = 5*29 + 7*10
    assert _psi(data, partial, 1, 0, 0, 0) == ExactMatrix.from_rows([[215]])
    assert _psi(data, partial, -3, 0, 0, 0).is_zero
    # one group: the sweep's right-hand side is Psi itself
    assert _rhs_without(data, partial, 0, 0, 1, None) == \
        _psi(data, partial, 1, 0, 0, 0)
    # the skipped slot reads as zero: A_0^T B_1 A_0 = 5*3*5
    assert _rhs_without(data, partial, 0, 0, 1, (0, 0, 1)) == \
        ExactMatrix.from_rows([[75]])


def test_accum_identity_data_reduces_to_coefficients():
    # with B = identity data, Phi_n^{ks} is just A_n^{ks}
    st = _st([(3, 2), (2, 1)])
    data = CongruenceData.identity(st)
    rnd = RandomSource(20240833)
    partial = _full_coeffs(rnd, st, max_num=3, max_den=2)
    for k in range(2):
        for s in range(2):
            for n in range(st.depth(k, s)):
                assert _phi(data, partial, n, k, s, None) == partial[(k, s, n)]


def test_accum_psi_transpose_symmetry():
    rnd = RandomSource(20240834)
    for st in (_st([(3, 2), (2, 3)]), _st([(4, 1), (2, 2), (1, 1)])):
        b0 = [rnd.symmetric_nonsingular(m) for _, m in st.blocks]
        side = [[b0[r]] + [rnd.symmetric(m) for _ in range(alpha - 1)]
                for r, (alpha, m) in enumerate(st.blocks)]
        data = CongruenceData(st, side, side)
        partial = _full_coeffs(rnd, st, max_num=2, max_den=2)
        for k in range(st.part_count):
            for r in range(st.part_count):
                for s in range(st.part_count):
                    for n in range(3):
                        lhs = _psi(data, partial, n, k, r, s)
                        rhs = _psi(data, partial, n, k, s, r)
                        assert lhs == rhs.transpose()


def test_accum_raises_on_undetermined_slot():
    st = _st([(2, 1), (1, 1)])
    data = CongruenceData.identity(st)
    with pytest.raises(SequencingError):
        _phi(data, {}, 0, 0, 0, None)
    partial = {(0, 0, 0): identity(1), (0, 0, 1): identity(1)}
    # block (1, 0) is in range but absent
    with pytest.raises(SequencingError):
        _psi(data, partial, 0, 1, 0, 0)


def test_rhs_is_a_coefficient_of_the_dense_congruence_product():
    # F X^T F B X formed densely, away from the shared product rule
    rnd = RandomSource(20240836)
    for st in (_st([(3, 1), (2, 2)]), _st([(4, 1), (2, 2), (1, 1)])):
        side = [[rnd.symmetric_nonsingular(m)] + [rnd.symmetric(m)
                                                  for _ in range(alpha - 1)]
                for alpha, m in st.blocks]
        data = CongruenceData(st, side, side)
        partial = _full_coeffs(rnd, st, max_num=2, max_den=2)
        x = ToeplitzForm.from_sparse(st, partial).assemble()
        flip = block_backward_form(st)
        dense = flip * x.transpose() * flip * data.b_form().assemble() * x
        want = ToeplitzForm.extract(dense, st)
        for r in range(st.part_count):
            for s in range(st.part_count):
                for j in range(st.depth(r, s)):
                    assert _rhs_without(data, partial, r, s, j, None) == \
                        want.coefficient(r, s, j)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def test_single_jordan_block_solutions_are_plus_minus_identity():
    st = _st([(2, 1)])
    data = CongruenceData.identity(st)
    for sign in (1, -1):
        seed = ExactMatrix.from_rows([[sign]])
        params = FreeParams({}, [seed], {(0, 1): zeros(1, 1)})
        x = solve_congruence(data, params)
        assert x.assemble() == identity(2).scale(sign)


def test_semisimple_block_solution_is_the_seed():
    # alpha = 1: the solution is exactly the orthogonal-like seed
    st = _st([(1, 4)])
    data = CongruenceData.identity(st)
    rnd = RandomSource(20240835)
    params = random_free_params(data, rnd)
    x = solve_congruence(data, params)
    q = x.assemble()
    assert q == params.diag_seeds[0]
    assert q.transpose() * q == identity(4)


def test_zero_params_give_identity_solution():
    for blocks in ([(2, 1)], [(3, 2), (1, 1)], [(4, 2), (2, 3), (1, 1)]):
        st = _st(blocks)
        data = CongruenceData.identity(st)
        x = solve_congruence(data, FreeParams.zero(st))
        assert x.is_identity


def test_seed_constraint_enforced():
    st = _st([(1, 2)])
    data = CongruenceData.identity(st)
    bad = ExactMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(SeedConstraintError):
        solve_congruence(data, FreeParams({}, [bad], {}))


def test_solve_and_verify_random_structures():
    rnd = RandomSource(20240836)
    checked = 0
    for n in range(1, 7):
        for st in enumerate_structures(n, lam=IMAG):
            data = CongruenceData.identity(st)
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
            data = CongruenceData.identity(st)
            params = random_free_params(data, rnd, max_num=2, max_den=2)
            x = solve_congruence(data, params)
            assert verify_congruence(data, x)[0]
            runs += 1
    assert runs == 32


def test_solution_respects_sub_diagonal_inputs():
    st = _st([(3, 1), (1, 2)])
    data = CongruenceData.identity(st)
    rnd = RandomSource(20240838)
    params = random_free_params(data, rnd)
    x = solve_congruence(data, params)
    for (r, s, j), mat in params.sub_blocks.items():
        assert x.coefficient(r, s, j) == mat
    for r, seed in enumerate(params.diag_seeds):
        assert x.coefficient(r, r, 0) == seed


def test_determinism_bit_for_bit():
    st = _st([(4, 2), (2, 3), (1, 1)])
    data = CongruenceData.identity(st)
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
    assert not data.sides_equal
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
    data = CongruenceData.identity(st)
    x = solve_congruence(data, FreeParams.zero(st))
    tampered = x.with_coefficient(1, 0, 0, ExactMatrix.from_rows([[1]]))
    ok, report = verify_congruence(data, tampered)
    assert not ok
    assert "block (" in report and "coefficient" in report


def test_verify_requires_matching_structure():
    data = CongruenceData.identity(_st([(2, 1)]))
    other = ToeplitzForm.identity(_st([(1, 2)]))
    with pytest.raises(StructureError):
        verify_congruence(data, other)


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


def test_free_parameter_count_matches_dimension():
    for n in range(1, 9):
        for st in enumerate_structures(n, lam=IMAG):
            counts = free_parameter_count(st)
            assert sum(counts.values()) == solution_dimension(st)


def test_solution_dimension_against_tangent_oracle():
    for n in range(1, 7):
        for st in enumerate_structures(n, lam=IMAG):
            s = symmetric_form(st)
            system = oracle.vectorize_tangent_system(_to_oracle(s))
            assert solution_dimension(st) == oracle.nullity(system)


def test_random_params_are_complete_and_deterministic():
    st = _st([(3, 2), (2, 1), (1, 3)])
    data = CongruenceData.identity(st)
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
