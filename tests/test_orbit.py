"""Orbit codimension formula against the exact tangent oracle."""

import random

import pytest

from isotropy.acceptance import _commutant_nullity
from isotropy.errors import IntegrityError, ParameterError, StructureError
from isotropy.forms import (MultiSegreStructure, SegreStructure,
                            enumerate_structures, symmetric_form)
from isotropy.matrices import ExactMatrix, cayley_orthogonal, direct_sum
from isotropy.orbit import (OrbitReport, _components, _pair_rank,
                            codim_formula, consistency_check, tangent_oracle)
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, ZERO
from isotropy.solver import solution_dimension

from _oracles import (nullity, vectorize_commutant_system,
                      vectorize_tangent_system)


def _st(blocks, lam=IMAG):
    return SegreStructure(lam, blocks)


def test_codim_scalar_matrix_orbit_is_a_point():
    for n in range(1, 7):
        assert codim_formula(_st([(1, n)])) == n * (n + 1) // 2


def test_codim_worked_examples():
    assert codim_formula(_st([(2, 1), (1, 1)])) == 4
    multi = MultiSegreStructure([_st([(1, 1)], 0), _st([(1, 1)], 1)])
    assert codim_formula(multi) == 2
    assert codim_formula(_st([(3, 1)])) == 3
    assert codim_formula(_st([(2, 1)])) == 2


def test_codim_rejects_junk():
    with pytest.raises(StructureError):
        codim_formula("[(2, 1)]")


def test_codim_equals_n_plus_dimension_everywhere():
    for n in range(1, 9):
        for st in enumerate_structures(n, IMAG):
            assert codim_formula(st) == st.n + solution_dimension(st)


def test_tangent_oracle_scalar_matrix():
    for n in (1, 2, 4):
        s = symmetric_form(_st([(1, n)]))
        tangent_dim, oracle_codim, kernel_dim = tangent_oracle(s)
        assert tangent_dim == 0
        assert oracle_codim == n * (n + 1) // 2
        assert kernel_dim == n * (n - 1) // 2


def test_tangent_oracle_rigid_block():
    tangent_dim, oracle_codim, kernel_dim = tangent_oracle(
        symmetric_form(_st([(2, 1)])))
    assert (tangent_dim, oracle_codim, kernel_dim) == (1, 2, 0)


def test_tangent_oracle_nilpotent_pair():
    s = symmetric_form(_st([(2, 1), (1, 1)], 0))
    tangent_dim, oracle_codim, kernel_dim = tangent_oracle(s)
    assert kernel_dim == 1
    assert oracle_codim == 4


def test_tangent_oracle_rejects_non_symmetric():
    with pytest.raises(ParameterError):
        tangent_oracle(ExactMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ParameterError):
        tangent_oracle(ExactMatrix.from_rows([[0, 1]]))


def _to_oracle(mat):
    from fractions import Fraction
    out = []
    for i in range(mat.rows):
        row = []
        for j in range(mat.cols):
            x = mat[i, j]
            assert not (x.c or x.d)
            row.append((Fraction(int(x.a.numerator), int(x.a.denominator)),
                        Fraction(int(x.b.numerator), int(x.b.denominator))))
        out.append(row)
    return out


def test_tangent_oracle_matches_independent_vectorization():
    rnd = RandomSource(20240862)
    for _ in range(6):
        s = rnd.symmetric(4)
        mine = tangent_oracle(s)[2]
        theirs = nullity(vectorize_tangent_system(_to_oracle(s)))
        assert mine == theirs


def test_consistency_check_enumeration():
    for n in range(1, 6):
        for lam in (0, 1, IMAG):
            for st in enumerate_structures(n, lam):
                report = consistency_check(st)
                assert report.codim_formula == report.oracle_codim
                assert report.codim_formula == st.n + report.isotropy_dim


def test_consistency_check_spot_sizes_seven_eight():
    for blocks in ([(4, 1), (3, 1)], [(5, 1), (2, 1), (1, 1)], [(2, 4)],
                   [(3, 2), (2, 1)]):
        report = consistency_check(_st(blocks))
        assert report.codim_formula == report.n + report.isotropy_dim


def test_consistency_check_multi_additivity():
    multi = MultiSegreStructure([_st([(2, 1), (1, 1)], 0), _st([(1, 2)], 1)])
    report = consistency_check(multi)
    assert report.codim_formula == (codim_formula(multi.parts[0])
                                    + codim_formula(multi.parts[1]))
    direct = tangent_oracle(direct_sum([symmetric_form(p)
                                        for p in multi.parts]))
    assert direct[1] == report.oracle_codim


def test_oracle_is_congruence_invariant():
    rnd = RandomSource(20240863)
    st = _st([(2, 1), (1, 2)])
    s = symmetric_form(st)
    base = tangent_oracle(s)
    for _ in range(3):
        q = cayley_orthogonal(rnd.skew(st.n))
        dense = q.transpose() * s * q
        # one component: the oracle ranks the whole system at once
        assert set(_components(dense)) == {0}
        assert tangent_oracle(dense) == base


def _dense_tangent_reference(s):
    n = s.rows
    kernel_dim = nullity(vectorize_tangent_system(_to_oracle(s)))
    tangent_dim = n * (n - 1) // 2 - kernel_dim
    return tangent_dim, n * (n + 1) // 2 - tangent_dim, kernel_dim


_MULTI_STRUCTURES = (
    # two equal-sized block pairs whose subsystems differ: same eigenvalue
    # (rank 2) and different eigenvalues (rank 4)
    MultiSegreStructure([_st([(2, 2)], 0), _st([(2, 1)], 1)]),
    MultiSegreStructure([_st([(2, 1), (1, 1)], 0), _st([(1, 2)], 1)]),
    MultiSegreStructure([_st([(3, 1), (1, 1)]), _st([(2, 1)], 0),
                         _st([(1, 1)], 1)]),
)


def test_block_oracle_matches_dense_reference():
    structures = [st for n in range(1, 9) for lam in (0, 1, IMAG)
                  for st in enumerate_structures(n, lam)]
    for st in structures + list(_MULTI_STRUCTURES):
        s = symmetric_form(st)
        assert tangent_oracle(s) == _dense_tangent_reference(s), st


def _permuted(s, perm):
    return ExactMatrix.build(s.rows, s.cols,
                             lambda i, j: s[perm[i], perm[j]])


def test_block_oracle_on_permuted_block_diagonal():
    rnd = random.Random(20240864)
    for st in (_st([(3, 2), (2, 1), (1, 1)]), _MULTI_STRUCTURES[0],
               _MULTI_STRUCTURES[2]):
        s = symmetric_form(st)
        base = tangent_oracle(s)
        scattered = False
        for _ in range(3):
            perm = list(range(st.n))
            rnd.shuffle(perm)
            p = _permuted(s, perm)
            members = {}
            for i, label in enumerate(_components(p)):
                members.setdefault(label, []).append(i)
            assert len(members) == len(set(_components(s)))
            scattered |= any(idx[-1] - idx[0] + 1 != len(idx)
                             for idx in members.values())
            assert tangent_oracle(p) == base
        # at least one draw spreads a block over non-contiguous indices
        assert scattered


def test_split_commutant_nullity_matches_dense_reference():
    for n in range(1, 7):
        for lam in (0, 1, IMAG):
            for st in enumerate_structures(n, lam):
                s = symmetric_form(st)
                want = nullity(vectorize_commutant_system(_to_oracle(s)))
                assert _commutant_nullity(s) == want, st
    s = symmetric_form(_MULTI_STRUCTURES[0])
    assert _commutant_nullity(s) == nullity(
        vectorize_commutant_system(_to_oracle(s)))


def test_pair_rank_cache_cold_equals_warm():
    # a rank cached for one structure is reused by every later structure
    # with a pair of the same key; ranking each structure, and each kind of
    # map, from an empty cache must give what one warm pass gives
    structures = [st for n in range(1, 8) for lam in (0, 1, IMAG)
                  for st in enumerate_structures(n, lam)]
    structures += list(_MULTI_STRUCTURES)
    cold = []
    for st in structures:
        s = symmetric_form(st)
        _pair_rank.cache_clear()
        tangent = tangent_oracle(s)
        _pair_rank.cache_clear()
        cold.append((tangent, _commutant_nullity(s)))
    _pair_rank.cache_clear()
    warm = [(tangent_oracle(symmetric_form(st)),
             _commutant_nullity(symmetric_form(st))) for st in structures]
    assert _pair_rank.cache_info().hits > 0
    for st, c, w in zip(structures, cold, warm):
        assert c == w, st


def test_consistency_check_on_one_long_block():
    # one component: its whole tangent system is ranked at once
    for lam in (0, IMAG):
        st = _st([(12, 1)], lam)
        report = consistency_check(st)
        assert report.oracle_codim == codim_formula(st) == 12
        assert report.isotropy_dim == 0


def test_consistency_check_at_n_40():
    report = consistency_check(_st([(6, 2), (4, 3), (2, 4), (1, 8)], 0))
    assert report.n == 40
    assert report.codim_formula == report.oracle_codim == 234


def test_orbit_report_validates_invariants():
    st = _st([(2, 1)])
    with pytest.raises(IntegrityError):
        OrbitReport(st, 2, 5, 0, 1, 2)
    with pytest.raises(IntegrityError):
        OrbitReport(st, 2, 2, 0, 1, 1)
    report = OrbitReport(st, 2, 2, 0, 1, 2)
    assert report == consistency_check(st)
