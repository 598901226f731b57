"""Orbit codimension formula against the exact tangent oracle."""

import random

import pytest

from isotropy.acceptance import _commutant_nullity
from isotropy.errors import IntegrityError, ParameterError, StructureError
from isotropy.forms import (MultiSegreStructure, SegreStructure,
                            codim_formula, enumerate_structures,
                            interleave_form, solution_dimension,
                            symmetric_form)
from isotropy import matrices, orbit
from isotropy.matrices import (ExactMatrix, cayley_orthogonal, direct_sum,
                               identity)
from isotropy.orbit import (OrbitReport, _component_grids, _components,
                            _pair_rank, _structure_grids, consistency_check,
                            tangent_oracle)
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, SQRT2, ZERO

from _oracles import (grid, is_gaussian, nullity,
                      vectorize_commutant_system, vectorize_tangent_system)


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


@pytest.mark.parametrize("s, name", [([[1]], "list"), (None, "NoneType"),
                                     ("x", "str")])
def test_tangent_oracle_rejects_a_non_matrix(s, name):
    with pytest.raises(ParameterError) as err:
        tangent_oracle(s)
    assert (type(err.value), str(err.value)) == (
        ParameterError, f"tangent_oracle needs an ExactMatrix, got {name}")


def test_tangent_oracle_on_the_empty_matrix():
    assert tangent_oracle(direct_sum([])) == (0, 0, 0)


def test_tangent_oracle_matches_independent_vectorization():
    rnd = RandomSource(20240862)
    for _ in range(6):
        s = rnd.symmetric(4)
        mine = tangent_oracle(s)[2]
        assert mine == nullity(vectorize_tangent_system(_gaussian_grid(s)))


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


def _gaussian_grid(s):
    g = grid(s)
    assert is_gaussian(g)
    return g


def _dense_tangent_reference(s):
    n = s.rows
    kernel_dim = nullity(vectorize_tangent_system(_gaussian_grid(s)))
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


def test_interleave_form_on_several_parts():
    # a cumulative walk over parts, then rows, then copies: in the row
    # (alpha, m) starting at dense index offset, column offset + i*m + k of
    # Omega is e_{offset + k*alpha + i}
    for st in _MULTI_STRUCTURES:
        om = interleave_form(st)
        offset = 0
        for part in st.parts:
            for alpha, m in part.blocks:
                for i in range(alpha):
                    for k in range(m):
                        c, hot = offset + i * m + k, offset + k * alpha + i
                        assert [om[r, c] for r in range(st.n)] \
                            == [ONE if r == hot else ZERO for r in range(st.n)]
                offset += alpha * m
        assert offset == st.n


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
                want = nullity(vectorize_commutant_system(_gaussian_grid(s)))
                assert _commutant_nullity(s) == want, st
    s = symmetric_form(_MULTI_STRUCTURES[0])
    assert _commutant_nullity(s) == nullity(
        vectorize_commutant_system(_gaussian_grid(s)))


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
    # systems of 210 and 100 + 90 + 81 unknowns, where the elimination
    # leaves most rows alone at each step
    for blocks, codim, dim in (([(20, 1)], 20, 0), ([(10, 1), (9, 1)], 28, 9)):
        st = _st(blocks, 0)
        report = consistency_check(st)
        assert report.oracle_codim == codim_formula(st) == codim
        assert report.isotropy_dim == dim


def test_ranking_one_long_block_makes_a_bounded_number_of_products(
        monkeypatch):
    # a deterministic cost guard on the elimination: updating only the rows
    # with a nonzero entry in the pivot column, from the sparsest pivot row,
    # takes about 35 000 products of entries on [(16, 1)]; updating every
    # row below each pivot took 326 204
    calls = 0
    mul4 = matrices._mul4

    def counted(x, y):
        nonlocal calls
        calls += 1
        return mul4(x, y)

    _pair_rank.cache_clear()
    monkeypatch.setattr(matrices, "_mul4", counted)
    # the prime settles this system without a product: rank it as if it
    # did not, so that the guard stays on the elimination
    monkeypatch.setattr(orbit, "_rank_mod_p", lambda rows, bound: -1)
    report = consistency_check(_st([(16, 1)], 0))
    _pair_rank.cache_clear()
    assert report.oracle_codim == 16
    assert calls <= 80_000


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


# ---------------------------------------------------------------------------
# the rank over F_p: a certificate of full rank, else the exact kernel
# ---------------------------------------------------------------------------


def _triples(matrices):
    """tangent_oracle on each matrix, from an empty rank cache."""
    _pair_rank.cache_clear()
    out = [tangent_oracle(s) for s in matrices]
    _pair_rank.cache_clear()
    return out


def _bareiss_triples(monkeypatch, matrices):
    """The same with the prime never settling a rank, so that every pair
    system is ranked by the fraction-free kernel alone."""
    with monkeypatch.context() as m:
        m.setattr(orbit, "_rank_mod_p", lambda rows, bound: -1)
        return _triples(matrices)


def _counted(monkeypatch):
    """Count the calls of _pair_rows, _rank_mod_p and _fraction_free in
    orbit, and the misses of the _pair_rank cache."""
    calls = {"_pair_rows": 0, "_rank_mod_p": 0, "_fraction_free": 0}
    for name in calls:
        def wrapper(*args, _f=getattr(orbit, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(orbit, name, wrapper)
    calls["misses"] = 0

    def ranked(*args):
        misses = _pair_rank.cache_info().misses
        out = _pair_rank(*args)
        calls["misses"] += _pair_rank.cache_info().misses - misses
        return out
    monkeypatch.setattr(orbit, "_pair_rank", ranked)
    return calls


_ONE_R2 = ONE + SQRT2


def test_prime_has_the_square_roots():
    p = orbit._P
    assert p % 8 == 1 and p < 1 << 30
    assert all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert orbit._IP ** 2 % p == p - 1
    assert orbit._RP ** 2 % p == 2


def test_prime_oracle_equals_bareiss_on_every_partition_to_ten(monkeypatch):
    forms = [symmetric_form(st) for n in range(1, 11)
             for lam in (0, 1, IMAG, _ONE_R2)
             for st in enumerate_structures(n, lam)]
    assert _triples(forms) == _bareiss_triples(monkeypatch, forms)


def _multi(*parts):
    return MultiSegreStructure([_st(blocks, lam) for lam, blocks in parts])


# two and three eigenvalues, 1 + sqrt2 among them: the shift between
# components apart in eigenvalue holds sqrt2
_APART = [
    _multi((0, [(3, 1)]), (_ONE_R2, [(2, 1)])),
    _multi((0, [(2, 2), (1, 1)]), (_ONE_R2, [(3, 1), (1, 1)])),
    _multi((IMAG, [(4, 1), (2, 1)]), (1, [(4, 1)])),
    _multi((_ONE_R2, [(3, 2)]), (-IMAG, [(2, 1), (1, 2)])),
    _multi((0, [(2, 1), (1, 1)]), (1, [(2, 2)]), (_ONE_R2, [(3, 1)])),
    _multi((IMAG, [(3, 1)]), (-IMAG, [(3, 1)]), (_ONE_R2, [(1, 3)])),
]


def _rotated(s):
    """O^T s O for an orthogonal O with entries in Q(i, sqrt2): a Cayley
    transform, then a rotation by pi/4 of the first two coordinates, so
    that sqrt2 reaches the off-diagonal entries."""
    n = s.rows
    rnd = RandomSource(20240865 + n)
    w = SQRT2.inverse()
    rotation = direct_sum([ExactMatrix.from_rows([[w, w], [-w, w]]),
                           identity(n - 2)])
    o = cayley_orthogonal(rnd.skew(n)) * rotation
    return o.transpose() * s * o


# structures with a nontrivial isotropy group, so a tangent kernel
_KERNEL = [_st([(2, 1), (1, 2)], 0), _st([(3, 1), (2, 1)], _ONE_R2),
           _st([(2, 2), (1, 1)], IMAG), _st([(3, 1), (1, 3)], 1)]


# two blocks each, of one eigenvalue and apart in it: conjugated one by one,
# so that sqrt2 reaches the grids of both components of a Sylvester pair
_TWO_BLOCKS = [((0, [(3, 1)]), (0, [(2, 1)])),
               ((IMAG, [(2, 1)]), (IMAG, [(3, 1)])),
               ((0, [(3, 1)]), (1, [(2, 1)])),
               ((_ONE_R2, [(2, 1)]), (IMAG, [(3, 1)]))]


def test_prime_oracle_equals_bareiss_on_several_eigenvalues(monkeypatch):
    forms = [symmetric_form(st) for st in _APART + list(_MULTI_STRUCTURES)]
    pairs = [[symmetric_form(_st(blocks, lam)) for lam, blocks in pair]
             for pair in _TWO_BLOCKS]
    conjugates = [direct_sum([_rotated(s) for s in pair]) for pair in pairs]
    assert all(len(set(_components(s))) == 2 for s in conjugates)
    forms += conjugates
    assert _triples(forms) == _bareiss_triples(monkeypatch, forms)
    assert _triples(conjugates) == _triples([direct_sum(p) for p in pairs])


def test_prime_tried_on_dense_kernels_does_not_settle(monkeypatch):
    dense = [_rotated(symmetric_form(st)) for st in _KERNEL]
    want = _bareiss_triples(monkeypatch, dense)
    assert all(kernel for _, _, kernel in want)
    calls = _counted(monkeypatch)
    for s, triple in zip(dense, want):
        # one component: its skew self-pair is the whole system
        assert set(_components(s)) == {0}
        assert _triples([s]) == [triple]
    # the prime falls short on each, and Bareiss takes the same rows
    n = len(dense)
    assert calls == {"misses": n, "_pair_rows": n, "_rank_mod_p": n,
                     "_fraction_free": n}


def test_prime_settles_full_rank_pairs_without_the_kernel(monkeypatch):
    calls = _counted(monkeypatch)
    # a skew self-pair: the 36 x 28 system of one block of size 8
    assert _triples([symmetric_form(_st([(8, 1)], 0))]) == [(28, 8, 0)]
    # two self-pairs and a pair apart in eigenvalue
    assert _triples([symmetric_form(_APART[0])]) == [(10, 5, 0)]
    assert calls == {"misses": 4, "_pair_rows": 4, "_rank_mod_p": 4,
                     "_fraction_free": 0}
    # a pair of one eigenvalue has a Sylvester kernel: no prime, Bareiss
    assert _triples([symmetric_form(_st([(3, 1), (2, 1)], 0))]) \
        == [(8, 7, 2)]
    assert calls == {"misses": 7, "_pair_rows": 7, "_rank_mod_p": 6,
                     "_fraction_free": 1}


# ---------------------------------------------------------------------------
# two feeds of one rank path: the structure's layout and a dense S
# ---------------------------------------------------------------------------


# eigenvalues of different denominators (the blocks' grids have
# denominators 1 to 6 and 10), so that the structure feed rescales its
# blocks to their lcm as S does
_DENOMINATORS = [
    _multi((0, [(2, 1), (1, 1)]), (ONE / 3, [(3, 1)])),
    _multi((ONE / 3, [(2, 2), (1, 1)]), (IMAG / 2, [(3, 1), (1, 1)])),
    _multi((0, [(3, 1)]), (ONE / 3, [(1, 2)]), (IMAG / 2, [(2, 1)])),
    _multi((IMAG / 2, [(2, 1), (1, 2)]), (ONE / 3, [(2, 1)]),
           (ONE * 2 / 5 + SQRT2, [(3, 1), (1, 1)])),
    _multi((1, [(4, 1), (2, 2)]), (ONE / 4, [(2, 1)]), (IMAG / 2, [(1, 1)])),
]


def test_the_structure_feed_equals_the_dense_feed():
    structures = [st for n in range(1, 11)
                  for lam in (0, 1, IMAG, ONE / 2, _ONE_R2)
                  for st in enumerate_structures(n, lam)]
    for st in structures + _DENOMINATORS:
        s = symmetric_form(st)
        # the same groups in the same order: the skew pair of two groups is
        # keyed in that order
        assert _structure_grids(st) == _component_grids(s), st
        _pair_rank.cache_clear()
        report = consistency_check(st)
        misses = _pair_rank.cache_info().misses
        tangent, codim, kernel = tangent_oracle(s)
        # the dense feed finds every rank the structure feed cached
        assert _pair_rank.cache_info().misses == misses, st
        assert report == OrbitReport(st, st.n, codim, kernel, tangent,
                                     codim), st
    _pair_rank.cache_clear()


def test_a_row_key_is_made_once_per_size_eigenvalue_and_den():
    # [(3, 1)] at 0 lays its block out over den 2; beside 1/3 at size 1 the
    # same block is laid out over den 6, so a warm key under den 2 must not
    # answer for it
    orbit._row_key.cache_clear()
    alone = _st([(3, 1)], 0)
    beside = _multi((0, [(3, 1)]), (ONE / 3, [(1, 2)]))
    for st in (alone, beside):
        assert _structure_grids(st) == _component_grids(symmetric_form(st)), st
    assert orbit._row_key.cache_info().misses == 3
    # a second pass takes every key from the cache
    for st in (alone, beside):
        assert _structure_grids(st) == _component_grids(symmetric_form(st)), st
    assert orbit._row_key.cache_info().misses == 3
