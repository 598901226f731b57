import pytest

from isotropy.errors import StructureError
from isotropy.forms import (
    MultiSegreStructure, SegreStructure, backward_form,
    block_backward_form, enumerate_structures, interleave_form,
    jordan_block, jordan_form, symmetric_block,
    symmetric_form, transition_form, transition_matrix,
)
from isotropy import forms
from isotropy.matrices import ExactMatrix, _reduced, identity
from isotropy.rng import RandomSource
from isotropy.scalars import ExactScalar, HALF, IMAG, ONE, SQRT2, ZERO, rat

import _oracles as oracle


def _power(m, n):
    """m^n by repeated products."""
    out = identity(m.rows)
    for _ in range(n):
        out = out * m
    return out


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def test_structure_normalization():
    s = SegreStructure(0, [(1, 2), (3, 1), (1, 1)])
    assert s.blocks == ((3, 1), (1, 3))
    assert s.n == 6 and s.part_count == 2
    assert s.alphas == (3, 1) and s.mults == (1, 3)
    assert s == SegreStructure(0, [(3, 1), (1, 3)])


def test_structure_rejects_bad_blocks():
    with pytest.raises(StructureError):
        SegreStructure(0, [(0, 1)])
    with pytest.raises(StructureError):
        SegreStructure(0, [(2, -1)])
    with pytest.raises(StructureError):
        SegreStructure(0, [])


@pytest.mark.parametrize("block", [(2.9, 1), (2, 1.5), ("3", True),
                                   (2.0, 1), (True, 1), (2, "1")])
def test_structure_rejects_non_integer_blocks(block):
    with pytest.raises(StructureError, match="must be an integer"):
        SegreStructure(0, [block])


def test_structure_helpers():
    s = SegreStructure(1, [(4, 2), (2, 3), (1, 1)])
    assert s.n == 15
    assert s.depth(0, 1) == 2 and s.depth(1, 0) == 2 and s.depth(2, 2) == 1


def test_multi_structure_rejects_duplicates():
    a = SegreStructure(0, [(2, 1)])
    b = SegreStructure(0, [(1, 1)])
    with pytest.raises(StructureError):
        MultiSegreStructure([a, b])
    multi = MultiSegreStructure([a, SegreStructure(1, [(1, 1)])])
    assert multi.n == 3


_BUILDERS = (jordan_form, symmetric_form, transition_form, backward_form,
             interleave_form, block_backward_form)


def test_a_structure_is_its_own_single_part():
    # every walk over parts gives the same on st and on the one-part
    # MultiSegreStructure([st])
    for n in range(1, 7):
        for lam in (0, 1, IMAG):
            for st in enumerate_structures(n, lam):
                assert st.parts == (st,)
                multi = MultiSegreStructure([st])
                for build in _BUILDERS:
                    assert build(st) == build(multi), (build.__name__, st)


def test_enumerate_structures_counts():
    # partition numbers p(1..8) = 1 2 3 5 7 11 15 22
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, count in expected.items():
        structs = list(enumerate_structures(n))
        assert len(structs) == count
        assert all(s.n == n for s in structs)
        assert len(set(structs)) == count


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _written_out(part):
    """(commutant, free parameters by kind) of one part, slot by slot:
    block (r, s) has min(alpha_r, alpha_s) coefficients of m_r x m_s; the
    sub-blocks (r, s, j), s < r, j < alpha_r, are m_r x m_s, the skews
    (r, j), 1 <= j < alpha_r, skew m_r x m_r, and each seed lies in O(m_r)."""
    blocks = part.blocks
    commutant = sum(m_r * m_s * min(alpha_r, alpha_s)
                    for alpha_r, m_r in blocks for alpha_s, m_s in blocks)
    sub = sum(alpha_r * m_r * m_s for r, (alpha_r, m_r) in enumerate(blocks)
              for _, m_s in blocks[:r])
    skews = sum((alpha - 1) * m * (m - 1) // 2 for alpha, m in blocks)
    seeds = sum(m * (m - 1) // 2 for _, m in blocks)
    return commutant, {"sub_blocks": sub, "skews": skews,
                       "seed_manifold": seeds}


def _count_cases():
    """Every partition with n <= 10, and structures of two and of three
    eigenvalues."""
    for n in range(1, 11):
        yield from enumerate_structures(n, IMAG)
    for a in enumerate_structures(4, 0):
        for b in enumerate_structures(3, 1):
            yield MultiSegreStructure([a, b])
    for a in enumerate_structures(3, 0):
        for b in enumerate_structures(2, 1):
            for c in enumerate_structures(3, IMAG):
                yield MultiSegreStructure([a, b, c])


def test_closed_forms_match_the_counts_written_out():
    for st in _count_cases():
        written = [_written_out(part) for part in st.parts]
        free = forms.free_parameter_count(st)
        assert forms.commutant_dimension(st) == sum(c for c, _ in written)
        assert free == {kind: sum(counts[kind] for _, counts in written)
                        for kind in free}, st
        assert forms.solution_dimension(st) == sum(free.values()), st
        assert forms.codim_formula(st) == st.n + forms.solution_dimension(st)


def test_closed_forms_sum_over_the_parts():
    a = SegreStructure(0, [(3, 1), (1, 1)])
    b = SegreStructure(1, [(2, 2)])
    multi = MultiSegreStructure([a, b])
    # a: 3 + 1 + 2 * 1; b: 2 * 2 * 2
    assert forms.commutant_dimension(multi) == 6 + 8
    assert forms.free_parameter_count(multi) == {
        "sub_blocks": 1, "skews": 1, "seed_manifold": 1}
    for count in (forms.commutant_dimension, forms.solution_dimension,
                  forms.codim_formula):
        assert count(multi) == count(a) + count(b)


# ---------------------------------------------------------------------------
# elementary blocks
# ---------------------------------------------------------------------------

def backward_identity(n):
    """Ones on the anti-diagonal: the backward form of one block."""
    return backward_form(SegreStructure(0, [(n, 1)]))


def test_backward_identity():
    e = backward_identity(3)
    assert e * e == identity(3)
    assert e.T == e
    assert e[0, 2] == ONE and e[0, 0] == ZERO


def test_jordan_block():
    j = jordan_block(3, IMAG)
    assert j[0, 0] == IMAG and j[0, 1] == ONE and j[1, 0] == ZERO
    assert j[2, 2] == IMAG


def test_transition_matrix_properties():
    for alpha in range(1, 6):
        p = transition_matrix(alpha)
        e = backward_identity(alpha)
        assert p.T == p
        assert p * p == IMAG * e
        # P^-1 = (I - i E) / sqrt2, P with i -> -i
        assert p.inverse() == (identity(alpha) - IMAG * e).scale(SQRT2.inverse())


def test_transition_matrix_alpha1():
    p = transition_matrix(1)
    assert p[0, 0] == (ONE + IMAG) * SQRT2.inverse()


def test_symmetric_block_2x2_frozen():
    lam = ExactScalar(rat(3, 5), 2)  # 3/5 + 2i
    k = symmetric_block(2, lam)
    ihalf = IMAG * HALF
    assert k == ExactMatrix.from_rows([
        [lam - ihalf, HALF],
        [HALF, lam + ihalf],
    ])


def test_symmetric_block_1x1():
    assert symmetric_block(1, 7) == ExactMatrix.from_rows([[7]])


def test_symmetric_block_against_oracle():
    for n in range(1, 7):
        # the eigenvalue 1/3 - 2 i, as (1 - 6 i) / 3; equal grids have
        # equal parts, so the block has no sqrt2 part
        want = oracle.symmetric_canonical_block(n, (1, -6, 0, 0), 3)
        got = symmetric_block(n, ExactScalar(rat(1, 3), rat(-2)))
        assert oracle.grid(got) == want


def test_symmetric_block_equals_transition_conjugate_of_jordan():
    # symmetric_block is built entrywise; P J P^-1 is the definition
    # at lam = -+i/2 a diagonal entry where the patterns overlap is zero
    for lam in (ZERO, ONE, IMAG, IMAG * HALF, -(IMAG * HALF),
                ExactScalar(rat(1, 3), 1, rat(-2, 5), 2)):
        for n in range(1, 13):
            p = transition_matrix(n)
            assert p * jordan_block(n, lam) * p.inverse() \
                == symmetric_block(n, lam)


def test_symmetric_block_is_similar_to_jordan():
    rs = RandomSource(12)
    for n in range(1, 7):
        lam = rs.scalar()
        k = symmetric_block(n, lam)
        assert k.T == k
        assert sum((k[i, i] for i in range(n)), ZERO) == n * lam
        # (K - lam I)^n = 0 but (K - lam I)^{n-1} != 0
        nilp = k - lam * identity(n)
        assert _power(nilp, n).is_zero
        if n > 1:
            assert not _power(nilp, n - 1).is_zero


def interleave_permutation(alpha, m):
    # Omega of one eigenvalue row, entry by entry: column i*m + k is
    # e_{k*alpha + i}
    cols = {i * m + k: k * alpha + i for i in range(alpha) for k in range(m)}
    return ExactMatrix.build(alpha * m, alpha * m,
                             lambda r, c: ONE if cols[c] == r else ZERO)


def test_interleave_form_is_the_row_permutation():
    for alpha, m in [(2, 3), (4, 1), (1, 5), (3, 2)]:
        assert interleave_form(SegreStructure(0, [(alpha, m)])) \
            == interleave_permutation(alpha, m)


def test_interleave_permutation_frozen_2_3():
    # columns e_1, e_3, e_5, e_2, e_4, e_6
    om = interleave_form(SegreStructure(0, [(2, 3)]))
    want_cols = [0, 2, 4, 1, 3, 5]
    for c, r in enumerate(want_cols):
        assert om[r, c] == ONE
    assert (om.T * om).is_identity


def test_interleave_permutation_degenerate():
    assert interleave_form(SegreStructure(0, [(4, 1)])).is_identity
    assert interleave_form(SegreStructure(0, [(1, 5)])).is_identity


# ---------------------------------------------------------------------------
# whole-structure builders
# ---------------------------------------------------------------------------

def test_forms_shapes_and_symmetry():
    rs = RandomSource(99)
    for _ in range(10):
        s = rs.structure(8)
        n = s.n
        sm = symmetric_form(s)
        assert sm.rows == n and sm.T == sm
        assert jordan_form(s).rows == n
        p, e = transition_form(s), backward_form(s)
        assert p.inverse() == (identity(n) - IMAG * e).scale(SQRT2.inverse())
        assert p * jordan_form(s) * p.inverse() == sm
        assert e * e == identity(n)
        om = interleave_form(s)
        assert (om.T * om).is_identity


def test_canonical_matrices_built_once_in_a_bounded_cache():
    st = MultiSegreStructure([SegreStructure(IMAG, [(3, 1), (1, 2)]),
                              SegreStructure(0, [(2, 2)])])
    assert symmetric_form(st) is symmetric_form(st)
    p = transition_form(st)
    assert p.inverse() == (identity(st.n) - IMAG * backward_form(st)).scale(
        SQRT2.inverse())
    for n in range(1, 9):
        for s in enumerate_structures(n):
            symmetric_form(s)
    info = forms._symmetric_form.cache_info()
    assert info.maxsize == 4 and info.currsize <= info.maxsize


def test_block_backward_form_matches_conjugated_backward_form():
    # resolves the layout question by direct computation on several shapes
    for blocks in [[(4, 2), (2, 3), (1, 1)], [(3, 1), (2, 2)], [(2, 2)],
                   [(1, 4)], [(5, 1), (3, 2), (1, 3)]]:
        s = SegreStructure(0, blocks)
        om = interleave_form(s)
        assert om.T * backward_form(s) * om == block_backward_form(s)


@pytest.mark.parametrize("lam", [ZERO, ONE, IMAG])
def test_transition_by_index_equals_the_two_products(lam):
    # Y with sqrt2 parts and denominators 1 to 6 from entry to entry; the
    # index map must give the same den and grid as the dense products
    rnd = RandomSource(19)
    structures = [st for n in range(1, 8) for st in enumerate_structures(n, lam)]
    structures.append(MultiSegreStructure([
        SegreStructure(lam, [(3, 2), (1, 1)]),
        SegreStructure(lam + 2, [(2, 1), (1, 2)])]))
    for st in structures:
        p, om = transition_form(st), interleave_form(st)
        y = rnd.matrix(st.n, st.n, with_sqrt2=True, max_den=6)
        back = forms._transition_rows(
            y._g, *forms._transition_indices(st, False))
        for to_dense, got, want in (
                (True, forms._conjugate_by_transition(st, y),
                 p * (om * y * om.T) * p.inverse()),
                (False, _reduced(st.n, st.n, back, 2 * y._den),
                 om.T * (p.inverse() * y * p) * om)):
            assert (got._den, got._g) == (want._den, want._g), (st, to_dense)


def test_block_backward_form_squares_to_identity():
    s = SegreStructure(0, [(3, 2), (1, 1)])
    f = block_backward_form(s)
    assert f * f == identity(s.n)
    assert f.T == f


def test_nilpotency_order_of_symmetric_form():
    s = SegreStructure(IMAG, [(3, 1), (2, 2)])
    sm = symmetric_form(s)
    nilp = sm - IMAG * identity(s.n)
    assert _power(nilp, 3).is_zero
    assert not _power(nilp, 2).is_zero


def test_multi_forms_are_direct_sums():
    a = SegreStructure(0, [(2, 1)])
    b = SegreStructure(1, [(1, 2)])
    multi = MultiSegreStructure([a, b])
    sm = symmetric_form(multi)

    def block(r, c):
        return ExactMatrix.build(2, 2, lambda i, j: sm[r + i, c + j])

    assert block(0, 0) == symmetric_form(a)
    assert block(2, 2) == symmetric_form(b)
    assert block(0, 2).is_zero
