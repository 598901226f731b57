from fractions import Fraction

import pytest

from isotropy.errors import (
    DimensionMismatchError, ParameterError, ShapeViolationError, StructureError,
)
from isotropy.forms import (
    SegreStructure, block_backward_form, enumerate_structures, interleave_form,
    jordan_form,
)
from isotropy.matrices import ExactMatrix, identity, zeros
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, ZERO, rat
from isotropy.toeplitz import (
    ToeplitzForm, commutant_basis, commutant_dimension, conjugate_by_omega,
)

import _oracles as oracle


def _to_oracle(m):
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            x = m[i, j]
            assert x.is_gaussian
            row.append((Fraction(str(x.a)), Fraction(str(x.b))))
        out.append(row)
    return out


def _random_form(rnd, structure, keep=2):
    # roughly keep/(keep+1) of the coefficients populated
    def cell(r, s, j):
        if rnd.stream.below(keep + 1) == 0:
            return zeros(structure.mults[r], structure.mults[s])
        return rnd.matrix(structure.mults[r], structure.mults[s], max_num=2)

    return ToeplitzForm.build(structure, cell)


def _random_identity_diagonal(rnd, structure):
    eye = ToeplitzForm.identity(structure)
    body = _random_form(rnd, structure)
    count = structure.part_count
    for r in range(count):
        body = body.with_coefficient(r, r, 0, zeros(structure.mults[r],
                                                    structure.mults[r]))
    return eye + body


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_constructor_rejects_incomplete_or_misshapen():
    st = SegreStructure(0, [(2, 1), (1, 1)])
    good = ToeplitzForm.identity(st)
    with pytest.raises(StructureError):
        ToeplitzForm(st, {(0, 0): good.coeffs[(0, 0)]})
    short = dict(good.coeffs)
    short[(0, 0)] = good.coeffs[(0, 0)][:1]
    with pytest.raises(StructureError):
        ToeplitzForm(st, short)
    fat = dict(good.coeffs)
    fat[(0, 1)] = (identity(2),)
    with pytest.raises(DimensionMismatchError):
        ToeplitzForm(st, fat)


def test_form_is_immutable_and_reports_repr():
    st = SegreStructure(0, [(2, 1)])
    tf = ToeplitzForm.identity(st)
    with pytest.raises(AttributeError):
        tf.structure = st
    assert "nonzero_coefficients=1" in repr(tf)


def test_from_sparse_validates_indices():
    st = SegreStructure(0, [(2, 1), (1, 1)])
    one = ExactMatrix.build(1, 1, lambda i, j: ONE)
    with pytest.raises(ParameterError):
        ToeplitzForm.from_sparse(st, {(0, 0, 2): one})
    with pytest.raises(ParameterError):
        ToeplitzForm.from_sparse(st, {(2, 0, 0): one})
    tf = ToeplitzForm.from_sparse(st, {(0, 1, 0): one})
    assert tf.coefficient(0, 1, 0) == one
    assert tf.coefficient(1, 0, 0).is_zero
    # out-of-range reads come back as padding zeros
    assert tf.coefficient(0, 0, 5).is_zero


def test_identity_and_zero_assemble():
    st = SegreStructure(0, [(3, 2), (2, 1)])
    assert ToeplitzForm.identity(st).assemble() == identity(st.n)
    assert ToeplitzForm.zero(st).assemble() == zeros(st.n, st.n)
    assert ToeplitzForm.identity(st).is_identity
    assert ToeplitzForm.zero(st).is_zero


# ---------------------------------------------------------------------------
# the frozen 6x6 interleaving example
# ---------------------------------------------------------------------------

def test_frozen_interleaving_example():
    """Two groups (3,2) and (2,3): the copy-major 6x6 coupling block with
    per-copy-pair rectangles [[a,b],[0,a],[0,0]] interleaves into the
    position-major layout [[A0, A1], [0, A0], [0, 0]] with 2x3 cells."""
    st = SegreStructure(0, [(3, 2), (2, 3)])
    a = [rat(k) for k in range(1, 7)]
    b = [rat(10 + k) for k in range(1, 7)]

    def left_entry(i, j):
        copy_r, u = divmod(i, 3)
        copy_s, v = divmod(j, 2)
        sym = 3 * copy_r + copy_s
        if v == u:
            return a[sym]
        if v == u + 1:
            return b[sym]
        return rat(0)

    full = [[ZERO] * 12 for _ in range(12)]
    for i in range(6):
        for j in range(6):
            full[i][6 + j] = left_entry(i, j)
    dense = ExactMatrix.from_rows(full)

    jf = jordan_form(st)
    assert jf * dense == dense * jf

    toep = conjugate_by_omega(dense, st, "to_toeplitz")
    expected_block = [
        [1, 2, 3, 11, 12, 13],
        [4, 5, 6, 14, 15, 16],
        [0, 0, 0, 1, 2, 3],
        [0, 0, 0, 4, 5, 6],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ]
    for i in range(6):
        for j in range(6):
            assert toep[i, 6 + j] == rat(expected_block[i][j])

    tf = ToeplitzForm.extract(toep, st)
    assert tf.coefficient(0, 1, 0).to_lists() == [["1", "2", "3"], ["4", "5", "6"]]
    assert tf.coefficient(0, 1, 1).to_lists() == [["11", "12", "13"],
                                                  ["14", "15", "16"]]
    assert conjugate_by_omega(toep, st, "to_dense") == dense


# ---------------------------------------------------------------------------
# assemble / extract round trips
# ---------------------------------------------------------------------------

def test_extract_round_trip_random():
    rnd = RandomSource(20240821)
    for _ in range(200):
        st = rnd.structure(max_n=10, max_parts=3)
        tf = _random_form(rnd, st)
        dense = tf.assemble()
        assert ToeplitzForm.extract(dense, st) == tf


def _bump(dense, i, j):
    return dense + ExactMatrix.build(
        dense.rows, dense.cols,
        lambda r, c: ONE if (r, c) == (i, j) else ZERO)


def test_extract_rejects_first_offending_entry():
    st = SegreStructure(0, [(2, 1), (1, 1)])
    tf = ToeplitzForm.from_sparse(st, {
        (0, 0, 0): ExactMatrix.build(1, 1, lambda i, j: rat(7)),
        (0, 0, 1): ExactMatrix.build(1, 1, lambda i, j: rat(2)),
    })
    dense = tf.assemble()

    with pytest.raises(ShapeViolationError) as info:
        ToeplitzForm.extract(_bump(dense, 1, 0), st)  # must stay zero
    assert (info.value.row, info.value.col) == (1, 0)

    with pytest.raises(ShapeViolationError) as info:
        ToeplitzForm.extract(_bump(dense, 1, 1), st)  # must repeat entry (0, 0)
    assert (info.value.row, info.value.col) == (1, 1)


def test_extract_rejects_wrong_size():
    st = SegreStructure(0, [(2, 1)])
    with pytest.raises(DimensionMismatchError):
        ToeplitzForm.extract(identity(3), st)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_mul_matches_dense_product():
    rnd = RandomSource(20240822)
    for _ in range(100):
        st = rnd.structure(max_n=9, max_parts=3)
        x = _random_form(rnd, st)
        y = _random_form(rnd, st)
        z = x * y
        assert z.assemble() == x.assemble() * y.assemble()


def test_mul_identity_neutral_and_linear_ops():
    rnd = RandomSource(20240823)
    st = SegreStructure(0, [(3, 1), (2, 2), (1, 1)])
    x = _random_form(rnd, st)
    eye = ToeplitzForm.identity(st)
    assert x * eye == x and eye * x == x
    assert (x - x).is_zero
    assert (-x) + x == ToeplitzForm.zero(st)
    assert x.scale(rat(2)) == x + x
    y = _random_form(rnd, st)
    assert (x + y).assemble() == x.assemble() + y.assemble()


def test_mul_requires_same_structure():
    a = ToeplitzForm.identity(SegreStructure(0, [(2, 1)]))
    b = ToeplitzForm.identity(SegreStructure(0, [(1, 2)]))
    with pytest.raises(DimensionMismatchError):
        a * b


def test_flip_transpose_matches_dense_conjugation():
    rnd = RandomSource(20240824)
    for _ in range(60):
        st = rnd.structure(max_n=9, max_parts=3)
        x = _random_form(rnd, st)
        flip = block_backward_form(st)
        assert x.flip_transpose().assemble() == flip * x.assemble().transpose() * flip
        assert x.flip_transpose().flip_transpose() == x


# ---------------------------------------------------------------------------
# weights and nilpotency
# ---------------------------------------------------------------------------

def test_weight_components_partition_the_form():
    rnd = RandomSource(20240825)
    for _ in range(40):
        st = rnd.structure(max_n=9, max_parts=3)
        x = _random_form(rnd, st)
        total = ToeplitzForm.zero(st)
        for w in range(st.alphas[0]):
            total = total + x.weight_component(w)
        assert total == x


def test_weights_add_under_products():
    rnd = RandomSource(20240826)
    for _ in range(80):
        st = rnd.structure(max_n=9, max_parts=3)
        x = _random_form(rnd, st)
        y = _random_form(rnd, st)
        wx, wy = x.min_weight(), y.min_weight()
        wz = (x * y).min_weight()
        if wx is None or wy is None:
            assert wz is None
        elif wz is not None:
            assert wz >= wx + wy


def test_positive_weight_forms_are_nilpotent_within_largest_exponent():
    rnd = RandomSource(20240827)
    for _ in range(60):
        st = rnd.structure(max_n=9, max_parts=3)
        body = _random_form(rnd, st)
        heavy = body - body.weight_component(0)
        dense = heavy.assemble()
        assert dense.power(st.alphas[0]).is_zero


def test_identity_diagonal_forms_nilpotent_within_dense_size():
    rnd = RandomSource(20240828)
    for _ in range(40):
        st = rnd.structure(max_n=8, max_parts=3)
        u = _random_identity_diagonal(rnd, st)
        nil = (u - ToeplitzForm.identity(st)).assemble()
        assert nil.power(st.n).is_zero


def test_weight_zero_couplings_escape_single_step_filtration():
    """Two strict-upper forms can multiply onto a depth-1 diagonal
    coefficient: with groups (2,1),(1,1) the product of the coupling cells
    lands on coefficient (r, r, 1), so one multiplication does not advance
    the naive coefficient filtration by one step."""
    st = SegreStructure(0, [(2, 1), (1, 1)])

    def cell(v):
        return ExactMatrix.build(1, 1, lambda i, j: rat(v))

    n_form = ToeplitzForm.from_sparse(st, {
        (0, 0, 1): cell(1), (0, 1, 0): cell(2), (1, 0, 0): cell(3),
    })
    assert all(n_form.coefficient(r, r, 0).is_zero for r in range(2))
    square = n_form * n_form
    assert square.coefficient(0, 0, 1) == cell(6)
    assert n_form.min_weight() == 0 and square.min_weight() == 1


# ---------------------------------------------------------------------------
# series inverse
# ---------------------------------------------------------------------------

def test_series_inverse_random():
    rnd = RandomSource(20240829)
    for _ in range(40):
        st = rnd.structure(max_n=8, max_parts=3)
        u = _random_identity_diagonal(rnd, st)
        inv = u.neumann_inverse()
        assert (u * inv).is_identity and (inv * u).is_identity
        assert inv.assemble() == u.assemble().inverse()


def test_series_inverse_requires_identity_diagonal():
    st = SegreStructure(0, [(2, 1)])
    two = ToeplitzForm.identity(st).scale(rat(2))
    with pytest.raises(ParameterError):
        two.neumann_inverse()


def test_series_inverse_needs_terms_beyond_largest_exponent():
    """The alternating series must run to the true nilpotency index: with
    groups (2,1),(1,1) and both coupling cells set, (U - I)^2 != 0 even
    though the largest exponent is 2, and the inverse needs the square
    term."""
    st = SegreStructure(0, [(2, 1), (1, 1)])

    def cell(v):
        return ExactMatrix.build(1, 1, lambda i, j: rat(v))

    u = (ToeplitzForm.identity(st)
         .with_coefficient(0, 0, 1, cell(1))
         .with_coefficient(0, 1, 0, cell(2))
         .with_coefficient(1, 0, 0, cell(3)))
    nil = u - ToeplitzForm.identity(st)
    n_dense = nil.assemble()
    assert not n_dense.power(2).is_zero
    assert n_dense.power(3).is_zero

    inv = u.neumann_inverse()
    eye = identity(st.n)
    assert inv.assemble() == eye - n_dense + n_dense.power(2)
    truncated = eye - n_dense
    assert u.assemble() * truncated != eye
    assert u.assemble() * inv.assemble() == eye


# ---------------------------------------------------------------------------
# omega conjugation
# ---------------------------------------------------------------------------

def test_conjugate_by_omega_round_trip():
    rnd = RandomSource(20240830)
    for _ in range(30):
        st = rnd.structure(max_n=8, max_parts=3)
        x = rnd.matrix(st.n, st.n)
        there = conjugate_by_omega(x, st, "to_toeplitz")
        assert conjugate_by_omega(there, st, "to_dense") == x
    with pytest.raises(ParameterError):
        conjugate_by_omega(identity(2), SegreStructure(0, [(2, 1)]), "sideways")
    with pytest.raises(DimensionMismatchError):
        conjugate_by_omega(identity(3), SegreStructure(0, [(2, 1)]), "to_dense")


def test_conjugate_by_omega_matches_dense_interleave():
    for n in range(1, 8):
        x = ExactMatrix.build(n, n, lambda i, j: i * n + j + 1)
        for st in enumerate_structures(n):
            om = interleave_form(st)
            assert conjugate_by_omega(x, st, "to_toeplitz") == om.T * x * om
            assert conjugate_by_omega(x, st, "to_dense") == om * x * om.T


def test_single_copy_groups_need_no_interleaving():
    st = SegreStructure(0, [(3, 1)])
    assert interleave_form(st) == identity(3)
    x = RandomSource(20240831).matrix(3, 3)
    assert conjugate_by_omega(x, st, "to_toeplitz") == x


# ---------------------------------------------------------------------------
# commutant parameterization
# ---------------------------------------------------------------------------

def test_commutant_dimension_examples():
    assert commutant_dimension(SegreStructure(0, [(1, 4)])) == 16
    assert commutant_dimension(SegreStructure(0, [(2, 1), (1, 1)])) == 5
    assert commutant_dimension(SegreStructure(0, [(3, 1)])) == 3


def test_commutant_dimension_matches_oracle_nullity():
    for n in range(1, 7):
        for st in enumerate_structures(n, lam=IMAG):
            system = oracle.vectorize_commutant_system(_to_oracle(jordan_form(st)))
            assert commutant_dimension(st) == oracle.nullity(system)


def test_commutant_builder_output_commutes():
    rnd = RandomSource(20240832)
    for _ in range(40):
        st = rnd.structure(max_n=9, max_parts=3)
        dim, builder = commutant_basis(st)
        assert dim == commutant_dimension(st)
        assignment = {}
        count = st.part_count
        for r in range(count):
            for s in range(count):
                for j in range(st.depth(r, s)):
                    if rnd.stream.below(2) == 0:
                        assignment[(r, s, j)] = rnd.matrix(st.mults[r], st.mults[s])
        x = builder(assignment)
        jf = jordan_form(st)
        assert jf * x == x * jf
