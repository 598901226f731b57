from fractions import Fraction

import pytest

from isotropy.errors import (
    DimensionMismatchError, ParameterError, ShapeViolationError, StructureError,
)
from isotropy.forms import (
    SegreStructure, block_backward_form, enumerate_structures, interleave_form,
    jordan_form,
)
from isotropy.generators import gen_G, gen_W
from isotropy.matrices import ExactMatrix, identity, zeros
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG, ONE, ZERO, parse_scalar, rat
from isotropy.solver import constant_data, random_free_params, solve_congruence
from isotropy.toeplitz import (
    ToeplitzForm, commutant_basis, commutant_dimension, conjugate_by_omega,
)

import _oracles as oracle


def _power(m, n):
    """m^n by repeated products."""
    out = identity(m.rows)
    for _ in range(n):
        out = out * m
    return out


def _to_oracle(m):
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            x = m[i, j]
            assert not (x.c or x.d)
            row.append((Fraction(str(x.a)), Fraction(str(x.b))))
        out.append(row)
    return out


def _random_form(rnd, structure, keep=2, **scalar_kw):
    # roughly keep/(keep+1) of the coefficients populated
    def cell(r, s):
        if rnd.stream.below(keep + 1) == 0:
            return zeros(structure.mults[r], structure.mults[s])
        return rnd.matrix(structure.mults[r], structure.mults[s], max_num=2,
                          **scalar_kw)

    return ToeplitzForm.from_sparse(structure, {
        (r, s, j): cell(r, s) for r, s in _blocks(structure)
        for j in range(structure.depth(r, s))})


def _random_identity_diagonal(rnd, structure):
    # a random form with every leading diagonal coefficient replaced by I
    body = _random_form(rnd, structure)
    leads = {(r, r, 0): body.coefficient(r, r, 0)
             for r in range(structure.part_count)}
    return (ToeplitzForm.identity(structure) + body
            - ToeplitzForm.from_sparse(structure, leads))


def _weight_component(x, w):
    """x restricted to its coefficient slots (r, s, j) of weight
    j + shift(r, s) = w."""
    st = x.structure
    return ToeplitzForm.from_sparse(st, {
        (r, s, j): x.coefficient(r, s, j) for r, s in _blocks(st)
        for j in range(st.depth(r, s)) if j + st.shift(r, s) == w})


def _blocks(structure):
    """Every block (r, s), row by row."""
    return [(r, s) for r in range(structure.part_count)
            for s in range(structure.part_count)]


def _min_weight(x):
    """Smallest weight carrying a nonzero coefficient; None if x is zero."""
    return next((w for w in range(x.structure.alphas[0])
                 if not _weight_component(x, w).is_zero), None)


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


def _block_assembled_strip(st, coeff):
    """Per group, its zero cells and coefficients coeff(r, s, j) side by
    side, laid out entry by entry: the first cell-row of each group."""
    rows = []
    for r, m_r in enumerate(st.mults):
        cells = []
        for s, m_s in enumerate(st.mults):
            cells += [zeros(m_r, m_s)] * st.shift(r, s)
            cells += [coeff(r, s, j) for j in range(st.depth(r, s))]
        rows += [[cell[a, b] for cell in cells for b in range(cell.cols)]
                 for a in range(m_r)]
    return ExactMatrix.build(len(rows), st.n, lambda i, j: rows[i][j])


def test_constructors_write_the_block_assembled_strip():
    rnd = RandomSource(1919)
    for n in range(1, 7):
        for st in enumerate_structures(n, IMAG):
            # a third of the coefficients zero; sqrt2 parts and
            # denominators 1 to 5 in the rest
            cells = {(r, s, j): zeros(m_r, m_s) if rnd.stream.below(3) == 0
                     else rnd.matrix(m_r, m_s, with_sqrt2=True, max_den=5)
                     for r, m_r in enumerate(st.mults)
                     for s, m_s in enumerate(st.mults)
                     for j in range(st.depth(r, s))}
            want = _block_assembled_strip(st, lambda r, s, j: cells[(r, s, j)])
            coeffs = {(r, s): [cells[(r, s, j)] for j in range(st.depth(r, s))]
                      for r, s, _ in cells}
            # from_sparse gets the nonzero coefficients and the zero ones
            # at j = 0
            sparse = {k: v for k, v in cells.items() if k[2] == 0 or not v.is_zero}
            for form in (ToeplitzForm(st, coeffs),
                         ToeplitzForm.from_sparse(st, sparse)):
                assert (form._strip._den, form._strip._g) == (want._den, want._g)
            empty = ToeplitzForm.from_sparse(st, {})
            assert empty._strip == _block_assembled_strip(
                st, lambda r, s, j: zeros(st.mults[r], st.mults[s]))
            assert empty == ToeplitzForm.zero(st)


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
# properties of the strip
# ---------------------------------------------------------------------------

def _property_tools():
    """(hypothesis, a block-list strategy for n <= 9, the test settings)."""
    hypothesis = pytest.importorskip("hypothesis")
    hs = hypothesis.strategies

    @hs.composite
    def blocks(draw, budget=9):
        # up to three rows (alpha, m); SegreStructure merges repeated sizes
        out = []
        for _ in range(draw(hs.integers(1, 3))):
            if budget == 0:
                break
            alpha = draw(hs.integers(1, budget))
            m = draw(hs.integers(1, budget // alpha))
            out.append((alpha, m))
            budget -= alpha * m
        return out

    return hypothesis, blocks(), hypothesis.settings(
        derandomize=True, database=None, deadline=None, max_examples=60)


def _mixed_form(rnd, st):
    # sqrt2 parts, and denominators that differ from entry to entry
    return _random_form(rnd, st, with_sqrt2=True, max_den=5)


def test_strip_properties():
    hypothesis, blocks, settings = _property_tools()
    seeds = hypothesis.strategies.integers(0, 2**32)

    @settings
    @hypothesis.given(blocks, seeds)
    def check(blocks, seed):
        st = SegreStructure(IMAG, blocks)
        rnd = RandomSource(seed)
        x, y = _mixed_form(rnd, st), _mixed_form(rnd, st)
        dense = x.assemble()
        assert ToeplitzForm.extract(dense, st) == x
        assert (x * y).assemble() == dense * y.assemble()
        flip = block_backward_form(st)
        assert x.flip_transpose().assemble() == flip * dense.transpose() * flip
        # the same form reached by other routes compares and hashes equal
        total = ToeplitzForm.zero(st)
        for w in range(st.alphas[0]):
            total = total + _weight_component(x, w)
        for other in (ToeplitzForm(st, x.coeffs), ToeplitzForm.extract(dense, st),
                      (x + y) - y, x.scale(rat(2)) - x, -(-x),
                      x * ToeplitzForm.identity(st),
                      x.flip_transpose().flip_transpose(), total):
            assert other == x and hash(other) == hash(x)

    check()


def _in_strip(st, i, j):
    """True when dense entry (i, j) lies in the strip: the first cell-row
    of its group, at or after the first coefficient of its block."""
    def place(k):
        for r, (alpha, m) in enumerate(st.blocks):
            if k < st.group_offset(r) + alpha * m:
                return r, (k - st.group_offset(r)) // m
    (r, u), (s, v) = place(i), place(j)
    return u == 0 and v >= st.shift(r, s)


def test_extract_names_a_changed_entry():
    # off the strip, a changed dense entry is the first one extract reports;
    # in the strip it changes a coefficient, so the first violation, if
    # any, is in a later row.  The example changes the cell before the
    # first coefficient of block (1, 0), which extract must read as zero.
    hypothesis, blocks, settings = _property_tools()
    hs = hypothesis.strategies

    @settings
    @hypothesis.given(blocks, hs.integers(0, 2**32), hs.integers(0, 8),
                      hs.integers(0, 8))
    @hypothesis.example([(2, 1), (1, 1)], 0, 2, 0)
    def check(blocks, seed, i, j):
        st = SegreStructure(0, blocks)
        i, j = i % st.n, j % st.n
        changed = _bump(_mixed_form(RandomSource(seed), st).assemble(), i, j)
        if not _in_strip(st, i, j):
            with pytest.raises(ShapeViolationError) as info:
                ToeplitzForm.extract(changed, st)
            assert (info.value.row, info.value.col) == (i, j)
            return
        try:
            assert ToeplitzForm.extract(changed, st).assemble() == changed
        except ShapeViolationError as exc:
            assert exc.row > i

    check()


def test_computed_forms_skip_the_constructor(monkeypatch):
    st = SegreStructure(0, [(3, 1), (2, 2), (1, 1)])
    rnd = RandomSource(20240834)
    x, y = _random_form(rnd, st), _random_form(rnd, st)
    dense = x.assemble()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a computed form went through the constructor")

    monkeypatch.setattr(ToeplitzForm, "__init__", refuse)
    product, total, difference = x * y, x + y, x - y
    negated, doubled = -x, x.scale(rat(2))
    zero, flipped = ToeplitzForm.zero(st), x.flip_transpose()
    extracted = ToeplitzForm.extract(dense, st)
    monkeypatch.undo()
    assert product.assemble() == dense * y.assemble()
    assert total - y == x and difference + y == x
    assert negated + x == zero and doubled == x + x
    assert zero.is_zero and flipped.flip_transpose() == x and extracted == x


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

# Four- and five-group shapes of the benchmark's group ladder, and two of
# its shapes with multiplicities, where gen_W is not the identity.
_LADDER_SHAPES = (
    [(7, 1), (5, 1), (3, 1), (1, 1)],
    [(6, 1), (4, 1), (3, 1), (2, 1), (1, 1)],
    [(5, 2), (3, 1), (1, 3)],
    [(4, 2), (3, 2), (1, 2)],
)


def _assert_matches_dense(x, y):
    assert (x * y).assemble() == x.assemble() * y.assemble()


def test_mul_matches_dense_product():
    # the only check of the coefficient product against the dense one
    rnd = RandomSource(20240822)
    for _ in range(100):
        st = rnd.structure(max_n=9, max_parts=3)
        _assert_matches_dense(_random_form(rnd, st), _random_form(rnd, st))
    # sqrt2 parts and denominators that differ from coefficient to
    # coefficient, so each operand's common denominator is a real lcm
    for _ in range(40):
        st = rnd.structure(max_n=9, max_parts=3)
        _assert_matches_dense(
            _random_form(rnd, st, with_sqrt2=True, max_den=5),
            _random_form(rnd, st, with_sqrt2=True, max_den=5))
    for blocks in _LADDER_SHAPES:
        for lam in (ZERO, ONE, IMAG):
            st = SegreStructure(lam, blocks)
            _assert_matches_dense(_random_form(rnd, st), _random_form(rnd, st))
            skews = {(r, j): rnd.skew(m, max_num=2)
                     for r, (alpha, m) in enumerate(st.blocks)
                     for j in range(1, alpha)}
            w = gen_W(st, skews)
            g = gen_G(st, 0, 1, 1, rnd.matrix(st.mults[1], st.mults[0],
                                              max_num=2))
            _assert_matches_dense(w, g)
            _assert_matches_dense(g, w)
            data = constant_data(st)
            x = solve_congruence(data, random_free_params(data, rnd, max_num=2,
                                                          max_den=2))
            _assert_matches_dense(x.flip_transpose(), x)
            _assert_matches_dense(x, g)


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


def _with_zero_rows(rnd, st):
    # each strip row is zero, in every coefficient, with probability 1/2
    dead = {(r, a) for r, m in enumerate(st.mults) for a in range(m)
            if rnd.stream.below(2) == 0}
    return ToeplitzForm.from_sparse(st, {
        (r, s, j): ExactMatrix.from_rows([
            [ZERO if (r, a) in dead else rnd.scalar(max_num=2)
             for _ in range(st.mults[s])] for a in range(st.mults[r])])
        for r, s in _blocks(st) for j in range(st.depth(r, s))})


def test_products_and_flips_at_the_block_ends():
    # every partition with n <= 8: a nonzero moved right leaves its block at
    # the block's end, so the shift rule is checked where it truncates, on
    # sparse unipotent forms, forms with whole zero strip rows, and forms
    # with sqrt2 parts and dens up to 1e10
    rnd = RandomSource(20241102)
    for lam in (ZERO, ONE, IMAG):
        for n in range(1, 9):
            for st in enumerate_structures(n, lam=lam):
                forms = [_with_zero_rows(rnd, st), _random_form(
                    rnd, st, with_sqrt2=True, max_den=10 ** 10)]
                for _ in range(st.part_count - 1):
                    t = 1 + rnd.stream.below(st.part_count - 1)
                    p = rnd.stream.below(t)
                    forms.append(gen_G(st, p, t, rnd.stream.below(st.alphas[t]),
                                       rnd.matrix(st.mults[t], st.mults[p],
                                                  max_num=2)))
                flip = block_backward_form(st)
                for x in forms:
                    assert x.flip_transpose().assemble() == \
                        flip * x.assemble().transpose() * flip
                    for y in forms:
                        _assert_matches_dense(x, y)


# frozen strips: the sha256 of the strips a flip and a product write, on
# every partition with n <= 7, computed before the product read its right
# operand off the strip
_FLIP_AND_PRODUCT_DIGESTS = {
    "0": ("e7fdd1dee639d5cc63fe4c901dd28c9e0e9062a95abbed91d8a73e0abf756e96",
          "94f400c9ccf79b61521e7a69a0546c9f9de1b972ba95be5b42e26a1c1ca61b7d"),
    "1": ("36dfe94bca05c3affc79284d6c25a4b3bb3d4558ad4cbc96232e91eaba6a1c20",
          "b68eaf207effead71ee21d7f212ff42c01f0d2b6200011915551366e4416d08c"),
    "i": ("f3e14c3a510cbd5ddf08c785b78f97c76a6cb1786e8544639b0c6c8d5369a1f3",
          "95846593d679e2445ef9aae6ca21afaae1dcea2a10e28b2333ee32d7ad3f439f"),
}


def _flip_and_product_digests(lam):
    rnd = RandomSource(20241101 + sorted(_FLIP_AND_PRODUCT_DIGESTS).index(lam))
    flips, products = [], []
    for n in range(1, 8):
        for st in enumerate_structures(n, lam=parse_scalar(lam)):
            x, y = _mixed_form(rnd, st), _mixed_form(rnd, st)
            flips.append(x.flip_transpose())
            products.append(x * y)
    assert len(flips) == 44
    return oracle.strip_digest(flips), oracle.strip_digest(products)


@pytest.mark.parametrize("lam", sorted(_FLIP_AND_PRODUCT_DIGESTS))
def test_flip_and_product_strips_are_frozen(lam):
    assert _flip_and_product_digests(lam) == _FLIP_AND_PRODUCT_DIGESTS[lam]


# ---------------------------------------------------------------------------
# weights and nilpotency
# ---------------------------------------------------------------------------

def test_weights_add_under_products():
    rnd = RandomSource(20240826)
    for _ in range(80):
        st = rnd.structure(max_n=9, max_parts=3)
        x = _random_form(rnd, st)
        y = _random_form(rnd, st)
        wx, wy = _min_weight(x), _min_weight(y)
        wz = _min_weight(x * y)
        if wx is None or wy is None:
            assert wz is None
        elif wz is not None:
            assert wz >= wx + wy


def test_positive_weight_forms_are_nilpotent_within_largest_exponent():
    rnd = RandomSource(20240827)
    for _ in range(60):
        st = rnd.structure(max_n=9, max_parts=3)
        body = _random_form(rnd, st)
        heavy = body - _weight_component(body, 0)
        dense = heavy.assemble()
        assert _power(dense, st.alphas[0]).is_zero


def test_identity_diagonal_forms_nilpotent_within_dense_size():
    rnd = RandomSource(20240828)
    for _ in range(40):
        st = rnd.structure(max_n=8, max_parts=3)
        u = _random_identity_diagonal(rnd, st)
        nil = (u - ToeplitzForm.identity(st)).assemble()
        assert _power(nil, st.n).is_zero


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
    assert _min_weight(n_form) == 0 and _min_weight(square) == 1


# ---------------------------------------------------------------------------
# series inverse
# ---------------------------------------------------------------------------

def test_series_inverse_needs_terms_beyond_largest_exponent():
    """The alternating series must run to the true nilpotency index: with
    groups (2,1),(1,1) and both coupling cells set, (U - I)^2 != 0 even
    though the largest exponent is 2, and the inverse needs the square
    term."""
    st = SegreStructure(0, [(2, 1), (1, 1)])

    def cell(v):
        return ExactMatrix.build(1, 1, lambda i, j: rat(v))

    nil = ToeplitzForm.from_sparse(st, {
        (0, 0, 1): cell(1), (0, 1, 0): cell(2), (1, 0, 0): cell(3),
    })
    u = ToeplitzForm.identity(st) + nil
    n_dense = nil.assemble()
    assert not _power(n_dense, 2).is_zero
    assert _power(n_dense, 3).is_zero

    inv = ToeplitzForm.identity(st) - nil + nil * nil
    eye = identity(st.n)
    assert inv.assemble() == eye - n_dense + _power(n_dense, 2)
    assert (u * inv).is_identity and (inv * u).is_identity
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
