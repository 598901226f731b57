"""Generator family tests: coefficients, couplings, factorization."""

import hashlib

import pytest

import _oracles as oracle

from isotropy.errors import MembershipError, ParameterError
from isotropy.forms import SegreStructure, enumerate_structures
from isotropy.generators import (
    GeneratorSpec,
    catalan_coeff,
    catalan_series,
    factor_unipotent,
    gen_G,
    gen_V,
    gen_W,
    gen_two_block,
    generator_from_spec,
)
from isotropy.matrices import ExactMatrix, identity, zeros
from isotropy.rng import RandomSource
from isotropy.scalars import ExactScalar, HALF, IMAG, ZERO, parse_scalar, rat
from isotropy import solver
from isotropy.solver import constant_data, verify_congruence
from isotropy.toeplitz import ToeplitzForm


def _st(blocks):
    return SegreStructure(IMAG, blocks)


def _zero_skews(structure):
    out = {}
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            out[(r, j)] = zeros(m, m)
    return out


def _diagonal_skews(structure, v, b_diag):
    """The skew parameters of a block-diagonal member, the inverse of gen_V:
    Z_n = B_r V_n - (B_r V_n)^T."""
    out = {}
    for r, (alpha, _) in enumerate(structure.blocks):
        for j in range(1, alpha):
            prod = b_diag[r] * v.coefficient(r, r, j)
            out[(r, j)] = prod - prod.transpose()
    return out


def _random_skews(structure, rnd, **kw):
    out = {}
    for r, (alpha, m) in enumerate(structure.blocks):
        for j in range(1, alpha):
            out[(r, j)] = rnd.skew(m, **kw)
    return out


# ---------------------------------------------------------------------------
# coefficient sequence
# ---------------------------------------------------------------------------


def test_catalan_first_values():
    assert catalan_coeff(0) == ExactScalar(rat(-1, 2))
    assert catalan_coeff(1) == ExactScalar(rat(-1, 8))
    assert catalan_coeff(2) == ExactScalar(rat(-1, 16))


def test_catalan_closed_form_matches_recursion():
    series = catalan_series(21)
    for n in range(21):
        assert catalan_coeff(n) == series[n]


def test_catalan_generating_function_identity():
    # coefficient of t^n in -1/2 t f(t)^2 - 1/2 equals a_n through order 20
    a = catalan_series(21)
    for n in range(21):
        if n == 0:
            rhs = ExactScalar(rat(-1, 2))
        else:
            square = ExactScalar(0)
            for j in range(n):
                square = square + a[j] * a[n - 1 - j]
            rhs = -(HALF * square)
        assert a[n] == rhs


def test_catalan_rejects_negative_index():
    with pytest.raises(ParameterError):
        catalan_coeff(-1)


# ---------------------------------------------------------------------------
# diagonal family
# ---------------------------------------------------------------------------


def test_gen_w_zero_skews_is_identity():
    st = _st([(3, 2), (2, 1)])
    assert gen_W(st, _zero_skews(st)).is_identity


def test_gen_w_two_offsets_frozen():
    st = _st([(2, 2)])
    z = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    w = gen_W(st, {(0, 1): z})
    assert w.coefficient(0, 0, 1) == z.scale(HALF)
    expected = ExactMatrix.from_rows([
        [1, 0, 0, rat(1, 2)],
        [0, 1, rat(-1, 2), 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])
    assert w.assemble() == expected


def test_gen_w_second_coefficient_recursion():
    st = _st([(3, 2)])
    rnd = RandomSource(20240841)
    z1, z2 = rnd.skew(2), rnd.skew(2)
    w = gen_W(st, {(0, 1): z1, (0, 2): z2})
    w1 = z1.scale(HALF)
    assert w.coefficient(0, 0, 1) == w1
    assert w.coefficient(0, 0, 2) == (z2 - w1.transpose() * w1).scale(HALF)


def test_gen_v_identity_blocks_reduce_to_gen_w():
    st = _st([(3, 2), (2, 3)])
    rnd = RandomSource(20240842)
    skews = _random_skews(st, rnd)
    assert gen_V(st, None, skews) == gen_W(st, skews)
    assert gen_V(st, [identity(2), identity(3)], skews) == gen_W(st, skews)


def test_gen_v_scalar_block_trivial():
    st = _st([(2, 1)])
    v = gen_V(st, [ExactMatrix.from_rows([[2]])], {(0, 1): zeros(1, 1)})
    assert v.is_identity


def test_gen_v_satisfies_congruence_for_random_blocks():
    rnd = RandomSource(20240843)
    st = _st([(3, 2), (2, 1)])
    for _ in range(5):
        b_diag = [rnd.symmetric_nonsingular(2), rnd.symmetric_nonsingular(1)]
        v = gen_V(st, b_diag, _random_skews(st, rnd))
        ok, report = verify_congruence(constant_data(st, b_diag), v)
        assert ok, report


def test_gen_v_matches_the_paper_recursion():
    # group r: V_0 = I, V_n = 1/2 B_r^{-1} (Z_n - sum_{j=1}^{n-1} V_j^T B_r V_{n-j})
    rnd = RandomSource(20240844)
    st = _st([(4, 2), (2, 1)])
    b_diag = [rnd.symmetric_nonsingular(2), rnd.symmetric_nonsingular(1)]
    skews = _random_skews(st, rnd)
    entries = {}
    for r, (alpha, m) in enumerate(st.blocks):
        b = b_diag[r]
        coeffs = [identity(m)]
        for n in range(1, alpha):
            acc = skews[(r, n)]
            for j in range(1, n):
                acc = acc - coeffs[j].transpose() * b * coeffs[n - j]
            coeffs.append((b.inverse() * acc).scale(HALF))
        entries.update({(r, r, j): mat for j, mat in enumerate(coeffs)})
    assert gen_V(st, b_diag, skews) == ToeplitzForm.from_sparse(st, entries)


def test_diagonal_skew_recovery_round_trip():
    rnd = RandomSource(20240845)
    st = _st([(4, 2), (3, 3)])
    b_diag = [rnd.symmetric_nonsingular(2), rnd.symmetric_nonsingular(3)]
    skews = _random_skews(st, rnd)
    v = gen_V(st, b_diag, skews)
    assert _diagonal_skews(st, v, b_diag) == skews


def test_gen_w_validates_skews():
    st = _st([(2, 2)])
    with pytest.raises(ParameterError):
        gen_W(st, {})
    with pytest.raises(ParameterError):
        gen_W(st, {(0, 1): ExactMatrix.from_rows([[0, 1], [1, 0]])})


# ---------------------------------------------------------------------------
# coupling family
# ---------------------------------------------------------------------------


def test_two_block_zero_coupling_is_identity_pair():
    d, dinv = gen_two_block(3, 1, 0, zeros(2, 1), identity(1), identity(2))
    assert d == identity(5)
    assert dinv == identity(5)


def test_two_block_top_left_correction():
    f = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    d, dinv = gen_two_block(4, 2, 0, f, identity(2), identity(3))
    st = SegreStructure(0, [(4, 2), (2, 3)])
    form = ToeplitzForm.extract(d, st)
    assert form.coefficient(0, 0, 2) == (f.transpose() * f).scale(-HALF)
    assert form.coefficient(0, 1, 0) == -f.transpose()
    assert form.coefficient(1, 0, 0) == f
    assert dinv * d == identity(14)


def test_two_block_random_residuals():
    rnd = RandomSource(20240846)
    cases = 0
    for alpha in range(2, 8):
        for beta in range(1, alpha):
            for k in range(beta):
                m1, m2 = 1 + cases % 2, 1 + (cases + 1) % 2
                b = rnd.symmetric_nonsingular(m1)
                c = rnd.symmetric_nonsingular(m2)
                f = rnd.matrix(m2, m1)
                d, dinv = gen_two_block(alpha, beta, k, f, b, c)
                st = SegreStructure(0, [(alpha, m1), (beta, m2)])
                form = ToeplitzForm.extract(d, st)
                ok, report = verify_congruence(constant_data(st, [b, c]), form)
                assert ok, report
                assert d * dinv == identity(d.rows)
                cases += 1
    assert cases >= 50


def test_two_block_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        gen_two_block(2, 2, 0, zeros(1, 1), identity(1), identity(1))
    with pytest.raises(ParameterError):
        gen_two_block(3, 2, 2, zeros(1, 1), identity(1), identity(1))
    with pytest.raises(ParameterError):
        gen_two_block(3, 2, 0, zeros(1, 2), identity(1), identity(1))


def _place(grid, mat, row0, col0):
    for i in range(mat.rows):
        for j in range(mat.cols):
            grid[row0 + i][col0 + j] = mat[i, j]


def test_gen_g_reproduces_worked_pattern():
    st = _st([(4, 2), (2, 3), (1, 1)])
    f = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    g = gen_G(st, 0, 1, 0, f)
    grid = [[ZERO] * 15 for _ in range(15)]
    eye2, eye3 = identity(2), identity(3)
    corr = (f.transpose() * f).scale(-HALF)
    for cell in range(4):
        _place(grid, eye2, 2 * cell, 2 * cell)
    _place(grid, corr, 0, 4)
    _place(grid, corr, 2, 6)
    _place(grid, -f.transpose(), 0, 8)
    _place(grid, -f.transpose(), 2, 11)
    _place(grid, eye3, 8, 8)
    _place(grid, eye3, 11, 11)
    _place(grid, f, 8, 4)
    _place(grid, f, 11, 6)
    grid[14][14] = ExactScalar(1)
    assert g.assemble() == ExactMatrix.from_rows(grid)


def test_gen_g_zero_coupling_identity_and_inverse():
    st = _st([(4, 2), (2, 3), (1, 1)])
    assert gen_G(st, 0, 1, 1, zeros(3, 2)).is_identity
    rnd = RandomSource(20240847)
    f = rnd.matrix(3, 2)
    assert (gen_G(st, 0, 1, 0, f) * gen_G(st, 0, 1, 0, -f)).is_identity


def test_gen_g_random_structures_residuals():
    rnd = RandomSource(20240848)
    shapes = [
        [(3, 1), (2, 2), (1, 3)],
        [(5, 2), (3, 1), (1, 1)],
        [(4, 1), (2, 1)],
        [(6, 1), (2, 2)],
    ]
    for blocks in shapes:
        st = _st(blocks)
        b_diag = [rnd.symmetric_nonsingular(m) for m in st.mults]
        data = constant_data(st, b_diag)
        for p in range(st.part_count - 1):
            for t in range(p + 1, st.part_count):
                for k in range(st.alphas[t]):
                    f = rnd.matrix(st.mults[t], st.mults[p])
                    g = gen_G(st, p, t, k, f, b_diag)
                    ok, report = verify_congruence(data, g)
                    assert ok, report


def test_gen_g_is_the_sweep_at_its_one_sub_block():
    # the closed form (Catalan corrections) against the general solution
    # with the coupling as its only nonzero free parameter, identity seeds
    # and zero skews, with and without diagonal data; the first
    # multiplicity is raised so that couplings are not all 1 x 1
    rnd = RandomSource(20241025)
    cases = 0
    for n in range(1, 9):
        for st in enumerate_structures(n, lam=IMAG):
            st = _st([(alpha, m + (r == 0))
                      for r, (alpha, m) in enumerate(st.blocks)])
            for b_diag in (None, [rnd.symmetric_nonsingular(m) for m in st.mults]):
                data = constant_data(st, b_diag)
                for p in range(st.part_count):
                    for t in range(p + 1, st.part_count):
                        for k in range(st.alphas[t]):
                            f = rnd.matrix(st.mults[t], st.mults[p])
                            zero = solver.FreeParams.zero(st)
                            params = solver.FreeParams(
                                {**zero.sub_blocks, (t, p, k): f},
                                zero.diag_seeds, zero.skews)
                            assert gen_G(st, p, t, k, f, b_diag) == \
                                solver.solve_congruence(data, params)
                            cases += 1
    assert cases == 164


def test_gen_g_rejects_bad_indices():
    st = _st([(3, 1), (2, 2), (1, 3)])
    with pytest.raises(ParameterError):
        gen_G(st, 1, 1, 0, zeros(2, 2))
    with pytest.raises(ParameterError):
        gen_G(st, 1, 0, 0, zeros(1, 2))
    with pytest.raises(ParameterError):
        gen_G(st, 0, 1, 2, zeros(2, 1))
    with pytest.raises(ParameterError):
        gen_G(st, 0, 1, 0, zeros(1, 2))


# ---------------------------------------------------------------------------
# nilpotency facts
# ---------------------------------------------------------------------------


def _min_weight(x):
    """Smallest weight j + shift(r, s) of a nonzero coefficient (r, s, j);
    None if x is zero."""
    st = x.structure
    return min((j + oracle.shift(st, r, s) for (r, s), cells in x.coeffs.items()
                for j, c in enumerate(cells) if not c.is_zero), default=None)


def _power_vanishes(form, exponent):
    st = form.structure
    nil = form - ToeplitzForm.identity(st)
    acc = ToeplitzForm.identity(st)
    for _ in range(exponent):
        acc = acc * nil
        if acc.is_zero:
            return True
    return acc.is_zero


def test_diagonal_generators_nilpotent_within_alpha1():
    rnd = RandomSource(20240849)
    for blocks in ([(3, 2)], [(4, 1), (2, 2)], [(5, 1), (3, 1), (1, 2)]):
        st = _st(blocks)
        w = gen_W(st, _random_skews(st, rnd))
        assert _power_vanishes(w, st.alphas[0])


def test_coupling_generators_with_positive_offset_nilpotent_within_alpha1():
    rnd = RandomSource(20240850)
    st = _st([(4, 1), (3, 2)])
    for k in (1, 2):
        g = gen_G(st, 0, 1, k, rnd.matrix(2, 1))
        assert _min_weight(g - ToeplitzForm.identity(st)) >= 1
        assert _power_vanishes(g, st.alphas[0])


def test_zero_offset_coupling_can_exceed_alpha1_bound():
    # alpha_1 = 2 but the nilpotency index is 3 = n for this coupling
    st = _st([(2, 1), (1, 1)])
    g = gen_G(st, 0, 1, 0, ExactMatrix.from_rows([[1]]))
    nil = g - ToeplitzForm.identity(st)
    assert not (nil * nil).is_zero
    assert _power_vanishes(g, st.n)


def test_all_generators_nilpotent_within_n():
    rnd = RandomSource(20240851)
    st = _st([(3, 2), (2, 1), (1, 1)])
    forms = [gen_W(st, _random_skews(st, rnd))]
    for (p, t, k) in ((0, 1, 0), (0, 2, 0), (1, 2, 0), (0, 1, 1)):
        forms.append(gen_G(st, p, t, k, rnd.matrix(st.mults[t], st.mults[p])))
    for form in forms:
        assert _power_vanishes(form, st.n)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factor_block_diagonal_input_trivial():
    rnd = RandomSource(20240852)
    st = _st([(3, 2), (2, 1)])
    y = gen_W(st, _random_skews(st, rnd))
    v, specs = factor_unipotent(st, y)
    assert specs == []
    assert v == y


def test_factor_single_coupling_round_trip():
    st = _st([(4, 2), (2, 3), (1, 1)])
    f = ExactMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    y = gen_G(st, 0, 1, 0, f)
    v, specs = factor_unipotent(st, y)
    assert v.is_identity
    rebuilt = v
    for spec in specs:
        rebuilt = rebuilt * generator_from_spec(st, spec)
    assert rebuilt == y


def test_factor_products_round_trip():
    rnd = RandomSource(20240853)
    st = _st([(4, 2), (2, 3), (1, 1)])
    for _ in range(6):
        y = gen_W(st, _random_skews(st, rnd, max_num=2, max_den=2))
        for (p, t) in ((0, 1), (0, 2), (1, 2)):
            k = rnd.stream.below(st.alphas[t])
            f = rnd.matrix(st.mults[t], st.mults[p], max_num=2, max_den=2)
            y = y * gen_G(st, p, t, k, f)
        v, specs = factor_unipotent(st, y)
        rebuilt = v
        for spec in specs:
            rebuilt = rebuilt * generator_from_spec(st, spec)
        assert rebuilt == y
        assert v.has_identity_diagonal
        for r in range(st.part_count):
            for s in range(st.part_count):
                if r != s:
                    for j in range(st.depth(r, s)):
                        assert v.coefficient(r, s, j).is_zero


def test_factor_core_is_gen_v_shaped():
    rnd = RandomSource(20240854)
    st = _st([(3, 1), (2, 2)])
    b_diag = [rnd.symmetric_nonsingular(1), rnd.symmetric_nonsingular(2)]
    y = gen_V(st, b_diag, _random_skews(st, rnd))
    y = y * gen_G(st, 0, 1, 0, rnd.matrix(2, 1), b_diag)
    v, specs = factor_unipotent(st, y, b_diag)
    assert gen_V(st, b_diag, _diagonal_skews(st, v, b_diag)) == v
    rebuilt = v
    for spec in specs:
        rebuilt = rebuilt * generator_from_spec(st, spec, b_diag)
    assert rebuilt == y


# frozen strips: the sha256 of every coupling generator and of the
# factorization of a product of gen_W and two gen_G, on every partition with
# n <= 7, computed before the coupling cells skipped their products by I
_COUPLING_DIGESTS = {
    "0": ("319bd51c976e4440cf60fadf1fb5d4bc56de2e598c36212e36f27272c0ce6469",
          "473fd0d5dc8c5f88974163863d5a55167e7b85807b1c2bf51c9a8d12b88ec8fc",
          "a3d6f0603fa837f1f734d71d33bb6c5805bab1c0a2273fb31a04dde6e81c19b8"),
    "1": ("f6c1ae521fa9e3ed3d4366eee8940d888b28782b0ed86b710aa44b8f0f33af96",
          "8a244c7506a63a97ba1ef304525ea1e1661e0adf0386c84d08b05c3c04127582",
          "c70543e8e7f20f25f5b609085c351277760e0c733cd84a76ffb3696eb3a4dfba"),
    "i": ("8f7fdbc6b489b9f4b708a23a25644174b3b8b300690db3667e3f4ca2becac191",
          "e09077ec92e21fafbaf4c598f27f20ebbd064f9daac5aa78c849bea636d4334e",
          "741178ac14a4175665aad1607fae87a70be1f714864579987a3d8bceeda3fe41"),
}


def _specs_digest(spec_lists):
    return hashlib.sha256(repr([
        [(s.p, s.t, s.k, s.coupling._den, s.coupling._g) for s in specs]
        for specs in spec_lists]).encode()).hexdigest()


def _coupling_digests(lam):
    rnd = RandomSource(20241111 + sorted(_COUPLING_DIGESTS).index(lam))

    def coupling(st, p, t):
        return rnd.matrix(st.mults[t], st.mults[p], with_sqrt2=True,
                          max_num=2, max_den=3)

    gens, cores, spec_lists = [], [], []
    for n in range(1, 8):
        for st in enumerate_structures(n, lam=parse_scalar(lam)):
            count = st.part_count
            for p in range(count):
                for t in range(p + 1, count):
                    for k in range(st.alphas[t]):
                        gens.append(gen_G(st, p, t, k, coupling(st, p, t)))
            if count < 2:
                continue
            y = gen_W(st, _random_skews(st, rnd, max_num=2, max_den=2))
            for _ in range(2):
                p = rnd.stream.below(count - 1)
                t = p + 1 + rnd.stream.below(count - 1 - p)
                k = rnd.stream.below(st.alphas[t])
                y = y * gen_G(st, p, t, k, coupling(st, p, t))
            core, specs = factor_unipotent(st, y)
            cores.append(core)
            spec_lists.append(specs)
    assert (len(gens), len(cores)) == (43, 28)
    return (oracle.strip_digest(gens), oracle.strip_digest(cores),
            _specs_digest(spec_lists))


@pytest.mark.parametrize("lam", sorted(_COUPLING_DIGESTS))
def test_coupling_and_factor_strips_are_frozen(lam):
    assert _coupling_digests(lam) == _COUPLING_DIGESTS[lam]



# frozen outputs with diagonal blocks B_r != I, computed before the
# coefficient layer moved onto integer pairs: gen_V's strips, the coupling
# generators' strips, the factorization of their products (core strips and
# specs) and gen_two_block's dense pairs, with sqrt2 parts and dens up to 3
_DIAGONAL_BLOCK_DIGESTS = (
    "40461182a1dfbfa88de5d4fb347b28763ff353f8979fc975a4275933bfa405f8",
    "92911c59611377c06da256bd5fb16f3ebcc271704bef5af82db7c7c68d5b6c1e",
    "cedc63b4aaaa8b962a67277309ae115dd5fd1fee4dc3d78e37d8177d5c91bd33",
    "b3dcb7595d56f302442b065665440a78f42cfcd8b1b1e13d4fd49e65b94a8fd7",
    "1d464560d1231d0a5cf8bdba1dba1fa33bd09f419efe291c64a7b68850127891",
)


def _dense_digest(mats):
    return hashlib.sha256(repr([(m._den, m._g) for m in mats]).encode()
                          ).hexdigest()


def _diagonal_block_digests():
    rnd = RandomSource(20261101)
    kw = {"with_sqrt2": True, "max_num": 2, "max_den": 3}
    vs, gens, cores, spec_lists = [], [], [], []
    for blocks in ([(4, 2), (2, 3), (1, 1)], [(3, 1), (2, 2)],
                   [(5, 1), (3, 2), (2, 1)], [(4, 1), (3, 1), (1, 2)]):
        st = _st(blocks)
        b_diag = [rnd.symmetric_nonsingular(m, **kw) for m in st.mults]
        y = gen_V(st, b_diag, _random_skews(st, rnd, **kw))
        vs.append(y)
        for p in range(st.part_count):
            for t in range(p + 1, st.part_count):
                for k in range(st.alphas[t]):
                    g = gen_G(st, p, t, k,
                              rnd.matrix(st.mults[t], st.mults[p], **kw),
                              b_diag)
                    gens.append(g)
                    if k == 0:
                        y = y * g
        core, specs = factor_unipotent(st, y, b_diag)
        cores.append(core)
        spec_lists.append(specs)
    pairs = []
    for alpha, beta, k, m1, m2 in ((3, 1, 0, 2, 1), (4, 2, 1, 1, 2),
                                   (5, 2, 0, 2, 2), (6, 3, 2, 1, 1),
                                   (4, 3, 0, 2, 1)):
        b = rnd.symmetric_nonsingular(m1, **kw)
        c = rnd.symmetric_nonsingular(m2, **kw)
        pairs += gen_two_block(alpha, beta, k, rnd.matrix(m2, m1, **kw), b, c)
    return (oracle.strip_digest(vs), oracle.strip_digest(gens),
            oracle.strip_digest(cores), _specs_digest(spec_lists),
            _dense_digest(pairs))


def test_outputs_with_diagonal_blocks_are_frozen():
    assert _diagonal_block_digests() == _DIAGONAL_BLOCK_DIGESTS

def test_factor_rejects_non_members():
    st = _st([(2, 1), (1, 1)])
    bad = ToeplitzForm.identity(st) + ToeplitzForm.from_sparse(
        st, {(0, 0, 0): ExactMatrix.from_rows([[1]])})
    with pytest.raises(MembershipError):
        factor_unipotent(st, bad)
    tilted = ToeplitzForm.identity(st) + ToeplitzForm.from_sparse(
        st, {(0, 1, 0): ExactMatrix.from_rows([[1]])})
    with pytest.raises(MembershipError):
        factor_unipotent(st, tilted)


def _rank_calls_of_factoring(monkeypatch, st, y, b_diag):
    calls = []
    rank = ExactMatrix.rank

    def counted(self):
        calls.append(self)
        return rank(self)

    solver._constant_data.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(ExactMatrix, "rank", counted)
        _, specs = factor_unipotent(st, y, b_diag)
    return len(calls), len(specs)


def test_b_diag_is_checked_once_per_distinct_data(monkeypatch):
    rnd = RandomSource(20240856)
    st = _st([(3, 1), (2, 2), (1, 1)])
    b_diag = [rnd.symmetric_nonsingular(m) for m in st.mults]
    assert constant_data(st, tuple(b_diag)) is constant_data(st, list(b_diag))
    one = gen_G(st, 0, 1, 0, rnd.matrix(2, 1), b_diag)
    four = one
    for p, t, k in ((0, 2, 0), (1, 2, 0), (0, 1, 1)):
        four = four * gen_G(st, p, t, k, rnd.matrix(st.mults[t], st.mults[p]),
                            b_diag)
    ranks_one, peels_one = _rank_calls_of_factoring(monkeypatch, st, one, b_diag)
    ranks_four, peels_four = _rank_calls_of_factoring(
        monkeypatch, st, four, b_diag)
    assert (peels_one, peels_four) == (1, 4)
    assert ranks_four == ranks_one <= 2 * st.part_count


@pytest.mark.parametrize("b_diag, message", [
    ([identity(2)], "need 2 diagonal blocks, got 1"),
    ([identity(2), identity(2)], "diagonal block 1 must be 1x1"),
    ([ExactMatrix.from_rows([[1, 1], [0, 1]]), identity(1)],
     "diagonal block 0 is not symmetric"),
    ([ExactMatrix.from_rows([[1, 1], [1, 1]]), identity(1)],
     "diagonal block 0 is singular"),
])
def test_b_diag_errors_are_pinned(b_diag, message):
    st = _st([(2, 2), (1, 1)])
    calls = [
        lambda: gen_V(st, b_diag, _zero_skews(st)),
        lambda: gen_G(st, 0, 1, 0, zeros(1, 2), b_diag),
        lambda: constant_data(st, b_diag),
        lambda: factor_unipotent(st, ToeplitzForm.identity(st), b_diag),
    ]
    for call in calls:
        with pytest.raises(ParameterError) as caught:
            call()
        assert str(caught.value) == message


def test_generator_spec_validation_and_dispatch():
    st = _st([(2, 2)])
    with pytest.raises(ParameterError):
        GeneratorSpec("diagonal_W")
    with pytest.raises(ParameterError):
        GeneratorSpec("two_block_G", p=0, t=1, k=0)
    with pytest.raises(ParameterError):
        GeneratorSpec("other")
    z = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    spec = GeneratorSpec("diagonal_W", skews={(0, 1): z})
    assert generator_from_spec(st, spec) == gen_W(st, {(0, 1): z})
