"""Every element a public function returns is checked exactly once: the
dense membership test and the form congruence are counted around
sampling and factorization.  Inputs are checked once too: the ranks
constant_data takes are counted, and gen_W makes its zero parameters once
per structure.  The sweep's plan, the strip's placement
table and the flip's index map are built once per block shape, the flip
map only by a flip or a dense check, and the dense check's index tables
once per structure; a successful dense check builds no S and no n x n
product, a form product and a form check build no dense matrix, and the
commutant builder writes its dense matrix in one pass.  The tangent oracle ranks
each distinct pair of block groups once, and the orbit check reads the
structure's blocks without building S.  Sampling, the generators, form
products and factoring stay on integer grids: they make no Catalan scalar,
scaled matrix or coefficient matrix only to test it for zero."""

import pytest

from isotropy import (forms, generators, matrices, orbit, solver,
                      stabilizer, toeplitz)
from isotropy.errors import IntegrityError
from isotropy.forms import MultiSegreStructure, SegreStructure
from isotropy.matrices import ExactMatrix, direct_sum
from isotropy.rng import RandomSource
from isotropy.scalars import IMAG
from isotropy.solver import FreeParams, constant_data, solve_congruence
from isotropy.toeplitz import ToeplitzForm, commutant_basis


@pytest.fixture
def checks(monkeypatch):
    """Counts of dense (verify_isotropy) and form (verify_congruence)
    membership checks made while the test runs."""
    counts = {"dense": 0, "form": 0}

    def counting(fn, kind):
        def counted(*args):
            counts[kind] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(stabilizer, "verify_isotropy",
                        counting(stabilizer.verify_isotropy, "dense"))
    monkeypatch.setattr(solver, "verify_congruence",
                        counting(solver.verify_congruence, "form"))
    return counts


_SINGLE = SegreStructure(IMAG, [(3, 1), (2, 2), (1, 1)])
_MULTI = MultiSegreStructure([SegreStructure(0, [(3, 1), (1, 1)]),
                              SegreStructure(1, [(2, 2)])])


@pytest.mark.parametrize("st", [_SINGLE, _MULTI], ids=["single", "multi"])
def test_a_sample_is_checked_once_densely(checks, st):
    q = stabilizer.sample_isotropy_element(st, rnd=RandomSource(20241016))
    assert checks == {"dense": 1, "form": 0}
    assert stabilizer.verify_isotropy(st, q)[0]


def _identity_diagonal_member(st, rnd):
    """A verified member with identity seeds, zero skews and random
    sub-blocks, so that factoring it peels several couplings."""
    zero = FreeParams.zero(st)
    sub = {key: rnd.matrix(mat.rows, mat.cols)
           for key, mat in zero.sub_blocks.items()}
    return solve_congruence(constant_data(st),
                            FreeParams(sub, zero.diag_seeds, zero.skews))


def test_factoring_a_member_checks_only_the_core(checks):
    rnd = RandomSource(20241017)
    st = SegreStructure(0, [(3, 1), (2, 1), (1, 1)])
    one = generators.gen_G(st, 0, 1, 0, rnd.matrix(1, 1))
    many = _identity_diagonal_member(st, rnd)
    for y, peels in ((one, 1), (many, 4)):
        checks["form"] = 0
        core, specs = generators.factor_unipotent(st, y)
        assert len(specs) == peels
        assert checks == {"dense": 0, "form": 1}


def test_a_corrupted_peel_fails_the_core_check(monkeypatch):
    rnd = RandomSource(20241018)
    st = SegreStructure(0, [(3, 1), (2, 1), (1, 1)])
    y = _identity_diagonal_member(st, rnd)
    built = generators._coupling_form

    def corrupted(data, p, t, k, coupling):
        form = built(data, p, t, k, coupling)
        # coefficient (0, 0, 2) set to 1
        one = ExactMatrix.from_rows([[1]])
        return form + ToeplitzForm.from_sparse(
            form.structure, {(0, 0, 2): one - form.coefficient(0, 0, 2)})

    monkeypatch.setattr(generators, "_coupling_form", corrupted)
    with pytest.raises(IntegrityError,
                       match=r"^factorization core failed the congruence: "):
        generators.factor_unipotent(st, y)


def test_the_coefficient_layer_makes_no_scalar_or_cell_matrix(monkeypatch):
    # sampling, the generators, form products and inverses and factoring
    # work on integer grids: no Catalan scalar, no scaled matrix and no
    # coefficient read off a form as a matrix for a zero test
    def refuse(*args, **kwargs):
        raise AssertionError("the coefficient layer left its integer grids")

    monkeypatch.setattr(generators, "catalan_coeff", refuse)
    monkeypatch.setattr(ExactMatrix, "scale", refuse)
    monkeypatch.setattr(ToeplitzForm, "coeffs", property(refuse))
    monkeypatch.setattr(ToeplitzForm, "coefficient", refuse)
    rnd = RandomSource(20261104)
    for st in (_SINGLE, _MULTI):
        stabilizer.sample_isotropy_element(st, rnd=rnd)
    st = SegreStructure(IMAG, [(5, 1), (2, 2), (1, 1)])
    w = generators.gen_W(st, {(0, j): rnd.skew(1) for j in range(1, 5)}
                         | {(1, 1): rnd.skew(2)})
    gens = [generators.gen_G(st, p, t, k, rnd.matrix(st.mults[t],
                                                     st.mults[p]))
            for p, t, k in ((0, 1, 0), (0, 2, 0), (1, 2, 0))]
    u = stabilizer.group_element_mul(st, [w] + gens)
    stabilizer.group_element_inv(st, u)
    core, specs = generators.factor_unipotent(st, u)
    assert len(specs) >= 3 and core.has_identity_diagonal


def test_constant_data_ranks_each_leading_block_once(monkeypatch):
    ranked = []
    rank = ExactMatrix.rank

    def counted(self):
        ranked.append(self)
        return rank(self)

    monkeypatch.setattr(ExactMatrix, "rank", counted)
    st = SegreStructure(0, [(3, 2), (2, 1), (1, 1)])
    b_diag = [ExactMatrix.from_rows([[1, 2], [2, 1]]),
              ExactMatrix.from_rows([[3]]), ExactMatrix.from_rows([[5]])]
    solver._constant_data.cache_clear()
    solver.constant_data(st, b_diag)
    assert ranked == b_diag
    ranked.clear()
    solver.constant_data(st)  # identity blocks are not ranked
    assert ranked == []


def test_gen_w_checks_each_skew_once(monkeypatch):
    checked = []
    is_skew = ExactMatrix.is_skew

    def counted(self):
        checked.append(self)
        return is_skew.fget(self)

    monkeypatch.setattr(ExactMatrix, "is_skew", property(counted))
    st = SegreStructure(0, [(4, 2), (2, 3), (1, 1)])
    rnd = RandomSource(20241019)
    skews = {(0, 1): rnd.skew(2), (0, 2): rnd.skew(2), (0, 3): rnd.skew(2),
             (1, 1): rnd.skew(3)}
    checked.clear()
    generators.gen_W(st, skews)
    # the 4 given skews, each checked once, and nothing else
    assert len(checked) == 4
    assert sorted(map(id, checked)) == sorted(map(id, skews.values()))


def test_the_sweep_is_planned_once_per_block_shape():
    # two samples and a gen_W on one shape, at eigenvalues 0 and i: the
    # plan depends on the blocks alone, so it is built once and reused
    blocks = [(4, 1), (2, 2), (1, 1)]
    rnd = RandomSource(20241020)
    solver._plan.cache_clear()
    for lam in (0, IMAG):
        st = SegreStructure(lam, blocks)
        for _ in range(2):
            stabilizer.sample_isotropy_element(st, rnd=rnd)
        generators.gen_W(st, {(0, 1): rnd.skew(1), (0, 2): rnd.skew(1),
                              (0, 3): rnd.skew(1), (1, 1): rnd.skew(2)})
    info = solver._plan.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_form_products_and_checks_build_no_dense_matrix(monkeypatch):
    # the product reads its right operand off the strip, and the check is a
    # flip and a product: neither assembles a form
    walks = []
    assemble = ToeplitzForm.assemble
    monkeypatch.setattr(ToeplitzForm, "assemble",
                        lambda self: walks.append("assemble") or assemble(self))
    rnd = RandomSource(20241021)
    st = SegreStructure(IMAG, [(4, 2), (2, 1), (1, 2)])
    x = generators.gen_G(st, 0, 1, 1, rnd.matrix(1, 2))
    y = generators.gen_W(st, {(0, 1): rnd.skew(2), (0, 2): rnd.skew(2),
                              (0, 3): rnd.skew(2), (1, 1): rnd.skew(1)})
    walks.clear()
    product = x * y
    assert solver.verify_congruence(constant_data(st), product) == (True, "")
    assert walks == []


def test_the_check_tables_are_made_once_per_structure():
    # two samples, a dense product and an inverse: four dense checks on one
    # structure read one set of index tables
    stabilizer._check_tables.cache_clear()
    st = _MULTI
    rnd = RandomSource(20241022)
    q1, q2 = (stabilizer.sample_isotropy_element(st, rnd=rnd) for _ in range(2))
    stabilizer.group_element_inv(st, stabilizer.group_element_mul(st, [q1, q2]))
    info = stabilizer._check_tables.cache_info()
    assert (info.misses, info.hits) == (1, 3)


@pytest.mark.parametrize("st", [_SINGLE, _MULTI], ids=["single", "multi"])
def test_a_successful_check_builds_no_s_and_no_square_product(
        monkeypatch, st):
    # the check reads Q's transition image: its one product is the flip's
    # strip, one row per block copy, times that image
    q = stabilizer.sample_isotropy_element(st, rnd=RandomSource(20261022))

    def refuse(*args, **kwargs):
        raise AssertionError("a successful check left Toeplitz coordinates")

    left_rows = []
    grid_mul = stabilizer._grid_mul
    monkeypatch.setattr(forms, "_symmetric_form", refuse)
    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    monkeypatch.setattr(stabilizer, "_grid_mul", lambda x, *args: left_rows.append(
        len(x)) or grid_mul(x, *args))
    assert stabilizer.verify_isotropy(st, q)[0]
    copies = sum(sum(part.mults) for part in st.parts)
    assert left_rows == [copies] and copies < st.n


def test_the_flip_is_mapped_once_per_block_shape():
    # flips, products and the dense bridge on one shape at eigenvalues 0
    # and i, and on a second shape: the placement table and the index map
    # depend on the blocks alone
    rnd = RandomSource(20241023)
    toeplitz._maps.cache_clear()
    toeplitz._placement.cache_clear()
    for lam, blocks in ((0, [(4, 1), (2, 2)]), (IMAG, [(4, 1), (2, 2)]),
                        (IMAG, [(3, 2), (1, 1)])):
        st = SegreStructure(lam, blocks)
        x = generators.gen_G(st, 0, 1, 0, rnd.matrix(st.mults[1], st.mults[0]))
        assert x.flip_transpose() * x == ToeplitzForm.identity(st)
        y = ToeplitzForm.from_sparse(st, {(1, 0, 0): x.coefficient(1, 0, 0)})
        assert ToeplitzForm.extract(y.assemble(), st) == y
    assert toeplitz._placement.cache_info().misses == 2
    assert toeplitz._maps.cache_info().misses == 2


def test_the_codim_path_builds_no_flip_map():
    # the commutant builder, coefficient reads and extract place the strip
    # without the flip's index map, which stays in a cache of its own
    rnd = RandomSource(20241024)
    toeplitz._maps.cache_clear()
    st = SegreStructure(IMAG, [(3, 2), (2, 1), (1, 1)])
    _, builder = commutant_basis(st)
    cells = {(0, 1, 1): rnd.matrix(2, 1), (2, 0, 0): rnd.matrix(1, 2)}
    form = ToeplitzForm.extract(
        toeplitz.conjugate_by_omega(builder(cells), st, "to_toeplitz"), st)
    assert all(form.coefficient(*key) == mat for key, mat in cells.items())
    assert toeplitz._maps.cache_info().misses == 0


def test_the_commutant_builder_writes_the_dense_matrix_in_one_pass(
        monkeypatch):
    # no strip, no assembly and no permuted copy on the way to the dense
    # copy-major matrix
    def refuse(*args, **kwargs):
        raise AssertionError("the builder took a second pass")

    monkeypatch.setattr(toeplitz, "_strip_of", refuse)
    monkeypatch.setattr(ToeplitzForm, "assemble", refuse)
    monkeypatch.setattr(matrices, "_permuted", refuse)
    monkeypatch.setattr(toeplitz, "_permuted", refuse)
    rnd = RandomSource(20261021)
    st = SegreStructure(IMAG, [(3, 2), (2, 1), (1, 1)])
    _, builder = commutant_basis(st)
    x = builder({(0, 1, 1): rnd.matrix(2, 1), (2, 0, 0): rnd.matrix(1, 2),
                 (0, 0, 2): rnd.matrix(2, 2)})
    assert (x.rows, x.cols) == (st.n, st.n) and not x.is_zero


@pytest.fixture
def lookups(monkeypatch):
    """The _pair_rank lookups made while the test runs, and the calls that
    build or label a dense S."""
    calls = {"_pair_rank": 0, "symmetric_form": 0, "_per_copy": 0,
             "_components": 0}
    for module, name in ((orbit, "_pair_rank"), (forms, "symmetric_form"),
                         (forms, "_per_copy"), (orbit, "_components")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_the_orbit_check_ranks_each_pair_of_rows_once(lookups):
    # a row of m equal blocks is one group: its self-pairs and its pairs of
    # two copies take one lookup each, a pair of rows one more, and no
    # dense S is built or labelled
    orbit.consistency_check(SegreStructure(IMAG, [(1, 64)]))
    assert lookups["_pair_rank"] == 2
    orbit.consistency_check(SegreStructure(IMAG, [(3, 4), (2, 1)]))
    assert lookups["_pair_rank"] - 2 <= 2 * 2
    assert lookups["symmetric_form"] == lookups["_per_copy"] \
        == lookups["_components"] == 0


def test_the_dense_oracle_groups_equal_blocks(lookups):
    # 16 copies of one block: 16 self-pairs and 120 pairs of two copies
    s = direct_sum([forms.symmetric_block(3, IMAG)] * 16)
    st = SegreStructure(IMAG, [(3, 16)])
    assert orbit.tangent_oracle(s) == (768, forms.codim_formula(st),
                                       forms.solution_dimension(st))
    assert lookups["_pair_rank"] == 2
