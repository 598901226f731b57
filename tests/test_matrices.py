import sys
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from isotropy import scalars
from isotropy.errors import DimensionMismatchError, SingularMatrixError
from isotropy.forms import SegreStructure, symmetric_form
from isotropy.matrices import (
    ExactMatrix, _sparse_rows, _sum_of_products, cayley_orthogonal,
    diagonal, direct_sum, identity, zeros,
)
from isotropy.rng import RandomSource
from isotropy.scalars import ExactScalar, IMAG, ONE, SQRT2, ZERO, _from_ints, rat
from isotropy.stabilizer import (from_toeplitz_coordinates,
                                 sample_isotropy_element,
                                 to_toeplitz_coordinates, verify_isotropy)
from isotropy.toeplitz import ToeplitzForm, conjugate_by_omega

import _oracles as oracle


def test_constructors_and_access():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert m[1, 0] == ExactScalar(3)
    assert m.T[0, 1] == ExactScalar(3)
    assert identity(3)[2, 2] == ONE
    assert zeros(2, 3).is_zero
    with pytest.raises(DimensionMismatchError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_degenerate_shapes():
    e = zeros(0, 0)
    assert direct_sum([]) == e
    assert direct_sum([e, identity(2), e]).is_identity
    assert zeros(0, 3).T.rows == 3 and zeros(0, 3).T.cols == 0
    assert (zeros(0, 3) * zeros(3, 2)).rows == 0


def test_arithmetic_against_hand_values():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert a * b == ExactMatrix.from_rows([[2, 1], [4, 3]])
    assert a + b - b == a
    assert (a * IMAG)[0, 0] == IMAG
    assert (-a + a).is_zero


def test_sum_with_a_foreign_operand_is_a_type_error():
    # NotImplemented from both sides, so Python raises TypeError; two
    # matrices of different shapes still raise DimensionMismatchError
    for other in ("x", 1, ONE, None):
        for combine in (lambda: identity(2) + other,
                        lambda: identity(2) - other,
                        lambda: other + identity(2),
                        lambda: other - identity(2)):
            with pytest.raises(TypeError):
                combine()
    with pytest.raises(DimensionMismatchError):
        identity(2) + identity(3)
    with pytest.raises(DimensionMismatchError):
        identity(2) - zeros(2, 3)


def test_mul_matches_oracle_on_random_pairs():
    rs = RandomSource(555)
    for _ in range(25):
        a = rs.matrix(3, 4)
        b = rs.matrix(4, 2)
        ga, gb, got = (oracle.grid(x) for x in (a, b, a * b))
        assert all(map(oracle.is_gaussian, (ga, gb, got)))
        assert got == oracle.mul(ga, gb)


def _big(rs):
    # a scalar whose four parts have denominators up to 1e10
    return ExactScalar(*(rat(rs.stream.randint(-10**4, 10**4),
                             rs.stream.randint(1, 10**10))
                         for _ in range(4)))


def _with_zero_lines(rs, m):
    # m with a zero row and a zero column inserted at random places
    grid = m.to_lists()
    grid.insert(rs.stream.randint(0, len(grid)), [ZERO] * m.cols)
    at = rs.stream.randint(0, m.cols)
    return ExactMatrix.from_rows([row[:at] + [ZERO] + row[at:] for row in grid])


def _assert_mul_matches_q_oracle(a, b):
    assert _to_q(a * b) == oracle.mul(_to_q(a), _to_q(b))


def test_mul_matches_q_oracle_with_sqrt2_entries():
    rs = RandomSource(556)
    for _ in range(15):
        r, k, c = (rs.stream.randint(1, 5) for _ in range(3))
        for left, right in ((True, False), (False, True), (True, True)):
            a = rs.matrix(r, k, with_sqrt2=left)
            b = rs.matrix(k, c, with_sqrt2=right)
            _assert_mul_matches_q_oracle(a, b)
    # sqrt2 parts with no Gaussian part: the 2 (c1 c2 - d1 d2) term alone
    r2 = ExactMatrix.from_rows([[SQRT2, SQRT2 * IMAG], [ZERO, SQRT2]])
    _assert_mul_matches_q_oracle(r2, r2)
    assert (r2 * r2)[0, 0] == ExactScalar(2)


def test_mul_matches_q_oracle_with_large_mixed_denominators():
    rs = RandomSource(557)
    for _ in range(10):
        r, k, c = (rs.stream.randint(1, 4) for _ in range(3))
        a = ExactMatrix.build(r, k, lambda i, j: _big(rs))
        b = ExactMatrix.build(k, c, lambda i, j: _big(rs)
                              if rs.stream.below(2) else rs.scalar())
        _assert_mul_matches_q_oracle(a, b)


def test_mul_with_zero_rows_and_columns():
    rs = RandomSource(558)
    for _ in range(15):
        r, k, c = (rs.stream.randint(1, 4) for _ in range(3))
        a = _with_zero_lines(rs, rs.matrix(r, k, with_sqrt2=True))
        b = _with_zero_lines(rs, rs.matrix(k, c, with_sqrt2=True))
        _assert_mul_matches_q_oracle(a, b)
    assert (zeros(3, 2) * identity(2)).is_zero


def test_mul_of_empty_shapes():
    for k in range(4):
        assert zeros(0, k) * zeros(k, 0) == zeros(0, 0)
        for m in range(4):
            assert zeros(k, 0) * zeros(0, m) == zeros(k, m)
            assert (zeros(k, 0) * zeros(0, m)).is_zero


def _terms(pairs):
    # the terms of _sum_of_products for the products a b
    return [(a._g, _sparse_rows(b._g), a._den * b._den) for a, b in pairs]


def test_sum_of_products_matches_term_by_term_sum():
    rs = RandomSource(559)
    assert _sum_of_products([], 2, 3) == zeros(2, 3)
    assert _sum_of_products([], 0, 0) == zeros(0, 0)
    for _ in range(15):
        r, c = rs.stream.randint(1, 3), rs.stream.randint(1, 3)
        pairs = []
        for _ in range(rs.stream.randint(1, 4)):
            k = rs.stream.randint(1, 3)
            kw = {"with_sqrt2": bool(rs.stream.below(2)),
                  "max_den": rs.stream.randint(1, 9)}
            pairs.append((rs.matrix(r, k, **kw), rs.matrix(k, c, **kw)))
        want = reduce(oracle.add, (oracle.mul(_to_q(a), _to_q(b))
                                   for a, b in pairs))
        assert _to_q(_sum_of_products(_terms(pairs), r, c)) == want
        # a negative denominator subtracts its term
        a, b = pairs[0]
        assert _sum_of_products(_terms(pairs) + [
            (a._g, _sparse_rows(b._g), -a._den * b._den)], r, c) == \
            _sum_of_products(_terms(pairs[1:]), r, c)


def test_from_ints_matches_the_public_constructor():
    rs = RandomSource(560)
    assert _from_ints(0, 0, 0, 0, 7) is ZERO
    for _ in range(40):
        parts = [rs.stream.randint(-50, 50) if rs.stream.below(3) else 0
                 for _ in range(4)]
        den = rs.stream.randint(1, 10**10)
        x = _from_ints(*parts, den)
        want = ExactScalar(*(Fraction(p, den) for p in parts))
        assert x == want and hash(x) == hash(want) and str(x) == str(want)
        with pytest.raises(AttributeError):
            x.b = 1


def test_inverse_by_adjugate_cross_check():
    # independent 2x2 inverse: adj / det
    rs = RandomSource(77)
    for _ in range(30):
        m = rs.matrix(2, 2, with_sqrt2=True)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det.is_zero:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        inv = m.inverse()
        d = det.inverse()
        assert inv == ExactMatrix.from_rows([
            [m[1, 1] * d, -m[0, 1] * d],
            [-m[1, 0] * d, m[0, 0] * d],
        ])
        assert (m * inv).is_identity and (inv * m).is_identity


def test_inverse_random_sizes():
    rs = RandomSource(91)
    done = 0
    while done < 12:
        n = rs.stream.randint(1, 5)
        m = rs.matrix(n, n, with_sqrt2=True)
        try:
            inv = m.inverse()
        except SingularMatrixError:
            continue
        assert (m * inv).is_identity
        done += 1


def _assert_inverse(m):
    # m inv == inv m == I when m has full rank, SingularMatrixError otherwise
    n = m.rows
    if m.rank() < n:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return False
    inv = m.inverse()
    assert m * inv == identity(n) and inv * m == identity(n)
    return True


def _big_gaussian(rs):
    # a scalar with no sqrt2 part whose parts have denominators up to 1e10
    return ExactScalar(*(rat(rs.stream.randint(-10**4, 10**4),
                             rs.stream.randint(1, 10**10))
                         for _ in range(2)))


def test_inverse_sizes_one_to_eight():
    # with and without sqrt2 parts, and with denominators up to 1e10 (up to
    # n = 6 with sqrt2 parts, where the product checks grow slow)
    rs = RandomSource(611)
    inverted = 0
    for n in range(1, 9):
        draws = [lambda: rs.scalar(), lambda: rs.scalar(with_sqrt2=True),
                 lambda: _big_gaussian(rs)]
        if n <= 6:
            draws.append(lambda: _big(rs))
        for draw in draws:
            inverted += _assert_inverse(ExactMatrix.build(
                n, n, lambda i, j: draw()))
    assert inverted >= 28


def test_inverse_with_zero_pivot_entries():
    # a zero (0, 0) entry forces a row swap; sqrt2-only pivots need the
    # sqrt2-conjugate in the exact division
    r2 = SQRT2
    swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert swap.inverse() == swap
    m = ExactMatrix.from_rows([[0, r2, 1], [r2, 1, 0], [2, r2 + r2, r2]])
    assert _assert_inverse(m)
    half = rat(1, 2)
    assert ExactMatrix.from_rows([[r2, 1], [0, r2]]).inverse() == \
        ExactMatrix.from_rows([[half * r2, -half], [0, half * r2]])
    rs = RandomSource(612)
    for n in range(2, 6):
        for _ in range(3):
            _assert_inverse(_sparse(rs, n, n, with_sqrt2=True))
            _assert_inverse(r2 * rs.matrix(n, n))


def _shuffled(rs, rows):
    # the rows in a random order (Fisher-Yates on the test stream)
    rows = list(rows)
    for i in range(len(rows) - 1, 0, -1):
        j = rs.stream.randint(0, i)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def _sparse_shape(rs, kind, rows, cols, draw):
    # a banded or block upper triangular pattern under a random row
    # permutation: the elimination leaves rows alone, catches them up as
    # pivot rows and picks pivots by their count of nonzeros
    band = kind == "band"
    k = rs.stream.randint(0, 2) if band else rs.stream.randint(1, 3)

    def keep(i, j):
        # within k of the diagonal, or in a block of size k on or above it
        return abs(i - j) <= k if band else i // k <= j // k

    return ExactMatrix.from_rows(_shuffled(rs, (
        [draw() if keep(i, j) else ZERO for j in range(cols)]
        for i in range(rows))))


def _sparse_draws(rs, n):
    # Gaussian, sqrt2, sqrt2-only (so that every other pivot is a pure
    # sqrt2 multiple) and large-denominator entries; the four-part ones
    # only up to n = 6, where the product checks stay fast
    draws = [rs.scalar, lambda: rs.scalar(with_sqrt2=True),
             lambda: SQRT2 * rs.scalar(), lambda: _big_gaussian(rs)]
    if n <= 6:
        draws.append(lambda: _big(rs))
    return draws


def _first_dependent_column(m):
    # the first column in the span of the columns before it, by the oracle
    den, rows = _to_q(m)
    return next(c for c in range(m.cols)
                if oracle.rank((den, [row[:c + 1] for row in rows])) <= c)


def test_rank_of_sparse_shapes_matches_q_oracle():
    rs = RandomSource(614)
    for kind in ("band", "block"):
        for n in range(1, 9):
            for draw in _sparse_draws(rs, n):
                cols = rs.stream.randint(1, 8)
                m = _sparse_shape(rs, kind, n, cols, draw)
                _assert_rank_matches_q_oracle(m)
                _assert_rank_matches_q_oracle(_with_zero_lines(rs, m))


def test_inverse_of_sparse_shapes():
    # m m^-1 = I when the oracle finds full rank; otherwise the error names
    # the first column that depends on the ones before it
    rs = RandomSource(615)
    inverted = singular = 0
    for kind in ("band", "block"):
        for n in range(1, 9):
            for draw in _sparse_draws(rs, n):
                cases = [_sparse_shape(rs, kind, n, n, draw)]
                if n > 1:
                    cases.append(_with_zero_lines(rs, _sparse_shape(
                        rs, kind, n - 1, n - 1, draw)))
                for m in cases:
                    if _assert_rank_matches_q_oracle(m) == n:
                        inverse = m.inverse()
                        assert m * inverse == identity(n)
                        inverted += 1
                        continue
                    with pytest.raises(SingularMatrixError) as err:
                        m.inverse()
                    column = _first_dependent_column(m)
                    assert str(err.value) == \
                        f"matrix is singular (no pivot in column {column})"
                    singular += 1
    assert inverted >= 60 and singular >= 50


@pytest.mark.parametrize("rows, column", [
    ([[1, 2], [2, 4]], 1),
    ([[0, 0], [0, 0]], 0),
    ([[0, 0, 0], [1, 2, 3], [4, 5, 6]], 2),
    ([[1, 2, 3], [2, 4, 5], [0, 0, 1]], 1),
    ([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2),
    ([[SQRT2, 2], [1, SQRT2]], 1),
    ([[0, SQRT2, 1], [SQRT2, 1, 0], [SQRT2, 1 + SQRT2, 1]], 2),
    ([[1, IMAG], [IMAG, -1]], 1),
    ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 3]], 3),
])
def test_inverse_of_singular_matrix_names_the_column(rows, column):
    m = ExactMatrix.from_rows(rows)
    with pytest.raises(SingularMatrixError) as err:
        m.inverse()
    assert str(err.value) == f"matrix is singular (no pivot in column {column})"


def test_inverse_of_empty_and_non_square_shapes():
    assert zeros(0, 0).inverse() == zeros(0, 0)
    with pytest.raises(DimensionMismatchError):
        zeros(2, 3).inverse()


def test_inverse_makes_no_scalar_arithmetic(monkeypatch):
    # the inverse runs on integer grids: no ExactScalar product, difference
    # or inverse is formed on the way
    rs = RandomSource(613)
    m = rs.matrix(5, 5, with_sqrt2=True)

    def refuse(*args):
        raise AssertionError("ExactScalar arithmetic inside ExactMatrix.inverse")

    for name in ("__mul__", "__rmul__", "__sub__", "__rsub__", "inverse"):
        monkeypatch.setattr(ExactScalar, name, refuse)
    inv = m.inverse()
    monkeypatch.undo()
    assert m * inv == identity(5)


def test_rank_nullity():
    assert zeros(3, 3).rank() == 0
    assert identity(4).rank() == 4
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert m.rank() == 2


def test_rank_matches_oracle():
    rs = RandomSource(2024)
    for _ in range(20):
        r = rs.stream.randint(1, 5)
        c = rs.stream.randint(1, 5)
        m = rs.matrix(r, c)
        grid = oracle.grid(m)
        assert oracle.is_gaussian(grid)
        assert m.rank() == oracle.rank(grid)
        assert m.cols - m.rank() == oracle.nullity(grid)


_to_q = oracle.grid


def _assert_rank_matches_q_oracle(m):
    want = oracle.rank(_to_q(m))
    assert m.rank() == want
    return want


def _sparse(rs, rows, cols, **kw):
    # about half the entries zero, so pivots often need a row swap
    return ExactMatrix.from_rows(
        [[ZERO if rs.stream.below(2) else rs.scalar(**kw)
          for _ in range(cols)] for _ in range(rows)])


def test_rank_matches_q_oracle_with_sqrt2_entries():
    rs = RandomSource(606)
    for _ in range(30):
        r, c = rs.stream.randint(1, 6), rs.stream.randint(1, 6)
        _assert_rank_matches_q_oracle(rs.matrix(r, c, with_sqrt2=True))
        _assert_rank_matches_q_oracle(_sparse(rs, r, c, with_sqrt2=True))


def test_rank_of_rank_deficient_products():
    rs = RandomSource(607)
    for _ in range(25):
        n, m = rs.stream.randint(2, 6), rs.stream.randint(2, 6)
        k = rs.stream.randint(1, min(n, m) - 1)
        a = rs.matrix(n, k, with_sqrt2=True)
        b = _sparse(rs, k, m, with_sqrt2=True)
        assert _assert_rank_matches_q_oracle(a * b) <= k


def test_rank_with_zero_rows_and_columns():
    rs = RandomSource(608)
    for _ in range(20):
        r, c = rs.stream.randint(1, 5), rs.stream.randint(1, 5)
        grid = _sparse(rs, r, c, with_sqrt2=True).to_lists()
        for _ in range(rs.stream.randint(1, 2)):
            at = rs.stream.randint(0, len(grid))
            grid.insert(at, [ZERO] * c)
        zero_col = rs.stream.randint(0, c)
        grid = [row[:zero_col] + [ZERO] + row[zero_col:] for row in grid]
        _assert_rank_matches_q_oracle(ExactMatrix.from_rows(grid))
    assert zeros(4, 3).rank() == 0
    assert ExactMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).rank() == 3


def test_rank_of_empty_shapes():
    for n in range(5):
        assert zeros(0, n).rank() == 0
        assert zeros(n, 0).rank() == 0


def test_rank_divides_through_the_sqrt2_conjugate():
    # pivots with a sqrt2 part, and with no Gaussian part at all, so the
    # exact division needs the sqrt2-conjugate and a zero test reading only
    # the Gaussian part misses them
    r2 = SQRT2
    assert ExactMatrix.from_rows([[r2, 1], [0, r2]]).rank() == 2
    assert ExactMatrix.from_rows([[r2, 2], [1, r2]]).rank() == 1
    assert ExactMatrix.from_rows([[1 + r2, 1], [1, r2 - 1]]).rank() == 1
    rs = RandomSource(609)
    for _ in range(20):
        n = rs.stream.randint(2, 5)
        _assert_rank_matches_q_oracle(r2 * rs.matrix(n, n + 1))
        k = rs.stream.randint(1, n - 1)
        a = r2 * rs.matrix(n, k)
        b = rs.matrix(k, n, with_sqrt2=True)
        assert _assert_rank_matches_q_oracle(a * b + r2 * (a * b)) <= k
        _assert_rank_matches_q_oracle(
            ExactMatrix.build(n, n, lambda i, j: rs.scalar(with_sqrt2=True)
                              + (1 + r2 if i == j else ZERO)))


def test_rank_with_large_denominators():
    rs = RandomSource(610)

    def big():
        return _big(rs)

    for _ in range(8):
        n, m = rs.stream.randint(2, 4), rs.stream.randint(2, 4)
        a = ExactMatrix.build(n, m, lambda i, j: big())
        _assert_rank_matches_q_oracle(a)
        k = rs.stream.randint(1, min(n, m) - 1)
        a = ExactMatrix.build(n, k, lambda i, j: big())
        b = ExactMatrix.build(k, m, lambda i, j: big())
        assert _assert_rank_matches_q_oracle(a * b) <= k


def test_commutant_nullity_of_small_canonical_form():
    # S = (2-block at 0) + (1-block at 0); the 9x9 vectorized commutant
    # system S X = X S must have nullity 5, checked fully by the oracle.
    s = oracle.block_diag(oracle.symmetric_canonical_block(2, (0, 0, 0, 0)),
                          oracle.symmetric_canonical_block(1, (0, 0, 0, 0)))
    system = oracle.vectorize_commutant_system(s)
    assert len(system[1]) == 9 and len(system[1][0]) == 9
    assert oracle.nullity(system) == 5


def block_assemble(grid):
    """A matrix laid out from a 2-D grid of blocks, entry by entry."""
    heights = [row[0].rows for row in grid]
    widths = [b.cols for b in grid[0]] if grid else []
    for row, height in zip(grid, heights):
        if [b.cols for b in row] != widths or any(b.rows != height for b in row):
            raise DimensionMismatchError("blocks do not line up")
    rows = [[b[ii, jj] for b in row for jj in range(b.cols)]
            for row, height in zip(grid, heights) for ii in range(height)]
    return ExactMatrix.build(sum(heights), sum(widths),
                             lambda i, j: rows[i][j])


def test_block_assemble():
    g = block_assemble([[identity(2), zeros(2, 1)], [zeros(1, 2), identity(1)]])
    assert g.is_identity
    with pytest.raises(DimensionMismatchError):
        block_assemble([[identity(2), zeros(3, 1)]])


def test_direct_sum_values():
    d = direct_sum([diagonal([1, 2]), ExactMatrix.from_rows([[5]])])
    assert d[2, 2] == ExactScalar(5)
    assert d[0, 2] == ZERO


def test_cayley_fixed_example():
    z = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    q = cayley_orthogonal(z)
    # hand computation: (I-Z)(I+Z)^{-1} = [[0,-1],[1,0]]
    assert q == ExactMatrix.from_rows([[0, -1], [1, 0]])


def test_cayley_random_is_orthogonal():
    rs = RandomSource(8)
    for _ in range(20):
        n = rs.stream.randint(1, 5)
        q = rs.orthogonal(n)
        assert (q.T * q).is_identity
        assert (q * q.T).is_identity


def test_cayley_rejects_non_skew():
    with pytest.raises(DimensionMismatchError):
        cayley_orthogonal(identity(2))


def test_cayley_singular_raises():
    # I + Z singular for Z = [[0, i], [-i, 0]] (det(I+Z) = 1 - i*i*(-1) = 0)
    z = ExactMatrix.from_rows([[ZERO, IMAG], [-IMAG, ZERO]])
    with pytest.raises(SingularMatrixError):
        cayley_orthogonal(z)


def test_symmetry_predicates():
    rs = RandomSource(5)
    s = rs.symmetric(4)
    k = rs.skew(4)
    assert s.is_symmetric and not s.is_skew
    assert k.is_skew and (k + k.T).is_zero
    assert rat(1, 2) * (s + s.T) == s


# ---------------------------------------------------------------------------
# the stored form: one canonical integer grid over one denominator
# ---------------------------------------------------------------------------

def _assert_canonical(m):
    # den > 0, gcd(den, every component) == 1, and den == 1 when zero
    grid, den = m._g, m._den
    assert den > 0
    assert len(grid) == m.rows and all(len(r) == m.cols for r in grid)
    assert gcd(den, *(v for r in grid for x in r for v in x)) == 1
    if m.is_zero:
        assert den == 1


def _assert_same(a, b):
    _assert_canonical(a)
    _assert_canonical(b)
    assert a == b and hash(a) == hash(b)


def test_storage_is_canonical_on_every_route():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-4, max_value=4,
                                  max_denominator=6))
    scalar = st.builds(ExactScalar, part, part, part, part)

    @st.composite
    def matrices(draw):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        entries = draw(st.lists(st.lists(scalar, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows))
        return ExactMatrix.build(rows, cols, lambda i, j: entries[i][j])

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
    @hypothesis.given(matrices())
    @hypothesis.example(zeros(0, 3))
    @hypothesis.example(zeros(3, 0))
    @hypothesis.example(zeros(0, 0))
    @hypothesis.example(zeros(2, 3))
    @hypothesis.example(ExactMatrix.from_rows([[rat(1, 2), 0], [0, rat(1, 2)]]))
    @hypothesis.example(ExactMatrix.from_rows([[rat(2, 3) * SQRT2, IMAG]]))
    def check(m):
        _assert_canonical(m)
        halves = ExactMatrix.build(m.rows, m.cols,
                                   lambda i, j: m[i, j] * rat(1, 2))
        _assert_same(halves, m.scale(rat(1, 2)))
        _assert_same(m.scale(2).scale(rat(1, 2)), m)
        _assert_same(m.T.T, m)
        _assert_same(m * identity(m.cols), m)
        _assert_same(identity(m.rows) * m, m)
        _assert_same(m + zeros(m.rows, m.cols), m)
        _assert_same(m - m, zeros(m.rows, m.cols))
        _assert_same(-(-m), m)
        if m.rows:
            # from_rows reads the column count off the first row
            _assert_same(ExactMatrix.from_rows(m.to_lists()), m)
        _assert_same(ExactMatrix.build(m.rows, m.cols, lambda i, j: m[i, j]),
                     m)
        _assert_same(direct_sum([m]), m)
        _assert_same(block_assemble([[m]]), m)
        assert m.to_lists() == [[m[i, j] for j in range(m.cols)]
                                for i in range(m.rows)]
        if m.is_square:
            try:
                inv = m.inverse()
            except SingularMatrixError:
                return
            _assert_canonical(inv)
            _assert_same(inv.inverse(), m)

    check()


def test_hot_path_makes_no_scalars(monkeypatch):
    # a form product, a sum of products, the membership test, extraction
    # and the Omega permutation all work on the integer grids: none of them
    # makes an ExactScalar
    st = SegreStructure(IMAG, [(3, 1), (2, 2), (1, 1)])
    q = sample_isotropy_element(st, rnd=RandomSource(614))
    x = to_toeplitz_coordinates(st, q)
    dense = conjugate_by_omega(x.assemble(), st, "to_dense")
    symmetric_form(st)  # built once per structure, before the patch
    pairs = [(x.coefficient(1, 0, j), x.coefficient(0, 1, j)) for j in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("an ExactScalar was made on the hot path")

    monkeypatch.setattr(scalars.ExactScalar, "__init__", refuse)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("isotropy")
                and hasattr(module, "_from_ints")):
            monkeypatch.setattr(module, "_from_ints", refuse)
    square = x * x
    total = _sum_of_products(_terms(pairs), 2, 2)
    ok, _ = verify_isotropy(st, q)
    back = conjugate_by_omega(dense, st, "to_toeplitz")
    extracted = ToeplitzForm.extract(back, st)
    # the transition P applied by index, both ways, and a form written
    # from its coefficients
    coords, member = to_toeplitz_coordinates(st, q), from_toeplitz_coordinates(st, x)
    sparse = ToeplitzForm.from_sparse(st, {(1, 0, 0): pairs[0][0]})
    monkeypatch.undo()
    assert ok and extracted == x and coords == x and member == q
    assert sparse.coefficient(1, 0, 0) == pairs[0][0]
    assert square.assemble() == x.assemble() * x.assemble()
    assert total == pairs[0][0] * pairs[0][1] + pairs[1][0] * pairs[1][1]
