"""The test oracle pinned on hand-worked values, so that a fault in its own
arithmetic (a dropped sqrt2 cross term, a transposed product, a wrong
pivot division) fails here and not only where it is used."""

import _oracles as oracle

I, R2 = (0, 1, 0, 0), (0, 0, 1, 0)


def _scalar(x, den=1):
    return den, [[x]]


def _matrix(*rows):
    return 1, [list(row) for row in rows]


def test_products_of_i_and_sqrt2():
    assert oracle.mul(_scalar(I), _scalar(I)) == _scalar((-1, 0, 0, 0))
    assert oracle.mul(_scalar(R2), _scalar(R2)) == _scalar((2, 0, 0, 0))
    # (1 + sqrt2)(1 - sqrt2) = -1: the cross terms cancel
    assert oracle.mul(_scalar((1, 0, 1, 0)), _scalar((1, 0, -1, 0))) \
        == _scalar((-1, 0, 0, 0))
    # (i sqrt2)(i sqrt2) = -2 and (1 + i)(i sqrt2) = (-1 + i) sqrt2
    assert oracle.mul(_scalar((0, 0, 0, 1)), _scalar((0, 0, 0, 1))) \
        == _scalar((-2, 0, 0, 0))
    assert oracle.mul(_scalar((1, 1, 0, 0)), _scalar((0, 0, 0, 1))) \
        == _scalar((0, 0, -1, 1))
    # sqrt2 / 2 times sqrt2 / 3 is 1 / 3, reduced
    assert oracle.mul(_scalar(R2, 2), _scalar(R2, 3)) == _scalar((1, 0, 0, 0), 3)


def test_the_product_is_rows_times_columns():
    a = _matrix([(1, 0, 0, 0), (2, 0, 0, 0)], [(3, 0, 0, 0), (4, 0, 0, 0)])
    swap = _matrix([(0, 0, 0, 0), (1, 0, 0, 0)], [(1, 0, 0, 0), (0, 0, 0, 0)])
    # a swap on the right swaps the columns, on the left the rows
    assert oracle.mul(a, swap) == _matrix(
        [(2, 0, 0, 0), (1, 0, 0, 0)], [(4, 0, 0, 0), (3, 0, 0, 0)])
    assert oracle.mul(swap, a) == _matrix(
        [(3, 0, 0, 0), (4, 0, 0, 0)], [(1, 0, 0, 0), (2, 0, 0, 0)])
    # a 1 x 2 row times a 2 x 1 column: 1 i + 2 sqrt2
    row, col = _matrix([(1, 0, 0, 0), (2, 0, 0, 0)]), _matrix([I], [R2])
    assert oracle.mul(row, col) == _scalar((0, 1, 2, 0))


def test_rank_of_a_sqrt2_multiple():
    # row 2 is sqrt2 times row 1
    m = _matrix([(1, 0, 0, 0), R2], [R2, (2, 0, 0, 0)])
    assert oracle.rank(m) == 1 and oracle.nullity(m) == 1


def test_a_gaussian_matrix_with_a_known_kernel():
    # row 3 = row 1 + i row 2; the kernel is spanned by (1, -1 - i, 1).
    # The first pivot is 1 + i, and the second step divides by it
    m = _matrix([(1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)],
                [(1, 0, 0, 0), (1, 0, 0, 0), I],
                [(1, 2, 0, 0), (1, 1, 0, 0), (-1, 0, 0, 0)])
    kernel = _matrix([(1, 0, 0, 0)], [(-1, -1, 0, 0)], [(1, 0, 0, 0)])
    assert oracle.is_gaussian(m)
    assert oracle.rank(m) == 2 and oracle.nullity(m) == 1
    assert oracle.mul(m, kernel) == _matrix(*[[(0, 0, 0, 0)]] * 3)


def test_a_pivot_with_a_sqrt2_part():
    # the first pivot is sqrt2 and the second step divides by it:
    # (1 sqrt2 - sqrt2 sqrt2) / sqrt2 = 1 - sqrt2
    one = (1, 0, 0, 0)
    full = _matrix([R2, one, (0, 0, 0, 0)], [one, R2, one],
                   [(0, 0, 0, 0), one, one])
    assert not oracle.is_gaussian(full)
    assert oracle.rank(full) == 3
    # with sqrt2 in the corner the determinant is 0
    singular = _matrix(full[1][0], full[1][1], [(0, 0, 0, 0), one, R2])
    assert oracle.rank(singular) == 2 and oracle.nullity(singular) == 1
