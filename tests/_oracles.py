"""Independent oracles for the test suite.

Deliberately written against fractions.Fraction pairs (re + im) with its own
tiny Gaussian elimination, importing nothing from the package under test, so
that rank/nullity expectations come from a second code path.  The one
exception is two_product_membership, which works on the package's own
matrices so that its reports can be compared byte for byte.
"""

from fractions import Fraction


def c(re=0, im=0):
    return (Fraction(re), Fraction(im))


C0 = c(0)
C1 = c(1)


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def is_zero(x):
    return x[0] == 0 and x[1] == 0


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[C0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if is_zero(a[i][k]):
                continue
            for j in range(cols):
                out[i][j] = cadd(out[i][j], cmul(a[i][k], b[k][j]))
    return out


def mat_sub(a, b):
    return [[csub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rank(mat):
    """Row reduction over Q(i); first-nonzero pivoting."""
    m = [row[:] for row in mat]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    lead = 0
    rk = 0
    for col in range(cols):
        pivot = None
        for r in range(lead, rows):
            if not is_zero(m[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        m[lead], m[pivot] = m[pivot], m[lead]
        pv = m[lead][col]
        m[lead] = [cdiv(x, pv) for x in m[lead]]
        for r in range(rows):
            if r != lead and not is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [csub(x, cmul(f, y)) for x, y in zip(m[r], m[lead])]
        rk += 1
        lead += 1
        if lead == rows:
            break
    return rk


def nullity(mat):
    if not mat:
        return 0
    return len(mat[0]) - rank(mat)


def vectorize_commutant_system(s):
    """Rows of the linear system S X - X S = 0 in the n^2 unknowns X_ij."""
    n = len(s)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [C0] * (n * n)
            # (S X)_ij = sum_k S_ik X_kj ; (X S)_ij = sum_k X_ik S_kj
            for k in range(n):
                row[k * n + j] = cadd(row[k * n + j], s[i][k])
                row[i * n + k] = csub(row[i * n + k], s[k][j])
            rows.append(row)
    return rows


def vectorize_tangent_system(s):
    """Map skew(n) -> sym(n), X -> X^T S + S X, as a matrix on the skew basis.

    Basis of skew(n): E_uv - E_vu for u < v, in lexicographic order.  Rows are
    the sym entries (i <= j), lexicographic.
    """
    n = len(s)
    skew_basis = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sym_slots = [(i, j) for i in range(n) for j in range(i, n)]
    cols = []
    for (u, v) in skew_basis:
        x = [[C0] * n for _ in range(n)]
        x[u][v] = C1
        x[v][u] = (Fraction(-1), Fraction(0))
        xt = [[x[j][i] for j in range(n)] for i in range(n)]
        img = [[cadd(a, b) for a, b in zip(ra, rb)]
               for ra, rb in zip(mat_mul(xt, s), mat_mul(s, x))]
        cols.append([img[i][j] for (i, j) in sym_slots])
    # transpose columns into a rows-first matrix
    return [[cols[k][r] for k in range(len(cols))] for r in range(len(sym_slots))]


def symmetric_canonical_block(n, lam):
    """Entrywise n x n canonical symmetric block for eigenvalue lam (re, im).

    Tridiagonal part: lam on the diagonal, 1/2 on the first off-diagonals;
    imaginary part: -i/2 where row+col = n-2 (0-based), +i/2 where
    row+col = n.
    """
    half = Fraction(1, 2)
    m = [[C0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = lam
        if i + 1 < n:
            m[i][i + 1] = cadd(m[i][i + 1], (half, Fraction(0)))
            m[i + 1][i] = cadd(m[i + 1][i], (half, Fraction(0)))
    for i in range(n):
        for j in range(n):
            if i + j == n - 2:
                m[i][j] = cadd(m[i][j], (Fraction(0), -half))
            elif i + j == n:
                m[i][j] = cadd(m[i][j], (Fraction(0), half))
    return m


def block_diag(*mats):
    n = sum(len(m) for m in mats)
    out = [[C0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(m)
    return out


def two_product_membership(s, q):
    """Membership of Q in the isotropy group of S from the full products
    Q^T Q and Q^T S Q: (ok, report), naming the first mismatching entry in
    row-major order, orthogonality first.  The reference for the package's
    verify_isotropy; s and q are the package's matrices, used only through
    their own arithmetic."""
    def first_mismatch(a, b):
        for i in range(a.rows):
            for j in range(a.cols):
                if a[i, j] != b[i, j]:
                    return i, j
        return None

    gram = q.transpose() * q
    eye = s.power(0)
    spot = first_mismatch(gram, eye)
    if spot is not None:
        i, j = spot
        return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                       f"{gram[i, j]}, expected {eye[i, j]}")
    cong = q.transpose() * s * q
    spot = first_mismatch(cong, s)
    if spot is not None:
        i, j = spot
        return False, (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
                       f"{cong[i, j]}, expected {s[i, j]}")
    return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"
