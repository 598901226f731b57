"""Independent oracles for the test suite.

Deliberately written against fractions.Fraction pairs (re + im), and
Fraction 4-tuples for Q(i, sqrt2), with its own tiny Gauss-Jordan
elimination, importing nothing from the package under test, so that
rank/nullity and product expectations come from a second code path.
two_product_membership takes the package's matrices but reads their
entries only through .a/.b/.c/.d and does all its arithmetic here.
strip_digest pins what the package computes, by the sha256 of its storage.
"""

import hashlib
from fractions import Fraction
from math import lcm


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


def q(a=0, b=0, c_=0, d=0):
    """(a + b i) + (c_ + d i) sqrt2 as a 4-tuple of Fractions."""
    return (Fraction(a), Fraction(b), Fraction(c_), Fraction(d))


def qadd(x, y):
    return tuple(u + v for u, v in zip(x, y))


def qsub(x, y):
    return tuple(u - v for u, v in zip(x, y))


def qmul(x, y):
    # (g1 + h1 sqrt2)(g2 + h2 sqrt2) with Gaussian g, h
    g1, h1, g2, h2 = x[:2], x[2:], y[:2], y[2:]
    if is_zero(h1) and is_zero(h2):
        return cmul(g1, g2) + C0
    gg = cadd(cmul(g1, g2), cmul(c(2), cmul(h1, h2)))
    return gg + cadd(cmul(g1, h2), cmul(h1, g2))


def qdiv(x, y):
    # 1 / (g + h sqrt2) = (g - h sqrt2) / (g^2 - 2 h^2), a Gaussian denominator
    g, h = y[:2], y[2:]
    den = csub(cmul(g, g), cmul(c(2), cmul(h, h)))
    inv = cdiv(g, den) + cdiv(csub(C0, h), den)
    return qmul(x, inv)


def q_is_zero(x):
    return all(v == 0 for v in x)


def _over_one_denominator(rows):
    """(den, grid): rows of Fraction 4-tuples as integer 4-tuples over one
    common denominator den."""
    den = 1
    for row in rows:
        for x in row:
            for v in x:
                den = lcm(den, v.denominator)
    return den, [[tuple(v.numerator * (den // v.denominator) for v in x)
                  for x in row] for row in rows]


def qmat_mul(a, b, cols):
    """Product of grids of Fraction 4-tuples; b has cols columns.  Each row
    of a, and all of b, is put over one integer denominator, the sums run
    in plain integers, and each output Fraction is made once."""
    b_den, b_int = _over_one_denominator(b)
    out = []
    for row in a:
        a_den, (a_row,) = _over_one_denominator([row])
        acc = [[0, 0, 0, 0] for _ in range(cols)]
        for k, (p, q_, r, s) in enumerate(a_row):
            if not (p or q_ or r or s):
                continue
            for j, (e, f, g, h) in enumerate(b_int[k]):
                if not (e or f or g or h):
                    continue
                # (p + q i + (r + s i) sqrt2)(e + f i + (g + h i) sqrt2)
                t = acc[j]
                t[0] += p * e - q_ * f + 2 * (r * g - s * h)
                t[1] += p * f + q_ * e + 2 * (r * h + s * g)
                t[2] += p * g - q_ * h + r * e - s * f
                t[3] += p * h + q_ * g + r * f + s * e
        den = a_den * b_den
        out.append([tuple(Fraction(v, den) for v in t) for t in acc])
    return out


def q_grid(m):
    """A package matrix as a grid of Fraction 4-tuples, read only through
    the parts .a/.b/.c/.d of its entries."""
    def frac(r):
        return Fraction(int(r.numerator), int(r.denominator))
    return [[tuple(frac(v) for v in (x.a, x.b, x.c, x.d))
             for x in (m[i, j] for j in range(m.cols))] for i in range(m.rows)]


def q_str(x):
    """The package's string form of (a + b i) + (c + d i) sqrt2."""
    a, b, c, d = x
    terms = []
    if a:
        terms.append(("-" if a < 0 else "+", str(abs(a))))
    if b:
        terms.append(("-" if b < 0 else "+", f"{abs(b)} i"))
    if c or d:
        if not d:
            terms.append(("-" if c < 0 else "+", f"{abs(c)} r2"))
        else:
            terms.append(("+", f"({c} {'-' if d < 0 else '+'} {abs(d)} i) r2"))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in terms[1:])


def qrank(mat):
    """Gauss-Jordan rank over Q(i, sqrt2) on rows of Fraction 4-tuples;
    first-nonzero pivoting."""
    m = [row[:] for row in mat]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rk = 0
    for col in range(cols):
        pivot = next((r for r in range(rk, rows) if not q_is_zero(m[r][col])),
                     None)
        if pivot is None:
            continue
        m[rk], m[pivot] = m[pivot], m[rk]
        pv = m[rk][col]
        m[rk] = [qdiv(x, pv) for x in m[rk]]
        for r in range(rows):
            if r != rk and not q_is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [qsub(x, qmul(f, y)) for x, y in zip(m[r], m[rk])]
        rk += 1
        if rk == rows:
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
    the sym entries (i <= j), lexicographic.  Both products are summed over
    the two nonzeros of X only: X_ab = x adds x S_ak to (X^T S)_bk and
    S_ka x to (S X)_kb.
    """
    n = len(s)
    sym_slots = [(i, j) for i in range(n) for j in range(i, n)]
    cols = []
    for u in range(n):
        for v in range(u + 1, n):
            img = [[C0] * n for _ in range(n)]
            for a, b, x in ((u, v, C1), (v, u, c(-1))):
                for k in range(n):
                    img[b][k] = cadd(img[b][k], cmul(x, s[a][k]))
                    img[k][b] = cadd(img[k][b], cmul(s[k][a], x))
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
    Q^T Q and Q^T S Q over Fraction 4-tuples: (ok, report), naming the first
    mismatching entry in row-major order, orthogonality first.  The
    reference for the package's verify_isotropy; s and q are the package's
    matrices, read only through the parts of their entries."""
    def first_mismatch(a, b):
        for i, (ra, rb) in enumerate(zip(a, b)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                if x != y:
                    return i, j
        return None

    n = q.rows
    qg, sg = q_grid(q), q_grid(s)
    qt = [list(col) for col in zip(*qg)]
    gram = qmat_mul(qt, qg, n)
    one, zero = (Fraction(1),) + (Fraction(0),) * 3, (Fraction(0),) * 4
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    spot = first_mismatch(gram, eye)
    if spot is not None:
        i, j = spot
        return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                       f"{q_str(gram[i][j])}, expected {q_str(eye[i][j])}")
    cong = qmat_mul(qmat_mul(qt, sg, n), qg, n)
    spot = first_mismatch(cong, sg)
    if spot is not None:
        i, j = spot
        return False, (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
                       f"{q_str(cong[i][j])}, expected {q_str(sg[i][j])}")
    return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"


def strip_digest(forms):
    """sha256 of the canonical strips (den and integer grid) of forms."""
    h = hashlib.sha256()
    for form in forms:
        h.update(repr((form._strip._den, form._strip._g)).encode())
    return h.hexdigest()
