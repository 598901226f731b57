"""Independent oracles for the test suite.

One exact arithmetic, written here and importing nothing from the package
under test, so that rank/nullity and product expectations come from a
second code path.  A matrix over Q(i, sqrt2) is a pair (den, rows): rows
of integer 4-tuples (a, b, c, d), each meaning
((a + b i) + (c + d i) sqrt2) / den, over one positive den.  Every matrix
made here is reduced (den and all parts share no factor), so equal
matrices are equal pairs.  mul is the one product; rank is a
fraction-free (Bareiss) elimination over Z[i, sqrt2], whose exact
division is written here too.  grid reads a package matrix only through
the parts .a/.b/.c/.d of its entries, and two_product_membership does all
its arithmetic here.
strip_digest pins what the package computes, by the sha256 of its storage.
shift states the block Toeplitz layout from a structure's blocks alone.
"""

import hashlib
from itertools import chain
from math import gcd, lcm

_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)


def _times(x, y):
    """(a + b i + (c + d i) sqrt2)(e + f i + (g + h i) sqrt2)."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f + 2 * (c * g - d * h),
            a * f + b * e + 2 * (c * h + d * g),
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e)


def _add(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return a + e, b + f, c + g, d + h


def _sub(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return a - e, b - f, c - g, d - h


def _reduced(den, rows):
    g = gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
    if g == 1:
        return den, rows
    return den // g, [[tuple(v // g for v in x) for x in row] for row in rows]


def grid(m):
    """A package matrix as (den, rows), read only through the parts
    .a/.b/.c/.d of its entries: den is the lcm of their denominators, so
    the pair is reduced."""
    parts = [[(x.a, x.b, x.c, x.d) for x in (m[i, j] for j in range(m.cols))]
             for i in range(m.rows)]
    den = lcm(*{v.denominator for row in parts for x in row for v in x})
    return den, [[tuple(v.numerator * (den // v.denominator) for v in x)
                  for x in row] for row in parts]


def is_gaussian(m):
    """True when no entry of the matrix (den, rows) has a sqrt2 part."""
    return not any(x[2] or x[3] for row in m[1] for x in row)


def mul(x, y):
    """The product x y of two matrices (den, rows)."""
    (x_den, x_rows), (y_den, y_rows) = x, y
    out = []
    for row in x_rows:
        acc = [_ZERO] * len(y_rows[0])
        for u, y_row in zip(row, y_rows, strict=True):
            if any(u):
                acc = [_add(t, _times(u, v)) for t, v in zip(acc, y_row)]
        out.append(acc)
    return _reduced(x_den * y_den, out)


def add(x, y):
    """The sum x + y of two matrices (den, rows) of one shape."""
    (x_den, x_rows), (y_den, y_rows) = x, y
    return _reduced(x_den * y_den, [
        [tuple(u * y_den + v * x_den for u, v in zip(p, q))
         for p, q in zip(a, b, strict=True)]
        for a, b in zip(x_rows, y_rows, strict=True)])


def _divisor(y):
    """(w, n) with y w = n, a positive integer: w is the product of the
    conjugates of y over sqrt2 and over i, n the norm of y."""
    a, b, c, d = y
    over_sqrt2 = (a, b, -c, -d)
    re, im, _, _ = _times(y, over_sqrt2)  # g^2 - 2 h^2, a Gaussian integer
    return _times(over_sqrt2, (re, -im, 0, 0)), re * re + im * im


def _step(p, row, rest, prev):
    """(p row[1:] - row[0] rest) / prev over Z[i, sqrt2], each division
    asserted exact."""
    a, (w, n) = row[0], _divisor(prev)
    out = []
    for u, v in zip(row[1:], rest):
        num = _times(_sub(_times(p, u), _times(a, v)), w)
        assert not any(t % n for t in num), "inexact pivot division"
        out.append(tuple(t // n for t in num))
    return out


def _gaussian_step(p, row, rest, prev):
    """_step on entries (re, im) of Z[i], its arithmetic written out."""
    (pr, pi), (ar, ai), (qr, qi) = p, row[0], prev
    n = qr * qr + qi * qi
    out = []
    for (ur, ui), (vr, vi) in zip(row[1:], rest):
        tr = pr * ur - pi * ui - ar * vr + ai * vi
        ti = pr * ui + pi * ur - ar * vi - ai * vr
        xr, xi = tr * qr + ti * qi, ti * qr - tr * qi
        assert not (xr % n or xi % n), "inexact pivot division"
        out.append((xr // n, xi // n))
    return out


def rank(m):
    """Rank of a matrix (den, rows) by fraction-free (Bareiss) elimination
    over Z[i, sqrt2]; den plays no part.  Each step takes the first row
    with a nonzero entry in the leading column as pivot p and maps every
    other row to (p row - a pivot_row) / prev, a having been the row's
    leading entry and prev the previous pivot.  Every entry so made is a
    minor of the rows, so the division is exact.  Zero rows and the
    leading column are dropped after each step.  A matrix with no sqrt2
    part is ranked on pairs (re, im), about seven times faster."""
    rows = [row for row in m[1] if any(map(any, row))]
    step, prev = _step, _ONE
    if is_gaussian(m):
        rows = [[x[:2] for x in row] for row in rows]
        step, prev = _gaussian_step, _ONE[:2]
    rk = 0
    while rows and rows[0]:
        top = next((row for row in rows if any(row[0])), None)
        if top is None:
            rows = [row[1:] for row in rows]
            continue
        rows.remove(top)
        p, rest = top[0], top[1:]
        rows = [new for new in (step(p, row, rest, prev) for row in rows)
                if any(map(any, new))]
        rk, prev = rk + 1, p
    return rk


def nullity(m):
    """Columns of the matrix (den, rows) less its rank."""
    return len(m[1][0]) - rank(m) if m[1] else 0


def vectorize_commutant_system(s):
    """Rows of the linear system S X - X S = 0 in the n^2 unknowns X_ij,
    over the den of S = (den, rows)."""
    den, g = s
    n = len(g)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [_ZERO] * (n * n)
            # (S X)_ij = sum_k S_ik X_kj ; (X S)_ij = sum_k X_ik S_kj
            for k in range(n):
                row[k * n + j] = _add(row[k * n + j], g[i][k])
                row[i * n + k] = _sub(row[i * n + k], g[k][j])
            rows.append(row)
    return _reduced(den, rows)


def vectorize_tangent_system(s):
    """Map skew(n) -> sym(n), X -> X^T S + S X, as a matrix on the skew basis,
    over the den of S = (den, rows).

    Basis of skew(n): E_uv - E_vu for u < v, in lexicographic order.  Rows are
    the sym entries (i <= j), lexicographic.  Both products are summed over
    the two nonzeros of X only: X_ab = +-1 adds +-S_ak to (X^T S)_bk and
    +-S_ka to (S X)_kb.
    """
    den, g = s
    n = len(g)
    sym_slots = [(i, j) for i in range(n) for j in range(i, n)]
    cols = []
    for u in range(n):
        for v in range(u + 1, n):
            img = [[_ZERO] * n for _ in range(n)]
            for a, b, op in ((u, v, _add), (v, u, _sub)):
                for k in range(n):
                    img[b][k] = op(img[b][k], g[a][k])
                    img[k][b] = op(img[k][b], g[k][a])
            cols.append([img[i][j] for (i, j) in sym_slots])
    # transpose columns into a rows-first matrix
    return _reduced(den, [[cols[k][r] for k in range(len(cols))]
                          for r in range(len(sym_slots))])


def symmetric_canonical_block(n, lam, den=1):
    """Entrywise n x n canonical symmetric block for the eigenvalue lam / den,
    lam an integer 4-tuple.

    Tridiagonal part: lam on the diagonal, 1/2 on the first off-diagonals;
    imaginary part: -i/2 where row+col = n-2 (0-based), +i/2 where
    row+col = n.  The entries are put over 2 den.
    """
    rows = [[(den if abs(i - j) == 1 else 0,
              -den if i + j == n - 2 else den if i + j == n else 0, 0, 0)
             for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = _add(rows[i][i], tuple(2 * v for v in lam))
    return _reduced(2 * den, rows)


def block_diag(*mats):
    """The block diagonal matrix of the square matrices (den, rows)."""
    den = lcm(*(d for d, _ in mats))
    n = sum(len(rows) for _, rows in mats)
    out = [[_ZERO] * n for _ in range(n)]
    off = 0
    for d, rows in mats:
        for i, row in enumerate(rows):
            out[off + i][off:off + len(row)] = [
                tuple(v * (den // d) for v in x) for x in row]
        off += len(rows)
    return _reduced(den, out)


def _str(x, den):
    """The package's string form of ((a + b i) + (c + d i) sqrt2) / den."""
    def part(v):  # v / den in lowest terms, as str(Fraction) writes it
        g = gcd(v, den)
        return str(v // g) if g == den else f"{v // g}/{den // g}"

    a, b, c, d = x
    terms = []
    if a:
        terms.append(("-" if a < 0 else "+", part(abs(a))))
    if b:
        terms.append(("-" if b < 0 else "+", f"{part(abs(b))} i"))
    if c or d:
        if not d:
            terms.append(("-" if c < 0 else "+", f"{part(abs(c))} r2"))
        else:
            terms.append(("+", f"({part(c)} {'-' if d < 0 else '+'} "
                               f"{part(abs(d))} i) r2"))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in terms[1:])


def two_product_membership(s, q):
    """Membership of Q in the isotropy group of S from the full products
    Q^T Q and Q^T S Q: (ok, report), naming the first mismatching entry in
    row-major order, orthogonality first.  The reference for the package's
    verify_isotropy; s and q are the package's matrices, read only through
    grid."""
    def first_mismatch(x, y):
        (x_den, x_rows), (y_den, y_rows) = x, y
        for i, (rx, ry) in enumerate(zip(x_rows, y_rows)):
            for j, (u, v) in enumerate(zip(rx, ry)):
                if any(p * y_den != t * x_den for p, t in zip(u, v)):
                    return i, j
        return None

    n = q.rows
    qg, sg = grid(q), grid(s)
    qt = (qg[0], [list(col) for col in zip(*qg[1])])
    gram = mul(qt, qg)
    eye = (1, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])
    spot = first_mismatch(gram, eye)
    if spot is not None:
        i, j = spot
        return False, (f"orthogonality fails first: (Q^T Q)[{i}][{j}] = "
                       f"{_str(gram[1][i][j], gram[0])}, expected "
                       f"{_str(eye[1][i][j], 1)}")
    cong = mul(mul(qt, sg), qg)
    spot = first_mismatch(cong, sg)
    if spot is not None:
        i, j = spot
        return False, (f"congruence fails first: (Q^T S Q)[{i}][{j}] = "
                       f"{_str(cong[1][i][j], cong[0])}, expected "
                       f"{_str(sg[1][i][j], sg[0])}")
    return True, "member: Q^T Q = I and Q^T S Q = S hold exactly"


def shift(st, r, s):
    """Leading-cell offset of block (r, s) of a form on st, the weight of
    its coefficient 0: max(0, alpha_s - alpha_r)."""
    return max(0, st.blocks[s][0] - st.blocks[r][0])


def strip_digest(forms):
    """sha256 of the canonical strips (den and integer grid) of forms."""
    h = hashlib.sha256()
    for form in forms:
        h.update(repr((form._strip._den, form._strip._g)).encode())
    return h.hexdigest()
