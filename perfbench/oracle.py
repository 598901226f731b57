"""Independent output checks for the benchmark.

Everything here is written against fractions.Fraction and plain tuples and
lists, and imports nothing from the package under test.  A scalar of
Q(i, sqrt2) is a 4-tuple (a, b, c, d) meaning a + b i + (c + d i) sqrt2; a
matrix is a list of row lists.  Canonical matrices are built entrywise from
the block description, not from the package's constructions.

Dense coordinates are copy-major (each Jordan block copy occupies a run of
alpha consecutive indices); Toeplitz coordinates are position-major inside
each eigenvalue group (index u * m + copy for block position u).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

Z = Fraction(0)
S0 = (Z, Z, Z, Z)
S1 = (Fraction(1), Z, Z, Z)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def sc(a=0, b=0, c=0, d=0):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def sadd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def ssub(x, y):
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def sneg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def smul(x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    if not (c1 or d1 or c2 or d2):
        return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, Z, Z)
    return (a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def sscale(x, q):
    """Scalar times a rational."""
    return (x[0] * q, x[1] * q, x[2] * q, x[3] * q)


def is_zero(x):
    return not (x[0] or x[1] or x[2] or x[3])


def sinv_gauss(x):
    """Inverse of a nonzero element of Q(i) (sqrt2 part must vanish)."""
    if x[2] or x[3]:
        raise ValueError("sinv_gauss needs a Gaussian scalar")
    norm = x[0] * x[0] + x[1] * x[1]
    if not norm:
        raise ZeroDivisionError("inverse of zero")
    return (x[0] / norm, -x[1] / norm, Z, Z)


_TERM = re.compile(
    r"\s*([+-])?\s*(?:"
    r"\((?P<pc>-?\d+(?:/\d+)?)\s*(?P<ps>[+-])\s*(?P<pd>\d+(?:/\d+)?)\s*i\s*\)\s*r2"
    r"|(?P<num>\d+(?:/\d+)?)?\s*(?P<unit>i|r2)?"
    r")")


def parse(text: str):
    """Parse the wire grammar 'a + b i + (c + d i) r2' and its short forms."""
    a = b = c = d = Z
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty scalar")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse scalar {text!r} at {pos}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group("pc") is not None:
            pd = Fraction(m.group("pd")) * (-1 if m.group("ps") == "-" else 1)
            c += sign * Fraction(m.group("pc"))
            d += sign * pd
        else:
            if m.group("num") is None and m.group("unit") is None:
                raise ValueError(f"cannot parse scalar {text!r} at {pos}")
            value = sign * Fraction(m.group("num") or 1)
            unit = m.group("unit")
            if unit == "i":
                b += value
            elif unit == "r2":
                c += value
            else:
                a += value
        pos = m.end()
    return (a, b, c, d)


def fmt_gauss(x) -> str:
    """Wire string of a Gaussian rational (sqrt2 part must vanish)."""
    if x[2] or x[3]:
        raise ValueError("fmt_gauss needs a Gaussian scalar")
    re_, im = x[0], x[1]
    if not im:
        return str(re_)
    body = f"{abs(im)} i"
    if not re_:
        return ("-" if im < 0 else "") + body
    return f"{re_} {'-' if im < 0 else '+'} {body}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def zeros(r, c):
    return [[S0] * c for _ in range(r)]


def eye(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = S1
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    rows, cols = len(a), (len(b[0]) if b else 0)
    out = [[S0] * cols for _ in range(rows)]
    for i in range(rows):
        acc = out[i]
        for k, x in enumerate(a[i]):
            if is_zero(x):
                continue
            for j, y in enumerate(b[k]):
                if not is_zero(y):
                    acc[j] = sadd(acc[j], smul(x, y))
    return out


def mat_add(a, b):
    return [[sadd(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, q):
    return [[sscale(x, q) for x in row] for row in a]


def mat_neg(a):
    return [[sneg(x) for x in row] for row in a]


def mat_power(a, k):
    out = eye(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def is_identity(a):
    return all(x == (S1 if i == j else S0)
               for i, row in enumerate(a) for j, x in enumerate(row))


def block_diag(mats):
    n = sum(len(m) for m in mats)
    out = zeros(n, n)
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            out[off + i][off:off + len(row)] = row
        off += len(m)
    return out


def inverse_gauss(a):
    """Exact inverse over Q(i) by Gauss-Jordan; raises ZeroDivisionError."""
    n = len(a)
    aug = [list(a[i]) + [S1 if i == j else S0 for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not is_zero(aug[r][col])), None)
        if piv is None:
            raise ZeroDivisionError("singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = sinv_gauss(aug[col][col])
        aug[col] = [smul(x, inv) for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and not is_zero(f):
                aug[r] = [ssub(x, smul(f, y)) for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def from_wire(payload):
    """Matrix from the {"rows", "cols", "entries"} wire form."""
    rows, cols = payload["rows"], payload["cols"]
    vals = [parse(e) for e in payload["entries"]]
    if len(vals) != rows * cols:
        raise ValueError("entry count does not match the shape")
    return [vals[i * cols:(i + 1) * cols] for i in range(rows)]


def to_wire(a):
    """Wire form of a Gaussian matrix."""
    return {"rows": len(a), "cols": len(a[0]),
            "entries": [fmt_gauss(x) for row in a for x in row]}


# ---------------------------------------------------------------------------
# structures: (lam, ((alpha, m), ...)) per eigenvalue, alpha decreasing
# ---------------------------------------------------------------------------


def copies(blocks):
    """Block sizes of every Jordan block copy, in dense order."""
    return [alpha for alpha, m in blocks for _ in range(m)]


def sum_min(blocks):
    sizes = copies(blocks)
    return sum(min(p, q) for p in sizes for q in sizes)


def expected_dim(parts):
    """Isotropy dimension: (sum_{p,q} min(l_p, l_q) - n) / 2 per eigenvalue."""
    return sum((sum_min(b) - sum(copies(b))) // 2 for _, b in parts)


def expected_codim(parts):
    """Orbit codimension: (sum_{p,q} min(l_p, l_q) + n) / 2 per eigenvalue."""
    return sum((sum_min(b) + sum(copies(b))) // 2 for _, b in parts)


def symmetric_block(n, lam):
    """Canonical symmetric block, entrywise: lam on the diagonal, 1/2 on the
    first off-diagonals, -i/2 where row + col = n - 2, +i/2 where
    row + col = n (0-based)."""
    m = zeros(n, n)
    for i in range(n):
        for j in range(n):
            x = lam if i == j else S0
            if abs(i - j) == 1:
                x = sadd(x, sc(HALF))
            if i + j == n - 2:
                x = sadd(x, sc(0, -HALF))
            elif i + j == n:
                x = sadd(x, sc(0, HALF))
            m[i][j] = x
    return m


def _per_copy(parts, fn):
    return block_diag([fn(alpha, lam) for lam, blocks in parts
                       for alpha in copies(blocks)])


def symmetric_form(parts):
    return _per_copy(parts, symmetric_block)


def jordan_form(parts):
    def block(n, lam):
        m = zeros(n, n)
        for i in range(n):
            m[i][i] = lam
            if i + 1 < n:
                m[i][i + 1] = S1
        return m
    return _per_copy(parts, block)


def backward_form(parts):
    def block(n, _lam):
        m = zeros(n, n)
        for i in range(n):
            m[i][n - 1 - i] = S1
        return m
    return _per_copy(parts, block)


def transition_form(parts):
    """(I + i E) / sqrt2 per copy, i.e. sqrt2/2 and i sqrt2/2 entries."""
    def block(n, _lam):
        m = zeros(n, n)
        for i in range(n):
            m[i][i] = sadd(m[i][i], sc(0, 0, HALF))
            j = n - 1 - i
            m[i][j] = sadd(m[i][j], sc(0, 0, 0, HALF))
        return m
    return _per_copy(parts, block)


def interleave_index(blocks):
    """perm[t] = copy-major index of Toeplitz index t (one eigenvalue)."""
    perm = []
    off = 0
    for alpha, m in blocks:
        for u in range(alpha):
            for k in range(m):
                perm.append(off + k * alpha + u)
        off += alpha * m
    return perm


def interleave_form(parts):
    """Permutation matrix whose column t is e_{perm[t]}, part by part."""
    mats = []
    for _, blocks in parts:
        perm = interleave_index(blocks)
        m = zeros(len(perm), len(perm))
        for t, p in enumerate(perm):
            m[p][t] = S1
        mats.append(m)
    return block_diag(mats)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def first_dense_failure(parts, q, s=None):
    """None when Q^T Q = I and Q^T S Q = S hold exactly, else a reason."""
    n = sum(sum(copies(b)) for _, b in parts)
    if len(q) != n or any(len(row) != n for row in q):
        return f"shape is not {n}x{n}"
    qt = transpose(q)
    if not is_identity(mat_mul(qt, q)):
        return "Q^T Q != I"
    s = s if s is not None else symmetric_form(parts)
    if mat_mul(qt, mat_mul(s, q)) != s:
        return "Q^T S Q != S"
    return None


def to_toeplitz(blocks, q):
    """Toeplitz coordinates Omega^T P^{-1} Q P Omega of a Gaussian dense Q,
    using P^{-1} Q P = (I - i E) Q (I + i E) / 2."""
    parts = [(S0, blocks)]
    e = backward_form(parts)
    n = len(e)
    ie = [[smul(x, sc(0, 1)) for x in row] for row in e]
    left = [[ssub(S1 if i == j else S0, ie[i][j]) for j in range(n)]
            for i in range(n)]
    right = [[sadd(S1 if i == j else S0, ie[i][j]) for j in range(n)]
             for i in range(n)]
    x = mat_scale(mat_mul(mat_mul(left, q), right), HALF)
    perm = interleave_index(blocks)
    return [[x[perm[a]][perm[b]] for b in range(n)] for a in range(n)]


def _groups(blocks):
    """(alpha, m, offset) per group in Toeplitz coordinates."""
    out, off = [], 0
    for alpha, m in blocks:
        out.append((alpha, m, off))
        off += alpha * m
    return out


def assemble(blocks, coeffs):
    """Dense Toeplitz-coordinate matrix from {(r, s): [m_r x m_s, ...]}:
    cell (u, v) of block (r, s) is coefficient v - u - max(0, a_s - a_r)."""
    groups = _groups(blocks)
    n = sum(a * m for a, m in blocks)
    out = zeros(n, n)
    for r, (ar, mr, r0) in enumerate(groups):
        for s, (as_, ms, s0) in enumerate(groups):
            shift = max(0, as_ - ar)
            entry = coeffs[(r, s)]
            for u in range(ar):
                for v in range(as_):
                    j = v - u - shift
                    if not 0 <= j < len(entry):
                        continue
                    for i in range(mr):
                        for l in range(ms):
                            out[r0 + u * mr + i][s0 + v * ms + l] = entry[j][i][l]
    return out


def flip_member(blocks, x):
    """True when F X^T F X = I for the block backward form F."""
    flip = []
    for alpha, m, off in _groups(blocks):
        for u in range(alpha):
            for i in range(m):
                flip.append(off + (alpha - 1 - u) * m + i)
    n = len(flip)
    y = [[x[flip[b]][flip[a]] for b in range(n)] for a in range(n)]
    return is_identity(mat_mul(y, x))


def catalan(n):
    """a_n = -C(2n, n) / ((n + 1) 2^(2n + 1))."""
    return Fraction(-comb(2 * n, n), (n + 1) * 2 ** (2 * n + 1))


def coupling_generator(blocks, p, t, k, f):
    """Coefficients of the coupling generator with identity diagonal data:
    F at (t, p, k), -F^T at (p, t, k), Catalan corrections a_{n-1} (F^T F)^n
    and a_{n-1} (F F^T)^n at offsets n (2k + alpha_p - alpha_t)."""
    alphas = [a for a, _ in blocks]
    mults = [m for _, m in blocks]
    step = 2 * k + alphas[p] - alphas[t]
    ft = transpose(f)
    coeffs = {}
    for r in range(len(blocks)):
        for s in range(len(blocks)):
            depth = min(alphas[r], alphas[s])
            coeffs[(r, s)] = [zeros(mults[r], mults[s]) for _ in range(depth)]
        coeffs[(r, r)][0] = eye(mults[r])
    for g, prod in ((p, mat_mul(ft, f)), (t, mat_mul(f, ft))):
        n = 1
        while n * step <= alphas[g] - 1:
            coeffs[(g, g)][n * step] = mat_scale(mat_power(prod, n), catalan(n - 1))
            n += 1
    coeffs[(t, p)][k] = f
    coeffs[(p, t)][k] = mat_neg(ft)
    return coeffs


def diagonal_generator(blocks, skews):
    """W_0 = I, W_n = (Z_n - sum_{j=1}^{n-1} W_j^T W_{n-j}) / 2 per group."""
    coeffs = {}
    for r, (alpha, m) in enumerate(blocks):
        for s, (beta, ms) in enumerate(blocks):
            coeffs[(r, s)] = [zeros(m, ms) for _ in range(min(alpha, beta))]
        w = [eye(m)]
        for n in range(1, alpha):
            acc = skews[(r, n)]
            for j in range(1, n):
                acc = mat_add(acc, mat_neg(mat_mul(transpose(w[j]), w[n - j])))
            w.append(mat_scale(acc, HALF))
        coeffs[(r, r)] = w
    return coeffs
