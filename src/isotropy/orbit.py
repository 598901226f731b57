"""Congruence-orbit geometry: codimension counts and a tangent oracle.

The codimension of the orthogonal-congruence orbit of a canonical
symmetric matrix has a closed formula in the structure data.  An
independent check comes from the tangent space at S: the image of the
linear map sending a skew matrix X to X^T S + S X inside the symmetric
matrices.  Both are computed exactly and must always agree.

The oracle ranks that map one pair of components at a time.  The
components are the connected components of the nonzero pattern of S
(for a canonical S, its direct-sum blocks; a dense S is one component).
The entry of X at (u, v) only reaches image entries (i, j) whose unordered
component pair {comp(i), comp(j)} equals {comp(u), comp(v)}, so the map
is block diagonal after a permutation and its rank is the sum of the
ranks of the blocks.  The block of a pair A, B (A != B) is the Sylvester
map Y -> S_A Y - Y S_B on the |A| x |B| block Y of X, the block of A
with itself is X -> S_A X - X S_A on skew X, and neither reads S outside
A and B: a pair's rank is a function of its local data.

That local data is S on each of the two components, read as the integer
grid of S over its one denominator (matrices._scaled), since scaling a
linear map keeps its rank, and shifted by a multiple of I, which leaves
S X - X S unchanged: each component's grid is taken less its first
diagonal entry, and the pair keeps the difference of the two entries.
So two blocks of given sizes and one eigenvalue have the same key
whatever the eigenvalue is.  _pair_rank builds its system from that key
alone, as rows of integer 4-tuples, and ranks it by the fraction-free
kernel of matrices.py.  As it reads nothing else, a rank cached under a
key is exact for every pair with that key, in any structure: the key
holds the full grids, never a digest of them.  The cache keeps 1024
ranks; a ladder of canonical structures up to n = 18 needs a few dozen.
Acceptance check 7 (the commutant: the kernel of X -> S X - X S on all
X) goes through the same routine over ordered pairs, with the block of A
with itself taken on all X.
"""

from functools import lru_cache

from .errors import IntegrityError, ParameterError, StructureError
from .forms import MultiSegreStructure, SegreStructure, symmetric_form
from .matrices import _Z4, ExactMatrix, _fraction_free, _scaled
from .stabilizer import describe_isotropy


class OrbitReport:
    """All counts attached to one orbit, cross-checked on construction."""

    __slots__ = ("structure", "n", "codim_formula", "isotropy_dim",
                 "tangent_dim", "oracle_codim")

    def __init__(self, structure, n, codim_formula, isotropy_dim,
                 tangent_dim, oracle_codim):
        if codim_formula != n + isotropy_dim:
            raise IntegrityError(
                f"codimension {codim_formula} != {n} + {isotropy_dim}")
        if tangent_dim + oracle_codim != n * (n + 1) // 2:
            raise IntegrityError(
                f"tangent {tangent_dim} + codim {oracle_codim} != "
                f"{n * (n + 1) // 2}")
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "codim_formula", codim_formula)
        object.__setattr__(self, "isotropy_dim", isotropy_dim)
        object.__setattr__(self, "tangent_dim", tangent_dim)
        object.__setattr__(self, "oracle_codim", oracle_codim)

    def __setattr__(self, name, value):
        raise AttributeError("OrbitReport is immutable")

    def __eq__(self, other):
        if not isinstance(other, OrbitReport):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def __repr__(self):
        return (f"OrbitReport(n={self.n}, codim={self.codim_formula}, "
                f"isotropy_dim={self.isotropy_dim})")


def codim_formula(structure) -> int:
    """Orbit codimension from the structure data alone.

    Single eigenvalue: sum over groups of alpha_r m_r times
    ((m_r + 1)/2 plus the multiplicities of all deeper groups).
    Several eigenvalues add up part by part.
    """
    if isinstance(structure, MultiSegreStructure):
        return sum(codim_formula(p) for p in structure.parts)
    if not isinstance(structure, SegreStructure):
        raise StructureError(
            "expected SegreStructure or MultiSegreStructure, "
            f"got {type(structure).__name__}")
    total = 0
    for r, (alpha, m) in enumerate(structure.blocks):
        deeper = sum(structure.mults[s] for s in range(r))
        total += alpha * m * (m + 1) // 2 + alpha * m * deeper
    return total


def _components(s: ExactMatrix) -> list:
    """Label each index of the symmetric matrix s by the connected component
    of the nonzero pattern of s that holds it: its smallest index."""
    grid, _ = _scaled(s)
    n = s.rows
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(grid):
        for j in range(i + 1, n):
            if any(row[j]):
                a, b = find(i), find(j)
                if a != b:
                    # the smaller root wins, so each root is its set's minimum
                    parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def _component_grids(s: ExactMatrix) -> list:
    """(c, S - c I) on each component of s, c the component's first diagonal
    entry, as integer grids over the one denominator of s (matrices._scaled):
    S at that component's rows and columns, in index order.  Components come
    in order of their smallest index."""
    grid, _ = _scaled(s)
    members: dict = {}
    for i, label in enumerate(_components(s)):
        members.setdefault(label, []).append(i)
    out = []
    for idx in members.values():
        c = grid[idx[0]][idx[0]]
        out.append((c, tuple(
            tuple(_diff(grid[i][j], c) if i == j else grid[i][j] for j in idx)
            for i in idx)))
    return out


def _diff(x, y):
    """x - y, for integer 4-tuples."""
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


def _add(row, col, sign, x):
    """row[col] += sign * x, for integer 4-tuples."""
    if any(x):
        r = row[col]
        row[col] = (r[0] + sign * x[0], r[1] + sign * x[1],
                    r[2] + sign * x[2], r[3] + sign * x[3])


@lru_cache(maxsize=1024)
def _pair_rank(a: tuple, b: tuple, shift: tuple, skew: bool) -> int:
    """Exact rank of the part of X -> S X - X S that couples two components
    A and B of S, given as integer grids over one denominator: a is S - c I
    on A, b is S - (c + shift) I on B, for some scalar c.

    S X - X S does not change when c I is taken from S, so without skew this
    is the Sylvester map Y -> a Y - Y (b + shift I) on all |A| x |B|
    matrices Y, the block of X between A and B.  With skew, B is A (b is a,
    shift is 0) and the map takes the skew Y to the upper triangle of its
    symmetric image.  The system is built from the key alone and ranked by
    _fraction_free, so a cached rank is the rank of every pair with this
    key, such as two blocks of given sizes and one eigenvalue, whatever the
    eigenvalue.
    """
    na, nb = len(a), len(b)
    rows = []
    for k in range(na):
        # with skew the image is symmetric: its upper triangle holds it all
        for l in range(k if skew else 0, nb):
            # (a Y - Y b - shift Y)[k][l]; column p * nb + q is the unit E_pq
            row = [_Z4] * (na * nb)
            for p in range(na):
                _add(row, p * nb + l, 1, a[k][p])
            for q in range(nb):
                _add(row, k * nb + q, -1, b[q][l])
            _add(row, k * nb + l, -1, shift)
            if skew:
                # column (u, v), u < v, is the skew unit E_uv - E_vu
                row = [_diff(row[u * na + v], row[v * na + u])
                       for u in range(na) for v in range(u + 1, na)]
            rows.append(row)
    return _fraction_free(rows)[0]


def _pairwise_rank(s: ExactMatrix, skew: bool) -> int:
    """Exact rank of X -> S X - X S for a symmetric s, summed over the pairs
    of components of s: on skew X into symmetric matrices over unordered
    pairs (the image's block between B and A is the transpose of the one
    between A and B), or on all X over ordered pairs."""
    grids = _component_grids(s)
    total = 0
    for x, (ca, a) in enumerate(grids):
        for y, (cb, b) in enumerate(grids):
            if x == y:
                total += _pair_rank(a, a, _Z4, skew)
            elif x < y or not skew:
                total += _pair_rank(a, b, _diff(cb, ca), False)
    return total


def tangent_oracle(s: ExactMatrix):
    """Exact tangent data at a symmetric matrix S.

    Vectorizes X -> X^T S + S X from skew to symmetric matrices over the
    canonical coordinate bases (strictly upper entries; upper triangle)
    and returns (tangent_dim, oracle_codim, kernel_dim) from its exact
    rank, summed over the pairs of components of S.  Works for any exact
    symmetric S, canonical or not.
    """
    if not s.is_square:
        raise ParameterError(f"matrix is {s.rows}x{s.cols}, need square")
    if not s.is_symmetric:
        raise ParameterError("tangent oracle needs a symmetric matrix")
    n = s.rows
    # X^T S + S X = S X - X S for skew X
    tangent_dim = _pairwise_rank(s, True)
    kernel_dim = n * (n - 1) // 2 - tangent_dim
    oracle_codim = n * (n + 1) // 2 - tangent_dim
    return tangent_dim, oracle_codim, kernel_dim


def consistency_check(structure) -> OrbitReport:
    """Compare the formula, the solver dimension, and the tangent oracle.

    Any disagreement is an internal fault and raises IntegrityError; on
    success the assembled OrbitReport comes back.
    """
    n = structure.n
    codim = codim_formula(structure)
    isotropy_dim = describe_isotropy(structure).dimension
    tangent_dim, oracle_codim, kernel_dim = tangent_oracle(
        symmetric_form(structure))
    if codim != oracle_codim:
        raise IntegrityError(
            f"formula codim {codim} != tangent oracle codim {oracle_codim}")
    if kernel_dim != isotropy_dim:
        raise IntegrityError(
            f"tangent kernel {kernel_dim} != isotropy dim {isotropy_dim}")
    return OrbitReport(structure, n, codim, isotropy_dim,
                       tangent_dim, oracle_codim)
