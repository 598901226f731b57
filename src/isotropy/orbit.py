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
ranks of the blocks.  S is read as its integer grid over its one
denominator (matrices._scaled), so every block is built directly as rows
of integer 4-tuples and ranked by the fraction-free kernel of
matrices.py; scaling a linear map keeps its rank.
"""

from .errors import IntegrityError, ParameterError, StructureError
from .forms import MultiSegreStructure, SegreStructure, symmetric_form
from .matrices import ExactMatrix, _fraction_free, _scaled
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


def _signed_sum(terms) -> tuple:
    """Sum of the integer 4-tuples x over the (sign, x) in terms."""
    a = b = c = d = 0
    for sign, (x0, x1, x2, x3) in terms:
        a += sign * x0
        b += sign * x1
        c += sign * x2
        d += sign * x3
    return (a, b, c, d)


def _split_rank(rows, columns, key, entry) -> int:
    """Exact rank of the matrix with integer 4-tuple entries entry(row, col),
    given that an entry vanishes unless key(row) == key(col).

    Rows and columns are grouped by key, each group's subsystem is ranked
    and the ranks are summed; equal subsystems are ranked once per call.
    """
    row_groups: dict = {}
    for r in rows:
        row_groups.setdefault(key(r), []).append(r)
    col_groups: dict = {}
    for c in columns:
        col_groups.setdefault(key(c), []).append(c)
    ranks: dict = {}
    total = 0
    for k, cols in col_groups.items():
        rws = row_groups.get(k)
        if not rws:
            continue
        system = tuple(tuple(entry(r, c) for c in cols) for r in rws)
        if system not in ranks:
            ranks[system] = _fraction_free([list(r) for r in system])[0]
        total += ranks[system]
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
    comp = _components(s)
    si, _ = _scaled(s)
    skew_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sym_pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def component_pair(pair):
        a, b = comp[pair[0]], comp[pair[1]]
        return (a, b) if a <= b else (b, a)

    def image(sym, skew):
        # entry (i, j) of the image of E_uv - E_vu;
        # X^T S + S X = S X - X S for skew X
        (i, j), (u, v) = sym, skew
        terms = []
        if j == u:
            terms.append((-1, si[i][v]))
        if j == v:
            terms.append((1, si[i][u]))
        if i == u:
            terms.append((-1, si[v][j]))
        if i == v:
            terms.append((1, si[u][j]))
        return _signed_sum(terms)

    rank = _split_rank(sym_pairs, skew_pairs, component_pair, image)
    kernel_dim = len(skew_pairs) - rank
    tangent_dim = rank
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
