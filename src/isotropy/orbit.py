"""Congruence-orbit geometry: codimension counts and a tangent oracle.

The codimension of the orthogonal-congruence orbit of a canonical
symmetric matrix has a closed formula in the structure data, read beside
the structure (forms.codim_formula), so no solver is needed.  An
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
grid of S over its one denominator (ExactMatrix._g), since scaling a
linear map keeps its rank, and shifted by a multiple of I, which leaves
S X - X S unchanged: each component's grid is taken less its first
diagonal entry, and the pair keeps the difference of the two entries.
So two blocks of given sizes and one eigenvalue have the same key
whatever the eigenvalue is.  _pair_rank builds its system from that key
alone.  As it reads nothing else, a rank cached under a key is exact for
every pair with that key, in any structure: the key holds the full
grids, never a digest of them.  The cache keeps 1024 ranks; a ladder of
canonical structures up to n = 18 needs a few dozen.
Acceptance check 7 (the commutant: the kernel of X -> S X - X S on all
X) goes through the same routine over ordered pairs, with the block of A
with itself taken on all X.

Equal keys give equal ranks, so the components come in groups of m equal
copies, (key, m), and _pairwise_rank ranks each distinct pair of groups
once, weighted by the component pairs it stands for: on skew X a group
has m self-pairs and C(m, 2) pairs of two copies, two groups m_x m_y
pairs; on all X each ordered pair of groups has m_x m_y.  Two feeds build
the groups.  The dense feed (_component_grids, for tangent_oracle and
check 7) finds the components of any symmetric S by union-find over its
nonzero pattern.  The structure feed (_structure_grids, for
consistency_check) reads one group per eigenvalue row of the layout from
the cached canonical block, rescaled to the lcm of the block denominators
as S lays it out: it builds no S, and its keys are the dense feed's on
symmetric_form of the same structure.

A pair system is built once, as sparse rows of integer 4-tuples
(_pair_rows), and first ranked over F_p, for one prime p = 1 (mod 8),
where -1 and 2 have square roots: sending i and sqrt2 to them is a ring
map Z[i, sqrt2] -> F_p, so each minor of the system's image is the image
of a minor, and the rank over F_p is at most the rank, which is at most
the number of rows or of columns.  A rank over F_p equal to the smaller of
the two is therefore the rank.  That is tried only where full rank is
expected: a canonical block's skew self-pair (no skew matrix commutes with
it), and two components apart in eigenvalue (their Sylvester map is
invertible), told apart by their traces.  Two components of one eigenvalue
always have a Sylvester kernel, so their rows, and any the prime leaves
unsettled, go to the fraction-free kernel of matrices.py.  The rule and
the prime decide the time taken, never the rank.
"""

from collections import Counter
from functools import lru_cache
from math import lcm

from .errors import IntegrityError, ParameterError
from .forms import (_layout, _symmetric_block, codim_formula,
                    solution_dimension)
from .matrices import _Z4, ExactMatrix, _fraction_free, _rescaled


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


def _components(s: ExactMatrix) -> list:
    """Label each index of the symmetric matrix s by the connected component
    of the nonzero pattern of s that holds it: its smallest index."""
    grid = s._g
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


def _shifted(grid) -> tuple:
    """(c, grid - c I) for a square grid of integer 4-tuples, c its first
    diagonal entry."""
    c = grid[0][0]
    return c, tuple(tuple(_diff(x, c) if i == j else x
                          for j, x in enumerate(row))
                    for i, row in enumerate(grid))


def _component_grids(s: ExactMatrix) -> list:
    """The dense feed of _pairwise_rank: [((c, S - c I), m)] over the
    components of s, c the component's first diagonal entry, as integer
    grids over the one denominator of s (its stored grid): S at that
    component's rows and columns, in index order.  Equal (c, grid) are one
    group of m copies; groups come in order of their smallest index."""
    grid = s._g
    members: dict = {}
    for i, label in enumerate(_components(s)):
        members.setdefault(label, []).append(i)
    return list(Counter(_shifted([[grid[i][j] for j in idx] for i in idx])
                        for idx in members.values()).items())


def _structure_grids(structure) -> list:
    """The structure feed of _pairwise_rank: the groups of
    _component_grids(symmetric_form(structure)), without building S.  Each
    eigenvalue row (lam, alpha, m) is one group: its block, rescaled to the
    lcm of the block denominators as direct_sum lays it out in S.  That
    holds since a canonical block is connected (its first off-diagonals
    hold 1/2), and two rows never have equal keys (equal sizes mean
    distinct eigenvalues, and so distinct c)."""
    rows = [(m, _symmetric_block(alpha, lam))
            for lam, alpha, m, _ in _layout(structure)]
    den = lcm(*(b._den for _, b in rows))
    return [(_shifted(_rescaled(b._g, den // b._den)), m) for m, b in rows]


def _diff(x, y):
    """x - y, for integer 4-tuples."""
    return (x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3])


# F_p for one prime p = 1 (mod 8), below 2^30 so that a residue is one
# digit of a Python int; _IP^2 = -1 and _RP^2 = 2 in F_p
_P = 1073741689
_IP = 206100978
_RP = 344995499


def _mod_p(x):
    """The image in F_p of the integer 4-tuple x under i -> _IP and
    sqrt2 -> _RP, a ring map Z[i, sqrt2] -> F_p."""
    return (x[0] + x[1] * _IP + (x[2] + x[3] * _IP) * _RP) % _P


def _apart(a, b, shift):
    """Whether the two components of a pair key have different mean
    eigenvalues, tr S_A / |A| != tr S_B / |B|: for canonical blocks, whose
    trace is size times eigenvalue, whether their eigenvalues differ."""
    na, nb = len(a), len(b)
    return any(nb * sum(a[k][k][c] for k in range(na))
               != na * (sum(b[k][k][c] for k in range(nb)) + nb * shift[c])
               for c in range(4))


def _pair_rows(a, b, shift, skew):
    """The pair system of _pair_rank, built from the nonzeros of a and b:
    one row per image entry, a dict from column u * nb + v, the unit E_uv
    of Y, to a nonzero integer 4-tuple.  With skew (b is a) the rows are the
    image's upper triangle, and column u * nb + v, u < v, is E_uv - E_vu."""
    nb = len(b)
    a_rows = [[(p, x) for p, x in enumerate(r) if any(x)] for r in a]
    b_cols = [[(q, b[q][l]) for q in range(nb) if any(b[q][l])]
              for l in range(nb)]
    rows = []
    for k in range(len(a)):
        for l in range(k if skew else 0, nb):
            # (a Y - Y b - shift Y)[k][l] as (u, v, sign, x), sign * x the
            # coefficient of Y_uv; with skew, Y_uv = -Y_vu and Y_uu = 0
            row = {}
            for u, v, sign, x in ([(p, l, 1, x) for p, x in a_rows[k]]
                                  + [(k, q, -1, x) for q, x in b_cols[l]]
                                  + [(k, l, -1, shift)]):
                if skew and u >= v:
                    if u == v:
                        continue
                    u, v, sign = v, u, -sign
                r = row.get(u * nb + v, _Z4)
                row[u * nb + v] = (r[0] + sign * x[0], r[1] + sign * x[1],
                                   r[2] + sign * x[2], r[3] + sign * x[3])
            rows.append({c: x for c, x in row.items() if any(x)})
    return rows


def _rank_mod_p(rows, bound):
    """The rank over F_p of the sparse rows, dicts from column to nonzero
    residue (eliminated in place), or bound once it reaches it.

    Each step takes the sparsest row left as the pivot row, and in it the
    column that the fewest other rows hold, and clears that column from
    those rows: on these banded systems the choice keeps the fill small."""
    held = {}
    for r, row in enumerate(rows):
        for c in row:
            held.setdefault(c, set()).add(r)
    left = set(range(len(rows)))
    rank = 0
    while rank < bound and left:
        r = min(left, key=lambda r: len(rows[r]))
        left.remove(r)
        prow = rows[r]
        for c in prow:
            held[c].remove(r)
        if not prow:
            continue
        c = min(prow, key=lambda c: len(held[c]))
        inv = pow(prow.pop(c), -1, _P)
        for t in held.pop(c):
            row = rows[t]
            f = row.pop(c) * inv % _P
            for j, x in prow.items():
                y = (row.get(j, 0) - f * x) % _P
                if y:
                    if j not in row:
                        held[j].add(t)
                    row[j] = y
                else:
                    del row[j]
                    held[j].remove(t)
        rank += 1
    return rank


@lru_cache(maxsize=1024)
def _pair_rank(a: tuple, b: tuple, shift: tuple, skew: bool) -> int:
    """Exact rank of the part of X -> S X - X S that couples two components
    A and B of S, given as integer grids over one denominator: a is S - c I
    on A, b is S - (c + shift) I on B, for some scalar c.

    S X - X S does not change when c I is taken from S, so without skew this
    is the Sylvester map Y -> a Y - Y (b + shift I) on all |A| x |B|
    matrices Y, the block of X between A and B.  With skew, B is A (b is a,
    shift is 0) and the map takes the skew Y to the upper triangle of its
    symmetric image.  The system is built from the key alone, so a cached
    rank is the rank of every pair with this key, such as two blocks of
    given sizes and one eigenvalue, whatever the eigenvalue.

    The system is built once, by _pair_rows.  Where full rank is expected,
    on a skew self-pair and on components apart in eigenvalue (_apart), its
    rows are first ranked over F_p (_mod_p is a ring map, so rank_p <= rank
    <= min(rows, cols)), and a rank_p of min(rows, cols) is returned as the
    rank.  Otherwise, on two components of one eigenvalue, which always
    share a Sylvester kernel, or when the prime falls short, the same rows,
    laid out over the columns they use, are ranked by _fraction_free.
    """
    rows = _pair_rows(a, b, shift, skew)
    if skew or _apart(a, b, shift):
        na, nb = len(a), len(b)
        bound = min(len(rows), na * (na - 1) // 2 if skew else na * nb)
        if _rank_mod_p([{c: y for c, x in row.items() if (y := _mod_p(x))}
                        for row in rows], bound) == bound:
            return bound
    used = sorted({c for row in rows for c in row})
    return _fraction_free([[row.get(c, _Z4) for c in used]
                           for row in rows])[0]


def _pairwise_rank(groups: list, skew: bool) -> int:
    """Exact rank of X -> S X - X S for a symmetric S given as groups of
    equal components [((c, S - c I), m)] (_component_grids or
    _structure_grids), summed over the pairs of components: on skew X into
    symmetric matrices over unordered pairs (the image's block between B
    and A is the transpose of the one between A and B), or on all X over
    ordered pairs.  Each distinct pair of groups is ranked once, weighted by
    the component pairs it stands for (module docstring)."""
    total = 0
    for x, ((ca, a), mx) in enumerate(groups):
        for y, ((cb, b), my) in enumerate(groups):
            if x != y:
                if x < y or not skew:
                    total += mx * my * _pair_rank(a, b, _diff(cb, ca), False)
            elif not skew:
                total += mx * mx * _pair_rank(a, a, _Z4, False)
            else:
                total += mx * _pair_rank(a, a, _Z4, True)
                if mx > 1:
                    total += mx * (mx - 1) // 2 * _pair_rank(a, a, _Z4, False)
    return total


def _tangent_data(n: int, tangent_dim: int) -> tuple:
    """(tangent_dim, oracle_codim, kernel_dim) at an n x n S: skew X has
    n(n - 1)/2 coordinates, symmetric images n(n + 1)/2."""
    return (tangent_dim, n * (n + 1) // 2 - tangent_dim,
            n * (n - 1) // 2 - tangent_dim)


def tangent_oracle(s: ExactMatrix):
    """Exact tangent data at a symmetric matrix S.

    Vectorizes X -> X^T S + S X from skew to symmetric matrices over the
    canonical coordinate bases (strictly upper entries; upper triangle)
    and returns (tangent_dim, oracle_codim, kernel_dim) from its exact
    rank, summed over the pairs of components of S.  Works for any exact
    symmetric S, canonical or not.
    """
    if not isinstance(s, ExactMatrix):
        raise ParameterError(
            f"tangent_oracle needs an ExactMatrix, got {type(s).__name__}")
    if not s.is_square:
        raise ParameterError(f"matrix is {s.rows}x{s.cols}, need square")
    if not s.is_symmetric:
        raise ParameterError("tangent oracle needs a symmetric matrix")
    # X^T S + S X = S X - X S for skew X
    return _tangent_data(s.rows, _pairwise_rank(_component_grids(s), True))


def consistency_check(structure) -> OrbitReport:
    """Compare the formula, the solver dimension, and the tangent oracle.

    The oracle's rank is read from the structure's blocks (_structure_grids)
    and equals tangent_oracle(symmetric_form(structure)), without building
    S.  Any disagreement is an internal fault and raises IntegrityError; on
    success the assembled OrbitReport comes back.  codim_formula checks the
    structure's type first.
    """
    codim = codim_formula(structure)
    isotropy_dim = solution_dimension(structure)
    tangent_dim, oracle_codim, kernel_dim = _tangent_data(
        structure.n, _pairwise_rank(_structure_grids(structure), True))
    if codim != oracle_codim:
        raise IntegrityError(
            f"formula codim {codim} != tangent oracle codim {oracle_codim}")
    if kernel_dim != isotropy_dim:
        raise IntegrityError(
            f"tangent kernel {kernel_dim} != isotropy dim {isotropy_dim}")
    return OrbitReport(structure, structure.n, codim, isotropy_dim,
                       tangent_dim, oracle_codim)
