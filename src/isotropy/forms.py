"""Block structures, closed forms, the dense layout and canonical matrices.

A SegreStructure fixes one eigenvalue lam and rows (alpha_r, m_r): m_r
copies of the size-alpha_r block, alpha strictly decreasing after
normalization.  A MultiSegreStructure joins several with distinct
eigenvalues.  A SegreStructure is its own single part, so code that only
sums or concatenates over eigenvalues walks structure.parts.  The closed
forms (solution_dimension, free_parameter_count, commutant_dimension and
codim_formula) are sums over one walk of the groups of the parts, _groups.

This module alone owns the dense layout (_layout: parts, then rows by
decreasing alpha, then copies) and the interleaving permutation Omega
(_omega_indices), which regroups each eigenvalue row from "m copies of
size alpha" to "alpha positions of size m".  From them we build, all
exactly:

  * the Jordan form J (direct sum of Jordan blocks),
  * the symmetric canonical form S (direct sum of symmetric blocks),
  * the transition P with S = P J P^{-1}, entries in (1/sqrt2) Q(i),
  * the dense backward identity E (per-block reversals),
  * Omega as a matrix, and
  * the block-coordinate backward identity F = Omega^T E Omega.

symmetric_block lays its block out as an integer grid over one
denominator, and transition_matrix builds its block from entries formed
before the walk; that the symmetric block equals P J P^{-1} is checked
by the tests, not at run time.  symmetric_block builds each
(alpha, lam) block once and symmetric_form each S once per structure,
handing out the same immutable object.  E, Omega and F are laid out from
index lists, and Q = P Omega X Omega^T P^{-1} is formed from a block
Toeplitz X by index too (_conjugate_by_transition), without building P.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, StructureError
from .matrices import _Z4, ExactMatrix, _permutation, _reduced, direct_sum
from .scalars import (ExactScalar, IMAG, ONE, SQRT2, ZERO, _coerce,
                      parse_scalar)


def _as_eigenvalue(lam) -> ExactScalar:
    if isinstance(lam, str):
        return parse_scalar(lam)
    s = _coerce(lam)
    if s is NotImplemented:
        raise StructureError(f"cannot use {type(lam).__name__} as an eigenvalue")
    return s


def _positive_count(value, what) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    if value <= 0:
        raise StructureError(f"{what} must be positive, got {value}")
    return value


class SegreStructure:
    """One eigenvalue with its block sizes; normalized on construction.

    Duplicate sizes are merged (multiplicities added) and rows are sorted
    by decreasing size; each size and multiplicity must be a positive int.
    """

    __slots__ = ("lam", "blocks", "alphas", "mults", "n", "_hash")

    def __init__(self, lam, blocks: Iterable[Sequence[int]]):
        merged: dict[int, int] = {}
        for pair in blocks:
            alpha = _positive_count(pair[0], "block size")
            m = _positive_count(pair[1], "multiplicity")
            merged[alpha] = merged.get(alpha, 0) + m
        if not merged:
            raise StructureError("a structure needs at least one block")
        blocks = tuple(sorted(merged.items(), key=lambda t: -t[0]))
        object.__setattr__(self, "lam", _as_eigenvalue(lam))
        object.__setattr__(self, "blocks", blocks)
        # derived once: the solver and the form constructors read these
        # on every block
        object.__setattr__(self, "alphas", tuple(a for a, _ in blocks))
        object.__setattr__(self, "mults", tuple(m for _, m in blocks))
        object.__setattr__(self, "n", sum(a * m for a, m in blocks))
        object.__setattr__(self, "_hash", hash((self.lam, blocks)))

    def __setattr__(self, name, value):
        raise AttributeError("SegreStructure is immutable")

    @property
    def parts(self) -> tuple:
        """(self,): one eigenvalue is its own single part."""
        return (self,)

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    def depth(self, r: int, s: int) -> int:
        """Coefficient count of block (r, s): min(alpha_r, alpha_s)."""
        return min(self.blocks[r][0], self.blocks[s][0])

    def __eq__(self, other):
        if not isinstance(other, SegreStructure):
            return NotImplemented
        return self is other or (self.lam == other.lam
                                 and self.blocks == other.blocks)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"({a},{m})" for a, m in self.blocks)
        return f"SegreStructure(lam={self.lam}, blocks=[{body}])"


class MultiSegreStructure:
    """Several SegreStructures with pairwise distinct eigenvalues."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[SegreStructure]):
        parts = tuple(parts)
        if not parts:
            raise StructureError("need at least one part")
        seen = set()
        for p in parts:
            if not isinstance(p, SegreStructure):
                raise StructureError("parts must be SegreStructure instances")
            if p.lam in seen:
                raise StructureError(f"duplicate eigenvalue {p.lam}")
            seen.add(p.lam)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash(parts))

    def __setattr__(self, name, value):
        raise AttributeError("MultiSegreStructure is immutable")

    @property
    def n(self) -> int:
        return sum(p.n for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, MultiSegreStructure):
            return NotImplemented
        return self is other or self.parts == other.parts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"MultiSegreStructure({list(self.parts)!r})"


Structure = SegreStructure | MultiSegreStructure


def _require_structure(structure):
    """The one type check of a structure argument."""
    if not isinstance(structure, Structure):
        raise StructureError(
            "expected SegreStructure or MultiSegreStructure, "
            f"got {type(structure).__name__}")


def _require_square(structure, mat: ExactMatrix):
    """The one check that a dense matrix is n x n for structure."""
    n = structure.n
    if mat.rows != n or mat.cols != n:
        raise DimensionMismatchError(
            f"matrix is {mat.rows}x{mat.cols}, structure needs {n}x{n}")


# ---------------------------------------------------------------------------
# closed forms in the structure data
# ---------------------------------------------------------------------------


def _groups(structure: Structure) -> Iterator[tuple]:
    """(alpha, m, below) for each group of each part, after the type check:
    below is the sum of the multiplicities of the part's longer groups."""
    _require_structure(structure)
    for part in structure.parts:
        below = 0
        for alpha, m in part.blocks:
            yield alpha, m, below
            below += m


def solution_dimension(structure: Structure) -> int:
    """Dimension of the isotropy group: sum over the groups of every part
    of alpha_r m_r ((m_r - 1)/2 + below_r)."""
    return sum(alpha * m * (m - 1) // 2 + alpha * m * below
               for alpha, m, below in _groups(structure))


def free_parameter_count(structure: Structure) -> dict:
    """Free entries by kind, summed over the parts; their total plus the
    seed manifolds equals solution_dimension."""
    groups = list(_groups(structure))
    return {"sub_blocks": sum(alpha * m * below for alpha, m, below in groups),
            "skews": sum((alpha - 1) * m * (m - 1) // 2
                         for alpha, m, _ in groups),
            "seed_manifold": sum(m * (m - 1) // 2 for _, m, _ in groups)}


def commutant_dimension(structure: Structure) -> int:
    """Free coefficients of the matrices commuting with the Jordan layout,
    per part the sum over r, s of m_r m_s min(alpha_r, alpha_s), summed
    over the parts.  As alpha decreases, the min is alpha_r for each longer
    group s, so that is the sum over r of alpha_r m_r (m_r + 2 below_r)."""
    return sum(alpha * m * (m + 2 * below)
               for alpha, m, below in _groups(structure))


def codim_formula(structure: Structure) -> int:
    """Orbit codimension: sum over the groups of every part of
    alpha_r m_r ((m_r + 1)/2 + below_r), which is n + solution_dimension."""
    return sum(alpha * m * (m + 1) // 2 + alpha * m * below
               for alpha, m, below in _groups(structure))


# ---------------------------------------------------------------------------
# elementary blocks
# ---------------------------------------------------------------------------


def jordan_block(n: int, lam) -> ExactMatrix:
    lam = _as_eigenvalue(lam)
    return ExactMatrix.build(
        n, n, lambda i, j: lam if i == j else (ONE if j == i + 1 else ZERO))


# block-independent entries of P: 1/sqrt2, i/sqrt2 and their sum
_W = SQRT2.inverse()
_IW = IMAG * _W
_CENTRE = _W + _IW


def transition_matrix(alpha: int) -> ExactMatrix:
    """P = (I + i E)/sqrt2: symmetric, P^2 = i E, P^{-1} = (I - i E)/sqrt2.

    For odd alpha the diagonal and anti-diagonal overlap in the center, so
    the two contributions add there.
    """
    def entry(i, j):
        if i + j == alpha - 1:
            return _CENTRE if i == j else _IW
        return _W if i == j else ZERO

    return ExactMatrix.build(alpha, alpha, entry)


def symmetric_block(n: int, lam) -> ExactMatrix:
    """Symmetric canonical block P J P^{-1}, built entrywise.

    lam on the diagonal, 1/2 on both first off-diagonals, -i/2 where
    row + col = n - 2 and +i/2 where row + col = n (0-based).  Where these
    meet (the diagonal for even n, the first off-diagonals for odd n) the
    sum is formed once per block; it may be zero (lam = +-i/2).
    """
    return _symmetric_block(n, _as_eigenvalue(lam))


@lru_cache(maxsize=64)
def _symmetric_block(n: int, lam: ExactScalar) -> ExactMatrix:
    # laid out as an integer grid over den = 2 lcm(denominators of lam):
    # half stands for 1/2, the anti-diagonals add -+i/2 onto what is there
    half = lcm(*(q.denominator for q in (lam.a, lam.b, lam.c, lam.d)))
    diag = tuple(q.numerator * (2 * half // q.denominator)
                 for q in (lam.a, lam.b, lam.c, lam.d))
    grid = [[_Z4] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = diag
        if i:
            grid[i][i - 1] = grid[i - 1][i] = (half, 0, 0, 0)
    for k, b in ((n - 2, -half), (n, half)):
        for i in range(max(0, k - n + 1), min(n, k + 1)):
            a0, b0, c0, d0 = grid[i][k - i]
            grid[i][k - i] = (a0, b0 + b, c0, d0)
    return _reduced(n, n, tuple(map(tuple, grid)), 2 * half)


# ---------------------------------------------------------------------------
# whole-structure builders
# ---------------------------------------------------------------------------


def _layout(structure: Structure) -> Iterator[tuple]:
    """(lam, alpha, m, offset) for each eigenvalue row, in dense order:
    parts, then rows by decreasing alpha.  The row's m copies of the
    size-alpha block follow one another from dense index offset on."""
    offset = 0
    for part in structure.parts:
        for alpha, m in part.blocks:
            yield part.lam, alpha, m, offset
            offset += alpha * m


def _per_copy(structure: Structure, block_fn) -> ExactMatrix:
    """Direct sum of block_fn(alpha, lam), once per block copy."""
    pieces = []
    for lam, alpha, m, _ in _layout(structure):
        pieces.extend([block_fn(alpha, lam)] * m)
    return direct_sum(pieces)


def _omega_indices(structure: Structure) -> list[int]:
    """Omega as indices, Omega e_c = e_{perm[c]}: in each eigenvalue row
    (alpha, m), position-major i*m + k is copy-major k*alpha + i."""
    return [offset + k * alpha + i
            for _, alpha, m, offset in _layout(structure)
            for i in range(alpha) for k in range(m)]


def _backward_indices(structure: Structure) -> list[int]:
    """E as indices, E e_c = e_{perm[c]}: each block copy reversed."""
    return [offset + k * alpha + alpha - 1 - i
            for _, alpha, m, offset in _layout(structure)
            for k in range(m) for i in range(alpha)]


def _transition_indices(structure: Structure, to_dense: bool) -> tuple:
    """(s, t, sign) for _transition_rows: the index lists of
    _conjugate_by_transition, s Omega moved and t s after E."""
    omega, back = _omega_indices(structure), _backward_indices(structure)
    if to_dense:
        # Omega X Omega^T has entry (a, b) = X[s[a]][s[b]], s = Omega^{-1}
        s = sorted(range(len(omega)), key=omega.__getitem__)
        return s, [s[e] for e in back], 1
    return omega, [back[o] for o in omega], -1


def _transition_rows(grid: Sequence, s: Sequence, t: Sequence,
                     sign: int) -> list:
    """The rows of 2 den times the image of grid / den under
    _conjugate_by_transition, unreduced, for (s, t, sign) from
    _transition_indices."""
    rows = []
    for ys, yt in zip(map(grid.__getitem__, s), map(grid.__getitem__, t)):
        # v = Y[a][b] + Y[e a][e b], w = Y[e a][b] - Y[a][e b]; v + sign i w
        rows.append(tuple(
            (a1 + a2 - sign * (b3 - b4), b1 + b2 + sign * (a3 - a4),
             c1 + c2 - sign * (d3 - d4), d1 + d2 + sign * (c3 - c4))
            for (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3),
            (a4, b4, c4, d4) in zip(
                map(ys.__getitem__, s), map(yt.__getitem__, t),
                map(yt.__getitem__, s), map(ys.__getitem__, t))))
    return rows


def _conjugate_by_transition(structure: Structure, x: ExactMatrix,
                             to_dense: bool) -> ExactMatrix:
    """P Omega X Omega^T P^{-1} when to_dense, else its inverse
    Omega^T P^{-1} X P Omega, by index: no product, no sqrt2 part.

    P = (I + i E)/sqrt2 and P^{-1} = (I - i E)/sqrt2 with E^2 = I give
    P Y P^{-1} = (Y + E Y E + i (E Y - Y E))/2, and P^{-1} Y P the same
    with -i.  (E Y)[a][b] = Y[e(a)][b], so each entry reads four of x, at
    the index lists s (Omega moved) and t (s after E) of
    _transition_indices, by the one formula of _transition_rows."""
    rows = _transition_rows(x._g, *_transition_indices(structure, to_dense))
    return _reduced(x.rows, x.cols, tuple(rows), 2 * x._den)


def jordan_form(structure: Structure) -> ExactMatrix:
    return _per_copy(structure, jordan_block)


# symmetric_form keeps the last four S: callers work on one structure at a
# time (a multi-eigenvalue structure may fill one slot per part and one for
# itself).  Its blocks depend only on (alpha, lam) and recur across
# structures, so _symmetric_block keeps 64, more than twice the 27 (9 sizes
# at 3 eigenvalues) of the benchmark's ladders.  Sharing one is safe, since
# an ExactMatrix is immutable.  The public name stays a plain function,
# which a tracer can wrap (perfbench/spans.py).

@lru_cache(maxsize=4)
def _symmetric_form(structure: Structure) -> ExactMatrix:
    return _per_copy(structure, _symmetric_block)


def symmetric_form(structure: Structure) -> ExactMatrix:
    return _symmetric_form(structure)


def transition_form(structure: Structure) -> ExactMatrix:
    return _per_copy(structure, lambda alpha, _: transition_matrix(alpha))


def backward_form(structure: Structure) -> ExactMatrix:
    """Dense-order direct sum of per-copy backward identities."""
    return _permutation(_backward_indices(structure))


def interleave_form(structure: Structure) -> ExactMatrix:
    """Omega: column c is e_{_omega_indices(structure)[c]}."""
    return _permutation(_omega_indices(structure))


def block_backward_form(structure: Structure) -> ExactMatrix:
    """Backward identity in block coordinates: per row, I_m blocks on the
    block anti-diagonal.  Equals Omega^T E Omega (tested, not assumed)."""
    return _permutation([offset + (alpha - 1 - i) * m + k
                         for _, alpha, m, offset in _layout(structure)
                         for i in range(alpha) for k in range(m)])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_structures(n: int, lam=0) -> Iterator[SegreStructure]:
    """All structures of total size exactly n (partitions of n), one per
    partition, eigenvalue lam.  Deterministic order: largest parts first."""

    def partitions(remaining: int, cap: int):
        if remaining == 0:
            yield []
            return
        for part in range(min(cap, remaining), 0, -1):
            for rest in partitions(remaining - part, part):
                yield [part] + rest

    for parts in partitions(n, n):
        # the structure merges equal sizes into one row
        yield SegreStructure(lam, [(p, 1) for p in parts])

