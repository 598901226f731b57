"""Block structures, the dense layout and canonical matrices.

A SegreStructure fixes one eigenvalue lam and rows (alpha_r, m_r): m_r
copies of the size-alpha_r block, alpha strictly decreasing after
normalization.  A MultiSegreStructure joins several with distinct
eigenvalues.  A SegreStructure is its own single part, so code that only
sums or concatenates over eigenvalues walks structure.parts.

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

symmetric_block and transition_matrix build their block from entries
formed before the walk; that the symmetric block equals P J P^{-1} is
checked by the tests, not at run time.  symmetric_block builds each
(alpha, lam) block once and symmetric_form each S once per structure,
handing out the same immutable object.  E, Omega and F are laid out from
index lists, and Q = P Omega X Omega^T P^{-1} is formed from a block
Toeplitz X by index too (_conjugate_by_transition), without building P.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, StructureError
from .matrices import (ExactMatrix, _permutation, _reduced, _sparse_rows,
                       direct_sum)
from .scalars import (ExactScalar, HALF, IMAG, ONE, SQRT2, ZERO, _coerce,
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

    def shift(self, r: int, s: int) -> int:
        """Leading-column offset of block (r, s): max(0, alpha_s - alpha_r)."""
        return max(0, self.blocks[s][0] - self.blocks[r][0])

    def group_offset(self, r: int) -> int:
        """Dense row offset where eigenvalue row r starts."""
        return sum(a * m for a, m in self.blocks[:r])

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
# elementary blocks
# ---------------------------------------------------------------------------


def jordan_block(n: int, lam) -> ExactMatrix:
    lam = _as_eigenvalue(lam)
    return ExactMatrix.build(
        n, n, lambda i, j: lam if i == j else (ONE if j == i + 1 else ZERO))


# block-independent entries: 1/sqrt2, i/sqrt2 and their sum, and +-i/2
_W = SQRT2.inverse()
_IW = IMAG * _W
_CENTRE = _W + _IW
_IHALF = IMAG * HALF
_MINUS_IHALF = -_IHALF


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
    anti = {n - 2: _MINUS_IHALF, n: _IHALF}
    meet = {k: (HALF if n % 2 else lam) + x for k, x in anti.items()}

    def entry(i, j):
        k = i + j
        if abs(i - j) <= 1 and k in meet:
            return meet[k]
        if i == j:
            return lam
        return HALF if abs(i - j) == 1 else anti.get(k, ZERO)

    return ExactMatrix.build(n, n, entry)


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


def _conjugate_by_transition(structure: Structure, x: ExactMatrix,
                             to_dense: bool) -> ExactMatrix:
    """P Omega X Omega^T P^{-1} when to_dense, else its inverse
    Omega^T P^{-1} X P Omega, by index: no product, no sqrt2 part.

    P = (I + i E)/sqrt2 and P^{-1} = (I - i E)/sqrt2 with E^2 = I give
    P Y P^{-1} = (Y + E Y E + i (E Y - Y E))/2, and P^{-1} Y P the same
    with -i.  (E Y)[a][b] = Y[e(a)][b], so each entry reads four of x, at
    the index lists s (Omega moved) and t (s after E)."""
    omega, back = _omega_indices(structure), _backward_indices(structure)
    if to_dense:
        # Omega X Omega^T has entry (a, b) = X[s[a]][s[b]], s = Omega^{-1}
        s = sorted(range(len(omega)), key=omega.__getitem__)
        t, sign = [s[e] for e in back], 1
    else:
        s, t, sign = omega, [back[o] for o in omega], -1
    rows = []
    for ys, yt in zip(map(x._g.__getitem__, s), map(x._g.__getitem__, t)):
        # v = Y[a][b] + Y[e a][e b], w = Y[e a][b] - Y[a][e b]; v + sign i w
        rows.append(tuple(
            (a1 + a2 - sign * (b3 - b4), b1 + b2 + sign * (a3 - a4),
             c1 + c2 - sign * (d3 - d4), d1 + d2 + sign * (c3 - c4))
            for (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3),
            (a4, b4, c4, d4) in zip(
                map(ys.__getitem__, s), map(yt.__getitem__, t),
                map(yt.__getitem__, s), map(ys.__getitem__, t))))
    return _reduced(x.rows, x.cols, tuple(rows), 2 * x._den)


def jordan_form(structure: Structure) -> ExactMatrix:
    return _per_copy(structure, jordan_block)


# Every membership check reads S and its sparse rows, so _symmetric_form and
# _symmetric_rows keep their last four: callers work on one structure at a
# time (a multi-eigenvalue structure may fill one slot per part and one for
# itself).  Its blocks depend only on (alpha, lam) and recur across
# structures, so _symmetric_block keeps 64, more than twice the 27 (9 sizes
# at 3 eigenvalues) of the benchmark's ladders.  Sharing one is safe, since
# an ExactMatrix and the rows are immutable.  The public name stays a plain
# function, which a tracer can wrap (perfbench/spans.py).

@lru_cache(maxsize=4)
def _symmetric_form(structure: Structure) -> ExactMatrix:
    return _per_copy(structure, _symmetric_block)


@lru_cache(maxsize=4)
def _symmetric_rows(structure: Structure) -> tuple:
    """The _sparse_rows of S, the right operand of the membership check's
    Q S: a few nonzeros per row, found once per structure."""
    return tuple((tuple(nz), gaussian) for nz, gaussian
                 in _sparse_rows(_symmetric_form(structure)._g))


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

