"""Block structures and canonical matrices.

A SegreStructure fixes one eigenvalue lam and rows (alpha_r, m_r): m_r
copies of the size-alpha_r block, alpha strictly decreasing after
normalization.  From it we build, all exactly:

  * the Jordan form J (direct sum of Jordan blocks),
  * the symmetric canonical form S (direct sum of symmetric blocks),
  * the transition P with S = P J P^{-1}, entries in (1/sqrt2) Q(i),
  * the dense backward identity E (per-block reversals),
  * the interleaving permutation Omega that regroups each eigenvalue row
    from "m copies of size alpha" to "alpha positions of size m", and
  * the block-coordinate backward identity F = Omega^T E Omega.

symmetric_block and transition_matrix build their block from entries
formed before the walk; that the symmetric block equals P J P^{-1} is
checked by the tests, not at run time.  symmetric_block builds each
(alpha, lam) block once, and symmetric_form, transition_form and
transition_form_inverse build their matrix once per structure; each then
hands out the same immutable object.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import StructureError
from .matrices import ExactMatrix, direct_sum
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

    __slots__ = ("lam", "blocks", "alphas", "mults", "n")

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

    def __setattr__(self, name, value):
        raise AttributeError("SegreStructure is immutable")

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
        return self.lam == other.lam and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.lam, self.blocks))

    def __repr__(self):
        body = ", ".join(f"({a},{m})" for a, m in self.blocks)
        return f"SegreStructure(lam={self.lam}, blocks=[{body}])"


class MultiSegreStructure:
    """Several SegreStructures with pairwise distinct eigenvalues."""

    __slots__ = ("parts",)

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

    def __setattr__(self, name, value):
        raise AttributeError("MultiSegreStructure is immutable")

    @property
    def n(self) -> int:
        return sum(p.n for p in self.parts)

    def __eq__(self, other):
        if not isinstance(other, MultiSegreStructure):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"MultiSegreStructure({list(self.parts)!r})"


Structure = SegreStructure | MultiSegreStructure


# ---------------------------------------------------------------------------
# elementary blocks
# ---------------------------------------------------------------------------


def backward_identity(n: int) -> ExactMatrix:
    """Ones on the anti-diagonal."""
    return ExactMatrix.build(n, n, lambda i, j: ONE if i + j == n - 1 else ZERO)


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
    """P = (1/sqrt2)(I + i E): symmetric, P^2 = i E, P^{-1} = conj_i(P).

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


def interleave_permutation(alpha: int, m: int) -> ExactMatrix:
    """Permutation regrouping m stacked size-alpha blocks by position.

    Column i*m + k is the standard basis vector e_{k*alpha + i}: the k-th
    copy's position i is sent to slot (position i, copy k).
    """
    size = alpha * m
    cols = {}
    for i in range(alpha):
        for k in range(m):
            cols[i * m + k] = k * alpha + i
    return ExactMatrix.build(size, size,
                             lambda r, c: ONE if cols[c] == r else ZERO)


# ---------------------------------------------------------------------------
# whole-structure builders
# ---------------------------------------------------------------------------


def _per_copy(structure: SegreStructure, block_fn) -> ExactMatrix:
    pieces = []
    for alpha, m in structure.blocks:
        piece = block_fn(alpha)
        pieces.extend([piece] * m)
    return direct_sum(pieces)


def jordan_form(structure: Structure) -> ExactMatrix:
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([jordan_form(p) for p in structure.parts])
    return _per_copy(structure, lambda a: jordan_block(a, structure.lam))


# Canonical matrices are immutable and depend only on the structure, so each
# private builder keeps its last few results.  Callers work on one structure
# at a time (a multi-eigenvalue structure fills one slot per part and one for
# itself), so four slots catch the repeats while the cached matrices add
# little to peak memory.  The symmetric blocks they are assembled from depend
# only on (alpha, lam) and recur across structures, so _symmetric_block keeps
# 64 of them, more than twice the 27 (9 sizes at 3 eigenvalues) of the
# benchmark's ladders; sharing one is safe, since an ExactMatrix is immutable.
# The public names stay plain functions, which a tracer can wrap by name
# (perfbench/spans.py counts their calls).

@lru_cache(maxsize=4)
def _symmetric_form(structure: Structure) -> ExactMatrix:
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([symmetric_form(p) for p in structure.parts])
    return _per_copy(structure, lambda a: _symmetric_block(a, structure.lam))


@lru_cache(maxsize=4)
def _transition_form(structure: Structure) -> ExactMatrix:
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([transition_form(p) for p in structure.parts])
    return _per_copy(structure, transition_matrix)


@lru_cache(maxsize=4)
def _transition_form_inverse(structure: Structure) -> ExactMatrix:
    return transition_form(structure).conjugate_i()


def symmetric_form(structure: Structure) -> ExactMatrix:
    return _symmetric_form(structure)


def transition_form(structure: Structure) -> ExactMatrix:
    return _transition_form(structure)


def transition_form_inverse(structure: Structure) -> ExactMatrix:
    """P^{-1}, which is conj_i(P) since every block is (1/sqrt2)(I + i E)
    with E^2 = I."""
    return _transition_form_inverse(structure)


def backward_form(structure: Structure) -> ExactMatrix:
    """Dense-order direct sum of per-copy backward identities."""
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([backward_form(p) for p in structure.parts])
    return _per_copy(structure, backward_identity)


def interleave_form(structure: Structure) -> ExactMatrix:
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([interleave_form(p) for p in structure.parts])
    return direct_sum([interleave_permutation(a, m) for a, m in structure.blocks])


def block_backward_form(structure: Structure) -> ExactMatrix:
    """Backward identity in block coordinates: per row, I_m blocks on the
    block anti-diagonal.  Equals Omega^T E Omega (tested, not assumed)."""
    if isinstance(structure, MultiSegreStructure):
        return direct_sum([block_backward_form(p) for p in structure.parts])

    def one_row(alpha, m):
        return ExactMatrix.build(
            alpha * m, alpha * m,
            lambda r, c: ONE if (r % m == c % m and r // m + c // m == alpha - 1)
            else ZERO)

    return direct_sum([one_row(a, m) for a, m in structure.blocks])


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
        merged: dict[int, int] = {}
        for p in parts:
            merged[p] = merged.get(p, 0) + 1
        yield SegreStructure(lam, sorted(merged.items(), key=lambda t: -t[0]))

