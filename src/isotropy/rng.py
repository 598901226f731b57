"""Deterministic pseudo-randomness for sampling and tests.

Everything random in this package flows through SplitMix64 so that identical
(request, seed) pairs give byte-identical results on every platform and
Python version.  The generator is the published splitmix64 finalizer
(constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB).
Bounded draws use modulo reduction; the bias is irrelevant at the tiny
ranges used here and keeps the stream layout trivial to reproduce.
"""

from __future__ import annotations

from .scalars import ExactScalar, rat

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit deterministic stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)


class RandomSource:
    """Draws of exact scalars, matrices and structures from one stream."""

    def __init__(self, seed: int):
        self.stream = SplitMix64(seed)

    # -- scalars ------------------------------------------------------

    def rational(self, max_num: int = 3, max_den: int = 2):
        num = self.stream.randint(-max_num, max_num)
        den = self.stream.randint(1, max_den)
        return rat(num, den)

    def scalar(self, with_i: bool = True, with_sqrt2: bool = False,
               max_num: int = 3, max_den: int = 2) -> ExactScalar:
        a = self.rational(max_num, max_den)
        b = self.rational(max_num, max_den) if with_i else 0
        c = self.rational(max_num, max_den) if with_sqrt2 else 0
        d = self.rational(max_num, max_den) if (with_i and with_sqrt2) else 0
        return ExactScalar(a, b, c, d)

    # -- matrices -----------------------------------------------------

    def matrix(self, rows: int, cols: int, **kw):
        from .matrices import ExactMatrix
        return ExactMatrix.from_rows(
            [[self.scalar(**kw) for _ in range(cols)] for _ in range(rows)])

    def skew(self, n: int, **kw):
        from .matrices import ExactMatrix
        from .scalars import ZERO
        entries = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = self.scalar(**kw)
                entries[i][j] = x
                entries[j][i] = -x
        return ExactMatrix.from_rows(entries)

    def symmetric(self, n: int, **kw):
        from .matrices import ExactMatrix
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = self.scalar(**kw)
            for j in range(i + 1, n):
                x = self.scalar(**kw)
                entries[i][j] = x
                entries[j][i] = x
        return ExactMatrix.from_rows(entries)

    def symmetric_nonsingular(self, n: int, **kw):
        """Random exact symmetric invertible matrix (deterministic retry)."""
        from .matrices import identity
        for _ in range(64):
            m = self.symmetric(n, **kw)
            if m.rank() == n:
                return m
        return identity(n)  # pragma: no cover - 64 singular draws in a row

    def signs(self, n: int):
        return [1 if self.stream.below(2) == 0 else -1 for _ in range(n)]

    def orthogonal(self, n: int, **kw):
        """Exact orthogonal matrix: Cayley transform of a skew draw, times signs."""
        from .matrices import cayley_orthogonal, SingularMatrixError
        for _ in range(64):
            z = self.skew(n, **kw)
            try:
                return cayley_orthogonal(z, self.signs(n))
            except SingularMatrixError:
                continue
        from .matrices import identity
        return identity(n)  # pragma: no cover

    def twisted_orthogonal(self, n: int, b, **kw):
        """Exact solution of X^T b X = b for symmetric nonsingular b.

        Uses the twisted Cayley map X = (I - b^{-1}Z)(I + b^{-1}Z)^{-1} with
        skew Z; stays inside the field, no square roots needed.
        """
        from .matrices import identity, SingularMatrixError
        ident = identity(n)
        b_inv = b.inverse()
        for _ in range(64):
            s = b_inv * self.skew(n, **kw)
            try:
                return (ident - s) * (ident + s).inverse()
            except SingularMatrixError:
                continue
        return ident  # pragma: no cover

    # -- structures ---------------------------------------------------

    def structure(self, max_n: int, max_parts: int = 3, lam: ExactScalar | None = None):
        """Random block structure with total size <= max_n, <= max_parts rows."""
        from .forms import SegreStructure
        if lam is None:
            lam = self.scalar(with_i=True, with_sqrt2=False, max_num=2, max_den=1)
        want = self.stream.randint(1, max_parts)
        blocks = []
        budget = max_n
        used_alphas: set[int] = set()
        for _ in range(want):
            if budget <= 0:
                break
            choices = [a for a in range(1, budget + 1) if a not in used_alphas]
            if not choices:
                break
            alpha = choices[self.stream.below(len(choices))]
            m = self.stream.randint(1, max(1, budget // alpha))
            if alpha * m > budget:
                m = budget // alpha
            blocks.append((alpha, m))
            used_alphas.add(alpha)
            budget -= alpha * m
        if not blocks:
            blocks = [(1, 1)]
        return SegreStructure(lam, blocks)
