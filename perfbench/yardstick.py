"""The machine-speed yardstick that steadies the benchmark's times.

The machine the benchmark runs on shares its CPUs with other tenants, and
its speed for the same work moves by up to 1.5x from one second to the
next.  A burst is a fixed piece of work of the kind the package does
(products of two 6 x 6 matrices over Q(i) with fractions.Fraction
entries, written in oracle.py and so independent of the package), about
20 ms long.  The worker times one burst before every operation and one
after the last, so each operation sits between two bursts.  Every time
metric is a measured wall time multiplied by a scale, REF_S over the
bursts' time: the time the work would have taken at the speed the
reference machine had when REF_S was measured.  An operation's scale
comes from the two bursts around it; a set-up's from the median of bursts
run after it.  A change to the package cannot move the bursts, so it
moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import oracle as O

# Median burst on the reference machine (2 CPUs, Python 3.11.7, fractions).
REF_S = 0.020

_A = [[O.sc(Fraction(i + 2 * j + 1, 3 + j), Fraction(j - i, 5 + i))
       for j in range(6)] for i in range(6)]
_B = [[O.sc(Fraction(2 * i - j, 7), Fraction(i + j + 1, 2 + j))
       for j in range(6)] for i in range(6)]


def burst() -> float:
    """Seconds the fixed burst takes now (the cyclic collector held off, so
    that a collection of the caller's garbage does not land in it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            O.mat_mul(_A, _B)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(bursts) -> float:
    """Factor that turns a wall time measured among these bursts into one
    at the reference speed."""
    return REF_S / statistics.median(bursts)


def op_scale(bursts, k) -> float:
    """Scale of the operation that ran between bursts[k] and bursts[k + 1]."""
    return 2.0 * REF_S / (bursts[k] + bursts[k + 1])
