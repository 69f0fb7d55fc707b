"""Relation commutators on a finite algebra.

The matrix set M(R, S) is computed as a subuniverse closure in the 4th
power: its generators are the quadruples (a, a, a', a') for a R a' and
(b, b', b, b') for b S b'.  With R and S reflexive this closure coincides
with the set of all 2x2 matrices of term-operation values whose rows vary
along R and columns along S (cross-checked against a bounded term
enumeration in the test suite).

M(R, S) stays in the bitset encoding of `TupleSet`: bit
((x*n + y)*n + z)*n + w, so the n*n bits at offset (x*n + y)*n*n form the
slice at top row (x, y), the bottom rows (z, w) as `BinRel` bits.
K(R, S; V) is the OR of the slices at the pairs of V, and [R, S | 1]_W
has (x, w) iff bit (x, w) of the slice at (x, x) is set.

Results are memoized per (algebra, R, S); all functions are pure, so
concurrent calls with equal arguments return equal values.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import FiniteAlgebra, TupleSet, subuniverse_closure
from .relations import (
    BinRel,
    cg,
    require_reflexive_admissible,
    star,
    union_,
)


@lru_cache(maxsize=65536)
def m_set(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> TupleSet:
    """The matrix set M(R, S) as a TupleSet of (x, y, z, w) tuples, where
    x and y sit on the top row, z and w on the bottom."""
    require_reflexive_admissible(alg, r, "R")
    require_reflexive_admissible(alg, s, "S")
    gens = [(a, a, a2, a2) for (a, a2) in r.pairs()]
    gens += [(b, b2, b, b2) for (b, b2) in s.pairs()]
    return subuniverse_closure(alg, 4, gens)


def _bottom_rows(m: TupleSet, v: BinRel) -> BinRel:
    """Pairs (z, w) of matrices in m whose top row (x, y) lies in v: the
    OR of the slices of m at the pairs of v."""
    nn = m.size * m.size
    mask = (1 << nn) - 1
    bits = 0
    rem = v.bits
    while rem:
        low = rem & -rem
        rem ^= low
        bits |= (m.bits >> ((low.bit_length() - 1) * nn)) & mask
    return BinRel(m.size, bits)


def k_op(alg: FiniteAlgebra, r: BinRel, s: BinRel, v: BinRel) -> BinRel:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V.

    V may be any relation; R and S must be reflexive and admissible.
    """
    return _bottom_rows(m_set(alg, r, s), v)


@lru_cache(maxsize=65536)
def comm1(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]: transitive closure of K(R, S; delta)."""
    return star(k_op(alg, r, s, BinRel.delta(alg.size)))


@lru_cache(maxsize=65536)
def comm_weak(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]_W: pairs (x, w) with the matrix (x, x; x, w) in M(R, S)."""
    m = m_set(alg, r, s)
    n = alg.size
    row = (1 << n) - 1
    bits = 0
    for x in range(n):
        # row x of the slice at (x, x)
        bits |= (m.bits >> (x * (n + 1) * n * n)) & (row << (x * n))
    return BinRel(n, bits)


@lru_cache(maxsize=65536)
def comm(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S]: least congruence d with K(R, S; d) <= d.

    Increasing fixpoint from delta; the family of congruences satisfying
    the closure condition is intersection-closed, so the iteration stops
    at the least one.
    """
    m = m_set(alg, r, s)
    d = BinRel.delta(alg.size)
    while True:
        nd = cg(alg, union_(d, _bottom_rows(m, d)))
        if nd.bits == d.bits:
            return d
        d = nd


def clear_caches():
    m_set.cache_clear()
    comm1.cache_clear()
    comm_weak.cache_clear()
    comm.cache_clear()
