"""Relation commutators on a finite algebra.

The matrix set M(R, S) is computed as a subuniverse closure in the 4th
power: its generators are the quadruples (a, a, a', a') for a R a' and
(b, b', b, b') for b S b'.  With R and S reflexive this closure coincides
with the set of all 2x2 matrices of term-operation values whose rows vary
along R and columns along S (cross-checked against a bounded term
enumeration in the test suite).  The R block {(a, a, a', a') : a R a'}
is already a subuniverse of A^4, because R is admissible (and reflexive,
so it holds every constant's diagonal): an operation applied to such
quadruples gives (f(a), f(a), f(a'), f(a')) with f(a) R f(a').  The
closure therefore takes that block as `closed=` and applies only the
argument combinations that include an S generator or a later member.

M(R, S) stays in the bitset encoding of `TupleSet`: bit
((x*n + y)*n + z)*n + w, so the n*n bits at offset (x*n + y)*n*n form the
slice at top row (x, y), the bottom rows (z, w) as `BinRel` bits.
K(R, S; V) is the OR of the slices at the pairs of V, and [R, S | 1]_W
has (x, w) iff bit (x, w) of the slice at (x, x) is set.  The blocks are
spread from the relations' bits: pair bit i of S, (b, b'), becomes bit
i*(n*n + 1), and pair (a, a') of R bit (n + 1)*(a*n*n + a').

Results are memoized per (algebra, R, S); all functions are pure, so
concurrent calls with equal arguments return equal values.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import FiniteAlgebra, TupleSet, _indices, subuniverse_closure
from .relations import BinRel, cg, delta_bits, require_reflexive_admissible, star


@lru_cache(maxsize=65536)
def m_set(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> TupleSet:
    """The matrix set M(R, S) as a TupleSet of (x, y, z, w) tuples, where
    x and y sit on the top row, z and w on the bottom.

    R and S are checked to be reflexive and admissible first; that check
    is what makes the R block closed, so it is passed to the closure as
    `closed=` and the S block as generators, both as bitsets.  The call
    goes through this module's `subuniverse_closure` name, which the
    benchmark's closure spans wrap."""
    require_reflexive_admissible(alg, r, "R")
    require_reflexive_admissible(alg, s, "S")
    n = alg.size
    rows = sum(1 << (n + 1) * (i // n * n * n + i % n) for i in _indices(r.bits))
    columns = sum(1 << i * (n * n + 1) for i in _indices(s.bits))
    return subuniverse_closure(alg, 4, columns, closed=rows)


def _bottom_rows(m: TupleSet, v: int) -> int:
    """The bits of the pairs (z, w) of matrices in m whose top row (x, y)
    is a pair of the relation bits v: the OR of the slices of m at them."""
    nn = m.size * m.size
    mask = (1 << nn) - 1
    bits = 0
    for i in _indices(v):
        bits |= (m.bits >> (i * nn)) & mask
    return bits


def k_op(alg: FiniteAlgebra, r: BinRel, s: BinRel, v: BinRel) -> BinRel:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V.

    V may be any relation; R and S must be reflexive and admissible.
    """
    return BinRel(alg.size, _bottom_rows(m_set(alg, r, s), v.bits))


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
    n = alg.size
    d = delta_bits(n)
    while True:
        nd = cg(alg, BinRel(n, d | _bottom_rows(m, d))).bits
        if nd == d:
            return BinRel(n, d)
        d = nd


def clear_caches():
    m_set.cache_clear()
    comm1.cache_clear()
    comm_weak.cache_clear()
    comm.cache_clear()
