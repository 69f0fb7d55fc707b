"""Relation commutators on a finite algebra.

The matrix set M(R, S) is computed as a subuniverse closure in the 4th
power: its generators are the quadruples (a, a, a', a') for a R a' and
(b, b', b, b') for b S b'.  With R and S reflexive this closure coincides
with the set of all 2x2 matrices of term-operation values whose rows vary
along R and columns along S (cross-checked against a bounded term
enumeration in the test suite).  The R block {(a, a, a', a') : a R a'}
is already a subuniverse of A^4, because R is admissible (and reflexive,
so it holds every constant's diagonal): an operation applied to such
quadruples gives (f(a), f(a), f(a'), f(a')) with f(a) R f(a').  M is
monotone in both arguments, so a matrix set M(R, S') with S' <= S, or
M(R', S) with R' <= R, is a subuniverse inside M(R, S) too.  The closure
takes the largest of these at hand as `closed=`: an M(R, S') or M(R', S)
computed earlier on the same algebra, else the R block.  The block the
seed may lack is the generators, and only the argument combinations that
include a generator or a later member are applied.  Every seed closes to
the same set, so no result depends on what was computed before.

Every matrix of M(R, S) has its rows in S and its columns in R, so M(R, S)
lies in U(R, S) = {(x, y, z, w) : x S y, z S w, x R z, y R w} (Freese &
McKenzie, 1987).  U(R, S) intersects four admissible relations lifted to
A^4, so it is a subuniverse, and it holds both blocks because R and S are
reflexive.  The closure takes it as `within=` and stops as soon as it has
every tuple of U(R, S), which is where most closures of large R and S end.

M(R, S) stays in the bitset encoding of `TupleSet`: bit
((x*n + y)*n + z)*n + w, so the n*n bits at offset (x*n + y)*n*n form the
slice at top row (x, y), the bottom rows (z, w) as `BinRel` bits.
K(R, S; V) is the OR of the slices at the pairs of V, and [R, S | 1]_W
has (x, w) iff bit (x, w) of the slice at (x, x) is set.  The blocks are
spread from the relations' bits: pair bit i of S, (b, b'), becomes bit
i*(n*n + 1), and pair (a, a') of R bit (n + 1)*(a*n*n + a').

Each value is an int kernel of (algebra, R bits, S bits), which condition
plans bind; the memoised ones are in `algebra.MEMOS`.  The `BinRel` forms
check the sizes of R and S (`k_op` then V's), call the kernels and keep no
cache; the memoised ones carry their kernel's `cache_info`.  All functions
are pure, so concurrent calls with equal arguments return equal values.
"""

from __future__ import annotations

from .algebra import (
    KERNEL_ENTRIES,
    PLAN_ENTRIES,
    FiniteAlgebra,
    TupleSet,
    _image,
    _indices,
    memo,
    subuniverse_closure,
)
from .relations import (
    BinRel,
    _bits_on,
    cached_by,
    cg_bits,
    delta_bits,
    require_reflexive_admissible,
    star_bits,
)


@memo(PLAN_ENTRIES)
def _swap_middle(n: int):
    """The move descriptor of `algebra._image` that swaps the middle
    coordinates of 4-tuples over n elements, (x, y, z, w) -> (x, z, y, w):
    the tuples with z - y = d move d*(n*n - n) bits, one mask per d."""
    moves = {}
    for e in range(n**4):
        d = (e // n % n - e // (n * n) % n) * (n * n - n)
        moves[d] = moves.get(d, 0) | 1 << e
    return moves.pop(0), tuple((m, max(d, 0), max(-d, 0)) for d, m in moves.items())


def matrix_bound_bits(n: int, r: int, s: int) -> int:
    """U(R, S) = {(x, y, z, w) : x S y, z S w, x R z, y R w}, the 4-tuples
    whose rows lie in S and whose columns lie in R, as (S x S) & swap(R x R):
    X x X holds the (x, y, z, w) with (x, y) and (z, w) in X, and the swap
    of the middle coordinates turns rows into columns."""

    def square(x):
        return sum(1 << i * n * n for i in _indices(x)) * x

    return square(s) & _image(square(r), (_swap_middle(n),))


@memo(KERNEL_ENTRIES)
def _computed(alg: FiniteAlgebra, side: str, bits: int) -> dict:
    """The matrix sets computed on alg whose R (side "R") or S (side "S")
    has these bits, by the other relation's bits: the seeds of
    `m_set_bits`, which fills it."""
    return {}


@memo(KERNEL_ENTRIES)
def m_set_bits(alg: FiniteAlgebra, r: int, s: int) -> int:
    """The bits of the matrix set M(R, S) of the relations with bits r
    and s, in the `TupleSet` encoding of (x, y, z, w) tuples, where x and y
    sit on the top row, z and w on the bottom.

    R and S are checked to be reflexive and admissible first, on every
    miss.  The closure starts from the largest closed set at hand, passed
    as `closed=`: a matrix set M(R, S') with S' <= S or M(R', S) with
    R' <= R computed earlier on alg, else the R block, which that check
    makes closed.  M is monotone in both arguments, so each lies in
    M(R, S).  The generators are S's block beside the R block or an
    M(R, S'), and R's block beside an M(R', S).  Every seed closes to the
    same set, so the result does not depend on what was computed before.
    The same check makes U(R, S) (`matrix_bound_bits`) a subuniverse
    holding both blocks, so it contains M(R, S) and is passed as
    `within=`: the closure stops once it reaches U(R, S), and raises if it
    ever leaves it.  The call goes through this module's
    `subuniverse_closure` name, which the benchmark's closure spans wrap."""
    n = alg.size
    require_reflexive_admissible(alg, BinRel(n, r), "R")
    require_reflexive_admissible(alg, BinRel(n, s), "S")
    rows = sum(1 << (n + 1) * (i // n * n * n + i % n) for i in _indices(r))
    columns = sum(1 << i * (n * n + 1) for i in _indices(s))
    by_s, by_r = _computed(alg, "R", r), _computed(alg, "S", s)
    # snapshots, so that another thread's insertion cannot break the loops
    seeds = [(rows, columns)]
    seeds += [(m, columns) for s2, m in tuple(by_s.items()) if s2 & ~s == 0]
    seeds += [(m, rows) for r2, m in tuple(by_r.items()) if r2 & ~r == 0]
    closed, generators = max(seeds, key=lambda seed: seed[0].bit_count())
    bound = matrix_bound_bits(n, r, s)
    m = subuniverse_closure(alg, 4, generators, closed=closed, within=bound).bits
    by_s[s] = by_r[r] = m
    return m


def _bottom_rows(n: int, m: int, v: int) -> int:
    """The bits of the pairs (z, w) of the matrices in the 4-tuple bits m
    whose top row (x, y) is a pair of the relation bits v: the OR of the
    slices of m at them."""
    nn = n * n
    mask = (1 << nn) - 1
    bits = 0
    for i in _indices(v):
        bits |= (m >> (i * nn)) & mask
    return bits


def k_op_bits(alg: FiniteAlgebra, r: int, s: int, v: int) -> int:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V."""
    return _bottom_rows(alg.size, m_set_bits(alg, r, s), v)


@memo(KERNEL_ENTRIES)
def comm1_bits(alg: FiniteAlgebra, r: int, s: int) -> int:
    """[R, S | 1]: transitive closure of K(R, S; delta)."""
    n = alg.size
    return star_bits(n, k_op_bits(alg, r, s, delta_bits(n)))


def comm_weak_bits(alg: FiniteAlgebra, r: int, s: int) -> int:
    """[R, S | 1]_W: pairs (x, w) with the matrix (x, x; x, w) in M(R, S)."""
    m = m_set_bits(alg, r, s)
    n = alg.size
    row = (1 << n) - 1
    bits = 0
    for x in range(n):
        # row x of the slice at (x, x)
        bits |= (m >> (x * (n + 1) * n * n)) & (row << (x * n))
    return bits


@memo(KERNEL_ENTRIES)
def comm_bits(alg: FiniteAlgebra, r: int, s: int) -> int:
    """[R, S]: least congruence d with K(R, S; d) <= d.

    Increasing fixpoint from delta; the family of congruences satisfying
    the closure condition is intersection-closed, so the iteration stops
    at the least one.
    """
    m = m_set_bits(alg, r, s)
    n = alg.size
    d = delta_bits(n)
    while True:
        nd = cg_bits(alg, d | _bottom_rows(n, m, d))
        if nd == d:
            return d
        d = nd


def _pair_bits(alg, r, s):
    """R's and S's bits.  When either lies on another universe than alg's,
    M(R, S)'s input check runs on the `BinRel`s and raises: R before S, and
    for each, reflexivity at its own size before the size mismatch."""
    if r.size != alg.size or s.size != alg.size:
        require_reflexive_admissible(alg, r, "R")
        require_reflexive_admissible(alg, s, "S")
    return r.bits, s.bits


@cached_by(m_set_bits)
def m_set(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> TupleSet:
    """The matrix set M(R, S) as a TupleSet of (x, y, z, w) tuples, where
    x and y sit on the top row, z and w on the bottom; R and S must be
    reflexive and admissible."""
    return TupleSet(alg.size, 4, m_set_bits(alg, *_pair_bits(alg, r, s)))


def k_op(alg: FiniteAlgebra, r: BinRel, s: BinRel, v: BinRel) -> BinRel:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V.

    V may be any relation on the algebra's universe, checked after R and
    S; R and S must be reflexive and admissible.
    """
    m = m_set_bits(alg, *_pair_bits(alg, r, s))  # checks R, then S, before V
    return BinRel(alg.size, _bottom_rows(alg.size, m, _bits_on(alg, v)))


@cached_by(comm1_bits)
def comm1(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]: transitive closure of K(R, S; delta)."""
    return BinRel(alg.size, comm1_bits(alg, *_pair_bits(alg, r, s)))


def comm_weak(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]_W: pairs (x, w) with the matrix (x, x; x, w) in M(R, S)."""
    return BinRel(alg.size, comm_weak_bits(alg, *_pair_bits(alg, r, s)))


@cached_by(comm_bits)
def comm(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S]: least congruence d with K(R, S; d) <= d."""
    return BinRel(alg.size, comm_bits(alg, *_pair_bits(alg, r, s)))

