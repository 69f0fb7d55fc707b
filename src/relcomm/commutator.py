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
The blocks and the factors S x S and swap(R x R) of U(R, S) depend on one
relation each, and each factor is one product of two spreads of its
pairs.  The kernel objects of one size share one memo of them
(`relation_blocks`, the object's `blocks`), and a miss of M(R, S) spends
no loop over pairs on them.

M(R, S) stays in the bitset encoding of `TupleSet`: bit
((x*n + y)*n + z)*n + w, so the n*n bits at offset (x*n + y)*n*n form the
slice at top row (x, y), the bottom rows (z, w) as `BinRel` bits.
K(R, S; V) is the OR of the slices at the pairs of V: M(R, S) masked to
those slices (`spread_bits`, the object's `spread`), then folded onto the
lowest slice by shifts.
[R, S | 1]_W has (x, w) iff bit (x, w) of the slice at (x, x) is set.
The blocks are spread from the relations' bits: pair bit i of S, (b, b'),
becomes bit i*(n*n + 1), and pair (a, a') of R bit (n + 1)*(a*n*n + a').

Each value is computed on the kernel object of the algebra
(`relations.Kernels`) by a function `*_of(k, R bits, S bits)`: the object
binds them as its `m_set`, `k_op`, `comm1`, `comm_weak` and `comm`, and
memoises `m_set`, `comm1` and `comm` by the relation bits alone, so
condition plans call them with bits only.  The object is the only
bits-level interface.  The `BinRel` forms check the sizes of R and S
(`k_op` then V's) and call the object; `m_set`, `comm1` and `comm` carry
the summed counters of that memo on every object.  All functions are
pure, so concurrent calls with equal arguments return equal values.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra, TupleSet, _indices, subuniverse_closure
from .relations import BinRel, _bits_on, kernels, require_reflexive_admissible


def relation_blocks(n: int, x: int):
    """What M(R, S) reads off a relation X with bits x on n elements, as
    4-tuple bits in the `TupleSet` encoding: (X's block as R, {(a, a, a',
    a') : a X a'}; its block as S, {(b, b', b, b') : b X b'}; X x X, the
    (x, y, z, w) with (x, y) and (z, w) in X; and swap(X x X), the (a, c,
    b, d) with (a, b) and (c, d) in X).  Pair bit i, (a, a'), becomes bit
    (n + 1)*(a*n*n + a') of the first and bit i*(n*n + 1) of the second.
    Each product term of the last two is the bit of one tuple, and no two
    share a bit: X x X spreads X's pairs by n*n bits each and multiplies
    by x, and swap(X x X) multiplies the spread that puts (a, b) at
    (a*n*n + b)*n by the one that puts (c, d) at c*n*n + d.  The kernel
    objects of size n share one memo of it, `k.blocks(x)`."""
    pairs = _indices(x)
    spread = [i // n * n * n + i % n for i in pairs]  # (a, a') at a*n*n + a'
    return (
        sum(1 << (n + 1) * e for e in spread),
        sum(1 << i * (n * n + 1) for i in pairs),
        sum(1 << i * n * n for i in pairs) * x,
        sum(1 << e * n for e in spread) * sum(1 << e for e in spread),
    )


def matrix_bound_bits(k, r: int, s: int) -> int:
    """U(R, S) = {(x, y, z, w) : x S y, z S w, x R z, y R w}, the 4-tuples
    whose rows lie in S and whose columns lie in R, as (S x S) & swap(R x R):
    X x X holds the (x, y, z, w) with (x, y) and (z, w) in X, and the swap
    of the middle coordinates turns rows into columns.  Both factors come
    from the kernel object k's `blocks`, so each is built once per
    relation."""
    return k.blocks(s)[2] & k.blocks(r)[3]


def spread_bits(n: int, v: int) -> int:
    """The 4-tuple bits of the slices at the pairs of the relation bits v
    on n elements: the n*n bits from (x*n + y)*n*n for each pair (x, y)
    of v.  The kernel objects of size n share one memo of it,
    `k.spread(v)`."""
    nn = n * n
    return sum(1 << i * nn for i in _indices(v)) * ((1 << nn) - 1)


def _bottom_rows(k, m: int, v: int) -> int:
    """The bits of the pairs (z, w) of the matrices in the 4-tuple bits m
    whose top row (x, y) is a pair of the relation bits v, on the universe
    of the kernel object k: the OR of the slices of m at them.  m is
    masked to those slices (`k.spread`), and the n*n slices are folded
    onto the lowest, halving the span each time."""
    nn = k.n * k.n
    bits = m & k.spread(v)
    for j in reversed(range((nn - 1).bit_length())):
        bits |= bits >> (nn << j)
    return bits & ((1 << nn) - 1)


def m_set_of(k, r: int, s: int) -> int:
    """The bits of the matrix set M(R, S) on the algebra of the kernel
    object k (`relations.Kernels`), for relations with bits r and s: the
    computation behind `k.m_set`, which memoises it.

    R, then S, is checked to be reflexive and admissible on every miss, on
    its bits; only a failing one becomes a `BinRel`, on which
    `require_reflexive_admissible` raises.  The closure starts from the
    largest closed set at hand, passed as `closed=`: a matrix set M(R, S')
    with S' <= S or M(R', S) with R' <= R computed earlier on the algebra,
    which `k.computed` holds by side and relation bits, else the R block,
    which that check makes closed.  M is monotone in both arguments, so
    each lies in M(R, S).  The generators are S's block beside the R block
    or an M(R, S'), and R's block beside an M(R', S).  Every seed closes
    to the same set, so the result does not depend on what was computed
    before.  The same check makes U(R, S) (`matrix_bound_bits`) a
    subuniverse holding both blocks, so it contains M(R, S) and is passed
    as `within=`: the closure stops once it reaches U(R, S), and raises if
    it ever leaves it.  Both blocks and both factors of U(R, S) are read
    from `k.blocks`, built once per relation.  The call goes through this
    module's `subuniverse_closure` name, which the benchmark's closure
    spans wrap."""
    for x, name in ((r, "R"), (s, "S")):
        if type(x) is not int or x >> k.n * k.n or k.delta & ~x or k.adm_close(x) != x:
            require_reflexive_admissible(k, BinRel(k.n, x), name)
    rows, columns = k.blocks(r)[0], k.blocks(s)[1]
    by_s = k.computed.setdefault(("R", r), {})
    by_r = k.computed.setdefault(("S", s), {})
    # snapshots, so that another thread's insertion cannot break the loops
    seeds = [(rows, columns)]
    seeds += [(m, columns) for s2, m in tuple(by_s.items()) if s2 & ~s == 0]
    seeds += [(m, rows) for r2, m in tuple(by_r.items()) if r2 & ~r == 0]
    closed, generators = max(seeds, key=lambda seed: seed[0].bit_count())
    bound = matrix_bound_bits(k, r, s)
    m = subuniverse_closure(k.alg, 4, generators, closed=closed, within=bound).bits
    by_s[s] = by_r[r] = m
    return m


def k_op_of(k, r: int, s: int, v: int) -> int:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V."""
    return _bottom_rows(k, k.m_set(r, s), v)


def comm1_of(k, r: int, s: int) -> int:
    """[R, S | 1]: transitive closure of K(R, S; delta)."""
    return k.star(k.k_op(r, s, k.delta))


def comm_weak_of(k, r: int, s: int) -> int:
    """[R, S | 1]_W: pairs (x, w) with the matrix (x, x; x, w) in M(R, S)."""
    m = k.m_set(r, s)
    n = k.n
    row = (1 << n) - 1
    bits = 0
    for x in range(n):
        # row x of the slice at (x, x)
        bits |= (m >> (x * (n + 1) * n * n)) & (row << (x * n))
    return bits


def comm_of(k, r: int, s: int) -> int:
    """[R, S]: least congruence d with K(R, S; d) <= d.

    Increasing fixpoint from delta; the family of congruences satisfying
    the closure condition is intersection-closed, so the iteration stops
    at the least one.
    """
    m = k.m_set(r, s)
    cg = k.cg
    d = k.delta
    while True:
        nd = cg(d | _bottom_rows(k, m, d))
        if nd == d:
            return d
        d = nd


def _pair_bits(k, r, s):
    """R's and S's bits.  When either lies on another universe than that of
    the kernel object k, M(R, S)'s input check runs on the `BinRel`s and
    raises: R before S, and for each, reflexivity at its own size before
    the size mismatch."""
    if r.size != k.n or s.size != k.n:
        require_reflexive_admissible(k, r, "R")
        require_reflexive_admissible(k, s, "S")
    return r.bits, s.bits


@kernels.counts("m_set")
def m_set(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> TupleSet:
    """The matrix set M(R, S) as a TupleSet of (x, y, z, w) tuples, where
    x and y sit on the top row, z and w on the bottom; R and S must be
    reflexive and admissible."""
    k = kernels(alg)
    return TupleSet(alg.size, 4, k.m_set(*_pair_bits(k, r, s)))


def k_op(alg: FiniteAlgebra, r: BinRel, s: BinRel, v: BinRel) -> BinRel:
    """K(R, S; V): bottom rows of M(R, S) matrices with top row in V.

    V may be any relation on the algebra's universe, checked after R and
    S; R and S must be reflexive and admissible.
    """
    k = kernels(alg)
    m = k.m_set(*_pair_bits(k, r, s))  # checks R, then S, before V
    return BinRel(alg.size, _bottom_rows(k, m, _bits_on(alg, v)))


@kernels.counts("comm1")
def comm1(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]: transitive closure of K(R, S; delta)."""
    k = kernels(alg)
    return BinRel(alg.size, k.comm1(*_pair_bits(k, r, s)))


def comm_weak(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S | 1]_W: pairs (x, w) with the matrix (x, x; x, w) in M(R, S)."""
    k = kernels(alg)
    return BinRel(alg.size, k.comm_weak(*_pair_bits(k, r, s)))


@kernels.counts("comm")
def comm(alg: FiniteAlgebra, r: BinRel, s: BinRel) -> BinRel:
    """[R, S]: least congruence d with K(R, S; d) <= d."""
    k = kernels(alg)
    return BinRel(alg.size, k.comm(*_pair_bits(k, r, s)))
