"""Binary relations as n*n bit matrices, the relation-algebra toolkit
(converse, composition, transitive closure, admissible/tolerance/congruence
closures, congruence join) and enumeration of relation families.

Bit (a, b) of a relation lives at position a*n + b of the `bits` integer;
that encoding is also the documented enumeration order.  Each family is
the set of closed sets of one closure operator (`family_closure`): r is a
member exactly when its closure adds nothing, which is how `is_admissible`,
`is_tolerance` and `is_congruence` decide.  Exhaustive enumeration lists
the closed sets with Ganter's NextClosure, which visits them in ascending
order of `bits`.  The search for an operation that maps pairs of r outside
r (`_admissibility_witness`) exists only to word error messages.

The kernels take and return relation bits.  Those of n alone
(`converse_bits`, `compose_bits`, `star_bits`) keep no memo.  An
algebra's kernels live on its one kernel object, `kernels(alg)` (a
`Kernels`), the only bits-level interface: it memoises them and the
commutators by relation bits alone and is shared by equal algebras.  The
objects are in one registered memo (`algebra.PerAlgebra`), which
`clear_caches` empties, and the objects of one size share the memos of
the kernels of n alone (`_size_kernels`).  The object's `cg` checks its
admissibility invariant on every miss, and its `cong_join` is not
memoised and checks both arguments.  The `BinRel` forms check sizes
(`SizeMismatch`) and call the object; `adm_close`, `tol_close` and `cg`
carry the summed counters of that memo on every object.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import warnings
from functools import lru_cache, partial

from .algebra import (
    KERNEL_ENTRIES,
    MEMOS,
    PLAN_ENTRIES,
    FiniteAlgebra,
    PerAlgebra,
    Value,
    _indices,
    is_whole,
    memo,
    subuniverse_closure,
)

REFLEXIVE_ADMISSIBLE = "reflexive-admissible"
TOLERANCE = "tolerance"
CONGRUENCE = "congruence"

# Exhaustive enumeration caps (max universe size per family), chosen so a
# full quantifier sweep stays in the seconds range.
_DEFAULT_MAX_N = {REFLEXIVE_ADMISSIBLE: 4, TOLERANCE: 6, CONGRUENCE: 10}

_ENV_OVERRIDE = "RELCOMM_MAX_N"


class UsageError(ValueError):
    """Input the caller can correct: the CLI reports it with exit code 2."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: a bug, not a usage error."""


class SizeMismatch(ValueError):
    pass


class NotReflexive(UsageError):
    def __init__(self, rel_name, element):
        self.rel_name = rel_name
        self.element = element
        super().__init__(
            f"relation {rel_name} is not reflexive: ({element},{element}) missing"
        )


class NotAdmissible(UsageError):
    def __init__(self, rel_name, op_name, arg_pairs, image_pair):
        self.rel_name = rel_name
        self.op_name = op_name
        self.arg_pairs = arg_pairs
        self.image_pair = image_pair
        super().__init__(
            f"relation {rel_name} is not admissible: {op_name} maps "
            f"{arg_pairs} to {image_pair} which is outside the relation"
        )


class FamilyBoundError(UsageError):
    pass


class BinRel(Value):
    """A binary relation on {0..size-1}; (a, b) is related iff bit a*n+b."""

    __slots__ = _fields = ("size", "bits")

    def __init__(self, size, bits):
        if not is_whole(size):
            raise ValueError(f"relation size must be a positive integer, got {size!r}")
        if not (is_whole(bits, 0) and bits < 1 << size * size):
            raise ValueError(f"{bits!r} is not a relation on 0..{size - 1}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "bits", bits)

    def contains(self, a: int, b: int) -> bool:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise ValueError(f"pair ({a},{b}) outside universe 0..{self.size - 1}")
        return bool(self.bits >> (a * self.size + b) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [divmod(i, self.size) for i in _indices(self.bits)]

    def is_subset(self, other: "BinRel") -> bool:
        _check_sizes(self, other)
        return self.bits & ~other.bits == 0

    __le__ = is_subset

    def __and__(self, other):
        return intersect(self, other)

    def __or__(self, other):
        return union_(self, other)

    def __repr__(self):
        inner = ",".join(f"({a},{b})" for a, b in self.pairs())
        return f"BinRel({self.size}, {{{inner}}})"

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "BinRel":
        bits = 0
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise UsageError(f"pair ({a},{b}) outside universe 0..{size - 1}")
            bits |= 1 << (a * size + b)
        return cls(size, bits)

    @classmethod
    def delta(cls, size: int) -> "BinRel":
        return cls(size, delta_bits(size))

    @classmethod
    def full(cls, size: int) -> "BinRel":
        return cls(size, (1 << size * size) - 1)

    @classmethod
    def empty(cls, size: int) -> "BinRel":
        return cls(size, 0)


def delta_bits(n: int) -> int:
    """The bits of the diagonal {(a, a) : a < n}: one bit every n + 1, the
    geometric series sum(2**(a*(n+1)) for a < n) in closed form."""
    return ((1 << (n + 1) * n) - 1) // ((1 << n + 1) - 1)


def _check_sizes(*rels):
    n = rels[0].size
    for r in rels[1:]:
        if r.size != n:
            raise SizeMismatch(f"relation sizes differ: {n} vs {r.size}")
    return n


def is_reflexive(r: BinRel) -> bool:
    return delta_bits(r.size) & ~r.bits == 0


def is_symmetric(r: BinRel) -> bool:
    return r.bits == converse(r).bits


def is_transitive(r: BinRel) -> bool:
    return compose(r, r).bits & ~r.bits == 0


def _bits_on(alg: FiniteAlgebra, r: BinRel) -> int:
    """r's bits, once r is checked to be a relation on alg's universe."""
    if alg.size != r.size:
        raise SizeMismatch(f"algebra size {alg.size} vs relation size {r.size}")
    return r.bits


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Whether r is compatible with every operation: r is its own
    admissible closure, so each distinct r costs one memoised closure."""
    return kernels(alg).adm_close(_bits_on(alg, r)) == r.bits


def _admissibility_witness(alg, r):
    """The first (op_name, arg_pairs, image_pair) with arg_pairs in r and
    image_pair outside it, in operation order and then in
    `itertools.product(r.pairs(), repeat=arity)` order; None if there is
    none.  Only error messages use it, after `is_admissible` has failed."""
    pairs = r.pairs()
    n = alg.size
    for op in alg.operations:
        table = op.table
        for chosen in itertools.product(pairs, repeat=op.arity):
            ix = iy = 0
            for (x, y) in chosen:
                ix = ix * n + x
                iy = iy * n + y
            if not r.contains(table[ix], table[iy]):
                return (op.name, chosen, (table[ix], table[iy]))
    return None


def require_reflexive_admissible(k, r, name="R"):
    """Raise NotReflexive/NotAdmissible with a witness if `r` fails to be a
    reflexive admissible relation on the algebra of the kernel object k."""
    missing = delta_bits(r.size) & ~r.bits
    if missing:
        raise NotReflexive(name, ((missing & -missing).bit_length() - 1) // (r.size + 1))
    # the kernel, so that a counter on `is_admissible` sees only its callers
    if k.adm_close(_bits_on(k.alg, r)) != r.bits:
        w = _admissibility_witness(k.alg, r)
        if w is None:
            raise InvariantViolation(
                f"adm_close grows {name} = {r!r}, but no operation maps its pairs outside it"
            )
        raise NotAdmissible(name, *w)


# The kernels of n alone work on the `bits` ints of relations on
# {0..n-1} and keep no memo; the kernel objects of size n share their
# memos (`_size_kernels`).  `converse`, `compose` and `star` are their
# `BinRel` forms.


def converse_bits(n: int, a: int) -> int:
    bits = 0
    for i in _indices(a):
        x, y = divmod(i, n)
        bits |= 1 << (y * n + x)
    return bits


def compose_bits(n: int, a: int, b: int) -> int:
    """(x, z) related iff x A y and y B z for some y."""
    mask = (1 << n) - 1
    brows = [(b >> (y * n)) & mask for y in range(n)]
    bits = 0
    for x in range(n):
        row = (a >> (x * n)) & mask
        acc = 0
        while row:
            low = row & -row
            acc |= brows[low.bit_length() - 1]
            row ^= low
        bits |= acc << (x * n)
    return bits


def star_bits(n: int, a: int) -> int:
    """Transitive closure (not reflexive-transitive), by iterated squaring."""
    while True:
        a2 = a | compose_bits(n, a, a)
        if a2 == a:
            return a
        a = a2


def converse(r: BinRel) -> BinRel:
    return BinRel(r.size, converse_bits(r.size, r.bits))


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a, c) related iff a R b and b S c for some b."""
    n = _check_sizes(r, s)
    return BinRel(n, compose_bits(n, r.bits, s.bits))


def intersect(r: BinRel, s: BinRel) -> BinRel:
    n = _check_sizes(r, s)
    return BinRel(n, r.bits & s.bits)


def union_(r: BinRel, s: BinRel) -> BinRel:
    n = _check_sizes(r, s)
    return BinRel(n, r.bits | s.bits)


def star(r: BinRel) -> BinRel:
    """Transitive closure (not reflexive-transitive)."""
    return BinRel(r.size, star_bits(r.size, r.bits))


@memo(PLAN_ENTRIES)
def _size_kernels(n: int):
    """The memos of the kernels of n alone, keyed by relation bits alone:
    `converse_bits`, `compose_bits` and `star_bits` at n, and the slices
    (`commutator.spread_bits`) and blocks (`commutator.relation_blocks`)
    that K(R, S; V) and M(R, S) read off one relation.  They do not depend
    on the operations, so every kernel object of that size shares them."""
    fns = (
        partial(converse_bits, n),
        partial(compose_bits, n),
        partial(star_bits, n),
        partial(commutator.spread_bits, n),
        partial(commutator.relation_blocks, n),
    )
    return tuple(lru_cache(maxsize=KERNEL_ENTRIES)(f) for f in fns)


def _adm_close(alg, r):
    """Smallest compatible relation containing r (closure in the square),
    through this module's `subuniverse_closure` name, which the
    benchmark's closure spans wrap."""
    return subuniverse_closure(alg, 2, r).bits


class Kernels:
    """The int kernels of one algebra, `kernels(alg)`: each attribute maps
    relation bits to relation bits (M(R, S) to 4-tuple bits), with the
    algebra and its size n bound.

    `converse`, `compose`, `star`, `adm_close`, `tol_close`, `cg`, `m_set`,
    `comm1` and `comm` are memos keyed by the relation bits alone, so a hit
    is one C-level call; the first three depend on n alone and are shared
    by the objects of that size (`_size_kernels`), as are `spread` and
    `blocks`, which K(R, S; V) and M(R, S) read off one relation.  The
    object makes its other memos itself, each a `functools.lru_cache` of
    KERNEL_ENTRIES, and `PerAlgebra.counts` sums their counters over the
    objects.  `k_op`, `comm_weak` and `cong_join` are not memoised.
    Kernels that call each other go through this object (`cg` through
    `tol_close` and `star`, `comm1` through `k_op` and `m_set`), and so do
    the `BinRel` forms and condition plans.  The object also keeps the
    matrix sets that seed M(R, S) (`computed`, see `commutator.m_set_of`)
    and the exhaustive families listed on the algebra by kind (`families`,
    see `properties`).
    """

    def __init__(self, alg: FiniteAlgebra):
        n = self.n = alg.size
        self.alg = alg
        self.delta = delta_bits(n)
        self.converse, self.compose, self.star, self.spread, self.blocks = _size_kernels(n)
        cached = lru_cache(maxsize=KERNEL_ENTRIES)
        self.adm_close = cached(partial(_adm_close, alg))
        self.tol_close = cached(self._tol_close)
        self.cg = cached(self._cg)
        self.m_set = cached(partial(commutator.m_set_of, self))
        self.comm1 = cached(partial(commutator.comm1_of, self))
        self.comm = cached(partial(commutator.comm_of, self))
        self.k_op = partial(commutator.k_op_of, self)
        self.comm_weak = partial(commutator.comm_weak_of, self)
        self.computed = {}
        self.families = {}

    def _tol_close(self, r):
        """Smallest tolerance containing r."""
        return self.adm_close(self.delta | r | self.converse(r))

    def _cg(self, r):
        """Smallest congruence containing r."""
        out = self.star(self.tol_close(r))
        # transitive closure of an admissible relation stays admissible
        if self.adm_close(out) != out:
            n = self.n
            witness = _admissibility_witness(self.alg, BinRel(n, out))
            raise InvariantViolation(
                f"cg({BinRel(n, r)!r}) = {BinRel(n, out)!r} is not admissible: {witness}"
            )
        return out

    def cong_join(self, a, b):
        """Join in the congruence lattice: star(a ; b), each argument checked
        to be a congruence first."""
        _join_argument(self, a, "first")
        _join_argument(self, b, "second")
        return self.star(self.compose(a, b))


kernels = PerAlgebra(Kernels)


def _join_argument(k, bits, position):
    if k.cg(bits) != bits:
        raise UsageError(f"the {position} argument of cong_join is not a congruence")
    return bits


@kernels.counts("adm_close")
def adm_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest compatible relation containing r (closure in the square)."""
    return BinRel(r.size, kernels(alg).adm_close(_bits_on(alg, r)))


@kernels.counts("tol_close")
def tol_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest tolerance containing r."""
    return BinRel(r.size, kernels(alg).tol_close(_bits_on(alg, r)))


@kernels.counts("cg")
def cg(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest congruence containing r."""
    return BinRel(r.size, kernels(alg).cg(_bits_on(alg, r)))


def is_tolerance(alg, r) -> bool:
    return kernels(alg).tol_close(_bits_on(alg, r)) == r.bits


def is_congruence(alg, r) -> bool:
    return kernels(alg).cg(_bits_on(alg, r)) == r.bits


def cong_join(alg: FiniteAlgebra, gamma: BinRel, delta: BinRel) -> BinRel:
    """Join in the congruence lattice: star(gamma ; delta)."""
    # gamma is checked whole, size and congruence, before delta's size
    k = kernels(alg)
    a = _join_argument(k, _bits_on(alg, gamma), "first")
    return BinRel(alg.size, k.cong_join(a, _bits_on(alg, delta)))


class RelFamily(Value):
    """A quantifier range: which relations, and how they are produced.

    kind is one of the family constants (may be None for templates that
    checkers re-target per quantified name); mode is "exhaustive" or
    "sampled", and sampled mode draws `sample_count` closure-generated
    relations from `seed`.
    """

    __slots__ = _fields = ("kind", "mode", "sample_count", "seed")

    def __init__(self, kind=None, mode="exhaustive", sample_count=200, seed=0):
        if mode not in ("exhaustive", "sampled"):
            raise UsageError(f"family mode must be 'exhaustive' or 'sampled', got {mode!r}")
        # a sampled sweep over no bindings would report "no counterexample"
        if not is_whole(sample_count):
            raise UsageError(f"sample_count must be an integer >= 1, got {sample_count!r}")
        Value.__init__(self, kind, mode, sample_count, seed)

    def with_kind(self, kind: str) -> "RelFamily":
        return self._replace(kind=kind)


def _family_max_n(kind: str) -> int:
    """The cap on n for `kind`; an override warns from this one place."""
    if kind not in _DEFAULT_MAX_N:
        raise ValueError(f"unknown family kind {kind!r}")
    override = os.environ.get(_ENV_OVERRIDE)
    if not override:
        return _DEFAULT_MAX_N[kind]
    try:
        bound = int(override)
    except ValueError:
        raise UsageError(f"{_ENV_OVERRIDE} must be an integer, got {override!r}") from None
    if bound < 1:
        raise UsageError(f"{_ENV_OVERRIDE} must be at least 1, got {bound}")
    warnings.warn(
        f"{_ENV_OVERRIDE}={override} overrides the enumeration bounds; "
        "exhaustive sweeps may get very slow"
    )
    return bound


def require_exhaustive(kind: str, n: int):
    """Raise FamilyBoundError if the cap refuses exhaustive `kind` at n."""
    if n > (bound := _family_max_n(kind)):
        raise FamilyBoundError(
            f"exhaustive {kind} enumeration is capped at n={bound} "
            f"(algebra has n={n}); use sampled mode or {_ENV_OVERRIDE}"
        )


def family_closure(alg: FiniteAlgebra, kind: str):
    """The closure operator, from relation bits to relation bits, whose
    closed sets are the family `kind`: one of alg's memoised kernels."""
    k = kernels(alg)
    if kind == REFLEXIVE_ADMISSIBLE:
        delta, adm_close = k.delta, k.adm_close
        return lambda r: adm_close(delta | r)
    if kind == TOLERANCE:
        return k.tol_close
    if kind == CONGRUENCE:
        return k.cg
    raise ValueError(f"unknown family kind {kind!r}")


def _closed_sets(n, close):
    """Every closed set of `close` on n*n-bit relations, ascending in bits.

    Ganter's NextClosure with higher bits more significant: the successor
    of A is close(A's bits above j | bit j) for the least bit j not in A
    whose closure adds no bit above j.
    """
    a = close(0)
    while True:
        yield a
        for j in range(n * n):
            bit = 1 << j
            if a & bit:
                continue
            above = -(bit << 1)
            b = close(a & above | bit)
            if b & above & ~a == 0:
                a = b
                break
        else:
            return


def random_pairs(rng, n, k) -> int:
    """The bits of k pairs (a, b) on {0..n-1}, drawn a then b."""
    bits = 0
    for _ in range(k):
        bits |= 1 << (rng.randrange(n) * n + rng.randrange(n))
    return bits


def _sample_relations(n, close, sample_count, seed):
    rng = random.Random(seed)
    seen = set()
    # Each draw is a set of 1-3 pairs.  Once every such set has been
    # closed, no later draw can yield a new member, so the sampling stops;
    # the draws are tracked only when that can come before the attempts
    # run out.
    inputs = sum(math.comb(n * n, k) for k in (1, 2, 3))
    tried = set() if inputs < sample_count * 20 else None
    attempts = 0
    while len(seen) < sample_count and attempts < sample_count * 20:
        attempts += 1
        drawn = random_pairs(rng, n, rng.randint(1, 3))
        bits = close(drawn)
        if bits not in seen:
            seen.add(bits)
            yield bits
        if tried is not None:
            tried.add(drawn)
            if len(tried) == inputs:
                return


def enumerate_relations(alg: FiniteAlgebra, family: RelFamily):
    """Stream the relations of a family.

    Exhaustive mode yields each member exactly once, in ascending order of
    the bit encoding: the closed sets of `family_closure(alg, kind)`, listed
    by NextClosure.  Sampled mode yields deduplicated closure-generated
    relations in generation order, deterministically for a fixed seed.
    """
    kind = family.kind
    n = alg.size
    if family.mode == "sampled":
        close = family_closure(alg, kind)
        members = _sample_relations(n, close, family.sample_count, family.seed)
    else:
        require_exhaustive(kind, n)  # before the kernel object exists
        members = _closed_sets(n, family_closure(alg, kind))
    for bits in members:
        yield BinRel(n, bits)


def clear_caches():
    for cached in MEMOS:
        cached.cache_clear()


# The commutator kernels of each object.  That module builds on the names
# above, so it is imported last: whichever of the two is imported first,
# each finds what it needs of the other.
from . import commutator  # noqa: E402
