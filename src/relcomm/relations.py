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
"""

from __future__ import annotations

import itertools
import os
import random
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import FiniteAlgebra, _indices, subuniverse_closure

REFLEXIVE_ADMISSIBLE = "reflexive-admissible"
TOLERANCE = "tolerance"
CONGRUENCE = "congruence"

# Exhaustive enumeration caps (max universe size per family), chosen so a
# full quantifier sweep stays in the seconds range.
_DEFAULT_MAX_N = {REFLEXIVE_ADMISSIBLE: 4, TOLERANCE: 6, CONGRUENCE: 10}

_ENV_OVERRIDE = "RELCOMM_MAX_N"
_warned_override = False


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


@dataclass(frozen=True)
class BinRel:
    """A binary relation on {0..size-1}; (a, b) is related iff bit a*n+b."""

    size: int
    bits: int

    def contains(self, a: int, b: int) -> bool:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise ValueError(f"pair ({a},{b}) outside universe 0..{self.size - 1}")
        return bool(self.bits >> (a * self.size + b) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        if self.bits >> self.size * self.size:
            raise ValueError(f"{self.bits} is not a relation on 0..{self.size - 1}")
        return [divmod(i, self.size) for i in _indices(self.bits)]

    def count(self) -> int:
        return self.bits.bit_count()

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
    """The bits of the diagonal {(a, a) : a < n}."""
    return sum(1 << a * (n + 1) for a in range(n))


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


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Whether r is compatible with every operation: r is its own
    admissible closure, so each distinct r costs one memoised closure."""
    return adm_close(alg, r) == r


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


def require_reflexive_admissible(alg, r, name="R"):
    """Raise NotReflexive/NotAdmissible with a witness if `r` fails."""
    missing = delta_bits(r.size) & ~r.bits
    if missing:
        raise NotReflexive(name, ((missing & -missing).bit_length() - 1) // (r.size + 1))
    if not is_admissible(alg, r):
        w = _admissibility_witness(alg, r)
        if w is None:
            raise InvariantViolation(
                f"adm_close grows {name} = {r!r}, but no operation maps its pairs outside it"
            )
        raise NotAdmissible(name, *w)


# The relation-algebra kernels work on the `bits` ints of relations on
# {0..n-1}, so their caches are keyed by ints and hashed in C; `converse`,
# `compose` and `star` are their `BinRel` forms.


@lru_cache(maxsize=65536)
def converse_bits(n: int, a: int) -> int:
    bits = 0
    for i in _indices(a):
        x, y = divmod(i, n)
        bits |= 1 << (y * n + x)
    return bits


@lru_cache(maxsize=65536)
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


@lru_cache(maxsize=65536)
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


@lru_cache(maxsize=65536)
def adm_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest compatible relation containing r (closure in the square)."""
    if alg.size != r.size:
        raise SizeMismatch(f"algebra size {alg.size} vs relation size {r.size}")
    return BinRel(r.size, subuniverse_closure(alg, 2, r.bits).bits)


@lru_cache(maxsize=65536)
def tol_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest tolerance containing r."""
    base = union_(union_(BinRel.delta(r.size), r), converse(r))
    return adm_close(alg, base)


@lru_cache(maxsize=65536)
def cg(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest congruence containing r."""
    out = star(tol_close(alg, r))
    # transitive closure of an admissible relation stays admissible
    if not is_admissible(alg, out):
        witness = _admissibility_witness(alg, out)
        raise InvariantViolation(f"cg({r!r}) = {out!r} is not admissible: {witness}")
    return out


def is_tolerance(alg, r) -> bool:
    return tol_close(alg, r) == r


def is_congruence(alg, r) -> bool:
    return cg(alg, r) == r


def cong_join(alg: FiniteAlgebra, gamma: BinRel, delta: BinRel) -> BinRel:
    """Join in the congruence lattice: star(gamma ; delta)."""
    for position, rel in (("first", gamma), ("second", delta)):
        if not is_congruence(alg, rel):
            raise UsageError(f"the {position} argument of cong_join is not a congruence")
    return star(compose(gamma, delta))


@dataclass(frozen=True)
class RelFamily:
    """A quantifier range: which relations, and how they are produced.

    kind is one of the family constants (may be None for templates that
    checkers re-target per quantified name); sampled mode draws
    `sample_count` closure-generated relations from `seed`.
    """

    kind: str | None = None
    mode: str = "exhaustive"
    sample_count: int = 200
    seed: int = 0

    def __post_init__(self):
        # a sampled sweep over no bindings would report "no counterexample"
        if self.sample_count < 1:
            raise UsageError(f"sample_count must be >= 1, got {self.sample_count}")

    def with_kind(self, kind: str) -> "RelFamily":
        return replace(self, kind=kind)


def _family_max_n(kind: str) -> int:
    global _warned_override
    override = os.environ.get(_ENV_OVERRIDE)
    if override:
        if not _warned_override:
            warnings.warn(
                f"{_ENV_OVERRIDE}={override} overrides the enumeration bounds; "
                "exhaustive sweeps may get very slow",
                stacklevel=3,
            )
            _warned_override = True
        return int(override)
    return _DEFAULT_MAX_N[kind]


def family_closure(alg: FiniteAlgebra, kind: str):
    """The closure operator, from relation bits to relation bits, whose
    closed sets are the family `kind`.  `BinRel`s appear only at this
    boundary, for the caches of `adm_close`, `tol_close` and `cg`, which it
    looks up at call time."""
    n = alg.size
    if kind == REFLEXIVE_ADMISSIBLE:
        delta = delta_bits(n)
        return lambda r: adm_close(alg, BinRel(n, delta | r)).bits
    if kind == TOLERANCE:
        return lambda r: tol_close(alg, BinRel(n, r)).bits
    if kind == CONGRUENCE:
        return lambda r: cg(alg, BinRel(n, r)).bits
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
    attempts = 0
    while len(seen) < sample_count and attempts < sample_count * 20:
        attempts += 1
        bits = close(random_pairs(rng, n, rng.randint(1, 3)))
        if bits not in seen:
            seen.add(bits)
            yield bits


def enumerate_relations(alg: FiniteAlgebra, family: RelFamily):
    """Stream the relations of a family.

    Exhaustive mode yields each member exactly once, in ascending order of
    the bit encoding: the closed sets of `family_closure(alg, kind)`, listed
    by NextClosure.  Sampled mode yields deduplicated closure-generated
    relations in generation order, deterministically for a fixed seed.
    """
    kind = family.kind
    n = alg.size
    close = family_closure(alg, kind)
    if family.mode == "sampled":
        members = _sample_relations(n, close, family.sample_count, family.seed)
    elif family.mode != "exhaustive":
        raise ValueError(f"unknown family mode {family.mode!r}")
    elif n > _family_max_n(kind):
        raise FamilyBoundError(
            f"exhaustive {kind} enumeration is capped at n={_family_max_n(kind)} "
            f"(algebra has n={n}); use sampled mode or {_ENV_OVERRIDE}"
        )
    else:
        members = _closed_sets(n, close)
    for bits in members:
        yield BinRel(n, bits)


def clear_caches():
    converse_bits.cache_clear()
    compose_bits.cache_clear()
    star_bits.cache_clear()
    adm_close.cache_clear()
    tol_close.cache_clear()
    cg.cache_clear()
