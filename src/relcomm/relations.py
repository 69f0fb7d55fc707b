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

Every cache is keyed by relation bits.  The relation-algebra kernels
(`converse_bits`, `compose_bits`, `star_bits`) are keyed by (n, bits), the
closures (`adm_close_bits`, `tol_close_bits`, `cg_bits`) by (algebra,
bits); `cg_bits` checks its admissibility invariant on every miss.  Their
`BinRel` forms check sizes (`SizeMismatch`), call them and keep no cache;
`adm_close`, `tol_close` and `cg` carry their kernel's `cache_info` and
`cache_clear`.  `cong_join_bits` is uncached and checks both arguments.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial

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

    def __post_init__(self):
        if not 0 <= self.bits < 1 << self.size * self.size:
            raise ValueError(f"{self.bits} is not a relation on 0..{self.size - 1}")

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


def _bits_on(alg: FiniteAlgebra, r: BinRel) -> int:
    """r's bits, once r is checked to be a relation on alg's universe."""
    if alg.size != r.size:
        raise SizeMismatch(f"algebra size {alg.size} vs relation size {r.size}")
    return r.bits


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    """Whether r is compatible with every operation: r is its own
    admissible closure, so each distinct r costs one memoised closure."""
    return adm_close_bits(alg, _bits_on(alg, r)) == r.bits


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


def cached_by(kernel):
    """Give the decorated `BinRel` form its kernel's `cache_info` and
    `cache_clear`, so that a counter read on the public name reads the one
    cache that every caller shares."""

    def attach(wrapper):
        wrapper.cache_info = kernel.cache_info
        wrapper.cache_clear = kernel.cache_clear
        return wrapper

    return attach


@lru_cache(maxsize=65536)
def adm_close_bits(alg: FiniteAlgebra, r: int) -> int:
    """Smallest compatible relation containing r (closure in the square)."""
    return subuniverse_closure(alg, 2, r).bits


@lru_cache(maxsize=65536)
def tol_close_bits(alg: FiniteAlgebra, r: int) -> int:
    """Smallest tolerance containing r."""
    n = alg.size
    return adm_close_bits(alg, delta_bits(n) | r | converse_bits(n, r))


@lru_cache(maxsize=65536)
def cg_bits(alg: FiniteAlgebra, r: int) -> int:
    """Smallest congruence containing r."""
    n = alg.size
    out = star_bits(n, tol_close_bits(alg, r))
    # transitive closure of an admissible relation stays admissible
    if adm_close_bits(alg, out) != out:
        witness = _admissibility_witness(alg, BinRel(n, out))
        raise InvariantViolation(
            f"cg({BinRel(n, r)!r}) = {BinRel(n, out)!r} is not admissible: {witness}"
        )
    return out


def _join_argument(alg, bits, position):
    if cg_bits(alg, bits) != bits:
        raise UsageError(f"the {position} argument of cong_join is not a congruence")
    return bits


def cong_join_bits(alg: FiniteAlgebra, a: int, b: int) -> int:
    """Join in the congruence lattice: star(a ; b), each argument checked
    to be a congruence first."""
    a = _join_argument(alg, a, "first")
    b = _join_argument(alg, b, "second")
    n = alg.size
    return star_bits(n, compose_bits(n, a, b))


@cached_by(adm_close_bits)
def adm_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest compatible relation containing r (closure in the square)."""
    return BinRel(r.size, adm_close_bits(alg, _bits_on(alg, r)))


@cached_by(tol_close_bits)
def tol_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest tolerance containing r."""
    return BinRel(r.size, tol_close_bits(alg, _bits_on(alg, r)))


@cached_by(cg_bits)
def cg(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest congruence containing r."""
    return BinRel(r.size, cg_bits(alg, _bits_on(alg, r)))


def is_tolerance(alg, r) -> bool:
    return tol_close_bits(alg, _bits_on(alg, r)) == r.bits


def is_congruence(alg, r) -> bool:
    return cg_bits(alg, _bits_on(alg, r)) == r.bits


def cong_join(alg: FiniteAlgebra, gamma: BinRel, delta: BinRel) -> BinRel:
    """Join in the congruence lattice: star(gamma ; delta)."""
    # gamma is checked whole, size and congruence, before delta's size
    a = _join_argument(alg, _bits_on(alg, gamma), "first")
    return BinRel(alg.size, cong_join_bits(alg, a, _bits_on(alg, delta)))


@dataclass(frozen=True)
class RelFamily:
    """A quantifier range: which relations, and how they are produced.

    kind is one of the family constants (may be None for templates that
    checkers re-target per quantified name); mode is "exhaustive" or
    "sampled", and sampled mode draws `sample_count` closure-generated
    relations from `seed`.
    """

    kind: str | None = None
    mode: str = "exhaustive"
    sample_count: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise UsageError(
                f"family mode must be 'exhaustive' or 'sampled', got {self.mode!r}"
            )
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
    closed sets are the family `kind`: one of the cached kernels."""
    if kind == REFLEXIVE_ADMISSIBLE:
        delta = delta_bits(alg.size)
        return lambda r: adm_close_bits(alg, delta | r)
    if kind == TOLERANCE:
        return partial(tol_close_bits, alg)
    if kind == CONGRUENCE:
        return partial(cg_bits, alg)
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
    close = family_closure(alg, kind)
    if family.mode == "sampled":
        members = _sample_relations(n, close, family.sample_count, family.seed)
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
    for kernel in (converse_bits, compose_bits, star_bits, adm_close_bits, tol_close_bits, cg_bits):
        kernel.cache_clear()
