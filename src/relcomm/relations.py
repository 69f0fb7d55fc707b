"""Binary relations as n*n bit matrices, the relation-algebra toolkit
(converse, composition, transitive closure, admissible/tolerance/congruence
closures, congruence join) and enumeration of relation families.

Bit (a, b) of a relation lives at position a*n + b of the `bits` integer;
that encoding is also the documented enumeration order.  Each family is
the set of closed sets of one closure operator (`family_closure`), and
exhaustive enumeration lists them with Ganter's NextClosure, which visits
closed sets in ascending order of `bits`.
"""

from __future__ import annotations

import itertools
import os
import random
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import FiniteAlgebra, subuniverse_closure

REFLEXIVE_ADMISSIBLE = "reflexive-admissible"
TOLERANCE = "tolerance"
CONGRUENCE = "congruence"

# Exhaustive enumeration caps (max universe size per family), chosen so a
# full quantifier sweep stays in the seconds range.
_DEFAULT_MAX_N = {REFLEXIVE_ADMISSIBLE: 4, TOLERANCE: 6, CONGRUENCE: 10}

_ENV_OVERRIDE = "RELCOMM_MAX_N"
_warned_override = False


class SizeMismatch(ValueError):
    pass


class NotReflexive(ValueError):
    def __init__(self, rel_name, element):
        self.rel_name = rel_name
        self.element = element
        super().__init__(
            f"relation {rel_name} is not reflexive: ({element},{element}) missing"
        )


class NotAdmissible(ValueError):
    def __init__(self, rel_name, op_name, arg_pairs, image_pair):
        self.rel_name = rel_name
        self.op_name = op_name
        self.arg_pairs = arg_pairs
        self.image_pair = image_pair
        super().__init__(
            f"relation {rel_name} is not admissible: {op_name} maps "
            f"{arg_pairs} to {image_pair} which is outside the relation"
        )


class FamilyBoundError(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: a bug, not a usage error."""


@dataclass(frozen=True)
class BinRel:
    """A binary relation on {0..size-1}; (a, b) is related iff bit a*n+b."""

    size: int
    bits: int

    def contains(self, a: int, b: int) -> bool:
        return bool(self.bits >> (a * self.size + b) & 1)

    def pairs(self) -> list[tuple[int, int]]:
        out = []
        rem = self.bits
        while rem:
            low = rem & -rem
            i = low.bit_length() - 1
            rem ^= low
            out.append(divmod(i, self.size))
        return out

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
                raise ValueError(f"pair ({a},{b}) outside universe 0..{size - 1}")
            bits |= 1 << (a * size + b)
        return cls(size, bits)

    @classmethod
    def delta(cls, size: int) -> "BinRel":
        bits = 0
        for a in range(size):
            bits |= 1 << (a * size + a)
        return cls(size, bits)

    @classmethod
    def full(cls, size: int) -> "BinRel":
        return cls(size, (1 << size * size) - 1)

    @classmethod
    def empty(cls, size: int) -> "BinRel":
        return cls(size, 0)


def _check_sizes(*rels):
    n = rels[0].size
    for r in rels[1:]:
        if r.size != n:
            raise SizeMismatch(f"relation sizes differ: {n} vs {r.size}")
    return n


def is_reflexive(r: BinRel) -> bool:
    return BinRel.delta(r.size).bits & ~r.bits == 0


def is_symmetric(r: BinRel) -> bool:
    return r.bits == converse(r).bits


def is_transitive(r: BinRel) -> bool:
    return compose(r, r).bits & ~r.bits == 0


def is_admissible(alg: FiniteAlgebra, r: BinRel) -> bool:
    return _admissibility_witness(alg, r) is None


def _admissibility_witness(alg, r):
    """None if compatible, else (op_name, arg_pairs, image_pair)."""
    if alg.size != r.size:
        raise SizeMismatch(f"algebra size {alg.size} vs relation size {r.size}")
    pairs = r.pairs()
    n = alg.size
    for op in alg.operations:
        if op.arity == 0:
            continue
        table = op.table
        if op.arity == 1:
            for (x, y) in pairs:
                if not r.contains(table[x], table[y]):
                    return (op.name, ((x, y),), (table[x], table[y]))
        elif op.arity == 2:
            for (x1, y1) in pairs:
                xb = x1 * n
                yb = y1 * n
                for (x2, y2) in pairs:
                    if not r.contains(table[xb + x2], table[yb + y2]):
                        return (
                            op.name,
                            ((x1, y1), (x2, y2)),
                            (table[xb + x2], table[yb + y2]),
                        )
        else:
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
    for a in range(r.size):
        if not r.contains(a, a):
            raise NotReflexive(name, a)
    w = _admissibility_witness(alg, r)
    if w is not None:
        raise NotAdmissible(name, *w)


def converse(r: BinRel) -> BinRel:
    n = r.size
    bits = 0
    rem = r.bits
    while rem:
        low = rem & -rem
        i = low.bit_length() - 1
        rem ^= low
        a, b = divmod(i, n)
        bits |= 1 << (b * n + a)
    return BinRel(n, bits)


def compose(r: BinRel, s: BinRel) -> BinRel:
    """(a, c) related iff a R b and b S c for some b."""
    n = _check_sizes(r, s)
    mask = (1 << n) - 1
    srows = [(s.bits >> (b * n)) & mask for b in range(n)]
    bits = 0
    for a in range(n):
        row = (r.bits >> (a * n)) & mask
        acc = 0
        while row:
            low = row & -row
            acc |= srows[low.bit_length() - 1]
            row ^= low
        bits |= acc << (a * n)
    return BinRel(n, bits)


def intersect(r: BinRel, s: BinRel) -> BinRel:
    n = _check_sizes(r, s)
    return BinRel(n, r.bits & s.bits)


def union_(r: BinRel, s: BinRel) -> BinRel:
    n = _check_sizes(r, s)
    return BinRel(n, r.bits | s.bits)


def star(r: BinRel) -> BinRel:
    """Transitive closure (not reflexive-transitive), by iterated squaring."""
    t = r
    while True:
        t2 = union_(t, compose(t, t))
        if t2.bits == t.bits:
            return t
        t = t2


@lru_cache(maxsize=65536)
def adm_close(alg: FiniteAlgebra, r: BinRel) -> BinRel:
    """Smallest compatible relation containing r (closure in the square)."""
    if alg.size != r.size:
        raise SizeMismatch(f"algebra size {alg.size} vs relation size {r.size}")
    return BinRel(r.size, subuniverse_closure(alg, 2, r.pairs()).bits)


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
    witness = _admissibility_witness(alg, out)
    if witness is not None:
        raise InvariantViolation(f"cg({r!r}) = {out!r} is not admissible: {witness}")
    return out


def is_tolerance(alg, r) -> bool:
    return is_reflexive(r) and is_symmetric(r) and is_admissible(alg, r)


def is_congruence(alg, r) -> bool:
    return is_tolerance(alg, r) and is_transitive(r)


def cong_join(alg: FiniteAlgebra, gamma: BinRel, delta: BinRel) -> BinRel:
    """Join in the congruence lattice: star(gamma ; delta)."""
    for name, rel in (("gamma", gamma), ("delta", delta)):
        if not is_congruence(alg, rel):
            raise ValueError(f"cong_join argument {name} is not a congruence")
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
    """The closure operator whose closed sets are the family `kind`."""
    if kind == REFLEXIVE_ADMISSIBLE:
        delta = BinRel.delta(alg.size)
        return lambda r: adm_close(alg, union_(delta, r))
    if kind == TOLERANCE:
        return lambda r: tol_close(alg, r)
    if kind == CONGRUENCE:
        return lambda r: cg(alg, r)
    raise ValueError(f"unknown family kind {kind!r}")


def _closed_sets(n, close):
    """Every closed set of `close` on n*n-bit relations, ascending in bits.

    Ganter's NextClosure with higher bits more significant: the successor
    of A is close(A's bits above j | bit j) for the least bit j not in A
    whose closure adds no bit above j.
    """
    a = close(BinRel(n, 0)).bits
    while True:
        yield BinRel(n, a)
        for j in range(n * n):
            bit = 1 << j
            if a & bit:
                continue
            above = -(bit << 1)
            b = close(BinRel(n, a & above | bit)).bits
            if b & above & ~a == 0:
                a = b
                break
        else:
            return


def _sample_relations(alg, kind, sample_count, seed):
    n = alg.size
    rng = random.Random(seed)
    close = family_closure(alg, kind)
    seen = set()
    produced = 0
    attempts = 0
    while produced < sample_count and attempts < sample_count * 20:
        attempts += 1
        k = rng.randint(1, 3)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
        rel = close(BinRel.from_pairs(n, pairs))
        if rel.bits not in seen:
            seen.add(rel.bits)
            produced += 1
            yield rel


def enumerate_relations(alg: FiniteAlgebra, family: RelFamily):
    """Stream the relations of a family.

    Exhaustive mode yields each member exactly once, in ascending order of
    the bit encoding: the closed sets of `family_closure(alg, kind)`, listed
    by NextClosure.  Sampled mode yields deduplicated closure-generated
    relations in generation order, deterministically for a fixed seed.
    """
    kind = family.kind
    if kind not in (REFLEXIVE_ADMISSIBLE, TOLERANCE, CONGRUENCE):
        raise ValueError(f"unknown family kind {kind!r}")
    if family.mode == "sampled":
        yield from _sample_relations(alg, kind, family.sample_count, family.seed)
        return
    if family.mode != "exhaustive":
        raise ValueError(f"unknown family mode {family.mode!r}")
    n = alg.size
    if n > _family_max_n(kind):
        raise FamilyBoundError(
            f"exhaustive {kind} enumeration is capped at n={_family_max_n(kind)} "
            f"(algebra has n={n}); use sampled mode or {_ENV_OVERRIDE}"
        )
    yield from _closed_sets(n, family_closure(alg, kind))


def clear_caches():
    adm_close.cache_clear()
    tol_close.cache_clear()
    cg.cache_clear()
