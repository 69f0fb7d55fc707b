"""Finite algebras as flat operation tables, plus the subuniverse-closure
engine over finite powers that everything else is built on.

All values are immutable after construction and safe to share across
threads; closure itself runs single-threaded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

# Operations with arity above this are rejected at construction time:
# closure cost grows as |S|**arity per pass and nothing here needs more.
MAX_ARITY = 4

# Encoded pairwise operation tables are only precomputed while they fit
# comfortably in memory ((n**k)**2 entries).
_ENCODED_TABLE_LIMIT = 1_500_000


@dataclass(frozen=True)
class Operation:
    """A named finitary operation given by its flat row-major table."""

    name: str
    arity: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class FiniteAlgebra:
    """An algebra on the universe {0..size-1}.

    `operations` accepts (name, arity, table) triples or Operation values;
    tables are flat row-major with size**arity entries.
    """

    size: int
    operations: tuple[Operation, ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"algebra size must be positive, got {self.size}")
        ops = []
        for op in self.operations:
            if not isinstance(op, Operation):
                name, arity, table = op
                op = Operation(str(name), int(arity), tuple(table))
            ops.append(op)
        object.__setattr__(self, "operations", tuple(ops))
        names = set()
        for op in self.operations:
            if op.name in names:
                raise ValueError(f"duplicate operation name {op.name!r}")
            names.add(op.name)
            if op.arity < 0:
                raise ValueError(f"operation {op.name!r} has negative arity")
            if op.arity > MAX_ARITY:
                raise ValueError(
                    f"operation {op.name!r} has arity {op.arity} above the cap {MAX_ARITY}"
                )
            expected = self.size**op.arity
            if len(op.table) != expected:
                raise ValueError(
                    f"operation {op.name!r} needs {expected} table entries, got {len(op.table)}"
                )
            for v in op.table:
                if not (0 <= v < self.size):
                    raise ValueError(
                        f"operation {op.name!r} table entry {v} outside 0..{self.size - 1}"
                    )

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(f"no operation named {name!r}")

    def __repr__(self):
        ops = ", ".join(f"{op.name}/{op.arity}" for op in self.operations)
        return f"FiniteAlgebra(size={self.size}, ops=[{ops}])"


@dataclass(frozen=True)
class TupleSet:
    """A set of k-tuples (k = `power`) over {0..size-1}, as a bitset: tuple
    (t_1, ..., t_k) is bit t_1*n**(k-1) + ... + t_k, the row-major order of
    the operation tables and, at k = 2, of `BinRel.bits`."""

    size: int
    power: int
    bits: int

    def contains(self, *t: int) -> bool:
        return bool(self.bits >> _encode(self.size, t) & 1)

    def members(self):
        """Yield the tuples in ascending encoding order."""
        rem = self.bits
        while rem:
            low = rem & -rem
            rem ^= low
            yield _decode(self.size, self.power, low.bit_length() - 1)

    def __len__(self):
        return self.bits.bit_count()

    def __le__(self, other: "TupleSet") -> bool:
        return self.bits & ~other.bits == 0


def _encode(n: int, t) -> int:
    enc = 0
    for v in t:
        enc = enc * n + v
    return enc


def _decode(n: int, power: int, enc: int) -> tuple[int, ...]:
    t = [0] * power
    for c in range(power - 1, -1, -1):
        enc, t[c] = divmod(enc, n)
    return tuple(t)


def eval_op(alg: FiniteAlgebra, op_index: int, args) -> int:
    """Apply the op at `op_index` to `args`, by row-major table lookup."""
    if not (0 <= op_index < len(alg.operations)):
        raise ValueError(f"op_index {op_index} out of range")
    op = alg.operations[op_index]
    if len(args) != op.arity:
        raise ValueError(
            f"operation {op.name!r} expects {op.arity} arguments, got {len(args)}"
        )
    for v in args:
        if not (0 <= v < alg.size):
            raise ValueError(f"argument {v} outside universe 0..{alg.size - 1}")
    return op.table[_encode(alg.size, args)]


# Kept for speed: with binary ops on the generic path, 400 m_set calls on the 4-chain
# lattice took 6-8x longer (2.6 s, not 0.4 s; Python 3.11, shared 2-core VM).
@lru_cache(maxsize=256)
def _encoded_tables(alg: FiniteAlgebra, power: int):
    """Per-op tables acting directly on encoded k-tuples, or None where the
    arity is above 2 or the table would be too large.

    For a binary op the table T satisfies T[u * n**k + v] = enc(f applied
    coordinatewise to dec(u), dec(v)); it is built by extending the base
    table one coordinate at a time.
    """
    n = alg.size
    total = n**power
    out = []
    for op in alg.operations:
        if op.arity == 1:
            t = list(op.table)
            for _ in range(power - 1):
                t = [tu * n + fa for tu in t for fa in op.table]
            out.append(tuple(t))
        elif op.arity == 2 and total * total <= _ENCODED_TABLE_LIMIT:
            base_rows = [op.table[a * n : (a + 1) * n] for a in range(n)]
            rows = base_rows
            for _ in range(power - 1):
                # row u*n + a of the next table: row u of this one crossed
                # with row a of the base table
                rows = [
                    [h * n + l for h in row for l in base_rows[a]]
                    for row in rows
                    for a in range(n)
                ]
            out.append(tuple(itertools.chain.from_iterable(rows)))
        else:
            out.append(None)
    return tuple(out)


def subuniverse_closure(alg: FiniteAlgebra, power: int, generators) -> TupleSet:
    """Smallest set of k-tuples (k = `power`) containing `generators` and
    closed under every operation of `alg` applied coordinatewise, as a
    `TupleSet`.

    Semi-naive worklist saturation (Bancilhon & Ramakrishnan, 1986):
    members are processed in the order they were added, and processing
    member i applies each operation only to the argument tuples over members
    0..i that contain i, so every argument combination is applied exactly
    once.  Nullary operations contribute their constant diagonal tuple; an
    empty generator set with no nullary operations yields the empty set.
    """
    if power < 1:
        raise ValueError("power must be positive")
    n = alg.size
    total = n**power
    seen = bytearray(total)
    members = []  # encoded, in addition order

    def add(enc):
        if not seen[enc]:
            seen[enc] = 1
            members.append(enc)

    for g in generators:
        g = tuple(g)
        if len(g) != power:
            raise ValueError(f"generator {g} is not a {power}-tuple")
        for v in g:
            if not (0 <= v < n):
                raise ValueError(f"generator entry {v} outside universe 0..{n - 1}")
        add(_encode(n, g))
    for op in alg.operations:
        if op.arity == 0:
            add(_encode(n, op.table * power))

    tables = _encoded_tables(alg, power)
    ops = [(op, t) for op, t in zip(alg.operations, tables) if op.arity >= 1]
    # scaled[e][j]: the coordinates of member j times n**e, for the members
    # processed so far; the generic path sums them into table positions
    scaled = [[] for _ in range(max((op.arity for op, t in ops if t is None), default=0))]

    i = 0
    while i < len(members):
        ei = members[i]
        if scaled:
            t = _decode(n, power, ei)
            for e, col in enumerate(scaled):
                col.append(tuple(v * n**e for v in t))
        for op, table in ops:
            if table is not None and op.arity == 1:
                add(table[ei])
            elif table is not None:
                base = ei * total
                for j in range(i + 1):
                    ej = members[j]
                    add(table[base + ej])
                    add(table[ej * total + ei])
            else:
                # argument tuples over members 0..i that contain member i,
                # grouped by the position p of its first occurrence
                a = op.arity
                optable = op.table
                cols = [scaled[a - 1 - q] for q in range(a)]
                for p in range(a):
                    lists = [cols[q][:i] for q in range(p)]
                    lists.append([cols[p][i]])
                    lists += [cols[q][: i + 1] for q in range(p + 1, a)]
                    for args in itertools.product(*lists):
                        enc = 0
                        for pos in map(sum, zip(*args)):
                            enc = enc * n + optable[pos]
                        add(enc)
        i += 1

    return TupleSet(n, power, sum(1 << e for e in members))
