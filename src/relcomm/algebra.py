"""Finite algebras as flat operation tables, plus the subuniverse-closure
engine over finite powers that everything else is built on: one semi-naive
saturation that images whole bitsets of k-tuples by masked shifts.

Each operation step is a unary map per coordinate, given by move
descriptors that `_image_plans` builds once per algebra and power.  A
coordinate whose map is the identity has no descriptor, so an image
touches only the coordinates that move.  Every step's descriptors are
looked up by the high and low halves of its fixed members' encodings.  The
steps of unary and binary operations fix no argument but the member being
processed, so their two small tables are built up front; those of wider
operations, keyed by the halves of two or three members, build each row
the first time a closure asks for it.  Generators come in as a bitset in the
`TupleSet` encoding; a caller that knows part of them to be closed
already passes that part as a second bitset, `closed=`, and no
combination inside that block is imaged.  A third bitset, `within=`, bounds
the closure from above: saturation ends once it holds every tuple of that
bound, which by default is the whole power, and the first tuple found
outside it ends the run with an error.

All values are immutable after construction and safe to share across
threads; closure itself runs single-threaded.  Every value class of the
package, here and in the modules above, is a `Value`.
"""

from __future__ import annotations

import operator
import threading
from collections import namedtuple
from functools import lru_cache

# Operations with arity above this are rejected at construction time:
# closure cost grows as |S|**(arity-1) images and nothing here needs more.
MAX_ARITY = 4

# Every memo of relcomm; `relations.clear_caches` empties them all.
MEMOS = []
# Kernel memos are keyed by relation bits, and one algebra's kernels share
# one object (`PerAlgebra`): the largest measured memo holds 4,096 entries
# (`compose`, `m_set`, `comm1` on RB3's L1A_III).  `search` drops each
# algebra's object once its profile is done, so it keeps one at a time;
# 16 objects cover a caller that alternates between a few algebras.  An
# object's index of M(R, S) seeds takes one key per relation and side, 392
# on the 4-chain's 196 reflexive admissible relations.  The memos that the
# objects of one size share take one entry per relation: `blocks` one per
# R or S of an M(R, S) miss (196 there), `spread` one per V that
# K(R, S; V) reads.
# Plan memos hold one entry per condition spec or universe size (5
# condition plans on search-n4).  Image plans take one entry per (algebra,
# power), and the package closes in powers 2 (admissible closures) and 4
# (M(R, S)) only, so they are kept for as many algebras as kernel objects
# are, and no longer: `search` does not keep every candidate's plans.
KERNEL_ENTRIES, KERNEL_OBJECTS, PLAN_ENTRIES = 65536, 16, 256

# The counters of a memo, with the fields of `functools.lru_cache`'s.
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def memo(maxsize):
    """Memoise in a plain `functools.lru_cache`, registered in `MEMOS`."""

    def register(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        MEMOS.append(cached)
        return cached

    return register


class PerAlgebra:
    """A memo of one object per algebra, registered in `MEMOS`: `self(alg)`
    is `build(alg)`, built on the first call for alg or an equal algebra
    and kept for the calls after it.

    `counts(name)` gives a function the counters of the memo that every
    object holds as its attribute `name` (a `functools.lru_cache`): their
    sum over the objects kept, plus the counts of every object dropped
    (`drop`, or the oldest one past KERNEL_OBJECTS), so no counter goes
    backwards.  `clear` drops every object and zeroes those totals.
    Building, dropping and reading the totals hold one lock; a lookup that
    finds its object takes none, and is not counted.
    """

    def __init__(self, build):
        self.build = build
        self.objects = {}  # by algebra, oldest first
        self.names = []  # the memo attributes that `counts` sums
        self.dropped = {}  # by memo name: (hits, misses) of the objects dropped
        self.built = 0
        self.lock = threading.Lock()
        # the two names that `MEMOS` reads of every memo
        self.cache_info, self.cache_clear = self.info, self.clear
        MEMOS.append(self)

    def __call__(self, alg):
        obj = self.objects.get(alg)
        if obj is None:
            obj = self._build(alg)
        return obj

    def _build(self, alg):
        with self.lock:
            obj = self.objects.get(alg)  # another thread may have built it
            if obj is None:
                obj = self.objects[alg] = self.build(alg)
                self.built += 1
                if len(self.objects) > KERNEL_OBJECTS:
                    self._retire(next(iter(self.objects)))
            return obj

    def drop(self, alg):
        """Forget the object of alg, if any; its memos' counts stay in the
        totals."""
        with self.lock:
            self._retire(alg)

    def _retire(self, alg):
        obj = self.objects.pop(alg, None)
        if obj is not None:
            for name in self.names:
                hits, misses = self.dropped.get(name, (0, 0))
                info = getattr(obj, name).cache_info()
                self.dropped[name] = (hits + info.hits, misses + info.misses)

    def counts(self, name):
        """Give the decorated function `cache_info`, the summed counters of
        the memos called `name`, and `cache_clear`, and register it."""
        self.names.append(name)

        def info():
            with self.lock:
                hits, misses = self.dropped.get(name, (0, 0))
                size = 0
                for obj in self.objects.values():
                    h, m, _, s = getattr(obj, name).cache_info()
                    hits, misses, size = hits + h, misses + m, size + s
            return CacheInfo(hits, misses, KERNEL_ENTRIES, size)

        def attach(fn):
            fn.cache_info, fn.cache_clear = info, self.clear
            MEMOS.append(fn)
            return fn

        return attach

    def info(self):
        """The objects built, as misses, and the objects kept."""
        return CacheInfo(0, self.built, KERNEL_OBJECTS, len(self.objects))

    def clear(self):
        """Drop every object, and zero every counter and total."""
        with self.lock:
            self.objects.clear()
            self.dropped.clear()
            self.built = 0


def _field_reader(fields):
    """The `_values` method of a `Value` class with these fields: it reads
    them all, as a tuple, in one C-level call (`operator.attrgetter`),
    since `==`, `hash` and every walk over an expression go through it."""
    if not fields:
        return lambda self: ()
    get = operator.attrgetter(*fields)
    if len(fields) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


class Value:
    """An immutable value with `__slots__`.  A subclass names its fields in
    `_fields`, in argument order, and lists the same names in `__slots__`.
    It gets an `__init__` taking them by position or keyword, an `__eq__`
    that holds only between instances of one class with equal fields, a
    `__hash__` to match, the `repr` `Name(field=value, ...)`, `_values()`
    (the fields' values, in order), `_replace(**changes)`, and pickling
    through the constructor.  Assigning or deleting an attribute raises
    `AttributeError`.

    A subclass that checks its arguments or has defaults writes its own
    `__init__`, which sets each field with `object.__setattr__`.  It takes
    the fields in `_fields` order, since `_replace` and unpickling pass
    them by position.
    """

    __slots__ = ()
    _fields = ()
    _values = _field_reader(_fields)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = _field_reader(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args) :] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(fields)})")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), *self._values()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the fields named in `changes` set to their values."""
        values = tuple(changes.pop(f, getattr(self, f)) for f in self._fields)
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(changes)}")
        return type(self)(*values)

    def __reduce__(self):
        return type(self), self._values()


class Operation(Value):
    """A named finitary operation given by its flat row-major table: a
    `str` name, an int arity and a tuple of ints."""

    __slots__ = _fields = ("name", "arity", "table")


def is_whole(v, least: int = 1) -> bool:
    """Whether `v` is an integer (has `__index__`, so no float or str) of
    at least `least`: the one test of every size, power and count."""
    return hasattr(v, "__index__") and v >= least


def _operation(op, n: int) -> Operation:
    """An Operation value or a (name, arity, table) triple, checked to be an
    operation on {0..n-1}: a `str` name, an int arity and a tuple of ints."""
    name, arity, table = (op.name, op.arity, op.table) if isinstance(op, Operation) else op
    name, table = str(name), tuple(table)
    for what, v in (("arity", arity), *(("table entry", v) for v in table)):
        if not hasattr(v, "__index__"):
            raise ValueError(f"operation {name!r} {what} {v!r} is not an integer")
    if arity < 0:
        raise ValueError(f"operation {name!r} has negative arity")
    if arity > MAX_ARITY:
        raise ValueError(f"operation {name!r} has arity {arity} above the cap {MAX_ARITY}")
    if len(table) != n**arity:
        raise ValueError(f"operation {name!r} needs {n**arity} table entries, got {len(table)}")
    for v in table:
        if not 0 <= v < n:
            raise ValueError(f"operation {name!r} table entry {v} outside 0..{n - 1}")
    return Operation(name, operator.index(arity), tuple(map(operator.index, table)))


class FiniteAlgebra(Value):
    """An algebra on the universe {0..size-1}.

    `operations` accepts (name, arity, table) triples or Operation values;
    tables are flat row-major with size**arity entries.
    """

    __slots__ = ("size", "operations", "_hash")
    _fields = ("size", "operations")

    def __init__(self, size, operations=()):
        if not is_whole(size):
            raise ValueError(f"algebra size must be a positive integer, got {size!r}")
        ops = tuple(_operation(op, size) for op in operations)
        names = set()
        for op in ops:
            if op.name in names:
                raise ValueError(f"duplicate operation name {op.name!r}")
            names.add(op.name)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "operations", ops)
        # hashed once, from ints only, so that every cache keyed by the
        # algebra hashes it in O(1)
        object.__setattr__(
            self, "_hash", hash((size, tuple((op.arity, op.table) for op in ops)))
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        ops = ", ".join(f"{op.name}/{op.arity}" for op in self.operations)
        return f"FiniteAlgebra(size={self.size}, ops=[{ops}])"


class TupleSet(Value):
    """A set of k-tuples (k = `power`) over {0..size-1}, as a bitset: tuple
    (t_1, ..., t_k) is bit t_1*n**(k-1) + ... + t_k, the row-major order of
    the operation tables and, at k = 2, of `BinRel.bits`."""

    __slots__ = _fields = ("size", "power", "bits")

    def __init__(self, size, power, bits):
        if not (is_whole(size) and is_whole(power)):
            raise ValueError(
                f"size and power must be positive integers, got {size!r} and {power!r}"
            )
        if not (is_whole(bits, 0) and bits < 1 << size**power):
            raise ValueError(f"{bits!r} is not a set of {power}-tuples over 0..{size - 1}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "bits", bits)

    def contains(self, *t: int) -> bool:
        if len(t) != self.power or not all(0 <= v < self.size for v in t):
            raise ValueError(f"{t} is not a {self.power}-tuple over 0..{self.size - 1}")
        return bool(self.bits >> _encode(self.size, t) & 1)

    def members(self):
        """Yield the tuples in ascending encoding order."""
        for e in _indices(self.bits):
            yield _decode(self.size, self.power, e)

    def __len__(self):
        return self.bits.bit_count()

    def __le__(self, other: "TupleSet") -> bool:
        if (self.size, self.power) != (other.size, other.power):
            raise ValueError(
                f"cannot compare {self.power}-tuples over {self.size} elements "
                f"with {other.power}-tuples over {other.size} elements"
            )
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


class _Rows(dict):
    """One half of a wide step: the row of descriptors for each key, built
    on its first lookup, so a plan holds only the rows that closures read.

    A key is the fixed members' halves of their encodings, member-major in
    base n: the first fixed argument's half is its most significant digits.
    Its row holds the non-identity descriptors of the half's coordinates,
    `maps[c][code]` at the code of the fixed arguments' values at c, which
    is the sum of their `spread` terms (see `_image_plans`).  Threads that
    miss one key at once build equal rows, so it does not matter whose is
    kept."""

    __slots__ = ("maps", "spread", "size")

    def __init__(self, maps, spread):
        super().__init__()
        self.maps, self.spread, self.size = maps, spread, len(spread[0])

    def __missing__(self, key):
        size, spread = self.size, self.spread
        rest, x = divmod(key, size)
        codes = spread[-1][x]
        for scaled in spread[-2::-1]:
            rest, x = divmod(rest, size)
            codes = map(operator.add, scaled[x], codes)
        row = self[key] = tuple(filter(None, map(tuple.__getitem__, self.maps, codes)))
        return row


@memo(2 * KERNEL_OBJECTS)
def _image_plans(alg: FiniteAlgebra, power: int):
    """The image steps of `subuniverse_closure`, as (tables, products).

    Per operation and position p of member i, the last position r other
    than p (p itself if unary) takes the set `source` of members, and each
    other position one member of its set in `layout`; sets are flags: 1 for
    members 0..i-1 (before p), 2 for {i} (at p), 3 for members 0..i (after
    p).  `maps[c][code]` is the move descriptor of y -> op(..., y at r, ...)
    on coordinate c, `code` being the fixed arguments' values there in base
    n, or None where that map is the identity.  Steps alike but for their
    sources merge into one, as at a commutative op's two positions.

    Every step is split at the same place: `highs` holds the non-identity
    descriptors of coordinates 0..power//2-1, `lows` those of the others,
    each looked up by the matching halves of the fixed members' encodings.
    A step whose only fixed argument is member i itself (layout (2,), every
    step of a unary or binary op) becomes a row of `tables`, (source, highs,
    lows), with every row built up front: `highs[h]` for a member whose
    encoding has high half h, `lows[l]` for low half l, so a step has about
    2*n**(power/2) rows rather than n**power.  Wider steps, with two or
    three fixed members, are in `products`, ((layout, ((highs, lows,
    source), ...)), ...), their halves `_Rows` keyed member-major, and hold
    no row until a closure looks one up.
    """
    n = alg.size

    def describe(c, g):
        # coordinate c is v at w bits of every n*w, from bit v*w
        w = n ** (power - 1 - c)
        column = ((1 << n**power) - 1) // ((1 << n * w) - 1) * ((1 << w) - 1)
        moves = {}
        for v, gv in enumerate(g):
            moves[(gv - v) * w] = moves.get((gv - v) * w, 0) | column << (v * w)
        kept = moves.pop(0, 0)
        if not moves:
            return None
        return kept, tuple((m, max(d, 0), max(-d, 0)) for d, m in moves.items())

    groups = {}
    for op in alg.operations:
        a = op.arity
        for p in range(a):
            r = a - 1 if p < a - 1 else max(a - 2, 0)
            fixed = [q for q in range(a) if q != r or q == p]
            # per code, the table index of its arguments with 0 at r
            starts = [0]
            for q in fixed:
                starts = [s + v * n ** (a - 1 - q) * (q != r) for s in starts for v in range(n)]
            step = n ** (a - 1 - r)
            unary = [op.table[s : s + n * step : step] for s in starts]
            maps = tuple(tuple(describe(c, g) for g in unary) for c in range(power))
            layout = tuple(1 if q < p else 2 if q == p else 3 for q in fixed)
            steps = groups.setdefault(layout, {})
            steps[maps] = steps.get(maps, 0) | (1 if r < p else 2 if r == p else 3)

    def rows(maps):
        return tuple(
            tuple(filter(None, map(tuple.__getitem__, maps, _decode(n, len(maps), code))))
            for code in range(n ** len(maps))
        )

    half = power // 2
    tables = tuple(
        (source, rows(maps[:half]), rows(maps[half:]))
        for maps, source in groups.pop((2,), {}).items()
    )
    # per width of a half and number of fixed members: per member j, per
    # half x, x's digit at each coordinate times n**(fixed-1-j), its weight
    # in that coordinate's code
    spread = {
        (width, fixed): tuple(
            tuple(
                tuple(d * n ** (fixed - 1 - j) for d in _decode(n, width, x))
                for x in range(n**width)
            )
            for j in range(fixed)
        )
        for width in (half, power - half)
        for fixed in {len(layout) for layout in groups}
    }

    def lazy(steps, fixed):
        return tuple(
            (_Rows(m[:half], spread[half, fixed]), _Rows(m[half:], spread[power - half, fixed]), source)
            for m, source in steps.items()
        )

    return tables, tuple((layout, lazy(steps, len(layout))) for layout, steps in groups.items())


def _image(bits: int, descriptors) -> int:
    """The image of a set of encoded tuples under one unary map per moving
    coordinate, each given by its move descriptor (kept, ((mask, up, down),
    ...)): the tuples in `kept` stay, those in a mask shift by up - down.
    Coordinates left out are mapped by the identity."""
    for kept, moves in descriptors:
        out = bits & kept
        for mask, up, down in moves:
            out |= (bits & mask) << up >> down
        bits = out
    return bits


def _indices(bits: int) -> list[int]:
    """The positions of the set bits, ascending (a negative int has no end)."""
    if bits < 0:
        raise ValueError(f"{bits} is negative, not a bitset")
    out = []
    while bits:
        low = bits & -bits
        bits ^= low
        out.append(low.bit_length() - 1)
    return out


def subuniverse_closure(
    alg: FiniteAlgebra, power: int, generators: int, *, closed: int = 0, within: int | None = None
) -> TupleSet:
    """Smallest set of k-tuples (k = `power`) containing `generators` and
    `closed` and closed under every operation of `alg` applied
    coordinatewise, as a `TupleSet`.  `generators`, `closed` and `within`
    are bitsets in the `TupleSet` encoding (a `BinRel.bits` at k = 2), all
    under one check: an int in 0 <= bits < 2**(n**k), else a `ValueError`
    naming it.

    Semi-naive worklist saturation (Bancilhon & Ramakrishnan, 1986):
    members are processed in the order they were added, and processing
    member i applies each operation only to the argument tuples over members
    0..i that contain i, at the position p of its first occurrence, so every
    argument combination is applied exactly once.  One position r takes its
    members as a bitset: with the other arguments fixed the operation is a
    unary map on each coordinate, and `_image` maps the whole bitset by
    masked shifts, one moving coordinate at a time; identity maps are left
    out.  A binary op costs member i two images (one if commutative) and a
    unary op one image of {i}, their descriptors looked up in the step
    tables by the halves of i's encoding; wider ops enumerate the remaining
    positions over the members, and look their descriptors up by the halves
    of the fixed members' encodings.  Nullary operations contribute their
    constant diagonal tuple; an empty generator set with no nullary
    operations yields the empty set.

    `closed`, if given, must already be closed under the operations (the
    caller's promise, not checked): its tuples count as processed from the
    start and are never listed, so no combination among them is imaged,
    while every combination that includes a later member is still applied
    when that member is processed.  Unary and binary steps read them only
    inside the bitset of processed members; wide ops split their encodings
    into halves once, up front, as the fixed arguments that come before
    every later member.

    `within`, by default the whole power, is the caller's promise of a
    set that contains the closure.  Saturation stops as soon as every
    tuple of `within` is in, since no image can add one then, so the
    members still queued are never processed.  The promise is checked on
    each batch of new tuples as it is found (`_saturate`): the first
    tuple outside `within`, a generator's or an image's, raises a
    `ValueError` naming the bound instead of returning.  The check sees
    only the tuples the run adds, so a run that reaches every tuple of a
    bound stops there even if the bound misses a tuple that the run would
    have added next.
    """
    if not is_whole(power):
        raise ValueError(f"power must be a positive integer, got {power!r}")
    n = alg.size
    whole = (1 << n**power) - 1
    if within is None:
        within = whole
    for name, bits in (("generators", generators), ("closed", closed), ("within", within)):
        if not isinstance(bits, int) or not (0 <= bits <= whole):
            raise ValueError(f"{name} is not a bitset of {power}-tuples over 0..{n - 1}")
    bits = _saturate(alg, power, generators, closed, within)
    if bits is None:
        raise ValueError(f"within does not contain the closure of these {power}-tuples")
    return TupleSet(n, power, bits)


def _saturate(alg, power, generators, closed, within, complete=False):
    """The saturation loop of `subuniverse_closure`, on bitsets it has
    checked: the closure's bits, or None as soon as a batch of new tuples
    (the generators, then each member's images) has one outside `within`.
    Bits equal to `within` may come from a run that stopped because it
    filled its bound, so they do not prove that `within` is closed, unless
    `complete` is set: then the run processes every member even once it
    holds all of `within`, and what it returns is closed."""
    n = alg.size
    done = closed  # members 0..i-1
    seen = done | generators
    for op in alg.operations:
        if op.arity == 0:
            seen |= 1 << _encode(n, op.table * power)
    outside = ~within
    if seen & outside:
        return None

    tables, products = _image_plans(alg, power)
    half = n ** (power - power // 2)
    top = n ** (power // 2)
    # the halves of each processed member's encoding, `closed`'s first, as
    # the fixed arguments of wide ops
    halves = [divmod(e, half) for e in _indices(done)] if products else []
    order = []  # the encoding of each member outside `closed`, in addition order
    new = seen & ~done
    i = 0
    stop = -1 if complete else within  # no bitset equals -1
    while seen != stop:
        if new:
            order += _indices(new)
        if i == len(order):
            break
        e = order[i]
        single = 1 << e
        sets = (0, done, single, done | single)
        high, low = divmod(e, half)
        found = 0
        for source, highs, lows in tables:
            found |= _image(sets[source], highs[high] + lows[low])
        if products:
            ranges = ((), halves[:], ((high, low),), halves)
            halves.append((high, low))
            for layout, steps in products:
                # each combination's keys into the rows, member-major
                keys = [(0, 0)]
                for j in layout:
                    keys = [(kh * top + h, kl * half + l) for kh, kl in keys for h, l in ranges[j]]
                for kh, kl in keys:
                    for highs, lows, source in steps:
                        found |= _image(sets[source], highs[kh] + lows[kl])
        done |= single
        new = found & ~seen
        if new & outside:
            return None
        seen |= new
        i += 1
    return seen
