"""Finite algebras as flat operation tables, plus the subuniverse-closure
engine over finite powers that everything else is built on: one semi-naive
saturation by rounds that images whole bitsets of k-tuples by masked shifts.

Each operation step is a unary map per coordinate, given by move
descriptors.  A descriptor depends on the universe size, the power and
the map alone, so `_descriptors` builds each once, from the shared masks
of `_slabs`, and every algebra of that size reads it; `_image_plans`
assembles an algebra's steps from them once per power.  A coordinate
whose map is the identity has no descriptor, so an image touches only
the coordinates that move.  Every step's descriptors are
looked up by the high and low halves of its fixed members' encodings.  The
steps of unary and binary operations fix one member, so their two small
tables are built up front; those of wider operations, keyed by the halves
of two or three members, build each row the first time a closure asks for
it.  Each round of a closure takes every tuple that the round before found
at once: per step it images its source once per distinct low key, ORs those
images per high key, and images each union once under the high key's row.
Generators come in as a bitset in the
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
from functools import lru_cache, partial
from itertools import product

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
# Their parts are shared by every algebra of one size: `_slabs` takes one
# entry per (size, power), a plan memo, and `_descriptors` one per (size,
# power, unary map).  512 entries are every unary map on 4 elements in
# powers 2 and 4, so `search-n4` describes each map once.  A descriptor
# set holds at most n masks of n**power bits per coordinate: at n = 10,
# power 4, 40 masks of 10,000 bits, about 48 KB, so the 512 sets take at
# most 24 MB there, less than the 32 plans kept held before they shared
# them (30 MB: 20 sets per plan of one binary operation).
KERNEL_ENTRIES, KERNEL_OBJECTS, PLAN_ENTRIES = 65536, 16, 256
DESCRIPTOR_ENTRIES = 512

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
    Its row holds the non-identity descriptors of the half's coordinates
    `coords`: at coordinate c, `maps[code][c]` (a `_Described`), `code`
    being the fixed arguments' values at c in base n, the sum of their
    `spread` terms (see `_image_plans`).  Threads that miss one key at
    once build equal rows, so it does not matter whose is kept."""

    __slots__ = ("maps", "coords", "spread", "size")

    def __init__(self, maps, coords, spread):
        super().__init__()
        self.maps, self.coords, self.spread, self.size = maps, coords, spread, len(spread[0])

    def __missing__(self, key):
        size, spread = self.size, self.spread
        rest, x = divmod(key, size)
        codes = spread[-1][x]
        for scaled in spread[-2::-1]:
            rest, x = divmod(rest, size)
            codes = map(operator.add, scaled[x], codes)
        maps = self.maps
        row = [maps[code][c] for c, code in zip(self.coords, codes)]
        row = self[key] = tuple(filter(None, row))
        return row


class _Described(dict):
    """The move descriptors (`_descriptors`) of a wide step's unary maps at
    every coordinate, by code, each described on its first lookup: both
    halves of the step read them, and a plan describes no map until a row
    needs it.  Threads that miss one code at once describe it alike."""

    __slots__ = ("describe", "unary")

    def __init__(self, describe, unary):
        super().__init__()
        self.describe, self.unary = describe, unary

    def __missing__(self, code):
        descriptors = self[code] = self.describe(self.unary[code])
        return descriptors


@memo(PLAN_ENTRIES)
def _slabs(n: int, power: int):
    """Per coordinate c of the `power`-tuples over {0..n-1}, the bitset of
    the tuples whose value at c is v, at index v: w = n**(power-1-c) bits
    from bit v*w of every n*w."""
    whole = (1 << n**power) - 1
    out = []
    for c in range(power):
        w = n ** (power - 1 - c)
        column = whole // ((1 << n * w) - 1) * ((1 << w) - 1)
        out.append(tuple(column << v * w for v in range(n)))
    return tuple(out)


@memo(DESCRIPTOR_ENTRIES)
def _descriptors(n: int, power: int, g):
    """The move descriptor of the unary map g (a tuple, g[v] the image of
    v) at each coordinate of the `power`-tuples over {0..n-1}: (kept,
    ((mask, up, down), ...)), the tuples whose value there g fixes and, per
    displacement d, in order of its first value, the tuples that move by
    d, shifted up or down by d*n**(power-1-c) bits.  None at every
    coordinate if g is the identity."""
    shifted = {}
    for v, gv in enumerate(g):
        shifted.setdefault(gv - v, []).append(v)
    fixed = shifted.pop(0, ())
    if not shifted:
        return (None,) * power
    out = []
    for c, slab in enumerate(_slabs(n, power)):
        w = n ** (power - 1 - c)
        kept = 0
        for v in fixed:
            kept |= slab[v]
        moves = []
        for d, values in shifted.items():
            mask = 0
            for v in values:
                mask |= slab[v]
            moves.append((mask, max(d * w, 0), max(-d * w, 0)))
        out.append((kept, tuple(moves)))
    return tuple(out)


@memo(2 * KERNEL_OBJECTS)
def _image_plans(alg: FiniteAlgebra, power: int):
    """The image steps of `subuniverse_closure`, as (tables, products).

    Per operation and position p of a member x of a round's frontier F,
    the last position r other than p (p itself if unary) takes the set
    `source` of members, and each other position one member of its set in
    `layout`; sets are flags: 1 for `done`, the members of the rounds
    before (before p), 2 for x itself (at p), 3 for done | F (after p).
    With the other arguments fixed, `unary[code]` is the map y ->
    op(..., y at r, ...), `code` being the fixed arguments' values at a
    coordinate in base n, and `_descriptors` gives its move descriptor at
    each coordinate, or None where it is the identity.  The descriptors
    depend on n, the power and the map alone, so every algebra of that size
    shares them.  Steps alike but for their sources merge into one, as at a
    commutative op's two positions.

    Only a unary op's steps have source 2, since a step that a binary or
    wider op shares ORs its flags to 3.  Its one fixed argument is the
    member it maps, so its map is the op itself at every code: every row of
    its `highs` is equal, and so is every row of its `lows`, and
    `_saturate` reads row 0 to image a whole frontier at once.

    Every step is split at the same place: `highs` holds the non-identity
    descriptors of coordinates 0..power//2-1, `lows` those of the others,
    each looked up by the matching halves of the fixed members' encodings.
    A step whose only fixed argument is x itself (layout (2,), every
    step of a unary or binary op) becomes a row of `tables`, (source, highs,
    lows), with every row built up front: `highs[h]` for a member whose
    encoding has high half h, `lows[l]` for low half l, so a step has about
    2*n**(power/2) rows rather than n**power.  Wider steps, with two or
    three fixed members, are in `products`, ((layout, ((highs, lows,
    source), ...)), ...), their halves `_Rows` keyed member-major, which
    hold no row, and describe no map, until a closure looks one up.
    """
    n = alg.size
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
            unary = tuple(op.table[s : s + n * step : step] for s in starts)
            layout = tuple(1 if q < p else 2 if q == p else 3 for q in fixed)
            steps = groups.setdefault(layout, {})
            steps[unary] = steps.get(unary, 0) | (1 if r < p else 2 if r == p else 3)

    describe = partial(_descriptors, n, power)
    half = power // 2

    def rows(maps):
        # per code of these coordinates, first coordinate most significant
        # as in `_decode`, the descriptors of its maps that move
        return tuple(tuple(filter(None, moving)) for moving in product(*maps))

    tables = []
    for unary, source in groups.pop((2,), {}).items():
        maps = tuple(zip(*map(describe, unary)))  # maps[c][code]
        tables.append((source, rows(maps[:half]), rows(maps[half:])))
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

    products = []
    for layout, steps in groups.items():
        highs, lows = spread[half, len(layout)], spread[power - half, len(layout)]
        wide = []
        for unary, source in steps.items():
            maps = _Described(describe, unary)
            halves = _Rows(maps, range(half), highs), _Rows(maps, range(half, power), lows)
            wide.append((*halves, source))
        products.append((layout, tuple(wide)))
    return tuple(tables), tuple(products)


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

    Semi-naive saturation (Bancilhon & Ramakrishnan, 1986) by rounds.  A
    round's frontier F holds the tuples found since the round before, and
    `done` those of the rounds before it.  The round applies each operation
    once to every argument tuple over done | F that holds a member of F, at
    the position p of its first member of F: the positions before p range
    over done, those after p over done | F.  Then F joins done, and the run
    ends with a round that finds nothing new.  One position r takes its
    members as a bitset, the step's source: with the other arguments fixed
    the operation is a unary map on each coordinate, and `_image` maps the
    whole bitset by masked shifts, one moving coordinate at a time;
    identity maps are left out.  A step's descriptors are looked up by the
    high and low halves of its fixed members' encodings (one member of F
    for a binary op, two or three members for wider ops, member-major).
    The two halves' coordinates are disjoint, so their maps commute, and an
    image of a union is the union of the images: per high key h, the round
    ORs the source's images under the low rows of h's low keys, each made
    once per step and round, and images that union once under h's row.  A
    high key with one low key takes both rows in one image.  A unary op
    maps every member alike, so its step makes one image of F per round.
    Nullary operations contribute their constant diagonal tuple; an empty
    generator set with no nullary operations yields the empty set.

    `closed`, if given, must already be closed under the operations (the
    caller's promise, not checked): its tuples are in `done` from the
    start and never in a frontier, so no combination among them is imaged,
    while every combination that includes a later member is still applied
    in that member's round.  Unary and binary steps read them only inside
    their sources; wide ops read their encodings, grouped by high half, as
    fixed arguments that range over `done`.

    `within`, by default the whole power, is the caller's promise of a
    set that contains the closure.  Saturation stops as soon as every
    tuple of `within` is in, after any image that adds tuples, mid-round
    if need be, since no image can add one then.  The promise is checked
    on each batch of new tuples as it is found (`_saturate`): the
    generators, a round's unary images, then each high image.  The first
    tuple outside `within` raises a `ValueError` naming the bound instead
    of returning.  The check sees only the tuples the run adds, so a run
    that reaches every tuple of a bound stops there even if the bound
    misses a tuple that the run would have added next.
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


def _by_high(bits: int, half: int) -> dict:
    """The members of a bitset, by the high halves of their encodings: the
    ascending low halves of each high half that occurs, `half` being
    n**(power - power//2), each high half's lows read from its slice."""
    groups = {}
    mask = (1 << half) - 1
    h = 0
    while bits:
        if bits & mask:
            groups[h] = _indices(bits & mask)
        bits >>= half
        h += 1
    return groups


def _saturate(alg, power, generators, closed, within, complete=False):
    """The saturation loop of `subuniverse_closure`, on bitsets it has
    checked: the closure's bits, or None as soon as a batch of new tuples
    (the generators, then each batch that `_round` yields) has one outside
    `within`.  Bits equal to `within` may come from a run that stopped
    because it filled its bound, so they do not prove that `within` is
    closed, unless `complete` is set: then the run finishes every round even
    once it holds all of `within`, and what it returns is closed."""
    n = alg.size
    done = closed  # the members of the rounds before this one
    seen = done | generators
    for op in alg.operations:
        if op.arity == 0:
            seen |= 1 << _encode(n, op.table * power)
    outside = ~within
    if seen & outside:
        return None

    tables, products = _image_plans(alg, power)
    # a unary op's step maps every member alike (source 2), by its row 0
    unary = [highs[0] + lows[0] for source, highs, lows in tables if source == 2]
    plan = unary, tables, products, n ** (power - power // 2), n ** (power // 2)
    stop = -1 if complete else within  # no bitset equals -1
    while seen != stop:
        frontier = seen & ~done
        if not frontier:
            break
        for found in _round(plan, done, frontier):
            new = found & ~seen
            if new & outside:
                return None
            seen |= new
            if seen == stop:
                return seen
        done |= frontier
    return seen


def _round(plan, done, frontier):
    """Yield the batches of tuples that one round of `_saturate` finds from
    the members of the rounds before it, `done`, and its `frontier`: first
    the frontier's images under every unary op, as one batch, then each
    other step's images, one per high key.  A step images its source once
    under the row of each low key that goes with a high key (memoised for
    that step), ORs the low images of each high key, and images that union
    once under the high key's row; a high key with one low key takes both
    rows in one image."""
    unary, tables, products, half, top = plan
    if unary:
        found = 0
        for row in unary:
            found |= _image(frontier, row)
        yield found
    sources = (0, done, frontier, done | frontier)
    now = _by_high(frontier, half)
    # per step, its source, its rows and its fixed members' low keys by high key
    steps = [(sources[source], highs, lows, now) for source, highs, lows in tables if source != 2]
    if products:
        ranges = (None, _by_high(done, half), now, _by_high(sources[3], half))
        for layout, wide in products:
            keys = {0: [0]}  # member-major, as `_Rows` reads them
            for j in layout:
                keys = {
                    kh * top + h: [kl * half + l for kl in kls for l in ls]
                    for kh, kls in keys.items()
                    for h, ls in ranges[j].items()
                }
            steps += [(sources[source], highs, lows, keys) for highs, lows, source in wide]
    for source, highs, lows, keys in steps:
        images = {}  # the source's image under each low key's row
        for h, kls in keys.items():
            if len(kls) == 1 and kls[0] not in images:
                yield _image(source, highs[h] + lows[kls[0]])
            else:
                union = 0
                for l in kls:
                    image = images.get(l)
                    if image is None:
                        image = images[l] = _image(source, lows[l])
                    union |= image
                yield _image(union, highs[h])
