"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and kept separate from the package:
relations are plain pair sets, tuple sets are plain frozensets, and term
functions are enumerated level by level with an explicit depth cap.  None
of it shares code with the closure engine it is meant to check, except
`per_member_saturate`: the engine's earlier loop, kept as the differential
reference of the rounds that replaced it, reads the same image plans.
"""

import itertools

import numpy as np

from relcomm import algebra


def naive_tuple_closure(size, k, arities, tables, generators):
    """Smallest set of k-tuples containing `generators` and closed under the
    operations applied coordinatewise.  Repeated full passes until stable.

    `arities`/`tables` are parallel lists; tables are flat row-major.
    """
    current = set(map(tuple, generators))
    for arity, table in zip(arities, tables):
        if arity == 0:
            current.add((table[0],) * k)
    changed = True
    while changed:
        changed = False
        snapshot = list(current)
        for arity, table in zip(arities, tables):
            if arity == 0:
                continue
            for args in itertools.product(snapshot, repeat=arity):
                out = []
                for coords in zip(*args):
                    idx = 0
                    for v in coords:
                        idx = idx * size + v
                    out.append(table[idx])
                t = tuple(out)
                if t not in current:
                    current.add(t)
                    changed = True
    return current


def naive_matrix_bound(size, r, s):
    """The 4-tuples (x, y, z, w) with x S y, z S w, x R z and y R w: the
    matrices with rows in S and columns in R.  `r` and `s` are relation
    bit ints, pair (a, b) at bit a*size + b."""

    def holds(rel, a, b):
        return rel >> (a * size + b) & 1

    return {
        (x, y, z, w)
        for x, y, z, w in itertools.product(range(size), repeat=4)
        if holds(s, x, y) and holds(s, z, w) and holds(r, x, z) and holds(r, y, w)
    }


def naive_transitive_closure(pairs):
    """One-step chaining repeated to a fixed point."""
    rel = set(pairs)
    while True:
        extra = {(a, d) for (a, b) in rel for (c, d) in rel if b == c} - rel
        if not extra:
            return rel
        rel |= extra


def naive_compose(r, s):
    return {(a, c) for (a, b) in r for (b2, c) in s if b == b2}


def naive_is_admissible(size, arities, tables, pairs):
    pairs = set(pairs)
    for arity, table in zip(arities, tables):
        # arity 0: the one empty choice asks for (c, c) in the relation
        for chosen in itertools.product(sorted(pairs), repeat=arity):
            idx_x = idx_y = 0
            for (x, y) in chosen:
                idx_x = idx_x * size + x
                idx_y = idx_y * size + y
            if (table[idx_x], table[idx_y]) not in pairs:
                return False
    return True


def all_partitions(items):
    """Every set partition of `items`, by recursive block insertion."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def partition_to_pairs(blocks):
    pairs = set()
    for block in blocks:
        for a in block:
            for b in block:
                pairs.add((a, b))
    return pairs


def naive_family(size, arities, tables, kind):
    """Every admissible member of a relation family, as sorted bit ints
    (pair (a, b) at bit a*size + b).  The candidates are all reflexive
    relations ("reflexive-admissible"), all reflexive symmetric relations
    ("tolerance") or all partitions ("congruence")."""
    if kind == "congruence":
        candidates = [partition_to_pairs(p) for p in all_partitions(range(size))]
    else:
        if kind == "reflexive-admissible":
            free = [{(a, b)} for a, b in itertools.permutations(range(size), 2)]
        elif kind == "tolerance":
            free = [{(a, b), (b, a)} for a, b in itertools.combinations(range(size), 2)]
        else:
            raise ValueError(kind)
        diagonal = {(a, a) for a in range(size)}
        candidates = [
            diagonal.union(*chosen)
            for k in range(len(free) + 1)
            for chosen in itertools.combinations(free, k)
        ]
    return sorted(
        sum(1 << (a * size + b) for a, b in pairs)
        for pairs in candidates
        if naive_is_admissible(size, arities, tables, pairs)
    )


class TermTableOracle:
    """Term functions of a finite algebra in exactly 4 variables, enumerated
    by term-tree depth and deduplicated by their induced value table.

    A table is a numpy vector of length size**4 indexed by the assignment
    code ((v0*n + v1)*n + v2)*n + v3.  Depth 0 gives the four projections
    (and the constants of any nullary operations); depth d+1 applies every
    basic operation to tables of depth <= d.
    """

    def __init__(self, size, arities, tables, max_depth=3):
        self.size = size
        n = size
        count = n**4
        assignments = np.arange(count)
        projections = []
        for v in range(4):
            shift = n ** (3 - v)
            projections.append((assignments // shift) % n)
        level = [p.astype(np.int64) for p in projections]
        for arity, table in zip(arities, tables):
            if arity == 0:
                level.append(np.full(count, table[0], dtype=np.int64))
        seen = {t.tobytes(): t for t in level}
        frontier = list(seen.values())
        for _ in range(max_depth):
            known = list(seen.values())
            frontier_ids = {id(t) for t in frontier}
            new_tables = []
            for arity, table in zip(arities, tables):
                if arity == 0:
                    continue
                flat = np.asarray(table, dtype=np.int64)
                for args in itertools.product(known, repeat=arity):
                    if not any(id(a) in frontier_ids for a in args):
                        continue
                    idx = args[0]
                    for a in args[1:]:
                        idx = idx * n + a
                    candidate = flat[idx]
                    key = candidate.tobytes()
                    if key not in seen:
                        seen[key] = candidate
                        new_tables.append(candidate)
            if not new_tables:
                break
            frontier = new_tables
        self.tables = list(seen.values())
        # one row per table, in the narrowest type that holds a matrix code
        self.stack = np.stack(self.tables).astype(np.min_scalar_type(n**4 - 1))

    def matrix_set(self, r_pairs, s_pairs):
        """All matrices (x, y, z, w) realizable by the stored term tables.

        Each of the four variable positions independently varies either
        along R (value pattern a,a,a',a') or along S (pattern b,b',b,b'),
        so a matrix is a term table evaluated coordinatewise at a choice
        of four such column patterns.
        """
        n = self.size
        quads = [(a, a, b, b) for (a, b) in r_pairs]
        quads += [(a, b, a, b) for (a, b) in s_pairs]
        gen = np.asarray(sorted(set(quads)), dtype=np.int64)
        coords = []
        for c in range(4):
            col = gen[:, c]
            idx = (
                col[:, None, None, None] * n**3
                + col[None, :, None, None] * n**2
                + col[None, None, :, None] * n
                + col[None, None, None, :]
            )
            coords.append(idx.ravel())
        # every table at once, in chunks of about 2**20 matrix entries
        found = np.zeros(n**4, dtype=bool)
        step = max(1, (1 << 20) // len(coords[0]))
        for lo in range(0, len(self.stack), step):
            chunk = self.stack[lo : lo + step]
            enc = chunk[:, coords[0]]
            for idx in coords[1:]:
                enc = enc * n + chunk[:, idx]
            found[enc] = True
        return {
            (e // n**3, (e // n**2) % n, (e // n) % n, e % n)
            for e in np.flatnonzero(found).tolist()
        }


def naive_bottom_rows(size, m, v):
    """The pairs (z, w) of the 4-tuples (x, y, z, w) in the bits m (tuple
    ((x*n + y)*n + z)*n + w) whose (x, y) is a pair of the relation bits v,
    as relation bits: the slices of m at the pairs of v, ORed one pair at a
    time."""
    nn = size * size
    out = 0
    for i in range(nn):
        if v >> i & 1:
            out |= (m >> (i * nn)) & ((1 << nn) - 1)
    return out


def _digits(size, width, x):
    """x's `width` digits in base `size`, most significant first."""
    out = []
    for _ in range(width):
        x, d = divmod(x, size)
        out.append(d)
    return out[::-1]


def naive_image_plans(size, power, arities, tables):
    """The image steps of `algebra._image_plans`, built per algebra: every
    unary map described on each coordinate on its own, from a column mask
    got by one division, and every row of a unary or binary step decoded
    one code at a time.  `tables` are the rows as `_image_plans` gives
    them; each wide step of `products` is (high_maps, low_maps, source),
    `maps[i][code]` the descriptor at the half's i-th coordinate, for
    `naive_plan_row`."""
    n = size
    whole = (1 << n**power) - 1

    def describe(c, g):
        w = n ** (power - 1 - c)
        column = whole // ((1 << n * w) - 1) * ((1 << w) - 1)
        moves = {}
        for v, gv in enumerate(g):
            moves[(gv - v) * w] = moves.get((gv - v) * w, 0) | column << (v * w)
        kept = moves.pop(0, 0)
        if not moves:
            return None
        return kept, tuple((m, max(d, 0), max(-d, 0)) for d, m in moves.items())

    groups = {}
    for a, table in zip(arities, tables):
        for p in range(a):
            r = a - 1 if p < a - 1 else max(a - 2, 0)
            fixed = [q for q in range(a) if q != r or q == p]
            maps = []
            for c in range(power):
                per_code = []
                for code in range(n ** len(fixed)):
                    args = [0] * a
                    for q, v in zip(fixed, _digits(n, len(fixed), code)):
                        args[q] = v
                    g = []
                    for y in range(n):
                        args[r] = y
                        g.append(table[sum(v * n ** (a - 1 - q) for q, v in enumerate(args))])
                    per_code.append(describe(c, g))
                maps.append(tuple(per_code))
            maps = tuple(maps)
            layout = tuple(1 if q < p else 2 if q == p else 3 for q in fixed)
            steps = groups.setdefault(layout, {})
            steps[maps] = steps.get(maps, 0) | (1 if r < p else 2 if r == p else 3)

    def rows(maps):
        return tuple(
            tuple(m[d] for m, d in zip(maps, _digits(n, len(maps), code)) if m[d] is not None)
            for code in range(n ** len(maps))
        )

    half = power // 2
    plain = tuple(
        (source, rows(maps[:half]), rows(maps[half:]))
        for maps, source in groups.pop((2,), {}).items()
    )
    products = tuple(
        (layout, tuple((maps[:half], maps[half:], source) for maps, source in steps.items()))
        for layout, steps in groups.items()
    )
    return plain, products


def naive_plan_row(size, maps, fixed, key):
    """The row of one half of a wide step at `key`, the fixed members'
    halves member-major: at the half's i-th coordinate, the descriptor of
    the code that the members' i-th digits make, first member most
    significant, left out where it is None."""
    width = len(maps)
    halves = _digits(size**width, fixed, key)
    row = []
    for i, per_code in enumerate(maps):
        code = 0
        for x in halves:
            code = code * size + _digits(size, width, x)[i]
        if per_code[code] is not None:
            row.append(per_code[code])
    return tuple(row)


def per_member_saturate(alg, power, generators, closed, within, complete=False):
    """`algebra._saturate` as it was before it ran by rounds: semi-naive
    saturation one member at a time, in the order the members were added.
    Processing member i applies each operation to the argument tuples over
    members 0..i that contain i, at the position of its first occurrence,
    with one image per step of i, its descriptors looked up by the halves
    of i's encoding (and, for wide ops, of the fixed members' encodings).
    The batch of new tuples that one member's images find is checked
    against `within` (None if one is outside it), and the run stops once
    it holds all of `within` unless `complete` is set.  It calls
    `algebra._image` through the module, so a test that counts the
    engine's images counts these too."""
    n = alg.size
    done = closed  # members 0..i-1
    seen = done | generators
    for op in alg.operations:
        if op.arity == 0:
            seen |= 1 << algebra._encode(n, op.table * power)
    outside = ~within
    if seen & outside:
        return None

    tables, products = algebra._image_plans(alg, power)
    half = n ** (power - power // 2)
    top = n ** (power // 2)
    # the halves of each processed member's encoding, `closed`'s first, as
    # the fixed arguments of wide ops
    halves = [divmod(e, half) for e in algebra._indices(done)] if products else []
    order = []  # the encoding of each member outside `closed`, in addition order
    new = seen & ~done
    i = 0
    stop = -1 if complete else within  # no bitset equals -1
    while seen != stop:
        if new:
            order += algebra._indices(new)
        if i == len(order):
            break
        e = order[i]
        single = 1 << e
        sets = (0, done, single, done | single)
        high, low = divmod(e, half)
        found = 0
        for source, highs, lows in tables:
            found |= algebra._image(sets[source], highs[high] + lows[low])
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
                        found |= algebra._image(sets[source], highs[kh] + lows[kl])
        done |= single
        new = found & ~seen
        if new & outside:
            return None
        seen |= new
        i += 1
    return seen
