"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and kept separate from the package:
relations are plain pair sets, tuple sets are plain frozensets, and term
functions are enumerated level by level with an explicit depth cap.  None
of it shares code with the worklist closure engine it is meant to check.
"""

import itertools

import numpy as np


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
