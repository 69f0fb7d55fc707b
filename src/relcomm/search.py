"""The catalog of named small algebras (the package's `algebras/*.alg`
files), seeded random algebra generation, and a budgeted hunt for algebras
whose condition profiles differ.

Random tables come from Python's Mersenne Twister (`random.Random`), each
candidate seeded with the string "<seed>:<index>", so a (seed, index) pair
names the same algebra on every platform and a search can resume mid-stream.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from . import conditions, properties
from .algebra import FiniteAlgebra, Value, is_whole
from .algfile import load_algebra
from .relations import UsageError, kernels

PROFILE_DIVERSITY = "profile-diversity"


class Signature(Value):
    """A universe size and the (name, arity) of each operation."""

    __slots__ = _fields = ("size", "ops")

    def __init__(self, size, ops=(("f", 2),)):
        Value.__init__(self, size, ops)


class SearchTask(Value):
    """What `run_search` profiles; `target` None means profile-diversity."""

    __slots__ = _fields = ("sizes", "budget", "seed", "target", "start_index", "jobs")

    def __init__(self, sizes=(3, 4), budget=100, seed=0, target=None, start_index=0, jobs=1):
        if not is_whole(budget, 0):
            raise UsageError(f"budget must be an integer >= 0, got {budget!r}")
        if not sizes or not all(map(is_whole, sizes)):
            raise UsageError(f"sizes must be non-empty and each an integer >= 1, got {sizes}")
        if not is_whole(start_index, 0):
            raise UsageError(f"start_index must be an integer >= 0, got {start_index!r}")
        if not is_whole(jobs):
            raise UsageError(f"jobs must be an integer >= 1, got {jobs!r}")
        if target is not None:
            if len(set(target)) != len(target):
                raise UsageError(f"target names one condition twice: {','.join(target)}")
            for cid in target:
                if cid not in conditions.CONDITIONS:
                    raise UsageError(f"unknown condition id {cid!r}")
                if cid in conditions.SAMPLED_ONLY:  # a sampled miss is no profile bit
                    raise UsageError(f"{cid} can only be sampled; search profiles exhaustively")
        Value.__init__(self, sizes, budget, seed, target, start_index, jobs)


# The built-in desk-scale algebras, in catalog order: each name's
# lower-cased form names its file in the package's `algebras/` directory.
CATALOG_NAMES = ("Trivial1", "Set2", "Set3", "Z2", "Z3", "Z4", "Z2xZ2", "L2", "C3", "S2", "RB3")


def catalog() -> list[tuple[str, FiniteAlgebra]]:
    """The built-in algebras by name, loaded from the shipped .alg files."""
    here = os.path.join(os.path.dirname(__file__), "algebras")
    return [
        (name, load_algebra(os.path.join(here, name.lower() + ".alg"))) for name in CATALOG_NAMES
    ]


def random_algebra(sig: Signature, seed) -> FiniteAlgebra:
    """Uniformly random operation tables, reproducible from (sig, seed)."""
    rng = random.Random(seed)
    ops = []
    for name, arity in sig.ops:
        table = tuple(rng.randrange(sig.size) for _ in range(sig.size**arity))
        ops.append((name, arity, table))
    return FiniteAlgebra(sig.size, tuple(ops))


def _relabelled(alg: FiniteAlgebra, perm):
    """The tables of the copy of `alg` in which each element a is renamed
    perm[a]: each entry lands at the row-major index of its renamed
    arguments (for a nullary op, the one index 0)."""
    n = alg.size
    tables = []
    for op in alg.operations:
        landing = [0]
        for _ in range(op.arity):
            landing = [s * n + perm[v] for s in landing for v in range(n)]
        table = [0] * len(op.table)
        for at, v in zip(landing, op.table):
            table[at] = perm[v]
        tables.append(tuple(table))
    return tuple(tables)


def canonical_form(alg: FiniteAlgebra):
    """Least relabelling's tables over all universe permutations (n <= 4
    intended)."""
    n = alg.size
    return (n, min(_relabelled(alg, perm) for perm in itertools.permutations(range(n))))


class SearchEntry(Value):
    """One profiled algebra: its name, size, operation tables as
    [name, arity, table] lists, and profile by condition id."""

    __slots__ = _fields = ("name", "size", "ops", "profile")

    def to_record(self):
        return {
            "kind": "algebra",
            "name": self.name,
            "size": self.size,
            "ops": self.ops,
            "profile": self.profile,
        }


class SearchReport(Value):
    """The entries of a search, grouped by profile (`groups`, profile ->
    names), and the separations between groups."""

    __slots__ = _fields = ("task", "entries", "groups", "separations", "duplicates_skipped")

    @property
    def candidates_generated(self):
        return self.task.budget

    @property
    def resume(self):
        return {
            "seed": self.task.seed,
            "next_index": self.task.start_index + self.candidates_generated,
        }

    def to_records(self):
        """Stable newline-delimited record stream (one dict per line)."""
        header = {
            "kind": "search-header",
            "target": list(self.task.target) if self.task.target else PROFILE_DIVERSITY,
            "sizes": list(self.task.sizes),
            "budget": self.task.budget,
            "seed": self.task.seed,
            "start_index": self.task.start_index,
            "candidates_generated": self.candidates_generated,
            "duplicates_skipped": self.duplicates_skipped,
            "resume": self.resume,
        }
        yield header
        for profile_key in sorted(self.groups):
            yield {
                "kind": "profile-group",
                "profile": list(profile_key),
                "algebras": self.groups[profile_key],
            }
        for entry in self.entries:
            yield entry.to_record()
        for sep in self.separations:
            yield {"kind": "separation", **sep}

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(rec, separators=(",", ":"), sort_keys=True)
            for rec in self.to_records()
        )


def _random_candidates(task: SearchTask):
    """The task's `budget` named random algebras, sizes taken in turn."""
    for i in range(task.start_index, task.start_index + task.budget):
        size = task.sizes[i % len(task.sizes)]
        yield f"rand-{size}-{i}", random_algebra(Signature(size=size), f"{task.seed}:{i}")


def _profile(alg: FiniteAlgebra, ids):
    """alg's problem profile over `ids`, after which its kernel object is
    dropped: candidates of up to 4 elements are pairwise non-isomorphic,
    and larger ones random tables, so no later candidate reuses it."""
    profile = properties.evaluate_problem_profile(alg, ids)
    kernels.drop(alg)
    return profile


def run_search(task: SearchTask) -> SearchReport:
    """Profile the catalog plus `budget` random algebras and group them.

    Any two groups that differ in the target coordinates are reported as a
    separation, with full tables embedded so the verdicts can be replayed.
    """
    ids = task.target if task.target is not None else conditions.PROBLEM_IDS
    candidates: list[tuple[str, FiniteAlgebra]] = []
    seen = set()
    duplicates = 0
    for name, alg in itertools.chain(catalog(), _random_candidates(task)):
        if alg.size <= 4:  # a canonical form costs n! relabellings
            key = canonical_form(alg)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
        candidates.append((name, alg))

    algs = [alg for _, alg in candidates]
    work = (_profile, algs, itertools.repeat(ids))
    # the pool forks every worker at its first task, so start no more than
    # can run at once or have a chunk of candidates to profile
    chunk = 4
    workers = min(task.jobs, os.cpu_count() or 1, -(-len(algs) // chunk))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # off every other import path

        with ProcessPoolExecutor(max_workers=workers) as pool:
            profiles = list(pool.map(*work, chunksize=chunk))
    else:
        profiles = list(map(*work))

    entries = []
    groups: dict[tuple, list[str]] = {}
    for (name, alg), profile in zip(candidates, profiles):
        entry = SearchEntry(
            name=name,
            size=alg.size,
            ops=[[op.name, op.arity, list(op.table)] for op in alg.operations],
            profile=profile,
        )
        entries.append(entry)
        key = tuple(profile[cid] for cid in ids)
        groups.setdefault(key, []).append(name)

    separations = []
    if task.target is not None:
        group_keys = sorted(groups)
        for a, b in itertools.combinations(group_keys, 2):
            separations.append(
                {
                    "target": list(task.target),
                    "profile_a": list(a),
                    "profile_b": list(b),
                    "witness_a": groups[a][0],
                    "witness_b": groups[b][0],
                }
            )
    return SearchReport(
        task=task,
        entries=entries,
        groups=groups,
        separations=separations,
        duplicates_skipped=duplicates,
    )
