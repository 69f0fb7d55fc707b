"""Named small algebras, seeded random algebra generation, and a budgeted
hunt for algebras whose condition profiles differ.

Random tables come from Python's Mersenne Twister (`random.Random`), each
candidate seeded with the string "<seed>:<index>", so a (seed, index) pair
names the same algebra on every platform and a search can resume mid-stream.
"""

from __future__ import annotations

import itertools
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import conditions, properties
from .algebra import FiniteAlgebra
from .relations import RelFamily, UsageError

PROFILE_DIVERSITY = "profile-diversity"


@dataclass(frozen=True)
class Signature:
    size: int
    ops: tuple[tuple[str, int], ...] = (("f", 2),)


@dataclass(frozen=True)
class SearchTask:
    sizes: tuple[int, ...] = (3, 4)
    budget: int = 100
    seed: int = 0
    target: tuple[str, str] | None = None  # None means profile-diversity
    start_index: int = 0
    jobs: int = 1

    def __post_init__(self):
        if self.budget < 0:
            raise UsageError("budget must be >= 0")
        if not self.sizes or min(self.sizes) < 1:
            raise UsageError(f"sizes must be non-empty and each >= 1, got {self.sizes}")
        if self.start_index < 0:
            raise UsageError(f"start_index must be >= 0, got {self.start_index}")
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        if self.target is not None:
            for cid in self.target:
                if cid not in conditions.CONDITIONS:
                    raise UsageError(f"unknown condition id {cid!r}")
                if cid in conditions.SAMPLED_ONLY:  # a sampled miss is no profile bit
                    raise UsageError(f"{cid} can only be sampled; search profiles exhaustively")


def catalog() -> list[tuple[str, FiniteAlgebra]]:
    """The built-in desk-scale algebras."""

    def cyclic(n):
        return tuple((a + b) % n for a in range(n) for b in range(n))

    z2xz2 = tuple(a ^ b for a in range(4) for b in range(4))
    return [
        ("Trivial1", FiniteAlgebra(1, ())),
        ("Set2", FiniteAlgebra(2, ())),
        ("Set3", FiniteAlgebra(3, ())),
        ("Z2", FiniteAlgebra(2, (("+", 2, cyclic(2)),))),
        ("Z3", FiniteAlgebra(3, (("+", 2, cyclic(3)),))),
        ("Z4", FiniteAlgebra(4, (("+", 2, cyclic(4)),))),
        ("Z2xZ2", FiniteAlgebra(4, (("+", 2, z2xz2),))),
        (
            "L2",
            FiniteAlgebra(2, (("meet", 2, (0, 0, 0, 1)), ("join", 2, (0, 1, 1, 1)))),
        ),
        (
            "C3",
            FiniteAlgebra(
                3,
                (
                    ("meet", 2, tuple(min(a, b) for a in range(3) for b in range(3))),
                    ("join", 2, tuple(max(a, b) for a in range(3) for b in range(3))),
                ),
            ),
        ),
        ("S2", FiniteAlgebra(2, (("meet", 2, (0, 0, 0, 1)),))),
        # left-zero band: x*y = x, a (degenerate) rectangular band
        ("RB3", FiniteAlgebra(3, (("*", 2, (0, 0, 0, 1, 1, 1, 2, 2, 2)),))),
    ]


def catalog_algebra(name: str) -> FiniteAlgebra:
    for entry_name, alg in catalog():
        if entry_name == name:
            return alg
    raise KeyError(f"no catalog algebra named {name!r}")


def random_algebra(sig: Signature, seed) -> FiniteAlgebra:
    """Uniformly random operation tables, reproducible from (sig, seed)."""
    rng = random.Random(seed)
    ops = []
    for name, arity in sig.ops:
        table = tuple(rng.randrange(sig.size) for _ in range(sig.size**arity))
        ops.append((name, arity, table))
    return FiniteAlgebra(sig.size, tuple(ops))


def canonical_form(alg: FiniteAlgebra):
    """Least table tuple over all universe permutations (n <= 4 intended)."""
    n = alg.size
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        key = []
        for op in alg.operations:
            if op.arity == 0:
                key.append((perm[op.table[0]],))
                continue
            entries = []
            for args in itertools.product(range(n), repeat=op.arity):
                idx = 0
                for v in args:
                    idx = idx * n + inv[v]
                entries.append(perm[op.table[idx]])
            key.append(tuple(entries))
        key = tuple(key)
        if best is None or key < best:
            best = key
    return (n, best)


@dataclass
class SearchEntry:
    name: str
    size: int
    ops: list
    profile: dict[str, bool]

    def to_record(self):
        return {
            "name": self.name,
            "size": self.size,
            "ops": self.ops,
            "profile": self.profile,
        }


@dataclass
class SearchReport:
    task: SearchTask
    entries: list[SearchEntry]
    groups: dict[tuple, list[str]]
    separations: list[dict]
    candidates_generated: int
    duplicates_skipped: int

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
            yield {"kind": "algebra", **entry.to_record()}
        for sep in self.separations:
            yield {"kind": "separation", **sep}

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(rec, separators=(",", ":"), sort_keys=True)
            for rec in self.to_records()
        )


def _target_ids(task: SearchTask):
    return task.target if task.target is not None else conditions.PROBLEM_IDS


def _evaluate(args):
    alg, ids = args
    reports = properties.check_ids(alg, ids, RelFamily(mode="exhaustive"))
    return {cid: rep.holds for cid, rep in reports.items()}


def run_search(task: SearchTask) -> SearchReport:
    """Profile the catalog plus `budget` random algebras and group them.

    Any two groups that differ in the target coordinates are reported as a
    separation, with full tables embedded so the verdicts can be replayed.
    """
    ids = _target_ids(task)
    candidates: list[tuple[str, FiniteAlgebra]] = []
    seen = set()
    duplicates = 0
    for name, alg in catalog():
        key = canonical_form(alg) if alg.size <= 4 else None
        if key is not None:
            seen.add(key)
        candidates.append((name, alg))
    generated = 0
    for i in range(task.start_index, task.start_index + task.budget):
        size = task.sizes[i % len(task.sizes)]
        sig = Signature(size=size)
        alg = random_algebra(sig, f"{task.seed}:{i}")
        generated += 1
        if size <= 4:
            key = canonical_form(alg)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
        candidates.append((f"rand-{size}-{i}", alg))

    work = [(alg, ids) for _, alg in candidates]
    if task.jobs > 1:
        with ProcessPoolExecutor(max_workers=task.jobs) as pool:
            profiles = list(pool.map(_evaluate, work, chunksize=4))
    else:
        profiles = [_evaluate(w) for w in work]

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
        candidates_generated=generated,
        duplicates_skipped=duplicates,
    )
