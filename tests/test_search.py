import itertools
import random

import pytest

from relcomm import BinRel, FiniteAlgebra, RelFamily, check_condition
from relcomm.relations import UsageError
from relcomm.search import (
    SearchTask,
    Signature,
    canonical_form,
    catalog,
    random_algebra,
    run_search,
)


def test_catalog_required_entries():
    names = {name for name, _ in catalog()}
    assert {
        "Trivial1", "Set2", "Set3", "Z2", "Z3", "Z4", "Z2xZ2", "L2", "C3", "S2", "RB3",
    } <= names


def test_catalog_tables():
    algebras = dict(catalog())
    assert algebras["Z2"].operations[0].table == (0, 1, 1, 0)
    l2 = algebras["L2"]
    assert l2.operations[0].table == (0, 0, 0, 1)
    assert l2.operations[1].table == (0, 1, 1, 1)
    assert algebras["Set2"].operations == ()


def test_random_algebra_deterministic():
    sig = Signature(size=3, ops=(("f", 2), ("c", 0)))
    a = random_algebra(sig, "seed:0")
    b = random_algebra(sig, "seed:0")
    assert a == b
    c = random_algebra(sig, "seed:1")
    assert a != c
    assert len(a.operations[1].table) == 1


def test_random_algebra_valid():
    for i in range(20):
        alg = random_algebra(Signature(size=4), f"t:{i}")
        assert alg.size == 4
        assert all(0 <= v < 4 for v in alg.operations[0].table)


def test_canonical_form_identifies_isomorphs():
    # swapping the labels of {0,1} turns meet into join
    meet = FiniteAlgebra(2, (("f", 2, (0, 0, 0, 1)),))
    join = FiniteAlgebra(2, (("f", 2, (0, 1, 1, 1)),))
    assert meet != join
    assert canonical_form(meet) == canonical_form(join)
    # constant-0 vs constant-1 tables are isomorphic copies
    c0 = FiniteAlgebra(2, (("f", 2, (0, 0, 0, 0)),))
    c1 = FiniteAlgebra(2, (("f", 2, (1, 1, 1, 1)),))
    assert canonical_form(c0) == canonical_form(c1)
    ident = FiniteAlgebra(2, (("f", 2, (0, 1, 0, 1)),))
    assert canonical_form(c0) != canonical_form(ident)


def _relabel(alg, perm):
    """The copy of `alg` with each element a renamed perm[a], written out
    by brute force: f'(perm x1, ..., perm xk) = perm f(x1, ..., xk)."""
    n = alg.size
    ops = []
    for op in alg.operations:
        table = {}
        for i, args in enumerate(itertools.product(range(n), repeat=op.arity)):
            table[tuple(perm[a] for a in args)] = perm[op.table[i]]
        ops.append((op.name, op.arity, tuple(table[args] for args in sorted(table))))
    return FiniteAlgebra(n, tuple(ops))


def test_canonical_form_is_invariant_under_relabelling():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        arities = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
        alg = random_algebra(
            Signature(size=n, ops=tuple((f"f{k}", a) for k, a in enumerate(arities))),
            rng.random(),
        )
        perm = list(range(n))
        rng.shuffle(perm)
        copy = _relabel(alg, perm)
        assert canonical_form(copy) == canonical_form(alg), (alg, perm)
        # the form is one of the relabellings' tables, so it keeps their shape
        size, tables = canonical_form(alg)
        assert size == n and [len(t) for t in tables] == [n**a for a in arities]


def test_catalog_canonical_forms_are_distinct():
    # the search deduplicates the catalog in the same loop as the random
    # candidates, so two isomorphic catalog entries would drop one
    forms = [canonical_form(alg) for _, alg in catalog()]
    assert len(set(forms)) == len(forms)


def test_run_search_catalog_only_profiles():
    report = run_search(SearchTask(budget=0))
    by_name = {e.name: e for e in report.entries}
    z2 = by_name["Z2"].profile
    l2 = by_name["L2"].profile
    assert not any(z2.values()) and all(l2.values())
    # Z2 and L2 land in different profile groups
    groups = {tuple(p): names for p, names in report.groups.items()}
    z2_key = tuple(z2[c] for c in ("PROB_I", "PROB_II", "PROB_III", "PROB_IV", "PROB_V"))
    l2_key = tuple(l2[c] for c in ("PROB_I", "PROB_II", "PROB_III", "PROB_IV", "PROB_V"))
    assert z2_key != l2_key
    assert "Z2" in report.groups[z2_key]
    assert "L2" in report.groups[l2_key]


def test_run_search_target_pair_separation():
    # the catalog itself separates PROB_I from PROB_IV (S2 profile)
    report = run_search(SearchTask(budget=0, target=("PROB_I", "PROB_IV")))
    assert report.separations
    sep = report.separations[0]
    assert sep["target"] == ["PROB_I", "PROB_IV"]


def test_run_search_deterministic_and_reverifies():
    task = SearchTask(sizes=(3,), budget=25, seed=7)
    rep1 = run_search(task)
    rep2 = run_search(task)
    assert rep1.to_json_lines() == rep2.to_json_lines()
    # recorded verdicts replay from the embedded tables
    fam = RelFamily(mode="exhaustive")
    for entry in rep1.entries[:6]:
        alg = FiniteAlgebra(entry.size, tuple((n, a, tuple(t)) for n, a, t in entry.ops))
        for cond_id, verdict in entry.profile.items():
            assert check_condition(alg, cond_id, fam).holds == verdict


def test_run_search_resume_matches_uninterrupted():
    full = run_search(SearchTask(sizes=(3,), budget=20, seed=13))
    first = run_search(SearchTask(sizes=(3,), budget=12, seed=13))
    rest = run_search(
        SearchTask(sizes=(3,), budget=8, seed=13, start_index=first.resume["next_index"])
    )
    catalog_count = len(catalog())
    got = [e.name for e in first.entries[catalog_count:]] + [
        e.name for e in rest.entries[catalog_count:]
    ]
    want = [e.name for e in full.entries[catalog_count:]]
    assert got == want


def test_run_search_duplicates_skipped():
    report = run_search(SearchTask(sizes=(3,), budget=40, seed=2))
    assert report.candidates_generated == 40
    generated_names = [e.name for e in report.entries if e.name.startswith("rand-")]
    assert len(generated_names) == 40 - report.duplicates_skipped


def test_run_search_keeps_isomorphs_above_four_elements(monkeypatch):
    # canonical forms are taken up to n = 4 only (n! relabellings), so a
    # larger candidate is profiled even when it repeats an earlier one
    from relcomm import search

    z5 = FiniteAlgebra(5, (("+", 2, tuple((a + b) % 5 for a in range(5) for b in range(5))),))
    monkeypatch.setattr(search, "random_algebra", lambda sig, seed: z5)
    report = run_search(SearchTask(sizes=(5,), budget=2, target=("PROB_IV", "PROB_V")))
    assert report.duplicates_skipped == 0
    assert [e.name for e in report.entries[len(catalog()):]] == ["rand-5-0", "rand-5-1"]


def test_run_search_parallel_matches_serial():
    serial = run_search(SearchTask(sizes=(3,), budget=10, seed=5, jobs=1))
    parallel = run_search(SearchTask(sizes=(3,), budget=10, seed=5, jobs=2))
    assert serial.to_json_lines() == parallel.to_json_lines()


@pytest.mark.parametrize("cpus", (None, 1, 3, 64))
def test_run_search_starts_no_more_workers_than_cpus_or_chunks(monkeypatch, cpus):
    # the pool forks every worker at its first task, so a huge --jobs must
    # not reach it: 11 catalog algebras and 2 candidates are 4 chunks of 4.
    # The stand-in pool records the workers asked for and maps in-process.
    import concurrent.futures
    import os

    asked = []

    class Pool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    task = dict(sizes=(3,), budget=2, seed=5)
    serial = run_search(SearchTask(**task))
    assert asked == []
    pooled = run_search(SearchTask(**task, jobs=10**6))
    workers = min(os.cpu_count() or 1, 4)
    assert asked == ([workers] if workers > 1 else [])
    assert pooled.to_json_lines() == serial.to_json_lines()


def test_image_plans_are_kept_no_longer_than_kernel_objects():
    # the benchmark's search-n4 job builds plans in powers 2 and 4 for 61
    # algebras, each dropped with its kernel object after its profile
    from relcomm import algebra, relations

    relations.clear_caches()
    run_search(SearchTask(sizes=(4,), budget=50, seed=0))
    assert algebra._image_plans.cache_info().currsize <= 2 * algebra.KERNEL_OBJECTS
    # the plans' shared parts: each unary map is described once per size
    # and power, none evicted, and slabs are kept for sizes 1-4 at powers 2
    # and 4 at most
    info = algebra._descriptors.cache_info()
    assert info.misses == info.currsize <= algebra.DESCRIPTOR_ENTRIES
    assert algebra._slabs.cache_info().currsize <= 2 * 4


def _renamed_back(witness, perm):
    """The witness `witness` of a relabelled copy, in the original's names."""
    back = {b: a for a, b in enumerate(perm)}
    relations = {
        name: [(back[a], back[b]) for a, b in pairs] for name, pairs in witness.relations.items()
    }
    pair = None if witness.pair is None else tuple(back[a] for a in witness.pair)
    return witness._replace(relations=relations, pair=pair)


def test_relabelling_keeps_every_exhaustive_verdict():
    # isomorphic algebras satisfy the same conditions over their exhaustive
    # families; RB3 and Set3 are left out for time (64-member families)
    from relcomm.conditions import ALIASES, CONDITIONS, SAMPLED_ONLY
    from relcomm.properties import recheck_witness
    from relcomm.search import _relabelled

    rng = random.Random(21)
    algs = [alg for name, alg in catalog() if alg.size > 1 and name not in ("RB3", "Set3")]
    algs += [random_algebra(Signature(size=2 + i % 2), f"relabel:{i}") for i in range(10)]
    ids = [cid for cid in CONDITIONS if cid not in SAMPLED_ONLY and cid not in ALIASES]
    fam = RelFamily(mode="exhaustive")
    for alg in algs:
        perm = list(range(alg.size))
        while perm == sorted(perm):
            rng.shuffle(perm)
        ops = zip(alg.operations, _relabelled(alg, perm))
        copy = FiniteAlgebra(alg.size, tuple((op.name, op.arity, t) for op, t in ops))
        for cid in ids:
            want, got = check_condition(alg, cid, fam), check_condition(copy, cid, fam)
            assert got.holds == want.holds, (alg, perm, cid)
            if got.holds:
                assert got.relations_checked == want.relations_checked, (alg, perm, cid)
            else:
                witness = _renamed_back(got.witness, perm)
                assert recheck_witness(alg, got._replace(witness=witness)), (alg, perm, cid)


def test_search_task_validation():
    with pytest.raises(ValueError):
        SearchTask(budget=-1)
    with pytest.raises(ValueError):
        SearchTask(sizes=(), budget=1)
    with pytest.raises(ValueError):
        SearchTask(sizes=(3, 0))
    for bad in (dict(start_index=-5), dict(start_index=-1), dict(jobs=0), dict(jobs=-3)):
        with pytest.raises(ValueError):
            SearchTask(sizes=(3,), budget=2, **bad)
    with pytest.raises(ValueError):
        SearchTask(target=("PROB_I", "NOPE"))
    # a sampled "no counterexample" is no profile bit, so a condition over
    # arbitrary relations is refused before any candidate is generated
    for cid in ("TRIV_K", "L1B_I", "L1B_II", "L1B_III"):
        with pytest.raises(ValueError, match="profiles exhaustively"):
            SearchTask(target=(cid, "T3_I"))


def test_search_task_rejects_non_integral_values():
    # checked at construction, rather than failing inside `run_search`
    for bad in (
        dict(sizes=(3.5,)),
        dict(sizes=(3, "4")),
        dict(budget=2.5),
        dict(start_index=1.0),
        dict(jobs=2.0),
    ):
        with pytest.raises(UsageError, match="integer"):
            SearchTask(**bad)


def test_search_checks_the_problem_implications(monkeypatch):
    # the profile of every candidate goes through the implication check;
    # PROB_I is an alias of T2_I, so a corrupted T2_I sweep breaks
    # PROB_II => PROB_I on the catalog's trivial algebra
    from relcomm import properties
    from relcomm.relations import InvariantViolation

    real = properties.check_condition

    def broken(alg, cond_id, family):
        rep = real(alg, cond_id, family)
        if cond_id == "T2_I":
            witness = properties.Witness("T2_I", {"R": [(0, 0)]}, (0, 1))
            return rep._replace(holds=False, witness=witness)
        return rep

    monkeypatch.setattr(properties, "check_condition", broken)
    with pytest.raises(InvariantViolation, match="PROB_II => PROB_I"):
        run_search(SearchTask(budget=0))
