import pytest

from relcomm import BinRel, FiniteAlgebra, RelFamily, check_condition
from relcomm.search import (
    SearchTask,
    Signature,
    canonical_form,
    catalog,
    catalog_algebra,
    random_algebra,
    run_search,
)


def test_catalog_required_entries():
    names = {name for name, _ in catalog()}
    assert {
        "Trivial1", "Set2", "Set3", "Z2", "Z3", "Z4", "Z2xZ2", "L2", "C3", "S2", "RB3",
    } <= names


def test_catalog_tables():
    z2 = catalog_algebra("Z2")
    assert z2.operations[0].table == (0, 1, 1, 0)
    l2 = catalog_algebra("L2")
    assert l2.operations[0].table == (0, 0, 0, 1)
    assert l2.operations[1].table == (0, 1, 1, 1)
    assert catalog_algebra("Set2").operations == ()
    with pytest.raises(KeyError):
        catalog_algebra("nope")


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
    # x*y = x on {0,1} relabeled is still x*y = x
    a = FiniteAlgebra(2, (("f", 2, (0, 0, 1, 1)),))
    # swap the labels: f'(x,y) = perm(f(inv x, inv y))
    b = FiniteAlgebra(2, (("f", 2, (0, 0, 1, 1)),))
    assert canonical_form(a) == canonical_form(b)
    # constant-0 vs constant-1 tables are isomorphic copies
    c0 = FiniteAlgebra(2, (("f", 2, (0, 0, 0, 0)),))
    c1 = FiniteAlgebra(2, (("f", 2, (1, 1, 1, 1)),))
    assert canonical_form(c0) == canonical_form(c1)
    ident = FiniteAlgebra(2, (("f", 2, (0, 1, 0, 1)),))
    assert canonical_form(c0) != canonical_form(ident)


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


def test_run_search_parallel_matches_serial():
    serial = run_search(SearchTask(sizes=(3,), budget=10, seed=5, jobs=1))
    parallel = run_search(SearchTask(sizes=(3,), budget=10, seed=5, jobs=2))
    assert serial.to_json_lines() == parallel.to_json_lines()


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
