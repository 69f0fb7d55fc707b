"""The int kernels of `relations` and `commutator`, and the kernel object
of an algebra that holds them, against their `BinRel` forms and against
the brute-force oracles, and the cache contract that the benchmark's hit
rates read."""

import random
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import refl, tuple_bits
from oracles import (
    naive_bottom_rows,
    naive_compose,
    naive_family,
    naive_transitive_closure,
    naive_tuple_closure,
)
from relcomm import (
    CONGRUENCE,
    REFLEXIVE_ADMISSIBLE,
    TOLERANCE,
    BinRel,
    FiniteAlgebra,
    RelFamily,
    adm_close,
    algebra,
    cg,
    comm,
    comm1,
    comm_weak,
    commutator,
    cong_join,
    enumerate_relations,
    k_op,
    load_algebra,
    m_set,
    properties,
    relations,
    subuniverse_closure,
    tol_close,
)
from relcomm.algebra import KERNEL_OBJECTS
from relcomm.properties import check_condition
from relcomm.relations import (
    FamilyBoundError,
    NotAdmissible,
    NotReflexive,
    SizeMismatch,
    UsageError,
)
from relcomm.search import SearchTask, Signature, catalog, random_algebra, run_search

Z2 = FiniteAlgebra(2, (("+", 2, (0, 1, 1, 0)),))


def _small_algebras():
    algs = [(name, alg) for name, alg in catalog() if alg.size <= 3]
    for n, arities in ((2, (2,)), (3, (2,)), (3, (1, 2)), (2, (3,))):
        for seed in range(3):
            sig = Signature(n, tuple((f"f{i}", a) for i, a in enumerate(arities)))
            algs.append((f"rand{n}-{arities}-{seed}", random_algebra(sig, f"kernels:{seed}")))
    return algs


SMALL = _small_algebras()


def _pairs(n, bits):
    return {divmod(i, n) for i in range(n * n) if bits >> i & 1}


def _bits(n, pairs):
    return sum(1 << (a * n + b) for a, b in pairs)


def _closure(alg, k, tuples):
    """The oracle's subuniverse of A^k generated by `tuples`."""
    ops = alg.operations
    return naive_tuple_closure(
        alg.size, k, [op.arity for op in ops], [op.table for op in ops], tuples
    )


def _family(alg, kind):
    ops = alg.operations
    return naive_family(alg.size, [op.arity for op in ops], [op.table for op in ops], kind)


def _congruences(alg):
    return _family(alg, CONGRUENCE)


def _least(candidates, n):
    out = (1 << n * n) - 1
    for c in candidates:
        out &= c
    return out


def _oracle_commutators(alg, r, s, congruences):
    """M(R, S), K(R, S; delta), [R, S | 1], [R, S | 1]_W and [R, S], all
    from the oracle's closure of both generator blocks."""
    n = alg.size
    gens = [(a, a, b, b) for a, b in r.pairs()] + [(a, b, a, b) for a, b in s.pairs()]
    m = _closure(alg, 4, gens)

    def k(v):
        return _bits(n, {(z, w) for x, y, z, w in m if v >> (x * n + y) & 1})

    k_delta = k(BinRel.delta(n).bits)
    c1 = _bits(n, naive_transitive_closure(_pairs(n, k_delta)))
    weak = _bits(n, {(x, w) for x, y, z, w in m if x == y == z})
    least = _least((d for d in congruences if k(d) & ~d == 0), n)
    return m, k_delta, c1, weak, least


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_commutator_kernels_match_their_forms_and_the_oracle(name, alg):
    n = alg.size
    rels = list(enumerate_relations(alg, RelFamily(REFLEXIVE_ADMISSIBLE)))
    congruences = _congruences(alg)
    delta, full = BinRel.delta(n), BinRel.full(n)
    pairs = [(r, s) for r in rels for s in rels]
    k = relations.kernels(alg)
    for r, s in pairs:
        a, b = r.bits, s.bits
        assert k.m_set(a, b) == m_set(alg, r, s).bits
        for v in (delta, full, r, s):
            assert k.k_op(a, b, v.bits) == k_op(alg, r, s, v).bits
        assert k.comm1(a, b) == comm1(alg, r, s).bits
        assert k.comm_weak(a, b) == comm_weak(alg, r, s).bits
        assert k.comm(a, b) == comm(alg, r, s).bits
    # the oracle's closure in A^4 is slow, so it sees a fixed sample
    for r, s in random.Random(name).sample(pairs, min(len(pairs), 12)):
        m, k_delta, c1, weak, least = _oracle_commutators(alg, r, s, congruences)
        a, b = r.bits, s.bits
        assert set(m_set(alg, r, s).members()) == m
        assert k.k_op(a, b, delta.bits) == k_delta
        assert k.comm1(a, b) == c1
        assert k.comm_weak(a, b) == weak
        assert k.comm(a, b) == least


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_closure_kernels_match_their_forms_and_the_oracle(name, alg):
    n = alg.size
    congruences = _congruences(alg)
    diagonal = _pairs(n, BinRel.delta(n).bits)
    k = relations.kernels(alg)
    for bits in range(1 << n * n):
        r = BinRel(n, bits)
        pairs = _pairs(n, bits)
        adm = k.adm_close(bits)
        assert adm == adm_close(alg, r).bits == _bits(n, _closure(alg, 2, pairs))
        tol = k.tol_close(bits)
        symmetric = diagonal | pairs | {(b, a) for a, b in pairs}
        assert tol == tol_close(alg, r).bits == _bits(n, _closure(alg, 2, symmetric))
        least = _least((d for d in congruences if bits & ~d == 0), n)
        assert k.cg(bits) == cg(alg, r).bits == least
        assert relations.is_admissible(alg, r) == (adm == bits)
        assert relations.is_tolerance(alg, r) == (tol == bits)
        assert relations.is_congruence(alg, r) == (least == bits)
    for x in congruences:
        for y in congruences:
            join = _least((d for d in congruences if (x | y) & ~d == 0), n)
            got = k.cong_join(x, y)
            assert got == cong_join(alg, BinRel(n, x), BinRel(n, y)).bits == join
            # and it is star(x ; y), by the oracle's composition and closure
            chained = naive_transitive_closure(
                {(a, c) for a, b in _pairs(n, x) for b2, c in _pairs(n, y) if b == b2}
            )
            assert got == _bits(n, chained)


def test_reflexive_admissible_closure_over_the_diagonal_is_the_plain_closure():
    # a reflexive argument is closed over the diagonal as a closed block;
    # on random groupoids, with and without unary and ternary operations,
    # every closure equals the one that starts from nothing closed
    rng = random.Random(29)
    for trial in range(60):
        n = 1 + trial % 5
        arities = ((2,), (1, 2), (2, 3), (0, 2))[trial % 4]
        sig = Signature(n, tuple((f"f{i}", a) for i, a in enumerate(arities)))
        alg = random_algebra(sig, f"adm-delta:{trial}")
        relations.clear_caches()
        k = relations.kernels(alg)
        for _ in range(8):
            r = rng.getrandbits(n * n) & rng.getrandbits(n * n)
            for bits in (r, r | k.delta):
                assert k.adm_close(bits) == subuniverse_closure(alg, 2, bits).bits, (alg, bits)
    relations.clear_caches()


def test_reflexive_admissible_closure_images_no_pair_of_the_diagonal_alone(monkeypatch):
    # the diagonal's members are never processed, so each reflexive
    # argument costs fewer images than a closure that processes them
    calls = []

    def counting(bits, descriptors):
        calls.append(bits)
        return image(bits, descriptors)

    image = algebra._image
    monkeypatch.setattr(algebra, "_image", counting)
    alg = random_algebra(Signature(4), "adm-delta:count")
    rng = random.Random(4)
    relations.clear_caches()
    k = relations.kernels(alg)
    for _ in range(12):
        r = k.delta | 1 << rng.randrange(16)
        del calls[:]
        seeded = k.adm_close(r)
        fewer = len(calls)
        del calls[:]
        assert subuniverse_closure(alg, 2, r).bits == seeded
        assert fewer < len(calls), (r, fewer, len(calls))
    relations.clear_caches()


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value), getattr(info.value, "rel_name", None)


def test_bad_inputs_raise_the_same_errors_through_the_forms():
    not_refl = BinRel.from_pairs(2, [(0, 1)])
    not_adm = refl(2, (0, 1))  # (0,1) + (1,1) = (1,0) on Z2
    wrong_size = BinRel.delta(3)
    wrong_size_not_refl = BinRel.from_pairs(3, [(0, 1)])
    full = BinRel.full(2)
    relations.clear_caches()
    for fn in (m_set, comm1, comm, comm_weak, lambda alg, r, s: k_op(alg, r, s, full)):
        assert _raised(fn, Z2, not_refl, full)[::2] == (NotReflexive, "R")
        assert _raised(fn, Z2, full, not_refl)[::2] == (NotReflexive, "S")
        kind, message, rel = _raised(fn, Z2, not_adm, full)
        assert (kind, rel) == (NotAdmissible, "R") and "maps" in message
        assert _raised(fn, Z2, full, not_adm)[::2] == (NotAdmissible, "S")
        # sizes are checked with the rest of R's input check, R before S
        assert _raised(fn, Z2, wrong_size, full) == (
            SizeMismatch, "algebra size 2 vs relation size 3", None
        )
        assert _raised(fn, Z2, wrong_size_not_refl, full)[::2] == (NotReflexive, "R")
        assert _raised(fn, Z2, not_adm, wrong_size)[::2] == (NotAdmissible, "R")
        assert _raised(fn, Z2, full, wrong_size)[0] is SizeMismatch
        # and the kernels themselves raise the same on a miss
        relations.clear_caches()
    k = relations.kernels(Z2)
    assert _raised(k.m_set, not_refl.bits, full.bits)[::2] == (NotReflexive, "R")
    assert _raised(k.comm1, full.bits, not_adm.bits)[::2] == (NotAdmissible, "S")
    for fn in (adm_close, tol_close, cg, relations.is_admissible, relations.is_congruence):
        assert _raised(fn, Z2, wrong_size)[:2] == (SizeMismatch, "algebra size 2 vs relation size 3")
    assert _raised(cong_join, Z2, not_adm, full)[:2] == (
        UsageError, "the first argument of cong_join is not a congruence"
    )
    assert _raised(cong_join, Z2, full, not_adm)[:2] == (
        UsageError, "the second argument of cong_join is not a congruence"
    )
    # the first argument is checked whole before the second's size
    assert _raised(cong_join, Z2, not_adm, wrong_size)[0] is UsageError
    assert _raised(cong_join, Z2, full, wrong_size)[0] is SizeMismatch
    assert _raised(k.cong_join, full.bits, not_adm.bits)[:2] == (
        UsageError, "the second argument of cong_join is not a congruence"
    )
    # K's V is checked to lie on the algebra's universe, after R and S
    for v in (BinRel.full(3), BinRel.from_pairs(3, [(2, 2)])):
        assert _raised(k_op, Z2, full, full, v) == (
            SizeMismatch, "algebra size 2 vs relation size 3", None
        )
        assert _raised(k_op, Z2, not_refl, full, v)[::2] == (NotReflexive, "R")
        assert _raised(k_op, Z2, full, not_adm, v)[::2] == (NotAdmissible, "S")


# the cached public names whose `cache_info` the benchmark reads
BENCHMARK_CACHES = (
    (commutator, "m_set"),
    (commutator, "comm1"),
    (relations, "adm_close"),
    (relations, "tol_close"),
    (relations, "cg"),
)


def _counts():
    return {
        (module.__name__, name): getattr(module, name).cache_info()[:2]
        for module, name in BENCHMARK_CACHES
    }


def test_benchmark_cache_names_read_the_kernel_caches(algebras):
    c3 = algebras["C3"]
    relations.clear_caches()
    family = RelFamily(REFLEXIVE_ADMISSIBLE)
    # L1A_I sweeps Comm1 over the listed family; T2_ID adds Cg and TolClose
    for condition in ("L1A_I", "T2_ID"):
        assert check_condition(c3, condition, family).holds
    first = _counts()
    for condition in ("L1A_I", "T2_ID"):
        check_condition(c3, condition, family)
    second = _counts()
    for key in first:
        hits, misses = first[key]
        assert misses > 0, key
        # the second sweeps find every value cached; M(R, S) is reached
        # only through comm1's misses, and adm_close only through
        # tol_close's misses and the listing of the family, which the
        # algebra's kernel object keeps, so those two see no lookup at all
        assert second[key][1] == misses, key
        if key in (("relcomm.commutator", "m_set"), ("relcomm.relations", "adm_close")):
            assert second[key][0] == hits, key
        else:
            assert second[key][0] > hits, key


def test_clear_caches_empties_every_kernel_cache(algebras):
    check_condition(algebras["C3"], "T2_ID", RelFamily(REFLEXIVE_ADMISSIBLE))
    cached = [
        getattr(module, name)
        for module in (commutator, relations)
        for name in dir(module)
        if hasattr(getattr(module, name), "cache_info")
    ]
    assert any(fn.cache_info().currsize for fn in cached)
    relations.clear_caches()
    assert all(fn.cache_info().currsize == 0 for fn in cached)
    # a public name reads the counters of the memo of that name on every
    # kernel object
    check_condition(algebras["C3"], "T2_ID", RelFamily(REFLEXIVE_ADMISSIBLE))
    kernels = relations.kernels(algebras["C3"])
    for module, name in BENCHMARK_CACHES:
        assert getattr(module, name).cache_info() == getattr(kernels, name).cache_info()


# every attribute of a kernel object, memoised or not
KERNEL_ATTRIBUTES = (
    "converse", "compose", "star", "adm_close", "tol_close", "cg", "cong_join",
    "m_set", "k_op", "comm1", "comm_weak", "comm",
)


def _check_kernel_object(alg, k, rng):
    """Every attribute of the kernel object k against the oracles, on
    relation bits drawn from rng, with alg's own families."""
    n = alg.size
    full, delta = (1 << n * n) - 1, BinRel.delta(n).bits
    congruences, tolerances = _congruences(alg), _family(alg, TOLERANCE)
    rels = [0, delta, full] + [rng.getrandbits(n * n) for _ in range(24)]
    for a in rels:
        pairs = _pairs(n, a)
        assert k.converse(a) == _bits(n, {(y, x) for x, y in pairs}), (alg, a)
        assert k.star(a) == _bits(n, naive_transitive_closure(pairs)), (alg, a)
        assert k.adm_close(a) == _bits(n, _closure(alg, 2, pairs)), (alg, a)
        assert k.tol_close(a) == _least((t for t in tolerances if a & ~t == 0), n), (alg, a)
        assert k.cg(a) == _least((d for d in congruences if a & ~d == 0), n), (alg, a)
        for b in rels[:8]:
            want = _bits(n, naive_compose(pairs, _pairs(n, b)))
            assert k.compose(a, b) == want, (alg, a, b)
    for x in congruences:
        for y in congruences:
            want = _least((d for d in congruences if (x | y) & ~d == 0), n)
            assert k.cong_join(x, y) == want, (alg, x, y)
    ra = _family(alg, REFLEXIVE_ADMISSIBLE)
    pairs = [(r, s) for r in ra for s in ra]
    for r, s in rng.sample(pairs, min(len(pairs), 8)):
        m, _, c1, weak, least = _oracle_commutators(alg, BinRel(n, r), BinRel(n, s), congruences)
        assert k.m_set(r, s) == tuple_bits(n, m), (alg, r, s)
        matrices = k.m_set(r, s)
        for v in (0, delta, full, r, s, rng.getrandbits(n * n)):
            assert k.k_op(r, s, v) == naive_bottom_rows(n, matrices, v), (alg, r, s, v)
        assert k.comm1(r, s) == c1, (alg, r, s)
        assert k.comm_weak(r, s) == weak, (alg, r, s)
        assert k.comm(r, s) == least, (alg, r, s)


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_kernel_object_attributes_match_the_oracles(name, alg):
    k = relations.kernels(alg)
    assert [a for a in KERNEL_ATTRIBUTES if not callable(getattr(k, a, None))] == []
    _check_kernel_object(alg, k, random.Random(name))


def test_kernel_objects_are_kept_per_algebra_not_per_size(algebras):
    # equal sizes, different operations: each algebra has its own object,
    # and each agrees with its own oracle on the same bits, in either order
    groupoids = [random_algebra(Signature(3), f"objects:{i}") for i in range(2)]
    trios = [
        (algebras["C3"], algebras["Z3"], algebras["RB3"]),
        (*groupoids, algebras["Set3"]),
    ]
    for trio in trios:
        for order in (trio, trio[::-1]):
            relations.clear_caches()
            objects = [relations.kernels(alg) for alg in order]
            assert len({id(k) for k in objects}) == len(order)
            for alg, k in zip(order, objects):
                assert k.alg == alg and relations.kernels(alg) is k
                _check_kernel_object(alg, k, random.Random(repr(alg)))
        # and the three differ on some relation bits
        closures = [relations.kernels(alg).adm_close for alg in trio]
        assert any(len({close(bits) for close in closures}) > 1 for bits in range(1 << 9))


def test_equal_algebras_share_one_kernel_object():
    # each CLI command loads its algebra afresh
    path = Path(__file__).resolve().parent.parent / "algebras" / "rb3.alg"
    first, second = (load_algebra(str(path)) for _ in range(2))
    assert first is not second and first == second
    relations.clear_caches()
    k = relations.kernels(first)
    assert relations.kernels(second) is k
    info = relations.kernels.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_listed_family_is_refused_once_the_cap_refuses_it(monkeypatch):
    # a family is listed once per algebra, but the cap on n is read on
    # every check, before the listed family: Z5 exceeds the default cap
    # of 4 for reflexive admissible relations, Z2 an override of 1
    z5 = FiniteAlgebra(5, (("+", 2, tuple((a + b) % 5 for a in range(5) for b in range(5))),))

    def check(alg, override):
        if override is None:
            monkeypatch.delenv("RELCOMM_MAX_N", raising=False)
        else:
            monkeypatch.setenv("RELCOMM_MAX_N", override)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the override's warning
            return check_condition(alg, "T2_I", RelFamily())

    for alg, listed_under, refused_under in ((z5, "5", None), (Z2, None, "1")):
        relations.clear_caches()
        assert check(alg, listed_under).relations_checked == 2
        assert REFLEXIVE_ADMISSIBLE in relations.kernels(alg).families
        with pytest.raises(FamilyBoundError, match="capped at n="):
            check(alg, refused_under)


def test_summed_counters_never_go_back_when_search_drops_objects(monkeypatch):
    # search drops each candidate's kernel object after its profile; the
    # counters the benchmark reads keep what the dropped objects counted
    relations.clear_caches()
    seen = []
    real = properties.evaluate_problem_profile

    def profile(alg, ids):
        seen.append(_counts())
        return real(alg, ids)

    monkeypatch.setattr(properties, "evaluate_problem_profile", profile)
    report = run_search(SearchTask(sizes=(3,), budget=6, seed=2))
    seen.append(_counts())
    assert len(seen) == len(report.entries) + 1
    for key in seen[0]:
        series = [counts[key] for counts in seen]
        for before, after in zip(series, series[1:]):
            assert after[0] >= before[0] and after[1] >= before[1], (key, series)
        assert series[-1][1] > 0, key
    # and no candidate's object is kept
    assert relations.kernels.cache_info().currsize == 0


def test_threads_build_evict_and_drop_kernel_objects():
    # more algebras than objects kept, shared by more threads than cores:
    # every value must equal its one-thread reference, and the summed
    # counters, which a lost update of the dropped totals would lower,
    # must never go back
    algs = [random_algebra(Signature(3), f"threads:{i}") for i in range(KERNEL_OBJECTS + 8)]
    full = (1 << 9) - 1

    def values(k):
        return k.cg(0b10), k.comm1(full, full)

    relations.clear_caches()
    want = {alg: values(relations.kernels(alg)) for alg in algs}
    relations.clear_caches()
    stop = threading.Event()
    seen = []

    def watch():
        while not stop.is_set():
            seen.append(_counts())

    def work(seed):
        rng = random.Random(seed)
        got = []
        for alg in rng.sample(algs, len(algs)) * 3:
            got.append((alg, values(relations.kernels(alg))))
            if rng.random() < 0.2:
                relations.kernels.drop(alg)
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher = threading.Thread(target=watch)
        watcher.start()
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, seed) for seed in range(6)]
            results = [pair for future in futures for pair in future.result(timeout=120)]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    watcher.join(timeout=60)
    assert not watcher.is_alive()
    assert [alg for alg, got in results if got != want[alg]] == []
    seen.append(_counts())
    for key in seen[0]:
        series = [counts[key] for counts in seen]
        assert all(a[0] <= b[0] and a[1] <= b[1] for a, b in zip(series, series[1:])), key
    assert len(relations.kernels.objects) <= KERNEL_OBJECTS


def test_drops_from_two_threads_lose_no_count(monkeypatch):
    # a drop reads a memo's total of dropped counts, then adds the counts
    # of the object's memo; one lock makes the two steps one.  Each
    # object's `cache_info` lets the other's go, then waits for its own to
    # be let go: under the lock the second drop cannot start, so the first
    # wait times out and the drops run one after the other, but without it
    # the second drop reads the total that the first read, and one drop's
    # counts are lost
    monkeypatch.setattr(algebra, "MEMOS", [])  # registers nothing for good
    go = {key: threading.Event() for key in "ab"}

    class Memo:
        def __init__(self, key):
            self.key = key

        def cache_info(self):
            go["b" if self.key == "a" else "a"].set()
            go[self.key].wait(timeout=1)
            return algebra.CacheInfo("ab".index(self.key) + 1, 1, 1, 1)

    class Object:
        def __init__(self, key):
            self.memo = Memo(key)

    objects = algebra.PerAlgebra(Object)
    counted = objects.counts("memo")(lambda: None)
    for key in "ab":
        objects(key)
    drops = [threading.Thread(target=objects.drop, args=(key,)) for key in "ab"]
    for thread in drops:
        thread.start()
    for thread in drops:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert counted.cache_info()[:2] == (1 + 2, 2)
    assert objects.cache_info().currsize == 0


def test_m_set_miss_looks_up_no_kernel_object(monkeypatch, algebras):
    # an M(R, S) miss checks R and S on the kernel object that it runs on;
    # only the `BinRel` forms look the object up, once per call
    c3 = algebras["C3"]
    relations.clear_caches()
    k = relations.kernels(c3)
    rels = [r.bits for r in enumerate_relations(c3, RelFamily(REFLEXIVE_ADMISSIBLE))]
    lookups = []
    lookup = algebra.PerAlgebra.__call__

    def counting(self, alg):
        lookups.append(alg)
        return lookup(self, alg)

    monkeypatch.setattr(algebra.PerAlgebra, "__call__", counting)
    for r in rels:
        k.m_set(r, rels[-1])
    assert k.m_set.cache_info().misses == len(rels)
    assert _raised(k.m_set, rels[0], 0)[::2] == (NotReflexive, "S")
    assert lookups == []
    m_set(c3, BinRel(3, rels[0]), BinRel(3, rels[1]))
    assert lookups == [c3]


def test_each_kind_is_listed_once_for_sweeps_and_enumeration(monkeypatch, algebras):
    # a sweep and `enumerate_relations` read one listing of a kind on the
    # kernel object: NextClosure runs once for both
    c3 = algebras["C3"]
    relations.clear_caches()
    runs = []
    closed_sets = relations._closed_sets

    def counting(n, close_within):
        runs.append(n)
        return closed_sets(n, close_within)

    monkeypatch.setattr(relations, "_closed_sets", counting)
    assert check_condition(c3, "T2_I", RelFamily()).holds
    listed = list(enumerate_relations(c3, RelFamily(kind=REFLEXIVE_ADMISSIBLE)))
    assert runs == [3]
    assert [r.bits for r in listed] == list(relations.kernels(c3).family(REFLEXIVE_ADMISSIBLE))
    assert runs == [3]


@pytest.mark.parametrize(
    "name, cond_id, holds, built",
    (("C3", "L1A_I", True, 0), ("C3", "T2_V", True, 0), ("Z4", "T4_I_COR", True, 0),
     ("RB3", "T3_I", False, 4)),
)
def test_a_repeated_exhaustive_check_builds_no_binrel(monkeypatch, algebras, name, cond_id, holds, built):
    # a sweep reads the kernel object's listings as relation bits; once
    # they are listed, only a failing check's witness and its recheck
    # build `BinRel`s (T3_I binds R: the witness's R, the recheck's R and
    # its two sides)
    alg = algebras[name]
    check_condition(alg, cond_id, RelFamily())
    count = [0]
    init = BinRel.__init__

    def counting(self, size, bits):
        count[0] += 1
        init(self, size, bits)

    monkeypatch.setattr(BinRel, "__init__", counting)
    assert check_condition(alg, cond_id, RelFamily()).holds is holds
    assert count[0] == built
