"""The int kernels of `relations` and `commutator` against their `BinRel`
forms and against the brute-force oracles, and the cache contract that the
benchmark's hit rates read."""

import random

import pytest

from conftest import refl
from oracles import naive_family, naive_transitive_closure, naive_tuple_closure
from relcomm import (
    CONGRUENCE,
    REFLEXIVE_ADMISSIBLE,
    BinRel,
    FiniteAlgebra,
    RelFamily,
    adm_close,
    cg,
    comm,
    comm1,
    comm_weak,
    commutator,
    cong_join,
    enumerate_relations,
    k_op,
    m_set,
    relations,
    tol_close,
)
from relcomm.properties import check_condition
from relcomm.relations import NotAdmissible, NotReflexive, SizeMismatch, UsageError
from relcomm.search import Signature, catalog, random_algebra

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


def _congruences(alg):
    ops = alg.operations
    return naive_family(alg.size, [op.arity for op in ops], [op.table for op in ops], CONGRUENCE)


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
    for r, s in pairs:
        a, b = r.bits, s.bits
        assert commutator.m_set_bits(alg, a, b) == m_set(alg, r, s).bits
        for v in (delta, full, r, s):
            assert commutator.k_op_bits(alg, a, b, v.bits) == k_op(alg, r, s, v).bits
        assert commutator.comm1_bits(alg, a, b) == comm1(alg, r, s).bits
        assert commutator.comm_weak_bits(alg, a, b) == comm_weak(alg, r, s).bits
        assert commutator.comm_bits(alg, a, b) == comm(alg, r, s).bits
    # the oracle's closure in A^4 is slow, so it sees a fixed sample
    for r, s in random.Random(name).sample(pairs, min(len(pairs), 12)):
        m, k_delta, c1, weak, least = _oracle_commutators(alg, r, s, congruences)
        a, b = r.bits, s.bits
        assert set(m_set(alg, r, s).members()) == m
        assert commutator.k_op_bits(alg, a, b, delta.bits) == k_delta
        assert commutator.comm1_bits(alg, a, b) == c1
        assert commutator.comm_weak_bits(alg, a, b) == weak
        assert commutator.comm_bits(alg, a, b) == least


@pytest.mark.parametrize("name, alg", SMALL, ids=[name for name, _ in SMALL])
def test_closure_kernels_match_their_forms_and_the_oracle(name, alg):
    n = alg.size
    congruences = _congruences(alg)
    diagonal = _pairs(n, BinRel.delta(n).bits)
    for bits in range(1 << n * n):
        r = BinRel(n, bits)
        pairs = _pairs(n, bits)
        adm = relations.adm_close_bits(alg, bits)
        assert adm == adm_close(alg, r).bits == _bits(n, _closure(alg, 2, pairs))
        tol = relations.tol_close_bits(alg, bits)
        symmetric = diagonal | pairs | {(b, a) for a, b in pairs}
        assert tol == tol_close(alg, r).bits == _bits(n, _closure(alg, 2, symmetric))
        least = _least((d for d in congruences if bits & ~d == 0), n)
        assert relations.cg_bits(alg, bits) == cg(alg, r).bits == least
        assert relations.is_admissible(alg, r) == (adm == bits)
        assert relations.is_tolerance(alg, r) == (tol == bits)
        assert relations.is_congruence(alg, r) == (least == bits)
    for x in congruences:
        for y in congruences:
            join = _least((d for d in congruences if (x | y) & ~d == 0), n)
            got = relations.cong_join_bits(alg, x, y)
            assert got == cong_join(alg, BinRel(n, x), BinRel(n, y)).bits == join
            # and it is star(x ; y), by the oracle's composition and closure
            chained = naive_transitive_closure(
                {(a, c) for a, b in _pairs(n, x) for b2, c in _pairs(n, y) if b == b2}
            )
            assert got == _bits(n, chained)


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
    assert _raised(commutator.m_set_bits, Z2, not_refl.bits, full.bits)[::2] == (NotReflexive, "R")
    assert _raised(commutator.comm1_bits, Z2, full.bits, not_adm.bits)[::2] == (NotAdmissible, "S")
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
    assert _raised(relations.cong_join_bits, Z2, full.bits, not_adm.bits)[:2] == (
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
        # only through comm1's misses, so it sees no lookup at all
        assert second[key][1] == misses, key
        if key != ("relcomm.commutator", "m_set"):
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
    # a public name shares its kernel's cache rather than keeping its own
    for module, name in BENCHMARK_CACHES:
        assert getattr(module, name).cache_info == getattr(module, name + "_bits").cache_info
