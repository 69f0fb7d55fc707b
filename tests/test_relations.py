import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refl, rel
from oracles import (
    naive_compose,
    naive_family,
    naive_is_admissible,
    naive_transitive_closure,
)
from relcomm import (
    BinRel,
    CONGRUENCE,
    REFLEXIVE_ADMISSIBLE,
    TOLERANCE,
    FiniteAlgebra,
    RelFamily,
    adm_close,
    cg,
    compose,
    cong_join,
    converse,
    enumerate_relations,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive,
    is_symmetric,
    is_tolerance,
    is_transitive,
    star,
    tol_close,
    union_,
)
from relcomm.relations import (
    FamilyBoundError,
    SizeMismatch,
    UsageError,
    _sample_relations,
    compose_bits,
    converse_bits,
    family_closure,
    random_pairs,
    star_bits,
)
from relcomm.search import Signature, random_algebra

Z2 = FiniteAlgebra(2, (("+", 2, (0, 1, 1, 0)),))
PURE2 = FiniteAlgebra(2, ())


def bits_of(pairs, n):
    return BinRel.from_pairs(n, pairs).bits


def random_rel(rng, n):
    return BinRel(n, rng.getrandbits(n * n))


def test_predicates_on_delta():
    d = BinRel.delta(3)
    assert is_reflexive(d) and is_symmetric(d) and is_transitive(d)


def test_predicates_single_pair():
    r = refl(3, (0, 1))
    assert is_reflexive(r)
    assert not is_symmetric(r)
    assert is_transitive(r)


def test_not_transitive():
    r = refl(3, (0, 1), (1, 2))
    assert not is_transitive(r)


def test_admissible_pure_set():
    assert is_admissible(PURE2, rel(2, (0, 1)))


def test_admissible_z2_counterexample():
    # (0,1)+(1,1) = (1,0) escapes delta u {(0,1)}
    assert not is_admissible(Z2, refl(2, (0, 1)))


def test_admissible_full():
    assert is_admissible(Z2, BinRel.full(2))


def test_converse_example():
    assert converse(refl(2, (0, 1))).bits == refl(2, (1, 0)).bits


def test_star_example():
    got = star(refl(3, (0, 1), (1, 2)))
    assert got.bits == refl(3, (0, 1), (1, 2), (0, 2)).bits


def test_compose_example():
    got = compose(refl(3, (0, 1)), refl(3, (1, 2)))
    assert got.bits == refl(3, (0, 1), (1, 2), (0, 2)).bits


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose(BinRel.delta(2), BinRel.delta(3))
    with pytest.raises(SizeMismatch):
        adm_close(Z2, BinRel.delta(3))
    for op in (intersect, union_, BinRel.__and__, BinRel.__or__, BinRel.is_subset):
        with pytest.raises(SizeMismatch):
            op(BinRel.full(2), BinRel.delta(3))


def _pair_set(n, bits):
    return {divmod(i, n) for i in range(n * n) if bits >> i & 1}


def _bits(n, pairs):
    return sum(1 << (a * n + b) for a, b in pairs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_int_kernels_match_naive(n, data):
    # the int kernels that plans run, against the pair-set oracles, and
    # their BinRel forms against the kernels
    a, b = (data.draw(st.integers(0, (1 << n * n) - 1)) for _ in range(2))
    pa, pb = _pair_set(n, a), _pair_set(n, b)
    assert compose_bits(n, a, b) == _bits(n, naive_compose(pa, pb))
    assert converse_bits(n, a) == _bits(n, {(y, x) for x, y in pa})
    assert star_bits(n, a) == _bits(n, naive_transitive_closure(pa))
    r, s = BinRel(n, a), BinRel(n, b)
    assert compose(r, s) == BinRel(n, compose_bits(n, a, b))
    assert converse(r) == BinRel(n, converse_bits(n, a))
    assert star(r) == BinRel(n, star_bits(n, a))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers())
def test_relation_algebra_laws(n, seed):
    rng = random.Random(seed)
    r = random_rel(rng, n)
    s = random_rel(rng, n)
    t = random_rel(rng, n)
    assert converse(converse(r)).bits == r.bits
    assert compose(compose(r, s), t).bits == compose(r, compose(s, t)).bits
    assert converse(compose(r, s)).bits == compose(converse(s), converse(r)).bits
    st_r = star(r)
    assert star(st_r).bits == st_r.bits
    assert r.is_subset(st_r)
    assert st_r.is_subset(star(union_(r, s)))
    assert set(star(r).pairs()) == naive_transitive_closure(r.pairs())
    assert set(compose(r, s).pairs()) == naive_compose(set(r.pairs()), set(s.pairs()))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.integers(),
    st.integers(),
    st.sampled_from(("any", "reflexive", "reflexive and symmetric", "tolerance")),
)
def test_admissibility_matches_naive(n, arities, table_seed, rel_seed, shape):
    # any mix of constants, unary, binary and ternary ops; r need not be
    # reflexive.  Tolerance and congruence are checked against predicates
    # built from oracle parts only.
    sig = Signature(size=n, ops=tuple((f"f{i}", a) for i, a in enumerate(arities)))
    alg = random_algebra(sig, table_seed)
    tables = [op.table for op in alg.operations]
    pairs = set(random_rel(random.Random(rel_seed), n).pairs())
    if shape != "any":
        pairs |= {(a, a) for a in range(n)}
    if shape == "reflexive and symmetric":
        pairs |= {(b, a) for (a, b) in pairs}
    r = BinRel.from_pairs(n, pairs)
    if shape == "tolerance":
        # need not be transitive, so the congruence check has cases to tell apart
        r = tol_close(alg, BinRel.from_pairs(n, sorted(pairs)[:2]))
        pairs = set(r.pairs())
    admissible = naive_is_admissible(n, arities, tables, pairs)
    assert is_admissible(alg, r) == admissible
    tolerance = (
        all((a, a) in pairs for a in range(n))
        and all((b, a) in pairs for (a, b) in pairs)
        and admissible
    )
    assert is_tolerance(alg, r) == tolerance
    assert is_congruence(alg, r) == (tolerance and naive_compose(pairs, pairs) <= pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.sets(st.sampled_from((1, 2, 3))), st.integers(), st.integers())
def test_admissibility_agrees_with_adm_close_under_constants(n, arities, table_seed, rel_seed):
    # r is admissible exactly when it is its own admissible closure; a
    # nullary op c asks for (c, c) in r
    const = FiniteAlgebra(2, (("e", 0, (0,)),))
    assert not is_admissible(const, rel(2, (1, 1)))
    assert adm_close(const, rel(2, (1, 1))).bits == bits_of([(0, 0), (1, 1)], 2)
    sig = Signature(size=n, ops=(("c", 0),) + tuple((f"f{a}", a) for a in sorted(arities)))
    alg = random_algebra(sig, table_seed)
    r = random_rel(random.Random(rel_seed), n)
    assert is_admissible(alg, r) == (adm_close(alg, r) == r)


def test_adm_close_examples():
    # pure set: nothing to close under
    r = rel(2, (0, 1))
    assert adm_close(PURE2, r).bits == r.bits
    # Z2: smallest compatible superset of {(0,1)} adds only (0,0)
    got = adm_close(Z2, rel(2, (0, 1)))
    assert got.bits == bits_of([(0, 1), (0, 0)], 2)
    # idempotence on an admissible input
    assert adm_close(Z2, BinRel.full(2)).bits == BinRel.full(2).bits


def test_tol_close_examples():
    t = tol_close(Z2, BinRel.full(2))
    assert t.bits == BinRel.full(2).bits
    assert tol_close(PURE2, refl(2, (0, 1))).bits == BinRel.full(2).bits
    z4 = FiniteAlgebra(4, (("+", 2, tuple((a + b) % 4 for a in range(4) for b in range(4))),))
    got = tol_close(z4, refl(4, (0, 2)))
    assert got.bits == refl(4, (0, 2), (2, 0), (1, 3), (3, 1)).bits


def test_cg_examples():
    assert cg(Z2, BinRel.delta(2)).bits == BinRel.delta(2).bits
    pure3 = FiniteAlgebra(3, ())
    got = cg(pure3, refl(3, (0, 1)))
    assert got.bits == refl(3, (0, 1), (1, 0)).bits
    assert cg(Z2, refl(2, (0, 1))).bits == BinRel.full(2).bits


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(), st.integers())
def test_closure_operator_laws(n, table_seed, rel_seed):
    rng = random.Random(table_seed)
    table = tuple(rng.randrange(n) for _ in range(n * n))
    alg = FiniteAlgebra(n, (("f", 2, table),))
    rng2 = random.Random(rel_seed)
    r = random_rel(rng2, n)
    bigger = union_(r, random_rel(rng2, n))
    for close in (adm_close, tol_close, cg):
        cr = close(alg, r)
        assert r.is_subset(cr)  # extensive
        assert close(alg, cr).bits == cr.bits  # idempotent
        assert cr.is_subset(close(alg, bigger))  # monotone
    assert is_congruence(alg, cg(alg, r))


def test_cong_join_examples(algebras):
    z22 = algebras["Z2xZ2"]
    k1 = BinRel.from_pairs(4, [(a, b) for a in range(4) for b in range(4) if a // 2 == b // 2])
    k2 = BinRel.from_pairs(4, [(a, b) for a in range(4) for b in range(4) if a % 2 == b % 2])
    assert cong_join(z22, k1, k2).bits == BinRel.full(4).bits
    assert cong_join(z22, k1, BinRel.delta(4)).bits == k1.bits
    assert cong_join(z22, k1, k1).bits == k1.bits
    with pytest.raises(ValueError):
        cong_join(z22, refl(4, (0, 1)), k1)


def test_cong_join_is_least_upper_bound(algebras):
    alg = algebras["C3"]
    congs = list(enumerate_relations(alg, RelFamily(kind=CONGRUENCE)))
    for a in congs:
        for b in congs:
            j = cong_join(alg, a, b)
            assert is_congruence(alg, j)
            assert a.is_subset(j) and b.is_subset(j)
            assert j.bits == cg(alg, union_(a, b)).bits


def test_enumerate_pure2_reflexive():
    fam = RelFamily(kind=REFLEXIVE_ADMISSIBLE)
    got = list(enumerate_relations(PURE2, fam))
    assert len(got) == 4


def test_enumerate_z2_families():
    assert [r.bits for r in enumerate_relations(Z2, RelFamily(kind=REFLEXIVE_ADMISSIBLE))] == [
        BinRel.delta(2).bits,
        BinRel.full(2).bits,
    ]
    assert [r.bits for r in enumerate_relations(Z2, RelFamily(kind=CONGRUENCE))] == [
        BinRel.delta(2).bits,
        BinRel.full(2).bits,
    ]


def test_enumerate_order_and_uniqueness(algebras):
    for name in ("Set3", "C3", "Z4"):
        alg = algebras[name]
        for kind in (REFLEXIVE_ADMISSIBLE, TOLERANCE, CONGRUENCE):
            out = [r.bits for r in enumerate_relations(alg, RelFamily(kind=kind))]
            assert out == sorted(set(out))


def test_enumerate_members_satisfy_predicate(algebras):
    alg = algebras["C3"]
    for r in enumerate_relations(alg, RelFamily(kind=TOLERANCE)):
        assert is_reflexive(r) and is_symmetric(r) and is_admissible(alg, r)
    for r in enumerate_relations(alg, RelFamily(kind=CONGRUENCE)):
        assert is_congruence(alg, r)


def test_enumerate_bell_count():
    pure4 = FiniteAlgebra(4, ())
    got = list(enumerate_relations(pure4, RelFamily(kind=CONGRUENCE)))
    assert len(got) == 15  # Bell(4)


def test_enumerate_bounds():
    big = FiniteAlgebra(5, ())
    with pytest.raises(FamilyBoundError):
        list(enumerate_relations(big, RelFamily(kind=REFLEXIVE_ADMISSIBLE)))


def test_enumerate_bound_override(monkeypatch):
    import relcomm.relations as relations_mod

    monkeypatch.setenv("RELCOMM_MAX_N", "2")
    monkeypatch.setattr(relations_mod, "_warned_override", False)
    pure3 = FiniteAlgebra(3, ())
    with pytest.warns(UserWarning):
        with pytest.raises(FamilyBoundError):
            list(enumerate_relations(pure3, RelFamily(kind=REFLEXIVE_ADMISSIBLE)))


def test_sampled_mode_deterministic(algebras):
    alg = algebras["C3"]
    fam = RelFamily(kind=TOLERANCE, mode="sampled", sample_count=30, seed=5)
    a = [r.bits for r in enumerate_relations(alg, fam)]
    b = [r.bits for r in enumerate_relations(alg, fam)]
    assert a == b
    assert len(a) == len(set(a))
    for bits in a:
        r = BinRel(alg.size, bits)
        assert is_reflexive(r) and is_symmetric(r) and is_admissible(alg, r)


def test_family_rejects_fewer_than_one_sample():
    # a sampled sweep over no bindings would report "no counterexample found"
    for count in (0, -3):
        with pytest.raises(ValueError, match="sample_count"):
            RelFamily(mode="sampled", sample_count=count)
    assert RelFamily(mode="sampled", sample_count=1).sample_count == 1


def test_family_rejects_an_unknown_mode():
    # refused where the family is built, not later inside enumeration
    for mode in ("sample", "Exhaustive", ""):
        with pytest.raises(UsageError, match="'exhaustive' or 'sampled'"):
            RelFamily(mode=mode)


def assert_family_matches_oracle(alg):
    arities = [op.arity for op in alg.operations]
    tables = [op.table for op in alg.operations]
    for kind in (REFLEXIVE_ADMISSIBLE, TOLERANCE, CONGRUENCE):
        got = [r.bits for r in enumerate_relations(alg, RelFamily(kind=kind))]
        assert got == naive_family(alg.size, arities, tables, kind), kind


def test_enumerate_matches_oracle_on_catalog(algebras):
    for alg in algebras.values():
        if alg.size <= 4:
            assert_family_matches_oracle(alg)


def test_enumerate_matches_oracle_on_random_groupoids():
    sig = Signature(size=4, ops=(("f", 2),))
    for seed in range(3):
        assert_family_matches_oracle(random_algebra(sig, f"enumerate:{seed}"))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sets(st.sampled_from((0, 1, 2, 3)), min_size=1), st.integers())
def test_enumerate_matches_oracle_on_mixed_arities(n, arities, seed):
    sig = Signature(size=n, ops=tuple((f"f{a}", a) for a in sorted(arities)))
    assert_family_matches_oracle(random_algebra(sig, seed))


def _sample_without_stop(n, close, sample_count, seed):
    """The sampler as it was before it stopped on exhausted draws."""
    rng = random.Random(seed)
    seen = set()
    attempts = 0
    while len(seen) < sample_count and attempts < sample_count * 20:
        attempts += 1
        bits = close(random_pairs(rng, n, rng.randint(1, 3)))
        if bits not in seen:
            seen.add(bits)
            yield bits


@pytest.mark.parametrize("name", ["Z2", "L2", "C3", "Z3", "RB3"])
def test_sampling_stop_keeps_the_sampled_sequence(algebras, name):
    alg = algebras[name]
    for kind in (REFLEXIVE_ADMISSIBLE, TOLERANCE, CONGRUENCE):
        close = family_closure(alg, kind)
        for count, seed in ((1, 0), (5, 1), (30, 5), (200, 0), (400, 3)):
            expected = list(_sample_without_stop(alg.size, close, count, seed))
            assert list(_sample_relations(alg.size, close, count, seed)) == expected
