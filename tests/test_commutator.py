import itertools
import random

import pytest

from conftest import refl, tuple_bits
from oracles import naive_bottom_rows, naive_matrix_bound, naive_tuple_closure, per_member_saturate
from relcomm import (
    REFLEXIVE_ADMISSIBLE,
    BinRel,
    FiniteAlgebra,
    RelFamily,
    adm_close,
    cg,
    comm,
    comm1,
    comm_weak,
    compose,
    converse,
    enumerate_relations,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive,
    is_tolerance,
    k_op,
    m_set,
    star,
    subuniverse_closure,
    tol_close,
    union_,
)
from relcomm import algebra, commutator, relations
from relcomm.algebra import _saturate, eval_op
from relcomm.relations import (
    InvariantViolation,
    NotAdmissible,
    NotReflexive,
    require_reflexive_admissible,
)
from relcomm.search import Signature, random_algebra

Z2 = FiniteAlgebra(2, (("+", 2, (0, 1, 1, 0)),))
L2 = FiniteAlgebra(2, (("meet", 2, (0, 0, 0, 1)), ("join", 2, (0, 1, 1, 1))))
PURE2 = FiniteAlgebra(2, ())
FULL2 = BinRel.full(2)
D2 = BinRel.delta(2)
CHAIN4 = FiniteAlgebra(4, (
    ("meet", 2, tuple(min(a, b) for a in range(4) for b in range(4))),
    ("join", 2, tuple(max(a, b) for a in range(4) for b in range(4))),
))
# the ternary algebras of the benchmark's commutators-ternary workload:
# the median of the 3-element chain and x - y + z on Z4
MAJORITY3 = FiniteAlgebra(3, (("maj", 3, tuple(sorted(t)[1] for t in itertools.product(range(3), repeat=3))),))
MALCEV4 = FiniteAlgebra(4, (("q", 3, tuple((x - y + z) % 4 for x, y, z in itertools.product(range(4), repeat=3))),))


def test_m_set_pure_set_is_generators():
    r = refl(2, (0, 1))
    s = FULL2
    m = m_set(PURE2, r, s)
    expected = {(a, a, a2, a2) for (a, a2) in r.pairs()}
    expected |= {(b, b2, b, b2) for (b, b2) in s.pairs()}
    assert set(m.members()) == expected


def test_m_set_z2_full_is_even_parity():
    m = m_set(Z2, FULL2, FULL2)
    expected = {
        t for t in itertools.product(range(2), repeat=4) if t[0] ^ t[1] ^ t[2] ^ t[3] == 0
    }
    assert set(m.members()) == expected


def test_m_set_delta_delta_is_diagonal(algebras):
    for name, alg in algebras.items():
        d = BinRel.delta(alg.size)
        m = m_set(alg, d, d)
        assert set(m.members()) == {(u, u, u, u) for u in range(alg.size)}


def test_m_set_equals_plain_closure_of_both_blocks(algebras, ra_lists):
    # m_set closes the S block onto the R block, which it treats as already
    # closed since R is admissible; the plain closure of both must agree
    def plain(alg, r, s):
        gens = [(a, a, a2, a2) for a, a2 in r.pairs()]
        gens += [(b, b2, b, b2) for b, b2 in s.pairs()]
        return subuniverse_closure(alg, 4, tuple_bits(alg.size, gens))

    cases = [
        (alg, r, s)
        for name, alg in algebras.items()
        if alg.size <= 3
        for r in ra_lists[name]
        for s in ra_lists[name]
    ]
    rels = list(enumerate_relations(CHAIN4, RelFamily(REFLEXIVE_ADMISSIBLE)))
    rng = random.Random(5)
    cases += [(CHAIN4, rng.choice(rels), rng.choice(rels)) for _ in range(150)]
    for alg, r, s in cases:
        assert m_set(alg, r, s) == plain(alg, r, s), (alg, r, s)


def _kernels_of_size(n):
    """The kernel object of the n-element set: its `blocks` and `spread`
    are the memos that every kernel object of size n shares."""
    return relations.kernels(FiniteAlgebra(n))


def test_bottom_rows_match_the_per_pair_or():
    # K(R, S; V) masks the matrix bits to V's slices (`spread`) and folds
    # the n*n slices onto the lowest; n*n = 9 and 25 are no powers of two,
    # so the fold's top step covers fewer slices than its span
    rng = random.Random(31)
    for n in range(1, 6):
        k = _kernels_of_size(n)
        nn = n * n
        vs = [0, (1 << nn) - 1, BinRel.delta(n).bits] + [1 << i for i in range(nn)]
        vs += [rng.getrandbits(nn) for _ in range(12)]
        # dense bits, and each slice alone, so that a missing step shows
        ms = [(1 << nn * nn) - 1] + [rng.getrandbits(nn * nn) for _ in range(6)]
        ms += [(rng.getrandbits(nn) | 1) << i * nn for i in range(nn)]
        for m in ms:
            for v in vs:
                want = naive_bottom_rows(n, m, v)
                assert commutator._bottom_rows(k, m, v) == want, (n, m, v)
        for v in vs:
            assert k.spread(v) == sum(
                ((1 << nn) - 1) << i * nn for i in range(nn) if v >> i & 1
            ), (n, v)


def test_matrix_bound_matches_oracle():
    rng = random.Random(31)
    for n in range(1, 5):
        k = _kernels_of_size(n)
        full = (1 << n * n) - 1
        for r, s in [(0, 0), (full, full), (full, 0)] + [
            (rng.getrandbits(n * n), rng.getrandbits(n * n)) for _ in range(40)
        ]:
            want = tuple_bits(n, naive_matrix_bound(n, r, s))
            assert commutator.matrix_bound_bits(k, r, s) == want, (n, r, s)


def _relation_pieces(n, x):
    """The four 4-tuple sets that a kernel object's `blocks` builds for
    relation bits x, by their definitions: the block as R, the block as S, X x X and
    X x X with its middle coordinates swapped."""
    pairs = [divmod(i, n) for i in range(n * n) if x >> i & 1]
    square = [(a, b, c, d) for a, b in pairs for c, d in pairs]
    return tuple(
        tuple_bits(n, tuples)
        for tuples in (
            [(a, a, a2, a2) for a, a2 in pairs],
            [(b, b2, b, b2) for b, b2 in pairs],
            square,
            [(a, c, b, d) for a, b, c, d in square],
        )
    )


def test_relation_blocks_match_their_definitions(algebras, ra_lists):
    # each relation's blocks and bound factors are built once per relation
    # bits, in a memo of its universe size: on every reflexive admissible
    # relation of the catalog and on random bits up to n = 6 they must
    # equal their definitions, and U(R, S) the oracle's
    rng = random.Random(55)
    bits = {n: {0, (1 << n * n) - 1} for n in range(1, 7)}
    for name, alg in algebras.items():
        bits[alg.size] |= {r.bits for r in ra_lists[name]}
    relations.clear_caches()
    for n, xs in bits.items():
        k = _kernels_of_size(n)
        xs = sorted(xs | {rng.getrandbits(n * n) for _ in range(30)})
        for x in xs:
            assert k.blocks(x) == _relation_pieces(n, x), (n, x)
        for r, s in [(x, x) for x in xs] + [tuple(rng.sample(xs, 2)) for _ in range(60)]:
            want = tuple_bits(n, naive_matrix_bound(n, r, s))
            assert commutator.matrix_bound_bits(k, r, s) == want, (n, r, s)


def test_relation_blocks_are_kept_per_universe_size(algebras):
    # the blocks and slices of a relation depend on its bits and n alone,
    # so two algebras of one size share their memos; bits 0b1001 are the
    # diagonal on 2 elements and {(0, 0), (1, 0)} on 3, so a memo shared
    # across sizes would hand one size's blocks to the other, in either
    # order
    x = 0b1001
    for sizes in ((2, 3), (3, 2)):
        relations.clear_caches()
        objects = {}
        for n in sizes:
            same_size = [alg for alg in algebras.values() if alg.size == n]
            assert len(same_size) >= 2, n
            first, second = (relations.kernels(alg) for alg in same_size[:2])
            assert first is not second
            assert first.blocks is second.blocks and first.spread is second.spread, n
            assert first.blocks(x) == _relation_pieces(n, x), (sizes, n)
            want = tuple_bits(n, naive_matrix_bound(n, x, x))
            assert commutator.matrix_bound_bits(second, x, x) == want, (sizes, n)
            objects[n] = first
        small, large = objects[2], objects[3]
        assert small.blocks is not large.blocks and small.spread is not large.spread
        assert small.spread(x) != large.spread(x)


def test_m_set_is_the_naive_closure_of_both_blocks_inside_its_bound(algebras, ra_lists):
    # m_set's closure stops once it reaches its bound; the naive closure
    # runs to its fixed point, so it checks that no tuple was left out
    rng = random.Random(8)
    cases = []
    for name, alg in algebras.items():
        if alg.size <= 3:
            pairs = [(r, s) for r in ra_lists[name] for s in ra_lists[name]]
            cases += [(alg, *pair) for pair in rng.sample(pairs, min(len(pairs), 400))]
    fam = RelFamily(REFLEXIVE_ADMISSIBLE)
    for _ in range(8):
        alg = FiniteAlgebra(3, (("f", 2, tuple(rng.randrange(3) for _ in range(9))),))
        rels = list(enumerate_relations(alg, fam))
        cases += [(alg, rng.choice(rels), rng.choice(rels)) for _ in range(5)]
    for alg, r, s in cases:
        n = alg.size
        gens = [(a, a, a2, a2) for a, a2 in r.pairs()]
        gens += [(b, b2, b, b2) for b, b2 in s.pairs()]
        ops = alg.operations
        want = naive_tuple_closure(n, 4, [op.arity for op in ops], [op.table for op in ops], gens)
        got = set(m_set(alg, r, s).members())
        assert got == want, (alg, r, s)
        assert got <= naive_matrix_bound(n, r.bits, s.bits), (alg, r, s)


def _r_block(n, r):
    return tuple_bits(n, [(a, a, a2, a2) for a, a2 in r.pairs()])


def _unseeded_m_set_bits(alg, r, s):
    """M(R, S) closed from R's block alone, S's block the generators."""
    n = alg.size
    columns = tuple_bits(n, [(b, b2, b, b2) for b, b2 in s.pairs()])
    bound = commutator.matrix_bound_bits(relations.kernels(alg), r.bits, s.bits)
    return subuniverse_closure(alg, 4, columns, closed=_r_block(n, r), within=bound).bits


def _random_groupoids(rng, count):
    return [
        FiniteAlgebra(3, (("f", 2, tuple(rng.randrange(3) for _ in range(9))),))
        for _ in range(count)
    ]


def test_seeded_m_set_equals_the_unseeded_closure(monkeypatch, algebras, ra_lists):
    # m_set starts each closure from a matrix set computed earlier on
    # the same algebra; visiting the relations by size gives nearly every
    # miss a seed, a shuffled visit puts larger sets first, and each result
    # must equal the closure from R's block
    rng = random.Random(21)
    fam = RelFamily(REFLEXIVE_ADMISSIBLE)
    cases = [(alg, ra_lists[name]) for name, alg in algebras.items() if alg.size <= 4]
    cases.append((CHAIN4, rng.sample(list(enumerate_relations(CHAIN4, fam)), 40)))
    cases += [(alg, list(enumerate_relations(alg, fam))) for alg in _random_groupoids(rng, 6)]
    closed = []

    def recording(*args, **kwargs):
        closed.append(kwargs["closed"])
        return subuniverse_closure(*args, **kwargs)

    monkeypatch.setattr(commutator, "subuniverse_closure", recording)
    seeded = 0
    for alg, rels in cases:
        rels = sorted(rels, key=lambda rel: rel.bits.bit_count())
        pairs = [(r, s) for r in rels for s in rels]
        for order in (pairs, rng.sample(pairs, len(pairs))):
            relations.clear_caches()
            got = {}
            for r, s in order:
                got[r, s] = relations.kernels(alg).m_set(r.bits, s.bits)
                seeded += closed[-1] != _r_block(alg.size, r)
            relations.clear_caches()
            for (r, s), m in got.items():
                assert m == _unseeded_m_set_bits(alg, r, s), (alg, r, s)
    # a change that never seeds would pass the comparison alone
    assert seeded


def test_seeds_never_cross_algebras(algebras):
    # the computed matrix sets are kept per algebra: after C3's (or one
    # groupoid's) are in, the same relation bits on Z3 (or another
    # groupoid) must close to that algebra's own M(R, S)
    rng = random.Random(13)
    groupoids = _random_groupoids(rng, 12)
    fam = RelFamily(REFLEXIVE_ADMISSIBLE)
    crossing = 0
    pairs = [(algebras["C3"], algebras["Z3"])] + list(zip(groupoids[::2], groupoids[1::2]))
    for first, second in pairs:
        relations.clear_caches()
        earlier = {}
        rels = list(enumerate_relations(first, fam))
        for r in rels:
            for s in rels:
                earlier[r.bits, s.bits] = relations.kernels(first).m_set(r.bits, s.bits)
        rels = list(enumerate_relations(second, fam))
        for r in rels:
            for s in rels:
                want = _unseeded_m_set_bits(second, r, s)
                got = relations.kernels(second).m_set(r.bits, s.bits)
                assert got == want, (first, second, r, s)
                # an M(R, S') or M(R', S) of the first algebra, S' <= S or
                # R' <= R, that is not in this M(R, S): a wrong seed
                crossing += any(
                    m & ~want
                    for (r2, s2), m in earlier.items()
                    if (r2 == r.bits and s2 & ~s.bits == 0) or (s2 == s.bits and r2 & ~r.bits == 0)
                )
    assert crossing


def _m_set_closures(alg):
    """The arguments of `algebra._saturate` for the unseeded closure of
    M(R, S), for every pair of reflexive admissible relations R, S: S's
    block closed onto R's, within U(R, S)."""
    relations.clear_caches()
    k = relations.kernels(alg)
    rels = [rel.bits for rel in enumerate_relations(alg, RelFamily(REFLEXIVE_ADMISSIBLE))]
    return [
        (alg, 4, k.blocks(s)[1], k.blocks(r)[0], commutator.matrix_bound_bits(k, r, s))
        for r in rels
        for s in rels
    ]


def test_ternary_m_sets_by_rounds_match_the_per_member_engine(monkeypatch):
    # M(R, S) on both ternary algebras, whose steps are all wide (two fixed
    # members each), closed by rounds and by the engine that processed one
    # member at a time: equal, with and without `complete`, and the rounds,
    # which image each distinct half key once per step and round, make
    # fewer coordinate passes.  The per-member engine's count is a budget
    # that the rounds may not exceed at any point, so a run that never
    # ends fails instead of hanging
    passes = [0, None]  # so far, and the most allowed

    def counting(bits, descriptors):
        passes[0] += len(descriptors)
        if passes[1] is not None and passes[0] > passes[1]:
            raise AssertionError("more coordinate passes than the per-member engine")
        return image(bits, descriptors)

    image = algebra._image
    monkeypatch.setattr(algebra, "_image", counting)
    for alg in (MAJORITY3, MALCEV4):
        closures = _m_set_closures(alg)
        assert len(closures) >= 9, alg
        for complete in (False, True):
            passes[:] = [0, None]
            want = [per_member_saturate(*args, complete) for args in closures]
            passes[:] = [0, passes[0]]
            got = [_saturate(*args, complete) for args in closures]
            assert got == want, (alg, complete)
            assert passes[0] < passes[1], (alg, complete, passes)
    relations.clear_caches()


def test_m_set_stops_mid_round_once_it_fills_its_bound(monkeypatch):
    # on the 4-chain, R = (<=) with (1, 0) and S = (<=) with all of
    # {1, 2, 3}^2 have M(R, S) = U(R, S).  Its closure from R's block
    # holds every tuple of U(R, S) after 39 images, partway through a
    # round; the round that fills U(R, S) would take the run to 68 images
    calls = []

    def counting(bits, descriptors):
        calls.append(bits)
        return image(bits, descriptors)

    image = algebra._image
    r = BinRel.from_pairs(4, [(a, b) for a in range(4) for b in range(4) if a <= b] + [(1, 0)])
    s = BinRel.from_pairs(4, [(a, b) for a in range(4) for b in range(4) if a <= b or min(a, b) >= 1])
    relations.clear_caches()
    k = relations.kernels(CHAIN4)
    bound = commutator.matrix_bound_bits(k, r.bits, s.bits)
    rows, columns = k.blocks(r.bits)[0], k.blocks(s.bits)[1]
    monkeypatch.setattr(algebra, "_image", counting)
    got = subuniverse_closure(CHAIN4, 4, columns, closed=rows, within=bound)
    assert got.bits == bound
    assert 0 < len(calls) < 68, len(calls)
    relations.clear_caches()


def test_m_set_closes_within_its_bound(monkeypatch):
    # the bound only lets the closure stop early, so an unbounded closure
    # would give every M(R, S) unchanged: check that the bound is passed
    bounds = []

    def recording(*args, **kwargs):
        bounds.append(kwargs.get("within"))
        return subuniverse_closure(*args, **kwargs)

    monkeypatch.setattr(commutator, "subuniverse_closure", recording)
    relations.clear_caches()
    r, s = refl(2, (0, 1)), FULL2
    m_set(L2, r, s)
    assert bounds == [commutator.matrix_bound_bits(relations.kernels(L2), r.bits, s.bits)]


def test_closures_go_through_the_module_attributes(monkeypatch):
    # the benchmark's closure spans wrap these two names, so a closure that
    # bypassed them would read 0 there; each miss must pass exactly once
    calls = []
    for module in (commutator, relations):
        def counting(*args, inner=module.subuniverse_closure, name=module.__name__, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, "subuniverse_closure", counting)
    relations.clear_caches()
    r, s = refl(2, (0, 1)), FULL2
    adm_close(L2, r)
    assert calls == ["relcomm.relations"]
    is_admissible(L2, s)  # m_set's input checks then hit adm_close's cache
    del calls[:]
    m_set(L2, r, s)
    assert calls == ["relcomm.commutator"]
    m_set(L2, r, s)
    adm_close(L2, r)
    assert calls == ["relcomm.commutator"]


def test_m_set_rejects_bad_inputs():
    with pytest.raises(NotReflexive) as exc:
        m_set(Z2, BinRel.from_pairs(2, [(0, 1)]), FULL2)
    assert exc.value.rel_name == "R"
    with pytest.raises(NotAdmissible) as exc:
        m_set(Z2, refl(2, (0, 1)), FULL2)
    assert exc.value.rel_name == "R"
    assert exc.value.op_name == "+"
    with pytest.raises(NotAdmissible) as exc:
        m_set(Z2, FULL2, refl(2, (0, 1)))
    assert exc.value.rel_name == "S"


def test_not_admissible_witness_is_first_in_product_order():
    # the witness is the first operation, then the first combination in
    # itertools.product(r.pairs(), repeat=arity) order, that leaves r
    rng = random.Random(77)
    rejected = 0
    for trial in range(80):
        n = rng.randint(2, 4)
        ops = rng.sample([("u", 1), ("b", 2), ("t", 3)], rng.randint(1, 3))
        alg = random_algebra(Signature(size=n, ops=tuple(ops)), f"witness:{trial}")
        r = BinRel(n, BinRel.delta(n).bits | rng.getrandbits(n * n))
        expected = None
        for i, op in enumerate(alg.operations):
            for chosen in itertools.product(r.pairs(), repeat=op.arity):
                image = (
                    eval_op(alg, i, [x for x, _ in chosen]),
                    eval_op(alg, i, [y for _, y in chosen]),
                )
                if not r.contains(*image):
                    expected = (op.name, chosen, image)
                    break
            if expected is not None:
                break
        if expected is None:
            m_set(alg, r, BinRel.delta(n))
            continue
        rejected += 1
        with pytest.raises(NotAdmissible) as exc:
            m_set(alg, r, BinRel.delta(n))
        w = exc.value
        assert w.rel_name == "R"
        assert all(r.contains(x, y) for x, y in w.arg_pairs)
        assert not r.contains(*w.image_pair)
        assert (w.op_name, tuple(w.arg_pairs), tuple(w.image_pair)) == expected
    assert rejected >= 40


def test_missing_witness_is_an_invariant_violation(monkeypatch):
    # adm_close says r is not admissible; a witness search that disagrees
    # is a bug, not a pass
    from relcomm import relations

    monkeypatch.setattr(relations, "_admissibility_witness", lambda alg, r: None)
    with pytest.raises(InvariantViolation):
        require_reflexive_admissible(relations.kernels(Z2), refl(2, (0, 1)))


def test_m_set_symmetry(algebras, ra_lists):
    # (x,y,z,w) in M(R,S) iff (x,z,y,w) in M(S,R)
    for name in ("Z2", "L2", "C3"):
        alg = algebras[name]
        rels = ra_lists[name]
        for r in rels:
            for s in rels:
                m_rs = m_set(alg, r, s)
                m_sr = m_set(alg, s, r)
                for (x, y, z, w) in m_rs.members():
                    assert m_sr.contains(x, z, y, w)


def test_k_op_empty_filter():
    assert k_op(Z2, FULL2, FULL2, BinRel.empty(2)).bits == 0


def test_k_op_z2_delta_filter():
    assert k_op(Z2, FULL2, FULL2, D2).bits == D2.bits


def test_k_op_lattice_full():
    m = m_set(L2, FULL2, FULL2)
    assert m.contains(1, 1, 0, 1)  # (1,1,0,0) join (0,1,0,1)
    assert k_op(L2, FULL2, FULL2, D2).bits == FULL2.bits


def test_comm1_examples():
    assert comm1(Z2, D2, D2).bits == D2.bits
    assert comm1(Z2, FULL2, FULL2).bits == D2.bits
    assert comm1(L2, FULL2, FULL2).bits == FULL2.bits


def test_comm_weak_examples():
    assert comm_weak(Z2, D2, D2).bits == D2.bits
    assert comm_weak(Z2, FULL2, FULL2).bits == D2.bits
    # always contains the diagonal
    assert D2.is_subset(comm_weak(L2, FULL2, FULL2))


def test_comm_examples():
    assert comm(Z2, D2, D2).bits == D2.bits
    assert comm(Z2, FULL2, FULL2).bits == D2.bits
    assert comm(L2, FULL2, FULL2).bits == FULL2.bits


def test_comm_fixpoint_property(algebras, ra_lists):
    for name in ("Z2", "L2", "C3", "Z4"):
        alg = algebras[name]
        for r in ra_lists[name]:
            for s in ra_lists[name]:
                c = comm(alg, r, s)
                assert is_congruence(alg, c)
                assert k_op(alg, r, s, c).is_subset(c)


def test_comm_strictly_larger_than_comm1_somewhere(algebras, ra_lists):
    # the centralization commutator is "in general much larger"
    strict = False
    for name, alg in algebras.items():
        for r in ra_lists[name]:
            for s in ra_lists[name]:
                c1 = comm1(alg, r, s)
                c = comm(alg, r, s)
                assert c1.is_subset(c)
                if c1.bits != c.bits:
                    strict = True
    assert strict


def test_comm1_monotone(algebras, ra_lists):
    for name in ("Z2", "L2", "C3"):
        alg = algebras[name]
        rels = ra_lists[name]
        for r1 in rels:
            for r2 in rels:
                if not r1.is_subset(r2):
                    continue
                for s1 in rels:
                    for s2 in rels:
                        if s1.is_subset(s2):
                            assert comm1(alg, r1, s1).is_subset(comm1(alg, r2, s2))


def test_comm1_containments_random_groupoids():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 4)
        table = tuple(rng.randrange(n) for _ in range(n * n))
        alg = FiniteAlgebra(n, (("f", 2, table),))
        delta = BinRel.delta(n)
        for _ in range(5):
            r = tol_close(alg, BinRel.from_pairs(n, [(rng.randrange(n), rng.randrange(n))]))
            s_pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
            s = adm_close(alg, union_(delta, BinRel.from_pairs(n, s_pairs)))
            c1 = comm1(alg, r, s)
            assert is_reflexive(c1) and is_admissible(alg, c1)
            assert c1.is_subset(star(s))
            assert c1.is_subset(cg(alg, r))
            assert c1.is_subset(star(intersect(s, compose(converse(r), r))))
            if is_tolerance(alg, s):
                assert is_congruence(alg, comm1(alg, r, s))


def test_k_op_trivial_containment(algebras, ra_lists):
    rng = random.Random(3)
    for name in ("Z2", "L2", "C3", "Set3"):
        alg = algebras[name]
        n = alg.size
        rels = ra_lists[name]
        for _ in range(40):
            r = rng.choice(rels)
            s = rng.choice(rels)
            v = BinRel(n, rng.getrandbits(n * n))
            lhs = k_op(alg, r, s, v)
            rhs = intersect(s, compose(converse(r), compose(intersect(s, v), r)))
            assert lhs.is_subset(rhs)


def _k_by_decoding(m, v):
    """K(R, S; V) read off the decoded members of M(R, S)."""
    n = m.size
    bits = 0
    for (x, y, z, w) in m.members():
        if v.contains(x, y):
            bits |= 1 << (z * n + w)
    return bits


def _comm_weak_by_decoding(m):
    """[R, S | 1]_W read off the decoded members of M(R, S)."""
    n = m.size
    bits = 0
    for (x, y, z, w) in m.members():
        if x == y == z:
            bits |= 1 << (x * n + w)
    return bits


def test_slicing_matches_decoded_definitions(algebras, ra_lists):
    # k_op and comm_weak read M(R, S) by slicing its bitset
    rng = random.Random(5)
    for name in ("Z2", "L2", "C3", "Set3"):
        alg = algebras[name]
        n = alg.size
        rels = ra_lists[name]
        for r in rels:
            for s in rels:
                m = m_set(alg, r, s)
                for v in (BinRel.delta(n), BinRel(n, rng.getrandbits(n * n))):
                    assert k_op(alg, r, s, v).bits == _k_by_decoding(m, v), (name, r, s, v)
                assert comm_weak(alg, r, s).bits == _comm_weak_by_decoding(m), (name, r, s)


def test_cache_returns_equal_values():
    a = comm1(Z2, FULL2, FULL2)
    b = comm1(Z2, BinRel.full(2), BinRel.full(2))
    assert a == b


def test_comm_equals_least_closed_congruence(algebras, ra_lists):
    """Independent route to the centralization commutator: enumerate every
    congruence, keep those closed under the bottom-row operator, intersect.
    The closed family is intersection-closed, so the intersection is the
    least member and must equal the fixpoint computation."""
    from relcomm import CONGRUENCE, RelFamily, enumerate_relations

    for name in ("Z2", "L2", "S2", "C3", "Z4", "Z2xZ2", "Set3"):
        alg = algebras[name]
        n = alg.size
        congs = list(enumerate_relations(alg, RelFamily(kind=CONGRUENCE)))
        rels = ra_lists[name]
        sample = [(r, s) for r in rels[:8] for s in rels[:8]]
        for r, s in sample:
            closed = [d for d in congs if k_op(alg, r, s, d).is_subset(d)]
            assert closed, (name, r, s)
            least_bits = closed[0].bits
            for d in closed[1:]:
                least_bits &= d.bits
            assert comm(alg, r, s).bits == least_bits, (name, r, s)


def test_m_set_contains_term_oracle_on_random_groupoids():
    from oracles import TermTableOracle

    rng = random.Random(424)
    for _ in range(6):
        n = 3
        table = tuple(rng.randrange(n) for _ in range(n * n))
        alg = FiniteAlgebra(n, (("f", 2, table),))
        # depth 2: random tables generate far more distinct term functions
        # than the structured catalog algebras the depth-3 oracle sweeps
        oracle = TermTableOracle(n, [2], [table], max_depth=2)
        delta = BinRel.delta(n)
        for _ in range(4):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
            r = adm_close(alg, union_(delta, BinRel.from_pairs(n, pairs)))
            s = tol_close(alg, BinRel.from_pairs(n, pairs[:1]))
            got = oracle.matrix_set(r.pairs(), s.pairs())
            assert got <= set(m_set(alg, r, s).members())


def test_concurrent_calls_agree():
    from concurrent.futures import ThreadPoolExecutor

    relations.clear_caches()
    args = [(L2, FULL2, refl(2, (0, 1))) for _ in range(16)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda a: comm(*a), args))
    assert len({r.bits for r in results}) == 1
