import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tuple_bits
from oracles import naive_image_plans, naive_plan_row, naive_tuple_closure
import relcomm
from relcomm import BinRel, FiniteAlgebra, adm_close, eval_op, load_algebra, subuniverse_closure
from relcomm.algebra import Operation, TupleSet, _decode, _image, _image_plans, _saturate
from relcomm import algebra
from relcomm.relations import clear_caches

Z2 = FiniteAlgebra(2, (("+", 2, (0, 1, 1, 0)),))
MEET2 = FiniteAlgebra(2, (("meet", 2, (0, 0, 0, 1)),))
PURE3 = FiniteAlgebra(3, ())
ALGEBRA_DIR = Path(__file__).resolve().parents[1] / "algebras"


def test_eval_op_group_identity():
    assert eval_op(Z2, 0, [1, 1]) == 0


def test_eval_op_meet_with_bottom():
    assert eval_op(MEET2, 0, [0, 1]) == 0


def test_eval_op_nullary():
    alg = FiniteAlgebra(3, (("c", 0, (2,)),))
    assert eval_op(alg, 0, []) == 2


def test_eval_op_arity_mismatch():
    with pytest.raises(ValueError):
        eval_op(Z2, 0, [1])


def test_eval_op_out_of_range():
    with pytest.raises(ValueError):
        eval_op(Z2, 0, [1, 2])
    with pytest.raises(ValueError):
        eval_op(Z2, 5, [0, 0])


def test_algebra_validation():
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (("f", 2, (0, 1, 1)),))  # short table
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (("f", 1, (0, 2)),))  # entry out of range
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (("f", 1, (0, 1)), ("f", 1, (1, 0))))  # dup name
    with pytest.raises(ValueError):
        FiniteAlgebra(2, (("f", 5, tuple([0] * 32)),))  # arity cap


def test_operations_are_normalised_the_same_way():
    # an Operation value takes the path of a triple: its table becomes a
    # tuple, so the algebra hashes and equals the one built from the triple
    alg = FiniteAlgebra(2, (Operation("f", 2, [0, 1, 1, 0]),))
    assert alg == FiniteAlgebra(2, (("f", 2, [0, 1, 1, 0]),))
    assert alg.operations == (Operation("f", 2, (0, 1, 1, 0)),)
    assert hash(alg) == hash(FiniteAlgebra(2, (("f", 2, (0, 1, 1, 0)),)))


@pytest.mark.parametrize(
    "op, message",
    [
        (("f", 2.5, (0, 1, 1, 0)), "operation 'f' arity 2.5 is not an integer"),
        (("f", 2.0, (0, 1, 1, 0)), "operation 'f' arity 2.0 is not an integer"),
        (("f", "2", (0, 1, 1, 0)), "operation 'f' arity '2' is not an integer"),
        (("f", 2, (0.0, 1, 1, 0)), "operation 'f' table entry 0.0 is not an integer"),
        (Operation("g", 2.5, (0, 1, 1, 0)), "operation 'g' arity 2.5 is not an integer"),
        (Operation("g", 1, [0, "1"]), "operation 'g' table entry '1' is not an integer"),
    ],
)
def test_non_integral_operations_are_rejected(op, message):
    with pytest.raises(ValueError) as info:
        FiniteAlgebra(2, (op,))
    assert str(info.value) == message


def test_closure_pure_set_is_identity():
    gens = {(0, 1, 2), (2, 2, 0)}
    assert set(subuniverse_closure(PURE3, 3, tuple_bits(3, gens)).members()) == gens


def test_closure_z2_parity_quadruples():
    gens = {(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 0, 0), (1, 1, 1, 1)}
    got = set(subuniverse_closure(Z2, 4, tuple_bits(2, gens)).members())
    expected = {
        t for t in itertools.product(range(2), repeat=4) if t[0] ^ t[1] ^ t[2] ^ t[3] == 0
    }
    assert got == expected
    assert len(got) == 8


def test_closure_full_universe_fixed():
    gens = {(a,) for a in range(3)}
    assert set(subuniverse_closure(PURE3, 1, tuple_bits(3, gens)).members()) == gens


def test_closure_empty_generators():
    assert set(subuniverse_closure(Z2, 2, 0).members()) == set()
    with_const = FiniteAlgebra(3, (("c", 0, (1,)),))
    assert set(subuniverse_closure(with_const, 2, 0).members()) == {(1, 1)}


def test_closure_malformed_bitsets():
    # one check covers all three bitsets: an int in 0 <= bits < 2**(n**power)
    for bad in ({(0, 1)}, 1 << 2**2, -1):
        with pytest.raises(ValueError, match="generators"):
            subuniverse_closure(Z2, 2, bad)
        with pytest.raises(ValueError, match="closed"):
            subuniverse_closure(Z2, 2, 0, closed=bad)
        with pytest.raises(ValueError, match="within"):
            subuniverse_closure(Z2, 2, 0, within=bad)
    # the largest valid bitset is the whole square
    assert len(subuniverse_closure(Z2, 2, (1 << 2**2) - 1)) == 4


def test_closure_checks_its_bound():
    # the bound may equal the closure, but a closure that leaves it raises:
    # the diagonal generates nothing else under +, and (0, 1) adds (0, 0)
    diagonal = tuple_bits(2, {(0, 0), (1, 1)})
    assert subuniverse_closure(Z2, 2, diagonal, within=diagonal).bits == diagonal
    with pytest.raises(ValueError, match="within"):
        subuniverse_closure(Z2, 2, tuple_bits(2, {(0, 1)}), within=tuple_bits(2, {(0, 1), (1, 1)}))
    # generators outside the bound are refused too, also when the closure
    # is otherwise finished before the first member is processed
    with pytest.raises(ValueError, match="within"):
        subuniverse_closure(PURE3, 1, 0b011, within=0b001)


def test_bounded_closure_matches_naive_oracle():
    # the closure stops once it holds its whole bound: bounded by the whole
    # power, by the closure itself or by a random superset of it, it must
    # still give the oracle's closure
    rng = random.Random(909)
    signatures = [(0,), (1,), (2,), (0, 2), (1, 2), (3,), (0, 3), (1, 2, 3)]
    for trial in range(160):
        arities = signatures[trial % len(signatures)]
        cap = 27 if 3 in arities else 256
        n, k = rng.choice([(n, k) for n in range(1, 5) for k in range(1, 5) if n**k <= cap])
        ops = [(f"f{j}", a, tuple(rng.randrange(n) for _ in range(n**a))) for j, a in enumerate(arities)]
        alg = FiniteAlgebra(n, tuple(ops))
        gens = {tuple(rng.randrange(n) for _ in range(k)) for _ in range(rng.randint(0, 3))}
        want = naive_tuple_closure(n, k, arities, [t for _, _, t in ops], gens)
        exact = tuple_bits(n, want)
        superset = exact | rng.getrandbits(n**k)
        for within in (None, exact, superset):
            got = subuniverse_closure(alg, k, tuple_bits(n, gens), within=within)
            assert set(got.members()) == want, (ops, gens, within)


def test_bounded_loop_gives_the_closure_inside_its_bound_or_rejects():
    # `_saturate` checks each batch of new tuples against `within` as the
    # batch is found: a closure inside the bound comes back whole, and
    # one that leaves it is rejected (None).  Without `complete` a run may
    # instead stop once it holds the whole bound and give the bound back;
    # with it the run never stops early, so it always rejects
    rng = random.Random(5150)
    signatures = [(0,), (1,), (2,), (3,), (0, 2), (1, 2), (0, 1, 3), (2, 3)]
    shapes = [(2, 2), (3, 2), (2, 4), (3, 4)]
    outcomes = set()
    for trial in range(240):
        arities = signatures[trial % len(signatures)]
        n, k = shapes[trial // len(signatures) % len(shapes)]
        if 3 in arities and n**k > 27:
            n = 2
        ops = [(f"f{j}", a, tuple(rng.randrange(n) for _ in range(n**a))) for j, a in enumerate(arities)]
        alg = FiniteAlgebra(n, tuple(ops))
        tables = [t for _, _, t in ops]

        def draw(count):
            return {tuple(rng.randrange(n) for _ in range(k)) for _ in range(count)}

        block = subuniverse_closure(alg, k, tuple_bits(n, draw(rng.randint(0, 1)))).bits
        gens = draw(rng.randint(0, 3))
        block_tuples = {_decode(n, k, e) for e in range(n**k) if block >> e & 1}
        want = tuple_bits(n, naive_tuple_closure(n, k, arities, tables, gens | block_tuples))
        whole = (1 << n**k) - 1
        members = [1 << e for e in range(n**k) if want >> e & 1]
        bounds = [want, whole, want | rng.getrandbits(n**k), rng.getrandbits(n**k)]
        if members:
            bounds.append(want & ~rng.choice(members) | rng.getrandbits(n**k))
        for within in bounds:
            inside = want & ~within == 0
            for complete in (False, True):
                got = _saturate(alg, k, tuple_bits(n, gens), block, within, complete)
                if inside:
                    assert got == want, (ops, block, gens, within, complete)
                elif complete:
                    assert got is None, (ops, block, gens, within)
                else:
                    assert got in (None, within), (ops, block, gens, within)
                outcomes.add((inside, complete, got is None))
    # every outcome occurs: kept, and rejected with and without `complete`
    assert {(True, False, False), (False, False, True), (False, True, True)} <= outcomes


def test_bounded_loop_checks_every_batch():
    # constant maps to 0 and to 1 on the square of {0, 1}: member (0, 1)
    # is the only one processed, and its one batch adds (0, 0) and (1, 1)
    consts = FiniteAlgebra(2, (("zero", 1, (0, 0)), ("one", 1, (1, 1))))
    gens, bound = tuple_bits(2, {(0, 1)}), tuple_bits(2, {(0, 1), (0, 0)})
    # the batch that completes the bound also leaves it: rejected, though
    # the run holds every tuple of the bound once that batch is in
    for complete in (False, True):
        assert _saturate(consts, 2, gens, 0, bound, complete) is None
    with pytest.raises(ValueError, match="within"):
        subuniverse_closure(consts, 2, gens, within=bound)
    # a run that fills its bound stops there unless `complete`: the cyclic
    # successor on {0, 1, 2} reaches 1 from 0, and 2 only from 1
    succ = FiniteAlgebra(3, (("s", 1, (1, 2, 0)),))
    assert _saturate(succ, 1, 0b001, 0, 0b011) == 0b011
    assert subuniverse_closure(succ, 1, 0b001, within=0b011).bits == 0b011
    assert _saturate(succ, 1, 0b001, 0, 0b011, True) is None
    assert _saturate(succ, 1, 0b001, 0, 0b111, True) == 0b111


def test_generators_outside_the_bound_are_rejected_before_any_image(monkeypatch):
    calls = []

    def counting(bits, descriptors):
        calls.append(bits)
        return _image(bits, descriptors)

    monkeypatch.setattr(algebra, "_image", counting)
    # (0, 1) is outside the diagonal, and a constant's tuple (1, 1) is too
    assert _saturate(Z2, 2, tuple_bits(2, {(0, 0), (0, 1)}), 0, tuple_bits(2, {(0, 0)})) is None
    with_const = FiniteAlgebra(2, (("c", 0, (1,)), ("+", 2, (0, 1, 1, 0))))
    assert _saturate(with_const, 2, tuple_bits(2, {(0, 0)}), 0, tuple_bits(2, {(0, 0)}), True) is None
    # so is a `closed` block that leaves the bound
    assert _saturate(Z2, 2, 0, tuple_bits(2, {(0, 0), (1, 1)}), tuple_bits(2, {(0, 0)})) is None
    assert calls == []


def test_closure_matches_naive_oracle_on_random_groupoids():
    import random

    rng = random.Random(20240311)
    for trial in range(25):
        n = rng.randint(2, 4)
        table = tuple(rng.randrange(n) for _ in range(n * n))
        alg = FiniteAlgebra(n, (("f", 2, table),))
        k = rng.randint(1, 3)
        gens = {
            tuple(rng.randrange(n) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        }
        got = set(subuniverse_closure(alg, k, tuple_bits(n, gens)).members())
        want = naive_tuple_closure(n, k, [2], [table], gens)
        assert got == want, (n, table, gens)
    # the shape of M(R, S) on a 4-element algebra, binary ops at power 4:
    # a random groupoid, the 4-chain lattice, and its meet with a random op
    meet = ("meet", 2, tuple(min(a, b) for a in range(4) for b in range(4)))
    join = ("join", 2, tuple(max(a, b) for a in range(4) for b in range(4)))
    for ops in ([("f", 2, None)], [meet, join], [meet, join], [meet, ("f", 2, None)]):
        ops = [(name, 2, table or tuple(rng.randrange(4) for _ in range(16))) for name, _, table in ops]
        alg = FiniteAlgebra(4, tuple(ops))
        gens = {tuple(rng.randrange(4) for _ in range(4)) for _ in range(3)}
        got = set(subuniverse_closure(alg, 4, tuple_bits(4, gens)).members())
        want = naive_tuple_closure(4, 4, [2] * len(ops), [t for _, _, t in ops], gens)
        assert got == want, (ops, gens)
    # ternary operations, with a unary and a nullary operation riding along
    # at random.  Universes stay small, so the naive oracle's |S|**3 passes
    # stay fast.
    for trial in range(40):
        n, k = rng.choice([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)])
        ops = [("t", 3, tuple(rng.randrange(n) for _ in range(n**3)))]
        if rng.random() < 0.5:
            ops.append(("u", 1, tuple(rng.randrange(n) for _ in range(n))))
        if rng.random() < 0.5:
            ops.append(("c", 0, (rng.randrange(n),)))
        alg = FiniteAlgebra(n, tuple(ops))
        gens = {
            tuple(rng.randrange(n) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        }
        got = set(subuniverse_closure(alg, k, tuple_bits(n, gens)).members())
        want = naive_tuple_closure(
            n, k, [a for _, a, _ in ops], [t for _, _, t in ops], gens
        )
        assert got == want, (n, ops, gens)
    # mixed signatures up to arity 4, n up to 5 and powers 1-4; n**k stays
    # small where an op has arity 3 or more, for the naive oracle's sake
    signatures = [(1,), (1, 2), (2, 3), (0, 2), (0, 1, 3), (4,), (0, 4), (2, 4), (1, 2, 3, 4)]
    for trial in range(90):
        arities = signatures[trial % len(signatures)]
        cap = {4: 16, 3: 27}.get(max(arities), 125)
        n, k = rng.choice([(n, k) for n in range(1, 6) for k in range(1, 5) if n**k <= cap])
        ops = [(f"f{j}", a, tuple(rng.randrange(n) for _ in range(n**a))) for j, a in enumerate(arities)]
        alg = FiniteAlgebra(n, tuple(ops))
        gens = {
            tuple(rng.randrange(n) for _ in range(k))
            for _ in range(rng.randint(0, 3))
        }
        got = set(subuniverse_closure(alg, k, tuple_bits(n, gens)).members())
        want = naive_tuple_closure(n, k, arities, [t for _, _, t in ops], gens)
        assert got == want, (n, ops, gens)


def test_closed_block_gives_the_plain_closure():
    # a block that is already closed (here the closure of random tuples)
    # skips the combinations among its own members; closing gens onto it
    # must still give the closure of gens and the block together
    rng = random.Random(77)
    signatures = [(1,), (2,), (1, 2), (0, 2), (2, 3), (0, 1, 3), (4,), (0, 2, 4)]
    for trial in range(120):
        arities = signatures[trial % len(signatures)]
        cap = {4: 16, 3: 27}.get(max(arities), 256)
        n, k = rng.choice([(n, k) for n in range(1, 5) for k in range(1, 5) if n**k <= cap])
        ops = [(f"f{j}", a, tuple(rng.randrange(n) for _ in range(n**a))) for j, a in enumerate(arities)]
        alg = FiniteAlgebra(n, tuple(ops))

        def draw(count):
            return {tuple(rng.randrange(n) for _ in range(k)) for _ in range(count)}

        block = subuniverse_closure(alg, k, tuple_bits(n, draw(rng.randint(0, 2)))).bits
        gens = tuple_bits(n, draw(rng.randint(0, 3)))
        got = subuniverse_closure(alg, k, gens, closed=block)
        assert got == subuniverse_closure(alg, k, gens | block), (ops, block, gens)


def test_closed_block_on_wide_ops_matches_naive_oracle():
    # wide ops (arity 3 and 4) are the only steps that take the members of
    # `closed` as fixed arguments, by the halves of their encodings; with a
    # bound as well, the closure of gens onto a closed block must be the
    # oracle's closure of both
    rng = random.Random(4242)
    signatures = [(3,), (4,), (1, 3), (0, 3), (2, 3), (2, 4), (0, 1, 4), (3, 4)]
    for trial in range(96):
        arities = signatures[trial % len(signatures)]
        cap = {4: 16, 3: 27}[max(arities)]
        n, k = rng.choice([(n, k) for n in range(1, 5) for k in range(1, 5) if n**k <= cap])
        ops = [(f"f{j}", a, tuple(rng.randrange(n) for _ in range(n**a))) for j, a in enumerate(arities)]
        alg = FiniteAlgebra(n, tuple(ops))

        def draw(count):
            return {tuple(rng.randrange(n) for _ in range(k)) for _ in range(count)}

        block = subuniverse_closure(alg, k, tuple_bits(n, draw(rng.randint(1, 2)))).bits
        gens = draw(rng.randint(0, 3))
        block_tuples = {_decode(n, k, e) for e in range(n**k) if block >> e & 1}
        want = naive_tuple_closure(n, k, arities, [t for _, _, t in ops], gens | block_tuples)
        exact = tuple_bits(n, want)
        for within in (None, exact, exact | rng.getrandbits(n**k)):
            got = subuniverse_closure(alg, k, tuple_bits(n, gens), closed=block, within=within)
            assert set(got.members()) == want, (ops, block, gens, within)


def test_closed_members_are_never_processed(monkeypatch):
    # `closed` counts as processed from the start: with no generators
    # outside it nothing is imaged, and each later member is processed
    # once, so a closed block adds no image to a closure's work
    calls = []

    def counting(bits, descriptors):
        calls.append(bits)
        return _image(bits, descriptors)

    monkeypatch.setattr(algebra, "_image", counting)
    chain = FiniteAlgebra(3, (("meet", 2, tuple(min(a, b) for a in range(3) for b in range(3))),))
    votes = itertools.product((0, 1), repeat=3)
    majority = FiniteAlgebra(2, (("maj", 3, tuple(int(sum(t) >= 2) for t in votes)),))
    for alg, k in ((chain, 2), (chain, 3), (majority, 2), (majority, 3)):
        n = alg.size
        top = (n - 1,) * k
        block = subuniverse_closure(alg, k, tuple_bits(n, {top, (0,) + top[1:]})).bits
        del calls[:]
        assert subuniverse_closure(alg, k, 0, closed=block).bits == block
        assert subuniverse_closure(alg, k, block & -block, closed=block).bits == block
        assert calls == [], (alg, k)
        # a generator outside the block is the only member processed, so
        # the closure makes fewer images than one that closes the block anew
        outside = tuple_bits(n, {(0,) * k}) & ~block
        subuniverse_closure(alg, k, outside, closed=block)
        seeded = len(calls)
        del calls[:]
        subuniverse_closure(alg, k, outside | block)
        assert 0 < seeded < len(calls), (alg, k)


def test_closure_arity_three_generic_path():
    # majority operation on {0,1}: closed sets are all subsets containing
    # the generators' coordinatewise majorities
    table = tuple(
        1 if (a + b + c) >= 2 else 0
        for a in range(2)
        for b in range(2)
        for c in range(2)
    )
    alg = FiniteAlgebra(2, (("maj", 3, table),))
    gens = {(0, 1), (1, 0), (1, 1)}
    got = set(subuniverse_closure(alg, 2, tuple_bits(2, gens)).members())
    want = naive_tuple_closure(2, 2, [3], [table], gens)
    assert got == want


def test_closure_idempotent(ra_lists, algebras):
    alg = algebras["C3"]
    for rel in ra_lists["C3"][:6]:
        closed = subuniverse_closure(alg, 2, tuple_bits(alg.size, rel.pairs()))
        assert subuniverse_closure(alg, 2, tuple_bits(alg.size, closed.members())) == closed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_monotone_and_closed(data):
    n = data.draw(st.integers(2, 3))
    table = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n * n))
    alg = FiniteAlgebra(n, (("f", 2, table),))
    tuples = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g1 = data.draw(st.sets(tuples, min_size=1, max_size=3))
    g2 = g1 | data.draw(st.sets(tuples, max_size=2))
    c1 = subuniverse_closure(alg, 2, tuple_bits(n, g1))
    c2 = subuniverse_closure(alg, 2, tuple_bits(n, g2))
    assert c1 <= c2
    # closure verification: the image of every member pair is a member
    for (a1, b1) in c1.members():
        for (a2, b2) in c1.members():
            assert c1.contains(table[a1 * n + a2], table[b1 * n + b2])


def test_closure_independent_of_op_declaration_order():
    l2 = FiniteAlgebra(2, (("meet", 2, (0, 0, 0, 1)), ("join", 2, (0, 1, 1, 1))))
    l2_flipped = FiniteAlgebra(2, (("join", 2, (0, 1, 1, 1)), ("meet", 2, (0, 0, 0, 1))))
    gens = tuple_bits(2, {(0, 1, 1, 0), (1, 1, 0, 0)})
    assert subuniverse_closure(l2, 4, gens) == subuniverse_closure(l2_flipped, 4, gens)


def test_quadset_roundtrip():
    quads = {(0, 1, 2, 0), (2, 2, 2, 2), (1, 0, 0, 1)}
    bits = (1 << 15) | (1 << 80) | (1 << 28)  # 0120, 2222, 1001 in base 3
    qs = TupleSet(3, 4, bits)
    assert set(qs.members()) == quads
    assert len(qs) == 3
    assert qs.contains(0, 1, 2, 0)
    assert not qs.contains(0, 0, 0, 0)


def test_contains_rejects_coordinates_outside_the_universe():
    # an out-of-range coordinate must not alias another pair's bit
    assert BinRel.from_pairs(2, [(1, 0)]).contains(1, 0)
    for rel, a, b in ((BinRel.from_pairs(2, [(1, 0)]), 0, 2), (BinRel.from_pairs(2, [(0, 1)]), 1, -1)):
        with pytest.raises(ValueError):
            rel.contains(a, b)
    ts = TupleSet(2, 2, 1 << 3)
    assert ts.contains(1, 1)
    for t in ((0, 3), (3,), (1, 1, 1), (-1, 1)):
        with pytest.raises(ValueError):
            ts.contains(*t)


def test_listing_rejects_bits_outside_the_universe():
    # a negative int has infinitely many set bits, so listing its members
    # must raise instead of looping; bits past the last position are not
    # pairs or tuples of the universe
    for listing in (
        lambda: BinRel(2, -1).pairs(),
        lambda: list(TupleSet(2, 2, -3).members()),
        lambda: relcomm.converse(BinRel(2, -2)),
        lambda: BinRel(2, 1 << 4).pairs(),
        lambda: list(TupleSet(2, 3, 1 << 8).members()),
    ):
        with pytest.raises(ValueError):
            listing()
    assert BinRel(2, 0b1001).pairs() == [(0, 0), (1, 1)]
    assert list(TupleSet(2, 3, 1 << 7).members()) == [(1, 1, 1)]


def test_sizes_and_powers_are_positive_integers():
    # rejected at construction, rather than failing later in a closure
    z2 = FiniteAlgebra(2, (("f", 1, (1, 0)),))
    for build in (
        lambda: FiniteAlgebra(2.0, (("f", 1, (1, 0)),)),
        lambda: FiniteAlgebra("2"),
        lambda: FiniteAlgebra(0),
        lambda: TupleSet(2, 0, 1),
        lambda: TupleSet(2, 1.0, 1),
        lambda: TupleSet(0, 2, 0),
        lambda: subuniverse_closure(z2, 1.0, 1),
        lambda: subuniverse_closure(z2, 0, 0),
    ):
        with pytest.raises(ValueError, match="integer"):
            build()
    assert subuniverse_closure(z2, 1, 1).bits == 0b11


def test_construction_rejects_bits_outside_the_universe():
    for build in (
        lambda: BinRel(2, -1),
        lambda: BinRel(2, 1 << 4),
        lambda: TupleSet(2, 2, -3),
        lambda: TupleSet(2, 3, 1 << 8),
        lambda: relcomm.compose(BinRel(2, -1), BinRel.full(2)),
    ):
        with pytest.raises(ValueError):
            build()
    assert BinRel(2, (1 << 4) - 1) == BinRel.full(2)
    assert len(TupleSet(2, 3, (1 << 8) - 1)) == 8


def test_construction_rejects_bits_that_are_not_integers():
    # the same ValueError as bits out of range, at construction rather
    # than a TypeError later in `pairs()`, `repr` or a kernel
    for bad in (1.5, "x", None):
        for build in (lambda: BinRel(2, bad), lambda: TupleSet(2, 2, bad)):
            with pytest.raises(ValueError, match="is not a"):
                build()


def test_tupleset_inclusion_needs_same_size_and_power():
    assert TupleSet(3, 2, 0b10) <= TupleSet(3, 2, 0b110)
    assert not TupleSet(3, 2, 0b1) <= TupleSet(3, 2, 0b110)
    with pytest.raises(ValueError):
        TupleSet(2, 2, 1) <= TupleSet(3, 2, 1)
    with pytest.raises(ValueError):
        TupleSet(2, 2, 1) <= TupleSet(2, 3, 1)


def test_image_maps_each_decoded_tuple():
    # per coordinate, a unary op's step images a bitset to the set of its
    # tuples' images; a binary op's steps do the same with one argument
    # fixed to the member x being processed (source 3: f(x, y), source 1:
    # f(y, x)), their descriptors looked up by the halves of x's encoding
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 5)
        power = rng.randint(1, 4 if n <= 3 else 3)
        half = n ** (power - power // 2)
        for arity in (1, 2):
            alg = FiniteAlgebra(n, (("f", arity, tuple(rng.randrange(n) for _ in range(n**arity))),))
            tables, products = _image_plans(alg, power)
            assert products == ()
            for source, highs, lows in tables:
                assert (len(highs), len(lows)) == (n ** (power // 2), half)
                bits = rng.getrandbits(n**power)
                e = rng.randrange(n**power)
                x = _decode(n, power, e)
                got = _image(bits, highs[e // half] + lows[e % half])
                images = set()
                for t in TupleSet(n, power, bits).members():
                    if source == 2:
                        images.add(tuple(eval_op(alg, 0, [a]) for a in t))
                    elif source == 3:
                        images.add(tuple(eval_op(alg, 0, [a, b]) for a, b in zip(x, t)))
                    else:
                        images.add(tuple(eval_op(alg, 0, [b, a]) for a, b in zip(x, t)))
                assert set(TupleSet(n, power, got).members()) == images, (alg, source)
    # meet with the top element is the identity: at x = (1, 0) only the
    # second coordinate moves, so the step holds one descriptor
    ((source, highs, lows),) = _image_plans(MEET2, 2)[0]
    assert source == 3  # meet is commutative: one step for both positions
    assert highs[1] == () and len(lows[0]) == 1
    assert len(highs[0]) == 1 and lows[1] == ()
    bits = 1 << 0b01 | 1 << 0b11  # (0, 1) and (1, 1)
    assert set(TupleSet(2, 2, _image(bits, highs[1] + lows[0])).members()) == {(0, 0), (1, 0)}
    # an identity op moves nothing at all
    ident = FiniteAlgebra(3, (("id", 1, (0, 1, 2)),))
    ((_, highs, lows),) = _image_plans(ident, 3)[0]
    assert set(highs) == set(lows) == {()}


def _random_table(rng, n, arity, trial):
    """A random table, or every few trials a commutative binary one (its
    two steps merge) or a projection (its maps are identities)."""
    table = [rng.randrange(n) for _ in range(n**arity)]
    if arity == 2 and trial % 3 == 0:
        table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
    elif arity and trial % 5 == 0:
        q = rng.randrange(arity)
        table = [args[q] for args in itertools.product(range(n), repeat=arity)]
    return tuple(table)


def test_image_plans_match_a_builder_that_shares_nothing():
    # plans assembled from the per-size memos (slabs, descriptors) equal
    # those of a builder that describes every map of the algebra anew;
    # sizes and powers are interleaved, so most plans are built with those
    # memos warm from other algebras.  Wide steps' rows are compared at
    # every key, or at a sample of keys where there are many
    rng = random.Random(33)
    clear_caches()
    for trial in range(160):
        n, power = rng.randint(1, 6), rng.randint(1, 4)
        arities = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        tables = [_random_table(rng, n, a, trial) for a in arities]
        alg = FiniteAlgebra(n, [(f"f{i}", a, t) for i, (a, t) in enumerate(zip(arities, tables))])
        want_tables, want_products = naive_image_plans(n, power, arities, tables)
        got_tables, got_products = _image_plans(alg, power)
        assert got_tables == want_tables, (alg, power)
        assert [layout for layout, _ in got_products] == [layout for layout, _ in want_products]
        for (layout, steps), (_, want_steps) in zip(got_products, want_products):
            assert [step[2] for step in steps] == [step[2] for step in want_steps]
            for (highs, lows, _), (high_maps, low_maps, _) in zip(steps, want_steps):
                for rows, maps in ((highs, high_maps), (lows, low_maps)):
                    count = n ** (len(maps) * len(layout))
                    keys = range(count) if count <= 256 else rng.sample(range(count), 64) + [count - 1]
                    for key in keys:
                        want = naive_plan_row(n, maps, len(layout), key)
                        assert rows[key] == want, (alg, power, layout, key)
    clear_caches()


def _wide_candidates(arity):
    """Per layout of a wide op's steps, the (fixed positions, free position)
    of each step that can have it: the step at position p fixes every
    position but r, the last one other than p."""
    out = {}
    for p in range(arity):
        r = arity - 1 if p < arity - 1 else arity - 2
        fixed = [q for q in range(arity) if q != r]
        layout = tuple(1 if q < p else 2 if q == p else 3 for q in fixed)
        out.setdefault(layout, []).append((fixed, r))
    return out


def test_wide_rows_map_each_decoded_tuple():
    # a wide op's step fixes two or three members and images a bitset at
    # its free position; its rows, looked up by the halves of the fixed
    # members' encodings, member-major (the first fixed argument's half is
    # the most significant), must give the op's images of the bitset's
    # tuples, at every power, the odd ones with halves of unequal widths
    rng = random.Random(31)
    for trial in range(48):
        arity, power = 3 + trial % 2, 1 + trial // 2 % 4
        n = rng.randint(1, 6)
        top, half = n ** (power // 2), n ** (power - power // 2)
        table = tuple(rng.randrange(n) for _ in range(n**arity))
        alg = FiniteAlgebra(n, (("f", arity, table),))
        tables, products = _image_plans(alg, power)
        candidates = _wide_candidates(arity)
        assert tables == () and {layout for layout, _ in products} == set(candidates)
        for layout, steps in products:
            members = [rng.randrange(n**power) for _ in layout]
            kh = kl = 0
            for e in members:
                kh, kl = kh * top + e // half, kl * half + e % half
            bits = rng.getrandbits(n**power)
            got = {_image(bits, highs[kh] + lows[kl]) for highs, lows, _ in steps}
            fixed_coords = [_decode(n, power, e) for e in members]
            want = set()
            for fixed, r in candidates[layout]:
                images = set()
                for t in TupleSet(n, power, bits).members():
                    image = []
                    for c in range(power):
                        args = [0] * arity
                        for q, x in zip(fixed, fixed_coords):
                            args[q] = x[c]
                        args[r] = t[c]
                        image.append(eval_op(alg, 0, args))
                    images.add(tuple(image))
                want.add(tuple_bits(n, images))
            assert got == want, (n, power, table, layout, members)


def test_wide_rows_are_built_only_when_looked_up(monkeypatch):
    # an eager plan of one arity-4 op at n = 6, power 4 would hold 36**3
    # rows per half of each step; the plan holds none, and after a closure
    # each half holds rows only under keys that the closure looked up
    class Recording(algebra._Rows):
        __slots__ = ("asked",)

        def __init__(self, *args):
            super().__init__(*args)
            self.asked = set()

        def __getitem__(self, key):
            self.asked.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(algebra, "_Rows", Recording)
    clear_caches()
    try:
        args = itertools.product(range(6), repeat=4)
        alg = FiniteAlgebra(6, (("q", 4, tuple((x - y + z) % 6 for x, y, z, _ in args)),))
        tables, products = _image_plans(alg, 4)
        halves = [rows for _, steps in products for highs, lows, _ in steps for rows in (highs, lows)]
        assert tables == () and halves and all(len(rows) == 0 for rows in halves)
        g, h = (0, 1, 2, 3), (5, 5, 0, 1)
        got = subuniverse_closure(alg, 4, tuple_bits(6, {g, h}))
        line = {tuple((a + k * (b - a)) % 6 for a, b in zip(g, h)) for k in range(6)}
        assert set(got.members()) == line
        for rows in halves:
            assert type(rows) is Recording and set(rows) <= rows.asked < set(range(36**3))
    finally:
        clear_caches()  # no plan keeps the recording class


def test_equal_algebras_share_cache_entries():
    # each CLI command loads its algebra afresh; an equal copy must hash
    # equal so that it finds the entries the first copy filled
    first, second = (load_algebra(str(ALGEBRA_DIR / "rb3.alg")) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    clear_caches()
    r = BinRel.delta(3)
    adm_close(first, r)
    before = adm_close.cache_info()
    adm_close(second, r)
    after = adm_close.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


_PICKLE = (
    "import pickle, sys; from relcomm import load_algebra; "
    "sys.stdout.buffer.write(pickle.dumps(load_algebra(sys.argv[1])))"
)
_UNPICKLE = (
    "import pickle, sys; from relcomm import load_algebra; "
    "alg = pickle.loads(sys.stdin.buffer.read()); fresh = load_algebra(sys.argv[1]); "
    "print(alg == fresh, hash(alg) == hash(fresh))"
)


def test_hash_survives_pickling_across_hash_seeds():
    # `search --jobs` workers get algebras pickled by a process whose string
    # hash seed differs; the hash computed at construction must still be
    # the one a fresh build there computes
    path = str(ALGEBRA_DIR / "rb3.alg")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relcomm.__file__)))
    pickled = subprocess.run(
        [sys.executable, "-c", _PICKLE, path],
        env={**env, "PYTHONHASHSEED": "1"}, capture_output=True, check=True, timeout=60,
    ).stdout
    out = subprocess.run(
        [sys.executable, "-c", _UNPICKLE, path], input=pickled,
        env={**env, "PYTHONHASHSEED": "2"}, capture_output=True, check=True, timeout=60,
    ).stdout
    assert out.split() == [b"True", b"True"]
