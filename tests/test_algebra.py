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
from oracles import naive_tuple_closure
import relcomm
from relcomm import BinRel, FiniteAlgebra, adm_close, eval_op, load_algebra, subuniverse_closure
from relcomm.algebra import TupleSet, _decode, _image, _image_plans
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
    # one check covers both arguments: an int in 0 <= bits < 2**(n**power)
    for bad in ({(0, 1)}, 1 << 2**2, -1):
        with pytest.raises(ValueError, match="generators"):
            subuniverse_closure(Z2, 2, bad)
        with pytest.raises(ValueError, match="closed"):
            subuniverse_closure(Z2, 2, 0, closed=bad)
    # the largest valid bitset is the whole square
    assert len(subuniverse_closure(Z2, 2, (1 << 2**2) - 1)) == 4


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
