"""Ground truth from classical commutator theory.

The oracles of `oracles.py` re-derive M(R,S) from its definition.  The
answers here come from outside relcomm's definitions instead:

- A finite group's congruences are the coset partitions of its normal
  subgroups, and the commutator of the congruences of M and N is the
  congruence of the group commutator [M, N] (Freese & McKenzie,
  "Commutator Theory for Congruence Modular Varieties", 1987, Ch. 1).  The
  groupoid (G, *) has the group's clone, as x^-1 = x^(|G|-1).
- In a Mal'cev algebra every reflexive admissible relation is a congruence.
- In a congruence-distributive variety, such as lattices, [a, b] = a & b.

The algebras are built here, and kept out of `search.catalog()` and
`algebras/`, whose listings other tests pin.
"""

import pytest

from relcomm import (
    CONGRUENCE,
    REFLEXIVE_ADMISSIBLE,
    BinRel,
    FiniteAlgebra,
    RelFamily,
    comm,
    enumerate_relations,
)
from relcomm.search import catalog

CATALOG = dict(catalog())


def _congruences(alg):
    return list(enumerate_relations(alg, RelFamily(kind=CONGRUENCE)))


def _group(*generators):
    """The permutation group generated by `generators` (tuples on 0..k-1)
    as a groupoid under composition, element 0 the identity."""
    identity = tuple(range(len(generators[0])))
    elements = [identity]
    for g in elements:  # grows while it is walked: breadth-first closure
        for h in generators:
            gh = tuple(h[x] for x in g)
            if gh not in elements:
                elements.append(gh)
    index = {g: i for i, g in enumerate(elements)}
    table = tuple(index[tuple(b[x] for x in a)] for a in elements for b in elements)
    return FiniteAlgebra(len(elements), (("*", 2, table),))


def _mul(alg, a, b):
    return alg.operations[0].table[a * alg.size + b]


def _inverse(alg, a):
    return next(b for b in range(alg.size) if _mul(alg, a, b) == 0)


def _subgroup(alg, gens):
    """The subgroup generated by `gens`: in a finite group, closure under
    the product alone."""
    out = {0, *gens}
    while True:
        more = {_mul(alg, a, b) for a in out for b in out} - out
        if not more:
            return frozenset(out)
        out |= more


def _normal_subgroups(alg):
    """Every normal subgroup, by brute force over the subsets holding 0."""
    n = alg.size
    out = []
    for mask in range(1 << n):
        sub = {a for a in range(n) if mask >> a & 1}
        if 0 not in sub or _subgroup(alg, sub) != sub:
            continue
        if all(_mul(alg, _mul(alg, _inverse(alg, g), a), g) in sub for g in range(n) for a in sub):
            out.append(frozenset(sub))
    return out


def _coset_congruence(alg, sub):
    n = alg.size
    return BinRel.from_pairs(
        n, [(a, b) for a in range(n) for b in range(n) if _mul(alg, _inverse(alg, a), b) in sub]
    )


def _class_of_identity(theta):
    return frozenset(b for a, b in theta.pairs() if a == 0)


GROUPS = {
    # S3 on three points
    "S3": ((1, 0, 2), (1, 2, 0)),
    # D4, the symmetries of a square with corners 0..3
    "D4": ((1, 2, 3, 0), (3, 2, 1, 0)),
    # Q8 acting on itself, the points being 1, i, j, k, -1, -i, -j, -k, by
    # right multiplication with i and with j
    "Q8": ((1, 4, 7, 2, 5, 0, 3, 6), (2, 3, 4, 5, 6, 7, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_commutator_is_the_commutator_subgroup(name):
    alg = _group(*GROUPS[name])
    # the order, the number of involutions and commutativity tell the
    # groups of order at most 8 apart
    involutions = sum(1 for a in range(1, alg.size) if _mul(alg, a, a) == 0)
    abelian = all(_mul(alg, a, b) == _mul(alg, b, a) for a in range(alg.size) for b in range(a))
    assert (alg.size, involutions, abelian) == {
        "S3": (6, 3, False),
        "D4": (8, 5, False),
        "Q8": (8, 1, False),
    }[name]
    congruences = _congruences(alg)
    normal = _normal_subgroups(alg)
    assert sorted(map(sorted, map(_class_of_identity, congruences))) == sorted(map(sorted, normal))
    for alpha in congruences:
        for beta in congruences:
            m, n = _class_of_identity(alpha), _class_of_identity(beta)
            brackets = {
                _mul(alg, _mul(alg, _inverse(alg, a), _inverse(alg, b)), _mul(alg, a, b))
                for a in m
                for b in n
            }
            want = _coset_congruence(alg, _subgroup(alg, brackets))
            assert comm(alg, alpha, beta) == want, (alpha, beta)


@pytest.mark.parametrize("name", ("Z2", "Z3", "Z4", "Z2xZ2"))
def test_malcev_reflexive_admissible_relations_are_congruences(name):
    alg = CATALOG[name]
    listing = list(enumerate_relations(alg, RelFamily(kind=REFLEXIVE_ADMISSIBLE)))
    assert listing == _congruences(alg)


def _chain(k):
    pairs = [(a, b) for a in range(k) for b in range(k)]
    return FiniteAlgebra(
        k,
        (
            ("meet", 2, tuple(min(a, b) for a, b in pairs)),
            ("join", 2, tuple(max(a, b) for a, b in pairs)),
        ),
    )


@pytest.mark.parametrize("k", (2, 3, 4))
def test_distributive_lattice_commutator_is_the_meet(k):
    alg = _chain(k)
    congruences = _congruences(alg)
    # a chain's congruences are its partitions into intervals: 2^(k-1)
    assert len(congruences) == 2 ** (k - 1)
    for alpha in congruences:
        for beta in congruences:
            assert comm(alg, alpha, beta) == alpha & beta, (alpha, beta)


# Algebras whose only operation is ternary, so every M(R,S) closure runs
# through the wide-op steps of `algebra._saturate`.


def _ternary(n, f):
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    return FiniteAlgebra(n, (("p", 3, tuple(f(x, y, z) for x, y, z in triples)),))


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_affine_cyclic_commutators_are_trivial(n):
    # (Z_n, x-y+z) is affine: its congruences are the coset partitions of
    # the subgroups of Z_n, one per divisor of n, and it is abelian, so
    # the commutator of any two of them is the diagonal
    alg = _ternary(n, lambda x, y, z: (x - y + z) % n)
    congruences = _congruences(alg)
    assert len(congruences) == sum(1 for d in range(1, n + 1) if n % d == 0)
    for alpha in congruences:
        for beta in congruences:
            assert comm(alg, alpha, beta) == BinRel.delta(n), (alpha, beta)


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_median_chain_commutator_is_the_meet(k):
    # the majority (median) operation alone makes the k-chain congruence
    # distributive, so [a, b] = a & b
    alg = _ternary(k, lambda x, y, z: sorted((x, y, z))[1])
    congruences = _congruences(alg)
    for alpha in congruences:
        for beta in congruences:
            assert comm(alg, alpha, beta) == alpha & beta, (alpha, beta)


def test_heap_of_s3_has_the_congruences_and_commutators_of_the_group():
    # the heap x*y^-1*z of a group has the group's congruences (the coset
    # partitions of its normal subgroups) and, both being Mal'cev
    # algebras, the same commutators of them
    group = _group(*GROUPS["S3"])

    def heap_op(x, y, z):
        return _mul(group, _mul(group, x, _inverse(group, y)), z)

    heap = _ternary(group.size, heap_op)
    congruences = _congruences(group)
    assert _congruences(heap) == congruences
    for alpha in congruences:
        for beta in congruences:
            assert comm(heap, alpha, beta) == comm(group, alpha, beta), (alpha, beta)
