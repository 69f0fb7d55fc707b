import pytest
from hypothesis import settings

from relcomm import BinRel, REFLEXIVE_ADMISSIBLE, RelFamily, enumerate_relations
from relcomm.algebra import _encode
from relcomm.search import catalog

# `pytest --hypothesis-profile fuzz` selects it; the tests of test_fuzz.py
# take their example counts from the loaded profile (every other
# property test sets its own)
settings.register_profile("fuzz", max_examples=5000)


@pytest.fixture(scope="session")
def algebras():
    return dict(catalog())


@pytest.fixture(scope="session")
def ra_lists(algebras):
    """Exhaustive reflexive-admissible relation lists per catalog algebra."""
    fam = RelFamily(kind=REFLEXIVE_ADMISSIBLE, mode="exhaustive")
    return {
        name: list(enumerate_relations(alg, fam))
        for name, alg in algebras.items()
    }


@pytest.fixture(scope="session")
def corpus(algebras, ra_lists):
    """Every (algebra name, R, S) pair over the exhaustive families; the
    shared quantifier corpus for the containment and lemma suites."""
    triples = []
    for name, alg in algebras.items():
        rels = ra_lists[name]
        for r in rels:
            for s in rels:
                triples.append((name, r, s))
    return triples


def rel(n, *pairs):
    return BinRel.from_pairs(n, pairs)


def tuple_bits(n, tuples):
    """The `TupleSet` bitset of a set of tuples over {0..n-1}."""
    return sum(1 << _encode(n, t) for t in set(tuples))


def refl(n, *pairs):
    return BinRel(n, BinRel.delta(n).bits | BinRel.from_pairs(n, pairs).bits)
