"""Differential tests of the compiled condition plans (`properties._Plan`)
and their generated sweeps against the reference evaluator `eval_expr` and
a plain per-binding sweep."""

import ast
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcomm import RelFamily, check_condition, enumerate_relations, eval_expr
from relcomm.conditions import ANY, CONDITIONS, ConditionSpec, Quantifier
from relcomm.expr import (
    NODES,
    AdmClose,
    All,
    Cg,
    Comm,
    Comm1,
    CommW,
    Compose,
    Converse,
    Delta,
    EmptyRel,
    Intersect,
    Join,
    K,
    Literal,
    NameRef,
    Star,
    TolClose,
    Union,
)
from relcomm.properties import (
    PropertyReport,
    Witness,
    _drawer,
    _members,
    _Plan,
    _plan,
    _sweep,
)
from relcomm.relations import REFLEXIVE_ADMISSIBLE, BinRel
from relcomm.search import Signature, catalog, random_algebra

ALGEBRAS = dict(catalog())
SMALL = ("Z2", "L2", "S2", "Set2", "Z3")
RA = RelFamily(kind=REFLEXIVE_ADMISSIBLE)
RA_LISTS = {name: list(enumerate_relations(ALGEBRAS[name], RA)) for name in SMALL}
NAMES = ("R", "S", "T")

_leaves = st.sampled_from(
    [NameRef(n) for n in NAMES]
    + [Delta(), All(), EmptyRel(), Literal(((0, 1),)), Literal(())]
)


def _extend(sub):
    # commutator arguments are often closed and join arguments made
    # congruences, so that most trees evaluate instead of raising
    closed = st.one_of(sub, sub.map(lambda e: AdmClose(Union(Delta(), e))))
    cong = st.one_of(sub, sub.map(Cg))
    builders = {
        Delta: None,
        All: None,
        EmptyRel: None,
        Literal: None,
        Converse: st.builds(Converse, sub),
        Star: st.builds(Star, sub),
        TolClose: st.builds(TolClose, sub),
        AdmClose: st.builds(AdmClose, sub),
        Cg: st.builds(Cg, sub),
        Compose: st.builds(Compose, sub, sub),
        Intersect: st.builds(Intersect, sub, sub),
        Union: st.builds(Union, sub, sub),
        Comm1: st.builds(Comm1, closed, closed),
        Comm: st.builds(Comm, closed, closed),
        CommW: st.builds(CommW, closed, closed),
        K: st.builds(K, closed, closed, sub),
        Join: st.builds(Join, cong, cong),
    }
    assert set(builders) == set(NODES)
    return st.one_of([b for b in builders.values() if b is not None])


EXPRS = st.recursive(_leaves, _extend, max_leaves=8)


def _reference_witness(alg, spec, env):
    """The witness of `spec` at one binding, by `eval_expr` of both sides,
    or None."""
    lhs = eval_expr(alg, env, spec.lhs).bits
    rhs = eval_expr(alg, env, spec.rhs).bits
    bad = lhs & ~rhs if spec.relation == "subset" else lhs ^ rhs
    if not bad:
        return None
    pair = divmod((bad & -bad).bit_length() - 1, alg.size)
    return Witness(spec.id, {name: rel.pairs() for name, rel in env.items()}, pair)


QUANTIFIERS = tuple(Quantifier(n, REFLEXIVE_ADMISSIBLE) for n in NAMES)


def _reference_outcome(alg, spec, rels):
    """A plain walk over the bindings of R, S, T over `rels` in nested
    order, with `eval_expr` of both sides at each: the report's record, or
    ValueError and the indices of the first binding that raised."""
    checked = 0
    witness = None
    for index in itertools.product(range(len(rels)), repeat=len(NAMES)):
        env = {name: rels[k] for name, k in zip(NAMES, index)}
        try:
            witness = _reference_witness(alg, spec, env)
        except ValueError:
            return ValueError, index
        checked += 1
        if witness is not None:
            break
    return PropertyReport(spec.id, witness is None, witness, checked, "exhaustive").to_record()


def _plan_outcome(alg, spec, rels):
    """The same by the generated sweep of `spec`'s plan, whose members note
    the binding being built: a step hoisted to quantifier i raises right
    after quantifier i is bound, before any later quantifier is."""
    index = [0] * len(NAMES)

    def members(i, bound):
        for k, rel in enumerate(rels):
            index[i:] = [k] + [0] * (len(NAMES) - 1 - i)
            yield rel.bits

    try:
        checked, witness = _sweep(alg, spec, members)
    except ValueError:
        return ValueError, tuple(index)
    return PropertyReport(spec.id, witness is None, witness, checked, "exhaustive").to_record()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL), EXPRS, st.data(), st.sampled_from(("subset", "equal")))
def test_plan_matches_eval_expr(name, e, data, relation):
    # half the right sides contain the left one, so that more sweeps run
    # past the first binding; every spec has the id "DIFF", so a plan
    # cached by id alone would answer for another spec
    f = data.draw(st.one_of(EXPRS, EXPRS.map(lambda g: Union(e, g))))
    spec = ConditionSpec("DIFF", QUANTIFIERS, e, f, relation)
    alg = ALGEBRAS[name]
    rels = RA_LISTS[name]
    assert _plan_outcome(alg, spec, rels) == _reference_outcome(alg, spec, rels)


def test_plan_source_depends_on_the_spec_alone():
    # a plan takes no algebra; its source is rebuilt identically and holds
    # no assert, which `python -O` would strip
    for spec in CONDITIONS.values():
        source = _Plan(spec).source
        assert _Plan(spec).source == source, spec.id
        tree = ast.parse(source)
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), spec.id


def test_members_apply_the_above_bound():
    # exhaustive `members` gives only the relations above a quantifier's
    # bound, so no generated loop tests a bound of its own
    for spec in CONDITIONS.values():
        tree = ast.parse(_Plan(spec).source)
        assert not any(isinstance(node, ast.Continue) for node in ast.walk(tree)), spec.id
    alg = ALGEBRAS["C3"]
    quantifiers = CONDITIONS["T4_I_COR"].quantifiers
    members = _members(alg, quantifiers, RelFamily())
    everything = members(2, 0)
    assert everything is members(2, 0)  # the family's list itself
    for bound in (0b100010001, 0b110110001, 0b111111111):
        assert members(2, bound) == [m for m in everything if m & bound == bound]


def test_one_plan_per_spec_serves_every_algebra_and_mode():
    _plan.cache_clear()
    for name in ("C3", "Z4"):
        for family in (RelFamily(mode="exhaustive"), RelFamily(mode="sampled", sample_count=3)):
            for cid in ("T2_I", "T4_I_COR"):
                check_condition(ALGEBRAS[name], cid, family)
    assert _plan.cache_info().misses == 2


def test_specs_sharing_an_id_keep_their_own_plans():
    alg = ALGEBRAS["Z2"]
    quantifiers = (Quantifier("R", REFLEXIVE_ADMISSIBLE),)
    holds = ConditionSpec("SAME", quantifiers, Delta(), NameRef("R"))
    fails = ConditionSpec("SAME", quantifiers, NameRef("R"), Delta())
    assert _plan(holds).sweep is not _plan(fails).sweep
    witnesses = [_sweep(alg, spec, _members(alg, quantifiers, RA))[1] for spec in (holds, fails)]
    assert witnesses[0] is None
    assert witnesses[1] == Witness("SAME", {"R": [(0, 0), (0, 1), (1, 0), (1, 1)]}, (0, 1))


def _reference_check(alg, cond_id, family):
    """A plain sweep: nested `enumerate_relations` per quantifier per outer
    binding, and `eval_expr` of both sides at every binding."""
    spec = CONDITIONS[cond_id]
    quantifiers = spec.quantifiers

    def bindings(i, env):
        if i == len(quantifiers):
            yield env
            return
        q = quantifiers[i]
        for rel in enumerate_relations(alg, family._replace(kind=q.kind)):
            if q.above is not None and not eval_expr(alg, env, q.above).is_subset(rel):
                continue
            yield from bindings(i + 1, {**env, q.name: rel})

    checked = 0
    witness = None
    for env in bindings(0, {}):
        checked += 1
        witness = _reference_witness(alg, spec, env)
        if witness is not None:
            break
    return PropertyReport(cond_id, witness is None, witness, checked, family.mode)


def _reference_sampled_check(alg, cond_id, family):
    """A plain sampled sweep: per sample, per quantifier, one draw from one
    generator seeded with `family.seed`, above the bound `eval_expr` gives,
    and `eval_expr` of both sides."""
    spec = CONDITIONS[cond_id]
    rng = random.Random(family.seed)
    checked = 0
    witness = None
    for _ in range(family.sample_count):
        checked += 1
        env = {}
        for q in spec.quantifiers:
            above = 0 if q.above is None else eval_expr(alg, env, q.above).bits
            env[q.name] = BinRel(alg.size, _drawer(alg, q.kind)(above, rng))
        witness = _reference_witness(alg, spec, env)
        if witness is not None:
            break
    return PropertyReport(cond_id, witness is None, witness, checked, family.mode)


EXHAUSTIVE_IDS = [
    cid for cid, spec in CONDITIONS.items() if all(q.kind != ANY for q in spec.quantifiers)
]


# 3-element groupoids on which 19-35 of the exhaustive conditions fail, so
# first witnesses are compared; seed 15 has 17 reflexive admissible
# relations (83,521 L1A_III bindings, about 6 s of reference sweep), the
# others 3-5
@pytest.mark.parametrize("seed", (15, 22, 26, 30))
def test_sweep_matches_reference_on_random_groupoids(seed):
    alg = random_algebra(Signature(3, (("f", 2),)), seed)
    family = RelFamily(mode="exhaustive")
    failing = 0
    for cid in EXHAUSTIVE_IDS:
        want = _reference_check(alg, cid, family).to_record()
        assert check_condition(alg, cid, family).to_record() == want, cid
        failing += want["verdict"] == "fails"
    assert failing >= 19


def test_sweep_matches_reference_on_catalog():
    # C3 sweeps the `above` bound of T4_*_COR over many congruences
    family = RelFamily(mode="exhaustive")
    for name in ("S2", "Z4", "C3"):
        alg = ALGEBRAS[name]
        for cid in ("T4_I_COR", "T4_II_COR", "T2_V", "T2_VI", "T3_V", "SEQ_B", "PROB_V"):
            want = _reference_check(alg, cid, family).to_record()
            assert check_condition(alg, cid, family).to_record() == want, (name, cid)


def test_sampled_sweep_matches_reference():
    # every id, those over arbitrary relations (L1B_*, TRIV_K) and the
    # `above` bounds of T4_*_COR included
    algebras = [random_algebra(Signature(3, (("f", 2),)), seed) for seed in (15, 22, 26, 30)]
    algebras += [ALGEBRAS[name] for name in ("S2", "Z4", "C3")]
    failing = 0
    for alg in algebras:
        for seed, count in ((0, 25), (1, 8)):
            family = RelFamily(mode="sampled", sample_count=count, seed=seed)
            for cid in CONDITIONS:
                want = _reference_sampled_check(alg, cid, family).to_record()
                assert check_condition(alg, cid, family).to_record() == want, (alg, seed, cid)
                failing += want["verdict"] == "fails"
    assert failing >= 100  # so first witnesses are compared
