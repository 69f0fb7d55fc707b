"""Value semantics of `algebra.Value`, the base of every value class."""

import pickle

import pytest

from relcomm import BinRel, FiniteAlgebra, RelFamily, TupleSet, parse_expr, pretty
from relcomm.algebra import Operation, Value
from relcomm.conditions import CONDITIONS, Quantifier
from relcomm.expr import Converse, Delta, K, Literal, NameRef, RelExpr, Star
from relcomm.properties import PropertyReport, Witness
from relcomm.relations import UsageError
from relcomm.search import SearchTask, Signature, catalog


def _sides():
    for spec in CONDITIONS.values():
        yield spec.lhs
        yield spec.rhs
        yield from (q.above for q in spec.quantifiers if q.above is not None)


def _nodes(e):
    yield e
    for c in e._values():
        if isinstance(c, RelExpr):
            yield from _nodes(c)


def test_equality_is_type_strict():
    x = NameRef("R")
    assert Converse(x) != Star(x) and Converse(x) == Converse(NameRef("R"))
    assert NameRef("R") != ("R",) and ("R",) != NameRef("R")
    assert Delta() != () and Delta() == Delta() and hash(Delta()) == hash(Delta())
    assert Literal(((0, 1),)) != ((0, 1),)
    assert BinRel(2, 1) != (2, 1) and BinRel(2, 1) != TupleSet(2, 1, 1)
    assert Signature(3) != TupleSet(3, 1, 1)


def test_separately_parsed_sides_are_equal_and_hash_equal():
    for side in _sides():
        first, second = parse_expr(pretty(side)), parse_expr(pretty(side))
        assert first is not second
        assert first == second == side, pretty(side)
        assert hash(first) == hash(second) == hash(side), pretty(side)
        # every subterm too, whose hash was cached when it was built
        for a, b in zip(_nodes(first), _nodes(second)):
            assert a == b and hash(a) == hash(b)


def test_frozen_values_refuse_assignment():
    spec = CONDITIONS["T2_I"]
    values = [
        (NameRef("R"), "name"),
        (spec, "lhs"),
        (spec.quantifiers[0], "kind"),
        (BinRel(2, 1), "bits"),
        (TupleSet(2, 1, 1), "bits"),
        (FiniteAlgebra(2, ()), "size"),
        (Operation("f", 0, (0,)), "table"),
        (RelFamily(), "mode"),
        (SearchTask(), "budget"),
        (Witness("T2_I", {}, None), "pair"),
    ]
    for value, field in values:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = 1  # nor any attribute outside the fields
        assert getattr(value, field) is before


def test_values_survive_a_pickle_round_trip():
    values = [
        *_sides(),
        *CONDITIONS.values(),
        *(alg for _, alg in catalog()),
        BinRel(3, 5),
        TupleSet(2, 3, 200),
        RelFamily("tolerance", "sampled", 7, 3),
        SearchTask(sizes=(3,), budget=4, target=("PROB_I", "PROB_IV")),
        Signature(2, (("g", 1),)),
        K(NameRef("R"), Literal(((0, 1),)), Delta()),
    ]
    for value in values:
        copy = pickle.loads(pickle.dumps(value))
        assert copy is not value and type(copy) is type(value)
        assert copy == value and hash(copy) == hash(value), value


def test_repr_names_every_field_like_a_dataclass():
    assert repr(Quantifier("R", "tolerance")) == (
        "Quantifier(name='R', kind='tolerance', above=None)"
    )
    assert repr(Converse(NameRef("R"))) == "Converse(arg=NameRef(name='R'))"
    assert repr(Delta()) == "Delta()"
    assert repr(TupleSet(2, 1, 3)) == "TupleSet(size=2, power=1, bits=3)"


def test_init_takes_fields_by_position_or_keyword():
    assert Witness("T2_I", {}, None) == Witness(pair=None, condition="T2_I", relations={})
    assert Witness("T2_I", {}, pair=(0, 1)).pair == (0, 1)
    for args, kwargs in [
        (("T2_I", {}), {}),  # missing
        (("T2_I", {}, None, 1), {}),  # extra
        (("T2_I", {}, None), {"pair": None}),  # twice
        (("T2_I", {}), {"bogus": None}),  # unknown
    ]:
        with pytest.raises(TypeError):
            Witness(*args, **kwargs)


def test_replace_builds_a_checked_copy():
    family = RelFamily("tolerance", seed=4)
    sampled = family._replace(mode="sampled")
    assert sampled == RelFamily("tolerance", "sampled", 200, 4) and family.mode == "exhaustive"
    with pytest.raises(UsageError):
        family._replace(mode="bogus")  # the copy goes through the checks
    with pytest.raises(TypeError):
        family._replace(bogus=1)
    original, alias = CONDITIONS["T2_I"], CONDITIONS["PROB_I"]
    assert alias == original._replace(id="PROB_I") and alias.lhs is original.lhs


def test_property_report_is_frozen_and_unhashable():
    # a report is a value like every other, so a changed verdict is a new
    # report; its `detail` is a dict, so it cannot be hashed
    rep, other = (PropertyReport("T2_I", True, None, 3, "exhaustive") for _ in range(2))
    assert rep.detail == {} and rep.detail is not other.detail
    with pytest.raises(AttributeError):
        rep.holds = False
    with pytest.raises(AttributeError):
        del rep.witness
    with pytest.raises(TypeError):
        hash(rep)
    failed = rep._replace(holds=False, witness=Witness("T2_I", {"R": [(0, 0)]}, (0, 1)))
    assert failed.verdict == "fails" and failed.witness.pair == (0, 1) and rep.holds
    assert failed._replace(condition="PROB_I").witness is failed.witness
    assert isinstance(rep, Value)


def test_report_text_takes_witness_pairs_as_lists():
    # a node hashes its fields when it is built, so the literal that
    # prints a witness is built from tuples even where the record has lists
    witness = Witness("T2_I", {"R": [[0, 1], [1, 1]]}, (0, 1))
    text = PropertyReport("T2_I", False, witness, 1, "exhaustive").to_text()
    assert text.splitlines()[1:] == ["  R = {(0,1),(1,1)}", "  violating pair: (0, 1)"]
