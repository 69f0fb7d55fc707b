import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import refl
from relcomm import (
    BinRel,
    FiniteAlgebra,
    adm_close,
    cg,
    comm,
    comm1,
    comm_weak,
    compose,
    cong_join,
    converse,
    eval_expr,
    intersect,
    k_op,
    parse_expr,
    pretty,
    star,
    tol_close,
    union_,
)
from relcomm.conditions import CONDITIONS, ConditionSpec, Quantifier
from relcomm.expr import (
    MAX_DEPTH,
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
    EvalError,
    Intersect,
    Join,
    K,
    Literal,
    NameRef,
    ParseError,
    RelExpr,
    Star,
    TolClose,
    Union,
    children,
)
from relcomm.properties import _Plan

Z2 = FiniteAlgebra(2, (("+", 2, (0, 1, 1, 0)),))
PURE2 = FiniteAlgebra(2, ())


def test_parse_lemma_subterm():
    got = parse_expr("(S & (R^- ; (S & T^-) ; R))")
    want = Intersect(
        NameRef("S"),
        Compose(
            Compose(Converse(NameRef("R")), Intersect(NameRef("S"), Converse(NameRef("T")))),
            NameRef("R"),
        ),
    )
    assert got == want


def test_parse_postfix_after_call():
    assert parse_expr("K(R,S;delta)^*") == Star(K(NameRef("R"), NameRef("S"), Delta()))


def test_parse_postfix_left_to_right():
    assert parse_expr("R^-^*") == Star(Converse(NameRef("R")))


def test_parse_precedence():
    # ';' binds tighter than '&' binds tighter than '+'
    got = parse_expr("a + b & c ; d")
    want = Union(NameRef("a"), Intersect(NameRef("b"), Compose(NameRef("c"), NameRef("d"))))
    assert got == want


def test_parse_left_associative():
    assert parse_expr("a;b;c") == Compose(Compose(NameRef("a"), NameRef("b")), NameRef("c"))
    assert parse_expr("a+b+c") == Union(Union(NameRef("a"), NameRef("b")), NameRef("c"))


def test_parse_literals():
    assert parse_expr("{(0,1),(2,0)}") == Literal(((0, 1), (2, 0)))
    assert parse_expr("{}") == Literal(())


def test_parse_constants_and_calls():
    assert parse_expr("delta") == Delta()
    assert parse_expr("all") == All()
    assert parse_expr("empty") == EmptyRel()
    assert parse_expr("cg(R)") == Cg(NameRef("R"))
    assert parse_expr("adm(R)") == AdmClose(NameRef("R"))
    assert parse_expr("comm1(R,S)") == Comm1(NameRef("R"), NameRef("S"))
    assert parse_expr("comm(R,S)") == Comm(NameRef("R"), NameRef("S"))
    assert parse_expr("commW(R,S)") == CommW(NameRef("R"), NameRef("S"))
    assert parse_expr("join(R,S)") == Join(NameRef("R"), NameRef("S"))
    assert parse_expr("R^o") == TolClose(NameRef("R"))


def test_parse_k_with_parenthesized_composition():
    got = parse_expr("K(R,(S;T);V)")
    assert got == K(NameRef("R"), Compose(NameRef("S"), NameRef("T")), NameRef("V"))


def test_parse_whitespace_insignificant():
    a = parse_expr("comm1( R , S )^*&T")
    b = parse_expr("comm1(R,S)^* & T")
    assert a == b


def _random_expr(rng, depth, names=("R", "S", "T")):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            [
                NameRef(rng.choice(names)),
                Delta(),
                All(),
                EmptyRel(),
                Literal(((0, 1),)),
            ]
        )
    kind = rng.randrange(13)
    sub = lambda: _random_expr(rng, depth - 1, names)
    if kind == 0:
        return Converse(sub())
    if kind == 1:
        return Star(sub())
    if kind == 2:
        return TolClose(sub())
    if kind == 3:
        return AdmClose(sub())
    if kind == 4:
        return Cg(sub())
    if kind == 5:
        return Compose(sub(), sub())
    if kind == 6:
        return Intersect(sub(), sub())
    if kind == 7:
        return Union(sub(), sub())
    if kind == 8:
        return Comm1(sub(), sub())
    if kind == 9:
        return Comm(sub(), sub())
    if kind == 10:
        return CommW(sub(), sub())
    if kind == 11:
        return K(sub(), sub(), sub())
    return Join(sub(), sub())


def _node_types(e):
    yield type(e)
    if type(e) is not NameRef:
        for c in children(e):
            if isinstance(c, RelExpr):
                yield from _node_types(c)


def _corpus():
    rng = random.Random(1905)
    return [_random_expr(rng, rng.randint(1, 5)) for _ in range(200)]


def test_roundtrip_generated_corpus():
    seen = set()
    for e in _corpus():
        assert parse_expr(pretty(e)) == e, pretty(e)
        seen.update(_node_types(e))
    # every node type has a spelling, so the corpus must reach each one
    assert set(NODES) <= seen


def test_printer_output_pinned():
    # sha1 of the printed corpus and of both sides of every condition, one
    # expression a line, taken before the printer was rebuilt on `SYNTAX`
    exprs = _corpus() + [e for spec in CONDITIONS.values() for e in (spec.lhs, spec.rhs)]
    text = "\n".join(pretty(e) for e in exprs)
    assert hashlib.sha1(text.encode()).hexdigest() == "09f9e5e6b9a13b9cf3823941c22bf04b7ab924cc"


_EXPR = ("a relation expression",)
_POSTFIX_OPS = ("'^-'", "'^*'", "'^o'")

# (input, line, col, expected, message) of the ParseError each malformed
# input raises, taken before the parser was rebuilt on `SYNTAX`
PARSE_ERRORS = [
    ("", 1, 1, _EXPR, "1:1: unexpected end of input (expected a relation expression)"),
    ("R &", 1, 4, _EXPR, "1:4: unexpected end of input (expected a relation expression)"),
    ("R\n; ;", 2, 3, _EXPR, "2:3: found ';' (expected a relation expression)"),
    ("R^x", 1, 2, _POSTFIX_OPS, "1:2: bad postfix operator (expected '^-' or '^*' or '^o')"),
    ("R^", 1, 2, _POSTFIX_OPS, "1:2: bad postfix operator (expected '^-' or '^*' or '^o')"),
    ("comm1(R)", 1, 8, ("','",), "1:8: found ')' (expected ',')"),
    ("comm1", 1, 6, ("'('",), "1:6: unexpected end of input (expected '(')"),
    ("cg(R,S)", 1, 5, ("')'",), "1:5: found ',' (expected ')')"),
    ("K(R,S;T", 1, 8, ("')'",), "1:8: unexpected end of input (expected ')')"),
    ("K(R,S,T)", 1, 6, ("';'",), "1:6: found ',' (expected ';')"),
    ("K(R,S;T)^x", 1, 9, _POSTFIX_OPS, "1:9: bad postfix operator (expected '^-' or '^*' or '^o')"),
    ("{(0,1)", 1, 7, ("'}'",), "1:7: unexpected end of input (expected '}')"),
    ("{(0,1),}", 1, 8, ("'('",), "1:8: found '}' (expected '(')"),
    ("{(0,1)(1,0)}", 1, 7, ("'}'",), "1:7: found '(' (expected '}')"),
    ("{(a,1)}", 1, 3, ("'int'",), "1:3: found 'a' (expected 'int')"),
    ("R S", 1, 3, ("end of input",), "1:3: trailing input 'S' (expected end of input)"),
    ("(R", 1, 3, ("')'",), "1:3: unexpected end of input (expected ')')"),
    (")", 1, 1, _EXPR, "1:1: found ')' (expected a relation expression)"),
    ("delta(R)", 1, 6, ("end of input",), "1:6: trailing input '(' (expected end of input)"),
    ("R + $", 1, 5, (), "1:5: unexpected character '$'"),
    ("a;\n  b &", 2, 6, _EXPR, "2:6: unexpected end of input (expected a relation expression)"),
    ("R^-^", 1, 4, _POSTFIX_OPS, "1:4: bad postfix operator (expected '^-' or '^*' or '^o')"),
]


def test_parse_error_positions():
    for text, line, col, expected, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected), text
        assert str(exc.value) == message, text


# Inputs nested one level past MAX_DEPTH, each with the position of the
# token refused: the opening parenthesis or call past the bound, or the
# operator or call whose node is one level too deep.  The first two
# crashed the CLI with a RecursionError: 200 parentheses in the parser,
# and 500 postfix operators in `eval_expr`.
TOO_DEEP = [
    ("(" * 200 + "delta" + ")" * 200, MAX_DEPTH + 1),
    ("delta" + "^-" * 500, 6 + 2 * (MAX_DEPTH - 1)),
    ("(" * (MAX_DEPTH + 1) + "delta" + ")" * (MAX_DEPTH + 1), MAX_DEPTH + 1),
    (";".join(["delta"] * (MAX_DEPTH + 1)), 6 + 6 * (MAX_DEPTH - 1)),
    ("cg(" * MAX_DEPTH + "delta" + ")" * MAX_DEPTH, 1),
    ("K(R,R;" * (MAX_DEPTH + 1) + "R" + ")" * (MAX_DEPTH + 1), 1 + 6 * MAX_DEPTH),
]


def test_parse_refuses_input_nested_past_the_bound():
    for text, col in TOO_DEEP:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (exc.value.line, exc.value.col) == (1, col), text[:12]
        assert str(exc.value) == f"1:{col}: expression nested deeper than {MAX_DEPTH} levels"


def test_every_walk_takes_input_nested_to_the_bound():
    # at the bound itself, parsing and each recursive walk over the tree
    # stay inside the default recursion limit
    alg, env = Z2, {"R": BinRel.full(2)}
    for text in [
        "(" * MAX_DEPTH + "R" + ")" * MAX_DEPTH,
        "R" + "^-" * (MAX_DEPTH - 1),
        ";".join(["R"] * MAX_DEPTH),
        "cg(" * (MAX_DEPTH - 1) + "R" + ")" * (MAX_DEPTH - 1),
        "K(R,R;" * (MAX_DEPTH - 1) + "R" + ")" * (MAX_DEPTH - 1),
    ]:
        e, again = parse_expr(text), parse_expr(text)
        assert e.depth <= MAX_DEPTH and e == again and e is not again
        assert parse_expr(pretty(e)) == e and repr(e) == repr(again)
        assert eval_expr(alg, env, e).size == 2
        _Plan(ConditionSpec("DEEP", (Quantifier("R", "reflexive-admissible"),), e, again))


def test_eval_nodes_agree_with_module_calls():
    alg = Z2
    env = {"R": BinRel.full(2), "S": refl(2, (0, 1))}
    n = 2
    r, s = env["R"], env["S"]
    cases = [
        (NameRef("R"), r),
        (Delta(), BinRel.delta(n)),
        (All(), BinRel.full(n)),
        (EmptyRel(), BinRel.empty(n)),
        (Literal(((0, 1),)), BinRel.from_pairs(n, [(0, 1)])),
        (Converse(NameRef("S")), converse(s)),
        (Star(NameRef("S")), star(s)),
        (TolClose(NameRef("S")), tol_close(alg, s)),
        (AdmClose(NameRef("S")), adm_close(alg, s)),
        (Cg(NameRef("S")), cg(alg, s)),
        (Compose(NameRef("R"), NameRef("S")), compose(r, s)),
        (Intersect(NameRef("R"), NameRef("S")), intersect(r, s)),
        (Union(NameRef("R"), NameRef("S")), union_(r, s)),
        (Comm1(NameRef("R"), NameRef("R")), comm1(alg, r, r)),
        (Comm(NameRef("R"), NameRef("R")), comm(alg, r, r)),
        (CommW(NameRef("R"), NameRef("R")), comm_weak(alg, r, r)),
        (K(NameRef("R"), NameRef("R"), Delta()), k_op(alg, r, r, BinRel.delta(n))),
        (Join(Delta(), Delta()), cong_join(alg, BinRel.delta(n), BinRel.delta(n))),
    ]
    for node, want in cases:
        assert eval_expr(alg, env, node).bits == want.bits, node


def test_eval_examples():
    assert eval_expr(Z2, {"R": BinRel.delta(2)}, parse_expr("R^*")).bits == BinRel.delta(2).bits
    env = {"R": BinRel.full(2), "S": BinRel.full(2)}
    assert eval_expr(Z2, env, parse_expr("comm1(R,S)")).bits == BinRel.delta(2).bits
    env2 = {"R": refl(2, (0, 1))}
    assert eval_expr(PURE2, env2, parse_expr("R^o")).bits == BinRel.full(2).bits


def test_eval_unbound_name():
    with pytest.raises(EvalError):
        eval_expr(Z2, {}, parse_expr("R"))


def test_eval_commutator_precondition():
    env = {"R": BinRel.from_pairs(2, [(0, 1)])}
    with pytest.raises(ValueError):
        eval_expr(Z2, env, parse_expr("comm1(R,R)"))
    # close_inputs repairs the argument
    got = eval_expr(Z2, env, parse_expr("comm1(R,R)"), close_inputs=True)
    closed = adm_close(Z2, union_(BinRel.delta(2), env["R"]))
    assert got.bits == comm1(Z2, closed, closed).bits


def test_eval_size_mismatch():
    with pytest.raises(EvalError):
        eval_expr(Z2, {"R": BinRel.delta(3)}, parse_expr("R"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="RST;&+^-*o(){},01 delmptyacgjoinK", max_size=24))
def test_parser_total_over_junk(text):
    # arbitrary input either parses or raises a positioned ParseError
    try:
        e = parse_expr(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        assert parse_expr(pretty(e)) == e
