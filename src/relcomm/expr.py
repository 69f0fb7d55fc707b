"""Relation-expression language: AST, parser, printer, evaluator.

Grammar (whitespace insignificant, postfix binds tightest):

    expr    := inter ('+' inter)*            union, loosest
    inter   := comp ('&' comp)*
    comp    := postfix (';' postfix)*        compose, tightest infix
    postfix := atom ('^-' | '^*' | '^o')*    converse, star, tolerance closure
    atom    := 'delta' | 'all' | 'empty' | NAME | literal | call | '(' expr ')'
    call    := cg '(' e ')' | adm '(' e ')' | comm1 '(' e ',' e ')'
             | comm '(' e ',' e ')' | commW '(' e ',' e ')'
             | join '(' e ',' e ')' | K '(' e ',' e2 ';' e ')'
    literal := '{' ( '(' INT ',' INT ')' (',' '(' INT ',' INT ')')* )? '}'

Inside K(...) the second argument (e2) may not use ';' composition at top
level, since ';' separates it from the third argument; parenthesize.
All infix operators are left-associative.

The meaning of each node is given once, in `NODES`, as a function over the
`bits` ints of relations on the algebra's universe.  `BinRel` appears only
at the boundary: `eval_expr` takes names bound to `BinRel`s and returns
one, and the nodes that call commutator and closure functions wrap their
arguments for the call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce

from . import commutator, relations
from .relations import BinRel


class ParseError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if expected:
            suffix = " (expected " + " or ".join(expected) + ")"
        super().__init__(f"{line}:{col}: {message}{suffix}")


class EvalError(ValueError):
    pass


class RelExpr:
    __slots__ = ()


@dataclass(frozen=True)
class NameRef(RelExpr):
    name: str


@dataclass(frozen=True)
class Delta(RelExpr):
    pass


@dataclass(frozen=True)
class All(RelExpr):
    pass


@dataclass(frozen=True)
class EmptyRel(RelExpr):
    pass


@dataclass(frozen=True)
class Literal(RelExpr):
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Converse(RelExpr):
    arg: RelExpr


@dataclass(frozen=True)
class Star(RelExpr):
    arg: RelExpr


@dataclass(frozen=True)
class TolClose(RelExpr):
    arg: RelExpr


@dataclass(frozen=True)
class AdmClose(RelExpr):
    arg: RelExpr


@dataclass(frozen=True)
class Cg(RelExpr):
    arg: RelExpr


@dataclass(frozen=True)
class Compose(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class Intersect(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class Union(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class Comm1(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class Comm(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class CommW(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class Join(RelExpr):
    left: RelExpr
    right: RelExpr


@dataclass(frozen=True)
class K(RelExpr):
    left: RelExpr
    right: RelExpr
    filter: RelExpr


def comp(*es):
    return reduce(Compose, es)


def inter(*es):
    return reduce(Intersect, es)


_FUNCTIONS = {"cg", "adm", "comm1", "comm", "commW", "K", "join"}
_CONSTANTS = {"delta", "all", "empty"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "^":
            if i + 1 < n and text[i + 1] in "-*o":
                tokens.append(_Token("^" + text[i + 1], text[i : i + 2], line, col))
                i += 2
                col += 2
                continue
            raise ParseError(
                "bad postfix operator", line, col, ("'^-'", "'^*'", "'^o'")
            )
        if c in "(){},;&+":
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
                tok.line,
                tok.col,
                (f"'{kind}'",),
            )
        return self.advance()

    def parse(self):
        e = self.union()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"trailing input {tok.text!r}", tok.line, tok.col, ("end of input",)
            )
        return e

    def union(self, allow_compose=True):
        e = self.inter(allow_compose)
        while self.peek().kind == "+":
            self.advance()
            e = Union(e, self.inter(allow_compose))
        return e

    def inter(self, allow_compose=True):
        e = self.comp(allow_compose)
        while self.peek().kind == "&":
            self.advance()
            e = Intersect(e, self.comp(allow_compose))
        return e

    def comp(self, allow_compose=True):
        e = self.postfix()
        while allow_compose and self.peek().kind == ";":
            self.advance()
            e = Compose(e, self.postfix())
        return e

    def postfix(self):
        e = self.atom()
        while True:
            kind = self.peek().kind
            if kind == "^-":
                self.advance()
                e = Converse(e)
            elif kind == "^*":
                self.advance()
                e = Star(e)
            elif kind == "^o":
                self.advance()
                e = TolClose(e)
            else:
                return e

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            e = self.union()
            self.expect(")")
            return e
        if tok.kind == "{":
            return self.literal()
        if tok.kind == "name":
            self.advance()
            if tok.text in _CONSTANTS:
                return {"delta": Delta, "all": All, "empty": EmptyRel}[tok.text]()
            if tok.text in _FUNCTIONS:
                return self.call(tok)
            return NameRef(tok.text)
        raise ParseError(
            f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input",
            tok.line,
            tok.col,
            ("a relation expression",),
        )

    def call(self, tok):
        self.expect("(")
        if tok.text in ("cg", "adm"):
            arg = self.union()
            self.expect(")")
            return (Cg if tok.text == "cg" else AdmClose)(arg)
        if tok.text == "K":
            a = self.union()
            self.expect(",")
            b = self.union(allow_compose=False)
            self.expect(";")
            v = self.union()
            self.expect(")")
            return K(a, b, v)
        a = self.union()
        self.expect(",")
        b = self.union()
        self.expect(")")
        node = {"comm1": Comm1, "comm": Comm, "commW": CommW, "join": Join}[tok.text]
        return node(a, b)

    def literal(self):
        self.expect("{")
        pairs = []
        if self.peek().kind != "}":
            while True:
                self.expect("(")
                a = int(self.expect("int").text)
                self.expect(",")
                b = int(self.expect("int").text)
                self.expect(")")
                pairs.append((a, b))
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect("}")
        return Literal(tuple(pairs))


def parse_expr(text: str) -> RelExpr:
    return _Parser(text).parse()


# printing precedence: atoms/postfix 4, ';' 3, '&' 2, '+' 1
_INFIX = {Compose: (";", 3), Intersect: ("&", 2), Union: ("+", 1)}
_POSTFIX = {Converse: "^-", Star: "^*", TolClose: "^o"}
_CALLS = {Cg: "cg", AdmClose: "adm", Comm1: "comm1", Comm: "comm", CommW: "commW", Join: "join"}


def pretty(e: RelExpr) -> str:
    return _pp(e, 0)


def _pp(e, min_level):
    t = type(e)
    if t is NameRef:
        return e.name
    if t is Delta:
        return "delta"
    if t is All:
        return "all"
    if t is EmptyRel:
        return "empty"
    if t is Literal:
        return "{" + ",".join(f"({a},{b})" for a, b in e.pairs) + "}"
    if t in _POSTFIX:
        return _pp(e.arg, 4) + _POSTFIX[t]
    if t in _CALLS:
        if t in (Cg, AdmClose):
            return f"{_CALLS[t]}({_pp(e.arg, 0)})"
        return f"{_CALLS[t]}({_pp(e.left, 0)},{_pp(e.right, 0)})"
    if t is K:
        mid = _pp(e.right, 0)
        if type(e.right) in _INFIX:
            mid = "(" + mid + ")"
        return f"K({_pp(e.left, 0)},{mid};{_pp(e.filter, 0)})"
    op, level = _INFIX[t]
    text = _pp(e.left, level) + op + _pp(e.right, level + 1)
    if level < min_level:
        return "(" + text + ")"
    return text


# The meaning of each node type, defined once: its child attributes and a
# binder.  `binder(alg, n)` returns the node's function for one algebra of
# size n, from the children's values to the node's value, all values being
# relation `bits` ints.  `eval_expr` walks this table, and `properties`
# compiles condition plans from it, binding each step once per check.  The
# relation-algebra nodes are the int kernels of `relations` and bare `&`/`|`;
# the nodes that need the algebra wrap their arguments as `BinRel`s and look
# up `relations` and `commutator` at call time, so their checks run and a
# wrapper installed on a module attribute sees every call.  A child that is
# not an expression (Literal's pair tuple) is passed to the function as it
# is.  NameRef is not here: a name's value comes from the binding.
_LR = ("left", "right")
NODES = {
    Delta: ((), lambda alg, n: lambda: BinRel.delta(n).bits),
    All: ((), lambda alg, n: lambda: BinRel.full(n).bits),
    EmptyRel: ((), lambda alg, n: lambda: 0),
    Literal: (("pairs",), lambda alg, n: lambda pairs: BinRel.from_pairs(n, pairs).bits),
    Converse: (("arg",), lambda alg, n: partial(relations.converse_bits, n)),
    Star: (("arg",), lambda alg, n: partial(relations.star_bits, n)),
    Compose: (_LR, lambda alg, n: partial(relations.compose_bits, n)),
    Intersect: (_LR, lambda alg, n: operator.and_),
    Union: (_LR, lambda alg, n: operator.or_),
    TolClose: (("arg",), lambda alg, n: lambda r: relations.tol_close(alg, BinRel(n, r)).bits),
    AdmClose: (("arg",), lambda alg, n: lambda r: relations.adm_close(alg, BinRel(n, r)).bits),
    Cg: (("arg",), lambda alg, n: lambda r: relations.cg(alg, BinRel(n, r)).bits),
    Comm1: (_LR, lambda alg, n: lambda r, s: commutator.comm1(alg, BinRel(n, r), BinRel(n, s)).bits),
    Comm: (_LR, lambda alg, n: lambda r, s: commutator.comm(alg, BinRel(n, r), BinRel(n, s)).bits),
    CommW: (
        _LR,
        lambda alg, n: lambda r, s: commutator.comm_weak(alg, BinRel(n, r), BinRel(n, s)).bits,
    ),
    K: (
        _LR + ("filter",),
        lambda alg, n: lambda r, s, v: commutator.k_op(
            alg, BinRel(n, r), BinRel(n, s), BinRel(n, v)
        ).bits,
    ),
    Join: (
        _LR,
        lambda alg, n: lambda r, s: relations.cong_join(alg, BinRel(n, r), BinRel(n, s)).bits,
    ),
}

# nodes whose first two children are commutator arguments (close_inputs)
_COMMUTATORS = (Comm1, Comm, CommW, K)


def children(e: RelExpr) -> tuple:
    """The values of `e`'s child attributes, in argument order."""
    try:
        fields = NODES[type(e)][0]
    except KeyError:
        raise EvalError(f"unknown expression node {e!r}") from None
    return tuple(getattr(e, f) for f in fields)


def free_names(e: RelExpr) -> set[str]:
    if type(e) is NameRef:
        return {e.name}
    out = set()
    for c in children(e):
        if isinstance(c, RelExpr):
            out |= free_names(c)
    return out


def eval_expr(alg, env: dict, e: RelExpr, close_inputs: bool = False) -> BinRel:
    """Evaluate an expression against an algebra and a name environment.

    This is the reference evaluator, a plain walk over `NODES`, and the one
    the `eval` command uses; condition sweeps run compiled plans over the
    same table (`properties`).  Names are read as their `bits` once their
    sizes are checked, and the result is a `BinRel` again.  With
    close_inputs, arguments of commutator nodes (but not K's filter) are
    first replaced by their reflexive-admissible closure.
    """
    n = alg.size
    close = relations.family_closure(alg, relations.REFLEXIVE_ADMISSIBLE)

    def ev(node):
        if type(node) is NameRef:
            if node.name not in env:
                raise EvalError(f"unbound relation name {node.name!r}")
            rel = env[node.name]
            if rel.size != n:
                raise EvalError(
                    f"relation {node.name!r} has size {rel.size}, algebra has {n}"
                )
            return rel.bits
        args = [ev(c) if isinstance(c, RelExpr) else c for c in children(node)]
        if close_inputs and type(node) in _COMMUTATORS:
            args[0] = close(BinRel(n, args[0])).bits
            args[1] = close(BinRel(n, args[1])).bits
        return NODES[type(node)][1](alg, n)(*args)

    return BinRel(n, ev(e))
