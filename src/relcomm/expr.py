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

Every spelling above is stated once in code, in `SYNTAX`, the one source
that the tokenizer, the parser and `pretty` read; the parser has one loop
for all infix levels.  A node's fields are stated once, in its dataclass:
`children` reads them, and a call takes one argument per field.

The meaning of each node is given once, in `NODES`, as a function over the
`bits` ints of relations on the algebra's universe.  `BinRel` appears only
at the boundary: `eval_expr` takes names bound to `BinRel`s and returns
one, and the nodes that call commutator functions and `adm_close` wrap
their arguments (`relations.family_closure` does it for TolClose and Cg).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import partial, reduce

from . import commutator, relations
from .relations import BinRel, UsageError


class ParseError(UsageError):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        suffix = ""
        if expected:
            suffix = " (expected " + " or ".join(expected) + ")"
        super().__init__(f"{line}:{col}: {message}{suffix}")


class EvalError(UsageError):
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


# The surface syntax: every spelling of a node, once.  The tokenizer, the
# parser and `pretty` all read this table.  A word is a constant when its
# node has no fields and a call otherwise, with one argument per field; a
# symbol is a postfix operator when its node has one field and a
# left-associative infix operator when it has two, the infix operators
# listed loosest first.
SYNTAX = {
    "delta": Delta, "all": All, "empty": EmptyRel,
    "cg": Cg, "adm": AdmClose, "comm1": Comm1, "comm": Comm, "commW": CommW, "join": Join, "K": K,
    "^-": Converse, "^*": Star, "^o": TolClose,
    "+": Union, "&": Intersect, ";": Compose,
}

_SPELLING = {t: s for s, t in SYNTAX.items()}
_SYMBOLS = [s for s in SYNTAX if not s.isidentifier()]
_POSTFIX = [s for s in _SYMBOLS if len(fields(SYNTAX[s])) == 1]
_INFIX = [s for s in _SYMBOLS if len(fields(SYNTAX[s])) == 2]  # index = level
_TOKENS = _SYMBOLS + list("(){},")


def _call_syntax(node):
    """The token before each argument of a call, and the index of the
    argument that may not use the tightest infix operator (';') at top level,
    where `pretty` parenthesizes every infix operator.  Only K has one: ';'
    separates its middle argument from its filter."""
    seps = ["("] + [","] * (len(_FIELDS[node]) - 1)
    if node is not K:
        return seps, None
    seps[2] = _INFIX[-1]
    return seps, 1


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text):
    tokens = []
    line, line_start, i, n = 1, 0, 0, len(text)
    while i < n:
        c = text[i]
        col = i - line_start + 1
        if c.isspace():
            if c == "\n":
                line, line_start = line + 1, i + 1
            i += 1
            continue
        if c.isalpha() or c == "_":
            kind, j = "name", i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif c.isdecimal():
            kind, j = "int", i + 1
            while j < n and text[j].isdecimal():
                j += 1
        else:
            kind = next((t for t in _TOKENS if text.startswith(t, i)), None)
            # a postfix operator's first character, without the rest
            if kind is None and any(p[0] == c for p in _POSTFIX):
                expected = tuple(f"'{p}'" for p in _POSTFIX)
                raise ParseError("bad postfix operator", line, col, expected)
            if kind is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            j = i + len(kind)
        tokens.append(_Token(kind, text[i:j], line, col))
        i = j
    tokens.append(_Token("eof", "", line, n - line_start + 1))
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

    def fail(self, expected):
        tok = self.peek()
        found = f"found {tok.text!r}" if tok.kind != "eof" else "unexpected end of input"
        raise ParseError(found, tok.line, tok.col, expected)

    def expect(self, kind):
        if self.peek().kind != kind:
            self.fail((f"'{kind}'",))
        return self.advance()

    def parse(self):
        e = self.infix()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"trailing input {tok.text!r}", tok.line, tok.col, ("end of input",)
            )
        return e

    def infix(self, level=0, top=len(_INFIX)):
        """Infix operators from `level` up to, not including, `top`."""
        if level == top:
            return self.postfix()
        e = self.infix(level + 1, top)
        while self.peek().kind == _INFIX[level]:
            self.advance()
            e = SYNTAX[_INFIX[level]](e, self.infix(level + 1, top))
        return e

    def postfix(self):
        e = self.atom()
        while self.peek().kind in _POSTFIX:
            e = SYNTAX[self.advance().kind](e)
        return e

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            e = self.infix()
            self.expect(")")
            return e
        if tok.kind == "{":
            return self.literal()
        if tok.kind != "name":
            self.fail(("a relation expression",))
        self.advance()
        node = SYNTAX.get(tok.text)
        if node is None:
            return NameRef(tok.text)
        return self.call(node) if _FIELDS[node] else node()

    def call(self, node):
        seps, no_tightest = _call_syntax(node)
        args = []
        for i, sep in enumerate(seps):
            self.expect(sep)
            args.append(self.infix(top=len(_INFIX) - (i == no_tightest)))
        self.expect(")")
        return node(*args)

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


def pretty(e: RelExpr) -> str:
    return _pp(e, 0)


def _pp(e, min_level):
    """`e` printed as an operand at `min_level`: an infix expression whose
    operator is looser is parenthesized; `len(_INFIX)` is the postfix level."""
    t = type(e)
    if t is NameRef:
        return e.name
    if t is Literal:
        return "{" + ",".join(f"({a},{b})" for a, b in e.pairs) + "}"
    s = _SPELLING[t]
    args = children(e)
    if s in _POSTFIX:
        return _pp(args[0], len(_INFIX)) + s
    if s in _INFIX:
        level = _INFIX.index(s)
        text = _pp(args[0], level) + s + _pp(args[1], level + 1)
        return "(" + text + ")" if level < min_level else text
    if not args:
        return s
    seps, no_tightest = _call_syntax(t)
    return s + "".join(
        sep + _pp(a, len(_INFIX) if i == no_tightest else 0)
        for i, (sep, a) in enumerate(zip(seps, args))
    ) + ")"


# The meaning of each node type, defined once, as a binder: `binder(alg, n)`
# returns the node's function for one algebra of size n, from the values of
# its fields, in order, to the node's value, all values being relation
# `bits` ints.  `eval_expr` walks this table, and `properties` compiles
# condition plans from it, binding each step once per check.  The
# relation-algebra nodes are the int kernels of `relations` and bare `&`/`|`;
# the nodes that need the algebra wrap their arguments as `BinRel`s, or bind
# `family_closure`, and look up `relations` and `commutator` at call time,
# so their checks run and a wrapper installed on a module attribute sees
# every call.  A field that is not an expression (Literal's pair tuple) is
# passed to the function as it is.  NameRef is not here: a name's value
# comes from the binding.
NODES = {
    Delta: lambda alg, n: partial(relations.delta_bits, n),
    All: lambda alg, n: lambda: BinRel.full(n).bits,
    EmptyRel: lambda alg, n: lambda: 0,
    Literal: lambda alg, n: lambda pairs: BinRel.from_pairs(n, pairs).bits,
    Converse: lambda alg, n: partial(relations.converse_bits, n),
    Star: lambda alg, n: partial(relations.star_bits, n),
    Compose: lambda alg, n: partial(relations.compose_bits, n),
    Intersect: lambda alg, n: operator.and_,
    Union: lambda alg, n: operator.or_,
    TolClose: lambda alg, n: relations.family_closure(alg, relations.TOLERANCE),
    AdmClose: lambda alg, n: lambda r: relations.adm_close(alg, BinRel(n, r)).bits,
    Cg: lambda alg, n: relations.family_closure(alg, relations.CONGRUENCE),
    Comm1: lambda alg, n: lambda r, s: commutator.comm1(alg, BinRel(n, r), BinRel(n, s)).bits,
    Comm: lambda alg, n: lambda r, s: commutator.comm(alg, BinRel(n, r), BinRel(n, s)).bits,
    CommW: lambda alg, n: lambda r, s: commutator.comm_weak(alg, BinRel(n, r), BinRel(n, s)).bits,
    K: lambda alg, n: lambda r, s, v: commutator.k_op(
        alg, BinRel(n, r), BinRel(n, s), BinRel(n, v)
    ).bits,
    Join: lambda alg, n: lambda r, s: relations.cong_join(alg, BinRel(n, r), BinRel(n, s)).bits,
}

# nodes whose first two children are commutator arguments (close_inputs)
_COMMUTATORS = (Comm1, Comm, CommW, K)


# each node type's field names, in argument order, read once from its dataclass
_FIELDS = {t: tuple(f.name for f in fields(t)) for t in NODES}


def children(e: RelExpr) -> tuple:
    """The values of `e`'s fields, in argument order."""
    try:
        names = _FIELDS[type(e)]
    except KeyError:
        raise EvalError(f"unknown expression node {e!r}") from None
    return tuple(getattr(e, f) for f in names)


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
            args[0] = close(args[0])
            args[1] = close(args[1])
        return NODES[type(node)](alg, n)(*args)

    return BinRel(n, ev(e))
