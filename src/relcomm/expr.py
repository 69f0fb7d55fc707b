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
for all infix levels.  A node's fields are stated once, in its class's
`_fields` (`algebra.Value`): `children` reads them, and a call takes one
argument per field.

The meaning of each node is given once, in `NODES`, as a function over the
`bits` ints of relations on the algebra's universe: the int kernels of the
algebra's kernel object (`relations.Kernels`).  `BinRel` appears only at
the boundary: `eval_expr` takes names bound to `BinRel`s and returns one.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from . import relations
from .algebra import Value
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


class RelExpr(Value):
    """An expression node.  Its hash is computed once, at construction,
    from its class and its fields (which must be hashable: a literal's
    pairs are tuples), whose own hashes are cached the same way, so
    hashing a whole tree (as the plan memo and `_Plan`'s slot sharing do)
    costs O(1).  `depth` is the number of nodes on its longest path to a
    leaf: every walk over a tree recurses that deep."""

    __slots__ = ("_hash", "depth")

    def __init__(self, *args, **kwargs):
        Value.__init__(self, *args, **kwargs)
        values = self._values()
        object.__setattr__(self, "_hash", hash((type(self), *values)))
        depth = max((v.depth for v in values if isinstance(v, RelExpr)), default=0)
        object.__setattr__(self, "depth", depth + 1)

    def __hash__(self):
        return self._hash


class NameRef(RelExpr):
    __slots__ = _fields = ("name",)


class Delta(RelExpr):
    __slots__ = ()


class All(RelExpr):
    __slots__ = ()


class EmptyRel(RelExpr):
    __slots__ = ()


class Literal(RelExpr):
    __slots__ = _fields = ("pairs",)


class Converse(RelExpr):
    __slots__ = _fields = ("arg",)


class Star(RelExpr):
    __slots__ = _fields = ("arg",)


class TolClose(RelExpr):
    __slots__ = _fields = ("arg",)


class AdmClose(RelExpr):
    __slots__ = _fields = ("arg",)


class Cg(RelExpr):
    __slots__ = _fields = ("arg",)


class Compose(RelExpr):
    __slots__ = _fields = ("left", "right")


class Intersect(RelExpr):
    __slots__ = _fields = ("left", "right")


class Union(RelExpr):
    __slots__ = _fields = ("left", "right")


class Comm1(RelExpr):
    __slots__ = _fields = ("left", "right")


class Comm(RelExpr):
    __slots__ = _fields = ("left", "right")


class CommW(RelExpr):
    __slots__ = _fields = ("left", "right")


class Join(RelExpr):
    __slots__ = _fields = ("left", "right")


class K(RelExpr):
    __slots__ = _fields = ("left", "right", "filter")


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
_POSTFIX = [s for s in _SYMBOLS if len(SYNTAX[s]._fields) == 1]
_INFIX = [s for s in _SYMBOLS if len(SYNTAX[s]._fields) == 2]  # index = level
_TOKENS = _SYMBOLS + list("(){},")


def _call_syntax(node):
    """The token before each argument of a call, and the index of the
    argument that may not use the tightest infix operator (';') at top level,
    where `pretty` parenthesizes every infix operator.  Only K has one: ';'
    separates its middle argument from its filter."""
    seps = ["("] + [","] * (len(node._fields) - 1)
    if node is not K:
        return seps, None
    seps[2] = _INFIX[-1]
    return seps, 1


_Token = namedtuple("_Token", "kind text line col")

# The deepest input the parser accepts: at most this many nodes on a path
# from the root to a leaf (`RelExpr.depth`), and at most this many
# parentheses and calls open at once.  The parser recurses 7 frames per
# call open and 6 per parenthesis, and each walk over a tree (`eval_expr`,
# `pretty`, `_Plan._visit`, `==`) up to 3 per node, `repr` 4; so the
# deepest walk that a bounded input makes, parsing 100 nested calls, takes
# about 705 frames, inside Python's default recursion limit of 1,000.
# The deepest side of the condition table has 11 levels.
MAX_DEPTH = 100


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
        self.open = 0  # parentheses and calls open

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

    def bound(self, depth, tok):
        """Refuse, at tok, a depth past MAX_DEPTH."""
        if depth > MAX_DEPTH:
            message = f"expression nested deeper than {MAX_DEPTH} levels"
            raise ParseError(message, tok.line, tok.col)

    def build(self, tok, node, *args):
        """node(*args), for the operator or call at tok."""
        e = node(*args)
        self.bound(e.depth, tok)
        return e

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
            op = self.advance()
            e = self.build(op, SYNTAX[op.kind], e, self.infix(level + 1, top))
        return e

    def postfix(self):
        e = self.atom()
        while self.peek().kind in _POSTFIX:
            op = self.advance()
            e = self.build(op, SYNTAX[op.kind], e)
        return e

    def atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            self.open += 1
            self.bound(self.open, tok)
            e = self.infix()
            self.expect(")")
            self.open -= 1
            return e
        if tok.kind == "{":
            return self.literal()
        if tok.kind != "name":
            self.fail(("a relation expression",))
        self.advance()
        node = SYNTAX.get(tok.text)
        if node is None:
            return NameRef(tok.text)
        return self.call(tok, node) if node._fields else node()

    def call(self, tok, node):
        self.open += 1
        self.bound(self.open, tok)
        seps, no_tightest = _call_syntax(node)
        args = []
        for i, sep in enumerate(seps):
            self.expect(sep)
            args.append(self.infix(top=len(_INFIX) - (i == no_tightest)))
        self.expect(")")
        self.open -= 1
        return self.build(tok, node, *args)

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


# The meaning of each node type, defined once, as a binder: `binder(k)`
# returns the node's function on the algebra of the kernel object k
# (`relations.kernels(alg)`), from the values of its fields, in order, to
# the node's value, all values being relation `bits` ints.  `eval_expr`
# walks this table, and `properties` compiles condition plans from it,
# binding each step once per check.  Every kernel node binds an attribute
# of k itself (or bare `&`/`|`), keyed by relation bits alone: no step
# wraps a `BinRel`, adds a layer around the kernel or looks a module
# attribute up per call.  The kernels keep the checks of their `BinRel`
# forms: M(R, S) checks R and S on every cache miss, `cg` its
# admissibility invariant, `join` that both arguments are congruences.  A
# field that is not an expression (Literal's pair tuple) is passed to the
# function as it is.  NameRef is not here: a name's value comes from the
# binding.
NODES = {
    Delta: lambda k: lambda: k.delta,
    All: lambda k: lambda: BinRel.full(k.n).bits,
    EmptyRel: lambda k: lambda: 0,
    Literal: lambda k: lambda pairs: BinRel.from_pairs(k.n, pairs).bits,
    Converse: lambda k: k.converse,
    Star: lambda k: k.star,
    Compose: lambda k: k.compose,
    Intersect: lambda k: operator.and_,
    Union: lambda k: operator.or_,
    TolClose: lambda k: k.tol_close,
    AdmClose: lambda k: k.adm_close,
    Cg: lambda k: k.cg,
    Comm1: lambda k: k.comm1,
    Comm: lambda k: k.comm,
    CommW: lambda k: k.comm_weak,
    K: lambda k: k.k_op,
    Join: lambda k: k.cong_join,
}

# nodes whose first two children are commutator arguments (close_inputs)
_COMMUTATORS = (Comm1, Comm, CommW, K)


def children(e: RelExpr) -> tuple:
    """The values of `e`'s fields, in argument order."""
    if type(e) not in NODES:
        raise EvalError(f"unknown expression node {e!r}")
    return e._values()


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
    relations.check_universe(n, "evaluation")
    k = relations.kernels(alg)
    close = k.closure(relations.REFLEXIVE_ADMISSIBLE)

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
        return NODES[type(node)](k)(*args)

    return BinRel(n, ev(e))
