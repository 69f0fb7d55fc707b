"""Quantified condition checkers with reproducible witnesses.

A checker evaluates one entry of the condition table over a relation
family and reports either success over the whole range or the first
violating binding.  Failed reports always carry a witness that can be
re-evaluated standalone (`recheck_witness`).

`check_condition` sweeps its condition with a compiled plan (`_Plan`):
one step per distinct subterm, each at a level, the deepest quantifier
among its free names (or constant), and one generated Python function
that runs the whole sweep.  That function runs the constant steps once,
walks the quantifiers as nested `for` loops, and after binding
quantifier i runs the level-(i+1) steps as straight-line assignments, so
a subterm is rebuilt only when a name it uses changes; it counts and
tests each binding inline.  Its source names only slots and argument
positions: the algebra enters as the tuple of step functions that
`expr.NODES` binds on its kernel object (`relations.kernels`, looked up
once per check), which are the object's memos themselves, and the family
mode as the `members` function that gives each quantifier's relations
(`_members`).  Exhaustive families are the object's listings
(`Kernels.family`, once per kind per algebra).  So one plan per
condition spec serves every algebra and both modes, cached by the spec's
value (`_plan`).  A plan's values are the `bits` ints of relations, and
sampled draws too; `BinRel`s appear only in a failing sweep's witness.
Bindings are visited in nested order, the first quantifier outermost and
each family in enumeration order, and the first violating binding stops
the sweep: the verdict, witness and count are those of a plain
per-binding walk with `eval_expr`, which stays the reference (explicit
bindings and `recheck_witness` use it).

Sampled verdicts are never reported as "holds": a sampled sweep that finds
nothing says so explicitly.

Every failing report's witness is re-evaluated with `eval_expr` before
`check_condition` returns it (`recheck_witness`); a disagreement is an
implementation failure (`InvariantViolation`).

`check_ids` is the one path from ids to reports (for `check`,
`check-all`, `check_meta`, the problem profile and `search`): an alias
takes its original's report, and a meta-check (a row of
`conditions.META_CHECKS`) applies its rule to its members' reports with
`meta_report`.  Every rule asks `_proven` whether a member holds, so only
a "holds" verdict counts.
"""

from __future__ import annotations

import random

from . import conditions
from .algebra import PLAN_ENTRIES, Value, memo
from .conditions import ANY, CONDITIONS, ConditionSpec
from .expr import (
    NODES,
    EvalError,
    Intersect,
    Literal,
    NameRef,
    RelExpr,
    Union,
    children,
    eval_expr,
    pretty,
)
from .relations import (
    BinRel,
    InvariantViolation,
    RelFamily,
    UsageError,
    check_universe,
    delta_bits,
    kernels,
    random_pairs,
)

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_SAMPLED_OK = "no counterexample found (sampled)"


class Witness(Value):
    """A concrete violating binding: the condition id, the relations by
    name (each a list of pairs) and the bad pair (or None)."""

    __slots__ = _fields = ("condition", "relations", "pair")

    def to_record(self):
        return {
            "condition": self.condition,
            "relations": {
                name: [list(p) for p in pairs]
                for name, pairs in sorted(self.relations.items())
            },
            "pair": list(self.pair) if self.pair is not None else None,
        }


class PropertyReport(Value):
    """One condition's verdict."""

    __slots__ = _fields = (
        "condition", "holds", "witness", "relations_checked", "family_mode", "detail"
    )

    def __init__(self, condition, holds, witness, relations_checked, family_mode, detail=None):
        detail = {} if detail is None else detail
        if not holds and witness is None and not detail:
            raise InvariantViolation("failed report requires a witness")
        Value.__init__(self, condition, holds, witness, relations_checked, family_mode, detail)

    @property
    def verdict(self) -> str:
        if not self.holds:
            return VERDICT_FAILS
        if self.family_mode == "sampled":
            return VERDICT_SAMPLED_OK
        return VERDICT_HOLDS

    def to_record(self):
        return {
            "id": self.condition,
            "verdict": self.verdict,
            "witness": self.witness.to_record() if self.witness else None,
            "relations_checked": self.relations_checked,
            "family_mode": self.family_mode,
            "detail": self.detail,
        }

    def to_text(self):
        lines = [f"{self.condition}: {self.verdict} ({self.relations_checked} bindings, {self.family_mode})"]
        if self.witness:
            for name, pairs in sorted(self.witness.relations.items()):
                lines.append(f"  {name} = {pretty(Literal(tuple(map(tuple, pairs))))}")
            if self.witness.pair is not None:
                lines.append(f"  violating pair: {self.witness.pair}")
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _spec(cond_id) -> ConditionSpec:
    try:
        return CONDITIONS[cond_id]
    except KeyError:
        raise UsageError(
            f"unknown condition {cond_id!r}; valid: {', '.join(sorted(CONDITIONS))}"
        ) from None


def _make_witness(spec, env, pair):
    return Witness(
        condition=spec.id,
        relations={name: rel.pairs() for name, rel in env.items()},
        pair=pair,
    )


def _least_pair(bad, n):
    """The pair of the lowest set bit of the nonzero relation bits `bad`."""
    return divmod((bad & -bad).bit_length() - 1, n)


# steps spelled as operators in a plan's source instead of kernel calls
_OPERATORS = {Intersect: "&", Union: "|"}


class _Plan:
    """A condition compiled into one generated Python function, `sweep`,
    that walks all of its bindings; the plan holds no algebra.

    Every distinct subterm of the two sides and of the quantifiers' `above`
    bounds gets one slot, the local `s<slot>` of `sweep`; equal subterms
    share it.  A step computes one slot from its children's slots.  Its
    level is the deepest quantifier among its free names: the level-0 steps
    run once, and the level-(i+1) steps right after quantifier i is bound,
    so a subterm is recomputed only when a name it uses changes.
    Intersect and Union are spelled `&` and `|`; every other step calls
    the function of its node in `expr.NODES`, bound on the algebra's
    kernel object, which `sweep` takes in `fns`, in the order of
    `kernels`.  The constant slots (a literal's pairs) are read from
    `consts`.

    `sweep(fns, consts, members)` binds quantifier i to each relation bits
    of `members(i, bound)`, where `bound` is its `above` bound (0 for
    none), and counts and tests every full binding.  It returns (bindings
    checked, the names' bits at the first violating binding or None, that
    binding's bad bits).  The source
    spells only slot numbers, argument positions and fixed names, so it
    depends on the spec alone, and not on the algebra or the family mode.
    """

    def __init__(self, spec):
        self.spec = spec
        quantifiers = spec.quantifiers
        self.consts = []
        self.kernels = []  # the node type of each called step, in order
        self.level_of = []
        self.slot_of = {}
        self.steps = [[] for _ in range(len(quantifiers) + 1)]  # source lines per level
        self.names = [self._new_slot(NameRef(q.name), i + 1) for i, q in enumerate(quantifiers)]
        self.above = [None if q.above is None else self._visit(q.above) for q in quantifiers]
        self.lhs = self._visit(spec.lhs)
        self.rhs = self._visit(spec.rhs)
        self.consts = tuple(self.consts)
        self.source = self._source()
        namespace = {"__builtins__": {}}  # `sweep` reads only its arguments
        exec(compile(self.source, "<condition plan>", "exec"), namespace)
        self.sweep = namespace["sweep"]

    def _new_slot(self, key, level):
        slot = self.slot_of[key] = len(self.level_of)
        self.level_of.append(level)
        return slot

    def _visit(self, node):
        slot = self.slot_of.get(node)
        if slot is not None:
            return slot
        if not isinstance(node, RelExpr):
            slot = self._new_slot(node, 0)
            self.steps[0].append(f"s{slot} = consts[{len(self.consts)}]")
            self.consts.append(node)
            return slot
        if type(node) is NameRef:
            raise EvalError(f"unbound relation name {node.name!r}")
        args = [self._visit(c) for c in children(node)]
        level = max((self.level_of[a] for a in args), default=0)
        slot = self._new_slot(node, level)
        operands = [f"s{a}" for a in args]
        if type(node) in _OPERATORS:
            value = f" {_OPERATORS[type(node)]} ".join(operands)
        else:
            value = f"f{len(self.kernels)}({', '.join(operands)})"
            self.kernels.append(type(node))
        self.steps[level].append(f"s{slot} = {value}")
        return slot

    def _source(self):
        lines = ["def sweep(fns, consts, members):"]
        pad = "    "
        if self.kernels:
            lines.append(pad + "".join(f"f{k}, " for k in range(len(self.kernels))) + "= fns")
        lines += [pad + step for step in self.steps[0]]
        lines.append(pad + "checked = 0")
        for i, (name, above) in enumerate(zip(self.names, self.above)):
            bound = 0 if above is None else f"s{above}"
            lines.append(f"{pad}for s{name} in members({i}, {bound}):")
            pad += "    "
            lines += [pad + step for step in self.steps[i + 1]]
        lhs, rhs = f"s{self.lhs}", f"s{self.rhs}"
        bad = f"{lhs} & ~{rhs}" if self.spec.relation == "subset" else f"{lhs} ^ {rhs}"
        bound_names = "".join(f"s{name}, " for name in self.names)
        lines += [
            f"{pad}checked += 1",
            f"{pad}bad = {bad}",
            f"{pad}if bad:",
            f"{pad}    return checked, ({bound_names}), bad",
            "    return checked, None, 0",
        ]
        return "\n".join(lines) + "\n"


def _family_lists(alg, quantifiers):
    """Each quantifier's family as relation bits, `Kernels.family(kind)`,
    which checks the cap on n; `ANY` is refused in quantifier order."""
    k = kernels(alg)
    lists = []
    for q in quantifiers:
        if q.kind == ANY:
            raise ValueError(
                f"quantifier {q.name!r} ranges over arbitrary relations; "
                "only sampled mode can sweep it"
            )
        lists.append(k.family(q.kind))
    return lists


def _drawer(alg, kind):
    """`draw(above, rng)`: one relation of `kind` on alg drawn from rng,
    above the bits `above` (0 for no bound) unless `kind` is ANY."""
    n = alg.size
    if kind != ANY:
        close = kernels(alg).closure(kind)
        return lambda above, rng: close(above | random_pairs(rng, n, rng.randint(0, 3)))

    def draw(above, rng):
        roll = rng.random()
        if roll < 0.1:
            return 0
        if roll < 0.2:
            return delta_bits(n)
        if roll < 0.3:
            return (1 << n * n) - 1
        return rng.getrandbits(n * n)

    return draw


def _members(alg, quantifiers, family):
    """`members(i, bound)` for a plan's sweep: the relation bits of
    quantifier i above `bound`, the bits of its `above` bound at one
    binding of the quantifiers before it (0 for none).

    The mode decides only this: exhaustively, the members of quantifier
    i's family above `bound`, in enumeration order (the family's list
    itself for bound 0); sampled, draws from one
    `random.Random(family.seed)`, `family.sample_count` for the first
    quantifier and one for each later quantifier per binding of the one
    before, each drawn above `bound`.
    """
    if family.mode == "sampled":
        check_universe(alg.size, "a sampled sweep")
        rng = random.Random(family.seed)
        draws = [_drawer(alg, q.kind) for q in quantifiers]

        def members(i, bound):
            draw = draws[i]
            for _ in range(family.sample_count if i == 0 else 1):
                yield draw(bound, rng)

        return members
    lists = _family_lists(alg, quantifiers)
    return lambda i, bound: [m for m in lists[i] if not bound & ~m] if bound else lists[i]


# Plans hold no algebra, so one plan per spec serves every algebra.  The
# key is the spec's value, never its id alone: specs built outside the
# condition table may share an id.
_plan = memo(PLAN_ENTRIES)(_Plan)


def _sweep(alg, spec, members):
    """(bindings checked, the witness of the first violating binding or
    None), by the plan of `spec` with its steps bound to alg's kernel
    object, looked up once.

    Bindings are visited in nested quantifier order, the first quantifier
    outermost, each over `members` (`_members`), which gives only
    relations above their quantifier's bound.

    Running a level's steps once per binding of that level adds no
    evaluation a per-binding walk would not make: each partial binding
    extends to a full one, since every family contains the full relation,
    which passes every bound, and every draw is above its bound.
    """
    plan = _plan(spec)
    k = kernels(alg)
    n = k.n
    fns = tuple(NODES[kernel](k) for kernel in plan.kernels)
    checked, bits, bad = plan.sweep(fns, plan.consts, members)
    if bits is None:
        return checked, None
    env = {q.name: BinRel(n, b) for q, b in zip(spec.quantifiers, bits)}
    return checked, _make_witness(spec, env, _least_pair(bad, n))


def check_condition(alg, cond_id: str, family: RelFamily) -> PropertyReport:
    """Quantify one condition over its families; first violation wins.

    A failing sweep's witness is re-evaluated by the reference evaluator
    (`recheck_witness`) before the report is returned, so every report
    that `check_ids` stores, and that an alias copies, was rechecked; a
    witness that does not violate its condition raises InvariantViolation.
    """
    spec = _spec(cond_id)
    checked, witness = _sweep(alg, spec, _members(alg, spec.quantifiers, family))
    report = PropertyReport(
        condition=cond_id,
        holds=witness is None,
        witness=witness,
        relations_checked=checked,
        family_mode=family.mode,
    )
    if witness is not None and not recheck_witness(alg, report):
        raise InvariantViolation(
            f"the sweep of {cond_id} reports a binding that does not violate it: "
            f"{witness.relations}"
        )
    return report


def _eval_bound(alg, spec, env):
    """The violating pair of `spec` at one explicit binding, or None."""
    lhs = eval_expr(alg, env, spec.lhs).bits
    rhs = eval_expr(alg, env, spec.rhs).bits
    bad = lhs & ~rhs if spec.relation == "subset" else lhs ^ rhs
    return _least_pair(bad, alg.size) if bad else None


def _check_bound(alg, cond_id, rels) -> PropertyReport:
    """Evaluate one condition at one explicit binding."""
    spec = _spec(cond_id)
    missing = [q.name for q in spec.quantifiers if q.name not in rels]
    if missing:
        raise ValueError(
            f"{cond_id} needs bindings for {', '.join(sorted(missing))}"
        )
    env = {q.name: rels[q.name] for q in spec.quantifiers}
    pair = _eval_bound(alg, spec, env)
    return PropertyReport(
        condition=cond_id,
        holds=pair is None,
        witness=None if pair is None else _make_witness(spec, env, pair),
        relations_checked=1,
        family_mode="explicit",
    )


def check_lemma_x1a(alg, part: str, rels: dict) -> PropertyReport:
    """Parts 'I'/'II'/'III' of the first lemma at an explicit binding."""
    return _check_bound(alg, f"L1A_{part.upper()}", rels)


def check_lemma_x1b(alg, part: str, rels: dict) -> PropertyReport:
    return _check_bound(alg, f"L1B_{part.upper()}", rels)


def _proven(report) -> bool:
    """Whether a member counts as true in a meta-check: only the verdict
    "holds" does, so a sampled sweep that found nothing proves nothing."""
    return report.verdict == VERDICT_HOLDS


def _first_failure(reports):
    return next((r for r in reports if not r.holds), None)


def _agree(reports):
    """The members are proved equivalent, so they must agree; disagreement
    is an implementation failure, reported with the witness of the first
    failing member."""
    holds = len({_proven(r) for r in reports.values()}) == 1
    bad = None if holds else _first_failure(reports.values())
    return holds, bad, {"members": {m: r.holds for m, r in reports.items()}}


def _chain(reports):
    """No member in the displayed order may hold while a later one fails."""
    rs = list(reports.values())
    first = next((i for i, r in enumerate(rs) if _proven(r)), len(rs))
    bad = _first_failure(rs[first + 1:])
    return bad is None, bad, {"members": {m: r.holds for m, r in reports.items()}}


def _implies(reports):
    """When the hypothesis holds, the conclusion and the corollary must.
    Otherwise the implication is vacuous; the two are still reported for
    information."""
    hyp, conc, cor = reports.values()
    detail = {
        "hypothesis": hyp.verdict,
        "conclusion": conc.verdict,
        "corollary": cor.verdict,
    }
    if not _proven(hyp):
        status = "false" if not hyp.holds else "not proven"
        detail["note"] = f"hypothesis {status}, conclusion not claimed"
        return True, None, detail
    bad = _first_failure((conc, cor))
    return bad is None, bad, detail


_RULES = {"agree": _agree, "chain": _chain, "implies": _implies}


def meta_report(meta_id: str, member_reports: dict, family: RelFamily) -> PropertyReport:
    """The meta-check `meta_id` over its members' reports, taken by id
    from `member_reports` (which may hold other reports too).  A violation
    carries the witness of the member that broke the rule."""
    rule, members = conditions.META_CHECKS[meta_id]
    reports = {m: member_reports[m] for m in members}
    holds, bad, detail = _RULES[rule](reports)
    return PropertyReport(
        condition=meta_id,
        holds=holds,
        witness=None if bad is None else bad.witness,
        relations_checked=sum(r.relations_checked for r in reports.values()),
        family_mode=family.mode,
        detail=detail,
    )


def check_ids(alg, ids, family: RelFamily) -> dict[str, PropertyReport]:
    """The reports of condition and meta-check ids over `family`, in the
    order of `ids`, each condition swept at most once.  An alias takes its
    original's report under its own id, and a condition in
    `conditions.SAMPLED_ONLY` is swept in sampled mode.  An unknown id is
    refused before anything is swept."""
    for cid in ids:
        if cid not in CONDITIONS and cid not in conditions.META_CHECKS:
            raise UsageError(
                f"unknown condition {cid!r}; valid: {', '.join(sorted(CONDITIONS))}; "
                f"meta-checks: {', '.join(sorted(conditions.META_CHECKS))}"
            )
    swept = {}

    def report(cid):
        if cid not in swept:
            original = conditions.ALIASES.get(cid)
            if original is not None:
                rep = report(original)
                witness = None if rep.witness is None else rep.witness._replace(condition=cid)
                swept[cid] = rep._replace(condition=cid, witness=witness)
            else:
                fam = family._replace(mode="sampled") if cid in conditions.SAMPLED_ONLY else family
                swept[cid] = check_condition(alg, cid, fam)
        return swept[cid]

    reports = {}
    for cid in ids:
        if cid in conditions.META_CHECKS:
            _, members = conditions.META_CHECKS[cid]
            reports[cid] = meta_report(cid, {m: report(m) for m in members}, family)
        else:
            reports[cid] = report(cid)
    return reports


def check_meta(alg, meta_id: str, family: RelFamily) -> PropertyReport:
    """Check the members of one meta-check over `family`, then its rule."""
    return check_ids(alg, [meta_id], family)[meta_id]


def evaluate_problem_profile(alg, ids=conditions.PROBLEM_IDS) -> dict[str, bool]:
    """The truth profile of `ids` (the open-problem conditions by default),
    exhaustively quantified.  Derivable implications between two of them
    are checked; a violation is an implementation bug (InvariantViolation).
    An id in `conditions.SAMPLED_ONLY` is refused: a sampled sweep that
    finds no violation proves nothing, so it is no profile bit."""
    for cid in ids:
        if cid in conditions.SAMPLED_ONLY:
            raise UsageError(f"{cid} can only be sampled; a problem profile is exhaustive")
    reports = check_ids(alg, ids, RelFamily(mode="exhaustive"))
    profile = {cid: rep.holds for cid, rep in reports.items()}
    for stronger, weaker in conditions.PROBLEM_IMPLICATIONS:
        if profile.get(stronger) and not profile.get(weaker, True):
            raise InvariantViolation(
                f"profile implication {stronger} => {weaker} violated: {profile}"
            )
    return profile


def recheck_witness(alg, report: PropertyReport) -> bool:
    """True iff the stored witness still violates its condition."""
    if report.witness is None:
        return False
    spec = _spec(report.witness.condition)
    env = {
        name: BinRel.from_pairs(alg.size, pairs)
        for name, pairs in report.witness.relations.items()
    }
    return _eval_bound(alg, spec, env) is not None
