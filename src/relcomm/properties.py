"""Quantified condition checkers with reproducible witnesses.

A checker evaluates one entry of the condition table over a relation
family and reports either success over the whole range or the first
violating binding.  Failed reports always carry a witness that can be
re-evaluated standalone (`recheck_witness`).

`check_condition` compiles its condition into a plan (`_Plan`): one step
per distinct subterm, each at a level, the deepest quantifier among its
free names (or constant).  The sweep lists each quantifier's family once,
runs the constant steps once, and after binding quantifier i runs only the
level-i steps, so a subterm is rebuilt only when a name it uses changes.
A plan's values are the `bits` ints of relations, computed by the node
functions of `expr.NODES` bound to the algebra, and sampled draws too;
`BinRel`s appear only at the boundary, in the families' listing and the
witness.
Bindings are visited in nested order, the first quantifier outermost and
each family in enumeration order, and the first violating binding stops
the sweep: the verdict, witness and count are those of a plain
per-binding walk with `eval_expr`, which stays the reference (explicit
bindings and `recheck_witness` use it).

Sampled verdicts are never reported as "holds": a sampled sweep that finds
nothing says so explicitly.

A meta-check (a row of `conditions.META_CHECKS`) applies its rule to its
members' reports: `meta_report` does so for reports already made, as
`check-all` has them, and `check_meta` sweeps the members first.  Every
rule asks `_proven` whether a member holds, so only a "holds" verdict
counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import conditions
from .conditions import ANY, CONDITIONS, ConditionSpec
from .expr import NODES, EvalError, Literal, NameRef, RelExpr, children, eval_expr, pretty
from .relations import (
    BinRel,
    InvariantViolation,
    RelFamily,
    delta_bits,
    enumerate_relations,
    family_closure,
    random_pairs,
)

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_SAMPLED_OK = "no counterexample found (sampled)"


@dataclass
class Witness:
    """A concrete violating binding: relations by name plus the bad pair."""

    condition: str
    relations: dict[str, list[tuple[int, int]]]
    pair: tuple[int, int] | None

    def to_record(self):
        return {
            "condition": self.condition,
            "relations": {
                name: [list(p) for p in pairs]
                for name, pairs in sorted(self.relations.items())
            },
            "pair": list(self.pair) if self.pair is not None else None,
        }


@dataclass
class PropertyReport:
    condition: str
    holds: bool
    witness: Witness | None
    relations_checked: int
    family_mode: str
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.holds and self.witness is None and not self.detail:
            raise InvariantViolation("failed report requires a witness")

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
                lines.append(f"  {name} = {pretty(Literal(tuple(pairs)))}")
            if self.witness.pair is not None:
                lines.append(f"  violating pair: {self.witness.pair}")
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def _spec(cond_id) -> ConditionSpec:
    try:
        return CONDITIONS[cond_id]
    except KeyError:
        raise ValueError(f"unknown condition id {cond_id!r}") from None


def _make_witness(spec, env, pair):
    return Witness(
        condition=spec.id,
        relations={name: rel.pairs() for name, rel in env.items()},
        pair=pair,
    )


def _violation(spec, n, lhs, rhs):
    """The least pair that breaks `lhs <= rhs` (or `lhs == rhs`), given as
    relation bits, or None."""
    if spec.relation == "subset":
        bad = lhs & ~rhs
    else:
        bad = lhs ^ rhs
    if bad == 0:
        return None
    return divmod((bad & -bad).bit_length() - 1, n)


class _Plan:
    """A condition compiled into numbered steps over one array of relation
    bits, bound to one algebra.

    Every distinct subterm of the two sides and of the quantifiers' `above`
    bounds gets one slot; equal subterms share it.  A step computes one
    slot from its children's slots with the node's function from
    `expr.NODES`, bound to the algebra when the plan is built.  Its level is
    the deepest quantifier among its free names, and `steps[i + 1]` runs
    right after quantifier i is bound (`steps[0]` holds the constant
    steps), so a subterm is recomputed only when a name it uses changes.
    Slots hold `bits` ints; `env` turns a binding back into `BinRel`s.
    """

    def __init__(self, spec, alg):
        self.spec = spec
        self.alg = alg
        self.n = alg.size
        quantifiers = spec.quantifiers
        self.initial = []  # slot values known before any step runs
        self.level_of = []
        self.steps = [[] for _ in range(len(quantifiers) + 1)]
        self.slot_of = {}
        self.names = [self._new_slot(NameRef(q.name), i + 1) for i, q in enumerate(quantifiers)]
        self.above = [None if q.above is None else self._visit(q.above) for q in quantifiers]
        self.lhs = self._visit(spec.lhs)
        self.rhs = self._visit(spec.rhs)

    def _new_slot(self, key, level, value=None):
        slot = self.slot_of[key] = len(self.initial)
        self.initial.append(value)
        self.level_of.append(level)
        return slot

    def _visit(self, node):
        if node in self.slot_of:
            return self.slot_of[node]
        if not isinstance(node, RelExpr):
            return self._new_slot(node, 0, node)
        if type(node) is NameRef:
            raise EvalError(f"unbound relation name {node.name!r}")
        args = tuple(self._visit(c) for c in children(node))
        level = max((self.level_of[a] for a in args), default=0)
        slot = self._new_slot(node, level)
        self.steps[level].append((slot, NODES[type(node)][1](self.alg, self.n), args))
        return slot

    def start(self):
        """A value array with the constant steps done."""
        vals = list(self.initial)
        self.run(vals, 0)
        return vals

    def run(self, vals, level):
        for out, fn, args in self.steps[level]:
            # most steps are binary or unary; spelling those out saves
            # building an argument list per step
            if len(args) == 2:
                vals[out] = fn(vals[args[0]], vals[args[1]])
            elif len(args) == 1:
                vals[out] = fn(vals[args[0]])
            else:
                vals[out] = fn(*[vals[a] for a in args])

    def bind(self, vals, i, bits):
        """Bind quantifier i to the relation `bits` and run the steps that
        depend on it."""
        vals[self.names[i]] = bits
        self.run(vals, i + 1)

    def violation(self, vals):
        return _violation(self.spec, self.n, vals[self.lhs], vals[self.rhs])

    def env(self, vals):
        return {
            q.name: BinRel(self.n, vals[slot])
            for q, slot in zip(self.spec.quantifiers, self.names)
        }


def _family_lists(alg, quantifiers, family):
    """Each quantifier's family as relation bits, listed once per kind."""
    lists = {}
    for q in quantifiers:
        if q.kind == ANY:
            raise ValueError(
                f"quantifier {q.name!r} ranges over arbitrary relations; "
                "only sampled mode can sweep it"
            )
        if q.kind not in lists:
            lists[q.kind] = tuple(
                rel.bits for rel in enumerate_relations(alg, family.with_kind(q.kind))
            )
    return [lists[q.kind] for q in quantifiers]


def _sweep_exhaustive(alg, plan, family):
    """(bindings checked, first violating vals and pair or None).

    Bindings are visited in nested quantifier order, the first quantifier
    outermost, each over its family in enumeration order; a binding whose
    relation is not above its quantifier's bound is skipped uncounted.
    Running a level's steps once per binding of that level adds no
    evaluation a per-binding walk would not make: every family is
    non-empty and contains the full relation, which passes every bound, so
    each partial binding extends to at least one full binding.
    """
    lists = _family_lists(alg, plan.spec.quantifiers, family)
    vals = plan.start()
    depth = len(lists)
    checked = 0

    def descend(i):
        nonlocal checked
        above = plan.above[i]
        inner = i + 1 < depth
        for bits in lists[i]:
            if above is not None and vals[above] & ~bits:
                continue
            plan.bind(vals, i, bits)
            if inner:
                pair = descend(i + 1)
            else:
                checked += 1
                pair = plan.violation(vals)
            if pair is not None:
                return pair
        return None

    if depth:
        pair = descend(0)
    else:
        checked = 1
        pair = plan.violation(vals)
    return checked, None if pair is None else (vals, pair)


def _sample_one(alg, q, above, rng):
    """One relation drawn for q, above the bits `above` (0 for no bound)."""
    n = alg.size
    if q.kind == ANY:
        roll = rng.random()
        if roll < 0.1:
            return 0
        if roll < 0.2:
            return delta_bits(n)
        if roll < 0.3:
            return (1 << n * n) - 1
        return rng.getrandbits(n * n)
    return family_closure(alg, q.kind)(above | random_pairs(rng, n, rng.randint(0, 3)))


def _sweep_sampled(alg, plan, family):
    """Like `_sweep_exhaustive`, over `family.sample_count` bindings drawn
    from `family.seed`, quantifier by quantifier; every step that depends
    on a quantifier runs for each drawn binding."""
    rng = random.Random(family.seed)
    start = plan.start()
    checked = 0
    for _ in range(family.sample_count):
        checked += 1
        vals = list(start)
        for i, q in enumerate(plan.spec.quantifiers):
            above = plan.above[i]
            bound = 0 if above is None else vals[above]
            plan.bind(vals, i, _sample_one(alg, q, bound, rng))
        pair = plan.violation(vals)
        if pair is not None:
            return checked, (vals, pair)
    return checked, None


def check_condition(alg, cond_id: str, family: RelFamily) -> PropertyReport:
    """Quantify one condition over its families; first violation wins."""
    spec = _spec(cond_id)
    plan = _Plan(spec, alg)
    sweep = _sweep_sampled if family.mode == "sampled" else _sweep_exhaustive
    checked, found = sweep(alg, plan, family)
    witness = None
    if found is not None:
        vals, pair = found
        witness = _make_witness(spec, plan.env(vals), pair)
    return PropertyReport(
        condition=cond_id,
        holds=found is None,
        witness=witness,
        relations_checked=checked,
        family_mode=family.mode,
    )


def _eval_bound(alg, spec, env):
    """The violating pair of `spec` at one explicit binding, or None."""
    lhs = eval_expr(alg, env, spec.lhs)
    rhs = eval_expr(alg, env, spec.rhs)
    return _violation(spec, alg.size, lhs.bits, rhs.bits)


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


def _meta(meta_id):
    try:
        return conditions.META_CHECKS[meta_id]
    except KeyError:
        raise ValueError(f"unknown meta-check id {meta_id!r}") from None


def meta_report(meta_id: str, member_reports: dict, family: RelFamily) -> PropertyReport:
    """The meta-check `meta_id` over its members' reports, taken by id
    from `member_reports` (which may hold other reports too).  A violation
    carries the witness of the member that broke the rule."""
    rule, members = _meta(meta_id)
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


def check_meta(alg, meta_id: str, family: RelFamily) -> PropertyReport:
    """Check the members of one meta-check over `family`, then its rule."""
    _, members = _meta(meta_id)
    reports = {m: check_condition(alg, m, family) for m in members}
    return meta_report(meta_id, reports, family)


def evaluate_problem_profile(alg, family: RelFamily | None = None) -> dict[str, bool]:
    """The five-bit truth profile of the open-problem conditions,
    exhaustively quantified.  Derivable implications between the bits are
    checked; a violation is an implementation bug (InvariantViolation)."""
    family = family or RelFamily(mode="exhaustive")
    profile = {
        cid: check_condition(alg, cid, family).holds
        for cid in conditions.PROBLEM_IDS
    }
    for stronger, weaker in conditions.PROBLEM_IMPLICATIONS:
        if profile[stronger] and not profile[weaker]:
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
