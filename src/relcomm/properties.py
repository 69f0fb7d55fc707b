"""Quantified condition checkers with reproducible witnesses.

A checker evaluates one entry of the condition table over a relation
family and reports either success over the whole range or the first
violating binding.  Failed reports always carry a witness that can be
re-evaluated standalone (`recheck_witness`).

Sampled verdicts are never reported as "holds": a sampled sweep that finds
nothing says so explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import conditions
from .conditions import ANY, CONDITIONS, ConditionSpec
from .expr import eval_expr
from .relations import (
    CONGRUENCE,
    REFLEXIVE_ADMISSIBLE,
    TOLERANCE,
    BinRel,
    InvariantViolation,
    RelFamily,
    adm_close,
    cg,
    enumerate_relations,
    tol_close,
    union_,
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
            raise ValueError("failed report requires a witness")

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
                body = ",".join(f"({a},{b})" for a, b in pairs)
                lines.append(f"  {name} = {{{body}}}")
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


def _eval_instance(alg, spec, env):
    """(ok, violating pair or None) for one binding."""
    lhs = eval_expr(alg, env, spec.lhs)
    rhs = eval_expr(alg, env, spec.rhs)
    if spec.relation == "subset":
        bad = lhs.bits & ~rhs.bits
    else:
        bad = lhs.bits ^ rhs.bits
    if bad == 0:
        return True, None
    i = (bad & -bad).bit_length() - 1
    return False, divmod(i, alg.size)


def _make_witness(spec, env, pair):
    return Witness(
        condition=spec.id,
        relations={name: rel.pairs() for name, rel in env.items()},
        pair=pair,
    )


def _exhaustive_bindings(alg, quantifiers, family, env):
    if not quantifiers:
        yield dict(env)
        return
    q = quantifiers[0]
    if q.kind == ANY:
        raise ValueError(
            f"quantifier {q.name!r} ranges over arbitrary relations; "
            "only sampled mode can sweep it"
        )
    for rel in enumerate_relations(alg, family.with_kind(q.kind)):
        if q.above is not None and not eval_expr(alg, env, q.above).is_subset(rel):
            continue
        env[q.name] = rel
        yield from _exhaustive_bindings(alg, quantifiers[1:], family, env)
        del env[q.name]


def _sample_one(alg, q, env, rng):
    n = alg.size
    if q.kind == ANY:
        roll = rng.random()
        if roll < 0.1:
            return BinRel.empty(n)
        if roll < 0.2:
            return BinRel.delta(n)
        if roll < 0.3:
            return BinRel.full(n)
        return BinRel(n, rng.getrandbits(n * n))
    pairs = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))
    ]
    base = BinRel.from_pairs(n, pairs)
    if q.above is not None:
        return cg(alg, union_(eval_expr(alg, env, q.above), base))
    if q.kind == REFLEXIVE_ADMISSIBLE:
        return adm_close(alg, union_(BinRel.delta(n), base))
    if q.kind == TOLERANCE:
        return tol_close(alg, base)
    if q.kind == CONGRUENCE:
        return cg(alg, base)
    raise ValueError(f"unknown quantifier kind {q.kind!r}")


def _sampled_bindings(alg, quantifiers, family):
    rng = random.Random(family.seed)
    for _ in range(family.sample_count):
        env = {}
        for q in quantifiers:
            env[q.name] = _sample_one(alg, q, env, rng)
        yield env


def iter_bindings(alg, quantifiers, family):
    if family.mode == "sampled":
        yield from _sampled_bindings(alg, quantifiers, family)
    else:
        yield from _exhaustive_bindings(alg, list(quantifiers), family, {})


def check_condition(alg, cond_id: str, family: RelFamily) -> PropertyReport:
    """Quantify one condition over its families; first violation wins."""
    spec = _spec(cond_id)
    checked = 0
    for env in iter_bindings(alg, spec.quantifiers, family):
        checked += 1
        ok, pair = _eval_instance(alg, spec, env)
        if not ok:
            return PropertyReport(
                condition=cond_id,
                holds=False,
                witness=_make_witness(spec, env, pair),
                relations_checked=checked,
                family_mode=family.mode,
            )
    return PropertyReport(
        condition=cond_id,
        holds=True,
        witness=None,
        relations_checked=checked,
        family_mode=family.mode,
    )


check_theorem_condition = check_condition


def _check_bound(alg, cond_id, rels) -> PropertyReport:
    """Evaluate one condition at one explicit binding."""
    spec = _spec(cond_id)
    missing = [q.name for q in spec.quantifiers if q.name not in rels]
    if missing:
        raise ValueError(
            f"{cond_id} needs bindings for {', '.join(sorted(missing))}"
        )
    env = {q.name: rels[q.name] for q in spec.quantifiers}
    ok, pair = _eval_instance(alg, spec, env)
    return PropertyReport(
        condition=cond_id,
        holds=ok,
        witness=None if ok else _make_witness(spec, env, pair),
        relations_checked=1,
        family_mode="explicit",
    )


def check_lemma_x1a(alg, part: str, rels: dict) -> PropertyReport:
    """Parts 'I'/'II'/'III' of the first lemma at an explicit binding."""
    return _check_bound(alg, f"L1A_{part.upper()}", rels)


def check_lemma_x1b(alg, part: str, rels: dict) -> PropertyReport:
    return _check_bound(alg, f"L1B_{part.upper()}", rels)


def check_equivalence_claims(alg, family: RelFamily) -> list[PropertyReport]:
    """Each equivalence group must agree in truth value across members.

    Disagreement is an implementation failure (the members are proved
    equivalent), reported with the witness of a failing member.
    """
    out = []
    for group_id, members in conditions.EQUIVALENCE_GROUPS:
        reports = {m: check_condition(alg, m, family) for m in members}
        values = {m: r.holds for m, r in reports.items()}
        agree = len(set(values.values())) == 1
        witness = None
        if not agree:
            for m in members:
                if not reports[m].holds:
                    witness = reports[m].witness
                    break
        out.append(
            PropertyReport(
                condition=group_id,
                holds=agree,
                witness=witness,
                relations_checked=sum(r.relations_checked for r in reports.values()),
                family_mode=family.mode,
                detail={"members": values},
            )
        )
    return out


def check_implication_chain(alg, theorem: str, family: RelFamily) -> PropertyReport:
    """No condition in the displayed order may hold while a later one fails."""
    chain = {"x2": conditions.X2_CHAIN, "x3": conditions.X3_CHAIN}[theorem.lower()]
    reports = [check_condition(alg, cid, family) for cid in chain]
    values = {cid: r.holds for cid, r in zip(chain, reports)}
    first_true = next((i for i, r in enumerate(reports) if r.holds), None)
    bad = None
    if first_true is not None:
        for i in range(first_true + 1, len(reports)):
            if not reports[i].holds:
                bad = i
                break
    return PropertyReport(
        condition=f"CHAIN_{theorem.upper()}",
        holds=bad is None,
        witness=reports[bad].witness if bad is not None else None,
        relations_checked=sum(r.relations_checked for r in reports),
        family_mode=family.mode,
        detail={"members": values},
    )


def check_theorem_x4(alg, part: str, family: RelFamily) -> PropertyReport:
    """Hypothesis first; when it holds the conclusion and the congruence
    corollary are quantified and must hold.  A false hypothesis leaves the
    implication vacuous (the conclusion is still evaluated for information).
    """
    part = part.upper()
    hyp_id = {"I": "T4_I_HYP", "II": "T4_II_HYP"}[part]
    conc_id = {"I": "T4_I_CONC", "II": "T4_II_CONC"}[part]
    cor_id = {"I": "T4_I_COR", "II": "T4_II_COR"}[part]
    hyp = check_condition(alg, hyp_id, family)
    conc = check_condition(alg, conc_id, family)
    cor = check_condition(alg, cor_id, family)
    detail = {
        "hypothesis": hyp.verdict,
        "conclusion": conc.verdict,
        "corollary": cor.verdict,
    }
    checked = hyp.relations_checked + conc.relations_checked + cor.relations_checked
    if not hyp.holds:
        detail["note"] = "hypothesis false, conclusion not claimed"
        return PropertyReport(
            condition=f"T4_{part}",
            holds=True,
            witness=None,
            relations_checked=checked,
            family_mode=family.mode,
            detail=detail,
        )
    failing = next((r for r in (conc, cor) if not r.holds), None)
    return PropertyReport(
        condition=f"T4_{part}",
        holds=failing is None,
        witness=failing.witness if failing else None,
        relations_checked=checked,
        family_mode=family.mode,
        detail=detail,
    )


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
    ok, _ = _eval_instance(alg, spec, env)
    return not ok
