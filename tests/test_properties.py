import itertools
import random

import pytest

from relcomm import (
    BinRel,
    RelFamily,
    check_condition,
    check_lemma_x1a,
    check_lemma_x1b,
    check_meta,
    evaluate_problem_profile,
    meta_report,
    recheck_witness,
)
from relcomm.conditions import ANY, CONDITIONS, META_CHECKS, PROBLEM_IDS, ConditionSpec, Quantifier
from relcomm.expr import Literal, NameRef, RelExpr, children
from relcomm.properties import (
    VERDICT_FAILS,
    VERDICT_HOLDS,
    VERDICT_SAMPLED_OK,
    PropertyReport,
    Witness,
    _drawer,
    _members,
    _sweep,
)
from relcomm.relations import UsageError, kernels

EXH = RelFamily(mode="exhaustive")
EQUIVALENCE_IDS = [m for m, (rule, _) in META_CHECKS.items() if rule == "agree"]


def test_sampled_draw_lies_above_its_bound(algebras):
    # the T4 corollaries draw gamma among the congruences above S & T^-;
    # a draw must contain that bound and be closed in gamma's family
    q = CONDITIONS["T4_I_COR"].quantifiers[-1]
    assert q.above is not None
    rng = random.Random(3)
    for alg in algebras.values():
        close = kernels(alg).closure(q.kind)
        for _ in range(20):
            above = rng.getrandbits(alg.size**2)
            bits = _drawer(alg, q.kind)(above, rng)
            assert bits & above == above and close(bits) == bits, (alg, above)


def test_trivial_algebra_all_conditions_hold(algebras):
    alg = algebras["Trivial1"]
    for cond_id, spec in CONDITIONS.items():
        if any(q.kind == "any" for q in spec.quantifiers):
            continue
        rep = check_condition(alg, cond_id, EXH)
        assert rep.holds, cond_id
        assert rep.verdict == VERDICT_HOLDS


def test_z2_t3_i_fails_with_full_witness(algebras):
    rep = check_condition(algebras["Z2"], "T3_I", EXH)
    assert not rep.holds
    assert rep.verdict == VERDICT_FAILS
    assert rep.witness is not None
    assert set(rep.witness.relations["R"]) == {(a, b) for a in range(2) for b in range(2)}
    assert recheck_witness(algebras["Z2"], rep)


def test_l2_t3_i_holds(algebras):
    rep = check_condition(algebras["L2"], "T3_I", EXH)
    assert rep.holds
    assert rep.relations_checked == 4


def test_witness_reproduces_standalone(algebras):
    for name in ("Z2", "Set2", "Z4", "RB3"):
        alg = algebras[name]
        for cond_id in PROBLEM_IDS + ("SEQ_A", "SEQ_G", "T2_II"):
            rep = check_condition(alg, cond_id, EXH)
            if not rep.holds:
                assert recheck_witness(alg, rep), (name, cond_id)


def test_lemma_explicit_bindings(algebras):
    alg = algebras["Z2"]
    d = BinRel.delta(2)
    full = BinRel.full(2)
    rep = check_lemma_x1a(alg, "I", {"R1": d, "R2": d, "S": d})
    assert rep.holds
    rep = check_lemma_x1a(alg, "i", {"R1": full, "R2": full, "S": full})
    assert rep.holds
    for part in ("I", "II", "III"):
        rels = {"R": full, "S": full, "T": full, "U": full, "R1": full, "R2": full, "V": d}
        assert check_lemma_x1a(alg, part, rels).holds
        assert check_lemma_x1b(alg, part, rels).holds
    # empty filter: lhs of the K-lemmas is empty
    rels["V"] = BinRel.empty(2)
    assert check_lemma_x1b(alg, "I", rels).holds


def test_lemma_missing_binding(algebras):
    with pytest.raises(ValueError, match="R2"):
        check_lemma_x1a(algebras["Z2"], "I", {"R1": BinRel.delta(2), "S": BinRel.delta(2)})


def test_lemma_quantified_never_fails(algebras):
    fam = RelFamily(mode="sampled", sample_count=120, seed=9)
    for name in ("Z3", "C3", "RB3", "Z2xZ2"):
        alg = algebras[name]
        for part in ("I", "II", "III"):
            rep = check_condition(alg, f"L1A_{part}", fam)
            assert rep.holds, (name, part, rep.witness)
            rep = check_condition(alg, f"L1B_{part}", fam)
            assert rep.holds, (name, part, rep.witness)
    assert rep.verdict == VERDICT_SAMPLED_OK


def test_x1b_with_v_delta_implies_x1a_bound(algebras, ra_lists):
    """With the filter set to the diagonal, the K-lemma right side must sit
    inside the first lemma's right side (the trivial containment route)."""
    from relcomm.expr import eval_expr

    for name in ("Z2", "L2", "C3"):
        alg = algebras[name]
        rels = ra_lists[name]
        spec_a = CONDITIONS["L1A_I"]
        spec_b = CONDITIONS["L1B_I"]
        d = BinRel.delta(alg.size)
        for r1 in rels:
            for r2 in rels:
                for s in rels[:4]:
                    env = {"R1": r1, "R2": r2, "S": s, "V": d}
                    rhs_b = eval_expr(alg, env, spec_b.rhs)
                    rhs_a = eval_expr(alg, env, spec_a.rhs)
                    lhs = eval_expr(alg, env, spec_b.lhs)
                    assert lhs.is_subset(rhs_b)
                    assert rhs_b.is_subset(rhs_a)


def _put(e, name, value):
    """`e` with every reference to `name` replaced by `value`."""
    if isinstance(e, NameRef):
        return value if e.name == name else e
    if not isinstance(e, RelExpr):
        return e
    return type(e)(*(_put(c, name, value) for c in children(e)))


# (algebra, id) pairs left out for time: 2.4 M or more bindings each
_SINGLETON_SLOW = {("C3", "L1B_III")} | {
    (name, f"L1B_{part}") for name in ("Set3", "RB3") for part in ("I", "II", "III")
}


def test_k_lemmas_hold_exhaustively_through_singleton_filters(algebras):
    """The K-lemmas L1B_I..III and TRIV_K quantify V over all 2**(n*n)
    relations, so a check of them can only sample V.  They are decided
    exactly by the singletons V = {(x, y)}:

    - each left side K(A, B, V) is the union over V's pairs (x, y) of
      K(A, B, {(x, y)}), since `_bottom_rows` ORs the slices of M(A, B)
      at V's pairs (and K(A, B, {}) is empty);
    - each right side is monotone in V: K is monotone in its filter, and
      composition, converse and intersection are monotone.

    So if LHS({p}) <= RHS({p}) for every pair p, then for every V,
    LHS(V) = U LHS({p}) <= U RHS({p}) <= RHS(V); the converse is the
    special case V = {p}.  Each singleton is swept exhaustively over the
    other quantifiers."""
    for name, alg in algebras.items():
        n = alg.size
        for cid in ("L1B_I", "L1B_II", "L1B_III", "TRIV_K"):
            if (name, cid) in _SINGLETON_SLOW:
                continue
            spec = CONDITIONS[cid]
            assert spec.quantifiers[-1] == Quantifier("V", ANY)
            quantifiers = spec.quantifiers[:-1]
            members = _members(alg, quantifiers, EXH)
            for pair in itertools.product(range(n), repeat=2):
                v = Literal((pair,))
                single = ConditionSpec(
                    cid, quantifiers, _put(spec.lhs, "V", v), _put(spec.rhs, "V", v), spec.relation
                )
                checked, witness = _sweep(alg, single, members)
                assert witness is None, (name, cid, pair, witness)
                assert checked > 0


def test_unknown_ids_are_refused_by_the_function_that_runs_them(algebras, monkeypatch):
    from relcomm import properties
    from relcomm.relations import UsageError

    z2 = algebras["Z2"]
    # check_condition sweeps conditions only, so it lists no meta-check
    with pytest.raises(UsageError, match="unknown condition 'EQ_X2'") as exc:
        check_condition(z2, "EQ_X2", EXH)
    valid = str(exc.value).split("valid: ")[1].split(", ")
    assert valid == sorted(CONDITIONS)
    # check_ids runs both kinds, lists both, and sweeps nothing first
    swept = []
    monkeypatch.setattr(
        properties, "check_condition", lambda alg, cid, family: swept.append(cid)
    )
    with pytest.raises(UsageError, match="unknown condition 'NOPE'") as exc:
        properties.check_ids(z2, ["T3_I", "NOPE"], EXH)
    assert swept == []
    assert "T3_I" in str(exc.value) and "meta-checks: CHAIN_X2" in str(exc.value)


def test_equivalence_claims_catalog(algebras):
    for name in ("Trivial1", "Z2", "L2", "S2", "C3", "Z4"):
        for meta_id in EQUIVALENCE_IDS:
            rep = check_meta(algebras[name], meta_id, EXH)
            assert rep.holds, (name, rep.condition, rep.detail)


def test_equivalence_values_match_examples(algebras):
    assert check_meta(algebras["Z2"], "EQ_X2", EXH).detail["members"] == {
        "T2_I": False,
        "T2_IA": False,
        "T2_IB": False,
        "T2_IC": False,
        "T2_ID": False,
        "T2_II": False,
    }
    assert all(check_meta(algebras["L2"], "EQ_X3", EXH).detail["members"].values())


def test_implication_chains_catalog(algebras):
    for name, alg in algebras.items():
        if name in ("Set3", "RB3"):
            continue  # covered by the acceptance suite; slow here
        for theorem in ("CHAIN_X2", "CHAIN_X3"):
            rep = check_meta(alg, theorem, EXH)
            assert rep.holds, (name, theorem, rep.detail)


def test_theorem_x4_lattices(algebras):
    for name in ("L2", "C3"):
        for part in ("I", "II"):
            rep = check_meta(algebras[name], f"T4_{part}", EXH)
            assert rep.holds
            assert rep.detail["hypothesis"] == VERDICT_HOLDS
            assert rep.detail["conclusion"] == VERDICT_HOLDS
            assert rep.detail["corollary"] == VERDICT_HOLDS


def test_theorem_x4_hypothesis_fails_on_z2(algebras):
    rep = check_meta(algebras["Z2"], "T4_I", EXH)
    assert rep.holds  # vacuous
    assert rep.detail["hypothesis"] == VERDICT_FAILS
    assert rep.detail["note"] == "hypothesis false, conclusion not claimed"
    assert "conclusion" in rep.detail


@pytest.mark.parametrize("mode", ("exhaustive", "sampled"))
def test_meta_checks_count_only_proven_members(mode):
    # every member "holds" but the last of each chain or group and the
    # T4_I conclusion: a violation when exhaustive, but a sampled "no
    # counterexample found" starts no chain, contradicts no failing
    # equivalent member and proves no hypothesis
    meta_ids = ("CHAIN_X2", "EQ_X2", "T4_I")
    failing = {META_CHECKS["CHAIN_X2"][1][-1], META_CHECKS["EQ_X2"][1][-1], "T4_I_CONC"}
    reports = {
        cid: PropertyReport(cid, False, Witness(cid, {}, (0, 1)), 1, mode)
        if cid in failing
        else PropertyReport(cid, True, None, 1, mode)
        for meta_id in meta_ids
        for cid in META_CHECKS[meta_id][1]
    }
    family = RelFamily(mode=mode)
    metas = [meta_report(meta_id, reports, family) for meta_id in meta_ids]
    assert [rep.holds for rep in metas] == [mode == "sampled"] * 3
    if mode == "sampled":
        assert metas[2].detail["note"] == "hypothesis not proven, conclusion not claimed"
    else:
        # the witness is the first failing member's, after the chain's start
        assert [rep.witness.condition for rep in metas] == ["T2_II", "T2_II", "T4_I_CONC"]


def test_problem_profiles(algebras):
    assert all(evaluate_problem_profile(algebras["Trivial1"]).values())
    z2 = evaluate_problem_profile(algebras["Z2"])
    assert not any(z2.values())
    l2 = evaluate_problem_profile(algebras["L2"])
    assert all(l2.values())
    s2 = evaluate_problem_profile(algebras["S2"])
    assert s2 == {
        "PROB_I": False,
        "PROB_II": False,
        "PROB_III": False,
        "PROB_IV": True,
        "PROB_V": True,
    }


@pytest.mark.parametrize("cond_id", ["L1B_I", "TRIV_K"])
def test_problem_profile_refuses_sampled_only_ids(algebras, cond_id):
    # a sampled sweep that finds nothing proves nothing, so it is no
    # profile bit; before anything is swept, the id is refused
    with pytest.raises(UsageError, match=f"{cond_id} can only be sampled"):
        evaluate_problem_profile(algebras["Z2"], ["T3_I", cond_id])


def test_problem_profile_implication_violation_raises(algebras, monkeypatch):
    # PROB_II => PROB_I is derivable, so a profile breaking it is a bug;
    # PROB_I is an alias of T2_I and takes its report, so corrupt that sweep
    from relcomm import properties
    from relcomm.relations import InvariantViolation

    real = properties.check_condition

    def broken(alg, cond_id, family):
        rep = real(alg, cond_id, family)
        if cond_id == "T2_I":
            witness = properties.Witness("T2_I", {"R": [(0, 0)]}, (0, 1))
            return rep._replace(holds=False, witness=witness)
        return rep

    monkeypatch.setattr(properties, "check_condition", broken)
    with pytest.raises(InvariantViolation, match="PROB_II => PROB_I"):
        evaluate_problem_profile(algebras["L2"])


def test_report_records_round_trip(algebras):
    rep = check_condition(algebras["Z2"], "PROB_I", EXH)
    rec = rep.to_record()
    assert rec["id"] == "PROB_I"
    assert rec["verdict"] == VERDICT_FAILS
    assert rec["witness"]["pair"] is not None
    text = rep.to_text()
    assert "PROB_I" in text and "R =" in text


def test_sampled_verdict_label(algebras):
    fam = RelFamily(mode="sampled", sample_count=10, seed=0)
    rep = check_condition(algebras["L2"], "T3_I", fam)
    assert rep.holds
    assert rep.verdict == VERDICT_SAMPLED_OK
    assert "sampled" in rep.verdict


def test_exhaustive_any_quantifier_rejected(algebras):
    with pytest.raises(ValueError, match="sampled"):
        check_condition(algebras["Z2"], "L1B_I", EXH)


def test_plan_hoists_subterms_and_lists_families_once(algebras, monkeypatch):
    # L1A_I sweeps R1, R2, S over C3's 25 reflexive admissible relations
    # (15,625 bindings); conv(R1) depends on R1 only and conv(R2) on R2, so
    # a hoisted plan builds them 25 + 25 * 25 times, not twice per binding;
    # the three quantifiers read one listing of the family
    from relcomm import relations

    calls = {"converse": 0, "listings": 0}
    relations.clear_caches()
    kernels = relations.kernels(algebras["C3"])
    real_converse = kernels.converse
    real_closed_sets = relations._closed_sets

    def converse(a):
        calls["converse"] += 1
        return real_converse(a)

    def closed_sets(n, close_within):
        calls["listings"] += 1
        return real_closed_sets(n, close_within)

    # plans run the algebra's kernel, bound when the check builds its plan
    monkeypatch.setattr(kernels, "converse", converse)
    monkeypatch.setattr(relations, "_closed_sets", closed_sets)
    rep = check_condition(algebras["C3"], "L1A_I", RelFamily())
    assert rep.holds and rep.relations_checked == 15_625
    assert calls["converse"] == 25 + 25 * 25
    assert calls["listings"] == 1


def _late_sweep_source(real):
    """A `_Plan._source` whose sweep returns the binding after the first
    violating one, with that one's bad bits."""

    def source(self):
        lines = real(self).split("\n")
        at = next(i for i, line in enumerate(lines) if line.strip().startswith("bad = "))
        pad = lines[at][: len(lines[at]) - len(lines[at].lstrip())]
        found = lines[at + 2].strip()  # return checked, (names), bad
        lines[at : at + 3] = [
            pad + "if hit:",
            pad + "    " + found[: -len("bad")] + "hit",
            lines[at],
            pad + "if bad:",
            pad + "    hit = bad",
        ]
        lines.insert(2, "    hit = 0")
        return "\n".join(lines)

    return source


def test_a_witness_that_does_not_recheck_raises(algebras, monkeypatch, capsys):
    # T3_I fails on S2, and the binding after its first violating one
    # does not violate it; a sweep that reports that binding must be
    # caught before any report is stored, so check_ids, the alias PROB_II
    # and the CLI all refuse it
    from relcomm import cli, properties
    from relcomm.relations import InvariantViolation

    monkeypatch.setattr(properties._Plan, "_source", _late_sweep_source(properties._Plan._source))
    properties._plan.cache_clear()
    try:
        for cid in ("T3_I", "PROB_II"):
            with pytest.raises(InvariantViolation, match="T3_I reports a binding"):
                properties.check_ids(algebras["S2"], [cid], EXH)
        capsys.readouterr()
        assert cli.main(["check", "-a", "algebras/s2.alg", "--condition", "T3_I"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[0].startswith("error: InvariantViolation: the sweep of T3_I")
    finally:
        properties._plan.cache_clear()
