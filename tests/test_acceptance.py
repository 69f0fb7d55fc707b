"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS lines; any
assertion failure prints the corresponding FAIL line before raising.
"""

import random
from contextlib import contextmanager

from conftest import refl
from oracles import TermTableOracle
from relcomm import (
    BinRel,
    FiniteAlgebra,
    RelFamily,
    check_condition,
    check_lemma_x1a,
    check_lemma_x1b,
    check_meta,
    comm,
    comm1,
    comm_weak,
    compose,
    converse,
    eval_expr,
    evaluate_problem_profile,
    intersect,
    is_admissible,
    is_congruence,
    is_reflexive,
    is_tolerance,
    k_op,
    m_set,
    parse_expr,
    pretty,
    star,
    tol_close,
)
from relcomm import cg as cg_close
from relcomm.conditions import CONDITIONS, META_CHECKS
from relcomm.search import SearchTask, run_search

EXH = RelFamily(mode="exhaustive")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_matrix_set_oracle(algebras, ra_lists):
    with criterion(1, "term-tree oracle vs matrix-set closure"):
        for name, alg in algebras.items():
            if alg.size > 3:
                continue
            oracle = TermTableOracle(
                alg.size,
                [op.arity for op in alg.operations],
                [op.table for op in alg.operations],
                max_depth=3,
            )
            for r in ra_lists[name]:
                for s in ra_lists[name]:
                    got = oracle.matrix_set(r.pairs(), s.pairs())
                    assert got <= set(m_set(alg, r, s).members()), (name, r, s)
        z2 = algebras["Z2"]
        full = BinRel.full(2)
        parity = {
            (x, y, z, w)
            for x in range(2)
            for y in range(2)
            for z in range(2)
            for w in range(2)
            if x ^ y ^ z ^ w == 0
        }
        members = set(m_set(z2, full, full).members())
        assert members == parity and len(members) == 8


def _v_choices(n, r, s):
    return (
        BinRel.delta(n),
        BinRel.empty(n),
        BinRel.full(n),
        r,
        converse(s),
        intersect(r, s),
    )


def test_criterion_2_stated_containments(algebras, corpus):
    with criterion(2, "stated containments over the exhaustive corpus"):
        assert len(corpus) >= 1000
        violations = 0
        for name, r, s in corpus:
            alg = algebras[name]
            c1 = comm1(alg, r, s)
            cw = comm_weak(alg, r, s)
            cm = comm(alg, r, s)
            ok = (
                c1.is_subset(star(s))
                and c1.is_subset(cg_close(alg, r))
                and c1.is_subset(star(intersect(s, compose(converse(r), r))))
                and cw.is_subset(c1)
                and c1.is_subset(cm)
                and is_reflexive(c1)
                and is_admissible(alg, c1)
            )
            if is_tolerance(alg, s):
                ok = ok and is_congruence(alg, c1)
            for v in _v_choices(alg.size, r, s):
                lhs = k_op(alg, r, s, v)
                rhs = intersect(s, compose(converse(r), compose(intersect(s, v), r)))
                ok = ok and lhs.is_subset(rhs)
            if not ok:
                violations += 1
        assert violations == 0


def _lemma_bindings(algebras, ra_lists):
    """Deterministic extension of the pair corpus to the lemma names."""
    for name, alg in algebras.items():
        rels = ra_lists[name]
        n = alg.size
        i = 0
        for r in rels:
            for s in rels:
                t = rels[(i * 7 + 3) % len(rels)]
                u = rels[(i * 13 + 5) % len(rels)]
                v = _v_choices(n, r, s)[i % 6]
                yield alg, {
                    "R": r,
                    "S": s,
                    "T": t,
                    "U": u,
                    "R1": r,
                    "R2": s,
                    "V": v,
                }
                i += 1


def test_criterion_3_lemma_suites(algebras, ra_lists):
    with criterion(3, "lemma suites over the same corpus"):
        count = 0
        for alg, rels in _lemma_bindings(algebras, ra_lists):
            count += 1
            for part in ("I", "II", "III"):
                rep = check_lemma_x1a(alg, part, rels)
                assert rep.holds, (alg, part, rels)
                rep = check_lemma_x1b(alg, part, rels)
                assert rep.holds, (alg, part, rels)
        assert count >= 1000

        # with the filter at the diagonal, the K-lemma bounds imply the
        # first-lemma bounds
        delta_env_checked = 0
        for name, alg in algebras.items():
            rels = ra_lists[name]
            d = BinRel.delta(alg.size)
            sample = [(r, s, t) for r in rels[:5] for s in rels[:5] for t in rels[:5]]
            for r, s, t in sample:
                env = {"R": r, "S": s, "T": t, "U": t, "R1": r, "R2": s, "V": d}
                b1 = eval_expr(alg, env, CONDITIONS["L1B_I"].rhs)
                a1 = eval_expr(alg, env, CONDITIONS["L1A_I"].rhs)
                assert star(b1).is_subset(a1)
                b2 = eval_expr(alg, env, CONDITIONS["L1B_II"].rhs)
                a2 = eval_expr(alg, env, CONDITIONS["L1A_II"].rhs)
                assert star(intersect(b2, compose(converse(r), r))).is_subset(a2)
                b3 = eval_expr(alg, env, CONDITIONS["L1B_III"].rhs)
                a3 = eval_expr(alg, env, CONDITIONS["L1A_III"].rhs)
                assert star(b3).is_subset(a3)
                delta_env_checked += 1
        assert delta_env_checked >= 100


def test_criterion_4_theorem_meta_claims(algebras):
    with criterion(4, "equivalence claims and implication chains"):
        for name, alg in algebras.items():
            for meta_id, (rule, _) in META_CHECKS.items():
                if rule == "agree":
                    rep = check_meta(alg, meta_id, EXH)
                    assert rep.holds, (name, rep.condition, rep.detail)
            for theorem in ("CHAIN_X2", "CHAIN_X3"):
                rep = check_meta(alg, theorem, EXH)
                assert rep.holds, (name, theorem, rep.detail)


def test_criterion_5_exact_desk_scale_values(algebras):
    with criterion(5, "exact desk-scale values"):
        z2 = algebras["Z2"]
        full = BinRel.full(2)
        d = BinRel.delta(2)
        assert comm1(z2, full, full).bits == d.bits
        assert comm(z2, full, full).bits == d.bits
        z2_profile = evaluate_problem_profile(z2)
        assert not any(z2_profile.values())
        for cid in z2_profile:
            rep = check_condition(z2, cid, EXH)
            assert set(rep.witness.relations["R"]) == set(full.pairs())

        l2 = algebras["L2"]
        assert comm1(l2, full, full).bits == full.bits
        assert all(evaluate_problem_profile(l2).values())

        set2 = algebras["Set2"]
        r = refl(2, (0, 1))
        assert comm1(set2, r, tol_close(set2, r)).bits == d.bits
        assert not check_condition(set2, "T2_I", EXH).holds

        trivial = algebras["Trivial1"]
        for cond_id, spec in CONDITIONS.items():
            if any(q.kind == "any" for q in spec.quantifiers):
                continue
            assert check_condition(trivial, cond_id, EXH).holds, cond_id


def test_criterion_6_theorem_x4_on_lattices(algebras):
    with criterion(6, "theorem x4 conclusions and corollaries on lattices"):
        rep = check_meta(algebras["L2"], "T4_I", EXH)
        assert rep.holds and rep.detail["hypothesis"] == "holds"
        assert rep.detail["conclusion"] == "holds"
        assert rep.detail["corollary"] == "holds"
        rep = check_meta(algebras["L2"], "T4_II", EXH)
        assert rep.holds and rep.detail["conclusion"] == "holds"

        c3 = algebras["C3"]
        for part in ("I", "II"):
            hyp = check_condition(c3, {"I": "T4_I_HYP", "II": "T4_II_HYP"}[part], EXH)
            assert hyp.holds
            fam = RelFamily(mode="sampled", sample_count=500, seed=3)
            conc = check_condition(c3, f"T4_{part}_CONC", fam)
            cor = check_condition(c3, f"T4_{part}_COR", fam)
            assert conc.holds and conc.relations_checked >= 500
            assert cor.holds and cor.relations_checked >= 500


def test_criterion_7_search_determinism_and_reverification():
    with criterion(7, "search determinism and witness re-verification"):
        task = SearchTask(sizes=(3,), budget=200, seed=7)
        rep1 = run_search(task)
        rep2 = run_search(task)
        assert rep1.to_json_lines() == rep2.to_json_lines()
        for entry in rep1.entries:
            alg = FiniteAlgebra(
                entry.size, tuple((n, a, tuple(t)) for n, a, t in entry.ops)
            )
            for cond_id, verdict in entry.profile.items():
                assert check_condition(alg, cond_id, EXH).holds == verdict, entry.name


def test_criterion_8_parser_round_trips():
    with criterion(8, "parser round-trips and grammar shapes"):
        from test_expr import _random_expr

        rng = random.Random(20240311)
        for _ in range(200):
            e = _random_expr(rng, rng.randint(1, 5))
            assert parse_expr(pretty(e)) == e

        from relcomm.expr import (
            Compose,
            Converse,
            Delta,
            Intersect,
            K,
            NameRef,
            Star,
        )

        got = parse_expr("(S & (R^- ; (S & T^-) ; R))")
        want = Intersect(
            NameRef("S"),
            Compose(
                Compose(
                    Converse(NameRef("R")),
                    Intersect(NameRef("S"), Converse(NameRef("T"))),
                ),
                NameRef("R"),
            ),
        )
        assert got == want
        assert parse_expr("K(R,S;delta)^*") == Star(K(NameRef("R"), NameRef("S"), Delta()))
        assert parse_expr("R^-^*") == Star(Converse(NameRef("R")))
