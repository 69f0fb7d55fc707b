"""Cross-check every condition-table entry on a concrete 3-element instance.

Each formula is re-transcribed here a second time, in naive pair-set
machinery over the pure 3-set (where the matrix set is exactly its set of
generator quadruples, so the commutators have elementary definitions).  A
transcription slip in the table would show up as a mismatch.
"""

import pytest

from oracles import naive_compose, naive_transitive_closure
from relcomm import FiniteAlgebra, BinRel, eval_expr
from relcomm.conditions import CONDITIONS, META_CHECKS
from relcomm.properties import _RULES

SET3 = FiniteAlgebra(3, ())
N = 3

DELTA = frozenset((a, a) for a in range(N))
FULL = frozenset((a, b) for a in range(N) for b in range(N))


def conv(r):
    return {(b, a) for (a, b) in r}


def comp(*rs):
    out = rs[0]
    for r in rs[1:]:
        out = naive_compose(out, r)
    return out


def sclose(r):
    return naive_transitive_closure(r)


def tolc(r):
    return set(r) | conv(r) | DELTA


def cgp(r):
    return sclose(tolc(r))


def gens(r, s):
    g = {(a, a, a2, a2) for (a, a2) in r}
    g |= {(b, b2, b, b2) for (b, b2) in s}
    return g


def k(r, s, v):
    return {(z, w) for (x, y, z, w) in gens(r, s) if (x, y) in v}


def comm1n(r, s):
    return sclose(k(r, s, DELTA))


def commn(r, s):
    d = set(DELTA)
    while True:
        nd = cgp(d | k(r, s, d))
        if nd == d:
            return d
        d = nd


def joinn(a, b):
    return sclose(comp(a, b))


R = DELTA | {(0, 1)}
S = DELTA | {(1, 2), (2, 1)}
T = DELTA | {(0, 2)}
U = DELTA | {(2, 0)}
R1 = DELTA | {(0, 1)}
R2 = DELTA | {(1, 2)}
BETA = DELTA | {(0, 1), (1, 0)}
GAMMA = DELTA | {(1, 2), (2, 1)}
V = {(0, 2), (1, 1)}

ENV = {
    "R": R,
    "S": S,
    "T": T,
    "U": U,
    "R1": R1,
    "R2": R2,
    "beta": BETA,
    "gamma": GAMMA,
    "V": V,
}

# naive (lhs, rhs) per condition id, typed straight from the displayed text
NAIVE = {
    "L1A_I": (
        lambda: comm1n(comp(R1, R2), S),
        lambda: sclose(S & comp(conv(R2), S & comp(conv(R1), R1), R2)),
    ),
    "L1A_II": (
        lambda: comm1n(R, comp(S, T)),
        lambda: sclose(
            comp(conv(R), R)
            & comp(
                S & comp(conv(R), S & conv(T), R),
                T & comp(conv(R), conv(S) & T, R),
            )
        ),
    ),
    "L1A_III": (
        lambda: comm1n(R, comp(S, T, U)),
        lambda: sclose(
            comp(conv(R), R)
            & comp(S, T & comp(conv(R), T & comp(conv(S), conv(U)), R), U)
        ),
    ),
    "L1B_I": (
        lambda: k(comp(R1, R2), S, V),
        lambda: k(R2, S, k(R1, S, V)),
    ),
    "L1B_II": (
        lambda: k(R, comp(S, T), V),
        lambda: comp(
            k(R, S, S & comp(V, conv(T))),
            k(R, T, T & comp(conv(S), V)),
        ),
    ),
    "L1B_III": (
        lambda: k(R, comp(S, T, U), V),
        lambda: comp(conv(R), V, R)
        & comp(S, k(R, T, T & comp(conv(S), V, conv(U))), U),
    ),
    "TRIV_K": (
        lambda: k(R, S, V),
        lambda: S & comp(conv(R), S & V, R),
    ),
    "T2_I": (lambda: R, lambda: comm1n(R, tolc(R))),
    "T2_IA": (lambda: sclose(R), lambda: comm1n(R, tolc(R))),
    "T2_IB": (lambda: conv(R), lambda: comm1n(R, tolc(R))),
    "T2_IC": (lambda: tolc(R), lambda: comm1n(R, tolc(R))),
    "T2_ID": (lambda: cgp(R), lambda: comm1n(R, tolc(R))),
    "T2_II": (lambda: R & T, lambda: comm1n(R, T)),
    "T2_III": (
        lambda: comp(R1, R2) & T,
        lambda: sclose(T & comp(conv(R2), T & comp(conv(R1), R1), R2)),
    ),
    "T2_IV": (
        lambda: R1 & comp(T, R2),
        lambda: comp(sclose(T & comp(R2, T & comp(conv(R1), R1), conv(R2))), R2),
    ),
    "T2_V": (
        lambda: BETA & comp(T, S),
        lambda: comp(sclose(T & comp(S, T & BETA, S)), S),
    ),
    "T2_VI": (
        lambda: BETA & comp(T, GAMMA),
        lambda: joinn(GAMMA, sclose(T & BETA)),
    ),
    "T3_I": (lambda: R, lambda: comm1n(R, R)),
    "T3_IA": (lambda: sclose(R), lambda: comm1n(R, R)),
    "T3_II": (lambda: R & T, lambda: comm1n(R, T)),
    "T3_III": (
        lambda: comp(R1, R2) & T,
        lambda: sclose(T & comp(conv(R2), T & comp(conv(R1), R1), R2)),
    ),
    "T3_IV": (
        lambda: R1 & comp(T, R2),
        lambda: comp(sclose(T & comp(R2, T & comp(conv(R1), R1), conv(R2))), R2),
    ),
    "T3_V": (
        lambda: BETA & comp(T, S),
        lambda: comp(sclose(T & comp(S, T & BETA, S)), S),
    ),
    "T3_VI": (
        lambda: BETA & comp(T, GAMMA),
        lambda: sclose(comp(GAMMA, T & BETA)),
    ),
    "P3A_I": (lambda: set(R) | conv(R), lambda: comm1n(R, R)),
    "P3A_II": (lambda: cgp(R), lambda: comm1n(R, R)),
    "T4_I_CONC": (
        lambda: R & comp(S, T) & comp(conv(T), conv(S)),
        lambda: sclose(
            comp(
                S & comp(conv(R), S & conv(T), R),
                T & comp(conv(R), conv(S) & T, R),
            )
        ),
    ),
    "T4_II_CONC": (
        lambda: R & comp(S, T),
        lambda: sclose(
            comp(
                S & comp(conv(R), S & conv(T), R),
                T & comp(conv(R), conv(S) & T, R),
            )
        ),
    ),
    "T4_I_COR": (
        lambda: GAMMA & comp(S, T) & comp(conv(T), conv(S)),
        lambda: sclose(comp(GAMMA & S, GAMMA & T)),
    ),
    "T4_II_COR": (
        lambda: GAMMA & comp(S, T),
        lambda: sclose(comp(GAMMA & S, GAMMA & T)),
    ),
    "PROB_I": (lambda: R, lambda: comm1n(R, tolc(R))),
    "PROB_II": (lambda: R, lambda: comm1n(R, R)),
    "PROB_III": (lambda: R, lambda: commn(R, R)),
    "PROB_IV": (lambda: R, lambda: comm1n(R, R)),
    "PROB_V": (lambda: R, lambda: commn(R, R)),
    "REMARK_RT": (lambda: R & T, lambda: commn(R, T)),
    "T4_I_HYP": (lambda: R, lambda: comm1n(R, tolc(R))),
    "T4_II_HYP": (lambda: R, lambda: comm1n(R, R)),
    "SEQ_A": (lambda: R, lambda: comp(comm1n(R, tolc(R)), conv(R))),
    "SEQ_B": (
        lambda: R,
        lambda: comp(comm1n(R, tolc(R)), conv(R), comm1n(R, tolc(R))),
    ),
    "SEQ_C": (lambda: comp(R, R), lambda: comp(comm1n(R, tolc(R)), R)),
    "SEQ_D": (
        lambda: comp(R, R),
        lambda: comp(comm1n(R, tolc(R)), R, comm1n(R, tolc(R))),
    ),
    "SEQ_E": (lambda: cgp(R), lambda: comp(comm1n(R, tolc(R)), R)),
    "SEQ_F": (
        lambda: cgp(R),
        lambda: comp(comm1n(R, tolc(R)), R, comm1n(R, tolc(R))),
    ),
    "SEQ_G": (lambda: R, lambda: comp(comm1n(R, R), conv(R))),
    "SEQ_H": (lambda: R, lambda: comp(comm1n(R, R), conv(R), comm1n(R, R))),
    "SEQ_I": (lambda: comp(R, R), lambda: comp(comm1n(R, R), R)),
    "SEQ_J": (lambda: comp(R, R), lambda: comp(comm1n(R, R), R, comm1n(R, R))),
    "SEQ_K": (lambda: cgp(R), lambda: comp(comm1n(R, R), R)),
    "SEQ_L": (lambda: cgp(R), lambda: comp(comm1n(R, R), R, comm1n(R, R))),
}


def test_every_condition_has_a_naive_twin():
    assert set(NAIVE) == set(CONDITIONS)


@pytest.mark.parametrize("cond_id", sorted(CONDITIONS))
def test_transcription_matches_naive(cond_id):
    spec = CONDITIONS[cond_id]
    env = {
        q.name: BinRel.from_pairs(N, ENV[q.name]) for q in spec.quantifiers
    }
    lhs = eval_expr(SET3, env, spec.lhs)
    rhs = eval_expr(SET3, env, spec.rhs)
    naive_lhs, naive_rhs = NAIVE[cond_id]
    assert set(lhs.pairs()) == set(naive_lhs()), f"{cond_id} lhs"
    assert set(rhs.pairs()) == set(naive_rhs()), f"{cond_id} rhs"


def test_condition_quantifier_names_cover_formulas():
    from relcomm.expr import free_names

    for cond_id, spec in CONDITIONS.items():
        # the sweep walks at least one quantifier
        assert spec.quantifiers, cond_id
        bound = {q.name for q in spec.quantifiers}
        used = free_names(spec.lhs) | free_names(spec.rhs)
        assert used <= bound, cond_id
        assert bound <= used, cond_id  # no vacuous quantifiers
        for i, q in enumerate(spec.quantifiers):
            # a bound is evaluated before its own quantifier is bound
            if q.above is not None:
                earlier = {p.name for p in spec.quantifiers[:i]}
                assert free_names(q.above) <= earlier, (cond_id, q.name)


def test_meta_check_rows_name_known_rules_and_conditions():
    assert not set(META_CHECKS) & set(CONDITIONS)
    for meta_id, (rule, members) in META_CHECKS.items():
        assert rule in _RULES, meta_id
        assert members and set(members) <= set(CONDITIONS), meta_id
        if rule == "implies":
            assert len(members) == 3, meta_id  # hypothesis, conclusion, corollary
