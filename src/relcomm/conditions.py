"""The condition table: one entry per checked inclusion or equality.

Every displayed formula is transcribed here exactly once as a relation
expression, under the fixed composition convention (a (R;S) c iff a R b
and b S c for some b).  Checkers in `properties` quantify these entries
over relation families; nothing else in the package spells out a formula.

A handful of entries are aliases that share the very same expression
objects (e.g. the two hypotheses of the implication theorems reappear as
problem-profile conditions), so each formula still has a single source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import (
    Cg,
    Comm,
    Comm1,
    Converse,
    Join,
    K,
    NameRef,
    RelExpr,
    Star,
    TolClose,
    Union,
    comp,
    inter,
)
from .relations import CONGRUENCE, REFLEXIVE_ADMISSIBLE, TOLERANCE

ANY = "any"  # unrestricted relation quantifier (K's filter argument)


@dataclass(frozen=True)
class Quantifier:
    name: str
    kind: str
    above: RelExpr | None = None  # congruences containing this, when set


@dataclass(frozen=True)
class ConditionSpec:
    id: str
    quantifiers: tuple[Quantifier, ...]
    lhs: RelExpr
    rhs: RelExpr
    relation: str = "subset"  # or "equal"


def _ra(*names):
    return tuple(Quantifier(n, REFLEXIVE_ADMISSIBLE) for n in names)


def _tol(*names):
    return tuple(Quantifier(n, TOLERANCE) for n in names)


def _cong(*names):
    return tuple(Quantifier(n, CONGRUENCE) for n in names)


def _any(*names):
    return tuple(Quantifier(n, ANY) for n in names)


R = NameRef("R")
R1 = NameRef("R1")
R2 = NameRef("R2")
S = NameRef("S")
T = NameRef("T")
U = NameRef("U")
V = NameRef("V")
BETA = NameRef("beta")
GAMMA = NameRef("gamma")


def conv(e):
    return Converse(e)


_specs = []


def _add(cid, quantifiers, lhs, rhs, relation="subset"):
    _specs.append(ConditionSpec(cid, tuple(quantifiers), lhs, rhs, relation))


# --- commutator lemmas, first group ------------------------------------

_add(
    "L1A_I",
    _ra("R1", "R2", "S"),
    Comm1(comp(R1, R2), S),
    Star(inter(S, comp(conv(R2), inter(S, comp(conv(R1), R1)), R2))),
)
_add(
    "L1A_II",
    _ra("R", "S", "T"),
    Comm1(R, comp(S, T)),
    Star(
        inter(
            comp(conv(R), R),
            comp(
                inter(S, comp(conv(R), inter(S, conv(T)), R)),
                inter(T, comp(conv(R), inter(conv(S), T), R)),
            ),
        )
    ),
)
_add(
    "L1A_III",
    _ra("R", "S", "T", "U"),
    Comm1(R, comp(S, T, U)),
    Star(
        inter(
            comp(conv(R), R),
            comp(S, inter(T, comp(conv(R), inter(T, comp(conv(S), conv(U))), R)), U),
        )
    ),
)

# --- commutator lemmas, K-operator refinement ---------------------------

_add(
    "L1B_I",
    _ra("R1", "R2", "S") + _any("V"),
    K(comp(R1, R2), S, V),
    K(R2, S, K(R1, S, V)),
)
_add(
    "L1B_II",
    _ra("R", "S", "T") + _any("V"),
    K(R, comp(S, T), V),
    comp(
        K(R, S, inter(S, comp(V, conv(T)))),
        K(R, T, inter(T, comp(conv(S), V))),
    ),
)
_add(
    "L1B_III",
    _ra("R", "S", "T", "U") + _any("V"),
    K(R, comp(S, T, U), V),
    inter(
        comp(conv(R), V, R),
        comp(S, K(R, T, inter(T, comp(conv(S), V, conv(U)))), U),
    ),
)

# the containment that turns the K-lemmas into the first group
_add(
    "TRIV_K",
    _ra("R", "S") + _any("V"),
    K(R, S, V),
    inter(S, comp(conv(R), inter(S, V), R)),
)

# --- first implication theorem (tolerance version) ----------------------

_comm1_r_rtol = Comm1(R, TolClose(R))
_add("T2_I", _ra("R"), R, _comm1_r_rtol)
_add("T2_IA", _ra("R"), Star(R), _comm1_r_rtol)
_add("T2_IB", _ra("R"), conv(R), _comm1_r_rtol)
_add("T2_IC", _ra("R"), TolClose(R), _comm1_r_rtol)
_add("T2_ID", _ra("R"), Cg(R), _comm1_r_rtol, relation="equal")
_add("T2_II", _tol("T") + _ra("R"), inter(R, T), Comm1(R, T))
_t_iii_rhs = Star(inter(T, comp(conv(R2), inter(T, comp(conv(R1), R1)), R2)))
_add("T2_III", _tol("T") + _ra("R1", "R2"), inter(comp(R1, R2), T), _t_iii_rhs)
_t_iv_lhs = inter(R1, comp(T, R2))
_t_iv_rhs = comp(
    Star(inter(T, comp(R2, inter(T, comp(conv(R1), R1)), conv(R2)))), R2
)
_add("T2_IV", _tol("T") + _ra("R1", "R2"), _t_iv_lhs, _t_iv_rhs)
_t_v_lhs = inter(BETA, comp(T, S))
_t_v_rhs = comp(Star(inter(T, comp(S, inter(T, BETA), S))), S)
_add("T2_V", _cong("beta") + _tol("T", "S"), _t_v_lhs, _t_v_rhs)
_add(
    "T2_VI",
    _cong("beta", "gamma") + _tol("T"),
    inter(BETA, comp(T, GAMMA)),
    Join(GAMMA, Star(inter(T, BETA))),
)

# --- second implication theorem (reflexive-admissible version) ----------

_comm1_r_r = Comm1(R, R)
_add("T3_I", _ra("R"), R, _comm1_r_r)
_add("T3_IA", _ra("R"), Star(R), _comm1_r_r)
_add("T3_II", _ra("T", "R"), inter(R, T), Comm1(R, T))
_add("T3_III", _ra("R1", "R2", "T"), inter(comp(R1, R2), T), _t_iii_rhs)
_add("T3_IV", _ra("R1", "R2", "T"), _t_iv_lhs, _t_iv_rhs)
_add("T3_V", _cong("beta") + _tol("S") + _ra("T"), _t_v_lhs, _t_v_rhs)
_add(
    "T3_VI",
    _cong("beta", "gamma") + _ra("T"),
    inter(BETA, comp(T, GAMMA)),
    Star(comp(GAMMA, inter(T, BETA))),
)

# --- closure proposition: both inclusions folded into one via union -----

_add("P3A_I", _ra("R"), Union(R, conv(R)), _comm1_r_r)
_add("P3A_II", _ra("R"), Cg(R), _comm1_r_r, relation="equal")

# --- consequences of the hypotheses ------------------------------------

_t4_rhs = Star(
    comp(
        inter(S, comp(conv(R), inter(S, conv(T)), R)),
        inter(T, comp(conv(R), inter(conv(S), T), R)),
    )
)
_add(
    "T4_I_CONC",
    _ra("R", "S", "T"),
    inter(R, comp(S, T), comp(conv(T), conv(S))),
    _t4_rhs,
)
_add("T4_II_CONC", _ra("R", "S", "T"), inter(R, comp(S, T)), _t4_rhs)
_t4_cor_rhs = Star(comp(inter(GAMMA, S), inter(GAMMA, T)))
_t4_gamma = (Quantifier("gamma", CONGRUENCE, above=inter(S, conv(T))),)
_add(
    "T4_I_COR",
    _ra("S", "T") + _t4_gamma,
    inter(GAMMA, comp(S, T), comp(conv(T), conv(S))),
    _t4_cor_rhs,
)
_add("T4_II_COR", _ra("S", "T") + _t4_gamma, inter(GAMMA, comp(S, T)), _t4_cor_rhs)

# --- open-problem conditions and the inline remark ----------------------

_add("PROB_III", _ra("R"), R, Comm(R, R))
_add("PROB_IV", _tol("R"), R, _comm1_r_r)
_add("PROB_V", _tol("R"), R, Comm(R, R))
_add("REMARK_RT", _ra("R", "T"), inter(R, T), Comm(R, T))

# --- sequel properties (difference-term consequences) -------------------

_c1o = _comm1_r_rtol
_c1 = _comm1_r_r
_add("SEQ_A", _ra("R"), R, comp(_c1o, conv(R)))
_add("SEQ_B", _ra("R"), R, comp(_c1o, conv(R), _c1o))
_add("SEQ_C", _ra("R"), comp(R, R), comp(_c1o, R))
_add("SEQ_D", _ra("R"), comp(R, R), comp(_c1o, R, _c1o))
_add("SEQ_E", _ra("R"), Cg(R), comp(_c1o, R), relation="equal")
_add("SEQ_F", _ra("R"), Cg(R), comp(_c1o, R, _c1o), relation="equal")
_add("SEQ_G", _ra("R"), R, comp(_c1, conv(R)))
_add("SEQ_H", _ra("R"), R, comp(_c1, conv(R), _c1))
_add("SEQ_I", _ra("R"), comp(R, R), comp(_c1, R))
_add("SEQ_J", _ra("R"), comp(R, R), comp(_c1, R, _c1))
_add("SEQ_K", _ra("R"), Cg(R), comp(_c1, R), relation="equal")
_add("SEQ_L", _ra("R"), Cg(R), comp(_c1, R, _c1), relation="equal")

CONDITIONS: dict[str, ConditionSpec] = {s.id: s for s in _specs}

# aliases: same formulas under the ids their other contexts use
for alias, original in (
    ("PROB_I", "T2_I"),
    ("PROB_II", "T3_I"),
    ("T4_I_HYP", "T2_I"),
    ("T4_II_HYP", "T3_I"),
):
    CONDITIONS[alias] = replace(CONDITIONS[original], id=alias)

CONDITION_IDS = tuple(CONDITIONS)

X2_CHAIN = (
    "T2_I",
    "T2_IA",
    "T2_IB",
    "T2_IC",
    "T2_ID",
    "T2_II",
    "T2_III",
    "T2_IV",
    "T2_V",
    "T2_VI",
)
X3_CHAIN = ("T3_I", "T3_IA", "T3_II", "T3_III", "T3_IV", "T3_V", "T3_VI")

EQUIVALENCE_GROUPS = (
    ("EQ_X2", ("T2_I", "T2_IA", "T2_IB", "T2_IC", "T2_ID", "T2_II")),
    ("EQ_X3", ("T3_I", "T3_IA", "T3_II")),
    ("EQ_X3A", ("P3A_I", "P3A_II")),
    ("EQ_REMARK", ("PROB_III", "REMARK_RT")),
)

# checks whose verdict is about several conditions at once: the equivalence
# groups, the two implication chains and the two consequence-theorem parts
META_CHECKS = tuple(g for g, _ in EQUIVALENCE_GROUPS) + (
    "CHAIN_X2",
    "CHAIN_X3",
    "T4_I",
    "T4_II",
)

PROBLEM_IDS = ("PROB_I", "PROB_II", "PROB_III", "PROB_IV", "PROB_V")

# X => Y whenever Y quantifies over a subfamily and its right side is
# pointwise at least as large (comm1 <= comm; second commutator argument
# monotone under R <= R-tolerance-closure)
PROBLEM_IMPLICATIONS = (
    ("PROB_II", "PROB_I"),
    ("PROB_II", "PROB_III"),
    ("PROB_II", "PROB_IV"),
    ("PROB_II", "PROB_V"),
    ("PROB_I", "PROB_IV"),
    ("PROB_I", "PROB_V"),
    ("PROB_III", "PROB_V"),
    ("PROB_IV", "PROB_V"),
)

# ids whose failure can only mean an implementation bug (proved statements)
THEOREM_IDS = ("L1A_I", "L1A_II", "L1A_III", "L1B_I", "L1B_II", "L1B_III", "TRIV_K")
