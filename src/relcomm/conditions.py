"""The condition table: one entry per checked inclusion or equality.

Every displayed formula is transcribed here exactly once, as a string in
the expression language of `expr`: the grammar that `relcomm eval` reads
and `pretty` prints, so either side of an entry can be pasted into `eval`.
Composition follows the fixed convention (a (R;S) c iff a R b and b S c
for some b).  `_add` parses each side once, at import.  Checkers in
`properties` quantify these entries over relation families; nothing else
in the package spells out a formula.  Likewise each meta-check (an
equivalence group, an implication chain, a hypothesis => conclusion
theorem) is one row of `META_CHECKS`, which names its rule and its
members; nothing else lists them.

A handful of entries are aliases that share the very same expression
objects (e.g. the two hypotheses of the implication theorems reappear as
problem-profile conditions), and a sub-formula that several entries share
is one named string, so each formula still has a single source.
"""

from __future__ import annotations

from .algebra import Value
from .expr import parse_expr
from .relations import CONGRUENCE, REFLEXIVE_ADMISSIBLE, TOLERANCE

ANY = "any"  # unrestricted relation quantifier (K's filter argument)


class Quantifier(Value):
    """A quantified relation name, its family kind and, in `above` (a
    `RelExpr`, or None), a bound: the congruences containing it."""

    __slots__ = _fields = ("name", "kind", "above")

    def __init__(self, name, kind, above=None):
        Value.__init__(self, name, kind, above)


class ConditionSpec(Value):
    """One condition: lhs is a subset of rhs (`relation` "subset"), or
    equal to it ("equal"), at every binding of `quantifiers`."""

    __slots__ = _fields = ("id", "quantifiers", "lhs", "rhs", "relation")

    def __init__(self, id, quantifiers, lhs, rhs, relation="subset"):
        Value.__init__(self, id, quantifiers, lhs, rhs, relation)


def _ra(*names):
    return tuple(Quantifier(n, REFLEXIVE_ADMISSIBLE) for n in names)


def _tol(*names):
    return tuple(Quantifier(n, TOLERANCE) for n in names)


def _cong(*names):
    return tuple(Quantifier(n, CONGRUENCE) for n in names)


def _any(*names):
    return tuple(Quantifier(n, ANY) for n in names)


_specs = []


def _add(cid, quantifiers, lhs, rhs, relation="subset"):
    _specs.append(
        ConditionSpec(cid, tuple(quantifiers), parse_expr(lhs), parse_expr(rhs), relation)
    )


# --- commutator lemmas, first group ------------------------------------

_add("L1A_I", _ra("R1", "R2", "S"), "comm1(R1;R2, S)", "(S & R2^-;(S & R1^-;R1);R2)^*")
_add(
    "L1A_II",
    _ra("R", "S", "T"),
    "comm1(R, S;T)",
    "(R^-;R & (S & R^-;(S & T^-);R);(T & R^-;(S^- & T);R))^*",
)
_add(
    "L1A_III",
    _ra("R", "S", "T", "U"),
    "comm1(R, S;T;U)",
    "(R^-;R & S;(T & R^-;(T & S^-;U^-);R);U)^*",
)

# --- commutator lemmas, K-operator refinement ---------------------------

_add("L1B_I", _ra("R1", "R2", "S") + _any("V"), "K(R1;R2, S; V)", "K(R2, S; K(R1, S; V))")
_add(
    "L1B_II",
    _ra("R", "S", "T") + _any("V"),
    "K(R, (S;T); V)",
    "K(R, S; S & V;T^-);K(R, T; T & S^-;V)",
)
_add(
    "L1B_III",
    _ra("R", "S", "T", "U") + _any("V"),
    "K(R, (S;T;U); V)",
    "R^-;V;R & S;K(R, T; T & S^-;V;U^-);U",
)

# the containment that turns the K-lemmas into the first group
_add("TRIV_K", _ra("R", "S") + _any("V"), "K(R, S; V)", "S & R^-;(S & V);R")

# --- first implication theorem (tolerance version) ----------------------

_comm1_r_rtol = "comm1(R, R^o)"
_add("T2_I", _ra("R"), "R", _comm1_r_rtol)
_add("T2_IA", _ra("R"), "R^*", _comm1_r_rtol)
_add("T2_IB", _ra("R"), "R^-", _comm1_r_rtol)
_add("T2_IC", _ra("R"), "R^o", _comm1_r_rtol)
_add("T2_ID", _ra("R"), "cg(R)", _comm1_r_rtol, relation="equal")
_add("T2_II", _tol("T") + _ra("R"), "R & T", "comm1(R, T)")
_t_iii_lhs = "R1;R2 & T"
_t_iii_rhs = "(T & R2^-;(T & R1^-;R1);R2)^*"
_add("T2_III", _tol("T") + _ra("R1", "R2"), _t_iii_lhs, _t_iii_rhs)
_t_iv_lhs = "R1 & T;R2"
_t_iv_rhs = "(T & R2;(T & R1^-;R1);R2^-)^*;R2"
_add("T2_IV", _tol("T") + _ra("R1", "R2"), _t_iv_lhs, _t_iv_rhs)
_t_v_lhs = "beta & T;S"
_t_v_rhs = "(T & S;(T & beta);S)^*;S"
_add("T2_V", _cong("beta") + _tol("T", "S"), _t_v_lhs, _t_v_rhs)
_t_vi_lhs = "beta & T;gamma"
_add("T2_VI", _cong("beta", "gamma") + _tol("T"), _t_vi_lhs, "join(gamma, (T & beta)^*)")

# --- second implication theorem (reflexive-admissible version) ----------

_comm1_r_r = "comm1(R, R)"
_add("T3_I", _ra("R"), "R", _comm1_r_r)
_add("T3_IA", _ra("R"), "R^*", _comm1_r_r)
_add("T3_II", _ra("T", "R"), "R & T", "comm1(R, T)")
_add("T3_III", _ra("R1", "R2", "T"), _t_iii_lhs, _t_iii_rhs)
_add("T3_IV", _ra("R1", "R2", "T"), _t_iv_lhs, _t_iv_rhs)
_add("T3_V", _cong("beta") + _tol("S") + _ra("T"), _t_v_lhs, _t_v_rhs)
_add("T3_VI", _cong("beta", "gamma") + _ra("T"), _t_vi_lhs, "(gamma;(T & beta))^*")

# --- closure proposition: both inclusions folded into one via union -----

_add("P3A_I", _ra("R"), "R + R^-", _comm1_r_r)
_add("P3A_II", _ra("R"), "cg(R)", _comm1_r_r, relation="equal")

# --- consequences of the hypotheses ------------------------------------

_t4_rhs = "((S & R^-;(S & T^-);R);(T & R^-;(S^- & T);R))^*"
_add("T4_I_CONC", _ra("R", "S", "T"), "R & S;T & T^-;S^-", _t4_rhs)
_add("T4_II_CONC", _ra("R", "S", "T"), "R & S;T", _t4_rhs)
_t4_cor_rhs = "((gamma & S);(gamma & T))^*"
_t4_gamma = (Quantifier("gamma", CONGRUENCE, above=parse_expr("S & T^-")),)
_add("T4_I_COR", _ra("S", "T") + _t4_gamma, "gamma & S;T & T^-;S^-", _t4_cor_rhs)
_add("T4_II_COR", _ra("S", "T") + _t4_gamma, "gamma & S;T", _t4_cor_rhs)

# --- open-problem conditions and the inline remark ----------------------

_add("PROB_III", _ra("R"), "R", "comm(R, R)")
_add("PROB_IV", _tol("R"), "R", _comm1_r_r)
_add("PROB_V", _tol("R"), "R", "comm(R, R)")
_add("REMARK_RT", _ra("R", "T"), "R & T", "comm(R, T)")

# --- sequel properties (difference-term consequences) -------------------

_c1o = _comm1_r_rtol
_c1 = _comm1_r_r
_add("SEQ_A", _ra("R"), "R", f"{_c1o};R^-")
_add("SEQ_B", _ra("R"), "R", f"{_c1o};R^-;{_c1o}")
_add("SEQ_C", _ra("R"), "R;R", f"{_c1o};R")
_add("SEQ_D", _ra("R"), "R;R", f"{_c1o};R;{_c1o}")
_add("SEQ_E", _ra("R"), "cg(R)", f"{_c1o};R", relation="equal")
_add("SEQ_F", _ra("R"), "cg(R)", f"{_c1o};R;{_c1o}", relation="equal")
_add("SEQ_G", _ra("R"), "R", f"{_c1};R^-")
_add("SEQ_H", _ra("R"), "R", f"{_c1};R^-;{_c1}")
_add("SEQ_I", _ra("R"), "R;R", f"{_c1};R")
_add("SEQ_J", _ra("R"), "R;R", f"{_c1};R;{_c1}")
_add("SEQ_K", _ra("R"), "cg(R)", f"{_c1};R", relation="equal")
_add("SEQ_L", _ra("R"), "cg(R)", f"{_c1};R;{_c1}", relation="equal")

CONDITIONS: dict[str, ConditionSpec] = {s.id: s for s in _specs}

# aliases: same formulas under the ids their other contexts use
ALIASES = {
    "PROB_I": "T2_I",
    "PROB_II": "T3_I",
    "T4_I_HYP": "T2_I",
    "T4_II_HYP": "T3_I",
}
for alias, original in ALIASES.items():
    CONDITIONS[alias] = CONDITIONS[original]._replace(id=alias)

CONDITION_IDS = tuple(CONDITIONS)

# conditions with a quantifier over all 2**(n*n) relations: sampled only
SAMPLED_ONLY = {cid for cid, s in CONDITIONS.items() if any(q.kind == ANY for q in s.quantifiers)}

# checks whose verdict is about several conditions at once, in `check-all`
# order: meta id -> (rule, member ids).  `properties` applies the rule to
# the members' reports:
#   agree    the members are proved equivalent, so all hold or none does
#   chain    displayed implications: once one member holds, every later
#            one holds
#   implies  hypothesis, conclusion, corollary: when the hypothesis holds,
#            so do the other two
META_CHECKS = {
    "EQ_X2": ("agree", ("T2_I", "T2_IA", "T2_IB", "T2_IC", "T2_ID", "T2_II")),
    "EQ_X3": ("agree", ("T3_I", "T3_IA", "T3_II")),
    "EQ_X3A": ("agree", ("P3A_I", "P3A_II")),
    "EQ_REMARK": ("agree", ("PROB_III", "REMARK_RT")),
    "CHAIN_X2": (
        "chain",
        ("T2_I", "T2_IA", "T2_IB", "T2_IC", "T2_ID", "T2_II", "T2_III", "T2_IV", "T2_V", "T2_VI"),
    ),
    "CHAIN_X3": ("chain", ("T3_I", "T3_IA", "T3_II", "T3_III", "T3_IV", "T3_V", "T3_VI")),
    "T4_I": ("implies", ("T4_I_HYP", "T4_I_CONC", "T4_I_COR")),
    "T4_II": ("implies", ("T4_II_HYP", "T4_II_CONC", "T4_II_COR")),
}

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
