"""Relation commutators on finite algebras.

The names below are looked up in their modules on first use (PEP 562), so
that `import relcomm.commutator`, say, loads only the modules it builds on
and not the condition table, the checkers, the search or the CLI.
"""

import importlib

_EXPORTS = {
    "algebra": ("FiniteAlgebra", "Operation", "TupleSet", "eval_op", "subuniverse_closure"),
    "relations": (
        "BinRel",
        "RelFamily",
        "REFLEXIVE_ADMISSIBLE",
        "TOLERANCE",
        "CONGRUENCE",
        "converse",
        "compose",
        "intersect",
        "union_",
        "star",
        "adm_close",
        "tol_close",
        "cg",
        "cong_join",
        "is_reflexive",
        "is_symmetric",
        "is_transitive",
        "is_admissible",
        "is_tolerance",
        "is_congruence",
        "enumerate_relations",
    ),
    "commutator": ("m_set", "k_op", "comm1", "comm", "comm_weak"),
    "expr": ("parse_expr", "pretty", "eval_expr"),
    "properties": (
        "PropertyReport",
        "Witness",
        "check_condition",
        "check_ids",
        "check_lemma_x1a",
        "check_lemma_x1b",
        "check_meta",
        "meta_report",
        "evaluate_problem_profile",
        "recheck_witness",
    ),
    "search": ("SearchTask", "Signature", "catalog", "random_algebra", "run_search"),
    "algfile": ("load_algebra", "parse_algebra", "format_algebra"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
