"""Command-line interface.

`check` and `check-all` turn ids into reports with `properties.check_ids`
alone, so both print the same record for an id.

Exit codes: 0 normal completion (a false theorem condition is a normal
answer), 2 for a usage error (`relations.UsageError`, which the caller can
correct, or an `OSError` reading a file), 1 for anything else: a check that
can only fail through an implementation bug (lemma, equivalence, chain)
reports a violation, or any other exception, which is an internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import conditions, properties
from .algebra import memo
from .algfile import load_algebra
from .expr import Literal, NameRef, ParseError, eval_expr, parse_expr, pretty
from .relations import RelFamily, UsageError, enumerate_relations

# verdicts on these mean "implementation bug", not "property of the algebra"
_MUST_HOLD = set(conditions.THEOREM_IDS) | set(conditions.META_CHECKS)


def _emit(records, fmt, out):
    if fmt == "structured":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        for rec in records:
            out.write(rec["_text"] + "\n")


def _family_from_args(args) -> RelFamily:
    return RelFamily(
        mode=args.family, sample_count=args.samples, seed=args.seed
    )


def _add_family_flags(sub):
    sub.add_argument(
        "--family",
        choices=("exhaustive", "sampled"),
        default="exhaustive",
        help="quantifier sweep mode (default exhaustive)",
    )
    sub.add_argument("--samples", type=int, default=200)
    sub.add_argument("--seed", type=int, default=0)


def _add_format_flag(sub):
    sub.add_argument("--format", choices=("text", "structured"), default="text")


@memo(1)
def build_parser():
    """The argument parser, built on first use and shared by every later
    `main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="relcomm",
        description="Relation commutators on finite algebras: evaluate, check, search.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a relation expression")
    p_eval.add_argument("-a", "--algebra", required=True, metavar="ALG.alg")
    p_eval.add_argument("-e", "--expr", required=True)
    p_eval.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=LITERAL",
        help="bind a relation name, e.g. R={(0,1)} or T=delta",
    )
    p_eval.add_argument(
        "--close-inputs",
        action="store_true",
        help="close commutator arguments to reflexive admissible relations",
    )
    _add_format_flag(p_eval)

    p_check = subs.add_parser("check", help="check one condition")
    p_check.add_argument("-a", "--algebra", required=True)
    p_check.add_argument("--condition", required=True, metavar="ID")
    _add_family_flags(p_check)
    _add_format_flag(p_check)

    p_all = subs.add_parser("check-all", help="run every condition and meta-check")
    p_all.add_argument("-a", "--algebra", required=True)
    _add_family_flags(p_all)
    _add_format_flag(p_all)

    p_enum = subs.add_parser("enumerate", help="list a relation family")
    p_enum.add_argument("-a", "--algebra", required=True)
    p_enum.add_argument(
        "--family",
        required=True,
        choices=("reflexive-admissible", "tolerance", "congruence"),
    )
    p_enum.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_enum.add_argument("--samples", type=int, default=200)
    p_enum.add_argument("--seed", type=int, default=0)
    _add_format_flag(p_enum)

    p_search = subs.add_parser("search", help="hunt for differing condition profiles")
    p_search.add_argument(
        "--target",
        default=None,
        metavar="ID,ID",
        help="two condition ids to separate (default: full problem profile)",
    )
    p_search.add_argument("--sizes", default="3,4", metavar="N,N")
    p_search.add_argument("--budget", type=int, default=100)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--start-index", type=int, default=0)
    p_search.add_argument("--jobs", type=int, default=1)
    _add_format_flag(p_search)

    p_cat = subs.add_parser("catalog", help="list built-in algebras")
    _add_format_flag(p_cat)
    return parser


def _cmd_eval(args, out):
    alg = load_algebra(args.algebra)
    env = {}
    for binding in args.bind:
        name, sep, text = binding.partition("=")
        name = name.strip()
        try:
            # a name the expression can reference parses back to itself
            bad = not sep or parse_expr(name) != NameRef(name) or name in env
        except ParseError:
            bad = True
        if bad:
            raise UsageError(
                f"bad --bind {binding!r}, expected NAME=LITERAL, each NAME a relation name once"
            )
        env[name] = eval_expr(alg, {}, parse_expr(text.strip()))
    expr = parse_expr(args.expr)
    rel = eval_expr(alg, env, expr, close_inputs=args.close_inputs)
    if args.format == "structured":
        rec = {"expr": args.expr, "pairs": [list(p) for p in rel.pairs()]}
        out.write(json.dumps(rec, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        out.write(pretty(Literal(tuple(rel.pairs()))) + "\n")
    return 0


def _run_checks(args, ids, out):
    alg = load_algebra(args.algebra)
    reports = properties.check_ids(alg, ids, _family_from_args(args)).values()
    _emit([{**rep.to_record(), "_text": rep.to_text()} for rep in reports], args.format, out)
    return 1 if any(rep.condition in _MUST_HOLD and not rep.holds for rep in reports) else 0


def _cmd_check(args, out):
    return _run_checks(args, [args.condition], out)


def _cmd_check_all(args, out):
    """Every condition once, then the meta-checks over those same reports."""
    return _run_checks(args, [*conditions.CONDITION_IDS, *conditions.META_CHECKS], out)


def _cmd_enumerate(args, out):
    alg = load_algebra(args.algebra)
    family = RelFamily(
        kind=args.family, mode=args.mode, sample_count=args.samples, seed=args.seed
    )
    records = []
    for rel in enumerate_relations(alg, family):
        records.append(
            {
                "bits": rel.bits,
                "pairs": [list(p) for p in rel.pairs()],
                "_text": pretty(Literal(tuple(rel.pairs()))),
            }
        )
    _emit(records, args.format, out)
    return 0


def _cmd_search(args, out):
    from . import search  # only `search` and `catalog` load it

    target = None
    if args.target and args.target != search.PROFILE_DIVERSITY:
        parts = tuple(p.strip() for p in args.target.split(","))
        if len(parts) != 2:
            raise UsageError("--target wants two comma-separated condition ids")
        target = parts
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise UsageError(f"--sizes wants comma-separated integers, got {args.sizes!r}") from None
    task = search.SearchTask(
        sizes=sizes,
        budget=args.budget,
        seed=args.seed,
        target=target,
        start_index=args.start_index,
        jobs=args.jobs,
    )
    report = search.run_search(task)
    if args.format == "structured":
        out.write(report.to_json_lines() + "\n")
    else:
        out.write(
            f"searched {report.candidates_generated} candidates "
            f"({report.duplicates_skipped} isomorphic duplicates skipped)\n"
        )
        for key in sorted(report.groups):
            names = ", ".join(report.groups[key])
            out.write(f"profile {key}: {names}\n")
        for sep in report.separations:
            out.write(
                f"separation on {sep['target']}: {sep['witness_a']} vs {sep['witness_b']}\n"
            )
        out.write(f"resume: {report.resume}\n")
    return 0


def _cmd_catalog(args, out):
    from . import search

    records = []
    for name, alg in search.catalog():
        ops = ", ".join(f"{op.name}/{op.arity}" for op in alg.operations)
        records.append(
            {
                "name": name,
                "size": alg.size,
                "ops": [[op.name, op.arity, list(op.table)] for op in alg.operations],
                "_text": f"{name}: size {alg.size}" + (f", ops {ops}" if ops else ""),
            }
        )
    _emit(records, args.format, out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "check": _cmd_check,
        "check-all": _cmd_check_all,
        "enumerate": _cmd_enumerate,
        "search": _cmd_search,
        "catalog": _cmd_catalog,
    }
    try:
        return handlers[args.command](args, sys.stdout)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal failure, InvariantViolation included
        import traceback  # only this path prints one

        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
