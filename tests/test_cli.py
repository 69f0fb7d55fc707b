import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import relcomm
from relcomm import commutator, relations
from relcomm.algebra import _indices
from relcomm.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_pair_list(capsys):
    code, out, _ = run(capsys, "eval", "-a", "algebras/l2.alg", "-e", "comm1(all,all)")
    assert code == 0
    assert out.strip() == "{(0,0),(0,1),(1,0),(1,1)}"


def test_eval_with_bindings(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "-a", "algebras/z2.alg",
        "-e", "R^* & S",
        "--bind", "R={(0,1)}",
        "--bind", "S=all",
    )
    assert code == 0
    assert out.strip() == "{(0,1)}"


def test_eval_rejects_names_the_expression_cannot_reference(capsys):
    # a binding must name a relation that an expression can refer to, once
    z2 = ("eval", "-a", "algebras/z2.alg", "-e", "R")
    for binds in (
        ("delta=all",),
        ("R 1=all",),
        ("comm1=all",),
        ("=all",),
        ("R",),
        ("R=all", "R=delta"),
    ):
        argv = [arg for b in binds for arg in ("--bind", b)]
        code, out, err = run(capsys, *z2, *argv)
        assert code == 2, binds
        assert out == "" and "bad --bind" in err, binds
    code, out, _ = run(capsys, *z2, "--bind", " R =delta")
    assert code == 0 and out.strip() == "{(0,0),(1,1)}"


def test_eval_structured(capsys):
    code, out, _ = run(
        capsys, "eval", "-a", "algebras/z2.alg", "-e", "delta", "--format", "structured"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["pairs"] == [[0, 0], [1, 1]]


def test_eval_close_inputs(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "-a", "algebras/z2.alg",
        "-e", "comm1(R,R)",
        "--bind", "R={(0,1)}",
    )
    assert code == 2  # not reflexive, rejected
    code, out, _ = run(
        capsys,
        "eval",
        "-a", "algebras/z2.alg",
        "-e", "comm1(R,R)",
        "--bind", "R={(0,1)}",
        "--close-inputs",
    )
    assert code == 0


def test_check_condition_failing_is_exit_zero(capsys):
    code, out, _ = run(capsys, "check", "-a", "algebras/z2.alg", "--condition", "T3_I")
    assert code == 0
    assert "fails" in out
    assert "R = {(0,0),(0,1),(1,0),(1,1)}" in out


def test_check_structured_record(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "-a", "algebras/z2.alg",
        "--condition", "T3_I",
        "--format", "structured",
    )
    rec = json.loads(out)
    assert rec["id"] == "T3_I"
    assert rec["verdict"] == "fails"
    assert rec["witness"]["relations"]["R"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_check_lemma_sampled(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "-a", "algebras/c3.alg",
        "--condition", "L1A_I",
        "--family", "sampled",
        "--samples", "40",
        "--seed", "4",
    )
    assert code == 0
    assert "no counterexample found (sampled)" in out


def test_check_meta_conditions(capsys):
    for cond in ("EQ_X2", "CHAIN_X3", "T4_II"):
        code, out, _ = run(capsys, "check", "-a", "algebras/l2.alg", "--condition", cond)
        assert code == 0, cond


def test_check_equivalence_group_checks_only_its_members(capsys, monkeypatch):
    from relcomm import properties

    real = properties.check_condition
    seen = []

    def counting(alg, cond_id, family):
        seen.append(cond_id)
        return real(alg, cond_id, family)

    monkeypatch.setattr(properties, "check_condition", counting)
    code, out, _ = run(capsys, "check", "-a", "algebras/l2.alg", "--condition", "EQ_X3")
    assert code == 0
    assert out.startswith("EQ_X3: holds")
    assert seen == ["T3_I", "T3_IA", "T3_II"]


def test_check_all_evaluates_each_condition_once(capsys, monkeypatch):
    # the aliases reuse their original's report and the meta-checks the
    # reports already made, so only the 46 distinct conditions are swept
    from relcomm import properties

    real = properties.check_condition
    seen = []

    def counting(alg, cond_id, family):
        seen.append(cond_id)
        return real(alg, cond_id, family)

    monkeypatch.setattr(properties, "check_condition", counting)
    code, _, _ = run(capsys, "check-all", "-a", "algebras/l2.alg")
    assert code == 0
    assert len(seen) == len(set(seen)) == 46


def test_check_unknown_condition(capsys):
    code, _, err = run(capsys, "check", "-a", "algebras/z2.alg", "--condition", "XYZ")
    assert code == 2
    assert "unknown condition" in err


def test_check_all_trivial(capsys):
    code, out, _ = run(capsys, "check-all", "-a", "algebras/trivial1.alg")
    assert code == 0
    lines = [l for l in out.splitlines() if ":" in l]
    assert any(l.startswith("EQ_X2") for l in lines)
    assert any(l.startswith("CHAIN_X2") for l in lines)
    assert not any("fails" in l for l in lines)


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-a", "algebras/z2.alg", "--family", "reflexive-admissible"
    )
    assert code == 0
    assert out.splitlines() == ["{(0,0),(1,1)}", "{(0,0),(0,1),(1,0),(1,1)}"]


def test_enumerate_structured_deterministic(capsys):
    args = (
        "enumerate", "-a", "algebras/c3.alg",
        "--family", "tolerance", "--format", "structured",
    )
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out1 == out2
    assert len(out1.splitlines()) == 5


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "Z2: size 2, ops +/2" in out
    assert "Set2: size 2" in out


def test_search_text(capsys):
    code, out, _ = run(
        capsys, "search", "--sizes", "3", "--budget", "5", "--seed", "1"
    )
    assert code == 0
    assert "profile" in out
    assert "resume" in out


def test_search_structured_byte_identical(capsys):
    args = (
        "search", "--sizes", "3", "--budget", "10", "--seed", "7",
        "--format", "structured",
    )
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2


def test_search_target(capsys):
    code, out, _ = run(
        capsys,
        "search", "--target", "PROB_I,PROB_IV", "--sizes", "3",
        "--budget", "0", "--format", "structured",
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert any(r["kind"] == "separation" for r in recs)


def test_search_target_text(capsys):
    code, out, _ = run(
        capsys, "search", "--sizes", "2", "--budget", "40", "--seed", "1",
        "--target", "PROB_IV,PROB_V",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "searched 40 candidates (32 isomorphic duplicates skipped)"
    assert "separation on ['PROB_IV', 'PROB_V']: Set2 vs Trivial1" in lines
    assert lines[-1] == "resume: {'seed': 1, 'next_index': 40}"


def test_search_bad_target(capsys):
    code, _, err = run(capsys, "search", "--target", "PROB_I", "--budget", "0")
    assert code == 2


def test_missing_file(capsys):
    code, _, err = run(capsys, "eval", "-a", "nosuch.alg", "-e", "delta")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["check", "-a", "algebras/z2.alg"])  # missing --condition
    assert exc.value.code == 2


def test_bad_expression(capsys):
    code, _, err = run(capsys, "eval", "-a", "algebras/z2.alg", "-e", "R &")
    assert code == 2
    assert "expected" in err


def test_former_crash_inputs_exit_two_with_one_line(capsys, tmp_path):
    # each of these once ended in a traceback and exit code 1
    latin1 = tmp_path / "latin1.alg"
    latin1.write_bytes(b"size 2\n# caf\xe9\nop + 2 : 0 1 1 0\n")
    for argv, message in [
        (
            ["eval", "-a", "algebras/z2.alg", "-e", "(" * 200 + "delta" + ")" * 200],
            "error: 1:101: expression nested deeper than 100 levels",
        ),
        (
            ["eval", "-a", "algebras/z2.alg", "-e", "delta" + "^-" * 500],
            "error: 1:204: expression nested deeper than 100 levels",
        ),
        (
            ["check", "-a", str(latin1), "--condition", "T3_I"],
            f"error: {latin1}: not UTF-8 text: byte offset 12 (invalid continuation byte)",
        ),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n"), argv[:2]


# `python -c` runs the CLI under an address-space limit, so that a
# universe refused too late ends in a MemoryError or the timeout, not in
# the machine running out of memory
_LIMITED_CLI = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from relcomm.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("size", (160, 99999999))
@pytest.mark.parametrize(
    "argv, refused",
    (
        (["check", "--condition", "T3_I"], "exhaustive reflexive-admissible enumeration"),
        (["check-all"], "exhaustive reflexive-admissible enumeration"),
        (["enumerate", "--family", "congruence"], "exhaustive congruence enumeration"),
        (["eval", "-e", "delta"], "evaluation"),
        (["check", "--condition", "L1B_I"], "a sampled sweep"),
    ),
    ids=("check", "check-all", "enumerate", "eval", "sampled"),
)
def test_oversized_universe_is_refused_before_any_kernel_work(tmp_path, size, argv, refused):
    # the kernel object's listing checks the cap on n before any family
    # work, and evaluation and sampled sweeps check theirs before they
    # build a relation; the object holds no n-sized int until a kernel
    # runs, and the diagonal alone takes n**2 bits
    path = tmp_path / f"size{size}.alg"
    path.write_text(f"size {size}\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relcomm.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, *argv, "-a", str(path)],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-300:]
    assert proc.stderr.startswith(f"error: {refused} is capped at n=")
    assert f"(algebra has n={size})" in proc.stderr and proc.stderr.count("\n") == 1


def test_check_all_structured_byte_identical(capsys):
    args = ("check-all", "-a", "algebras/z2.alg", "--format", "structured", "--seed", "3")
    code, out1, _ = run(capsys, *args)
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    for line in out1.splitlines():
        json.loads(line)


def test_implementation_failure_exits_one(capsys, monkeypatch):
    # a lemma "violation" can only mean a bug; the CLI must exit 1 on it
    from relcomm import properties

    real = properties.check_condition

    def broken(alg, cond_id, family):
        rep = real(alg, cond_id, family)
        if cond_id == "L1A_I":
            witness = properties.Witness("L1A_I", {"R1": [(0, 0)]}, (0, 1))
            return rep._replace(holds=False, witness=witness)
        return rep

    monkeypatch.setattr(properties, "check_condition", broken)
    code, out, _ = run(
        capsys,
        "check",
        "-a", "algebras/z2.alg",
        "--condition", "L1A_I",
        "--family", "sampled", "--samples", "5",
    )
    assert code == 1
    assert "fails" in out


@pytest.mark.parametrize("name", ("rb3", "set3"))
def test_sampled_miss_is_no_meta_failure(capsys, name):
    # on RB3 and Set3, 60 samples find no counterexample to T2_III and
    # T2_VI but do to T2_IV and T2_V; a sampled miss proves nothing, so
    # CHAIN_X2 must not read it as a condition that holds
    from relcomm.conditions import META_CHECKS

    code, out, _ = run(
        capsys,
        "check-all",
        "-a", f"algebras/{name}.alg",
        "--family", "sampled", "--samples", "60", "--seed", "0",
        "--format", "structured",
    )
    assert code == 0
    meta = [rec for rec in map(json.loads, out.splitlines()) if rec["id"] in META_CHECKS]
    assert len(meta) == len(META_CHECKS)
    assert all(rec["verdict"] != "fails" for rec in meta)


@pytest.mark.parametrize(
    "name, family",
    (("l2", ()), ("z2", ()), ("rb3", ("--family", "sampled", "--samples", "60", "--seed", "0"))),
)
def test_check_meta_matches_check_all(capsys, name, family):
    # `check --condition X` makes X's report alone, `check-all` reuses the
    # reports it already made for aliases and meta-checks and samples the
    # conditions over arbitrary relations; both must print the same record
    # for every id
    from relcomm.conditions import CONDITION_IDS, META_CHECKS

    alg = f"algebras/{name}.alg"
    code, out, _ = run(capsys, "check-all", "-a", alg, *family, "--format", "structured")
    assert code == 0
    lines = {json.loads(line)["id"]: line for line in out.splitlines()}
    assert list(lines) == [*CONDITION_IDS, *META_CHECKS] and len(lines) == len(out.splitlines())
    for cid in lines:
        code, out, _ = run(
            capsys, "check", "-a", alg, "--condition", cid, *family, "--format", "structured"
        )
        assert code == 0, cid
        assert out.splitlines() == [lines[cid]], cid


def test_fewer_than_one_sample_is_a_usage_error(capsys):
    z2 = ("-a", "algebras/z2.alg")
    for argv in (
        ("check", *z2, "--condition", "T3_I", "--family", "sampled", "--samples", "0"),
        ("check", *z2, "--condition", "T3_I", "--family", "sampled", "--samples", "-3"),
        ("check-all", *z2, "--samples", "0"),
        ("enumerate", *z2, "--family", "tolerance", "--mode", "sampled", "--samples", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "sample_count" in err, argv


def test_invariant_violation_exits_one(capsys, monkeypatch):
    # an internal invariant that fails is a bug, not a usage error
    from relcomm import relations

    relations.clear_caches()
    # a "transitive closure" that is reflexive but not admissible on Z2:
    # (0,1) + (1,1) = (1,0) leaves it, so cg's real check must fire
    broken = relations.BinRel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    monkeypatch.setattr(relations, "star_bits", lambda n, a: broken.bits)
    code, _, err = run(capsys, "eval", "-a", "algebras/z2.alg", "-e", "cg(delta)")
    monkeypatch.undo()
    relations.clear_caches()
    assert code == 1
    assert err.startswith("error: ") and "not admissible" in err


def test_broken_report_exits_one(capsys, monkeypatch):
    # a failed report without a witness is an internal failure, not usage
    from relcomm import properties

    def broken(alg, cond_id, family):
        return properties.PropertyReport(cond_id, False, None, 0, family.mode)

    monkeypatch.setattr(properties, "check_condition", broken)
    code, _, err = run(capsys, "check", "-a", "algebras/z2.alg", "--condition", "L1A_I")
    assert code == 1
    assert "failed report requires a witness" in err


Z2 = ("-a", "algebras/z2.alg")

# every way a caller can get the input wrong, with a fragment of the
# message; FIVE stands for a five-element algebra file
USAGE_ERRORS = [
    (("eval", *Z2, "-e", "R &"), "expected a relation expression"),
    (("eval", *Z2, "-e", "{(\u00b2,1)}"), "unexpected character"),
    (("eval", *Z2, "-e", "R"), "unbound relation name"),
    (("eval", *Z2, "-e", "{(0,5)}"), "outside universe"),
    (("eval", *Z2, "-e", "comm1(R,R)", "--bind", "R={(0,1)}"), "not reflexive"),
    (("eval", *Z2, "-e", "comm1(R,R)", "--bind", "R=delta+{(0,1)}"), "not admissible"),
    (("eval", *Z2, "-e", "join(all,{(0,1)})"), "second argument of cong_join"),
    (("eval", *Z2, "-e", "join({(0,1)},all)"), "first argument of cong_join"),
    (("eval", *Z2, "-e", "R", "--bind", "delta=all"), "bad --bind"),
    (("eval", "-a", "nosuch.alg", "-e", "delta"), "nosuch.alg"),
    (("eval", "-a", "pyproject.toml", "-e", "delta"), "unknown keyword"),
    (("check", *Z2, "--condition", "XYZ"), "unknown condition"),
    (("check", *Z2, "--condition", "T3_I", "--family", "sampled", "--samples", "0"), "sample_count"),
    (("enumerate", "-a", "FIVE", "--family", "reflexive-admissible"), "capped at n=4"),
    (("search", "--target", "T3_I"), "--target"),
    (("search", "--target", "TRIV_K,T3_I"), "can only be sampled"),
    (("search", "--target", "XYZ,T3_I"), "unknown condition id"),
    (("search", "--target", "PROB_I,PROB_I"), "names one condition twice"),
    (("search", "--sizes", "a"), "--sizes"),
    (("search", "--sizes", "0"), "sizes must be"),
    (("search", "--budget", "-1"), "budget"),
    (("search", "--start-index", "-1"), "start_index"),
    (("search", "--jobs", "0"), "jobs"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[m for _, m in USAGE_ERRORS])
def test_usage_errors_exit_two(capsys, monkeypatch, tmp_path, argv, message):
    five = tmp_path / "five.alg"
    five.write_text("size 5\n")
    monkeypatch.delenv("RELCOMM_MAX_N", raising=False)
    code, out, err = run(capsys, *(str(five) if a == "FIVE" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_malformed_bound_override_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RELCOMM_MAX_N", "abc")
    code, out, err = run(capsys, "check", *Z2, "--condition", "T3_I")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "RELCOMM_MAX_N must be an integer, got 'abc'" in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_bound_override_below_one_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("RELCOMM_MAX_N", value)
    code, out, err = run(capsys, "check", *Z2, "--condition", "T3_I")
    assert (code, out) == (2, "")
    assert err == f"error: RELCOMM_MAX_N must be at least 1, got {value}\n"


def _raise(exc):
    def fail(*args):
        raise exc

    return fail


# faults injected below the CLI: (module, attribute, replacement, argv, type)
INTERNAL_ERRORS = [
    # a kernel that returns bits outside the 2x2 square
    ("relations", "star_bits", lambda n, a: a | 1 << 4, ("eval", *Z2, "-e", "cg(delta)"),
     "ValueError"),
    # a negative bitset listed inside M(R,S)
    ("commutator", "_indices", lambda bits: _indices(-1), ("eval", *Z2, "-e", "comm1(all,all)"),
     "ValueError"),
    ("properties", "check_condition", _raise(KeyError("T3_I")), ("check", *Z2, "--condition", "T3_I"),
     "KeyError"),
    ("cli", "enumerate_relations", _raise(ValueError("boom")),
     ("enumerate", *Z2, "--family", "congruence"), "ValueError"),
]


@pytest.mark.parametrize(
    "module, attr, replacement, argv, exc_type",
    INTERNAL_ERRORS,
    ids=[f"{module}.{attr}" for module, attr, *_ in INTERNAL_ERRORS],
)
def test_internal_errors_exit_one(capsys, monkeypatch, module, attr, replacement, argv, exc_type):
    relations.clear_caches()
    monkeypatch.setattr(importlib.import_module(f"relcomm.{module}"), attr, replacement)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        monkeypatch.undo()
        relations.clear_caches()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {exc_type}: ")


# sha1 of `check-all --format structured`, pinned so that refactors can show
# every verdict, witness and count is unchanged
GOLDEN_CHECK_ALL = {
    "trivial1": "9fc0e92847f72819d026d2261ae3e8f5e1bba7f4",
    "set2": "c3971e54b3fe29be12ab60a70e2f59ae0e30ce74",
    "z2": "2601da4edca82f9a9a575d56c4150d1a15196dbf",
    "l2": "580127cb5434c061b6c61da7300ffaa82b5ad1ec",
    "s2": "6b811ec28c695266982363a3dc76b77e1a729467",
    "z3": "ac0315862d5ca4aa955460fcd240b4899974b972",
    "z4": "e2b3b7a1f1668194c7246e1beab4efc0ba941e09",
    "z2xz2": "6a20084c55955b7123bde4322d8fd87167d98b80",
    "c3": "ad606496a959634831a369d8e38298004dec18e1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECK_ALL))
def test_check_all_structured_golden(capsys, name):
    code, out, _ = run(
        capsys, "check-all", "-a", f"algebras/{name}.alg", "--format", "structured"
    )
    assert code == 0
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == GOLDEN_CHECK_ALL[name]


# sha1 of sampled `check-all --samples 60 --seed 0 --format structured`.
# Between them they take every branch of the sampled draw: each family
# kind, an `above` bound (T4_*_COR) and arbitrary relations (ANY).
GOLDEN_SAMPLED_CHECK_ALL = {
    "c3": "f4600ae8deed5e5081050c9f8ef0fa4ae88f267d",
    "z4": "7e759b0fcc97bac32ee200b29c5a1afe37640b65",
    "rb3": "7564a7b2d7f2b02fae2b91514c11b1b165afbc99",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLED_CHECK_ALL))
def test_sampled_check_all_structured_golden(capsys, name):
    code, out, _ = run(
        capsys, "check-all", "-a", f"algebras/{name}.alg", "--family", "sampled",
        "--samples", "60", "--seed", "0", "--format", "structured",
    )
    assert code == 0
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == GOLDEN_SAMPLED_CHECK_ALL[name]


# sha1 of `enumerate -a algebras/c3.alg --mode sampled --samples 30 --seed 5
# --format structured`, per family kind
GOLDEN_SAMPLED_ENUMERATE = {
    "reflexive-admissible": "379fdd708efdfec74c991fed9f41442b81079392",
    "tolerance": "4ce425d1c09d83dc89eff5f32e677e2457cc09ed",
    "congruence": "c6a8ab7bc2f3686cb22efe759b83d4d99a6c97fd",
}


# sha1 of `search ... --format structured`: the default problem profile,
# a two-id target serially and through the process pool, and a target
# whose ids come in reverse table order
GOLDEN_SEARCH = {
    "--sizes 3,4 --budget 30 --seed 0": "9be2f2def71a622968394d0a2e6d6b7311d4d216",
    "--sizes 3 --budget 25 --seed 7 --target PROB_I,PROB_IV":
        "b1efcd3cd4f26bb4fa5dc47dfb7de96146ebba15",
    "--sizes 3 --budget 25 --seed 7 --target PROB_I,PROB_IV --jobs 2":
        "b1efcd3cd4f26bb4fa5dc47dfb7de96146ebba15",
    "--sizes 4 --budget 12 --seed 3 --target PROB_II,PROB_I":
        "ff257a0a650394c5126caa2eac718a13844475c8",
    # 32 of the 40 two-element candidates are isomorphic to earlier ones
    "--sizes 2 --budget 40 --seed 1 --target PROB_IV,PROB_V":
        "2028699b09cb831c39f0f5de95ee6e553a980886",
    # the n = 5 candidates are never deduplicated
    "--sizes 2,5 --budget 12 --seed 4 --target PROB_IV,PROB_V":
        "452df23ee75e6d4929d0d31f42b29019c387919f",
    # the benchmark's search-n4 job at seed 0
    "--sizes 4 --budget 50 --seed 0": "ead3b57cccdc09ebaad186e212ef57ba11b4ac7f",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_SEARCH))
def test_search_structured_golden(capsys, args):
    code, out, _ = run(capsys, "search", *args.split(), "--format", "structured")
    assert code == 0
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == GOLDEN_SEARCH[args]


@pytest.mark.parametrize("kind", sorted(GOLDEN_SAMPLED_ENUMERATE))
def test_sampled_enumerate_structured_golden(capsys, kind):
    code, out, _ = run(
        capsys, "enumerate", "-a", "algebras/c3.alg", "--family", kind, "--mode", "sampled",
        "--samples", "30", "--seed", "5", "--format", "structured",
    )
    assert code == 0
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == GOLDEN_SAMPLED_ENUMERATE[kind]


def test_main_builds_its_parser_once(capsys):
    build_parser.cache_clear()
    assert run(capsys, "eval", *Z2, "-e", "comm1(all,all)") == (0, "{(0,0),(1,1)}\n", "")
    assert run(capsys, "check", *Z2, "--condition", "T3_I") == (
        0,
        "T3_I: fails (2 bindings, exhaustive)\n"
        "  R = {(0,0),(0,1),(1,0),(1,1)}\n"
        "  violating pair: (0, 1)\n",
        "",
    )
    # a binding made through the shared parser does not outlive its call
    assert run(capsys, "eval", *Z2, "-e", "R", "--bind", "R={(0,1)}") == (0, "{(0,1)}\n", "")
    code, out, err = run(capsys, "eval", *Z2, "-e", "R")
    assert (code, out) == (2, "") and "unbound relation name 'R'" in err
    info = build_parser.cache_info()
    assert (info.hits, info.misses) == (3, 1)


def test_sampled_enumeration_stops_once_every_draw_was_tried(capsys):
    # Z2 has 14 distinct draws of 1-3 pairs and 2 congruences; the sampler
    # used to close draws until 20 attempts per sample had run out.  Each
    # draw is one lookup of the congruence closure, counted by `cg`
    def lookups():
        info = relations.cg.cache_info()
        return info.hits + info.misses

    outputs = []
    for samples in ("20", "100000"):
        before = lookups()
        argv = ("enumerate", *Z2, "--family", "congruence", "--mode", "sampled")
        outputs.append(run(capsys, *argv, "--samples", samples))
        assert 0 < lookups() - before < 100, samples
    assert outputs[0] == outputs[1] == (0, "{(0,0),(0,1),(1,0),(1,1)}\n{(0,0),(1,1)}\n", "")
