import hashlib
import json

import pytest

from relcomm.cli import main


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
            rep.holds = False
            rep.witness = properties.Witness("L1A_I", {"R1": [(0, 0)]}, (0, 1))
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


def test_invariant_violation_exits_one(capsys, monkeypatch):
    # an internal invariant that fails is a bug, not a usage error
    from relcomm import relations

    relations.clear_caches()
    monkeypatch.setattr(
        relations, "_admissibility_witness", lambda alg, r: ("+", ((0, 0),), (0, 1))
    )
    code, _, err = run(capsys, "eval", "-a", "algebras/z2.alg", "-e", "cg(delta)")
    relations.clear_caches()
    assert code == 1
    assert err.startswith("error: ") and "not admissible" in err


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
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECK_ALL))
def test_check_all_structured_golden(capsys, name):
    code, out, _ = run(
        capsys, "check-all", "-a", f"algebras/{name}.alg", "--format", "structured"
    )
    assert code == 0
    assert hashlib.sha1(out.encode("utf-8")).hexdigest() == GOLDEN_CHECK_ALL[name]
