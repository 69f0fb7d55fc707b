"""Self-test of the benchmark on a tiny configuration of each workload:
`check-all` on L2, a search budget of 2, and 3 commutator pairs.

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs once untraced and once traced, through the same child
process and digest check as a benchmark run.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))

# Layer self times that cover disjoint parts of the traced job, so their
# sum is at most its wall time.
DISJOINT_SELF = (
    "relations.enumerate.self_s",
    "expr.eval.self_s",
    "properties.check.self_s",
    "algebra.closure.self_s",
    "commutator.m_set.self_s",
    "commutator.comm.self_s",
    "commutator.k_op.self_s",
    "relations.closures.self_s",
    "search.canonical_form.self_s",
    "search.random_algebra.self_s",
)


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny_runs(request):
    return run.measure(ROOT, request.param, seed=0, seconds=0, trace=1, size="tiny")


def test_outputs_match_the_pinned_digest_traced_or_not(tiny_runs):
    attempted, failed, problems, runs = tiny_runs
    assert attempted == 2 and failed == 0, problems
    assert sorted(traced for traced, _ in runs) == [False, True]
    assert len({result["digest"] for _, result in runs}) == 1


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(tiny_runs, trace, section):
    attempted, failed, _, runs = tiny_runs
    record, lines = run.report(DECLARED[section], attempted, failed, runs, trace)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert [e["name"] for e in DECLARED[section]] == list(record["metrics"])
    for entry in DECLARED[section]:
        metric = record["metrics"][entry["name"]]
        assert metric == {"value": metric["value"], "unit": entry["unit"]}
        assert isinstance(metric["value"], (int, float))
    assert len(lines) == len(DECLARED[section])


def test_layer_self_times_fit_in_the_traced_wall_time(tiny_runs):
    _, _, _, runs = tiny_runs
    layers = next(result["layers"] for traced, result in runs if traced)
    assert sum(layers[key] for key in DISJOINT_SELF) <= layers["trace.wall_s"]
    assert layers["trace.unattributed_s"] >= 0
