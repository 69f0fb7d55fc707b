"""One run of one workload's job, in a fresh process.

    python3 perfbench/job.py SPEC_JSON T0 [TRACE_NDJSON | "" | -]

SPEC_JSON comes from `workloads.make_spec`.  T0 is the parent's
`time.perf_counter()` just before it started this process; on Linux that
clock is system-wide, so set-up time counts interpreter start-up.  The
third argument turns tracing on: "-" traces without writing the spans, a
path also writes them there as NDJSON.  relcomm is imported from the
PYTHONPATH the parent sets.  The last line of stdout is one JSON record.

Right before and right after the job, the process times a fixed loop of
pure Python (`host_loop_s`).  The parent divides the job's times by it to
correct for how fast the shared host happens to run at that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
from time import perf_counter


HOST_LOOP_N = 1_000_000


def host_loop_s():
    """Seconds this process takes for a fixed loop of integer arithmetic,
    which touches neither relcomm nor much memory."""
    start = perf_counter()
    acc = 0
    for i in range(HOST_LOOP_N):
        acc += i * i % 7
    return perf_counter() - start


def _setup_check(spec):
    from relcomm import cli

    def job():
        out = io.StringIO()
        rc = 0
        with contextlib.redirect_stdout(out):
            for command in spec["commands"]:
                argv = [command[0], "-a", spec["algebra"], *command[1:], "--format", "structured"]
                rc = cli.main(argv) or rc
        return rc, out.getvalue()

    def units(text):
        return sum(json.loads(line)["relations_checked"] for line in text.splitlines())

    return job, units, lambda text: 0


def _setup_search(spec):
    from relcomm import search

    task = search.SearchTask(sizes=tuple(spec["sizes"]), budget=spec["budget"], seed=spec["seed"])

    def job():
        return 0, search.run_search(task).to_json_lines() + "\n"

    def records(text, kind):
        return [rec for rec in map(json.loads, text.splitlines()) if rec["kind"] == kind]

    return (
        job,
        lambda text: len(records(text, "algebra")),
        lambda text: records(text, "search-header")[0]["duplicates_skipped"],
    )


def _canonical_bits(rel, inverse):
    """The bits of the relation that `rel` is the relabelled copy of."""
    n = rel.size
    return sum(1 << (inverse[a] * n + inverse[b]) for a, b in rel.pairs())


def _setup_commutators(spec):
    from relcomm import algfile, commutator, relations

    work = []
    for entry in spec["sets"]:
        alg = algfile.load_algebra(entry["algebra"])
        family = relations.RelFamily(kind=relations.REFLEXIVE_ADMISSIBLE)
        inverse = [0] * alg.size
        for a, image in enumerate(entry["perm"]):
            inverse[image] = a
        # listed in the order of the relations they are copies of, so the
        # same indices pick the same pairs under every relabelling
        rels = sorted(
            relations.enumerate_relations(alg, family),
            key=lambda rel: _canonical_bits(rel, inverse),
        )
        total = len(rels) ** 2
        if entry["pairs"] >= total:
            picks = range(total)
        else:
            picks = random.Random(entry["pair_seed"]).sample(range(total), entry["pairs"])
        delta = relations.BinRel.delta(alg.size)
        work += [(alg, rels[k // len(rels)], rels[k % len(rels)], delta) for k in picks]

    def job():
        results = [
            (
                r.bits,
                s.bits,
                commutator.comm1(alg, r, s).bits,
                commutator.comm(alg, r, s).bits,
                commutator.comm_weak(alg, r, s).bits,
                commutator.k_op(alg, r, s, delta).bits,
            )
            for alg, r, s, delta in work
        ]
        keys = ("R", "S", "comm1", "comm", "commW", "K_delta")
        text = "".join(
            json.dumps(dict(zip(keys, row)), separators=(",", ":"), sort_keys=True) + "\n"
            for row in results
        )
        return 0, text

    return job, lambda text: len(work), lambda text: 0


SETUPS = {"check": _setup_check, "search": _setup_search, "commutators": _setup_commutators}


def main(argv):
    spec = json.loads(argv[1])
    t0 = float(argv[2])
    trace_arg = argv[3] if len(argv) > 3 else ""
    tracer = None
    if trace_arg:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    job, units, duplicates = SETUPS[spec["kind"]](spec)
    setup_s = perf_counter() - t0
    loop_before = host_loop_s()
    if tracer is not None:
        tracer.start_job()
    start = perf_counter()
    rc, text = job()
    wall_s = perf_counter() - start
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "host_loop_s": (loop_before + host_loop_s()) / 2,
        "units": units(text),
        "digest": hashlib.sha1(text.encode("utf-8")).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_table(wall_s, duplicates(text))
        if trace_arg != "-":
            tracer.write_ndjson(trace_arg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
