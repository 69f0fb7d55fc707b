"""The relcomm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a relcomm checkout; it imports relcomm from
`src/` there.  Each run of the workload's job is a fresh process
(`job.py`), so every run pays interpreter start-up, imports and cold
caches, as a CLI user does.  Runs go one at a time until about S seconds
have passed.  Each run's output is hashed and compared with the digest
pinned in `digests.json` for the input set the seed selects.

With --trace 0 the runs are untraced and the end-to-end metrics are
printed; with --trace 1 untraced and traced runs alternate, and the
per-layer metrics are printed, including the tracing overhead.  Every
metric is the median over the runs of its kind.  The end-to-end timings
are in reference seconds (see REF_HOST_LOOP_S).  The last line of stdout
is a JSON record with `correct`, `attempted`, `failed` and `metrics`; the
lines before it give each metric's median, quartiles and sample count.
Inputs and the spans of the first traced run go to `.perfbench-out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT_DIR = ".perfbench-out"
# A run must end within 180 s; no job run starts that could end after this.
DEADLINE_S = 170.0

# The speed of the shared 2-core host this was tuned on drifts by up to
# 1.6x over minutes, and that drift is common to all Python code.  So each
# job run also times a fixed loop (`job.host_loop_s`), and the end-to-end
# timings are scaled to a host on which that loop takes REF_HOST_LOOP_S
# (close to this host's median).  Over 30-s windows of check-c3 runs this
# cut the spread of the median job time from 0.186 to 0.054.
REF_HOST_LOOP_S = 0.1


def run_job(root, spec, trace_arg="", timeout=DEADLINE_S):
    """Run the job once in a fresh process: (result dict, None) or
    (None, reason).  The process is waited for, and killed on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv + [repr(t0), trace_arg],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "unreadable result line"
    result["elapsed_s"] = elapsed
    return result, None


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def measure(root, workload, seed, seconds, trace, size="full"):
    """Run the job repeatedly; returns (attempted, failed, problems, runs)
    where runs holds (traced, result) for every job run that reported."""
    pool = seed % workloads.POOL
    out_dir = os.path.join(root, OUT_DIR)
    spec = workloads.make_spec(workload, pool, size, os.path.join(out_dir, "inputs"))
    expected = load_json(os.path.join(HERE, "digests.json"))[size][workload].get(str(pool))
    trace_path = os.path.join(out_dir, f"trace-{workload}.ndjson")
    min_runs = 2 if trace else 1
    start = time.perf_counter()
    attempted, problems, runs = 0, [], []
    while True:
        elapsed = time.perf_counter() - start
        took = [result["elapsed_s"] for _, result in runs]
        next_s = statistics.median(took) if took else 0.0
        if attempted >= min_runs and elapsed + next_s > seconds:
            break
        if attempted and elapsed + 2 * next_s > DEADLINE_S:
            break
        traced = bool(trace) and attempted % 2 == 1
        trace_arg = ""
        if traced:
            trace_arg = trace_path if not any(t for t, _ in runs) else "-"
        attempted += 1
        result, problem = run_job(root, spec, trace_arg, DEADLINE_S - elapsed)
        if result is not None:
            runs.append((traced, result))
            if result["rc"] != 0:
                problem = f"job exit code {result['rc']}"
            elif result["digest"] != expected:
                problem = f"output sha1 {result['digest']} != pinned {expected}"
            elif result["units"] <= 0:
                problem = "no work reported"
        if problem:
            problems.append(f"run {attempted}{' (traced)' if traced else ''}: {problem}")
    return attempted, len(problems), problems, runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metric_samples(runs, trace):
    """Per metric name, its samples (one per job run of the right kind)."""
    plain = [r for traced, r in runs if not traced]
    if not trace:
        scale = [REF_HOST_LOOP_S / r["host_loop_s"] for r in plain]
        return {
            "wall_s": [r["wall_s"] * k for r, k in zip(plain, scale)],
            "setup_s": [r["setup_s"] * k for r, k in zip(plain, scale)],
            "throughput_per_s": [r["units"] / (r["wall_s"] * k) for r, k in zip(plain, scale)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
    traced = [r for t, r in runs if t]
    samples = {key: [r["layers"][key] for r in traced] for key in traced[0]["layers"]}
    samples["host.loop_s"] = [r["host_loop_s"] for _, r in runs]
    overhead = statistics.median(r["wall_s"] / r["host_loop_s"] for r in traced) / statistics.median(
        r["wall_s"] / r["host_loop_s"] for r in plain
    )
    samples["trace.overhead"] = [overhead - 1.0]
    return samples


def report(declared, attempted, failed, runs, trace):
    """The result record with every declared metric, and one summary line
    per metric."""
    samples = metric_samples(runs, trace)
    metrics, lines = {}, []
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        values = samples[name]
        value = statistics.median(values)
        q1, q3 = quartiles(values)
        lines.append(f"  {name:34s} {value:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        metrics[name] = {"value": value, "unit": unit}
    record = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "relcomm", "__init__.py")):
        print("error: run from the root of a relcomm checkout (no src/relcomm here)", file=sys.stderr)
        return 2
    declared = load_json(os.path.join(root, "BENCHMARK.json"))
    declared = declared["per_layer" if args.trace else "end_to_end"]

    attempted, failed, problems, runs = measure(
        root, args.workload, args.seed, args.seconds, args.trace
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    kinds = {traced for traced, _ in runs}
    if False not in kinds or (args.trace and True not in kinds):
        print("error: no job run reported a result", file=sys.stderr)
        return 1
    record, lines = report(declared, attempted, failed, runs, args.trace)
    print(f"{args.workload} seed {args.seed} (input set {args.seed % workloads.POOL}): "
          f"{attempted} job runs, {failed} failed")
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
