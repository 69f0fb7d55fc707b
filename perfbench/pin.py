"""Pin the output digest of every input set in `digests.json`.

    python3 perfbench/pin.py

Run from the root of a checkout whose outputs are trusted: the digests are
what every later benchmark run is checked against.  Re-pin only in a change
that alters the workloads themselves, never to make a failing run pass.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT_DIR, run_job

import workloads


def main():
    root = os.getcwd()
    inputs = os.path.join(root, OUT_DIR, "inputs")
    digests = {}
    for size, pools in (("full", range(workloads.POOL)), ("tiny", [0])):
        digests[size] = {}
        for workload in workloads.WORKLOADS:
            pinned = digests[size][workload] = {}
            by_spec = {}
            for pool in pools:
                spec = json.dumps(workloads.make_spec(workload, pool, size, inputs))
                if spec not in by_spec:
                    result, problem = run_job(root, json.loads(spec))
                    if problem or result["rc"] != 0:
                        print(f"{size} {workload} {pool}: {problem or result['rc']}", file=sys.stderr)
                        return 1
                    by_spec[spec] = result["digest"]
                    print(f"{size} {workload} {pool}: {result['digest']} ({result['wall_s']:.2f} s)")
                pinned[str(pool)] = by_spec[spec]
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
