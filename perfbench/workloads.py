"""Workloads of the relcomm benchmark: the inputs each one makes from a
seed, and the job that a fresh child process times on them.

The seed selects one of POOL input sets (`pool = seed % POOL`), so every
input set has an output digest pinned in `digests.json`.  Three workloads
take their seed as a relabelling of the universe: the algebra tables and
the chosen relations are carried through a permutation, which changes
every bit encoding and the enumeration order but not the amount of work.
The search workload passes the pool index to the program as its seed.

This module does not import relcomm; the parent process uses it to write
the input files, the child (`job.py`) to run the job.
"""

from __future__ import annotations

import itertools
import math
import os

POOL = 24

WORKLOADS = ("check-c3", "search-n4", "commutators-binary", "commutators-ternary")

# Every condition id that `check-all` sweeps, each checked once, except five
# all-reflexive-admissible sweeps of 15,625 bindings or more (L1A_II,
# T3_III, T3_IV, T4_I_CONC, T4_II_CONC: 1.6-2.1 s each on C3) and L1A_III
# (390,625 bindings, about 53 s).  L1A_I stays as their representative, so
# one run of the job takes about 3 s instead of 67 s.
CHECK_C3_EXHAUSTIVE = (
    "L1A_I",
    "T2_I", "T2_IA", "T2_IB", "T2_IC", "T2_ID", "T2_II", "T2_III", "T2_IV",
    "T2_V", "T2_VI",
    "T3_I", "T3_IA", "T3_II", "T3_V", "T3_VI",
    "P3A_I", "P3A_II",
    "T4_I_COR", "T4_II_COR",
    "PROB_III", "PROB_IV", "PROB_V", "REMARK_RT",
    "SEQ_A", "SEQ_B", "SEQ_C", "SEQ_D", "SEQ_E", "SEQ_F",
    "SEQ_G", "SEQ_H", "SEQ_I", "SEQ_J", "SEQ_K", "SEQ_L",
    "PROB_I", "PROB_II", "T4_I_HYP", "T4_II_HYP",
)
# The conditions quantifying over arbitrary relations, which `check-all`
# sweeps with 200 samples at seed 0; the job does the same.
CHECK_C3_SAMPLED = ("L1B_I", "L1B_II", "L1B_III", "TRIV_K")
SAMPLED_FLAGS = ["--family", "sampled", "--samples", "200", "--seed", "0"]

SEARCH_BUDGET = 50
BINARY_PAIRS = 2000
TERNARY_MAJORITY_PAIRS = 16


def chain_lattice(n):
    """The n-element chain 0 < 1 < ... < n-1 with meet and join."""
    pairs = list(itertools.product(range(n), repeat=2))
    return n, [
        ("meet", 2, [min(a, b) for a, b in pairs]),
        ("join", 2, [max(a, b) for a, b in pairs]),
    ]


def majority_chain(n):
    """The median (majority) operation on the n-element chain."""
    triples = itertools.product(range(n), repeat=3)
    return n, [("maj", 3, [sorted(t)[1] for t in triples])]


def malcev_cyclic(n):
    """The Mal'cev operation x - y + z of the cyclic group of order n."""
    triples = itertools.product(range(n), repeat=3)
    return n, [("p", 3, [(x - y + z) % n for x, y, z in triples])]


def permutation(n, pool):
    return list(itertools.permutations(range(n)))[pool % math.factorial(n)]


def relabel(alg, perm):
    """The isomorphic copy of `alg` in which element a is renamed perm[a]."""
    n, ops = alg
    out = []
    for name, arity, table in ops:
        new = [0] * len(table)
        for idx, args in enumerate(itertools.product(range(n), repeat=arity)):
            pos = 0
            for a in args:
                pos = pos * n + perm[a]
            new[pos] = perm[table[idx]]
        out.append((name, arity, new))
    return n, out


def alg_text(alg, comment):
    n, ops = alg
    lines = [f"# {comment}", f"size {n}"]
    for name, arity, table in ops:
        lines.append(f"op {name} {arity} : " + " ".join(map(str, table)))
    return "\n".join(lines) + "\n"


def _write_alg(inputs_dir, filename, alg, comment):
    os.makedirs(inputs_dir, exist_ok=True)
    path = os.path.join(inputs_dir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(alg_text(alg, comment))
    return path


def _pair_set(inputs_dir, label, alg, perm, pairs):
    """A commutator input: the relabelled algebra, its permutation and how
    many distinct (R, S) pairs to draw (all of them when there are fewer)."""
    name = f"{label}-p{''.join(map(str, perm))}.alg"
    path = _write_alg(inputs_dir, name, relabel(alg, perm), f"{label}, relabelled by {perm}")
    return {"algebra": path, "perm": perm, "pairs": pairs, "pair_seed": f"{label}-pairs"}


def make_spec(workload, pool, size, inputs_dir):
    """The job description for one input set, written as files where the
    program reads files.  `size` is "full" for the benchmark and "tiny" for
    its self-test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    tiny = size == "tiny"
    if workload == "check-c3":
        if tiny:
            perm = permutation(2, pool)
            path = _write_alg(inputs_dir, "l2-tiny.alg", relabel(chain_lattice(2), perm), "L2")
            return {"kind": "check", "algebra": path, "commands": [["check-all"]]}
        perm = permutation(3, pool)
        path = _write_alg(
            inputs_dir,
            f"c3-p{''.join(map(str, perm))}.alg",
            relabel(chain_lattice(3), perm),
            f"three-element chain lattice, relabelled by {perm}",
        )
        commands = [["check", "--condition", cid] for cid in CHECK_C3_EXHAUSTIVE]
        commands += [["check", "--condition", cid] + SAMPLED_FLAGS for cid in CHECK_C3_SAMPLED]
        return {"kind": "check", "algebra": path, "commands": commands}
    if workload == "search-n4":
        return {"kind": "search", "sizes": [4], "budget": 2 if tiny else SEARCH_BUDGET, "seed": pool}
    if workload == "commutators-binary":
        pairs = 3 if tiny else BINARY_PAIRS
        sets = [_pair_set(inputs_dir, "chain4", chain_lattice(4), permutation(4, pool), pairs)]
        return {"kind": "commutators", "sets": sets}
    sets = [
        _pair_set(
            inputs_dir,
            "majority3",
            majority_chain(3),
            permutation(3, pool),
            3 if tiny else TERNARY_MAJORITY_PAIRS,
        )
    ]
    if not tiny:
        # Z4 has three reflexive admissible relations (its congruences), so
        # this is all nine pairs; M(1, 1) alone takes about 1.8 s.
        sets.append(_pair_set(inputs_dir, "malcev-z4", malcev_cyclic(4), permutation(4, pool), 9))
    return {"kind": "commutators", "sets": sets}
