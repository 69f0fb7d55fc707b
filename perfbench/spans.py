"""Spans recorded from outside the program, and the per-layer table built
from them.

`Tracer.install` replaces the public functions of each relcomm module at
the names their callers look up at call time (for example
`properties.enumerate_relations` and `commutator.subuniverse_closure`).
Each wrapped call records a span: name, start, end and the span that was
open when it began.  Spans stay in memory and are written out as NDJSON
when the job ends.  A layer's self time is its spans' durations minus the
part covered by their child spans.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

# Cached public functions whose hit rates the table reports, by module.
CACHED = (
    ("commutator", "m_set"),
    ("commutator", "comm1"),
    ("relations", "adm_close"),
    ("relations", "tol_close"),
    ("relations", "cg"),
)

ENUMERATE = "relations.enumerate"
CLOSURE = "algebra.closure"


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []  # open spans as [span id, time covered by children]
        self.counts = Counter()
        self._cached = {}
        self._cache_base = {}

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        """`fn` with a span around every call; `name` may be a function
        of the call's arguments."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack,
        )

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name(*args) if callable(name) else name)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            stack.append([sid, 0.0])
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[sid] = t1
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Each `next()` on the generator is one span of `name`, so the
        layer's self time is the time spent producing items, not the time
        its consumer spends between them."""
        counts = self.counts
        step = self.wrap(name, next)

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def count_candidates(self, fn):
        """Count calls of `is_admissible`, and those made by enumeration."""
        counts, stack, names = self.counts, self.stack, self.names

        def wrapper(*args, **kwargs):
            counts["relations.is_admissible.calls"] += 1
            if stack and names[stack[-1][0]] == ENUMERATE:
                counts[ENUMERATE + ".candidates"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap relcomm's public functions where their callers find them."""
        from relcomm import algfile, cli, commutator, properties, relations, search

        modules = {"commutator": commutator, "relations": relations}
        self._cached = {key: getattr(modules[key[0]], key[1]) for key in CACHED}

        def closure_name(alg, power, *rest):
            arity = max((op.arity for op in alg.operations), default=0)
            return f"{CLOSURE}.a{arity}.p{power}"

        def count(key, measure):
            def on_result(result):
                self.counts[key] += measure(result)
            return on_result

        check = self.wrap(
            "properties.check",
            properties.check_condition,
            count("properties.bindings", lambda rep: rep.relations_checked),
        )
        closure = self.wrap(closure_name, relations.subuniverse_closure, count(CLOSURE + ".tuples_out", len))
        wrapped = {
            "check": check,
            "enumerate": self.wrap_generator(ENUMERATE, relations.enumerate_relations),
            "is_admissible": self.count_candidates(relations.is_admissible),
            "eval": self.wrap("expr.eval", properties.eval_expr),
            "closure": closure,
            "load": self.wrap("algfile.load", algfile.load_algebra),
        }
        for fname in ("adm_close", "tol_close", "cg"):
            wrapped[fname] = self.wrap("relations." + fname, getattr(relations, fname))
        for fname in ("m_set", "k_op", "comm1", "comm", "comm_weak"):
            wrapped[fname] = self.wrap("commutator." + fname, getattr(commutator, fname))
        for fname in ("canonical_form", "random_algebra"):
            wrapped[fname] = self.wrap("search." + fname, getattr(search, fname))

        targets = (
            (properties, "check_condition", "check"),
            (properties, "enumerate_relations", "enumerate"),
            (cli, "enumerate_relations", "enumerate"),
            (relations, "is_admissible", "is_admissible"),
            (properties, "eval_expr", "eval"),
            (relations, "subuniverse_closure", "closure"),
            (commutator, "subuniverse_closure", "closure"),
            (algfile, "load_algebra", "load"),
            (cli, "load_algebra", "load"),
            (relations, "adm_close", "adm_close"),
            (properties, "adm_close", "adm_close"),
            (relations, "tol_close", "tol_close"),
            (properties, "tol_close", "tol_close"),
            (relations, "cg", "cg"),
            (properties, "cg", "cg"),
            (commutator, "cg", "cg"),
            (commutator, "m_set", "m_set"),
            (commutator, "k_op", "k_op"),
            (commutator, "comm1", "comm1"),
            (commutator, "comm", "comm"),
            (commutator, "comm_weak", "comm_weak"),
            (search, "canonical_form", "canonical_form"),
            (search, "random_algebra", "random_algebra"),
        )
        for module, attr, key in targets:
            setattr(module, attr, wrapped[key])

    # -- the job window --------------------------------------------------

    def start_job(self):
        """Layer numbers cover spans from here on; `algfile.load.s` also
        counts the loads made while setting up."""
        self.job_first_span = len(self.starts)
        self.job_counts = Counter(self.counts)
        self._cache_base = {key: fn.cache_info() for key, fn in self._cached.items()}

    def _hit_rate(self, mod, fn):
        info = self._cached[(mod, fn)].cache_info()
        base = self._cache_base[(mod, fn)]
        hits = info.hits - base.hits
        total = hits + info.misses - base.misses
        return hits / total if total else 0.0

    # -- the per-layer table ---------------------------------------------

    def self_times(self, first=0):
        """Per span name: (calls, self seconds, total seconds), over the
        spans from index `first` on."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        covered = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        out = {}
        for i in range(first, len(starts)):
            dur = ends[i] - starts[i]
            calls, self_s, total = out.get(names[i], (0, 0.0, 0.0))
            out[names[i]] = (calls + 1, self_s + dur - covered[i], total + dur)
        return out

    def layer_table(self, job_wall_s, duplicates):
        spans = self.self_times(self.job_first_span)
        counts = self.counts - self.job_counts

        def self_s(*names):
            return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0))[0]

        closures = [n for n in spans if n.startswith(CLOSURE + ".a")]

        def closure_self(keep):
            return self_s(*[n for n in closures if keep(*_closure_key(n))])

        candidates = counts[ENUMERATE + ".candidates"]
        table = {
            "relations.enumerate.calls": counts[ENUMERATE + ".calls"],
            "relations.enumerate.self_s": self_s(ENUMERATE),
            "relations.enumerate.yielded": counts[ENUMERATE + ".yielded"],
            "relations.is_admissible.calls": counts["relations.is_admissible.calls"],
            "relations.enumerate.yield_ratio": (
                counts[ENUMERATE + ".yielded"] / candidates if candidates else 0.0
            ),
            "expr.eval.calls": calls("expr.eval"),
            "expr.eval.self_s": self_s("expr.eval"),
            "properties.check.calls": calls("properties.check"),
            "properties.bindings": counts["properties.bindings"],
            "properties.check.self_s": self_s("properties.check"),
            "algebra.closure.calls": sum(calls(n) for n in closures),
            "algebra.closure.tuples_out": counts[CLOSURE + ".tuples_out"],
            "algebra.closure.self_s": self_s(*closures),
            "algebra.closure.arity2.self_s": closure_self(lambda a, p: a <= 2),
            "algebra.closure.arity3.self_s": closure_self(lambda a, p: a >= 3),
            "algebra.closure.p2.self_s": closure_self(lambda a, p: p == 2),
            "algebra.closure.p4.self_s": closure_self(lambda a, p: p == 4),
            "commutator.m_set.calls": calls("commutator.m_set"),
            "commutator.m_set.hit_rate": self._hit_rate("commutator", "m_set"),
            "commutator.m_set.self_s": self_s("commutator.m_set"),
            "commutator.comm.self_s": self_s("commutator.comm"),
            "commutator.comm1.hit_rate": self._hit_rate("commutator", "comm1"),
            "commutator.k_op.calls": calls("commutator.k_op"),
            "commutator.k_op.self_s": self_s("commutator.k_op"),
            "relations.adm_close.hit_rate": self._hit_rate("relations", "adm_close"),
            "relations.tol_close.hit_rate": self._hit_rate("relations", "tol_close"),
            "relations.cg.hit_rate": self._hit_rate("relations", "cg"),
            "relations.closures.self_s": self_s(
                "relations.adm_close", "relations.tol_close", "relations.cg"
            ),
            "search.canonical_form.self_s": self_s("search.canonical_form"),
            "search.random_algebra.self_s": self_s("search.random_algebra"),
            "search.duplicates": duplicates,
            "algfile.load.s": self.self_times().get("algfile.load", (0, 0.0, 0.0))[2],
            "trace.wall_s": job_wall_s,
        }
        attributed = sum(s for _, s, _ in spans.values())
        table["trace.unattributed_s"] = job_wall_s - attributed
        return table

    def write_ndjson(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parents[i],
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _closure_key(name):
    a, p = name[len(CLOSURE) + 2 :].split(".p")
    return int(a), int(p)
