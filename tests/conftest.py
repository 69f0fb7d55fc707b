import signal
import sys
import threading
import time

import pytest
from hypothesis import settings

from relcomm import BinRel, REFLEXIVE_ADMISSIBLE, RelFamily, enumerate_relations
from relcomm.algebra import _encode
from relcomm.search import catalog

# `pytest --hypothesis-profile fuzz` selects it; the tests of test_fuzz.py
# take their example counts from the loaded profile (every other
# property test sets its own)
settings.register_profile("fuzz", max_examples=5000)

# What one test may take: wall-clock seconds (the slowest takes about 14 s)
# and growth of the process's peak RSS in MB (the whole suite peaks near
# 100 MB).  A closure that never ends then fails its test instead of hanging
# the run, and fails it before a test that records every image it counts
# has filled the machine's memory (about 50 MB a second).
TEST_SECONDS, TEST_MEGABYTES = 120, 1000
# ru_maxrss is in bytes on macOS and in KB elsewhere
_RSS_PER_MB = 1 << 20 if sys.platform == "darwin" else 1 << 10


@pytest.fixture(autouse=True)
def limits(request):
    """Fail the test once it has run TEST_SECONDS, with a `TimeoutError`,
    or once it has raised the peak RSS by TEST_MEGABYTES, with a
    `MemoryError`: both checked every second through `SIGALRM`, only where
    that signal exists, and only in the main thread, which alone may set a
    signal handler."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return
    import resource  # on every system that has SIGALRM

    deadline = time.monotonic() + TEST_SECONDS
    ceiling = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + TEST_MEGABYTES * _RSS_PER_MB

    def check(signum, frame):
        if time.monotonic() > deadline:
            failure = TimeoutError(f"{request.node.nodeid} ran past {TEST_SECONDS} s")
        elif resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > ceiling:
            failure = MemoryError(f"{request.node.nodeid} grew the peak RSS by {TEST_MEGABYTES} MB")
        else:
            return
        if frame is not None and frame.f_lineno is None:
            # an instruction with no line (Python 3.11 has some) would crash
            # pytest's report of the traceback: raise on a later tick
            return
        # once only: pytest reports the failure before this fixture ends
        signal.setitimer(signal.ITIMER_REAL, 0)
        raise failure

    previous = signal.signal(signal.SIGALRM, check)
    signal.setitimer(signal.ITIMER_REAL, 1, 1)  # a tick a second
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def algebras():
    return dict(catalog())


@pytest.fixture(scope="session")
def ra_lists(algebras):
    """Exhaustive reflexive-admissible relation lists per catalog algebra."""
    fam = RelFamily(kind=REFLEXIVE_ADMISSIBLE, mode="exhaustive")
    return {
        name: list(enumerate_relations(alg, fam))
        for name, alg in algebras.items()
    }


@pytest.fixture(scope="session")
def corpus(algebras, ra_lists):
    """Every (algebra name, R, S) pair over the exhaustive families; the
    shared quantifier corpus for the containment and lemma suites."""
    triples = []
    for name, alg in algebras.items():
        rels = ra_lists[name]
        for r in rels:
            for s in rels:
                triples.append((name, r, s))
    return triples


def rel(n, *pairs):
    return BinRel.from_pairs(n, pairs)


def tuple_bits(n, tuples):
    """The `TupleSet` bitset of a set of tuples over {0..n-1}."""
    return sum(1 << _encode(n, t) for t in set(tuples))


def refl(n, *pairs):
    return BinRel(n, BinRel.delta(n).bits | BinRel.from_pairs(n, pairs).bits)
