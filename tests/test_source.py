"""Rules about the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import relcomm
from relcomm import relations
from relcomm.algebra import MEMOS
from relcomm.cli import main


def test_no_assert_statements_in_package():
    # invariants must be real checks: `assert` vanishes under `python -O`
    paths = sorted(Path(relcomm.__file__).parent.glob("*.py"))
    assert any(p.name == "algebra.py" for p in paths)
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_export_resolves_once():
    names = relcomm.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(relcomm, name)] == []


def _modules():
    package = Path(relcomm.__file__).parent
    names = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert "algebra" in names and "cli" in names
    return [relcomm] + [importlib.import_module(f"relcomm.{name}") for name in names]


def test_every_cache_is_a_registered_memo():
    # a memo kept outside `algebra.MEMOS` is missed by `clear_caches` and by
    # anything that reads the memo table; a public form that carries the
    # counters of the kernel objects' memos (`PerAlgebra.counts`) must be
    # registered itself
    shared = [cached.cache_info for cached in MEMOS]
    stray = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, value in vars(module).items()
        for obj in [value, *(vars(value).values() if isinstance(value, type) else ())]
        if hasattr(obj, "cache_info") and obj.cache_info not in shared
    ]
    assert stray == []
    # and the walk sees every registered memo
    found = [value for module in _modules() for value in vars(module).values()]
    assert all(any(cached is value for value in found) for cached in MEMOS)


def test_clear_caches_empties_every_memo(capsys):
    # Z2's check-all fills every memo, the parser's included
    assert main(["check-all", "-a", "algebras/z2.alg"]) == 0
    assert [cached for cached in MEMOS if not cached.cache_info().currsize] == []
    relations.clear_caches()
    assert [cached for cached in MEMOS if cached.cache_info().currsize] == []


def _loaded(statement, modules):
    """Which of `modules` a fresh interpreter has loaded after `statement`."""
    probe = f"import sys; {statement}; print(sorted(m for m in sys.modules if m in {modules!r}))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relcomm.__file__)))
    return subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=60
    ).stdout


def test_cli_import_loads_no_process_pool():
    # only `search --jobs N` with N > 1 uses a process pool; every other
    # command, and every import of the package, skips its import cost
    assert _loaded("import relcomm.cli", ("concurrent", "multiprocessing")) == b"[]\n"


def test_cli_import_loads_no_dataclasses_traceback_or_search():
    # value classes are `algebra.Value`s, so nothing needs `dataclasses`
    # (which imports `inspect`); only the internal-failure path prints a
    # traceback, and only `search` and `catalog` use the search module
    heavy = ("dataclasses", "inspect", "traceback", "relcomm.search")
    assert _loaded("import relcomm.cli", heavy) == b"[]\n"
    assert _loaded("import relcomm.commutator", heavy) == b"[]\n"


def test_kernel_imports_load_no_checker_search_or_cli():
    # the package resolves its exports on first use, so a caller of the
    # kernels alone (the benchmark's commutator jobs) skips the parse of the
    # condition table and the modules that build on it
    statement = (
        "import relcomm.commutator; "
        "from relcomm import algfile, commutator, relations; "
        "alg = relcomm.FiniteAlgebra(2, (('+', 2, (0, 1, 1, 0)),)); "
        "full = relations.BinRel.full(2); commutator.comm(alg, full, full)"
    )
    above = ("relcomm.expr", "relcomm.conditions", "relcomm.properties", "relcomm.search")
    assert _loaded(statement, (*above, "relcomm.cli")) == b"[]\n"
