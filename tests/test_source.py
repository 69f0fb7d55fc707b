"""Rules about the package source itself."""

import ast
from pathlib import Path

import relcomm


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
