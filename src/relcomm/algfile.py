"""The .alg file format: a human-writable operation-table document.

    # comment lines and blank lines are ignored
    size 2
    op + 2 : 0 1 1 0
    op e 0 : 0

One `size` line, then one `op NAME ARITY : ENTRIES` line per operation.
Entries are the flat row-major table (size**arity numbers on one line,
whitespace-separated); the index of f(a1,...,ak) is ((a1*n)+a2)*n+...+ak.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .relations import UsageError


class AlgebraFormatError(UsageError):
    pass


def parse_algebra(text: str) -> FiniteAlgebra:
    size = None
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        if keyword == "size":
            if size is not None:
                raise AlgebraFormatError(f"line {lineno}: duplicate size line")
            try:
                size = int(fields[1])
            except (IndexError, ValueError):
                raise AlgebraFormatError(f"line {lineno}: bad size line") from None
        elif keyword == "op":
            if size is None:
                raise AlgebraFormatError(f"line {lineno}: op before size")
            rest = fields[1] if len(fields) > 1 else ""
            head, sep, body = rest.partition(":")
            if not sep:
                raise AlgebraFormatError(f"line {lineno}: missing ':' in op line")
            head_fields = head.split()
            if len(head_fields) != 2:
                raise AlgebraFormatError(
                    f"line {lineno}: expected 'op NAME ARITY : ENTRIES'"
                )
            name = head_fields[0]
            try:
                arity = int(head_fields[1])
                table = tuple(int(tok) for tok in body.split())
            except ValueError:
                raise AlgebraFormatError(f"line {lineno}: bad number in op line") from None
            ops.append((name, arity, table))
        else:
            raise AlgebraFormatError(f"line {lineno}: unknown keyword {keyword!r}")
    if size is None:
        raise AlgebraFormatError("missing size line")
    try:
        return FiniteAlgebra(size, tuple(ops))
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from None


def format_algebra(alg: FiniteAlgebra, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"size {alg.size}")
    for op in alg.operations:
        entries = " ".join(str(v) for v in op.table)
        lines.append(f"op {op.name} {op.arity} : {entries}")
    return "\n".join(lines) + "\n"


def load_algebra(path) -> FiniteAlgebra:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebra(handle.read())
