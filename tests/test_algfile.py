from pathlib import Path

import pytest

from relcomm import FiniteAlgebra, format_algebra, load_algebra, parse_algebra
from relcomm.algfile import AlgebraFormatError
from relcomm import search
from relcomm.search import catalog

Z2_TEXT = """\
# cyclic group of order 2
size 2
op + 2 : 0 1 1 0
"""


def test_parse_z2():
    alg = parse_algebra(Z2_TEXT)
    assert alg.size == 2
    assert alg.operations[0].name == "+"
    assert alg.operations[0].table == (0, 1, 1, 0)


def test_parse_nullary_and_comments():
    alg = parse_algebra("size 3\n# a comment\nop c 0 : 2  # trailing\n")
    assert alg.operations[0].arity == 0
    assert alg.operations[0].table == (2,)


def test_roundtrip_catalog():
    for name, alg in catalog():
        assert parse_algebra(format_algebra(alg, comment=name)) == alg


def test_shipped_normative_files():
    z2 = load_algebra("algebras/z2.alg")
    assert z2.operations[0].table == (0, 1, 1, 0)
    l2 = load_algebra("algebras/l2.alg")
    assert [op.table for op in l2.operations] == [(0, 0, 0, 1), (0, 1, 1, 1)]


@pytest.mark.parametrize(
    "text",
    [
        "op f 2 : 0 1 1 0",  # op before size
        "size 2\nsize 2",  # duplicate size
        "size 2\nop f 2 0 1 1 0",  # missing colon
        "size 2\nop f 2 : 0 1 1",  # short table
        "size 2\nop f 2 : 0 1 1 2",  # entry out of range
        "size 2\nop f two : 0 1 1 0",  # bad arity
        "size x",  # bad size
        "bogus 2",  # unknown keyword
        "",  # missing size
    ],
)
def test_parse_errors(text):
    with pytest.raises(AlgebraFormatError):
        parse_algebra(text)


def test_load_refuses_a_file_that_is_not_utf8(tmp_path):
    # the byte offset counts from the start of the file, past any buffer
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"size 2\n" + b"# padding\n" * 1000 + b"op + 2 : 0 1 1 0 # caf\xe9\n")
    with pytest.raises(AlgebraFormatError) as exc:
        load_algebra(path)
    offset = len("size 2\n" + "# padding\n" * 1000 + "op + 2 : 0 1 1 0 # caf")
    assert str(exc.value) == (
        f"{path}: not UTF-8 text: byte offset {offset} (invalid continuation byte)"
    )


def test_format_is_parseable_with_multiline_comment():
    alg = FiniteAlgebra(2, (("f", 1, (1, 0)),))
    text = format_algebra(alg, comment="line one\nline two")
    assert parse_algebra(text) == alg


def test_catalog_matches_shipped_files():
    # `catalog()` loads each name's file from the package, so what is left
    # to check is that it lists every shipped file once, and that the
    # documented `algebras/` path is that same directory
    shipped = Path(search.__file__).parent / "algebras"
    names = [name.lower() for name in search.CATALOG_NAMES]
    assert sorted(path.stem for path in shipped.glob("*.alg")) == sorted(set(names)) == sorted(names)
    assert Path("algebras").resolve() == shipped.resolve()
