"""Fuzz the input languages through `cli.main`, in the manner of Miller,
Fredriksen & So's study of UNIX utilities, with Hypothesis generators.

Whatever is given as an .alg file, an expression or a `--bind` literal, the
CLI either answers (exit 0) or refuses with exactly one line on stderr,
starting `error: ` (exit 2).  Exit 1 is for internal failures only, so
each exit 1 found here is a bug.

Files are run as `check --condition T3_I` and `enumerate --family
congruence`, whose exhaustive caps bound the work on any universe; `eval`
runs only on the shipped algebras.  `check-all` and the sampled ids are
left out, because on a large universe they do unbounded work.

The example counts come from the loaded Hypothesis profile: tier-1 runs
the default, and `pytest tests/test_fuzz.py --hypothesis-profile fuzz`
the larger one registered in `conftest.py`.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from relcomm import expr, search
from relcomm.cli import main

SHIPPED = sorted((Path(search.__file__).parent / "algebras").glob("*.alg"))

FILE_COMMANDS = (["check", "--condition", "T3_I"], ["enumerate", "--family", "congruence"])

# the words of the .alg format, numbers that are in and out of range, and
# a few that are no number at all; no size here exceeds the smallest cap
# (4) except the one that is far past every cap
ALG_WORDS = (
    "size", "op", ":", "#", "f", "+", "meet",
    "0", "1", "2", "3", "4", "-1", "99999999", "2.5", "0x2", "é", "\x00",
)

EXPR_WORDS = (
    *expr.SYNTAX, "R", "S", "T", "x", "delta_", "0", "1", "2", "3", "-1", "99999999",
    "{", "}", "(", ")", ",", "=", "é",
)

# a word of a file is always followed by a space, so that no two numbers
# join into a larger one; words of an expression may touch
ALG_SPACES = (" ", "\n", "\t")
EXPR_SPACES = (*ALG_SPACES, "")


def _answered_or_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


def _run_file(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.alg")
        with open(path, "wb") as handle:
            handle.write(data)
        for command in FILE_COMMANDS:
            _answered_or_refused([*command, "-a", path])


def _joined(words, spaces):
    """Strings of the given words, each followed by one of `spaces`."""
    parts = st.tuples(st.sampled_from(words), st.sampled_from(spaces))
    return st.lists(parts, max_size=30).map(lambda ps: "".join(w + s for w, s in ps))


@st.composite
def _mutated_file(draw):
    """A shipped .alg file, past its comment lines, with one word replaced,
    deleted or preceded by another."""
    text = draw(st.sampled_from(SHIPPED)).read_text()
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    parts = re.split(r"(\s+)", body)  # words at the even positions
    i = draw(st.sampled_from(range(0, len(parts), 2)))
    word = draw(st.sampled_from(ALG_WORDS))
    parts[i] = draw(st.sampled_from((word, "", word + " " + parts[i])))
    return "".join(parts).encode()


@settings(deadline=None)
@given(st.one_of(st.binary(max_size=200), _joined(ALG_WORDS, ALG_SPACES).map(str.encode)))
def test_random_alg_files_are_answered_or_refused(data):
    _run_file(data)


@settings(deadline=None)
@given(_mutated_file())
def test_mutated_shipped_files_are_answered_or_refused(data):
    _run_file(data)


@settings(deadline=None)
@given(st.sampled_from(SHIPPED), _joined(EXPR_WORDS, EXPR_SPACES), st.booleans())
def test_random_expressions_and_bindings_are_answered_or_refused(path, text, close):
    # `--expr=TEXT`, since argparse would read `-e TEXT` as an option when
    # TEXT starts with '-'
    flags = ["--bind", "R=delta", "--bind", "S=all", "--bind", "T={(0,0)}"]
    flags += ["--close-inputs"] if close else []
    _answered_or_refused(["eval", "-a", str(path), f"--expr={text}", *flags])
    _answered_or_refused(["eval", "-a", str(path), "-e", "R", f"--bind=R={text}"])
