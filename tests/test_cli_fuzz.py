"""Fuzz the CLI's input grammars: generator specs, ordinals and APX files.

Every input must end in a documented exit code (0 success, 2 parse or
configuration error, 3 domain error) and never in an uncaught exception.
Sizes stay small enough for a few CLI runs per example: truncations up to
50 on the two-chain family and on ordinals below w*2 (larger ordinals get
truncations up to 3, since their trees grow as a power of the width),
nesting up to 120 levels, and at most 30 APX lines.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from transfinite_af.cli import main

pytestmark = pytest.mark.filterwarnings(
    "ignore::transfinite_af.ordinals.NoncanonicalOrdinalWarning")

_FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

_JUNK = "w^*+()0123456789:,=_ x."
# Edits that cannot grow a number: a spec's truncation or ordinal stays
# as small as generated.
_SPEC_JUNK = "w^*+():,=_ x."


@st.composite
def _mutated(draw, text, junk=_JUNK, ops=("insert", "delete", "replace")):
    """The text, or the text with one character inserted, deleted or replaced."""
    op = draw(st.sampled_from(("keep", "keep") + ops))
    if op == "keep" or (not text and op != "insert"):
        return text
    i = draw(st.integers(0, len(text) - (op != "insert")))
    ch = draw(st.sampled_from(junk))
    if op == "insert":
        return text[:i] + ch + text[i:]
    if op == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + ch + text[i + 1:]


# Half the draws nest shallowly, so that most inputs get past the parsers.
_NESTING = st.one_of(st.integers(0, 3), st.integers(0, 120))

_SMALL_ORDINALS = ["0", "1", "4", "w", "w+1", "w+5"]
_LARGE_ORDINALS = ["w*2", "w*3+2", "w^2", "w^2+w", "w^2*2+w+1", "w^3", "w^w",
                   "w^(w+1)"]


@st.composite
def _ordinal_texts(draw):
    """Flat sums, optionally under up to 120 levels of w^( ... )."""
    terms = draw(st.lists(st.sampled_from(_SMALL_ORDINALS + _LARGE_ORDINALS),
                          min_size=1, max_size=3))
    depth = draw(_NESTING)
    text = "w^(" * depth + "+".join(terms) + ")" * depth
    if draw(st.booleans()):
        text += "+" + draw(st.sampled_from(_SMALL_ORDINALS))
    return draw(_mutated(text))


@st.composite
def _leaf_specs(draw):
    kind = draw(st.sampled_from(["bs", "ord", "ord-small", "ord-large"]))
    if kind == "bs":
        if draw(st.booleans()):
            return "bs"
        return f"bs:truncate={draw(st.integers(0, 50))}"
    if kind == "ord":
        return f"ord:{draw(_ordinal_texts())}"
    if kind == "ord-small":
        return (f"ord:{draw(st.sampled_from(_SMALL_ORDINALS))}"
                f":truncate={draw(st.integers(0, 50))}")
    return (f"ord:{draw(st.sampled_from(_LARGE_ORDINALS))}"
            f":truncate={draw(st.integers(0, 3))}")


@st.composite
def _spec_texts(draw):
    """A leaf or a union of leaves, nested up to 120 levels."""
    text = ",".join(draw(st.lists(_leaf_specs(), min_size=1, max_size=3)))
    depth = draw(_NESTING)
    if depth:
        text = "union(" * depth + text + ")" * depth
    # deleting a '+' could merge two numbers, so specs get no deletions
    return draw(_mutated(text, _SPEC_JUNK, ("insert", "replace")))


@st.composite
def _apx_texts(draw):
    """Up to 6 arguments, 20 attacks and 4 odd lines, shuffled: 30 lines."""
    names = draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a3", "b_1", "c"]),
                          unique=True, max_size=6))
    lines = [f"arg({name})." for name in names]
    if names:
        lines += draw(st.lists(st.builds("att({},{}).".format,
                                         st.sampled_from(names),
                                         st.sampled_from(names)),
                               max_size=20))
    lines += draw(st.lists(st.sampled_from(
        ["", "% comment", "arg(a0).", "arg(a-1).", "att(a0,z).", "junk"]),
        max_size=4))
    return draw(_mutated("\n".join(draw(st.permutations(lines)))))


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@_FUZZ
@given(_spec_texts())
def test_generator_specs_end_in_documented_exit_codes(spec):
    _run("grounded", spec, "--sample", "16")
    _run("gen", spec)


@_FUZZ
@given(_ordinal_texts())
def test_ordinals_end_in_documented_exit_codes(text):
    _run("grounded", f"ord:{text}", "--sample", "16")
    _run("tree", "build", "--ordinal", text, "--truncate-width", "2",
         "--truncate-depth", "4")


@_FUZZ
@given(_apx_texts())
def test_apx_files_end_in_documented_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("apx") / "fuzz.apx"
    path.write_text(text)
    _run("grounded", f"apx:{path}", "--stages")
    _run("self-defending", f"apx:{path}")
    _run("reduce", "ta", "--af", f"apx:{path}", "--arg", "a0")
    _run("reduce", "ts", "--af", f"apx:{path}", "--set", "a0,a1")
    _run("reduce", "witness", "--af", f"apx:{path}", "--arg", "a1",
         "--length", "20")
