"""Fuzz the CLI's input grammars: generator specs, ordinals, APX files
and tree JSON, and the argv table against argparse.

Every input must end in a documented exit code (0 success, 2 parse or
configuration error, 3 domain error) and never in an uncaught exception.
Sizes stay small enough for a few CLI runs per example: truncations up to
50 on the two-chain family and on ordinals below w*2 (larger ordinals get
truncations up to 3, since their trees grow as a power of the width),
nesting up to 120 levels, at most 30 APX lines, and tree JSON of at most
8 odd paths or a small `tree build` output, nested up to 3000 levels.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from transfinite_af import cli
from transfinite_af.cli import main
from transfinite_af.constructions import materialize_spec, parse_generator_spec
from transfinite_af.core import LazyAF
from transfinite_af.errors import TransfiniteAFError

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


# Every separator str.splitlines breaks a line at, and spaces that
# str.strip removes but that break no line.
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
_SPACES = ["", "", " ", "\t", "\x1f", "\xa0", "\u3000"]


@st.composite
def _apx_texts(draw):
    """Up to 6 arguments, 20 attacks and 4 odd lines, shuffled: 30 lines,
    with spaces around statements and after commas, and any separators."""
    names = draw(st.lists(st.sampled_from(["a0", "a1", "a2", "a3", "b_1", "c"]),
                          unique=True, max_size=6))
    space = st.sampled_from(_SPACES)
    lines = [f"arg({name})." for name in names]
    if names:
        lines += draw(st.lists(st.builds("att({},{}{}).".format,
                                         st.sampled_from(names), space,
                                         st.sampled_from(names)),
                               max_size=20))
    lines += draw(st.lists(st.sampled_from(
        ["", "% comment", "arg(a0).", "arg(a-1).", "att(a0,z).", "att(a0 ,a1).",
         "junk"]), max_size=4))
    text = "".join(draw(space) + line + draw(space)
                   + draw(st.sampled_from(_SEPARATORS))
                   for line in draw(st.permutations(lines)))
    return draw(_mutated(text))


_TREE_ORDINALS = ["0", "2", "w", "w+1", "w*2", "w^2"]
_TREE_JUNK = '[]{},:" -.0123456789eEtrufalsn'
# Symbols that are not naturals, among some that are.
_ODD_SYMBOLS = st.one_of(st.integers(0, 3), st.integers(-2, -1), st.booleans(),
                         st.floats(0, 3))


@st.composite
def _tree_json_texts(draw):
    """A `tree build` output, a list of paths with odd symbols that may not
    be prefix-closed, or up to 3000 levels of nested lists; then perhaps
    one character inserted, deleted or replaced."""
    kind = draw(st.sampled_from(["built", "paths", "nested"]))
    if kind == "built":
        text = _run("tree", "build", "--ordinal",
                    draw(st.sampled_from(_TREE_ORDINALS)),
                    "--truncate-width", "2", "--truncate-depth", "3")
    elif kind == "paths":
        symbols = _ODD_SYMBOLS if draw(st.booleans()) else st.integers(0, 3)
        paths = draw(st.lists(st.lists(symbols, max_size=3), max_size=8))
        if draw(st.booleans()):
            paths = [p[:i] for p in paths for i in range(len(p) + 1)]
        text = json.dumps({"nodes": paths})
    else:
        depth = draw(st.integers(1, 3000))
        text = "[" * depth + "]" * depth
        if draw(st.booleans()):
            text = '{"nodes": [[], ' + text + "]}"
    return draw(_mutated(text, _TREE_JUNK))


def _run(*argv) -> str:
    """The command's stdout, once it ends in a documented exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return out.getvalue()


# Few generated specs build a lazy AF, so each built-in lazy spec is also
# an explicit example and reaches the hook/full-scan check.
@_FUZZ
@given(_spec_texts())
@example("bs")
@example("ord:w")
@example("ord:w^2")
@example("union(bs,ord:w)")
@example("union(ord:3:truncate=1,bs)")
def test_generator_specs_end_in_documented_exit_codes(spec):
    _run("grounded", spec, "--sample", "16")
    _run("gen", spec)
    try:
        af = materialize_spec(parse_generator_spec(spec))
    except (ValueError, KeyError, TransfiniteAFError):
        return
    if isinstance(af, LazyAF):
        # the spot check's candidates decide what a full scan decides
        hi = 24
        for a in range(hi):
            cand = list(af.attacker_candidates(a, hi))
            assert all(x < hi for x in cand)
            assert [x for x in cand if af.attacks(x, a)] == \
                [x for x in range(hi) if af.attacks(x, a)], (spec, a)


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


@_FUZZ
@given(_tree_json_texts())
@example('{"nodes": [[], [true], [false]]}')
@example("[" * 2000)
def test_tree_json_ends_in_documented_exit_codes(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("tree") / "fuzz.json"
    path.write_text(text)
    _run("tree", "rank", "--input", str(path))
    _run("tree", "search", "--input", str(path), "--depth", "4", "--width", "2")
    _run("grounded", f"tree:{path}", "--stages")


def _leaves(parser, path=()):
    """(command path, flag actions but help, choices, positionals,
    mutually exclusive groups) for each leaf command of the parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _leaves(child, path + (name,))
        return
    yield (path,
           [a for a in parser._actions if a.option_strings
            and not isinstance(a, argparse._HelpAction)],
           [c for a in parser._actions if a.choices for c in a.choices],
           sum(not a.option_strings for a in parser._actions),
           [g._group_actions for g in parser._mutually_exclusive_groups])


_LEAVES = list(_leaves(cli.build_parser()))
_ALL_FLAGS = sorted({s for leaf in _LEAVES for a in leaf[1]
                     for s in a.option_strings})
_ODD_PATHS = [(), ("tree",), ("reduce",), ("bogus",), ("reduce", "ts", "ts")]
_JUNK_TOKENS = ["--sam", "--af=x", "--sample=5", "-4", "--", "-h", "--help",
                "-x", "x y", "", "-", "apx:F", "a1", "w", "bs"]
_ODD_VALUES = st.one_of(st.integers(-5, 300).map(str), st.sampled_from(
    ["1e3", "0x10", " 7", "5_0", "+3", "\u0663", "007", "2.5", "9" * 30,
     "xml", "-4", "-x", "--af", "-", "--", "", "x y"]))
_RARELY = st.integers(0, 9).map(lambda k: k == 9)


@st.composite
def _value(draw, action):
    if draw(_RARELY):
        return draw(_ODD_VALUES)
    if action.choices:
        return draw(st.sampled_from(list(action.choices)))
    if action.type is int:
        return str(draw(st.integers(0, 300)))
    return draw(st.sampled_from(["apx:F", "a1,a2", "w", "bs", ""]))


@st.composite
def _argvs(draw):
    """The parser's own command paths, flags and choices in any order,
    each flag with a value of its kind if it takes one, one flag of each
    mutually exclusive group and the right number of positionals; then,
    each rarely, an odd path or value, a dropped or extra flag, a flag
    given twice or before its subcommand, an extra or missing positional,
    and junk tokens."""
    path, actions, choices, positionals, exclusive = draw(
        st.sampled_from(_LEAVES))
    if draw(_RARELY):
        path = draw(st.sampled_from(_ODD_PATHS))
    for group in exclusive:
        keep = draw(st.sampled_from(group))
        actions = [a for a in actions
                   if a is keep or a not in group or draw(_RARELY)]
    groups = [[draw(st.sampled_from(a.option_strings))]
              + ([draw(_value(a))] if a.nargs != 0 else [])
              for a in actions if not draw(_RARELY)]
    if draw(_RARELY):
        positionals += draw(st.sampled_from([-1, 1]))
    groups += [[draw(st.sampled_from(choices + ["bs", "x"]))]
               for _ in range(positionals)]
    while draw(_RARELY):
        groups.append([draw(st.sampled_from(_ALL_FLAGS + _JUNK_TOKENS))]
                      + draw(st.lists(_ODD_VALUES, max_size=1)))
    if groups and draw(_RARELY):
        groups.append(list(draw(st.sampled_from(groups))))
    argv = list(path) + [t for g in draw(st.permutations(groups)) for t in g]
    if path and draw(_RARELY):
        argv.insert(1, draw(st.sampled_from(_ALL_FLAGS)))
    return argv


# Each argv only parses, so the fuzz runs more examples than the others.
@settings(_FUZZ, max_examples=1000)
@given(_argvs())
@example(["grounded", "bs", "--sample=5"])
@example(["grounded", "bs", "--sam", "5"])
@example(["reduce", "ts", "--af", "apx:F", "--set", "a0", "--set", "a1"])
@example(["reduce", "ts", "--af", "apx:F", "--depth", "-4"])
@example(["reduce", "witness", "--arg", "a1", "--af", "-x"])
@example(["grounded", "--", "x"])
@example(["reduce", "ts", "-h"])
@example(["reduce", "witness", "--arg", "a1"])
@example(["tree", "search", "--input", "t.json", "--ordinal", "w",
          "--depth", "3", "--width", "3"])
@example(["grounded", "bs", "--format", "xml"])
@example(["reduce", "ta", "--af", "apx:F", "--arg", "a1", "--depth", "1e3"])
@example(["grounded", "bs", "extra"])
@example(["reduce", "--af", "X", "ts"])
def test_the_argv_table_reads_what_argparse_reads(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            want = cli._PARSER.parse_args(argv)
    except SystemExit:
        assert cli._fast_args(argv) is None
    else:
        got = cli._fast_args(argv)
        assert got is None or got == want
