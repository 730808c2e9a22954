import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from transfinite_af import core
from transfinite_af.checks import materialize, per_line_parse_apx, \
    remove_argument
from transfinite_af.constructions import baumann_spanring, materialize_spec, \
    parse_generator_spec
from transfinite_af.core import (
    Affine,
    ApxParseError,
    Family,
    FiniteAF,
    IndexMap,
    LazyAF,
    Members,
    PairLeft,
    PairRight,
    format_apx,
    format_dot,
    least_right,
    pair,
    parse_apx,
    spot_check_attacker_spec,
    unpair,
)
from transfinite_af.grounded import SymbolicStageMap, omega_approximation, \
    verify_symbolic_stages
from transfinite_af.ordinals import NEVER, OMEGA, ONE, ZERO, \
    AffineOrdinalExpr, Ordinal, format_ordinal, fundamental_sequence, \
    fundamental_sequence_expr, omega_power
from transfinite_af.rank_analysis import ta_path_exists, witness_path
from transfinite_af.trees import bounded_path_search, build_tree_of_rank, \
    truncate_tree


def chain(n=3):
    return FiniteAF(n, [(i, i + 1) for i in range(n - 1)])


def two_cycle():
    return FiniteAF(2, [(0, 1), (1, 0)])


# -- pairing: bit-exact contract ----------------------------------------


def test_pairing_examples():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(0, 1) == 2
    # formula inversion: pair(2,1) = 3*4/2 + 1 = 7
    assert pair(2, 1) == 7
    assert unpair(7) == (2, 1)


def test_pairing_bijection():
    seen = {}
    for x in range(40):
        for y in range(40):
            z = pair(x, y)
            assert z not in seen
            seen[z] = (x, y)
            assert unpair(z) == (x, y)
    # the image of [0,40)^2 under pairing covers an initial segment
    assert set(range(800)) <= set(seen)


def test_least_right_matches_the_loop():
    for n in range(40):
        m = 0
        for bound in range(2000):
            while pair(n, m) < bound:
                m += 1
            assert least_right(n, bound) == m, (n, bound)


# -- finite AF set operators (brute-force oracles inline) ----------------


def brute_plus(af, s):
    return frozenset(y for x, y in af.attack_pairs if x in s)


def brute_minus(af, s):
    return frozenset(x for x, y in af.attack_pairs if y in s)


def brute_defense(af, s):
    sp = brute_plus(af, s)
    return frozenset(
        x for x in range(af.n)
        if all(a in sp for a in range(af.n) if af.attacks(a, x))
    )


def test_plus_set_examples():
    af = chain()
    assert af.plus_set({0}) == {1}
    assert af.plus_set(set()) == frozenset()
    assert two_cycle().plus_set({0}) == {1}


def test_minus_set_examples():
    af = chain()
    assert af.minus_set({1}) == {0}
    assert af.minus_set(set()) == frozenset()
    assert two_cycle().minus_set({0}) == {1}


def test_defense_step_examples():
    af = chain()
    assert af.defense_step(set()) == {0}
    assert af.defense_step({0}) == {0, 2}
    free = FiniteAF(4)
    assert free.defense_step({2}) == {0, 1, 2, 3}


def test_conflict_free_examples():
    af = chain()
    assert af.is_conflict_free(set())
    assert not two_cycle().is_conflict_free({0, 1})
    assert af.is_conflict_free({0, 2})
    assert not FiniteAF(1, [(0, 0)]).is_conflict_free({0})


def test_set_ops_against_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        attacks = [(x, y) for x in range(n) for y in range(n)
                   if rng.random() < 0.3]
        af = FiniteAF(n, attacks)
        s = frozenset(x for x in range(n) if rng.random() < 0.4)
        t = s | frozenset(x for x in range(n) if rng.random() < 0.3)
        assert af.plus_set(s) == brute_plus(af, s)
        assert af.minus_set(s) == brute_minus(af, s)
        assert af.defense_step(s) == brute_defense(af, s)
        # monotone
        assert af.defense_step(s) <= af.defense_step(t)
        # duality: x in plus({y}) iff y in minus({x})
        for x in range(n):
            for y in range(n):
                assert (x in af.plus_set({y})) == (y in af.minus_set({x}))
        # defense depends only on s+
        u = s | frozenset(x for x in range(n) if not af.plus_set({x}))
        if af.plus_set(u) == af.plus_set(s):
            assert af.defense_step(u) == af.defense_step(s)


def test_range_errors():
    af = chain()
    with pytest.raises(IndexError):
        af.attacks(0, 3)
    with pytest.raises(IndexError):
        af.plus_set({5})
    # a query names its first index out of range, the attacker before the
    # target
    for x, y, bad in [(0, 3, 3), (-1, 0, -1), (4, 9, 4), (2, -2, -2)]:
        with pytest.raises(IndexError) as err:
            af.attacks(x, y)
        assert str(err.value) == f"argument index {bad} out of range [0,3)"
    for op in (af.plus_set, af.minus_set, af.is_conflict_free):
        for s, bad in [({5}, 5), ([-1], -1), ({0, 1, 5}, 5), ((2, -4, 0), -4),
                       (range(4), 3)]:
            with pytest.raises(IndexError) as err:
                op(s)
            assert str(err.value) == \
                f"argument index {bad} out of range [0,3)", (op, s)


@pytest.mark.parametrize("args, message", [
    ((-1,), "argument count must be >= 0"),
    ((2, [(0, 2)]), "attack (0,2) out of range for n=2"),
    ((2, [(-1, 0)]), "attack (-1,0) out of range for n=2"),
    ((2, [], ["p"]), "need one name per argument"),
    ((2, [], ["p", "q-r"]), "bad argument name 'q-r'"),
    ((2, [], ["p", ""]), "bad argument name ''"),
    ((2, [], ["p", "p"]), "argument names must be unique"),
])
def test_the_public_constructor_validates(args, message):
    with pytest.raises(ValueError) as err:
        FiniteAF(*args)
    assert str(err.value) == message


TREE = build_tree_of_rank(3)
TWO = FiniteAF(2, [(0, 1)])


# Refusals of the Python API that no CLI input reaches: each bad call, the
# error type it raises and its message
@pytest.mark.parametrize("call, error, message", [
    (lambda: pair(-1, 0), ValueError, "pairing is defined on naturals"),
    (lambda: unpair(-1), ValueError, "unpair is defined on naturals"),
    (lambda: Affine(0, 1), ValueError, "affine step needs a >= 1 and b >= 0"),
    (lambda: omega_approximation(baumann_spanring(), window=0, steps=1),
     ValueError, "window and steps must be >= 1"),
    (lambda: verify_symbolic_stages(TWO, SymbolicStageMap(), sample=0),
     ValueError, "sample must be >= 1"),
    (lambda: truncate_tree(TREE, width=0), ValueError, "width must be >= 1"),
    (lambda: bounded_path_search(TREE, depth=0, width=1), ValueError,
     "depth and width must be >= 1"),
    (lambda: witness_path(TWO, 1, 0), ValueError, "length must be >= 1"),
    (lambda: ta_path_exists(TWO, 1, prefix_depth=0), ValueError,
     "prefix_depth must be >= 1"),
    (lambda: baumann_spanring(truncate=-1), ValueError,
     "truncate must be >= 0"),
    (lambda: Ordinal.from_int(-1), ValueError, "ordinals are non-negative"),
    (lambda: OMEGA.as_int(), ValueError, "w is not a natural number"),
    (lambda: OMEGA.predecessor(), ValueError, "w is not a successor ordinal"),
    (lambda: Ordinal(((1, 1),)), TypeError, "exponents must be Ordinal values"),
    (lambda: Ordinal(((ONE, 0),)), ValueError, "coefficients must be >= 1"),
    (lambda: Ordinal(((ZERO, 1), (ONE, 1))), ValueError,
     "exponents must be strictly decreasing"),
    (lambda: fundamental_sequence(OMEGA, -1), ValueError,
     "sequence index must be a natural number"),
    (lambda: fundamental_sequence_expr(ONE), ValueError,
     "fundamental_sequence_expr requires a limit ordinal"),
    (lambda: AffineOrdinalExpr(((0, 1, 0),)), TypeError,
     "exponents must be Ordinal values"),
    (lambda: AffineOrdinalExpr.affine(1, 0).evaluate(-1), ValueError,
     "k must be a natural number"),
    (lambda: AffineOrdinalExpr.affine(1, 0).add_finite(-1), ValueError,
     "can only add naturals"),
    (lambda: omega_power("x"), TypeError,
     "exponent must be an Ordinal or int"),
    (lambda: format_ordinal("x"), TypeError,
     "format_ordinal expects an ordinal"),
])
def test_the_python_api_refuses_bad_input(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_an_int_adds_on_the_left_and_never_is_a_singleton():
    assert 1 + OMEGA == OMEGA and 2 + ONE == Ordinal.from_int(3)
    assert type(NEVER)() is NEVER


def _tables(af):
    return (af.n, af.attack_pairs, af._fwd, af._rev, af.names, af._name_index)


def test_the_unchecked_builder_builds_what_the_constructor_builds():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 12)
        attacks = [(rng.randrange(n), rng.randrange(n))
                   for _ in range(rng.randint(0, 3 * n))] if n else []
        names = rng.sample([f"x{i}" for i in range(3 * n)], n)
        af = FiniteAF(n, attacks, names)
        assert _tables(FiniteAF._built(core._rows(n, frozenset(attacks)),
                                       names)) == _tables(af)
        assert af._fwd == tuple(tuple(sorted(y for x, y in af.attack_pairs
                                             if x == i)) for i in range(n))
        assert af._rev == tuple(tuple(sorted(x for x, y in af.attack_pairs
                                             if y == i)) for i in range(n))
        assert af._name_index == {nm: i for i, nm in enumerate(names)}


def test_remove_argument_reindexes():
    af = FiniteAF(3, [(0, 1), (1, 2), (2, 0)], names=["p", "q", "r"])
    smaller = remove_argument(af, 1)
    assert smaller.n == 2
    assert smaller.attack_pairs == frozenset({(1, 0)})
    assert smaller.names == ("p", "r")


# -- index maps -----------------------------------------------------------


def test_index_map_roundtrip():
    maps = [
        IndexMap.affine(4, 2),
        IndexMap.affine(1, 0).then(PairLeft(3)),
        IndexMap.affine(2, 1).then(PairLeft(0)).then(Affine(2, 3)),
        IndexMap((PairRight(0),)),
    ]
    for m in maps:
        values = [m(k) for k in range(25)]
        assert values == sorted(set(values))  # strictly increasing
        for k, v in enumerate(values):
            assert m.invert(v) == k
        # non-members invert to None
        for v in range(60):
            if v not in values and (m.invert(v) is None or m.invert(v) >= 25):
                continue
            assert v in values


def test_attacker_family_members_below():
    fam = Family(IndexMap.affine(4, 2))
    assert [v for v in range(20) if fam.contains(v)] == [2, 6, 10, 14, 18]
    assert fam.contains(10)
    assert not fam.contains(11)
    shifted = Family(IndexMap.affine(4, 2), k_start=2)
    assert not shifted.contains(2)
    assert shifted.contains(10)


# -- lazy AFs --------------------------------------------------------------


def infinite_chain():
    """a0 -> a1 -> a2 -> ...: attackers of a_{i+1} are {a_i}."""

    def spec(i):
        return Members(explicit=(() if i == 0 else (i - 1,)))

    return LazyAF(lambda x, y: y == x + 1, spec)


def test_lazy_af_basics():
    af = infinite_chain()
    assert af.attacks(3, 4)
    assert not af.attacks(4, 3)
    assert af.attacker_spec(0) == Members()
    assert af.attacker_spec(5).explicit == (4,)
    for x, y in ((-1, 0), (0, -1), (-2, -1)):
        with pytest.raises(IndexError):
            af.attacks(x, y)
    for _ in range(2):  # a refused index is not cached
        with pytest.raises(IndexError):
            af.attacker_spec(-1)


def test_materialize_window():
    af = infinite_chain()
    fin = materialize(af, 5)
    assert fin.n == 5
    assert fin.attack_pairs == frozenset((i, i + 1) for i in range(4))


def test_spot_check_flags_bad_specs():
    good = infinite_chain()
    assert spot_check_attacker_spec(good, range(6), bound=20) == []

    def broken_spec(i):
        # claims a1 is unattacked and invents an attacker for a0
        if i == 0:
            return Members(explicit=(3,))
        if i == 1:
            return Members()
        return Members(explicit=(i - 1,))

    bad = LazyAF(lambda x, y: y == x + 1, broken_spec)
    problems = spot_check_attacker_spec(bad, range(3), bound=10)
    assert any("does not attack" in p for p in problems)
    assert any("missing from spec" in p for p in problems)


def test_spot_check_scans_only_the_candidates():
    scanned = []

    def attacks(x, y):
        scanned.append((x, y))
        return y == x + 1

    hooked = LazyAF(attacks, lambda i: Members(),
                    attacker_candidates=lambda a, hi: [a - 1] if 0 < a <= hi else [])
    assert spot_check_attacker_spec(hooked, range(4), bound=10) == [
        f"spec of {a}: attacker {a - 1} missing from spec" for a in (1, 2, 3)]
    assert scanned == [(0, 1), (1, 2), (2, 3)]


# -- APX / DOT -------------------------------------------------------------


APX_SAMPLE = """\
% a three-argument chain
arg(a0).
arg(a1).
arg(a2).
att(a0,a1).
att(a1,a2).  % trailing comment
"""


def test_apx_roundtrip():
    af = parse_apx(APX_SAMPLE)
    assert af.n == 3
    assert af.attacks(0, 1) and af.attacks(1, 2) and not af.attacks(2, 0)
    again = parse_apx(format_apx(af))
    assert again == af and again.names == af.names


def test_apx_enumeration_order_is_file_order():
    af = parse_apx("arg(z).\narg(a).\natt(z,a).\n")
    assert af.names == ("z", "a")
    assert af.attacks(0, 1)


def test_apx_errors():
    with pytest.raises(ApxParseError):
        parse_apx("arg(a).\narg(a).\n")
    with pytest.raises(ApxParseError):
        parse_apx("att(a,b).\n")
    with pytest.raises(ApxParseError):
        parse_apx("argument(a).\n")
    with pytest.raises(ApxParseError):
        parse_apx("arg(a-b).\n")


def _parsed(parse, text):
    """The AF's tables, or the parse error's message and line."""
    try:
        return _tables(parse(text))
    except ApxParseError as e:
        return ("error", str(e), e.line)


# every separator str.splitlines breaks a line at
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]
# spaces str.strip removes that break no line
SPACES = ["", " ", "\t", "\x1f", "\xa0", "\u2003", "\u3000"]

APX_CASES = [
    "",
    "\n\n",
    "% only a comment",
    "%stage a 1",
    "arg(a).%stage a 1\narg(b). % b\natt(a,b).%",
    "arg(a).\narg(b).\natt(a, b).\natt(b,\u2003a).\natt(a,\ta).",
    "\u3000arg(a).\xa0\n\x1fatt(a,a).\u2003% x",
    "arg(a).\narg(b).\natt(a ,b).",
    "arg(a).\natt(a,b).\narg(b).",
    "arg(a).\natt(a,a).\natt(a,a).",
    "arg(a).\narg(a).",
    "arg(a).\natt(z,a).",
    "arg(a).\natt(a,z).",
    "att(x,a).\natt(a,y).\narg(a).",
    "arg(a).\x1farg(b).",
    "arg(a). arg(b).",
    "arg(a)",
    "arg(a-1).",
    "junk\narg(a).\narg(a).",
    "arg(a).\narg(a).\njunk",
    "att(q,r).\njunk",
    # lines a reader of prefixes and suffixes could misread
    "arg(a).).",
    "arg(a).%).",
    "arg(a).\natt(a,b,c).",
    "arg(a).\natt(a,).",
    "arg(a).\natt(,a).",
    "arg().",
    "arg(a).\narg(b).\natt(a,b).att(b,a).",
    # isalnum, but outside [a-zA-Z0-9_]
    "arg(\xe9).",
    "arg(\u0663).",
    "arg(\uff41).",
    # spaces inside an attack (valid)
    "arg(a).\narg(b).\natt(a, b).",
    "arg(a).\narg(b).\natt(a,\u2003b).",
] + ["arg(a).%sarg(b).%satt(a,c)." % (sep, sep) for sep in SEPARATORS] + [
    "arg(a).%s%sjunk" % (sep, sep) for sep in SEPARATORS]


@st.composite
def _apx_lines(draw):
    """Up to 6 arguments and 8 attacks among them, shuffled, with spaces,
    comments and separators of every kind; a third of the texts get one
    faulty line (a duplicate, an unknown name or a malformed statement)."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c_1", "Z9", "d", "e"]),
                          unique=True, max_size=6))
    space = st.sampled_from(SPACES)
    stmts = [f"arg({nm})." for nm in names] + [""] * draw(st.integers(0, 2))
    if names:
        known = st.sampled_from(names)
        stmts += draw(st.lists(st.builds("att({},{}{}).".format, known, space,
                                         known), max_size=8))
    if draw(st.integers(0, 2)) == 0:
        stmts.append(draw(st.sampled_from(
            ["arg(a).", "att(a,z).", "att(z,a).", "arg(a-b).", "att(a ,b).",
             "att(a,b)", "arg(a).arg(b).", "junk"])))
    comment = st.sampled_from(["", "%", "% note", "%stage a 1", "%%"])
    return "".join(draw(space) + stmt + draw(space) + draw(comment)
                   + draw(st.sampled_from(SEPARATORS))
                   for stmt in draw(st.permutations(stmts)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_apx_lines())
@example(APX_SAMPLE)
def test_parse_apx_matches_the_per_line_parser(text):
    assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


@pytest.mark.parametrize("text", APX_CASES)
def test_parse_apx_matches_the_per_line_parser_on_edge_cases(text):
    assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


# Lines that start or end as a statement does but are none, for a reader
# that looks only at a line's two ends.  Most arg faults name q, which no
# canonical text declares, so a misread cannot hide as a duplicate;
# arg(a). is one whenever a is declared.
SLICE_FAULTS = [
    "arg(q).).", "arg(q).%).", "arg().", "arg(q,b).", "arg(q-b).", "arg(q)",
    "arg(q)x", "arg(q) ", "Arg(q).", "%arg(q).", "arg(\xe9).", "arg(\u0663).",
    "arg(\uff41).", "arg(a).",
    "att(a,b,c).", "att(a,).", "att(,a).", "att(a,b).att(b,a).", "att(ab).",
    "att(a,b)x", "att(a,b) ", "Att(a,b).", "att(a,z).",
    # format_apx's layout split or reordered: a name or an attack over
    # two lines, an arg line after an att line, "\r\n" line ends, and
    # (last) an attack line with no final newline
    "arg(q\nr).\n", "att(a,\nb).\n", "att(a\n,b).\n", "att(a,b).\narg(q).\n",
    "arg(q).\r\natt(a,q).\r\n", "att(a,b).\r\n", "att(a,b).",
    # a comma missing from one line and repeated on the next; a name
    # character after a statement, which a reader may take for part of
    # the next line's name; a lone surrogate, which no encoding takes
    "att(a).\natt(a,b,b).", "arg(q).q", "arg(q\ud800).",
]


@pytest.mark.parametrize("fault", SLICE_FAULTS)
def test_parse_apx_matches_the_per_line_parser_on_slice_faults(fault):
    for text in (fault, "arg(a).\narg(b).\n" + fault):
        assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


@st.composite
def _canonical_apx(draw, faults=True):
    """Canonical APX as format_apx writes it, with comment lines and
    separators of every kind but no spaces; with `faults`, half of the
    texts get one line from SLICE_FAULTS or a duplicate declaration."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c_1", "Z9", "d", "e"]),
                          unique=True, max_size=6))
    stmts = [f"arg({nm})." for nm in names] + draw(st.lists(
        st.sampled_from(["", "%", "% note", "%stage a 1"]), max_size=3))
    fault = st.sampled_from(SLICE_FAULTS)
    if names:
        known = st.sampled_from(names)
        stmts += draw(st.lists(st.builds("att({},{}).".format, known, known),
                               max_size=8))
        fault |= known.map("arg({}).".format)   # a duplicate
    if faults and draw(st.booleans()):
        stmts.append(draw(fault))
    return "".join(stmt + draw(st.sampled_from(SEPARATORS))
                   for stmt in draw(st.permutations(stmts)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_canonical_apx())
def test_parse_apx_matches_the_per_line_parser_on_canonical_text(text):
    assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


_LAYOUT = re.compile(r"(?:arg\(\w+\)\.\n)+(?:att\(\w+,\w+\)\.\n)*", re.ASCII)


def in_layout(text):
    """Whether the block reader reads the text: format_apx's layout, every
    name declared once and every attack between declared names."""
    if not _LAYOUT.fullmatch(text):
        return False
    names = re.findall(r"^arg\((\w+)\)", text, re.ASCII | re.MULTILINE)
    attacks = re.findall(r"^att\((\w+),(\w+)\)", text, re.ASCII | re.MULTILINE)
    return (len(set(names)) == len(names)
            and {nm for pair in attacks for nm in pair} <= set(names))


@st.composite
def _layout_apx(draw, faults=False):
    """Text in format_apx's layout, its attack lines drawn in any order
    and with repeats; with `faults`, one line from SLICE_FAULTS goes in
    anywhere."""
    names = draw(st.lists(st.text("ab_Z9", min_size=1, max_size=4),
                          min_size=1, max_size=8, unique=True))
    known = st.sampled_from(names)
    lines = [f"arg({nm})." for nm in names] + [
        f"att({x},{y})." for x, y in draw(st.lists(st.tuples(known, known),
                                                   max_size=16))]
    if faults:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(SLICE_FAULTS)))
    return "".join(line + "\n" for line in lines)


# Texts in format_apx's layout that format_apx does not write: no attack,
# a repeated attack, attacks out of row order.
LAYOUT_CASES = [
    "arg(a).\n",
    "arg(a).\narg(b).\n",
    "arg(a).\narg(b).\natt(a,b).\natt(a,b).\n",
    "arg(a).\narg(b).\natt(b,a).\natt(a,b).\n",
    "arg(a).\narg(b).\natt(a,b).\natt(a,a).\n",
    "arg(a).\narg(b).\natt(b,b).\natt(a,b).\natt(b,b).\n",
]


@pytest.mark.parametrize("text", LAYOUT_CASES)
def test_the_block_reader_reads_the_layout_in_any_attack_order(text):
    assert core._read_blocks(text) is not None
    assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_layout_apx())
def test_layout_text_never_reaches_the_per_line_reader(text):
    reached = []
    per_line = core._read_per_line
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_read_per_line",
                      lambda lines: reached.append(lines) or per_line(lines))
        got = _parsed(parse_apx, text)
    assert reached == []
    assert got == _parsed(per_line_parse_apx, text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_layout_apx(faults=True) | _canonical_apx())
def test_the_block_reader_reads_exactly_the_layout(text):
    assert (core._read_blocks(text) is not None) == in_layout(text)
    assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


@pytest.mark.parametrize("fault", SLICE_FAULTS)
def test_the_block_reader_reads_a_fault_line_only_in_the_layout(fault):
    for text in ("arg(a).\narg(b).\n" + fault + "\n",
                 "arg(a).\narg(b).\n" + fault + "\natt(a,b).\n",
                 "arg(a).\narg(b).\natt(b,a).\n" + fault + "\n"):
        assert (core._read_blocks(text) is not None) == in_layout(text)
        assert _parsed(parse_apx, text) == _parsed(per_line_parse_apx, text)


def test_canonical_text_never_reaches_the_per_line_reader(monkeypatch):
    rng = random.Random(11)
    names = rng.sample([f"x{i}_{c}" for i in range(20) for c in "aZ9"], 30)
    afs = [materialize_spec(parse_generator_spec(spec))
           for spec in ("bs:truncate=40", "ord:w*2:truncate=5")]
    afs.append(FiniteAF(30, [(rng.randrange(30), rng.randrange(30))
                             for _ in range(60)], names))
    reached = []
    per_line = core._read_per_line
    monkeypatch.setattr(core, "_read_per_line",
                        lambda lines: reached.append(lines) or per_line(lines))
    for af in afs:
        text = format_apx(af)
        assert _tables(parse_apx(text)) == _tables(af)
        assert reached == []
        spaced = text.replace(",", ", ")
        commented = text.replace(").\n", "). % note\n", 1)
        for other in (spaced, commented):
            assert _tables(parse_apx(other)) == _tables(per_line_parse_apx(other))
            assert reached.pop() == other.splitlines() and reached == []


def per_line_writers(af):
    """(APX, DOT) of `af` written one line at a time, attacks sorted."""
    names = af.names
    attacks = sorted(af.attack_pairs)
    apx = "".join([f"arg({nm}).\n" for nm in names]
                  + [f"att({names[x]},{names[y]}).\n" for x, y in attacks])
    dot = "".join(["digraph af {\n"] + [f'  "{nm}";\n' for nm in names]
                  + [f'  "{names[x]}" -> "{names[y]}";\n' for x, y in attacks]
                  + ["}\n"])
    return apx, dot


def test_apx_output_follows_the_adjacency_rows():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        af = FiniteAF(n, [(rng.randrange(n), rng.randrange(n))
                          for _ in range(2 * n)])
        assert (format_apx(af), format_dot(af)) == per_line_writers(af)


@pytest.mark.parametrize("af", [
    FiniteAF(0),
    FiniteAF(1),
    FiniteAF(1, [(0, 0)]),
    FiniteAF(3, [(2, 0), (0, 2), (1, 1)], ["x_9", "Y", "arg_b"]),
], ids=["empty", "one-unattacked", "self-attack", "custom-names"])
def test_writers_match_the_per_line_layout_at_the_edges(af):
    # the arg and node blocks are each one join: no argument writes no
    # block, and one argument a block with no separator
    apx, dot = format_apx(af), format_dot(af)
    assert (apx, dot) == per_line_writers(af)
    assert apx.endswith("\n") or apx == ""
    again = parse_apx(apx)
    assert again.names == af.names and again == af


def test_dot_contains_graph():
    af = parse_apx(APX_SAMPLE)
    dot = format_dot(af)
    assert '"a0" -> "a1";' in dot
    assert dot.startswith("digraph af {")
    assert dot.count("->") == 2
