"""Ordinal arithmetic tests.

The independent oracle here is a polynomial model of ordinals below w^w:
a little-endian list of coefficients, index i being the coefficient of
w^i.  Comparison and addition are implemented from scratch on that
model and never touch the package's CNF code paths.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from transfinite_af.ordinals import (
    MAX_ORDINAL_NESTING,
    NEVER,
    OMEGA,
    ONE,
    SMALL_NATURALS,
    ZERO,
    AffineOrdinalExpr,
    NoncanonicalOrdinalWarning,
    Ordinal,
    OrdinalParseError,
    format_ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    omega_power,
    parse_ordinal,
    _cmp,
)
from transfinite_af.trees import _split, _split_rank


# -- independent polynomial oracle (ordinals below w^w) -----------------


def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_cmp(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if len(p) != len(q):
        return -1 if len(p) < len(q) else 1
    for a, b in zip(reversed(p), reversed(q)):
        if a != b:
            return -1 if a < b else 1
    return 0


def poly_add(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        return p
    d = len(q) - 1
    out = list(q)
    if len(p) > d:
        out[d] += p[d]
        out.extend(p[d + 1:])
    return out


def poly_to_ordinal(p):
    p = poly_trim(p)
    total = ZERO
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            total = total + Ordinal(((Ordinal.from_int(i), p[i]),))
    return total


def random_poly(rng, degree=4, coeff=9):
    return [rng.randint(0, coeff) for _ in range(rng.randint(0, degree))]


def random_ordinal(rng, depth=2):
    """Structural generator reaching past w^w when depth allows."""
    if depth == 0 or rng.random() < 0.4:
        return poly_to_ordinal(random_poly(rng))
    terms = []
    exponents = sorted(
        {random_ordinal(rng, depth - 1) for _ in range(rng.randint(1, 3))},
        reverse=True,
    )
    for e in exponents:
        terms.append((e, rng.randint(1, 5)))
    try:
        return Ordinal(tuple(terms))
    except ValueError:
        return poly_to_ordinal(random_poly(rng))


# -- frozen examples ----------------------------------------------------


def test_compare_examples():
    assert OMEGA == OMEGA
    w2 = poly_to_ordinal([0, 2])
    w5 = poly_to_ordinal([5, 1])
    assert w2 > w5
    assert 3 < OMEGA


def test_successor_examples():
    assert ZERO + 1 == 1
    assert OMEGA + 1 == poly_to_ordinal([1, 1])
    base = poly_to_ordinal([0, 3, 1])  # w^2 + w*3
    assert base + 1 == poly_to_ordinal([1, 3, 1])


def test_sup_examples():
    assert max([Ordinal.from_int(3), OMEGA, OMEGA + 1], default=ZERO) == OMEGA + 1
    assert max([], default=ZERO) == ZERO
    assert AffineOrdinalExpr.affine(1, 1).sup_over()[0] == OMEGA  # sup_k (k+1)
    # sup_k (w*k + 5) = w^2
    expr = AffineOrdinalExpr(((ONE, 1, 0), (ZERO, 0, 5)))
    assert expr.sup_over()[0] == omega_power(2)


def test_fundamental_sequence_examples():
    assert fundamental_sequence(OMEGA, 7) == 7
    w2 = poly_to_ordinal([0, 2])
    assert fundamental_sequence(w2, 4) == poly_to_ordinal([4, 1])
    assert fundamental_sequence(omega_power(2), 3) == poly_to_ordinal([0, 3])
    assert fundamental_sequence(omega_power(2), 0) == ZERO
    with pytest.raises(ValueError):
        fundamental_sequence(OMEGA + 1, 2)
    with pytest.raises(ValueError):
        fundamental_sequence(ZERO, 2)


def test_parse_examples():
    assert parse_ordinal("w*2") == poly_to_ordinal([0, 2])
    assert parse_ordinal("w^2+w*3+1") == poly_to_ordinal([1, 3, 1])
    with pytest.warns(NoncanonicalOrdinalWarning):
        assert parse_ordinal("1+w") == OMEGA
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w^(w*2)") == omega_power(poly_to_ordinal([0, 2]))
    assert parse_ordinal("w^w") == omega_power(OMEGA)


def test_parse_exponent_binds_tightly():
    # the sum continues after an unparenthesized exponent atom
    assert parse_ordinal("w^w+1") == omega_power(OMEGA) + 1
    assert parse_ordinal("w^2*3+w") == Ordinal(((Ordinal.from_int(2), 3), (ONE, 1)))


def test_parse_errors():
    for bad in ["", "w^", "w++1", "(w", "w^()", "x", "w*", "3 3"]:
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)


def test_parse_caps_exponent_nesting():
    def nested(depth):
        return "w^(" * depth + "w" + ")" * depth

    with pytest.warns(NoncanonicalOrdinalWarning):
        deepest = parse_ordinal(nested(MAX_ORDINAL_NESTING))
    assert format_ordinal(deepest).count("(") == MAX_ORDINAL_NESTING - 1
    with pytest.raises(OrdinalParseError, match="nested deeper"):
        parse_ordinal(nested(MAX_ORDINAL_NESTING + 1))


def test_never_is_top():
    assert NEVER > OMEGA
    assert NEVER > 10**9
    assert OMEGA < NEVER
    assert not NEVER < OMEGA
    assert NEVER >= NEVER and NEVER <= NEVER
    assert NEVER != OMEGA
    assert NEVER == NEVER


# -- randomized against the oracle --------------------------------------


def test_trichotomy_matches_poly_oracle():
    rng = random.Random(42)
    for _ in range(2000):
        p, q = random_poly(rng), random_poly(rng)
        expected = poly_cmp(p, q)
        x, y = poly_to_ordinal(p), poly_to_ordinal(q)
        assert (x < y, x == y, x > y) == (expected < 0, expected == 0, expected > 0)


def test_addition_matches_poly_oracle():
    rng = random.Random(43)
    for _ in range(2000):
        p, q = random_poly(rng), random_poly(rng)
        assert poly_to_ordinal(p) + poly_to_ordinal(q) == poly_to_ordinal(poly_add(p, q))


def test_successor_adjacency():
    rng = random.Random(44)
    samples = [random_ordinal(rng) for _ in range(300)]
    for x in samples:
        s = x + 1
        assert x < s
        assert s.predecessor() == x
        # nothing generated sits strictly between x and x+1
        for y in samples[:50]:
            assert not (x < y < s)


def test_fundamental_sequences_increase_to_limit():
    rng = random.Random(45)
    limits = [x for x in (random_ordinal(rng, 3) for _ in range(400)) if x.is_limit]
    assert len(limits) > 50
    for x in limits[:120]:
        prev = None
        for i in range(6):
            v = fundamental_sequence(x, i)
            assert v < x
            if prev is not None:
                assert prev < v
            prev = v
        expr = fundamental_sequence_expr(x)
        if expr is not None:
            for i in range(6):
                assert expr.evaluate(i) == fundamental_sequence(x, i)
            value, attained = expr.sup_over()
            assert value == x and not attained


def test_affine_sup_bounds_and_cofinality():
    rng = random.Random(46)
    for _ in range(300):
        # random affine family below w^w: constant prefix + one k-term
        degree = rng.randint(0, 3)
        terms = []
        for d in range(degree + 2, degree, -1):
            if rng.random() < 0.5:
                terms.append((Ordinal.from_int(d), 0, rng.randint(1, 4)))
        terms.append((Ordinal.from_int(degree), rng.randint(1, 3), rng.randint(0, 4)))
        if rng.random() < 0.5:
            terms.append((ZERO, 0, rng.randint(1, 5)) if degree > 0 else (ZERO, 0, 1))
        try:
            expr = AffineOrdinalExpr(tuple(terms))
        except ValueError:
            continue
        value, attained = expr.sup_over()
        assert not attained
        # upper bound on samples, and cofinal past any sampled value
        for k in range(0, 40, 7):
            assert expr.evaluate(k) < value
        probe = expr.evaluate(25)
        assert probe < value
        assert value <= probe + omega_power(len(terms) + degree + 2)


def test_affine_expr_validation():
    with pytest.raises(ValueError):
        AffineOrdinalExpr(((ZERO, 1, 0), (ONE, 1, 0)))  # increasing exponents
    with pytest.raises(ValueError):
        AffineOrdinalExpr(((ONE, 1, 0), (ZERO, 2, 1)))  # two k-terms
    with pytest.raises(ValueError):
        AffineOrdinalExpr(((ZERO, 0, 0),))
    expr = AffineOrdinalExpr.affine(2, 1)
    assert expr.evaluate(3) == 7
    assert expr.add_finite(4).evaluate(0) == 5


def test_stage_expr_helpers():
    expr = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))  # w + k + 1
    assert expr.evaluate(0) == OMEGA + 1
    value, attained = expr.sup_over(1)
    assert value == poly_to_ordinal([0, 2]) and not attained
    const = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 0, 3)))  # w + 3
    assert const.is_constant and const.sup_over() == (OMEGA + 3, True)


# -- hypothesis properties ----------------------------------------------

finite_ordinals = st.integers(min_value=0, max_value=50).map(Ordinal.from_int)


def _ordinal_strategy():
    def extend(children):
        def build(pairs):
            terms = []
            seen = set()
            for e, c in sorted(pairs, reverse=True, key=lambda p: p[0]):
                if e not in seen:
                    seen.add(e)
                    terms.append((e, c))
            return Ordinal(tuple(terms))

        return st.lists(
            st.tuples(children, st.integers(min_value=1, max_value=6)),
            min_size=0,
            max_size=3,
        ).map(build)

    return st.recursive(finite_ordinals, extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_ordinal_strategy())
def test_parse_format_roundtrip(x):
    assert parse_ordinal(format_ordinal(x)) == x


@settings(max_examples=200, deadline=None)
@given(_ordinal_strategy(), _ordinal_strategy())
def test_trichotomy_exclusive(x, y):
    assert (x < y) + (x == y) + (x > y) == 1


@settings(max_examples=200, deadline=None)
@given(_ordinal_strategy(), _ordinal_strategy())
def test_addition_monotone_on_right(x, y):
    assert x <= x + y
    if y > ZERO:
        assert x < x + y


# A limit below w^w: coefficients of w^1, w^2, ... with one of them positive.
_limits_below_w_to_the_w = st.lists(
    st.integers(0, 10 ** 6), min_size=1, max_size=8).filter(any).map(
        lambda cs: poly_to_ordinal([0] + cs))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_limits_below_w_to_the_w, st.integers(0, 10 ** 6))
@example(OMEGA, 0)
@example(poly_to_ordinal([0, 0, 3]), 10 ** 6)
def test_fundamental_sequence_is_its_closed_form_below_w_to_the_w(x, i):
    # a rank tree's limit family vouches its children's ranks affine on this
    assert fundamental_sequence(x, i) == fundamental_sequence_expr(x).evaluate(i)


# -- one order over stage values -----------------------------------------

# Reference: the stage values in increasing order, equal ones sharing a
# position (the int 3 is the finite ordinal 3); "x" and None are not stage
# values, so they order against nothing and equal only themselves.
STAGE_VALUES = [
    ("0", Ordinal.from_int(0), 0), ("1", Ordinal.from_int(1), 1),
    ("3", Ordinal.from_int(3), 2), ("int 3", 3, 2), ("w", OMEGA, 3),
    ("w+1", OMEGA + 1, 4), ("w^w", omega_power(OMEGA), 5),
    ("NEVER", NEVER, 6), ('"x"', "x", None), ("None", None, None),
]
COMPARISONS = {
    "==": lambda x, y: x == y, "!=": lambda x, y: x != y,
    "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
    ">": lambda x, y: x > y, ">=": lambda x, y: x >= y,
}


def _reference(op, x, rx, y, ry):
    if rx is not None and ry is not None:
        return COMPARISONS[op](rx, ry)
    both_str = type(x) is type(y) is str
    if op in ("==", "!="):
        return (x is y or both_str) == (op == "==")
    return COMPARISONS[op]("x", "x") if both_str else TypeError


@pytest.mark.parametrize("op", sorted(COMPARISONS))
def test_stage_value_comparisons_match_reference_table(op):
    for (nx, x, rx), (ny, y, ry) in itertools.product(STAGE_VALUES, repeat=2):
        want = _reference(op, x, rx, y, ry)
        if want is TypeError:
            with pytest.raises(TypeError):
                COMPARISONS[op](x, y)
        else:
            assert COMPARISONS[op](x, y) is want, f"{nx} {op} {ny}"


stage_values = st.one_of(_ordinal_strategy(), st.integers(0, 80), st.just(NEVER))


def _sign(x, y):
    """The order of stage values by _cmp, NEVER above every ordinal."""
    if x is NEVER or y is NEVER:
        return (x is NEVER) - (y is NEVER)
    x, y = (v if isinstance(v, Ordinal) else Ordinal.from_int(v) for v in (x, y))
    return _cmp(x, y)


def _equal_copies(v):
    """v, an equal Ordinal built apart from it (a new object all the way
    down), and the int of a finite one."""
    if v is NEVER:
        return [v]
    o = v if isinstance(v, Ordinal) else Ordinal.from_int(v)
    return [v, validated(o)] + ([o.as_int()] if o.is_finite else [])


@settings(max_examples=300, deadline=None)
@given(stage_values, stage_values)
def test_comparisons_and_hash_agree_with_cmp_and_never(x, y):
    for a, b in itertools.product(_equal_copies(x), _equal_copies(y) + [x]):
        c = _sign(a, b)
        assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == \
            (c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0), (a, b)
        if c == 0:
            assert hash(a) == hash(b)


@settings(max_examples=300, deadline=None)
@given(_ordinal_strategy(), st.integers(1, 2 * SMALL_NATURALS))
def test_adding_an_int_is_adding_its_ordinal(x, n):
    total = x + n
    assert total == x + Ordinal.from_int(n)
    assert total.terms == (x + Ordinal.from_int(n)).terms
    assert validated(total).terms == total.terms


def test_never_orders_against_no_bool_and_stays_hashable():
    with pytest.raises(TypeError):
        NEVER < True
    assert {NEVER: 1}[NEVER] == 1
    assert str(NEVER) == "NEVER" and str(OMEGA + 1) == "w+1"


# -- arithmetic builds canonical results ----------------------------------


def validated(o):
    """o rebuilt through the validating constructor, exponents first."""
    return Ordinal(tuple((validated(e), c) for e, c in o.terms))


def validated_poly(p):
    """The ordinal of a polynomial, built only by the validating constructor."""
    return Ordinal(tuple(
        (Ordinal(((Ordinal(()), i),)) if i else Ordinal(()), c)
        for i, c in reversed(list(enumerate(poly_trim(p)))) if c))


def assert_canonical(r, p=None, probes=()):
    """r passes the validating constructor, and, when its polynomial p is
    known, it orders against every probe polynomial as p does."""
    assert validated(r) == r and validated(r).terms == r.terms
    if p is not None:
        assert r == validated_poly(p)
        for q in probes:
            want, v = poly_cmp(p, q), validated_poly(q)
            assert (r < v, r == v, r > v) == (want < 0, want == 0, want > 0)


def poly_fundamental(p, i):
    """fundamental_sequence on a limit below w^w: w^d*c becomes w^d*(c-1) + w^(d-1)*i."""
    p = poly_trim(p)
    d = next(j for j, c in enumerate(p) if c)
    out = list(p)
    out[d] -= 1
    out[d - 1] = i
    return out


def test_arithmetic_results_are_canonical_and_ordered_by_the_poly_oracle():
    rng = random.Random(47)
    for _ in range(600):
        p, q = random_poly(rng), random_poly(rng)
        probes = [random_poly(rng) for _ in range(4)] + [p, q]
        x, y = validated_poly(p), validated_poly(q)
        assert_canonical(x + y, poly_add(p, q), probes)
        assert_canonical(x + 1, poly_add(p, [1]), probes)
        if poly_trim(p) and p[0]:
            assert_canonical(x.predecessor(), [p[0] - 1] + p[1:], probes)
        if len(poly_trim(p)) == 1 and len(poly_trim(q)) == 1:
            # finite + finite and the predecessor of a finite are shared
            small = [r for r in (x + y, x.predecessor()) if r < SMALL_NATURALS]
            assert all(r is Ordinal.from_int(r.as_int()) for r in small)
        if poly_trim(p) and not p[0]:
            for i in (0, 1, rng.randint(2, 70)):
                assert_canonical(fundamental_sequence(x, i), poly_fundamental(p, i),
                                 probes)
            lam, n = _split(x)
            assert (lam, n) == (x, 0) and _split_rank((lam, n)) is x
        if poly_trim(p) and p[0]:
            lam, n = _split(x)
            assert_canonical(lam, [0] + p[1:], probes)
            assert n == p[0]
            assert_canonical(_split_rank((lam, n)), p, probes)
    for _ in range(300):
        x, y = random_ordinal(rng, 3), random_ordinal(rng, 3)
        assert_canonical(x + y)
        if x.is_successor:
            assert_canonical(x.predecessor())
            assert_canonical(_split(x)[0])
            assert_canonical(_split_rank(_split(x)))
        if x.is_limit:
            for i in range(4):
                assert_canonical(fundamental_sequence(x, i))


def test_affine_results_are_canonical_and_ordered_by_the_poly_oracle():
    rng = random.Random(48)
    for _ in range(300):
        degree = rng.randint(0, 3)
        terms = [(Ordinal.from_int(d), 0, rng.randint(1, 4))
                 for d in range(degree + 3, degree, -1) if rng.random() < 0.5]
        terms.append((Ordinal.from_int(degree), rng.randint(0, 3), rng.randint(0, 4)))
        if degree and rng.random() < 0.5:
            terms.append((ZERO, 0, rng.randint(1, 5)))
        try:
            expr = AffineOrdinalExpr(tuple(terms))
        except ValueError:
            continue
        probes = [random_poly(rng, degree=6) for _ in range(4)]

        def poly_at(k):
            p = [0] * (degree + 4)
            for e, a, b in expr.terms:
                p[e.as_int()] = a * k + b
            return p

        for k in (0, 1, rng.randint(2, 90)):
            assert_canonical(expr.evaluate(k), poly_at(k), probes)
        value, attained = expr.sup_over()
        if attained:
            assert_canonical(value, poly_at(0), probes)
        else:
            e, a, b = next(t for t in expr.terms if t[1])
            prefix = [0] * (degree + 4)
            for ex, _, bx in expr.terms[:expr.terms.index((e, a, b))]:
                prefix[ex.as_int()] = bx
            top = [0] * (e.as_int() + 1) + [1]
            assert_canonical(value, poly_add(prefix, top), probes)


def test_small_naturals_are_shared_and_hash_as_ints():
    for n in list(range(SMALL_NATURALS + 3)) + [10**12]:
        o = Ordinal.from_int(n)
        assert hash(o) == hash(n) and o == n
        assert (o is Ordinal.from_int(n)) == (n < SMALL_NATURALS)
    assert ONE is Ordinal.from_int(1) and ZERO is Ordinal.from_int(0)
    assert Ordinal.from_int(3) + Ordinal.from_int(4) is Ordinal.from_int(7)
    assert Ordinal.from_int(8).predecessor() is Ordinal.from_int(7)
    assert fundamental_sequence(OMEGA, 5) is Ordinal.from_int(5)
    # the validating constructor builds a new, equal value
    assert Ordinal(((ZERO, 5),)) == Ordinal.from_int(5)
    assert Ordinal(((ZERO, 5),)) is not Ordinal.from_int(5)
