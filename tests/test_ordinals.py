"""Ordinal arithmetic tests.

The independent oracle here is a polynomial model of ordinals below w^w:
a little-endian list of coefficients, index i being the coefficient of
w^i.  Comparison and addition are implemented from scratch on that
model and never touch the package's CNF code paths.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from transfinite_af.ordinals import (
    MAX_ORDINAL_NESTING,
    NEVER,
    OMEGA,
    ONE,
    ZERO,
    AffineOrdinalExpr,
    NoncanonicalOrdinalWarning,
    Ordinal,
    OrdinalParseError,
    compare,
    format_ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    is_limit,
    omega_power,
    parse_ordinal,
    sup,
)


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
    assert compare(OMEGA, OMEGA) == "EQ"
    w2 = poly_to_ordinal([0, 2])
    w5 = poly_to_ordinal([5, 1])
    assert compare(w2, w5) == "GT"
    assert compare(3, OMEGA) == "LT"


def test_successor_examples():
    assert ZERO.successor() == 1
    assert OMEGA.successor() == poly_to_ordinal([1, 1])
    base = poly_to_ordinal([0, 3, 1])  # w^2 + w*3
    assert base.successor() == poly_to_ordinal([1, 3, 1])


def test_sup_examples():
    assert sup([Ordinal.from_int(3), OMEGA, OMEGA + 1]) == OMEGA + 1
    assert sup([]) == ZERO
    assert sup(AffineOrdinalExpr.affine(1, 1)) == OMEGA  # sup_k (k+1)
    # sup_k (w*k + 5) = w^2
    expr = AffineOrdinalExpr(((ONE, 1, 0), (ZERO, 0, 5)))
    assert sup(expr) == omega_power(2)


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
        got = compare(poly_to_ordinal(p), poly_to_ordinal(q))
        assert got == {-1: "LT", 0: "EQ", 1: "GT"}[expected]


def test_addition_matches_poly_oracle():
    rng = random.Random(43)
    for _ in range(2000):
        p, q = random_poly(rng), random_poly(rng)
        assert poly_to_ordinal(p) + poly_to_ordinal(q) == poly_to_ordinal(poly_add(p, q))


def test_successor_adjacency():
    rng = random.Random(44)
    samples = [random_ordinal(rng) for _ in range(300)]
    for x in samples:
        s = x.successor()
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
    assert expr.min_over(2) == 5
    assert expr.add_finite(4).evaluate(0) == 5


def test_stage_expr_helpers():
    expr = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))  # w + k + 1
    assert expr.evaluate(0) == OMEGA + 1
    value, attained = expr.sup_over(1)
    assert value == poly_to_ordinal([0, 2]) and not attained
    const = AffineOrdinalExpr.constant(OMEGA + 3)
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
