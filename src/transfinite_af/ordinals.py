"""Exact ordinal arithmetic in Cantor normal form below epsilon_0.

An ordinal is a sum  w^e1*c1 + ... + w^ek*ck  with strictly decreasing
exponents (themselves ordinals) and positive integer coefficients.  The
module provides exactly what stage maps, tree ranks and fundamental
sequences need: comparison, addition, successor/predecessor, suprema of
finite sets and of affine families, and Wainer-style fundamental
sequences.  General multiplication and exponentiation are deliberately
absent.

Stage maps use NEVER as an adjoined top element: it compares greater
than every ordinal.
"""

from __future__ import annotations

import re
import warnings
from typing import Optional, Tuple, Union


class OrdinalParseError(ValueError):
    """Malformed ordinal text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NoncanonicalOrdinalWarning(UserWarning):
    """The input denoted an ordinal but was not in canonical form."""


class Ordinal:
    """Immutable, hashable ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with exponents
    strictly decreasing.  The empty tuple is 0.  Finite ordinals compare
    and hash equal to the corresponding ints, which keeps test oracles
    and stage bookkeeping pleasant; never mix ints and infinite ordinals
    as keys of the same dict.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Tuple[Tuple["Ordinal", int], ...] = ()):
        terms = tuple((e, int(c)) for (e, c) in terms)
        prev = None
        for e, c in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            if c < 1:
                raise ValueError("coefficients must be >= 1")
            if prev is not None and _cmp(prev, e) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = e
        self.terms = terms
        self._hash = None

    # -- construction helpers ------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def successor(self) -> "Ordinal":
        return self + ONE

    def predecessor(self) -> "Ordinal":
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor ordinal")
        head, (e, c) = self.terms[:-1], self.terms[-1]
        if c > 1:
            return Ordinal(head + ((e, c - 1),))
        return Ordinal(head)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        e = other.terms[0][0]
        keep = tuple(t for t in self.terms if _cmp(t[0], e) > 0)
        merged = list(other.terms)
        for ex, c in self.terms:
            if _cmp(ex, e) == 0:
                merged[0] = (e, c + merged[0][1])
        return Ordinal(keep + tuple(merged))

    def __radd__(self, other) -> "Ordinal":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + self

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _Never):
            return False
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) == 0

    def __lt__(self, other):
        if isinstance(other, _Never):
            return True
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) < 0

    def __le__(self, other):
        if isinstance(other, _Never):
            return True
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) <= 0

    def __gt__(self, other):
        if isinstance(other, _Never):
            return False
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) > 0

    def __ge__(self, other):
        if isinstance(other, _Never):
            return False
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _cmp(self, other) >= 0

    def __hash__(self):
        if self._hash is None:
            if self.is_finite:
                self._hash = hash(self.as_int())
            else:
                self._hash = hash(tuple(self.terms))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_ordinal(self)

    def __repr__(self):
        return f"Ordinal({format_ordinal(self)!r})"


def _coerce(x) -> Optional[Ordinal]:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Ordinal.from_int(x)
    return None


def _cmp(x: Ordinal, y: Ordinal) -> int:
    for (e1, c1), (e2, c2) in zip(x.terms, y.terms):
        c = _cmp(e1, e2)
        if c:
            return c
        if c1 != c2:
            return -1 if c1 < c2 else 1
    if len(x.terms) == len(y.terms):
        return 0
    return -1 if len(x.terms) < len(y.terms) else 1


ZERO = Ordinal(())
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def omega_power(e) -> Ordinal:
    e = _coerce(e)
    if e is None:
        raise TypeError("exponent must be an Ordinal or int")
    return Ordinal(((e, 1),))


def compare(x, y) -> str:
    """Total order on ordinals, reported as 'LT', 'EQ' or 'GT'."""
    a, b = _coerce(x), _coerce(y)
    if a is None or b is None:
        raise TypeError("compare expects ordinals")
    c = _cmp(a, b)
    return "LT" if c < 0 else ("EQ" if c == 0 else "GT")


def is_limit(x) -> bool:
    o = _coerce(x)
    if o is None:
        raise TypeError("is_limit expects an ordinal")
    return o.is_limit


# -- NEVER: top marker for stage maps ----------------------------------


class _Never:
    """Singleton top element: NEVER > alpha for every ordinal alpha."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEVER"

    def __lt__(self, other):
        if isinstance(other, (_Never, Ordinal, int)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Never):
            return True
        if isinstance(other, (Ordinal, int)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Never):
            return False
        if isinstance(other, (Ordinal, int)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Never, Ordinal, int)):
            return True
        return NotImplemented


NEVER = _Never()

StageValue = Union[Ordinal, _Never]


# -- fundamental sequences ---------------------------------------------


def fundamental_sequence(x, i: int) -> Ordinal:
    """The i-th member of the standard increasing sequence converging to x.

    Wainer-style assignment: if the last CNF term is w^(b+1)*c, the unit
    of that term is replaced by w^b*i; if the last exponent is itself a
    limit, it is replaced by its own i-th sequence member.  Strictly
    increasing in i with supremum x.
    """
    o = _coerce(x)
    if o is None or not o.is_limit:
        raise ValueError("fundamental_sequence requires a limit ordinal")
    if i < 0:
        raise ValueError("sequence index must be a natural number")
    head, (e, c) = o.terms[:-1], o.terms[-1]
    base = Ordinal(head + (((e, c - 1),) if c > 1 else ()))
    if e.is_successor:
        if i == 0:
            return base
        return base + Ordinal(((e.predecessor(), i),))
    return base + omega_power(fundamental_sequence(e, i))


def fundamental_sequence_expr(x) -> Optional["AffineOrdinalExpr"]:
    """Closed form of i -> fundamental_sequence(x, i), when it is affine.

    Affine closed forms exist exactly when the last exponent of x is a
    successor (so for every limit below w^w, among others).  Returns
    None otherwise; callers must treat that as "not expressible", never
    approximate.
    """
    o = _coerce(x)
    if o is None or not o.is_limit:
        raise ValueError("fundamental_sequence_expr requires a limit ordinal")
    head, (e, c) = o.terms[:-1], o.terms[-1]
    if not e.is_successor:
        return None
    terms = [(ex, 0, cx) for ex, cx in head]
    if c > 1:
        terms.append((e, 0, c - 1))
    terms.append((e.predecessor(), 1, 0))
    return AffineOrdinalExpr(tuple(terms))


# -- affine families ----------------------------------------------------


class AffineOrdinalExpr:
    """A CNF-shaped sum whose coefficients are affine in one parameter k.

    ``terms`` is a tuple of (exponent, a, b) triples meaning the term
    w^exponent * (a*k + b); at most one term may have a > 0.  Evaluation
    at each natural k gives an ordinal, and the family is nondecreasing
    in k, which is what makes symbolic min/sup exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Tuple[Ordinal, int, int], ...]):
        terms = tuple((e, int(a), int(b)) for (e, a, b) in terms)
        prev = None
        k_terms = 0
        for e, a, b in terms:
            if not isinstance(e, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            if a < 0 or b < 0 or (a == 0 and b == 0):
                raise ValueError("coefficients must be affine with a,b >= 0, not both 0")
            if a > 0:
                k_terms += 1
            if prev is not None and _cmp(prev, e) <= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = e
        if k_terms > 1:
            raise ValueError("at most one term may depend on k")
        self.terms = terms

    @staticmethod
    def constant(x) -> "AffineOrdinalExpr":
        o = _coerce(x)
        if o is None:
            raise TypeError("constant expects an ordinal")
        return AffineOrdinalExpr(tuple((e, 0, c) for e, c in o.terms))

    @staticmethod
    def affine(a: int, b: int) -> "AffineOrdinalExpr":
        """The finite-valued family k -> a*k + b."""
        return AffineOrdinalExpr(((ZERO, a, b),))

    @property
    def is_constant(self) -> bool:
        return all(a == 0 for _, a, _ in self.terms)

    def evaluate(self, k: int) -> Ordinal:
        if k < 0:
            raise ValueError("k must be a natural number")
        out = []
        for e, a, b in self.terms:
            c = a * k + b
            if c:
                out.append((e, c))
        return Ordinal(tuple(out))

    def sup_over(self, k_start: int = 0) -> Tuple[Ordinal, bool]:
        """Least upper bound of {self(k) : k >= k_start}.

        Returns (value, attained).  Constants are attained; a genuine
        k-term at exponent e washes out everything below it and yields
        prefix + w^(e+1), never attained.
        """
        if self.is_constant:
            return self.evaluate(k_start), True
        prefix = []
        for e, a, b in self.terms:
            if a > 0:
                return Ordinal(tuple(prefix)) + omega_power(e + ONE), False
            prefix.append((e, b))
        raise AssertionError("unreachable")

    def min_over(self, k_start: int = 0) -> Ordinal:
        # nondecreasing in k, so the minimum sits at the first member
        return self.evaluate(k_start)

    def add_finite(self, n: int) -> "AffineOrdinalExpr":
        if n < 0:
            raise ValueError("can only add naturals")
        if n == 0:
            return self
        if self.terms and self.terms[-1][0].is_zero:
            e, a, b = self.terms[-1]
            return AffineOrdinalExpr(self.terms[:-1] + ((e, a, b + n),))
        return AffineOrdinalExpr(self.terms + ((ZERO, 0, n),))

    def successor_expr(self) -> "AffineOrdinalExpr":
        return self.add_finite(1)

    def __eq__(self, other):
        if not isinstance(other, AffineOrdinalExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"AffineOrdinalExpr({format_affine_expr(self)!r})"


def sup(values) -> Ordinal:
    """Supremum of a finite collection of ordinals, or of an affine family.

    Finite collections have their maximum as supremum; sup of the empty
    collection is 0.  Affine families delegate to their exact rule.
    """
    if isinstance(values, AffineOrdinalExpr):
        return values.sup_over()[0]
    best = ZERO
    for v in values:
        o = _coerce(v)
        if o is None:
            raise TypeError("sup expects ordinals")
        if o > best:
            best = o
    return best


# -- text format --------------------------------------------------------

_TOKEN = re.compile(r"w|\d+|[\^*+()]")

# The parser, comparison and formatting recurse once per level of
# parenthesized exponents; past this depth input is rejected, not parsed.
MAX_ORDINAL_NESTING = 100


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise OrdinalParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, length):
        self.tokens = tokens
        self.i = 0
        self.length = length
        self.depth = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.length

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expect(self, tok):
        if self.peek() != tok:
            raise OrdinalParseError(f"expected {tok!r}", self.pos())
        return self.take()

    def parse_ordinal(self) -> Ordinal:
        total = self.parse_term()
        while self.peek() == "+":
            self.take()
            total = total + self.parse_term()
        return total

    def parse_term(self) -> Ordinal:
        tok = self.peek()
        if tok is None:
            raise OrdinalParseError("expected a term", self.pos())
        if tok == "w":
            self.take()
            exponent = ONE
            if self.peek() == "^":
                self.take()
                exponent = self.parse_exponent()
            coeff = 1
            if self.peek() == "*":
                self.take()
                coeff = self.parse_nat()
            if coeff == 0 or exponent.is_zero:
                # w^0 and *0 are legal input but not canonical terms
                return Ordinal.from_int(coeff)
            return Ordinal(((exponent, coeff),))
        if tok.isdigit():
            return Ordinal.from_int(self.parse_nat())
        raise OrdinalParseError(f"unexpected token {tok!r}", self.pos())

    def parse_exponent(self) -> Ordinal:
        # exponents bind tightly: a bare nat, a bare w, or a
        # parenthesized ordinal ("w^2+1" is w^2 + 1, not w^3)
        tok = self.peek()
        if tok == "(":
            if self.depth == MAX_ORDINAL_NESTING:
                raise OrdinalParseError(
                    f"exponents nested deeper than {MAX_ORDINAL_NESTING} levels",
                    self.pos())
            self.take()
            self.depth += 1
            inner = self.parse_ordinal()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok == "w":
            self.take()
            return OMEGA
        if tok is not None and tok.isdigit():
            return Ordinal.from_int(self.parse_nat())
        raise OrdinalParseError("expected an exponent", self.pos())

    def parse_nat(self) -> int:
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise OrdinalParseError("expected a natural number", self.pos())
        return int(self.take())


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual grammar  ord := term ('+' term)*  with
    term := 'w' ('^' exp)? ('*' nat)? | nat  and exp an atom or a
    parenthesized ordinal.

    Non-canonical input (e.g. "1+w") is normalized and reported with a
    NoncanonicalOrdinalWarning.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise OrdinalParseError("empty ordinal", 0)
    parser = _Parser(tokens, len(text))
    value = parser.parse_ordinal()
    if parser.i != len(tokens):
        raise OrdinalParseError("trailing input", parser.pos())
    cleaned = "".join(text.split())
    canonical = format_ordinal(value)
    if cleaned != canonical:
        warnings.warn(
            f"ordinal {text!r} normalized to {canonical!r}",
            NoncanonicalOrdinalWarning,
            stacklevel=2,
        )
    return value


def format_ordinal(x) -> str:
    o = _coerce(x)
    if o is None:
        raise TypeError("format_ordinal expects an ordinal")
    if not o.terms:
        return "0"
    parts = []
    for e, c in o.terms:
        if e.is_zero:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite or e == OMEGA:
            base = f"w^{format_ordinal(e)}"
        else:
            base = f"w^({format_ordinal(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def format_affine_expr(expr: AffineOrdinalExpr) -> str:
    if not expr.terms:
        return "0"
    parts = []
    for e, a, b in expr.terms:
        if a == 0:
            coeff = str(b)
            simple = True
        else:
            k_part = "k" if a == 1 else f"{a}*k"
            coeff = f"{k_part}+{b}" if b else k_part
            simple = False
        if e.is_zero:
            parts.append(coeff if simple else f"({coeff})")
        else:
            base = "w" if e == ONE else (
                f"w^{format_ordinal(e)}" if e.is_finite or e == OMEGA
                else f"w^({format_ordinal(e)})"
            )
            if a == 0 and b == 1:
                parts.append(base)
            else:
                parts.append(f"{base}*({coeff})" if not simple else f"{base}*{coeff}")
    return "+".join(parts)
