"""Argumentation frameworks: finite and lazily presented.

Arguments are natural-number indices.  A finite AF stores the attack
relation explicitly as one sorted row of targets per argument, and
builds the attacker rows from them on first use (attacker lookups drive
the tree reductions; the grounded stages read only the rows).  A lazy
AF is a total decidable attack predicate over all of N together with a
per-argument attacker description: a finite explicit list and/or
affine families (`Family`).  Both kinds answer the same attacker
queries (`universe`, `attacker_spec`, `attacker_candidates`), so the
engines ask them without knowing which kind they hold.

All values are immutable after construction (a finite AF's tables built
on first use never change what it answers); every operation is pure.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add, lt, mul
from typing import Callable, Iterable, Optional, Sequence, Tuple


# -- pairing -------------------------------------------------------------


def pair(x: int, y: int) -> int:
    """Cantor pairing <x,y> = (x+y)(x+y+1)/2 + y, a bijection N^2 -> N."""
    if x < 0 or y < 0:
        raise ValueError("pairing is defined on naturals")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> Tuple[int, int]:
    """Inverse of pair."""
    if z < 0:
        raise ValueError("unpair is defined on naturals")
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def least_right(n: int, bound: int) -> int:
    """The least m with pair(n, m) >= bound.

    pair(n, m) grows with m, and bound = pair(x, y) lies on the diagonal
    x + y: row n reaches bound on that diagonal when n <= x, else on the
    next one.
    """
    x, y = unpair(bound)
    m = x + y - n if x >= n else x + y + 1 - n
    return m if m > 0 else 0


# -- index maps ------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """k -> a*k + b with a >= 1 (strictly increasing, injective)."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 0:
            raise ValueError("affine step needs a >= 1 and b >= 0")

    def apply(self, k: int) -> int:
        return self.a * k + self.b

    def invert(self, v: int) -> Optional[int]:
        if v < self.b or (v - self.b) % self.a:
            return None
        return (v - self.b) // self.a


@dataclass(frozen=True)
class PairLeft:
    """x -> pair(left, x): embeds into the slice of a fixed left component."""

    left: int

    def apply(self, x: int) -> int:
        return pair(self.left, x)

    def invert(self, v: int) -> Optional[int]:
        l, r = unpair(v)
        return r if l == self.left else None


@dataclass(frozen=True)
class PairRight:
    """x -> pair(x, right)."""

    right: int

    def apply(self, x: int) -> int:
        return pair(x, self.right)

    def invert(self, v: int) -> Optional[int]:
        l, r = unpair(v)
        return l if r == self.right else None


@dataclass(frozen=True)
class IndexMap:
    """Composition of injective steps, applied left to right.

    User-supplied families are plain affine maps; pairing steps appear
    when generators embed families through disjoint unions or path
    codings.  Every step is strictly increasing, so members enumerate in
    increasing index order and inversion decides membership.
    """

    steps: Tuple = ()

    @staticmethod
    def affine(a: int, b: int) -> "IndexMap":
        return IndexMap((Affine(a, b),))

    def then(self, step) -> "IndexMap":
        return IndexMap(self.steps + (step,))

    def __call__(self, k: int) -> int:
        v = k
        for step in self.steps:
            v = step.apply(v)
        return v

    def invert(self, value: int) -> Optional[int]:
        steps = self.steps
        if len(steps) == 1:
            return steps[0].invert(value)
        v = value
        for step in reversed(steps):
            v = step.invert(v)
            if v is None:
                return None
        return v


# -- affine families ---------------------------------------------------------


# spot_check_attacker_spec tests the first SPEC_FAMILY_PROBE members of
# every attacker family.
SPEC_FAMILY_PROBE = 8


@dataclass(frozen=True)
class Family:
    """An infinite family {index_map(k) : k >= k_start} of tree children,
    attackers or stage-map arguments.

    expr, when present, is member k's affine closed form in k: a child's
    declared rank, the least stage among attacker k's counter-attackers
    (NEVER: none is ever counter-attacked), or a stage.  Generators
    supply it, and it is checked against members before any symbolic use.

    all_never, set only by the generator that mints an attacker family,
    vouches that every member has stage NEVER; the verifier's NEVER rule
    accepts a family as all-NEVER on nothing else.

    affine, set only by the generator that mints a family, vouches that
    what expr describes (a child's rank, an attacker's least
    counter-attacker stage) is affine in k for every k >= k_start; the
    verifier then checks expr at two or three members, not six samples.

    The first SPEC_FAMILY_PROBE members, which the spot check and the
    closed-form rule sample, are worked out once, when one is first
    asked for; they are not part of the value.
    """

    index_map: IndexMap
    k_start: int = 0
    expr: object = None  # AffineOrdinalExpr | NEVER | None
    all_never: bool = False
    affine: bool = False

    @cached_property
    def _head(self) -> Tuple[int, ...]:
        return tuple(map(self.index_map,
                         range(self.k_start, self.k_start + SPEC_FAMILY_PROBE)))

    def member(self, k: int) -> int:
        i = k - self.k_start
        if 0 <= i < SPEC_FAMILY_PROBE:
            return self._head[i]
        return self.index_map(k)

    def contains(self, index: int) -> bool:
        k = self.index_map.invert(index)
        return k is not None and k >= self.k_start


@dataclass(frozen=True)
class Members:
    """Finitely many explicit members plus affine families: a tree node's
    children (as symbols) or an argument's attackers (as indices)."""

    explicit: Tuple[int, ...] = ()
    families: Tuple[Family, ...] = ()

    def contains(self, i: int) -> bool:
        return i in self.explicit or any(f.contains(i) for f in self.families)

    def first(self, width: int) -> Tuple[int, ...]:
        """The explicit members, then each family's first `width`."""
        out = list(self.explicit)
        for fam in self.families:
            out.extend(map(fam.member, range(fam.k_start, fam.k_start + width)))
        return tuple(out)


# -- finite AFs ---------------------------------------------------------------


_NAME_RE = re.compile(r"[a-zA-Z0-9_]+\Z")


def _rows(n: int, pairs) -> Tuple[Tuple[int, ...], ...]:
    """The attack rows over range(n) of (attacker, target) pairs, none
    repeated: row x holds the targets of x in increasing order."""
    rows = [[] for _ in range(n)]
    for x, y in pairs:
        rows[x].append(y)
    for row in rows:
        row.sort()
    return tuple(map(tuple, rows))


class FiniteAF:
    """A finite AF over arguments 0..n-1 with an explicit attack relation.

    Self-attacks are permitted.  Display names default to a0..a{n-1};
    custom names must be unique and match [a-zA-Z0-9_]+.

    The attack rows `_fwd` are the one stored relation: row x holds the
    targets of x, sorted and duplicate-free.  The attacker rows and the
    name index are built from them on first use, and the attack set on
    each read.
    """

    __slots__ = ("n", "_fwd", "names", "_rev_rows", "_name_map")

    def __init__(self, n: int, attacks: Iterable[Tuple[int, int]] = (),
                 names: Optional[Sequence[str]] = None):
        if n < 0:
            raise ValueError("argument count must be >= 0")
        pairs = frozenset((int(x), int(y)) for x, y in attacks)
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"attack ({x},{y}) out of range for n={n}")
        if names is None:
            names = tuple(f"a{i}" for i in range(n))
            name_index = None
        else:
            names = tuple(names)
            if len(names) != n:
                raise ValueError("need one name per argument")
            for nm in names:
                if not _NAME_RE.match(nm):
                    raise ValueError(f"bad argument name {nm!r}")
            name_index = {nm: i for i, nm in enumerate(names)}
            if len(name_index) != n:
                raise ValueError("argument names must be unique")
        self._fill(_rows(n, pairs), names, name_index)

    @classmethod
    def _built(cls, rows, names: Sequence[str],
               name_index: Optional[dict] = None) -> "FiniteAF":
        """A FiniteAF from data valid by construction, checked nowhere.

        The caller guarantees one row per argument, each a sorted,
        duplicate-free run of targets in range(len(rows)), and that the
        names are len(rows) unique matches of [a-zA-Z0-9_]+.
        `name_index`, when given, maps each name to its index.  Only the
        parser and the generators, whose tables are valid as built, may
        call it.
        """
        af = object.__new__(cls)
        af._fill(tuple(rows), tuple(names), name_index)
        return af

    def _fill(self, rows: tuple, names: tuple,
              name_index: Optional[dict]) -> None:
        self.n = len(rows)
        self._fwd = rows
        self.names = names
        self._name_map = name_index
        self._rev_rows = None

    @property
    def attack_pairs(self) -> frozenset:
        """The attack relation as a set of (attacker, target) pairs."""
        return frozenset((x, y) for x, row in enumerate(self._fwd) for y in row)

    # -- tables built on first use

    @property
    def _rev(self) -> Tuple[Tuple[int, ...], ...]:
        """The one place attacker rows are built: filled in attacker
        order from the sorted attack rows, which leaves them sorted too."""
        rev = self._rev_rows
        if rev is None:
            rows = [[] for _ in range(self.n)]
            for x, row in enumerate(self._fwd):
                for y in row:
                    rows[y].append(x)
            rev = self._rev_rows = tuple(map(tuple, rows))
        return rev

    @property
    def _name_index(self) -> dict:
        index = self._name_map
        if index is None:
            index = self._name_map = {nm: i for i, nm in enumerate(self.names)}
        return index

    # -- basic queries

    def _check(self, i: int):
        if not (0 <= i < self.n):
            raise IndexError(f"argument index {i} out of range [0,{self.n})")

    def attacks(self, x: int, y: int) -> bool:
        if not (0 <= x < self.n and 0 <= y < self.n):
            self._check(x)
            self._check(y)
        row = self._fwd[x]
        i = bisect_left(row, y)
        return i < len(row) and row[i] == y

    def attackers_of(self, x: int) -> Tuple[int, ...]:
        self._check(x)
        # the engines call this per argument, so built attacker rows are
        # read from their slot; in range, n > 0 and they are non-empty
        return (self._rev_rows or self._rev)[x]

    # -- the lazy AF's attacker queries (see LazyAF)

    @property
    def universe(self) -> int:
        return self.n

    def attacker_spec(self, x: int) -> Members:
        return Members(explicit=self.attackers_of(x))

    def attacker_candidates(self, x: int, hi: int) -> Tuple[int, ...]:
        attackers = self.attackers_of(x)
        return attackers[:bisect_left(attackers, hi)]

    def name(self, i: int) -> str:
        self._check(i)
        return self.names[i]

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise KeyError(f"unknown argument name {name!r}") from None

    def _as_extension(self, s) -> frozenset:
        s = frozenset(s)
        if s and (min(s) < 0 or max(s) >= self.n):
            for x in s:  # name the first bad member, as a member check would
                self._check(x)
        return s

    # -- the primitive set operators

    def plus_set(self, s) -> frozenset:
        """S+ = arguments attacked by S."""
        s = self._as_extension(s)
        return frozenset(chain.from_iterable(map(self._fwd.__getitem__, s)))

    def minus_set(self, s) -> frozenset:
        """S- = arguments attacking S."""
        s = self._as_extension(s)
        return frozenset(chain.from_iterable(map(self._rev.__getitem__, s)))

    def defense_step(self, s) -> frozenset:
        """All x whose every attacker is attacked by s; monotone in s."""
        s_plus = self.plus_set(s)
        return frozenset(x for x in range(self.n)
                         if all(a in s_plus for a in self._rev[x]))

    def is_conflict_free(self, s) -> bool:
        s = self._as_extension(s)
        return s.isdisjoint(self.plus_set(s))

    def __eq__(self, other):
        if not isinstance(other, FiniteAF):
            return NotImplemented
        return self.n == other.n and self._fwd == other._fwd

    def __hash__(self):
        return hash((self.n, self._fwd))

    def __repr__(self):
        return f"FiniteAF(n={self.n}, attacks={sum(map(len, self._fwd))})"


# -- lazy AFs -----------------------------------------------------------------


class LazyAF:
    """An AF presented by a total attack predicate plus attacker specs.

    Its universe is all of N, so `universe` is None (a finite AF's is its
    argument count).  Any whole-universe scan must go through an explicit
    inspection window; there are no unbounded operations here.

    The attacker spec is declarative data about the predicate and is
    never trusted blindly: spot_check_attacker_spec probes soundness and
    completeness on a window, and the stage verifier re-probes whatever
    it relies on.

    attacker_candidates, when given, maps (a, hi) to the indices x < hi,
    in increasing order, that the predicate's own definition leaves
    possible as attackers of a: a superset of the true attackers of a
    below hi.  It must be derived from the predicate alone, never read
    from the attacker spec, since the spot check uses it to test that
    spec for completeness.  Without it every index below hi is possible.
    """

    universe = None

    def __init__(self, attack_predicate: Callable[[int, int], bool],
                 attacker_spec_fn: Callable[[int], Members],
                 naming: Optional[Callable[[int], str]] = None,
                 candidate_stages=None,
                 attacker_candidates: Optional[
                     Callable[[int, int], Iterable[int]]] = None):
        self._predicate = attack_predicate
        self._spec_fn = attacker_spec_fn
        self._naming = naming
        self.candidate_stages = candidate_stages
        self.attacker_candidates = (attacker_candidates
                                    or (lambda a, hi: range(hi)))
        self._spec_cache = {}

    def _check(self, i: int):
        if i < 0:
            raise IndexError(f"argument index {i} outside the universe")

    def attacks(self, x: int, y: int) -> bool:
        if x < 0 or y < 0:
            self._check(x)
            self._check(y)
        return bool(self._predicate(x, y))

    def attacker_spec(self, x: int) -> Members:
        # the cache holds only indices already checked
        spec = self._spec_cache.get(x)
        if spec is None:
            self._check(x)
            spec = self._spec_cache[x] = self._spec_fn(x)
        return spec

    def name(self, i: int) -> str:
        self._check(i)
        return self._naming(i) if self._naming else f"x{i}"


def spot_check_attacker_spec(af, args: Iterable[int], bound: int) -> list:
    """Probe spec soundness/completeness against the attack predicate.

    For each argument: every spec member must really attack it, and every
    attacker found by scanning indices < bound must appear in the spec.
    The scan covers af.attacker_candidates(a, bound) less the members
    already probed; the indices it skips cannot attack a by the
    predicate's definition.  Returns human-readable violation strings
    (empty = clean).
    """
    problems = []
    attacks = af.attacks
    for a in args:
        spec = af.attacker_spec(a)
        for b in spec.explicit:
            if not attacks(b, a):
                problems.append(f"spec of {a}: explicit attacker {b} does not attack")
        # the spec's members asked here cannot be missing from it, so the
        # scan below asks each pair once
        asked = set(spec.explicit)
        for fam in spec.families:
            for k in range(fam.k_start, fam.k_start + SPEC_FAMILY_PROBE):
                m = fam.member(k)
                asked.add(m)
                if not attacks(m, a):
                    problems.append(
                        f"spec of {a}: family member {m} (k={k}) does not attack")
        for x in af.attacker_candidates(a, bound):
            if x not in asked and attacks(x, a) and not spec.contains(x):
                problems.append(f"spec of {a}: attacker {x} missing from spec")
    return problems


# -- APX text format ----------------------------------------------------------


class ApxParseError(ValueError):
    """Malformed APX input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# One APX line: optional statement, optional % comment, whitespace
# around both.  \s matches exactly the characters str.isspace accepts,
# the ones str.strip removes, and a line from splitlines holds no "\n".
_APX_LINE = re.compile(
    r"\s*(?:arg\(([a-zA-Z0-9_]+)\)\.|att\(([a-zA-Z0-9_]+),\s*([a-zA-Z0-9_]+)\)\.)?"
    r"\s*(?:%.*)?")
# The characters of a name, [a-zA-Z0-9_], which _read_blocks deletes.
_NAME_BYTES = (b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
               b"abcdefghijklmnopqrstuvwxyz0123456789_")


def parse_apx(text: str) -> FiniteAF:
    r"""Parse APX: arg(<name>). / att(<x>,<y>). lines, % comments.

    Text in format_apx's layout (every arg line, then every att line,
    no spaces or comments, each line ended by "\n") is read in
    whole-text passes by the block reader; all else, and every error, by
    the per-line reader.  The order of arg lines fixes the argument
    enumeration, bit-exact: the first arg line is index 0, and so on.
    Line errors (duplicate arguments, unrecognized lines) are reported in
    line order before any attack that names an unknown argument.
    """
    read = _read_blocks(text)
    if read is not None:
        return FiniteAF._built(*read)
    names, index, attacks = _read_per_line(text.splitlines())
    return FiniteAF._built(_rows(len(names), frozenset(attacks)), names, index)


def _read_blocks(text: str):
    r"""(rows, names, index) of text in format_apx's layout, else
    None; never raises.

    The text, ASCII so that it encodes one byte per character, is cut
    once at its first "\natt(", which must follow ").": the names are
    the name block split at ").\narg(", and the attack lines the attack
    block split at ").\natt(", each line's two names split at ",".  With
    n names and m attack lines so split, the text is in the layout
    exactly when deleting the name characters from it leaves "().\n" * n
    + "(,).\n" * m: its n - 1 and m - 1 separators and the cut then
    account for every ").\n(" left, so between two of them lies nothing
    on an arg line and one comma on an att line.  What is left is
    compared first, with the n and m it implies, so other text is
    refused after that one pass; the splits must then find the same n
    and m.  Attack lines in format_apx's order (the (attacker, target)
    keys strictly increase) repeat no attack and give the rows as they
    come; others are deduplicated through the set of attacks.
    """
    if not (text.startswith("arg(") and text.endswith(").\n")
            and text.isascii()):
        return None
    skeleton = text.encode().translate(None, _NAME_BYTES)
    m = skeleton.count(b",")
    n = (len(skeleton) - 5 * m) // 4
    if skeleton != b"().\n" * n + b"(,).\n" * m:
        return None
    cut = text.find("\natt(")
    if cut < 0:
        names, parts, lines = text[4:-3].split(").\narg("), [], 0
    elif text.startswith(").", cut - 2):
        names = text[4:cut - 2].split(").\narg(")
        # one piece per comma; rejoined at ").\natt(" and split there,
        # the pieces count the separators too
        commas = text[cut + 5:-3].split(",")
        parts = ").\natt(".join(commas).split(").\natt(")
        lines = len(parts) - len(commas) + 1
    else:
        return None
    if (len(names), lines) != (n, m):
        return None
    index = dict(zip(names, range(n)))
    if len(index) < n or "" in index:
        return None
    try:
        ids = list(map(index.__getitem__, parts))
    except KeyError:
        return None
    xs, ys = ids[0::2], ids[1::2]
    keys = list(map(add, map(mul, xs, repeat(n)), ys))
    if all(map(lt, keys, islice(keys, 1, None))):
        return _rows(n, zip(xs, ys)), names, index
    return _rows(n, frozenset(zip(xs, ys))), names, index


def _read_per_line(lines):
    index = {}
    attacks = []
    match = _APX_LINE.fullmatch
    for lineno, raw in enumerate(lines, start=1):
        m = match(raw)
        if m is None:
            line = raw.split("%", 1)[0].strip()
            raise ApxParseError(f"unrecognized line {line!r}", lineno)
        nm, x, y = m.groups()
        if nm is not None:
            if nm in index:
                raise ApxParseError(f"duplicate argument {nm!r}", lineno)
            index[nm] = len(index)
        elif x is not None:
            attacks.append((x, y, lineno))
    try:
        return tuple(index), index, [(index[x], index[y]) for x, y, _ in attacks]
    except KeyError:
        x, y, lineno = next(a for a in attacks
                            if a[0] not in index or a[1] not in index)
        unknown = x if x not in index else y
        raise ApxParseError(f"attack references unknown argument {unknown!r}",
                            lineno) from None


def format_apx(af: FiniteAF) -> str:
    # the arg block is one join; each attack line carries its own newline
    names = af.names
    lines = []
    if names:
        lines.append("arg(" + ").\narg(".join(names) + ").\n")
    lines += [f"att({a},{names[y]}).\n"
              for a, row in zip(names, af._fwd) for y in row]
    return "".join(lines)


def format_dot(af: FiniteAF) -> str:
    # laid out as format_apx: the node block is one join
    names = af.names
    lines = ["digraph af {\n"]
    if names:
        lines.append('  "' + '";\n  "'.join(names) + '";\n')
    lines += [f'  "{a}" -> "{names[y]}";\n'
              for a, row in zip(names, af._fwd) for y in row]
    lines.append("}\n")
    return "".join(lines)
