"""Lazy prefix-closed trees over finite strings of naturals, with ranks.

Every tree answers the same three questions about its nodes, each known
by a state instead of its path: `root` is the root's state,
`children(state)` a node's children (explicit symbols and/or affine
symbol families), and `child(state, symbol)` a child's state.  A finite
tree is an explicit node table whose states are its row numbers, and can
be ranked exactly; a lazy tree is given by the three callbacks and
optionally a node's declared rank from its state.  Ranks of infinite
trees are never computed here, only declared by builders and verified
locally (checks.check_declared_ranks): computing suprema over genuinely
infinite child sets is exactly what is hard, so the checkable surrogate
is annotation consistency plus truncation cross-checks.
"""

from __future__ import annotations

import json
import re
import reprlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import Budget
from .core import Family, IndexMap, Members
from .ordinals import (
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
)

NodePath = Tuple[int, ...]

ROOT: NodePath = ()


NO_CHILDREN = Members()


class FiniteTree:
    """An explicit finite prefix-closed tree, stored as a node table.

    Row i holds the index of its parent's row and the symbol that reaches
    it from there (both -1 for the root, row 0).  Rows come breadth-first
    with siblings ascending, i.e. in the order of the paths sorted by
    (length, path), so parents never decrease and each node's children
    are one run of rows.  A node's state is its row number: the root is
    row 0, and a row's children are its run of rows.  `order` and
    `node_ranks()` speak in paths and are built from the table when
    first asked for.  An expansion from several roots (see _expand)
    returns its forest table in this type too; only its rows are read.
    """

    __slots__ = ("parents", "symbols", "_order")

    root = 0

    def __init__(self, paths: Iterable[NodePath]):
        order = sorted(frozenset(tuple(p) for p in paths),
                       key=lambda p: (len(p), p))
        if not order:
            raise ValueError("a tree must contain its root")
        row: Dict[NodePath, int] = {}
        parents, symbols = [], []
        for p in order:
            if p:
                parent = row.get(p[:-1])
                if parent is None:
                    raise ValueError(
                        f"not prefix-closed: {list(p)} without {list(p[:-1])}")
                parents.append(parent)
                symbols.append(p[-1])
            else:
                parents.append(-1)
                symbols.append(-1)
            row[p] = len(row)
        self.parents = tuple(parents)
        self.symbols = tuple(symbols)
        self._order = tuple(order)

    @classmethod
    def _from_table(cls, parents, symbols) -> "FiniteTree":
        """A tree from rows already in the table's order (unchecked)."""
        tree = cls.__new__(cls)
        tree.parents = tuple(parents)
        tree.symbols = tuple(symbols)
        tree._order = None
        return tree

    @property
    def order(self) -> Tuple[NodePath, ...]:
        """Every node's path, row by row."""
        if self._order is None:
            order = [ROOT]
            for i in range(1, len(self.parents)):
                order.append(order[self.parents[i]] + (self.symbols[i],))
            self._order = tuple(order)
        return self._order

    def __len__(self) -> int:
        return len(self.parents)

    def _run(self, row: int) -> Tuple[int, int]:
        lo = bisect_left(self.parents, row)
        return lo, bisect_right(self.parents, row, lo)

    def children(self, row: int) -> Members:
        lo, hi = self._run(row)
        return Members(self.symbols[lo:hi])

    def child(self, row: int, symbol: int) -> int:
        return bisect_left(self.symbols, symbol, *self._run(row))

    def row_ranks(self) -> list:
        """Exact rank of every row: terminals 0, else max(child)+1."""
        parents = self.parents
        ranks = [0] * len(parents)
        for i in range(len(parents) - 1, 0, -1):
            r, p = ranks[i] + 1, parents[i]
            if r > ranks[p]:
                ranks[p] = r
        return ranks

    def node_ranks(self) -> Dict[NodePath, int]:
        """Exact rank of every node, by path."""
        return dict(zip(self.order, self.row_ranks()))

    def rank(self) -> Ordinal:
        return Ordinal.from_int(self.row_ranks()[0])

    # the table is canonical: equal node sets give equal tables
    def __eq__(self, other):
        if not isinstance(other, FiniteTree):
            return NotImplemented
        return self.symbols == other.symbols and self.parents == other.parents

    def __hash__(self):
        return hash((self.parents, self.symbols))

    def __repr__(self):
        return f"FiniteTree({len(self.parents)} nodes)"


OFF_TREE = object()  # the state past a symbol that is no child


@dataclass(frozen=True)
class LazyTree:
    """A tree given by its node states.

    `children` gives a node's children from the node's state, and `child`
    gives a child's state from its parent's state and its symbol; the
    root's state is `root`.  `child` is only asked for children that
    `children` lists.  States are hashable, and both answers depend on
    the state alone: an expansion, and the tree's F_T (see
    constructions._tree_af), ask `children` once per distinct state and
    `child` once per distinct (state, symbol).
    `declared_rank`, when present, gives a node's declared rank from its
    state; it must be total on members and is verified rather than
    trusted (see checks.check_declared_ranks).
    """

    root: object
    children: Callable[[object], Members]
    child: Callable[[object, int], object]
    declared_rank: Optional[Callable[[object], Ordinal]] = None

    def step(self, state, symbol: int):
        """The state of the child by `symbol` of the node with this state;
        OFF_TREE when there is no such node."""
        if state is OFF_TREE or not self.children(state).contains(symbol):
            return OFF_TREE
        return self.child(state, symbol)

    def member(self, path: NodePath) -> bool:
        state = self.root
        for s in path:
            state = self.step(state, s)
        return state is not OFF_TREE


# -- exact rank of finite expansions ------------------------------------


# Default node cap of an exact rank.
RANK_NODE_CAP = 200_000


def rank_finite(tree: FiniteTree, node_cap: int = RANK_NODE_CAP) -> Ordinal:
    """Exact rank of a finite tree of at most node_cap nodes.

    Bottom-up recursion per the rank definition; the finite sup is a
    max.
    """
    Budget("tree rank", node_cap, "nodes").spend(len(tree))
    return tree.rank()


def _expand(tree, roots, nodes: Budget, path_symbols: Budget,
            width: Optional[int] = None, depth: Optional[int] = None) -> FiniteTree:
    """The nodes reached breadth-first from each of the states `roots` in
    turn, level by level, as one node table: each node's children come
    from its state (see LazyTree), sorted and deduplicated, and get their
    states from it; nodes at `depth` are not expanded, and families are
    cut to their first `width` members.  Each distinct state gets an id
    when first reached, and its children's symbols and ids are worked
    out once per call, when a node with that id is first expanded, from
    whichever root; a level is a list of ids, so a node costs a list
    index, not a hash of its state.  Every row costs one node, a root's
    included.  Once a row's children are appended, the table's length is
    compared with the room `nodes` had when the call began, and past it
    `nodes.spend` refuses with the budget's message; otherwise the call
    charges `nodes.used` once, on return, with what spending each root
    and each row's children in turn would have left.  A root's row is
    compared along with its own children (a root cut at depth 0 on
    return), so a root the earlier roots left no room for refuses before
    any later root is expanded.  Each level spends its path symbols,
    counted from its root.  One root gives a FiniteTree.  Several give a
    forest table, read only row by row (see
    constructions._tree_af_table): the roots' tables one after another,
    each root's row with parent -1 and every other parent row shifted by
    the rows before its root's."""
    children, child = tree.children, tree.child
    states, ids = [], {}  # id -> state, state -> id
    # id -> (its children's symbols, their ids), or None until expanded
    kids = []
    parents, symbols = [], []
    room = nodes.cap - nodes.used  # the most rows this call may make
    for root in roots:
        k = ids.setdefault(root, len(states))
        if k == len(states):
            states.append(root)
            kids.append(None)
        row = len(parents)
        parents.append(-1)
        symbols.append(-1)
        level, d = [k], 0
        while level and (depth is None or d < depth):
            below = []
            for i in level:
                entry = kids[i]
                if entry is None:
                    state = states[i]
                    spec = children(state)
                    syms = spec.explicit
                    if spec.families:
                        # a node with more children than the budget fails it anyway
                        syms = spec.first(min(width, nodes.cap))
                    if len(syms) > 1:
                        syms = sorted(set(syms))
                    below_ids = []
                    for s in syms:
                        sub = child(state, s)
                        k = ids.setdefault(sub, len(states))
                        if k == len(states):
                            states.append(sub)
                            kids.append(None)
                        below_ids.append(k)
                    entry = kids[i] = (syms, below_ids)
                syms, below_ids = entry
                if syms:  # a leaf only takes its row
                    parents.extend([row] * len(syms))
                    symbols.extend(syms)
                    below.extend(below_ids)
                if len(parents) > room:
                    nodes.spend(len(parents))
                row += 1
            level, d = below, d + 1
            path_symbols.spend(d * len(below))
    nodes.spend(len(parents))
    return FiniteTree._from_table(parents, symbols)


# Default node cap of a truncation, and the most path symbols (summed path
# lengths, what a tree's JSON and F_T's names print: about n^2/2 for a
# chain of n nodes) of any expansion.  Truncated ordinal targets share
# both across all their parts.
TRUNCATE_NODE_CAP = 500_000
TRUNCATE_SYMBOL_CAP = 10_000_000


def expansion_budgets(node_cap: int) -> Tuple[Budget, Budget]:
    """Fresh node and path-symbol budgets for one expansion."""
    return (Budget("expansion", node_cap, "nodes"),
            Budget("expansion", TRUNCATE_SYMBOL_CAP, "path symbols"))


def truncate_tree(tree: LazyTree, width: int,
                  depth: Optional[int] = None) -> FiniteTree:
    """Finite sub-tree: families cut to their first `width` parameters.

    depth=None keeps whole branches and only terminates when the tree is
    well-founded; pass a depth to truncate genuinely unranked trees.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    return _expand(tree, [tree.root], *expansion_budgets(TRUNCATE_NODE_CAP),
                   width=width, depth=depth)


# -- bounded path search --------------------------------------------------


@dataclass(frozen=True)
class PathSearchResult:
    found: bool
    prefix: Optional[NodePath]
    depth: int

    def __repr__(self):
        if self.found:
            return f"PathPrefix({list(self.prefix)})"
        return f"NoPathWithin({self.depth})"


def bounded_path_search(tree, depth: int, width: int) -> PathSearchResult:
    """Search the width-truncated tree (finite or lazy) for a string of
    the given length.

    Finds a prefix of exactly `depth` symbols if one exists under the
    truncation; a negative answer never claims global nonexistence.
    Depth first: the stack holds one level per node on the current path,
    [state, its children's symbols, the index of the next one to enter],
    and the children listed are held to TRUNCATE_NODE_CAP.
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    children, child = tree.children, tree.child
    stack, state = [], tree.root
    listed = Budget("path search", TRUNCATE_NODE_CAP, "nodes")
    while True:
        symbols = children(state).first(width)
        listed.spend(len(symbols))
        stack.append([state, symbols, 0])
        while stack and stack[-1][2] == len(stack[-1][1]):
            stack.pop()
        if not stack:
            return PathSearchResult(False, None, depth)
        top = stack[-1]
        state = child(top[0], top[1][top[2]])
        top[2] += 1
        if len(stack) == depth:
            # each level's last entered symbol spells the path
            return PathSearchResult(
                True, tuple(syms[i - 1] for _, syms, i in stack), depth)


# -- the rank-targeted builder ---------------------------------------------


def build_tree_of_rank(alpha) -> LazyTree:
    """A rank-annotated tree of exactly the requested rank, with no path.

    rank 0 is the bare root; a successor hangs a single child of the
    predecessor rank (the minimal witness); a limit hangs the family of
    children i with ranks walking the fundamental sequence.
    """
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)
    return LazyTree(_split(alpha), _split_children, _split_child, _split_rank)


# A built node's state is its rank split as (lam, n), rank = lam + n with
# lam zero or a limit, so a successor step is n - 1 and only a limit's
# children are ordinal arithmetic.

_ONLY_CHILD = Members((0,))
_EVERY_SYMBOL = IndexMap.affine(1, 0)


class _LimitFamily(Family):
    """Child k of a node of limit rank lam has rank fundamental_sequence(lam,
    k).  Expansions never read the ranks' closed form, so it is worked out
    when first read; the index map is the identity.  Where that closed
    form exists the ranks are affine in k, as fundamental_sequence_expr
    builds it from the CNF that fundamental_sequence steps, and the family
    vouches so (Family.affine)."""

    index_map = _EVERY_SYMBOL

    def __init__(self, lam: Ordinal):
        object.__setattr__(self, "_lam", lam)

    @cached_property
    def expr(self) -> Optional[AffineOrdinalExpr]:
        return fundamental_sequence_expr(self._lam)

    @property
    def affine(self) -> bool:
        return self.expr is not None

    def member(self, k: int) -> int:
        return k

    def contains(self, symbol: int) -> bool:
        return symbol >= 0


def _split(r: Ordinal) -> Tuple[Ordinal, int]:
    if r.is_successor:
        head = r.terms[:-1]
        return Ordinal._canonical(head) if head else ZERO, r.terms[-1][1]
    return r, 0


def _split_rank(state: Tuple[Ordinal, int]) -> Ordinal:
    lam, n = state
    if not n:
        return lam
    if not lam.terms:
        return Ordinal.from_int(n)
    return Ordinal._canonical(lam.terms + ((ZERO, n),))


def _split_children(state: Tuple[Ordinal, int]) -> Members:
    lam, n = state
    if n:
        return _ONLY_CHILD
    if not lam.terms:
        return NO_CHILDREN
    return Members(families=(_LimitFamily(lam),))


def _split_child(state: Tuple[Ordinal, int], symbol: int) -> Tuple[Ordinal, int]:
    lam, n = state
    return (lam, n - 1) if n else _split(fundamental_sequence(lam, symbol))


# -- finite-tree JSON --------------------------------------------------------


# A bad node path is quoted in its error by at most this many characters.
NODE_REPR_LIMIT = 80

# The JSON decoder recurses once per level of nesting, so how deep it can
# read depends on its caller's stack; deeper input is refused up front
# (objects count as lists here).  A tree document nests three levels: the
# object, "nodes" and a path.
MAX_JSON_NESTING = 100

_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_NESTING_STEP = [0] * 256  # each byte's change of depth
_NESTING_STEP[ord("[")] = _NESTING_STEP[ord("{")] = 1
_NESTING_STEP[ord("]")] = _NESTING_STEP[ord("}")] = -1


def _nesting(text: str) -> int:
    """The deepest nesting of lists and objects outside JSON strings."""
    brackets = _JSON_STRING.sub("", text).encode(errors="ignore").translate(
        None, _NOT_BRACKETS)
    return max(accumulate(map(_NESTING_STEP.__getitem__, brackets)),
               default=0)


def tree_from_json(text: str) -> FiniteTree:
    """{"nodes": [[], [0], [0,0], ...]}; must be prefix-closed."""
    if _nesting(text) > MAX_JSON_NESTING:
        raise ValueError(f"bad tree JSON: lists nested deeper than "
                         f"{MAX_JSON_NESTING} levels")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"bad tree JSON: {e}") from None
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ValueError('tree JSON must be an object with a "nodes" list')
    nodes = doc["nodes"]
    if not isinstance(nodes, list):
        raise ValueError('"nodes" must be a list of paths')
    paths = []
    for node in nodes:
        if not isinstance(node, list) or not all(
                type(s) is int and s >= 0 for s in node):
            # reprlib stops at a few levels and items; long symbols are
            # cut here, so the message stays one short line
            quoted = reprlib.repr(node)
            if len(quoted) > NODE_REPR_LIMIT:
                quoted = quoted[:NODE_REPR_LIMIT - 3] + "..."
            raise ValueError(f"bad node path {quoted}")
        paths.append(tuple(node))
    return FiniteTree(paths)


def tree_to_json(tree: FiniteTree) -> str:
    """{"nodes": [[], [0], [0, 0], ...]}, paths in tree.order, as json.dumps
    writes it; each path's text is its parent's plus ", <symbol>"."""
    texts = [""]
    for parent, s in zip(tree.parents[1:], tree.symbols[1:]):
        texts.append(f"{texts[parent]}, {s}" if parent else str(s))
    return '{"nodes": [[' + "], [".join(texts) + ']]}'
