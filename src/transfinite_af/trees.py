"""Lazy prefix-closed trees over finite strings of naturals, with ranks.

Finite trees are explicit node tables and can be ranked exactly.  Lazy
trees are given by node states: the root's state, a node's children
(explicit symbols and/or affine symbol families) from its state, a
child's state from its parent's, and optionally a node's declared rank
from its state.  Ranks of infinite trees are never computed here, only
declared by builders and verified locally: computing suprema over
genuinely infinite child sets is exactly what is hard, so the checkable
surrogate is annotation consistency plus truncation cross-checks.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, Optional, Tuple

from .errors import CapExceeded, DomainError, UnsupportedExpression
from .core import IndexMap
from .ordinals import (
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
)

NodePath = Tuple[int, ...]

ROOT: NodePath = ()


@dataclass(frozen=True)
class ChildFamily:
    """Infinitely many children: symbols {symbol_map(k) : k >= k_start}.

    child_rank_expr, when present, gives the declared rank of the child
    reached by symbol_map(k) as an affine closed form in k; it is what
    makes the rank of the parent verifiable.
    """

    symbol_map: IndexMap
    k_start: int = 0
    child_rank_expr: Optional[AffineOrdinalExpr] = None

    def symbol(self, k: int) -> int:
        return self.symbol_map(k)

    def contains(self, symbol: int) -> bool:
        k = self.symbol_map.invert(symbol)
        return k is not None and k >= self.k_start


@dataclass(frozen=True)
class ChildrenSpec:
    """Children of one node: finite symbols plus affine families."""

    symbols: Tuple[int, ...] = ()
    families: Tuple[ChildFamily, ...] = ()

    @property
    def is_terminal(self) -> bool:
        return not self.symbols and not self.families

    def contains(self, symbol: int) -> bool:
        return symbol in self.symbols or any(f.contains(symbol) for f in self.families)

    def first_symbols(self, width: int) -> Tuple[int, ...]:
        out = list(self.symbols)
        for fam in self.families:
            out.extend(fam.symbol(k) for k in range(fam.k_start, fam.k_start + width))
        return tuple(out)


NO_CHILDREN = ChildrenSpec()


class FiniteTree:
    """An explicit finite prefix-closed tree, stored as a node table.

    Row i holds the index of its parent's row and the symbol that reaches
    it from there (both -1 for the root, row 0).  Rows come breadth-first
    with siblings ascending, i.e. in the order of the paths sorted by
    (length, path), so parents never decrease and each node's children
    are one run of rows.  `order`, `paths`, `children(path)`, membership
    and `node_ranks()` speak in paths; they are built from the table when
    first asked for.
    """

    __slots__ = ("parents", "symbols", "_order", "_row")

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
        self._row = row

    @classmethod
    def _from_table(cls, parents, symbols) -> "FiniteTree":
        """A tree from rows already in the table's order (unchecked)."""
        tree = cls.__new__(cls)
        tree.parents = tuple(parents)
        tree.symbols = tuple(symbols)
        tree._order = tree._row = None
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

    @property
    def paths(self) -> frozenset:
        return frozenset(self.order)

    def _row_of(self, path: NodePath) -> int:
        if self._row is None:
            self._row = {p: i for i, p in enumerate(self.order)}
        return self._row[tuple(path)]

    def __contains__(self, path: NodePath) -> bool:
        try:
            self._row_of(path)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        return len(self.parents)

    def children(self, path: NodePath) -> Tuple[int, ...]:
        i = self._row_of(path)
        lo = bisect_left(self.parents, i)
        return self.symbols[lo:bisect_right(self.parents, i, lo)]

    def children_spec(self, path: NodePath) -> ChildrenSpec:
        return ChildrenSpec(symbols=self.children(path))

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

    def as_lazy(self) -> "LazyTree":
        return LazyTree(children_of=self.children_spec)

    def path_symbols(self) -> int:
        """The summed lengths of every node's path: the symbols that the
        tree's JSON and F_T's names print."""
        depths = [0] * len(self.parents)
        for i in range(1, len(self.parents)):
            depths[i] = depths[self.parents[i]] + 1
        return sum(depths)

    # the table is canonical: equal node sets give equal tables
    def __eq__(self, other):
        if not isinstance(other, FiniteTree):
            return NotImplemented
        return self.symbols == other.symbols and self.parents == other.parents

    def __hash__(self):
        return hash((self.parents, self.symbols))

    def __repr__(self):
        return f"FiniteTree({len(self.parents)} nodes)"


@dataclass(frozen=True)
class NodeStates:
    """A lazy tree's nodes, each known by a state instead of its path.

    `children` gives a node's children from the node's state, and `child`
    gives a child's state from its parent's state and its symbol; the
    root's state is `root`.  `child` is only asked for children that
    `children` lists.
    """

    root: object
    children: Callable[[object], ChildrenSpec]
    child: Callable[[object, int], object]


OFF_TREE = object()  # the state past a symbol that is no child


class LazyTree:
    """A tree given by its node states: `states`, or `children_of` alone
    with each node's path for its state.  declared_rank_of, when present,
    gives a node's declared rank from its state; it must be total on
    members and is verified rather than trusted (see check_declared_ranks).
    Queries by path walk the states down from the root.
    """

    def __init__(self, children_of: Optional[Callable[[object], ChildrenSpec]] = None,
                 declared_rank_of: Optional[Callable[[object], Ordinal]] = None,
                 states: Optional[NodeStates] = None):
        if (children_of is None) == (states is None):
            raise TypeError("give a lazy tree either children_of or states")
        self.states = states or NodeStates(ROOT, children_of, lambda p, s: p + (s,))
        self._declared_rank_of = declared_rank_of

    def step(self, state, symbol: int):
        """The state of the child by `symbol` of the node with this state;
        OFF_TREE when there is no such node."""
        if state is OFF_TREE or not self.states.children(state).contains(symbol):
            return OFF_TREE
        return self.states.child(state, symbol)

    def _walk(self, path: NodePath):
        state = self.states.root
        for s in path:
            state = self.step(state, s)
        return state

    def _node(self, path: NodePath):
        state = self._walk(path)
        if state is OFF_TREE:
            raise DomainError(f"{list(path)} is not a node of this tree")
        return state

    def member(self, path: NodePath) -> bool:
        return self._walk(path) is not OFF_TREE

    def children(self, path: NodePath) -> ChildrenSpec:
        return self.states.children(self._node(path))

    @property
    def has_rank_annotations(self) -> bool:
        return self._declared_rank_of is not None

    def state_rank(self, state) -> Ordinal:
        """The declared rank of the node with this state."""
        if self._declared_rank_of is None:
            raise DomainError("tree carries no rank annotations")
        return self._declared_rank_of(state)

    def declared_rank(self, path: NodePath) -> Ordinal:
        return self.state_rank(self._node(path))


# -- exact rank of finite expansions ------------------------------------


def rank_finite(tree, node_cap: int = 200_000) -> Ordinal:
    """Exact rank of a tree with finitely many nodes.

    Bottom-up recursion per the rank definition; the finite sup is a
    max.  Lazy trees must be explicit everywhere (truncate families
    first) and are expanded subject to node_cap.
    """
    if isinstance(tree, FiniteTree):
        if len(tree) > node_cap:
            raise CapExceeded(f"tree has {len(tree)} nodes, cap {node_cap}")
        return tree.rank()
    return _expand(tree, node_cap=node_cap).rank()


def _expand(tree: LazyTree, node_cap: int, width: Optional[int] = None,
            depth: Optional[int] = None) -> FiniteTree:
    """The nodes reached breadth-first, level by level, as a node table:
    each node's children come from its state (see NodeStates), sorted and
    deduplicated, and get their states from it; nodes at `depth` are not
    expanded.  Besides node_cap, the nodes' paths may hold at most
    TRUNCATE_SYMBOL_CAP symbols in all."""
    children, child = tree.states.children, tree.states.child
    parents, symbols = [-1], [-1]
    level, d, row, held = [tree.states.root], 0, 0, 0
    while level and (depth is None or d < depth):
        below = []
        for state in level:
            spec = children(state)
            syms = spec.symbols
            if spec.families:
                if width is None:
                    path = list(FiniteTree._from_table(parents, symbols).order[row])
                    raise UnsupportedExpression(f"node {path} has family children; "
                                                "full expansion needs a width")
                # a node with more than node_cap children fails the cap anyway
                syms = spec.first_symbols(min(width, node_cap))
            if len(syms) > 1:
                syms = sorted(set(syms))
            for s in syms:
                parents.append(row)
                symbols.append(s)
                below.append(child(state, s))
            if len(parents) > node_cap:
                raise CapExceeded(f"expansion exceeded {node_cap} nodes")
            row += 1
        level, d = below, d + 1
        held += d * len(below)
        if held > TRUNCATE_SYMBOL_CAP:
            raise CapExceeded(
                f"expansion exceeded {TRUNCATE_SYMBOL_CAP} path symbols")
    return FiniteTree._from_table(parents, symbols)


# Default node cap of a truncation, and the most path symbols (summed path
# lengths, what a tree's JSON and F_T's names print: about n^2/2 for a
# chain of n nodes) of any expansion.  Truncated ordinal targets share
# both across all their parts.
TRUNCATE_NODE_CAP = 500_000
TRUNCATE_SYMBOL_CAP = 10_000_000


def truncate_tree(tree: LazyTree, width: int, depth: Optional[int] = None,
                  node_cap: int = TRUNCATE_NODE_CAP) -> FiniteTree:
    """Finite sub-tree: families cut to their first `width` parameters.

    depth=None keeps whole branches and only terminates when the tree is
    well-founded; pass a depth to truncate genuinely unranked trees.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    return _expand(tree, node_cap=node_cap, width=width, depth=depth)


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
    """Search the width-truncated tree for a string of the given length.

    Finds a prefix of exactly `depth` symbols if one exists under the
    truncation; a negative answer never claims global nonexistence.
    """
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    if isinstance(tree, FiniteTree):
        tree = tree.as_lazy()
    children, child = tree.states.children, tree.states.child
    stack = [(ROOT, tree.states.root)]
    while stack:
        p, state = stack.pop()
        if len(p) == depth:
            return PathSearchResult(True, p, depth)
        symbols = children(state).first_symbols(width)
        stack.extend((p + (s,), child(state, s)) for s in reversed(symbols))
    return PathSearchResult(False, None, depth)


# -- the rank-targeted builder ---------------------------------------------


def build_tree_of_rank(alpha) -> LazyTree:
    """A rank-annotated tree of exactly the requested rank, with no path.

    rank 0 is the bare root; a successor hangs a single child of the
    predecessor rank (the minimal witness); a limit hangs the family of
    children i with ranks walking the fundamental sequence.
    """
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)
    return LazyTree(declared_rank_of=_split_rank,
                    states=NodeStates(_split(alpha), _split_children,
                                      _split_child))


# A built node's state is its rank split as (lam, n), rank = lam + n with
# lam zero or a limit, so a successor step is n - 1 and only a limit's
# children are ordinal arithmetic.

_ONLY_CHILD = ChildrenSpec(symbols=(0,))
_EVERY_SYMBOL = IndexMap.affine(1, 0)


class _LimitFamily(ChildFamily):
    """Child k of a node of limit rank lam has rank fundamental_sequence(lam,
    k).  Expansions never read the ranks' closed form, so it is worked out
    when first read; the symbol map is the identity."""

    symbol_map = _EVERY_SYMBOL

    def __init__(self, lam: Ordinal):
        object.__setattr__(self, "_lam", lam)

    @cached_property
    def child_rank_expr(self) -> Optional[AffineOrdinalExpr]:
        return fundamental_sequence_expr(self._lam)

    def symbol(self, k: int) -> int:
        return k

    def contains(self, symbol: int) -> bool:
        return symbol >= 0


def _split(r: Ordinal) -> Tuple[Ordinal, int]:
    if r.is_successor:
        return Ordinal(r.terms[:-1]), r.terms[-1][1]
    return r, 0


def _split_rank(state: Tuple[Ordinal, int]) -> Ordinal:
    lam, n = state
    return Ordinal(lam.terms + ((ZERO, n),)) if n else lam


def _split_children(state: Tuple[Ordinal, int]) -> ChildrenSpec:
    lam, n = state
    if n:
        return _ONLY_CHILD
    if not lam.terms:
        return NO_CHILDREN
    return ChildrenSpec(families=(_LimitFamily(lam),))


def _split_child(state: Tuple[Ordinal, int], symbol: int) -> Tuple[Ordinal, int]:
    lam, n = state
    return (lam, n - 1) if n else _split(fundamental_sequence(lam, symbol))


# -- declared-rank verification --------------------------------------------


@dataclass
class RankCheckReport:
    violations: list
    nodes_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_declared_ranks(tree: LazyTree, sample_width: int,
                         sample_depth: int) -> RankCheckReport:
    """Verify rank annotations locally on a width/depth sample.

    Explicit nodes must satisfy the rank recursion exactly.  Family
    nodes must carry an affine closed form for their child ranks; the
    form is validated pointwise on the sample and then summed exactly
    through the ordinal module.  Trees whose family ranks are not
    affine-expressible are rejected, not guessed.
    """
    if not tree.has_rank_annotations:
        raise DomainError("tree carries no rank annotations")
    children, child = tree.states.children, tree.states.child
    violations = []
    checked = 0
    queue = deque([(ROOT, tree.states.root)])
    while queue:
        p, state = queue.popleft()
        declared = tree.state_rank(state)
        checked += 1
        spec = children(state)
        symbols = spec.first_symbols(sample_width)
        kids = [child(state, s) for s in symbols]
        rank_of = dict(zip(symbols, map(tree.state_rank, kids)))
        want = max((rank_of[s] + 1 for s in spec.symbols), default=ZERO)
        for fam in spec.families:
            if fam.child_rank_expr is None:
                raise UnsupportedExpression(
                    f"{list(p)}: family child ranks are not affine-expressible")
            for k in range(fam.k_start, fam.k_start + sample_width):
                s = fam.symbol(k)
                closed = fam.child_rank_expr.evaluate(k)
                if rank_of[s] != closed:
                    violations.append(f"{list(p + (s,))}: declared {rank_of[s]}, "
                                      f"closed form gives {closed}")
            want = max(want, fam.child_rank_expr.successor_expr().sup_over(
                fam.k_start)[0])
        if declared != want:
            violations.append(f"{list(p)}: declared {declared}, children give {want}")
        if len(p) < sample_depth:
            queue.extend((p + (s,), kid) for s, kid in zip(symbols, kids))
    return RankCheckReport(violations, checked)


# -- finite-tree JSON --------------------------------------------------------


def tree_from_json(text: str) -> FiniteTree:
    """{"nodes": [[], [0], [0,0], ...]}; must be prefix-closed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad tree JSON: {e}") from None
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ValueError('tree JSON must be an object with a "nodes" list')
    nodes = doc["nodes"]
    if not isinstance(nodes, list):
        raise ValueError('"nodes" must be a list of paths')
    paths = []
    for node in nodes:
        if not isinstance(node, list) or not all(
                isinstance(s, int) and s >= 0 for s in node):
            raise ValueError(f"bad node path {node!r}")
        paths.append(tuple(node))
    return FiniteTree(paths)


def tree_document(tree: FiniteTree) -> dict:
    """The JSON document of a finite tree: {"nodes": paths in tree.order},
    each path list built from its parent's."""
    nodes = [[]]
    for parent, s in zip(tree.parents[1:], tree.symbols[1:]):
        nodes.append(nodes[parent] + [s])
    return {"nodes": nodes}


def tree_to_json(tree: FiniteTree) -> str:
    return json.dumps(tree_document(tree))
