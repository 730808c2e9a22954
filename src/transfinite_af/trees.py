"""Lazy prefix-closed trees over finite strings of naturals, with ranks.

Finite trees carry their node set explicitly and can be ranked exactly.
Lazy trees are given by a per-node children description (explicit
symbols and/or affine symbol families) and, optionally, per-node rank
annotations.  Ranks of infinite trees are never computed here, only
declared by builders and verified locally: computing suprema over
genuinely infinite child sets is exactly what is hard, so the checkable
surrogate is annotation consistency plus truncation cross-checks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
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

    @property
    def is_explicit(self) -> bool:
        return not self.families

    def contains(self, symbol: int) -> bool:
        return symbol in self.symbols or any(f.contains(symbol) for f in self.families)

    def first_symbols(self, width: int) -> Tuple[int, ...]:
        out = list(self.symbols)
        for fam in self.families:
            out.extend(fam.symbol(k) for k in range(fam.k_start, fam.k_start + width))
        return tuple(out)


NO_CHILDREN = ChildrenSpec()


class FiniteTree:
    """An explicit prefix-closed finite set of paths; `order` lists them
    breadth-first with siblings ascending, i.e. sorted by (length, path)."""

    __slots__ = ("paths", "order", "_children")

    def __init__(self, paths: Iterable[NodePath]):
        paths = frozenset(tuple(p) for p in paths)
        if not paths:
            raise ValueError("a tree must contain its root")
        order = sorted(paths, key=lambda p: (len(p), p))
        children: Dict[NodePath, list] = {p: [] for p in order}
        for p in order:
            if p:
                parent = p[:-1]
                if parent not in children:
                    raise ValueError(f"not prefix-closed: {list(p)} without {list(parent)}")
                children[parent].append(p[-1])
        self.paths = paths
        self.order = tuple(order)
        self._children = {p: tuple(cs) for p, cs in children.items()}

    def __contains__(self, path: NodePath) -> bool:
        return tuple(path) in self.paths

    def __len__(self) -> int:
        return len(self.paths)

    def children(self, path: NodePath) -> Tuple[int, ...]:
        return self._children[tuple(path)]

    def children_spec(self, path: NodePath) -> ChildrenSpec:
        return ChildrenSpec(symbols=self.children(path))

    def node_ranks(self) -> Dict[NodePath, int]:
        """Exact rank of every node: terminals 0, else max(child)+1."""
        ranks: Dict[NodePath, int] = {}
        for p in reversed(self.order):
            cs = self._children[p]
            ranks[p] = 0 if not cs else 1 + max(ranks[p + (c,)] for c in cs)
        return ranks

    def rank(self) -> Ordinal:
        return Ordinal.from_int(self.node_ranks()[ROOT])

    def as_lazy(self) -> "LazyTree":
        return LazyTree(children_of=self.children_spec,
                        membership=self.__contains__)

    def __eq__(self, other):
        if not isinstance(other, FiniteTree):
            return NotImplemented
        return self.paths == other.paths

    def __hash__(self):
        return hash(self.paths)

    def __repr__(self):
        return f"FiniteTree({len(self.paths)} nodes)"


class LazyTree:
    """Tree given by a children enumerator; membership defaults to walking.

    children_of is only ever called on members.  declared_rank_of, when
    present, must be total on members and is verified rather than
    trusted (see check_declared_ranks).
    """

    def __init__(self, children_of: Callable[[NodePath], ChildrenSpec],
                 declared_rank_of: Optional[Callable[[NodePath], Ordinal]] = None,
                 membership: Optional[Callable[[NodePath], bool]] = None):
        self._children_of = children_of
        self._declared_rank_of = declared_rank_of
        self._membership = membership

    def children(self, path: NodePath) -> ChildrenSpec:
        return self._children_of(tuple(path))

    def member(self, path: NodePath) -> bool:
        path = tuple(path)
        if self._membership is not None:
            return bool(self._membership(path))
        for i in range(len(path)):
            if not self.children(path[:i]).contains(path[i]):
                return False
        return True

    @property
    def has_rank_annotations(self) -> bool:
        return self._declared_rank_of is not None

    def declared_rank(self, path: NodePath) -> Ordinal:
        if self._declared_rank_of is None:
            raise DomainError("tree carries no rank annotations")
        r = self._declared_rank_of(tuple(path))
        if r is None:
            raise DomainError(f"no rank annotation at {list(path)}")
        return r


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
    """The nodes reached breadth-first: the tree's children are asked for
    node by node, in the order the nodes were queued (each node's children
    in the order its spec lists them), skipping nodes at `depth`."""
    paths = [ROOT]
    queue = deque([ROOT])
    while queue:
        p = queue.popleft()
        if depth is not None and len(p) >= depth:
            continue
        spec = tree.children(p)
        if spec.families and width is None:
            raise UnsupportedExpression(
                f"node {list(p)} has family children; full expansion needs a width")
        # a node with more than node_cap children fails the cap anyway
        symbols = (spec.first_symbols(min(width, node_cap)) if width is not None
                   else spec.symbols)
        for s in symbols:
            child = p + (s,)
            paths.append(child)
            if len(paths) > node_cap:
                raise CapExceeded(f"expansion exceeded {node_cap} nodes")
            queue.append(child)
    return FiniteTree(paths)


# Default node cap of a truncation; truncated ordinal targets share it
# across all their parts.
TRUNCATE_NODE_CAP = 500_000


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
    stack = [ROOT]
    while stack:
        p = stack.pop()
        if len(p) == depth:
            return PathSearchResult(True, p, depth)
        symbols = tree.children(p).first_symbols(width)
        stack.extend(p + (s,) for s in reversed(symbols))
    return PathSearchResult(False, None, depth)


# -- the rank-targeted builder ---------------------------------------------

# A built tree remembers node ranks for at most this many path symbols
# (the summed lengths of the remembered paths) and then starts over, so a
# search through millions of nodes, or through very deep ones, holds few.
RANK_MEMO_SYMBOLS = 1 << 20


def build_tree_of_rank(alpha) -> LazyTree:
    """A rank-annotated tree of exactly the requested rank, with no path.

    rank 0 is the bare root; a successor hangs a single child of the
    predecessor rank (the minimal witness); a limit hangs the family of
    children i with ranks walking the fundamental sequence.
    """
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)
    ranks: Dict[NodePath, Ordinal] = {}  # of visited nodes below the root
    held = 0  # path symbols in ranks

    def remember(path: NodePath, r: Ordinal) -> None:
        nonlocal held
        if held + len(path) > RANK_MEMO_SYMBOLS:
            ranks.clear()
            held = 0
        ranks[path] = r
        held += len(path)

    def rank_at(path: NodePath) -> Optional[Ordinal]:
        """The node's rank, one step from its nearest visited ancestor's
        (the ancestors between are filled in); None off the tree."""
        k, r = len(path), (ranks.get(path) if path else alpha)
        while r is None:
            k -= 1
            r = ranks.get(path[:k]) if k else alpha
        for j in range(k, len(path)):
            s = path[j]
            if r.is_zero or (r.is_successor and s != 0):
                return None
            r = r.predecessor() if r.is_successor else fundamental_sequence(r, s)
            remember(path if j + 1 == len(path) else path[:j + 1], r)
        return r

    def children_of(path: NodePath) -> ChildrenSpec:
        r = rank_at(path)
        if r is None:
            raise DomainError(f"{list(path)} is not a node of this tree")
        if r.is_zero:
            return NO_CHILDREN
        if r.is_successor:
            return ChildrenSpec(symbols=(0,))
        fam = ChildFamily(IndexMap.affine(1, 0), 0, fundamental_sequence_expr(r))
        return ChildrenSpec(families=(fam,))

    return LazyTree(children_of=children_of,
                    declared_rank_of=rank_at,
                    membership=lambda p: rank_at(p) is not None)


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
    violations = []
    checked = 0
    queue = deque([ROOT])
    while queue:
        p = queue.popleft()
        declared = tree.declared_rank(p)
        checked += 1
        spec = tree.children(p)
        if spec.is_terminal:
            if declared != ZERO:
                violations.append(f"{list(p)}: terminal but declared {declared}")
        elif spec.is_explicit:
            child_ranks = [tree.declared_rank(p + (s,)) for s in spec.symbols]
            want = max(child_ranks) + 1
            if declared != want:
                violations.append(
                    f"{list(p)}: declared {declared}, children give {want}")
        else:
            best = ZERO
            if spec.symbols:
                best = max(tree.declared_rank(p + (s,)) for s in spec.symbols) + 1
            for fam in spec.families:
                if fam.child_rank_expr is None:
                    raise UnsupportedExpression(
                        f"{list(p)}: family child ranks are not affine-expressible")
                for k in range(fam.k_start, fam.k_start + sample_width):
                    child = p + (fam.symbol(k),)
                    got = tree.declared_rank(child)
                    want = fam.child_rank_expr.evaluate(k)
                    if got != want:
                        violations.append(
                            f"{list(child)}: declared {got}, closed form gives {want}")
                fam_sup = fam.child_rank_expr.successor_expr().sup_over(fam.k_start)[0]
                if fam_sup > best:
                    best = fam_sup
            if declared != best:
                violations.append(
                    f"{list(p)}: declared {declared}, family sup gives {best}")
        if len(p) < sample_depth:
            for s in spec.first_symbols(sample_width):
                queue.append(p + (s,))
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
    """The JSON document of a finite tree: {"nodes": paths in tree.order}."""
    return {"nodes": [list(p) for p in tree.order]}


def tree_to_json(tree: FiniteTree) -> str:
    return json.dumps(tree_document(tree))
