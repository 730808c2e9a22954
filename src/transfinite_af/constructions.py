"""Generators: AFs from trees, the two-chain family, ordinal targets, unions.

Index codings are generator-owned injective maps published here:

* trees: node paths are coded c(root)=0, c(path+(s,)) = pair(c(path), s)+1;
  the tree argument a_path sits at index 2*c, its companion b_path at
  2*c+1.  Codes that decode to non-nodes are padding: isolated arguments
  that attack nothing, are attacked by nothing, and carry stage 1.
  Padding is harmless by the disjoint-union stage-preservation property.

* the lazy two-chain family interleaves a_i at 2i with b_i at 2i+1 (no
  padding).

* unions place part p's argument j at pair(p, j); indices past a finite
  part's arguments, and slices past the last part, are padding as above.
  All-finite unions are compacted to a finite AF instead.  A limit
  ordinal target alpha is F_T of the rank-alpha tree below its root, and
  root child p's subtree, the rank-alpha[p] tree, is coded and named as
  union part p: its node code c has a at pair(p, 2c), b at pair(p, 2c+1).

Tests address arguments through structured names (a_0_1, b3, u2_a0),
never raw indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .core import (
    Affine,
    Family,
    FiniteAF,
    IndexMap,
    LazyAF,
    Members,
    PairLeft,
    PairRight,
    least_right,
    pair,
    parse_apx,
    unpair,
)
from .errors import Budget, UnsupportedExpression
from .grounded import SymbolicStageMap, stages_finite
from .ordinals import (
    NEVER,
    OMEGA,
    ONE,
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
    fundamental_sequence_expr,
    omega_power,
    parse_ordinal,
)
from .trees import OFF_TREE, TRUNCATE_NODE_CAP, FiniteTree, LazyTree, _expand, \
    build_tree_of_rank, expansion_budgets, tree_from_json, truncate_tree


# -- F_T over finite trees ------------------------------------------------


@dataclass(frozen=True)
class FiniteTreeAF:
    """F_T materialized: the tree's row r gives a_r at 2r and b_r at 2r+1."""

    af: FiniteAF
    tree: FiniteTree

    @property
    def order(self) -> Tuple[Tuple[int, ...], ...]:
        return self.tree.order

    @cached_property
    def a_index(self) -> Dict[Tuple[int, ...], int]:
        return {p: 2 * r for r, p in enumerate(self.tree.order)}

    @cached_property
    def b_index(self) -> Dict[Tuple[int, ...], int]:
        return {p: 2 * r + 1 for r, p in enumerate(self.tree.order)}

    def expected_stages(self) -> Dict[int, object]:
        """Candidate stages from node ranks: a at rank+1, b never."""
        out = {}
        for r, rank in enumerate(self.tree.row_ranks()):
            out[2 * r] = Ordinal.from_int(rank + 1)
            out[2 * r + 1] = NEVER
        return out


def _tree_af_table(tree: FiniteTree, forest: bool = False
                   ) -> Tuple[List[str], List[Tuple[int, ...]]]:
    """F_T's names and attack rows: a_r attacks b_r, and b_r attacks a of
    r's parent; each name is its parent's plus one symbol.  Plain, row r
    gives a_r at 2r and b_r at 2r+1.  A forest table (see trees._expand)
    holds part p from its p-th root's row on, coded and named as the
    finite union's part p: its row r, counted from that root's, gives
    j = 2r and 2r+1 at the rank of pair(p, j) among all the parts' codes,
    named u<p>_<name>."""
    parents, symbols = tree.parents, tree.symbols
    roots = [r for r, parent in enumerate(parents) if parent < 0] \
        if forest else [0]
    spans = list(zip(roots, roots[1:] + [len(parents)]))
    n = 2 * len(parents)
    suffixes, names = [], [""] * n
    for p, (lo, hi) in enumerate(spans):
        suffixes.append("")
        for r in range(lo + 1, hi):
            suffixes.append(f"{suffixes[parents[r]]}_{symbols[r]}")
        a, b = (f"u{p}_a", f"u{p}_b") if forest else ("a", "b")
        part = suffixes[lo:]
        names[2 * lo:2 * hi:2] = [a + sfx for sfx in part]
        names[2 * lo + 1:2 * hi:2] = [b + sfx for sfx in part]
    # each table row r's a and b, listed at 2r and 2r+1 -> their places
    if forest:
        order, index = _union_places([2 * (hi - lo) for lo, hi in spans])
    else:
        index = list(range(n))
    a_at = index[0::2]
    rows = [()] * n
    rows[0::2] = [(b,) for b in index[1::2]]
    rows[1::2] = [(a_at[parent],) for parent in parents]
    for r in roots:
        rows[2 * r + 1] = ()
    if forest:
        names = list(map(names.__getitem__, order))
        rows = list(map(rows.__getitem__, order))
    return names, rows


def af_from_finite_tree(tree: FiniteTree) -> FiniteTreeAF:
    # one name per node path, so the names are unique by construction
    names, rows = _tree_af_table(tree)
    return FiniteTreeAF(FiniteAF._built(rows, names), tree)


# -- F_T over lazy trees -----------------------------------------------------


_B_STEP = Affine(2, 3)  # child code -> companion b index, see _tree_af


def _along_path(table: dict, code: int, step):
    """table[code] for a node code: each code on its path that the table
    lacks gets step(its parent code's entry, its last symbol)."""
    climb = []
    while code not in table:
        parent, s = unpair(code - 1)
        climb.append((code, s))
        code = parent
    entry = table[code]
    for code, s in reversed(climb):
        entry = table[code] = step(entry, s)
    return entry


def _suffix(parent: str, symbol: int) -> str:
    return f"{parent}_{symbol}"


def _tree_af(tree: LazyTree, forest: bool, families: Tuple[Family, ...],
             sup: Optional[Tuple[Ordinal, bool, Optional[int]]]) -> LazyAF:
    """F_T of a lazy tree: b_child attacks a_parent, a attacks its own b.

    Node code c has its a at j = 2c and its b at 2c+1; a code of no node
    is padding pad_<j>.  Plain, the root has code 0 and j is the index.
    As a forest the root is dropped, root child p's subtree is coded on
    its own with p at code 0, and its j sits at pair(p, j), named
    u<p>_<name>.  sup = (value, attained, witness) attaches the candidate
    stage map: `families`, then a at rank+1, b never, padding at 1.  Each
    a's child-slot b-family is minted all_never when the tree declares
    ranks, which is exactly when sup is given, and then keeps its child
    family's affine vouch: b's least counter-attacker stage is its
    child's rank + 1.

    Each AF remembers what it decodes, so no answer is worked out twice:
    an index's (p, j, state); a state's children, with its families'
    steps, start, child-stage expression and affine vouch ready to lift,
    so `children` is asked once per distinct state and `child` once per
    distinct (state, symbol), as in LazyTree.step; and a code's name
    suffix, built from its parent code's.  A code's state is likewise
    stepped from its parent code's.
    """
    annotated = tree.declared_rank is not None
    stepped = {}  # (state, symbol) -> the child's state, or OFF_TREE
    expanded = {}  # state -> (its children, its families' parts to lift)
    known = {0: tree.root}  # node code -> its state, or OFF_TREE
    tables = {}  # forest: root child p -> its subtree's `known`
    located = {}  # index -> locate(index)
    suffixes = {0: ""}  # node code -> "_<s1>_<s2>..." of its path

    def expansion(state):
        entry = expanded.get(state)
        if entry is None:
            children = tree.children(state)
            entry = expanded[state] = (children, tuple(
                (fam.index_map.steps, fam.k_start,
                 fam.expr.add_finite(1) if annotated and fam.expr is not None
                 else None, annotated and fam.affine)
                for fam in children.families))
        return entry

    def child_state(state, s):
        kid = stepped.get((state, s))
        if kid is None:
            if state is OFF_TREE or not expansion(state)[0].contains(s):
                kid = OFF_TREE
            else:
                kid = tree.child(state, s)
            stepped[state, s] = kid
        return kid

    def locate(index: int):
        """(root child p, or None when not a forest; the index j within
        p's subtree; the state of j's node code j // 2, or OFF_TREE)."""
        hit = located.get(index)
        if hit is None:
            p, j, t = None, index, known
            if forest:
                p, j = unpair(index)
                t = tables.get(p)
                if t is None:
                    t = tables[p] = {0: child_state(tree.root, p)}
            hit = located[index] = (p, j, _along_path(t, j // 2, child_state))
        return hit

    def predicate(x: int, y: int) -> bool:
        p, x, state = locate(x)
        if forest:
            q, y, _ = locate(y)
            if p != q:
                return False
        if state is OFF_TREE:
            return False
        if x % 2 == 0:
            return y == x + 1
        return x > 1 and y % 2 == 0 and unpair(x // 2 - 1)[0] == y // 2

    def candidates(index: int, hi: int) -> list:
        # a b is attacked only by its own a; an a only by the b's of its
        # child slots, whose indices grow with the slot symbol; in a
        # forest, pair(p, c) < hi exactly when c < least_right(p, hi)
        p, index, _ = locate(index)
        if forest:
            hi = least_right(p, hi)
        if index % 2 == 1:
            out = [index - 1] if index - 1 < hi else []
        else:
            # slot s's b is 2 * pair(code, s) + 3, and pair(code, s + 1)
            # is pair(code, s) + code + s + 2
            code = index // 2
            out, s, x = [], 0, 2 * pair(code, 0) + 3
            while x < hi:
                out.append(x)
                x += 2 * (code + s + 2)
                s += 1
        return [pair(p, c) for c in out] if forest else out

    def spec(index: int) -> Members:
        p, index, state = locate(index)
        if state is OFF_TREE:
            return Members()
        if index % 2 == 1:  # a b's one attacker is its own a
            return Members(explicit=(pair(p, index - 1) if forest
                                     else index - 1,))
        code = index // 2
        tail = (PairLeft(code), _B_STEP, PairLeft(p)) if forest \
            else (PairLeft(code), _B_STEP)
        children, parts = expansion(state)
        explicit = tuple(2 * (pair(code, s) + 1) + 1 for s in children.explicit)
        lifted = tuple(Family(IndexMap(steps + tail), k_start, expr, annotated,
                              affine)
                       for steps, k_start, expr, affine in parts)
        if forest:
            explicit = tuple(pair(p, b) for b in explicit)
        return Members(explicit=explicit, families=lifted)

    def naming(index: int) -> str:
        p, index, state = locate(index)
        prefix = f"u{p}_" if forest else ""
        if state is OFF_TREE:
            return f"{prefix}pad_{index}"
        return prefix + "ab"[index % 2] + _along_path(suffixes, index // 2, _suffix)

    candidate = None
    if sup is not None:
        def stage_of(index: int):
            _, index, state = locate(index)
            if state is OFF_TREE:
                return ONE
            return NEVER if index % 2 else tree.declared_rank(state) + 1

        candidate = SymbolicStageMap(families=families, fallback=stage_of,
                                     sup=sup)
    return LazyAF(predicate, spec, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


def af_from_tree(tree: LazyTree) -> LazyAF:
    """F_T of a lazy tree, coded plain (see _tree_af).  A rank-annotated
    tree's stage map has the attained supremum root_rank + 1, witnessed
    by the root argument."""
    sup = None
    if tree.declared_rank is not None:
        sup = (tree.declared_rank(tree.root) + 1, True, 0)
    return _tree_af(tree, False, (), sup)


# -- the two-chain family ----------------------------------------------------------


def baumann_spanring(truncate: Optional[int] = None):
    """Two chains a_i -> a_{i+1}, b_i -> b_{i+1}, odd a's attack b_0.

    The lazy form carries the candidate stage map whose supremum (never
    attained) sits two limits up: a_{2k} at k+1, b_0 at w+1, b_{2k} at
    w+k+1, odd positions never.
    """
    if truncate is not None:
        if truncate < 0:
            raise ValueError("truncate must be >= 0")
        # N pairs of arguments, held to the cap of N tree nodes' F_T
        Budget("two-chain family", TRUNCATE_NODE_CAP, "argument pairs").spend(truncate)
        n = truncate
        rows, names = [], []
        for i in range(n):
            a_next = b_next = ()
            if i < n - 1:
                a_next, b_next = (2 * i + 2,), (2 * i + 3,)
            # odd a's attack b_0, at index 1, before their next a
            rows += ((1,) + a_next if i % 2 else a_next, b_next)
            names += [f"a{i}", f"b{i}"]
        return FiniteAF._built(rows, names)

    def predicate(x: int, y: int) -> bool:
        if y == x + 2 and x % 2 == y % 2:
            return True
        return y == 1 and x % 2 == 0 and (x // 2) % 2 == 1

    def candidates(i: int, hi: int):
        if i == 1:
            return range(2, hi, 4)
        return [i - 2] if 2 <= i < hi + 2 else []

    k_plus_1 = AffineOrdinalExpr.affine(1, 1)
    odd_a = IndexMap.affine(4, 2)

    def spec(i: int) -> Members:
        if i == 0:
            return Members()
        if i == 1:
            # b_0's attackers, the odd a's, never enter G; a_{2k+1}'s one
            # counter-attacker a_{2k} enters at k + 1
            return Members(families=(Family(odd_a, 0, k_plus_1, True, True),))
        return Members(explicit=(i - 2,))

    w_plus_k_plus_1 = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))
    candidate = SymbolicStageMap(
        families=(
            Family(IndexMap.affine(4, 0), expr=k_plus_1),
            Family(odd_a, expr=NEVER),
            Family(IndexMap.affine(4, 1), 1, w_plus_k_plus_1),
            Family(IndexMap.affine(4, 3), expr=NEVER),
        ),
        exceptions={1: Ordinal(((ONE, 1),)) + 1},  # b_0 enters just past w
    )

    def naming(i: int) -> str:
        return f"{'a' if i % 2 == 0 else 'b'}{i // 2}"

    return LazyAF(predicate, spec, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


# -- ordinal-targeted AFs ---------------------------------------------------------


# A rank tree of rank >= w^w has a node of rank w^w: every node of rank
# above w^w has a child of rank at least w^w, and ranks fall along a path.
# That node's children w^k have no affine closed form in k, while below
# w^w every exponent is finite and every fundamental sequence has one.
_OMEGA_TO_THE_OMEGA = omega_power(OMEGA)


def ordinal_target_af(alpha, truncate: Optional[int] = None):
    """An AF whose grounding ordinal is exactly alpha.

    Successors beta+1 ride on a tree of rank beta; a limit is F_T of the
    rank-alpha tree below its root, the union of the targets walking the
    fundamental sequence (coded as one, see the module docstring), so the
    grounding ordinal is the supremum of the parts'.  alpha = 0 is the
    empty AF.  Width-w truncations build the F of the width-truncated
    trees (truncate-then-build), unions keeping their first w parts: a
    limit's parts are the rank-alpha tree's first w root children,
    expanded in one call that shares one state table across them, and F_T
    is read off that forest table in one pass, coded as the finite
    union's parts; untruncated, alpha must be below w^w.
    """
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)

    if truncate is None and alpha >= _OMEGA_TO_THE_OMEGA:
        raise UnsupportedExpression(
            f"target {alpha} is at least w^w: its rank tree has a node of rank "
            "w^w, whose fundamental sequence is not affine-expressible; "
            "cannot certify a symbolic stage map")

    if alpha.is_zero:
        return FiniteAF(0)

    if alpha.is_successor:
        beta = alpha.predecessor()
        tree = build_tree_of_rank(beta)
        if truncate is None and not beta.is_finite:
            return af_from_tree(tree)
        if truncate is not None and truncate < 1:
            raise ValueError(f"truncate={truncate} keeps no node of the "
                             f"tree behind successor target {alpha}; use >= 1")
        return af_from_finite_tree(truncate_tree(tree, width=truncate or 1)).af

    tree = build_tree_of_rank(alpha)
    if truncate is not None:
        # The parts spend from one pair of budgets, in turn and each from
        # its own root, before any AF is built.  Part i has rank >= i, so
        # >= i+1 nodes on paths of >= i(i+1)/2 symbols: too many parts
        # fail up front, on a pair of their own.
        nodes, path_symbols = expansion_budgets(TRUNCATE_NODE_CAP)
        nodes.spend(truncate * (truncate + 1) // 2)
        path_symbols.spend((truncate - 1) * truncate * (truncate + 1) // 6)
        roots = [tree.child(tree.root, i) for i in range(truncate)]
        # one name per node path within a part, kept apart by its prefix
        names, rows = _tree_af_table(_expand(
            tree, roots, *expansion_budgets(TRUNCATE_NODE_CAP), width=truncate),
            forest=True)
        return FiniteAF._built(rows, names)

    root_stages = fundamental_sequence_expr(alpha).add_finite(1)
    return _tree_af(tree, True,
                    (Family(IndexMap((PairRight(0),)), expr=root_stages),),
                    (alpha, False, None))


# -- disjoint unions ----------------------------------------------------------------


def _union_places(sizes) -> Tuple[List[int], List[int]]:
    """Where the finite union puts its parts' arguments, listed part by
    part: part p's argument j goes to the rank of pair(p, j) among all
    the parts' codes.  (order, index): order[g] is the listed argument
    placed at g, and index its inverse."""
    codes = []
    for p, size in enumerate(sizes):
        if size:
            # pair(p, j) grows by p + j + 2 from j to j + 1, so each
            # part's codes are one increasing run; sorting merges the runs
            codes += accumulate(range(p + 2, p + size + 1),
                                initial=p * (p + 1) // 2)
    order = sorted(range(len(codes)), key=codes.__getitem__)
    index = [0] * len(codes)
    for g, f in enumerate(order):
        index[f] = g
    return order, index


def _compact_union(parts) -> FiniteAF:
    """The finite union of parts given as (names, attack rows) by index.

    Part p's argument j goes to the rank of pair(p, j) among all the
    parts' codes, named u<p>_<its name>.  The parts' names are valid and
    unique within each part, and the prefix keeps them apart across
    parts, so the AF is built unchecked; the rank grows with j within a
    part, so remapped rows stay sorted.
    """
    order, index = _union_places([len(names) for names, _ in parts])
    flat_names, flat_rows, off = [], [], 0
    for p, (names, rows) in enumerate(parts):
        prefix = f"u{p}_"
        to_union = index[off:off + len(names)].__getitem__
        flat_names += [prefix + nm for nm in names]
        flat_rows += [tuple(map(to_union, row)) for row in rows]
        off += len(names)
    return FiniteAF._built([flat_rows[f] for f in order],
                           [flat_names[f] for f in order])


def _lift(p: int, fam: Family) -> Family:
    """fam with its members moved to union part p."""
    return replace(fam, index_map=fam.index_map.then(PairLeft(p)))


def disjoint_union(parts: List):
    """The union of finitely many AFs; attacks stay within parts.

    All-finite unions compact the pairing codes into a finite AF; with
    any lazy part the union is indexed, part p's argument j at pair(p, j),
    and indices past a finite part's n, and slices past the last part,
    are padding pad_<index> at stage 1.  Either way part p's arguments
    are named u<p>_<its name>.  The indexed union has a candidate stage
    map when every lazy part has one: the parts' families, lifted, then
    each part's own map, finite parts' from their exact stages.
    """
    parts = list(parts)
    if all(isinstance(p, FiniteAF) for p in parts):
        return _compact_union([(part.names, part._fwd) for part in parts])

    sizes = [math.inf if part.universe is None else part.universe
             for part in parts]
    maps = None
    if all(isinstance(p, FiniteAF) or p.candidate_stages is not None
           for p in parts):
        maps = [SymbolicStageMap.from_finite(stages_finite(part))
                if isinstance(part, FiniteAF) else part.candidate_stages
                for part in parts]

    located = {}  # index -> locate(index), decoded once per AF

    def locate(x: int):
        """(part p, the index j within it, whether j lies inside part p)."""
        hit = located.get(x)
        if hit is None:
            p, j = unpair(x)
            hit = located[x] = (p, j, p < len(parts) and j < sizes[p])
        return hit

    def predicate(x: int, y: int) -> bool:
        (p, j, inside), (q, k, y_inside) = locate(x), locate(y)
        return p == q and inside and y_inside and parts[p].attacks(j, k)

    def candidates(y: int, hi: int) -> list:
        # attacks stay inside a part, and pair(p, c) < hi exactly when c < m
        p, j, inside = locate(y)
        if not inside:
            return []
        return [pair(p, c)
                for c in parts[p].attacker_candidates(j, least_right(p, hi))]

    def spec(x: int) -> Members:
        p, j, inside = locate(x)
        if not inside:
            return Members()
        inner = parts[p].attacker_spec(j)
        return Members(explicit=tuple(pair(p, b) for b in inner.explicit),
                       families=tuple(_lift(p, f) for f in inner.families))

    def naming(x: int) -> str:
        p, j, inside = locate(x)
        return f"u{p}_{parts[p].name(j)}" if inside else f"pad_{x}"

    candidate = None
    if maps is not None:
        families, best, attained, witness = [], ONE, True, None
        for p, cand in enumerate(maps):
            families.extend(_lift(p, f) for f in cand.families)
            value, att, wit = cand.declared_sup()
            if value > best:
                best, attained = value, att
                witness = pair(p, wit) if att and wit is not None else None

        def stage_of(x: int):
            p, j, inside = locate(x)
            return maps[p].stage_of(j) if inside else ONE

        candidate = SymbolicStageMap(families=tuple(families), fallback=stage_of,
                                     sup=(best, attained, witness))
    return LazyAF(predicate, spec, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


# -- generator spec grammar -----------------------------------------------------------


class GeneratorSpecError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed form of tree:<path> | bs[:truncate=N] | ord:<ordinal>[:truncate=N]
    | union(<spec>,...) | apx:<path>."""

    kind: str
    param: Optional[str] = None
    truncate: Optional[int] = None
    parts: Tuple["GeneratorSpec", ...] = ()


def _split_top_level(text: str) -> List[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GeneratorSpecError("unbalanced parentheses")
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise GeneratorSpecError("unbalanced parentheses")
    out.append("".join(cur))
    return out


def _parse_truncate(piece: str) -> int:
    if not piece.startswith("truncate="):
        raise GeneratorSpecError(f"expected truncate=N, got {piece!r}")
    try:
        value = int(piece[len("truncate="):])
    except ValueError:
        raise GeneratorSpecError(f"bad truncation in {piece!r}") from None
    if value < 0:
        raise GeneratorSpecError("truncation must be >= 0")
    return value


# Each level of a lazy union pairs its part's indices again, which about
# doubles their digits, so deeper nesting makes sampled indices too large
# to handle; the parser rejects it.
MAX_UNION_NESTING = 8


def parse_generator_spec(text: str) -> GeneratorSpec:
    return _parse_spec(text, 0)


def _parse_spec(text: str, depth: int) -> GeneratorSpec:
    text = text.strip()
    if text.startswith("union(") and text.endswith(")"):
        if depth == MAX_UNION_NESTING:
            raise GeneratorSpecError(
                f"unions nested deeper than {MAX_UNION_NESTING} levels")
        inner = text[len("union("):-1]
        parts = tuple(_parse_spec(p, depth + 1)
                      for p in _split_top_level(inner))
        return GeneratorSpec("union", parts=parts)
    if text == "bs":
        return GeneratorSpec("bs")
    if text.startswith("bs:"):
        return GeneratorSpec("bs", truncate=_parse_truncate(text[3:]))
    if text.startswith("ord:"):
        rest = text[4:]
        pieces = rest.split(":")
        if not pieces or not pieces[0]:
            raise GeneratorSpecError("ord: needs an ordinal")
        trunc = None
        if len(pieces) == 2:
            trunc = _parse_truncate(pieces[1])
        elif len(pieces) > 2:
            raise GeneratorSpecError(f"too many ':' in {text!r}")
        return GeneratorSpec("ord", param=pieces[0], truncate=trunc)
    if text.startswith("tree:"):
        path = text[len("tree:"):]
        if not path:
            raise GeneratorSpecError("tree: needs a file path")
        return GeneratorSpec("tree", param=path)
    if text.startswith("apx:"):
        path = text[len("apx:"):]
        if not path:
            raise GeneratorSpecError("apx: needs a file path")
        return GeneratorSpec("apx", param=path)
    raise GeneratorSpecError(f"unrecognized generator spec {text!r}")


def materialize_spec(spec: GeneratorSpec):
    """Turn a parsed generator spec into an AF."""
    if spec.kind == "apx":
        with open(spec.param) as fh:
            return parse_apx(fh.read())
    if spec.kind == "tree":
        with open(spec.param) as fh:
            return af_from_finite_tree(tree_from_json(fh.read())).af
    if spec.kind == "bs":
        return baumann_spanring(truncate=spec.truncate)
    if spec.kind == "ord":
        alpha = parse_ordinal(spec.param)
        return ordinal_target_af(alpha, truncate=spec.truncate)
    if spec.kind == "union":
        # the parts share one budget; a lazy part spends nothing
        budget = Budget("union", 2 * TRUNCATE_NODE_CAP, "arguments")
        parts = []
        for p in spec.parts:
            parts.append(materialize_spec(p))
            budget.spend(parts[-1].universe or 0)
        return disjoint_union(parts)
    raise GeneratorSpecError(f"unknown generator kind {spec.kind!r}")
