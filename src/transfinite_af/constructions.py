"""Generators: AFs from trees, the two-chain family, ordinal targets, unions.

Index codings are generator-owned injective maps published here:

* trees: node paths are coded c(root)=0, c(path+(s,)) = pair(c(path), s)+1;
  the tree argument a_path sits at index 2*c, its companion b_path at
  2*c+1.  Codes that decode to non-nodes are padding: isolated arguments
  that attack nothing, are attacked by nothing, and carry stage 1.
  Padding is harmless by the disjoint-union stage-preservation property.

* the lazy two-chain family interleaves a_i at 2i with b_i at 2i+1 (no
  padding).

* disjoint unions place part p's argument j at pair(p, j); all-finite
  unions are compacted to a finite AF instead.

Tests address arguments through structured names (a_0_1, b3, u2_a0),
never raw indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import (
    Affine,
    AttackerFamily,
    AttackerSpec,
    FiniteAF,
    IndexMap,
    LazyAF,
    PairLeft,
    PairRight,
    pair,
    parse_apx,
    unpair,
)
from .errors import DomainError, UnsupportedExpression
from .grounded import StageFamily, SymbolicStageMap, stages_finite
from .ordinals import (
    NEVER,
    ONE,
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    parse_ordinal,
)
from .trees import FiniteTree, LazyTree, build_tree_of_rank, tree_from_json, \
    truncate_tree


def _path_name(prefix: str, path) -> str:
    return prefix + "".join(f"_{s}" for s in path)


# -- F_T over finite trees ------------------------------------------------


@dataclass(frozen=True)
class FiniteTreeAF:
    """F_T materialized: breadth-first node order fixes the indices."""

    af: FiniteAF
    tree: FiniteTree
    order: Tuple[Tuple[int, ...], ...]
    a_index: Dict[Tuple[int, ...], int]
    b_index: Dict[Tuple[int, ...], int]

    def expected_stages(self) -> Dict[int, object]:
        """Candidate stages from node ranks: a at rank+1, b never."""
        ranks = self.tree.node_ranks()
        out = {}
        for p in self.order:
            out[self.a_index[p]] = Ordinal.from_int(ranks[p] + 1)
            out[self.b_index[p]] = NEVER
        return out


def af_from_finite_tree(tree: FiniteTree) -> FiniteTreeAF:
    order = []
    queue = [()]
    while queue:
        p = queue.pop(0)
        order.append(p)
        queue.extend(p + (s,) for s in tree.children(p))
    a_index = {p: 2 * r for r, p in enumerate(order)}
    b_index = {p: 2 * r + 1 for r, p in enumerate(order)}
    attacks = []
    for p in order:
        attacks.append((a_index[p], b_index[p]))
        for s in tree.children(p):
            attacks.append((b_index[p + (s,)], a_index[p]))
    names = [None] * (2 * len(order))
    for p in order:
        names[a_index[p]] = _path_name("a", p)
        names[b_index[p]] = _path_name("b", p)
    return FiniteTreeAF(FiniteAF(2 * len(order), attacks, names), tree,
                        tuple(order), a_index, b_index)


# -- F_T over lazy trees -----------------------------------------------------


def _code_of(path: Tuple[int, ...]) -> int:
    c = 0
    for s in path:
        c = pair(c, s) + 1
    return c


def _decode(code: int) -> Tuple[int, ...]:
    syms = []
    while code:
        code, s = unpair(code - 1)
        syms.append(s)
    return tuple(reversed(syms))


_B_STEP = Affine(2, 3)  # child code -> companion b index, see af_from_tree


def af_from_tree(tree: LazyTree) -> LazyAF:
    """F_T of a lazy tree: b_child attacks a_parent, a attacks its own b.

    When the tree is rank-annotated the result carries a candidate stage
    map (a_path at rank+1, b_path never, padding at 1) with the attained
    supremum root_rank + 1 witnessed by the root argument.
    """

    def is_node(path) -> bool:
        return tree.member(path)

    def predicate(x: int, y: int) -> bool:
        if x % 2 == 0 and y == x + 1:
            return is_node(_decode(x // 2))
        if x % 2 == 1 and y % 2 == 0:
            code = (x - 1) // 2
            if code == 0:
                return False
            parent, _ = unpair(code - 1)
            return parent == y // 2 and is_node(_decode(code))
        return False

    def spec(index: int) -> AttackerSpec:
        if index % 2 == 1:
            path = _decode((index - 1) // 2)
            if not is_node(path):
                return AttackerSpec()
            return AttackerSpec(explicit=(index - 1,))
        code = index // 2
        path = _decode(code)
        if not is_node(path):
            return AttackerSpec()
        children = tree.children(path)
        explicit = tuple(2 * (pair(code, s) + 1) + 1 for s in children.symbols)
        families = []
        for fam in children.families:
            dse = None
            if tree.has_rank_annotations and fam.child_rank_expr is not None:
                dse = fam.child_rank_expr.add_finite(1)
            families.append(AttackerFamily(
                fam.symbol_map.then(PairLeft(code)).then(_B_STEP),
                fam.k_start, dse))
        return AttackerSpec(explicit=explicit, families=tuple(families))

    def naming(index: int) -> str:
        path = _decode(index // 2)
        if not is_node(path):
            return f"pad_{index}"
        return _path_name("a" if index % 2 == 0 else "b", path)

    candidate = None
    if tree.has_rank_annotations:
        def stage_of(index: int):
            path = _decode(index // 2)
            if not is_node(path):
                return ONE
            if index % 2 == 1:
                return NEVER
            return tree.declared_rank(path) + 1

        def family_all_never(fam: AttackerFamily) -> Optional[bool]:
            # families minted by this generator end at the b-companion step
            if fam.index_map.steps and fam.index_map.steps[-1] == _B_STEP:
                return True
            return None

        root_rank = tree.declared_rank(())
        candidate = SymbolicStageMap(
            fallback=stage_of,
            sup_value=root_rank + 1,
            sup_attained=True,
            sup_witness=0,
            family_all_never=family_all_never,
        )

    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate)


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
        n = truncate
        attacks = []
        for i in range(n - 1):
            attacks.append((2 * i, 2 * i + 2))
            attacks.append((2 * i + 1, 2 * i + 3))
        for i in range(1, n, 2):
            attacks.append((2 * i, 1))
        names = []
        for i in range(n):
            names += [f"a{i}", f"b{i}"]
        return FiniteAF(2 * n, attacks, names)

    def predicate(x: int, y: int) -> bool:
        if y == x + 2 and x % 2 == y % 2:
            return True
        return y == 1 and x % 2 == 0 and (x // 2) % 2 == 1

    k_plus_1 = AffineOrdinalExpr.affine(1, 1)

    def spec(i: int) -> AttackerSpec:
        if i == 0:
            return AttackerSpec()
        if i == 1:
            fam = AttackerFamily(IndexMap.affine(4, 2), 0, k_plus_1)
            return AttackerSpec(families=(fam,))
        return AttackerSpec(explicit=(i - 2,))

    w_plus_k_plus_1 = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))
    candidate = SymbolicStageMap(
        families=(
            StageFamily(IndexMap.affine(4, 0), k_plus_1),
            StageFamily(IndexMap.affine(4, 2), NEVER),
            StageFamily(IndexMap.affine(4, 1), w_plus_k_plus_1, k_start=1),
            StageFamily(IndexMap.affine(4, 3), NEVER),
        ),
        exceptions={1: Ordinal(((ONE, 1),)) + 1},  # b_0 enters just past w
    )

    def naming(i: int) -> str:
        return f"{'a' if i % 2 == 0 else 'b'}{i // 2}"

    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate)


# -- ordinal-targeted AFs ---------------------------------------------------------


def _omega_union(parts: Callable[[int], LazyAF],
                 part_candidate: Callable[[int], SymbolicStageMap],
                 cofinal: Tuple[StageFamily, ...],
                 sup_value: Ordinal) -> LazyAF:
    """Union over all naturals of uniformly presented lazy parts."""

    cache: Dict[int, LazyAF] = {}

    def part(p: int) -> LazyAF:
        if p not in cache:
            cache[p] = parts(p)
        return cache[p]

    def predicate(x: int, y: int) -> bool:
        px, jx = unpair(x)
        py, jy = unpair(y)
        return px == py and part(px).attacks(jx, jy)

    def spec(x: int) -> AttackerSpec:
        p, j = unpair(x)
        inner = part(p).attacker_spec(j)
        explicit = tuple(pair(p, b) for b in inner.explicit)
        families = tuple(
            AttackerFamily(f.index_map.then(PairLeft(p)), f.k_start,
                           f.defense_stage_expr)
            for f in inner.families)
        return AttackerSpec(explicit=explicit, families=families)

    def naming(x: int) -> str:
        p, j = unpair(x)
        return f"u{p}_{part(p).name(j)}"

    def stage_of(x: int):
        p, j = unpair(x)
        return part_candidate(p).stage_of(j)

    def family_all_never(fam: AttackerFamily) -> Optional[bool]:
        if fam.index_map.steps and isinstance(fam.index_map.steps[-1], PairLeft):
            p = fam.index_map.steps[-1].left
            inner = AttackerFamily(IndexMap(fam.index_map.steps[:-1]),
                                   fam.k_start, fam.defense_stage_expr)
            return part_candidate(p).family_all_never(inner)
        return None

    candidate = SymbolicStageMap(
        families=cofinal,
        fallback=stage_of,
        sup_value=sup_value,
        sup_attained=False,
        family_all_never=family_all_never,
    )
    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate)


def ordinal_target_af(alpha, truncate: Optional[int] = None):
    """An AF whose grounding ordinal is exactly alpha.

    Successors beta+1 ride on a tree of rank beta; limits take the union
    of the targets walking the fundamental sequence, so the grounding
    ordinal is the supremum of the parts'.  alpha = 0 is the empty AF.
    Width-w truncations build the F of the width-truncated trees
    (truncate-then-build), unions keeping their first w parts.
    """
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)

    if alpha.is_zero:
        return FiniteAF(0)

    if alpha.is_successor:
        beta = alpha.predecessor()
        tree = build_tree_of_rank(beta)
        if truncate is not None:
            return af_from_finite_tree(truncate_tree(tree, width=truncate)).af
        if beta.is_finite:
            return af_from_finite_tree(truncate_tree(tree, width=1)).af
        return af_from_tree(tree)

    if fundamental_sequence_expr(alpha) is None:
        raise UnsupportedExpression(
            f"fundamental sequence of {alpha} is not affine-expressible; "
            "cannot certify a symbolic stage map")

    if truncate is not None:
        parts = []
        for i in range(truncate):
            tree = build_tree_of_rank(fundamental_sequence(alpha, i))
            parts.append(af_from_finite_tree(
                truncate_tree(tree, width=truncate)).af)
        return disjoint_union(parts)

    def make_part(i: int) -> LazyAF:
        return af_from_tree(build_tree_of_rank(fundamental_sequence(alpha, i)))

    part_cache: Dict[int, LazyAF] = {}

    def part_candidate(i: int) -> SymbolicStageMap:
        if i not in part_cache:
            part_cache[i] = make_part(i)
        return part_cache[i].candidate_stages

    def cached_part(i: int) -> LazyAF:
        part_candidate(i)
        return part_cache[i]

    root_stages = fundamental_sequence_expr(alpha).add_finite(1)
    cofinal = (StageFamily(IndexMap((PairRight(0),)), root_stages),)
    return _omega_union(cached_part, part_candidate, cofinal, alpha)


# -- disjoint unions ----------------------------------------------------------------


@dataclass(frozen=True)
class UnionLayout:
    """How part-local indices embed into the union."""

    embed: Callable[[int, int], int]

    def __call__(self, p: int, j: int) -> int:
        return self.embed(p, j)


def disjoint_union_with_embedding(parts: List):
    """(union AF, embedding).  Attacks stay within parts.

    All-finite unions compact the pairing codes into a finite AF; with
    any lazy part the union lives on all of N, finite parts padded by
    isolated arguments.
    """
    parts = list(parts)
    if not parts:
        return FiniteAF(0), UnionLayout(lambda p, j: (_ for _ in ()).throw(
            IndexError("empty union")))
    if all(isinstance(p, FiniteAF) for p in parts):
        coded = sorted((pair(p, j), p, j)
                       for p, part in enumerate(parts)
                       for j in range(part.n))
        index = {(p, j): g for g, (_, p, j) in enumerate(coded)}
        attacks = []
        names = []
        for g, (_, p, j) in enumerate(coded):
            names.append(f"u{p}_{parts[p].name(j)}")
        for p, part in enumerate(parts):
            for x, y in part.attack_pairs:
                attacks.append((index[(p, x)], index[(p, y)]))
        af = FiniteAF(len(coded), attacks, names)
        return af, UnionLayout(lambda p, j: index[(p, j)])

    def is_real(p: int, j: int) -> bool:
        if p >= len(parts):
            return False
        part = parts[p]
        return isinstance(part, LazyAF) or j < part.n

    def in_part_attacks(p: int, jx: int, jy: int) -> bool:
        part = parts[p]
        if isinstance(part, FiniteAF):
            return jx < part.n and jy < part.n and part.attacks(jx, jy)
        return part.attacks(jx, jy)

    def predicate(x: int, y: int) -> bool:
        px, jx = unpair(x)
        py, jy = unpair(y)
        return px == py and px < len(parts) and in_part_attacks(px, jx, jy)

    def spec(x: int) -> AttackerSpec:
        p, j = unpair(x)
        if not is_real(p, j):
            return AttackerSpec()
        part = parts[p]
        if isinstance(part, FiniteAF):
            return AttackerSpec(
                explicit=tuple(pair(p, b) for b in part.attackers_of(j)))
        inner = part.attacker_spec(j)
        return AttackerSpec(
            explicit=tuple(pair(p, b) for b in inner.explicit),
            families=tuple(
                AttackerFamily(f.index_map.then(PairLeft(p)), f.k_start,
                               f.defense_stage_expr)
                for f in inner.families))

    def naming(x: int) -> str:
        p, j = unpair(x)
        if not is_real(p, j):
            return f"pad_{x}"
        return f"u{p}_{parts[p].name(j)}"

    finite_stage_cache: Dict[int, Dict[int, object]] = {}

    def part_stage(p: int, j: int):
        part = parts[p]
        if isinstance(part, FiniteAF):
            if p not in finite_stage_cache:
                finite_stage_cache[p] = stages_finite(part)
            return finite_stage_cache[p][j]
        if part.candidate_stages is None:
            raise DomainError(f"lazy part {p} carries no candidate stage map")
        return part.candidate_stages.stage_of(j)

    candidate = None
    if all(isinstance(p, FiniteAF) or p.candidate_stages is not None
           for p in parts):
        def stage_of(x: int):
            p, j = unpair(x)
            if not is_real(p, j):
                return ONE
            return part_stage(p, j)

        best, attained, witness = ONE, True, None
        families: List[StageFamily] = []
        for p, part in enumerate(parts):
            if isinstance(part, FiniteAF):
                stages = stages_finite(part)
                for j in sorted(stages):
                    v = stages[j]
                    if v is not NEVER and v > best:
                        best, attained, witness = v, True, pair(p, j)
            else:
                cand = part.candidate_stages
                value, att, wit = cand.declared_sup()
                for fam in cand.families:
                    families.append(StageFamily(
                        fam.index_map.then(PairLeft(p)), fam.stage, fam.k_start))
                if value > best:
                    best, attained = value, att
                    witness = pair(p, wit) if att and wit is not None else None

        def family_all_never(fam: AttackerFamily) -> Optional[bool]:
            if fam.index_map.steps and isinstance(fam.index_map.steps[-1], PairLeft):
                p = fam.index_map.steps[-1].left
                if p >= len(parts):
                    return None
                inner_map = IndexMap(fam.index_map.steps[:-1])
                part = parts[p]
                if isinstance(part, FiniteAF):
                    members = [j for _, j in
                               AttackerFamily(inner_map).members_below(part.n)]
                    return all(part_stage(p, j) is NEVER for j in members)
                inner = AttackerFamily(inner_map, fam.k_start,
                                       fam.defense_stage_expr)
                return part.candidate_stages.family_all_never(inner)
            return None

        candidate = SymbolicStageMap(
            families=tuple(families),
            fallback=stage_of,
            sup_value=best,
            sup_attained=attained,
            sup_witness=witness,
            family_all_never=family_all_never,
        )

    af = LazyAF(predicate, spec, universe=None, naming=naming,
                candidate_stages=candidate)
    return af, UnionLayout(lambda p, j: pair(p, j))


def disjoint_union(parts: List):
    """Union of finitely many AFs; see disjoint_union_with_embedding."""
    return disjoint_union_with_embedding(parts)[0]


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


def parse_generator_spec(text: str) -> GeneratorSpec:
    text = text.strip()
    if text.startswith("union(") and text.endswith(")"):
        inner = text[len("union("):-1]
        parts = tuple(parse_generator_spec(p) for p in _split_top_level(inner))
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


def materialize_spec(spec: GeneratorSpec, base_dir: str = "."):
    """Turn a parsed generator spec into an AF."""
    if spec.kind == "apx":
        with open(os.path.join(base_dir, spec.param)) as fh:
            return parse_apx(fh.read())
    if spec.kind == "tree":
        with open(os.path.join(base_dir, spec.param)) as fh:
            return af_from_finite_tree(tree_from_json(fh.read())).af
    if spec.kind == "bs":
        return baumann_spanring(truncate=spec.truncate)
    if spec.kind == "ord":
        alpha = parse_ordinal(spec.param)
        return ordinal_target_af(alpha, truncate=spec.truncate)
    if spec.kind == "union":
        return disjoint_union([materialize_spec(p, base_dir) for p in spec.parts])
    raise GeneratorSpecError(f"unknown generator kind {spec.kind!r}")
