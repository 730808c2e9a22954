"""Generators: AFs from trees, the two-chain family, ordinal targets, unions.

Index codings are generator-owned injective maps published here:

* trees: node paths are coded c(root)=0, c(path+(s,)) = pair(c(path), s)+1;
  the tree argument a_path sits at index 2*c, its companion b_path at
  2*c+1.  Codes that decode to non-nodes are padding: isolated arguments
  that attack nothing, are attacked by nothing, and carry stage 1.
  Padding is harmless by the disjoint-union stage-preservation property.

* the lazy two-chain family interleaves a_i at 2i with b_i at 2i+1 (no
  padding).

* unions place part p's argument j at pair(p, j).  One indexed union
  serves both union(...) specs and limit ordinal targets (whose parts walk
  the fundamental sequence); indices past a finite part's arguments, and
  slices past the last part, are padding as above.  All-finite unions
  are compacted to a finite AF instead.

Tests address arguments through structured names (a_0_1, b3, u2_a0),
never raw indices.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .core import (
    Affine,
    AttackerFamily,
    AttackerSpec,
    FiniteAF,
    IndexMap,
    LazyAF,
    PairLeft,
    PairRight,
    least_right,
    pair,
    parse_apx,
    unpair,
)
from .errors import CapExceeded, UnsupportedExpression
from .grounded import StageFamily, SymbolicStageMap, _attacker_spec_of, \
    stages_finite
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
from .trees import OFF_TREE, TRUNCATE_NODE_CAP, TRUNCATE_SYMBOL_CAP, FiniteTree, \
    LazyTree, build_tree_of_rank, tree_from_json, truncate_tree


def _path_name(prefix: str, path) -> str:
    return prefix + "".join(f"_{s}" for s in path)


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


def _tree_af_table(tree: FiniteTree) -> Tuple[List[str], List[Tuple[int, int]]]:
    """F_T's names and attacks by row: a_r attacks b_r, and b_r attacks
    a of r's parent; each name is its parent's plus one symbol."""
    parents, symbols = tree.parents, tree.symbols
    suffixes = [""]
    attacks = [(0, 1)]
    for r in range(1, len(parents)):
        p = parents[r]
        suffixes.append(f"{suffixes[p]}_{symbols[r]}")
        attacks += ((2 * r, 2 * r + 1), (2 * r + 1, 2 * p))
    names = [n for sfx in suffixes for n in ("a" + sfx, "b" + sfx)]
    return names, attacks


def af_from_finite_tree(tree: FiniteTree) -> FiniteTreeAF:
    names, attacks = _tree_af_table(tree)
    return FiniteTreeAF(FiniteAF(len(names), attacks, names), tree)


# -- F_T over lazy trees -----------------------------------------------------


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
    nodes = tree.states
    known = {0: nodes.root}  # node code -> its state, or OFF_TREE

    def state_of(code: int):
        """The code's node state, one step from its parent code's."""
        climb = []
        while code not in known:
            parent, s = unpair(code - 1)
            climb.append((code, s))
            code = parent
        state = known[code]
        for code, s in reversed(climb):
            state = known[code] = tree.step(state, s)
        return state

    def is_node(code: int) -> bool:
        return state_of(code) is not OFF_TREE

    def predicate(x: int, y: int) -> bool:
        if x % 2 == 0 and y == x + 1:
            return is_node(x // 2)
        if x % 2 == 1 and y % 2 == 0 and x > 1:
            code = x // 2
            return unpair(code - 1)[0] == y // 2 and is_node(code)
        return False

    def candidates(index: int, hi: int) -> list:
        # a b is attacked only by its own a; an a only by the b's of its
        # child slots, whose indices grow with the slot symbol
        if index % 2 == 1:
            return [index - 1] if index - 1 < hi else []
        out = []
        s = 0
        while (x := _B_STEP.apply(pair(index // 2, s))) < hi:
            out.append(x)
            s += 1
        return out

    def spec(index: int) -> AttackerSpec:
        code = index // 2
        state = state_of(code)
        if state is OFF_TREE:
            return AttackerSpec()
        if index % 2 == 1:
            return AttackerSpec(explicit=(index - 1,))
        children = nodes.children(state)
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
        if not is_node(index // 2):
            return f"pad_{index}"
        return _path_name("a" if index % 2 == 0 else "b", _decode(index // 2))

    candidate = None
    if tree.has_rank_annotations:
        def stage_of(index: int):
            state = state_of(index // 2)
            if state is OFF_TREE:
                return ONE
            return NEVER if index % 2 else tree.state_rank(state) + 1

        def family_all_never(fam: AttackerFamily) -> Optional[bool]:
            # families minted by this generator end at the b-companion step
            if fam.index_map.steps and fam.index_map.steps[-1] == _B_STEP:
                return True
            return None

        root_rank = tree.state_rank(nodes.root)
        candidate = SymbolicStageMap(
            fallback=stage_of,
            sup_value=root_rank + 1,
            sup_attained=True,
            sup_witness=0,
            family_all_never=family_all_never,
        )

    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


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

    def candidates(i: int, hi: int):
        if i == 1:
            return range(2, hi, 4)
        return [i - 2] if 2 <= i < hi + 2 else []

    k_plus_1 = AffineOrdinalExpr.affine(1, 1)
    odd_a = IndexMap.affine(4, 2)

    def spec(i: int) -> AttackerSpec:
        if i == 0:
            return AttackerSpec()
        if i == 1:
            return AttackerSpec(families=(AttackerFamily(odd_a, 0, k_plus_1),))
        return AttackerSpec(explicit=(i - 2,))

    def family_all_never(fam: AttackerFamily) -> Optional[bool]:
        # b_0's attackers, the odd a's, never enter G
        return True if fam.index_map == odd_a else None

    w_plus_k_plus_1 = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))
    candidate = SymbolicStageMap(
        families=(
            StageFamily(IndexMap.affine(4, 0), k_plus_1),
            StageFamily(odd_a, NEVER),
            StageFamily(IndexMap.affine(4, 1), w_plus_k_plus_1, k_start=1),
            StageFamily(IndexMap.affine(4, 3), NEVER),
        ),
        exceptions={1: Ordinal(((ONE, 1),)) + 1},  # b_0 enters just past w
        family_all_never=family_all_never,
    )

    def naming(i: int) -> str:
        return f"{'a' if i % 2 == 0 else 'b'}{i // 2}"

    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


# -- indexed unions -----------------------------------------------------------------


class _Slice(NamedTuple):
    """Part p of an indexed union, with what the union's callbacks need."""

    part: object  # FiniteAF | LazyAF | None past the last part
    size: float  # arguments before the padding: inf for a lazy part
    attacks: Callable[[int, int], bool]
    candidates: Callable[[int, int], Iterable[int]]  # (j, m): see LazyAF
    stage: Optional[Callable[[int], object]]


def _union(parts: Callable[[int], object], families: Tuple[StageFamily, ...],
           sup: Optional[Tuple[Ordinal, bool, Optional[int]]]) -> LazyAF:
    """The union of parts(0), parts(1), ... with part p's argument j at pair(p, j).

    parts(p) is a finite or lazy AF, or None past the last part.  Indices
    past a finite part's n, and slices past the last part, are padding at
    stage 1.  sup = (value, attained, witness) attaches a candidate stage
    map: `families`, then each part's stages (lazy parts need candidates).
    """
    cache: Dict[int, _Slice] = {}

    def slice_of(p: int) -> _Slice:
        s = cache.get(p)
        if s is None:
            part = parts(p)
            if part is None:
                s = _Slice(None, 0, lambda jx, jy: False, None, None)
            elif isinstance(part, FiniteAF):
                s = _Slice(part, part.n,
                           lambda jx, jy: (jx, jy) in part.attack_pairs,
                           lambda j, m: [c for c in part.attackers_of(j) if c < m],
                           stages_finite(part).__getitem__ if sup else None)
            else:
                s = _Slice(part, math.inf, part.attacks,
                           part.attacker_candidates or (lambda j, m: range(m)),
                           part.candidate_stages.stage_of if sup else None)
            cache[p] = s
        return s

    def predicate(x: int, y: int) -> bool:
        px, jx = unpair(x)
        py, jy = unpair(y)
        return px == py and slice_of(px).attacks(jx, jy)

    def candidates(y: int, hi: int) -> list:
        # attacks stay inside a part, and pair(p, c) < hi exactly when c < m
        p, j = unpair(y)
        s = slice_of(p)
        if j >= s.size:
            return []
        return [pair(p, c) for c in s.candidates(j, least_right(p, hi))]

    def spec(x: int) -> AttackerSpec:
        p, j = unpair(x)
        s = slice_of(p)
        if j >= s.size:
            return AttackerSpec()
        inner = _attacker_spec_of(s.part, j)
        return AttackerSpec(
            explicit=tuple(pair(p, b) for b in inner.explicit),
            families=tuple(replace(f, index_map=f.index_map.then(PairLeft(p)))
                           for f in inner.families))

    def naming(x: int) -> str:
        p, j = unpair(x)
        s = slice_of(p)
        return f"pad_{x}" if j >= s.size else f"u{p}_{s.part.name(j)}"

    candidate = None
    if sup is not None:
        def stage_of(x: int):
            p, j = unpair(x)
            s = slice_of(p)
            return ONE if j >= s.size else s.stage(j)

        def family_all_never(fam: AttackerFamily) -> Optional[bool]:
            # attacker families come only from lazy parts, lifted by PairLeft
            steps = fam.index_map.steps
            if steps and isinstance(steps[-1], PairLeft):
                s = slice_of(steps[-1].left)
                if isinstance(s.part, LazyAF):
                    return s.part.candidate_stages.family_all_never(
                        replace(fam, index_map=IndexMap(steps[:-1])))
            return None

        value, attained, witness = sup
        candidate = SymbolicStageMap(
            families=families,
            fallback=stage_of,
            sup_value=value,
            sup_attained=attained,
            sup_witness=witness,
            family_all_never=family_all_never,
        )
    return LazyAF(predicate, spec, universe=None, naming=naming,
                  candidate_stages=candidate, attacker_candidates=candidates)


# -- ordinal-targeted AFs ---------------------------------------------------------


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
        # The parts share the node and path-symbol budgets, spent before any
        # AF is built; part i has rank >= i, so >= i+1 nodes on paths of
        # >= i(i+1)/2 symbols, and too many parts fail up front.
        if truncate * (truncate + 1) // 2 > TRUNCATE_NODE_CAP:
            raise CapExceeded(f"expansion exceeded {TRUNCATE_NODE_CAP} nodes")
        if (truncate - 1) * truncate * (truncate + 1) // 6 > TRUNCATE_SYMBOL_CAP:
            raise CapExceeded(
                f"expansion exceeded {TRUNCATE_SYMBOL_CAP} path symbols")
        trees, used, held = [], 0, 0
        for i in range(truncate):
            part = truncate_tree(build_tree_of_rank(fundamental_sequence(alpha, i)),
                                 width=truncate)
            used += len(part)
            held += part.path_symbols()
            if used > TRUNCATE_NODE_CAP:
                raise CapExceeded(f"expansion exceeded {TRUNCATE_NODE_CAP} nodes")
            if held > TRUNCATE_SYMBOL_CAP:
                raise CapExceeded(
                    f"expansion exceeded {TRUNCATE_SYMBOL_CAP} path symbols")
            trees.append(part)
        return _compact_union([_tree_af_table(t) for t in trees])[0]

    root_stages = fundamental_sequence_expr(alpha).add_finite(1)
    return _union(
        lambda i: af_from_tree(build_tree_of_rank(fundamental_sequence(alpha, i))),
        (StageFamily(IndexMap((PairRight(0),)), root_stages),),
        (alpha, False, None))


# -- disjoint unions ----------------------------------------------------------------


def _compact_union(parts) -> Tuple[FiniteAF, List[int], List[int]]:
    """The finite union of parts given as (names, attacks) by index.

    Part p's argument j goes to the rank of pair(p, j) among all the
    parts' codes, named u<p>_<its name>.  Returns the AF, the union index
    of each part's arguments in turn, and where each part's run starts.
    """
    codes, offsets = [], []
    for p, (names, _) in enumerate(parts):
        offsets.append(len(codes))
        # pair(p, j) with s = p + j on its diagonal
        codes.extend(s * (s + 1) // 2 + s - p for s in range(p, p + len(names)))
    ranked = sorted(range(len(codes)), key=codes.__getitem__)
    index = [0] * len(codes)
    for g, f in enumerate(ranked):
        index[f] = g
    flat_names, attacks = [], []
    for p, (names, part_attacks) in enumerate(parts):
        prefix, off = f"u{p}_", offsets[p]
        flat_names += [prefix + nm for nm in names]
        attacks += [(index[off + x], index[off + y]) for x, y in part_attacks]
    af = FiniteAF(len(codes), attacks, [flat_names[f] for f in ranked])
    return af, index, offsets


def disjoint_union_with_embedding(parts: List):
    """(union AF, embedding (p, j) -> index).  Attacks stay within parts.

    All-finite unions compact the pairing codes into a finite AF; with
    any lazy part the union is the indexed union of the list, whose
    embedding is pair itself.
    """
    parts = list(parts)
    if not parts:
        return FiniteAF(0), lambda p, j: (_ for _ in ()).throw(
            IndexError("empty union"))
    if all(isinstance(p, FiniteAF) for p in parts):
        af, index, offsets = _compact_union(
            [(part.names, part.attack_pairs) for part in parts])

        def embed(p: int, j: int) -> int:
            if not (0 <= p < len(parts) and 0 <= j < parts[p].n):
                raise KeyError((p, j))
            return index[offsets[p] + j]
        return af, embed

    families: List[StageFamily] = []
    sup = None
    if all(isinstance(p, FiniteAF) or p.candidate_stages is not None
           for p in parts):
        best, attained, witness = ONE, True, None
        for p, part in enumerate(parts):
            if isinstance(part, FiniteAF):
                cand = SymbolicStageMap.from_finite(stages_finite(part))
            else:
                cand = part.candidate_stages
                families.extend(replace(f, index_map=f.index_map.then(PairLeft(p)))
                                for f in cand.families)
            value, att, wit = cand.declared_sup()
            if value > best:
                best, attained = value, att
                witness = pair(p, wit) if att and wit is not None else None
        sup = (best, attained, witness)

    af = _union(lambda p: parts[p] if p < len(parts) else None,
                tuple(families), sup)
    return af, pair


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
