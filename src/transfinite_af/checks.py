"""Seeded property suites behind the `check` command.

Each suite runs randomized instances and collects violations; a failing
finite-AF property is shrunk by greedy argument removal
(`remove_argument`) before being reported, so the dump is the smallest
AF (under that greedy strategy) still violating the property.  The lemma
suite also cross-checks the grounded labelling (IN, OUT, UNDEC) against
G, G+ and the rest built without the stage kernel, and builds, merges
and verifies self-defending witnesses.

The module also keeps slow, independent reference engines (an
all-subsets least fixpoint, the round-by-round loops the stage kernel
replaced, the O(n^2) restriction of a lazy AF to a window
(`materialize`), the T_S rank exploration on frozenset states, T_S's
defense prefix decoded level by level, T_S, T^a, the tree expansion and
F_T keyed by paths, the truncated limit target built part by part, and
the per-line APX parser) that the suites and
tests compare the library against, the queries of a tree by path that
those references and the tests ask, the local check of a lazy tree's
declared ranks, and the rank/stage bridge check the lemma suite runs over
the T_S state machine.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .constructions import (
    _B_STEP,
    _compact_union,
    _tree_af_table,
    af_from_finite_tree,
    baumann_spanring,
    disjoint_union,
    ordinal_target_af,
)
from .core import ApxParseError, Family, FiniteAF, LazyAF, Members, \
    PairLeft, format_apx, least_right, pair, parse_apx, unpair
from .errors import CapExceeded, DomainError, TransfiniteAFError, \
    UnsupportedExpression
from .grounded import (
    GroundedResult,
    OmegaApproximation,
    SymbolicStageMap,
    _attacker_closure,
    grounded_finite,
    stages_finite,
    verify_symbolic_stages,
)
from .ordinals import (
    NEVER,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    format_ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    parse_ordinal,
)
from .rank_analysis import (
    STATE_CAP,
    _state_budget,
    _ta_rank,
    _ts_rank_states,
    _ts_root,
    _ts_states,
    largest_self_defending,
    ta_path_violations,
    ts_path_exists,
    witness_path,
)
from .trees import ROOT, TRUNCATE_NODE_CAP, FiniteTree, LazyTree, NodePath, \
    _expand, build_tree_of_rank, expansion_budgets


@dataclass
class SuiteResult:
    name: str
    trials: int
    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "SuiteResult") -> "SuiteResult":
        return SuiteResult(
            name=f"{self.name}+{other.name}",
            trials=self.trials + other.trials,
            checks=self.checks + other.checks,
            violations=self.violations + other.violations,
        )

    def lines(self) -> List[str]:
        status = "pass" if self.passed else "FAIL"
        head = (f"suite {self.name}: {status} "
                f"({self.trials} trials, {self.checks} checks, "
                f"{len(self.violations)} violations)")
        return [head] + self.violations


# -- random instances ---------------------------------------------------------


def random_finite_af(rng: random.Random, max_args: int) -> FiniteAF:
    n = rng.randint(1, max_args)
    p = rng.uniform(0.05, 0.5)
    attacks = [(x, y) for x in range(n) for y in range(n) if rng.random() < p]
    return FiniteAF(n, attacks)


def random_finite_tree(rng: random.Random, max_nodes: int) -> FiniteTree:
    paths = [()]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(paths)
        paths.append(parent + (rng.randint(0, 3),))
    return FiniteTree(paths)


def remove_argument(af: FiniteAF, i: int) -> FiniteAF:
    """af without argument i, the others renumbered in order."""
    kept = [o for o in range(af.n) if o != i]
    index = {old: new for new, old in enumerate(kept)}
    attacks = [(index[x], index[y]) for x, y in af.attack_pairs
               if x != i and y != i]
    return FiniteAF(af.n - 1, attacks, [af.names[o] for o in kept])


def minimize_af(af: FiniteAF, violates: Callable[[FiniteAF], bool]) -> FiniteAF:
    """Greedy argument removal preserving the violation."""
    changed = True
    while changed and af.n > 1:
        changed = False
        for i in range(af.n):
            smaller = remove_argument(af, i)
            try:
                if violates(smaller):
                    af = smaller
                    changed = True
                    break
            except TransfiniteAFError:
                continue
    return af


def _dump(af: FiniteAF) -> str:
    return format_apx(af).replace("\n", " ")


# -- the defense function, independently, on bitmasks ---------------------------


def bitmask_least_fixpoint(af: FiniteAF) -> frozenset:
    """Inclusion-minimum over all 2^n subsets S with f(S) = S.

    A from-scratch implementation of the defense function on bitmasks;
    shares no code with FiniteAF.defense_step.
    """
    n = af.n
    targets = [0] * n
    attackers = [0] * n
    for x, y in af.attack_pairs:
        targets[x] |= 1 << y
        attackers[y] |= 1 << x
    fixpoints = []
    for s in range(1 << n):
        s_plus = 0
        t = s
        while t:
            low = t & -t
            s_plus |= targets[low.bit_length() - 1]
            t ^= low
        f_s = 0
        for i in range(n):
            if attackers[i] & ~s_plus == 0:
                f_s |= 1 << i
        if f_s == s:
            fixpoints.append(s)
    least = min(fixpoints, key=lambda s: bin(s).count("1"))
    assert all(least & ~s == 0 for s in fixpoints), "no inclusion-minimum"
    return frozenset(i for i in range(n) if least >> i & 1)


# -- round-by-round engines, kept as references for the stage kernel ------------


def iterated_defense_step(af: FiniteAF) -> GroundedResult:
    """grounded_finite by applying FiniteAF.defense_step until it is stable.

    Every round rescans all n arguments, so a run costs
    Theta(rounds * (n+m)); the library computes the same result with its
    O(n+m) stage kernel.  The counts are sign-valued: 0 for G, -1 for G+
    and 1 for the undecided rest.
    """
    layers = []
    current: frozenset = frozenset()
    while True:
        nxt = af.defense_step(current)
        if nxt == current:
            break
        layers.append(tuple(sorted(nxt - current)))
        current = nxt
    plus = af.plus_set(current)
    counts = tuple(0 if x in current else -1 if x in plus else 1
                   for x in range(af.n))
    return GroundedResult(tuple(layers), counts)


def eliminated_self_defending(af: FiniteAF) -> frozenset:
    """Greatest fixpoint from the full universe: drop any argument with
    an attacker that the current set no longer counter-attacks."""
    current = set(range(af.n))
    while True:
        doomed = [
            x for x in current
            if any(not any(z in current for z in af.attackers_of(y))
                   for y in af.attackers_of(x))
        ]
        if not doomed:
            return frozenset(current)
        current.difference_update(doomed)


def predicate_omega_approximation(af: LazyAF, window: int, steps: int,
                                  closure_cap: Optional[int] = None
                                  ) -> OmegaApproximation:
    """omega_approximation with rounds that query the attack predicate.

    Each round scans every (stage member, closure argument) pair through
    af.attacks, so a round costs O(|G_k| * |closure|) predicate calls.
    """
    if window < 1 or steps < 1:
        raise ValueError("window and steps must be >= 1")
    attackers = _attacker_closure(af, window, closure_cap)
    closure = set(attackers)

    stages: Dict[int, Ordinal] = {}
    current: set = set()
    stabilized = False
    for k in range(1, steps + 1):
        attacked = set()
        for y in current:
            for b in closure:
                if af.attacks(y, b):
                    attacked.add(b)
        nxt = {x for x in closure if all(b in attacked for b in attackers[x])}
        if nxt == current:
            stabilized = True
            break
        for x in nxt - current:
            stages[x] = Ordinal.from_int(k)
        current = nxt

    rest = closure - set(stages)
    if stabilized:
        return OmegaApproximation(stages, frozenset(rest), frozenset(),
                                  frozenset(closure), True)
    return OmegaApproximation(stages, frozenset(), frozenset(rest),
                              frozenset(closure), False)


def materialize(af: LazyAF, n: int) -> FiniteAF:
    """The finite restriction of a lazy AF to arguments below n, asking
    the attack predicate about all n^2 pairs.

    Faithful for attack edges inside the window; stages computed on the
    result agree with the full AF exactly when the window is
    attacker-complete for the arguments of interest.
    """
    attacks = [(x, y) for x in range(n) for y in range(n) if af.attacks(x, y)]
    names = [af.name(i) for i in range(n)]
    return FiniteAF(n, attacks, names if len(set(names)) == n else None)


# -- the T_S rank exploration on frozenset states, kept as a reference -----------


def _dset(af: FiniteAF, mran) -> frozenset:
    out = set()
    for x in mran:
        out.update(af.attackers_of(x))
    return frozenset(out)


def _first_attacked_level(level: int, dset) -> Optional[int]:
    return min((pair(n, least_right(n, level)) for n in dset), default=None)


def frozenset_ts_rank_states(af: FiniteAF, seed: frozenset):
    """rank_analysis._ts_rank_states on (level, frozenset) states.

    Every state rebuilds its attacker set from the whole committed set and
    finds the next attacked level member by member; the library carries
    both as bitmasks and decodes the level once per state.
    """

    def entry(level: int, mran: frozenset):
        d = _dset(af, mran)
        l1 = _first_attacked_level(level, d)
        if l1 is None:
            raise DomainError(
                "no level ever attacks the committed set: T_S has a path")
        return (l1, mran), l1 - level

    memo: Dict[Tuple[int, frozenset], int] = {}
    root_state, root_gap = entry(0, seed)
    stack: List[list] = [[root_state, None, None]]
    while stack:
        state, children, results = stack[-1]
        if state in memo:
            stack.pop()
            continue
        level, mran = state
        if children is None:
            n = unpair(level)[0]
            att = af.attackers_of(n) if n < af.n else ()
            if not att:
                memo[state] = 0
                stack.pop()
                continue
            children = [entry(level + 1, mran | {i}) for i in att]
            stack[-1][1] = children
            stack[-1][2] = results = []
        advanced = False
        while len(results) < len(children):
            sub_state, gap = children[len(results)]
            if sub_state in memo:
                results.append(1 + gap + memo[sub_state])
            else:
                if len(memo) + len(stack) > STATE_CAP:
                    raise CapExceeded(
                        f"T_S rank exploration exceeded {STATE_CAP} states")
                stack.append([sub_state, None, None])
                advanced = True
                break
        if not advanced and len(results) == len(children):
            memo[state] = max(results)
            stack.pop()
    return root_gap + memo[root_state], memo


# -- trees keyed by paths, and queries by path -------------------------------------


def path_keyed_tree(children_of: Callable[[NodePath], Members],
                    declared_rank_of: Optional[Callable[[NodePath], Ordinal]] = None
                    ) -> LazyTree:
    """A lazy tree whose node states are the nodes' paths."""
    return LazyTree(ROOT, children_of, lambda p, s: p + (s,), declared_rank_of)


def node_state(tree, path: NodePath):
    """The state of the node at `path` in any tree, finite or lazy (its
    `root`, `children` and `child`), walked down from the root;
    DomainError when there is no such node."""
    state = tree.root
    for s in path:
        if not tree.children(state).contains(s):
            raise DomainError(f"{list(path)} is not a node of this tree")
        state = tree.child(state, s)
    return state


def children_at(tree, path: NodePath) -> Members:
    return tree.children(node_state(tree, path))


def declared_rank_at(tree: LazyTree, path: NodePath) -> Ordinal:
    state = node_state(tree, path)
    if tree.declared_rank is None:
        raise DomainError("tree carries no rank annotations")
    return tree.declared_rank(state)


# -- T_S and T^a keyed by paths, kept as references ----------------------------


def mran_of(seed, sigma: NodePath) -> frozenset:
    """The argument set a branch has committed to defending."""
    return frozenset(seed) | {s - 1 for s in sigma if s >= 1}


def _path_keyed_ts_children(af: FiniteAF, level: int,
                            mran: frozenset) -> Members:
    """Children {i+1 : a_i attacks a_n} when a_n attacks the committed
    set, for level decoding to (n, m); else the single child 0."""
    n, _ = unpair(level)
    if n < af.n and any(x < af.n and af.attacks(n, x) for x in mran):
        return Members(tuple(i + 1 for i in af.attackers_of(n)))
    return Members((0,))


def path_keyed_ts(af: FiniteAF, seed) -> LazyTree:
    """rank_analysis.build_TS keyed by paths: every node rebuilds its
    committed set from the seed and its whole path and asks the attack
    relation about each member.  The library carries (level, committed
    mask, attacker mask) states down the tree instead."""
    seed = frozenset(seed)
    return path_keyed_tree(lambda sigma: _path_keyed_ts_children(
        af, len(sigma), mran_of(seed, sigma)))


def path_keyed_ta(af: FiniteAF, a: int) -> LazyTree:
    """rank_analysis.build_Ta keyed by paths: the root's children are a's
    attackers, and below symbol i lies the path-keyed T_{a_i}."""

    def children_of(sigma: NodePath) -> Members:
        if not sigma:
            return af.attacker_spec(a)
        return _path_keyed_ts_children(af, len(sigma) - 1,
                                       mran_of((sigma[0],), sigma[1:]))

    return path_keyed_tree(children_of)


def per_level_defense_prefix(af: FiniteAF, seed: frozenset, gplus: frozenset,
                             depth: int) -> NodePath:
    """rank_analysis._defense_prefix level by level: every level is
    decoded with unpair, and every attacked level searches its least
    counter-attacker outside G+ afresh.  The library steps each level's
    row without decoding it and finds each counter-attacker once."""
    mran = set(seed)
    dset = set()
    for x in mran:
        dset.update(af.attackers_of(x))
    path = []
    for level in range(depth):
        n = unpair(level)[0]
        if n in dset:
            j = next((i for i in af.attackers_of(n) if i not in gplus), None)
            if j is None:
                raise AssertionError(
                    f"attacker {n} of the committed set has no counter-attacker "
                    "outside G+; the complement of G+ failed to defend itself")
            path.append(j + 1)
            if j not in mran:
                mran.add(j)
                dset.update(af.attackers_of(j))
        else:
            path.append(0)
    return tuple(path)


# -- the path-keyed tree expansion, kept as a reference ---------------------------


def path_keyed_expand(tree, node_cap: int, width: Optional[int] = None,
                      depth: Optional[int] = None) -> FiniteTree:
    """trees._expand keyed by paths: every queued node is its whole path,
    its children are asked for by path, and the validating FiniteTree
    constructor orders and deduplicates the paths.  The library carries a
    per-node state down a table of (parent, symbol) rows instead.  Only
    node_cap is held, not the library's path-symbol budget."""
    paths = [ROOT]
    queue = deque([ROOT])
    while queue:
        p = queue.popleft()
        if depth is not None and len(p) >= depth:
            continue
        spec = children_at(tree, p)
        if spec.families and width is None:
            raise UnsupportedExpression(
                f"node {list(p)} has family children; full expansion needs a width")
        symbols = (spec.first(min(width, node_cap)) if width is not None
                   else spec.explicit)
        for s in symbols:
            child = p + (s,)
            paths.append(child)
            if len(paths) > node_cap:
                raise CapExceeded(f"expansion exceeded {node_cap} nodes")
            queue.append(child)
    return FiniteTree(paths)


def _decode(code: int) -> NodePath:
    """The path of node code `code` (see constructions' tree coding)."""
    syms = []
    while code:
        code, s = unpair(code - 1)
        syms.append(s)
    return tuple(reversed(syms))


def _path_name(prefix: str, path: NodePath) -> str:
    return prefix + "".join(f"_{s}" for s in path)


def path_keyed_tree_af(tree: LazyTree) -> LazyAF:
    """constructions.af_from_tree keyed by paths: every index is decoded to
    its node's path, and membership, children and declared ranks are asked
    of the tree by path.  The library remembers each code's node state and
    steps a new code's state from its parent code's instead.  Only the
    predicate, specs, names and candidate stages are built; each a's
    child-slot b-family carries the same all-NEVER verdict and affine
    vouch as the library's, so both verify the same claims the same way."""

    def predicate(x: int, y: int) -> bool:
        if x % 2 == 0 and y == x + 1:
            return tree.member(_decode(x // 2))
        if x % 2 == 1 and y % 2 == 0 and x > 1:
            code = (x - 1) // 2
            return unpair(code - 1)[0] == y // 2 and tree.member(_decode(code))
        return False

    def spec(index: int) -> Members:
        path = _decode(index // 2)
        if not tree.member(path):
            return Members()
        if index % 2 == 1:
            return Members(explicit=(index - 1,))
        code = index // 2
        children = children_at(tree, path)
        explicit = tuple(2 * (pair(code, s) + 1) + 1 for s in children.explicit)
        annotated = tree.declared_rank is not None
        families = tuple(
            Family(fam.index_map.then(PairLeft(code)).then(_B_STEP), fam.k_start,
                   fam.expr.add_finite(1)
                   if annotated and fam.expr is not None else None,
                   annotated, annotated and fam.affine)
            for fam in children.families)
        return Members(explicit=explicit, families=families)

    def naming(index: int) -> str:
        path = _decode(index // 2)
        if not tree.member(path):
            return f"pad_{index}"
        return _path_name("a" if index % 2 == 0 else "b", path)

    candidate = None
    if tree.declared_rank is not None:
        def stage_of(index: int):
            path = _decode(index // 2)
            if not tree.member(path):
                return ONE
            return NEVER if index % 2 else declared_rank_at(tree, path) + 1

        candidate = SymbolicStageMap(
            exceptions={0: declared_rank_at(tree, ROOT) + 1}, fallback=stage_of)
    return LazyAF(predicate, spec, naming=naming,
                  candidate_stages=candidate)


# -- the truncated limit target built part by part, kept as a reference -------


def per_part_limit_target(alpha: Ordinal, width: int,
                          node_cap: int = TRUNCATE_NODE_CAP) -> FiniteAF:
    """constructions.ordinal_target_af(alpha, truncate=width) for a limit
    alpha, built part by part: part i is expanded alone from its own
    rank-alpha[i] tree, F_T is read off each part's table, and the finite
    union joins the parts.  The library expands every part in one call,
    from the rank-alpha tree's root children with one state table, and
    reads F_T off that forest table in one pass.  Both spend the same
    up-front floors, then one pair of budgets shared by the parts."""
    nodes, path_symbols = expansion_budgets(node_cap)
    nodes.spend(width * (width + 1) // 2)
    path_symbols.spend((width - 1) * width * (width + 1) // 6)
    budgets = expansion_budgets(node_cap)
    parts = []
    for i in range(width):
        tree = build_tree_of_rank(fundamental_sequence(alpha, i))
        parts.append(_tree_af_table(_expand(tree, [tree.root], *budgets,
                                            width=width)))
    return _compact_union(parts)


# -- declared-rank verification --------------------------------------------------


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
    rank = tree.declared_rank
    if rank is None:
        raise DomainError("tree carries no rank annotations")
    children, child = tree.children, tree.child
    violations = []
    checked = 0
    queue = deque([(ROOT, tree.root)])
    while queue:
        p, state = queue.popleft()
        declared = rank(state)
        checked += 1
        spec = children(state)
        symbols = spec.first(sample_width)
        kids = [child(state, s) for s in symbols]
        rank_of = dict(zip(symbols, map(rank, kids)))
        want = max((rank_of[s] + 1 for s in spec.explicit), default=ZERO)
        for fam in spec.families:
            if fam.expr is None:
                raise UnsupportedExpression(
                    f"{list(p)}: family child ranks are not affine-expressible")
            for k in range(fam.k_start, fam.k_start + sample_width):
                s = fam.member(k)
                closed = fam.expr.evaluate(k)
                if rank_of[s] != closed:
                    violations.append(f"{list(p + (s,))}: declared {rank_of[s]}, "
                                      f"closed form gives {closed}")
            want = max(want, fam.expr.add_finite(1).sup_over(fam.k_start)[0])
        if declared != want:
            violations.append(f"{list(p)}: declared {declared}, children give {want}")
        if len(p) < sample_depth:
            queue.extend((p + (s,), kid) for s, kid in zip(symbols, kids))
    return RankCheckReport(violations, checked)


# -- the per-line APX parser, kept as a reference -----------------------------------


_ARG_LINE = re.compile(r"arg\(([a-zA-Z0-9_]+)\)\.\Z")
_ATT_LINE = re.compile(r"att\(([a-zA-Z0-9_]+),\s*([a-zA-Z0-9_]+)\)\.\Z")


def per_line_parse_apx(text: str) -> FiniteAF:
    """parse_apx line by line: strip the comment and the spaces, match the
    statement, and build through the validating constructor."""
    names = []
    seen = set()
    attacks = []
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        m = _ARG_LINE.match(line)
        if m:
            nm = m.group(1)
            if nm in seen:
                raise ApxParseError(f"duplicate argument {nm!r}", lineno)
            seen.add(nm)
            names.append(nm)
            continue
        m = _ATT_LINE.match(line)
        if m:
            pending.append((m.group(1), m.group(2), lineno))
            continue
        raise ApxParseError(f"unrecognized line {line!r}", lineno)
    index = {nm: i for i, nm in enumerate(names)}
    for x, y, lineno in pending:
        if x not in index:
            raise ApxParseError(f"attack references unknown argument {x!r}", lineno)
        if y not in index:
            raise ApxParseError(f"attack references unknown argument {y!r}", lineno)
        attacks.append((index[x], index[y]))
    return FiniteAF(len(names), attacks, names)


# -- self-defending witnesses, for the lemma suite -------------------------------


@dataclass(frozen=True)
class SelfDefendingWitness:
    """A set with, for every attacker of it, a chosen counter-attacker.

    Not necessarily conflict-free.
    """

    members: frozenset
    defenders: Tuple[Tuple[int, int], ...]  # (attacker, member attacking it)


def build_self_defending_witness(af: FiniteAF, members) -> Optional[SelfDefendingWitness]:
    """The witness choosing each attacker's least counter-attacker among
    the members, or None when some attacker has none."""
    members = frozenset(members)
    defenders = []
    for y in sorted(af.minus_set(members)):
        chosen = next((x for x in sorted(members) if af.attacks(x, y)), None)
        if chosen is None:
            return None
        defenders.append((y, chosen))
    return SelfDefendingWitness(members, tuple(defenders))


def verify_self_defending_witness(af: FiniteAF, w: SelfDefendingWitness) -> bool:
    """Whether every attacker of the members meets its chosen member."""
    cert = dict(w.defenders)
    return all(cert.get(y) in w.members and af.attacks(cert[y], y)
               for y in af.minus_set(w.members))


def merge_witnesses(w1: SelfDefendingWitness,
                    w2: SelfDefendingWitness) -> SelfDefendingWitness:
    """Union of self-defending sets is self-defending; certificates merge."""
    members = w1.members | w2.members
    cert = dict(w2.defenders)
    cert.update(w1.defenders)
    return SelfDefendingWitness(members, tuple(sorted(cert.items())))


# -- the rank/stage bridge -----------------------------------------------------


@dataclass
class BridgeReport:
    violations: List[str]
    grounded_checked: int
    states_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def rank_stage_bridge_check(af: FiniteAF) -> BridgeReport:
    """Assert the two rank/stage bridges on a whole finite AF.

    For every grounded a: the exact rank r of T^a satisfies a in G_{r+1}.
    For every explored T_{{b}} state of rank q (b in G+): some member of
    G_{q+1} attacks the committed set.  One memo serves every tree, so
    each state is checked once.
    """
    result = grounded_finite(af)
    gplus = af.plus_set(result.grounded)
    # a finite AF's stages are naturals (NEVER above them all); each
    # argument's least attacker stage is computed once
    stage = [math.inf if v is NEVER else v.as_int()
             for v in map(result.stages.__getitem__, range(af.n))]
    least_attacker = [min(map(stage.__getitem__, af.attackers_of(x)),
                          default=math.inf) for x in range(af.n)]
    violations = []
    tree = _ts_states(af)
    memo: Dict[Tuple[int, int], int] = {}
    budget = _state_budget()

    for a in sorted(result.grounded):
        r = _ta_rank(tree, a, memo, budget)
        if stage[a] > r + 1:
            violations.append(f"grounded {af.name(a)}: stage {stage[a]} "
                              f"exceeds T^a rank+1 = {r + 1}")

    _ts_rank_states(tree, [_ts_root(af, (b,)) for b in sorted(gplus)], memo,
                    budget)
    for (level, cmask), q in memo.items():
        mran = [x for x in range(af.n) if cmask >> x & 1]
        if min(map(least_attacker.__getitem__, mran), default=math.inf) > q + 1:
            violations.append(
                f"T_S state (level {level}, committed {mran}) of rank {q}: "
                f"no member of G_{q + 1} attacks the committed set")
    return BridgeReport(violations, len(result.grounded), len(memo))


# -- the lemma suite -------------------------------------------------------------


def grounded_classes(result: GroundedResult) -> Tuple[frozenset, ...]:
    """(IN, OUT, UNDEC) of a grounding: the arguments whose count is 0,
    below 0 and above 0."""
    signs = [(c > 0) - (c < 0) for c in result.counts]
    return tuple(frozenset(x for x, s in enumerate(signs) if s == sign)
                 for sign in (0, -1, 1))


def bad_classes(af: FiniteAF) -> bool:
    """Whether grounded_finite's labelling differs from references built
    without it: G by all subsets (n <= 10) or by rounds, G+ = plus_set(G)
    and UNDEC the rest."""
    g = bitmask_least_fixpoint(af) if af.n <= 10 else \
        iterated_defense_step(af).grounded
    g_plus = af.plus_set(g)
    return grounded_classes(grounded_finite(af)) != \
        (g, g_plus, frozenset(range(af.n)) - g - g_plus)


def run_lemma_suite(trials: int, max_args: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult("lemmas", trials)

    def report(af: FiniteAF, message: str, violates) -> None:
        small = minimize_af(af, violates)
        result.violations.append(f"{message}; minimized: {_dump(small)}")

    for _ in range(trials):
        af = random_finite_af(rng, max_args)
        r = grounded_finite(af)
        g_plus = af.plus_set(r.grounded)
        result.checks += 1

        if af.n <= 10:
            def bad_lfp(a):
                return grounded_finite(a).grounded != bitmask_least_fixpoint(a)

            if bad_lfp(af):
                report(af, "grounded is not the least fixpoint", bad_lfp)
                continue

        if bad_classes(af):
            report(af, "grounded labelling's IN/OUT/UNDEC classes disagree "
                       "with G, G+ and the rest", bad_classes)
        if not af.is_conflict_free(r.grounded):
            report(af, "grounded extension not conflict-free",
                   lambda a: not a.is_conflict_free(grounded_finite(a).grounded))
        if r.grounding_ordinal > af.n:
            report(af, "grounding ordinal above argument count",
                   lambda a: grounded_finite(a).grounding_ordinal > a.n)

        def bad_dual(a):
            return largest_self_defending(a) != eliminated_self_defending(a)

        if bad_dual(af):
            report(af, "largest self-defending is not the complement of G+",
                   bad_dual)

        seeds = [frozenset()] + [frozenset({x}) for x in range(af.n)]
        if af.n >= 2:
            seeds.append(frozenset(rng.sample(range(af.n), 2)))
        for s in seeds:
            decision = ts_path_exists(af, s, prefix_depth=40)
            if decision.path_exists != (not (s & g_plus)):
                names = sorted(s)

                def bad_ts(a, _s=s):
                    if any(x >= a.n for x in _s):
                        return False
                    d = ts_path_exists(a, _s, prefix_depth=40)
                    gp = a.plus_set(grounded_finite(a).grounded)
                    return d.path_exists != (not (_s & gp))

                report(af, f"T_S path question disagrees with the oracle "
                           f"for seed {names}", bad_ts)
                break

        bridge = rank_stage_bridge_check(af)
        if not bridge.ok:
            report(af, f"rank/stage bridge violated: {bridge.violations[0]}",
                   lambda a: not rank_stage_bridge_check(a).ok)

        outside = [a for a in range(af.n) if a not in r.grounded]
        for a in outside[:2]:
            path = witness_path(af, a, 30)
            if ta_path_violations(af, a, path, g_plus):
                def bad_witness(x, _a=a):
                    if _a >= x.n:
                        return False
                    res = grounded_finite(x)
                    if _a in res.grounded:
                        return False
                    gp = x.plus_set(res.grounded)
                    return bool(ta_path_violations(
                        x, _a, witness_path(x, _a, 30), gp))

                report(af, f"witness path through T^{af.name(a)} failed",
                       bad_witness)
                break

        exact = stages_finite(af)
        ok = verify_symbolic_stages(af, SymbolicStageMap.from_finite(exact),
                                    sample=af.n)
        if not ok.ok:
            report(af, f"verifier rejected the exact stage map: "
                       f"{ok.violations[0]}",
                   lambda a: not verify_symbolic_stages(
                       a, SymbolicStageMap.from_finite(stages_finite(a)),
                       sample=a.n).ok)

        x = rng.randrange(af.n)
        tampered = dict(exact)
        if exact[x] is NEVER:
            tampered[x] = Ordinal.from_int(rng.randint(1, af.n + 1))
        elif rng.random() < 0.5:
            tampered[x] = exact[x] + 1
        else:
            tampered[x] = NEVER
        if verify_symbolic_stages(af, SymbolicStageMap.from_finite(tampered),
                                  sample=af.n).ok:
            result.violations.append(
                f"verifier accepted a perturbed stage map (argument {x}) "
                f"on {_dump(af)}")

        singles = [build_self_defending_witness(af, {x})
                   for x in largest_self_defending(af)]
        singles = [w for w in singles if w is not None]
        for i in range(len(singles) - 1):
            merged = merge_witnesses(singles[i], singles[i + 1])
            if not verify_self_defending_witness(af, merged):
                result.violations.append(
                    f"witness union not self-defending on {_dump(af)}")
                break
    return result


# -- the ordinal suite -------------------------------------------------------------


def _random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0 or rng.random() < 0.5:
        terms = []
        for e in range(rng.randint(0, 4), -1, -1):
            if rng.random() < 0.5:
                terms.append((Ordinal.from_int(e), rng.randint(1, 9)))
        return Ordinal(tuple(terms))
    exps = sorted({_random_ordinal(rng, depth - 1) for _ in range(rng.randint(1, 3))},
                  reverse=True)
    return Ordinal(tuple((e, rng.randint(1, 4)) for e in exps))


def run_ordinal_suite(trials: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult("ordinals", trials)
    for _ in range(trials):
        x = _random_ordinal(rng)
        y = _random_ordinal(rng)
        result.checks += 1
        if (x < y) + (x == y) + (x > y) != 1:
            result.violations.append(f"trichotomy broken for {x} vs {y}")
        if not (x <= x + y) or (y > ZERO and not (x < x + y)):
            result.violations.append(f"addition not monotone: {x} + {y}")
        s = x + 1
        if not (x < s) or s.predecessor() != x:
            result.violations.append(f"successor/predecessor broken at {x}")
        if parse_ordinal(format_ordinal(x)) != x:
            result.violations.append(f"parse/format roundtrip broken at {x}")
        if x.is_limit:
            expr = fundamental_sequence_expr(x)
            prev = None
            for i in range(5):
                v = fundamental_sequence(x, i)
                if v >= x or (prev is not None and v <= prev):
                    result.violations.append(
                        f"fundamental sequence not increasing below {x}")
                    break
                if expr is not None and v != expr.evaluate(i):
                    result.violations.append(
                        f"fundamental sequence of {x} at {i} is {v}, "
                        f"closed form gives {expr.evaluate(i)}")
                    break
                prev = v
            if expr is not None:
                value, attained = expr.sup_over()
                if attained or value != x:
                    result.violations.append(
                        f"fundamental family sup is {value}, wanted {x}")
    return result


# -- the construction suite -----------------------------------------------------------


def bs_growth_rows(up_to: int) -> List[Tuple[int, int, int]]:
    """(truncate, argument count, b0 stage) for two-chain truncations."""
    rows = []
    for m in range(1, up_to + 1):
        af = baumann_spanring(truncate=2 * m)
        stage = stages_finite(af)[af.index_of("b0")]
        rows.append((2 * m, af.n, stage.as_int()))
    return rows


def write_growth_csv(path: str, up_to: int = 50) -> None:
    rows = bs_growth_rows(up_to)
    with open(path, "w") as fh:
        fh.write("truncate,args,b0_stage\n")
        for trunc, args, stage in rows:
            fh.write(f"{trunc},{args},{stage}\n")


def run_construction_suite(trials: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult("constructions", trials)

    for _ in range(trials):
        result.checks += 1
        ft = af_from_finite_tree(random_finite_tree(rng, 80))
        if stages_finite(ft.af) != ft.expected_stages():
            result.violations.append(
                f"tree-AF stages disagree with node ranks on a "
                f"{len(ft.tree)}-node tree (seed state)")

        parts = [random_finite_af(rng, 5), random_finite_af(rng, 5)]
        union = disjoint_union(parts)
        got = stages_finite(union)
        for p, part in enumerate(parts):
            for j, v in stages_finite(part).items():
                if got[union.index_of(f"u{p}_{part.name(j)}")] != v:
                    result.violations.append(
                        f"union does not preserve stages at part {p} "
                        f"argument {j}")
        want = max((grounded_finite(p).grounding_ordinal.as_int()
                    for p in parts), default=0)
        if grounded_finite(union).grounding_ordinal != want:
            result.violations.append("union grounding ordinal is not the "
                                     "sup of the parts'")

    for k in range(1, 7):
        result.checks += 1
        if grounded_finite(ordinal_target_af(k)).grounding_ordinal != k:
            result.violations.append(f"ordinal target {k} misses its mark")

    for text in ("w", "w*2", "w^2", "w^2+w"):
        result.checks += 1
        alpha = parse_ordinal(text)
        af = ordinal_target_af(alpha)
        report = verify_symbolic_stages(af, af.candidate_stages, sample=24)
        if not report.ok or report.grounding_ordinal != alpha:
            result.violations.append(
                f"ordinal target {text} failed symbolic certification")

    result.checks += 1
    bs = baumann_spanring()
    report = verify_symbolic_stages(bs, bs.candidate_stages, sample=32)
    if not report.ok or report.grounding_ordinal != OMEGA + OMEGA:
        result.violations.append("two-chain generator failed certification")

    result.checks += 1
    prev = 0
    for trunc, _args, stage in bs_growth_rows(20):
        if stage <= prev - 1 or stage < trunc // 4:
            result.violations.append(
                f"b0 stage stopped growing at truncation {trunc}")
            break
        prev = stage
    return result


# -- injected candidates ---------------------------------------------------------------


def parse_injected(text: str) -> Tuple[FiniteAF, Dict[int, object]]:
    """APX plus `%stage <name> <ordinal|NEVER>` annotation lines."""
    af = parse_apx(text)
    stages: Dict[int, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] != "%stage":
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: %stage needs a name and a value")
        _, name, value = parts
        idx = af.index_of(name)
        if idx in stages:
            raise ValueError(f"line {lineno}: duplicate %stage for {name!r}")
        stages[idx] = NEVER if value == "NEVER" else parse_ordinal(value)
    return af, stages


def run_injected(path: str) -> SuiteResult:
    result = SuiteResult("inject", 1)
    with open(path) as fh:
        af, stages = parse_injected(fh.read())
    for i in range(af.n):
        if i not in stages:
            raise ValueError(f"injected stage map misses argument {af.name(i)}")
    report = verify_symbolic_stages(af, SymbolicStageMap.from_finite(stages),
                                    sample=max(af.n, 1))
    result.checks = report.checked
    if not report.ok:
        def still_bad(a):
            try:
                keep = {i: stages[af.index_of(a.name(i))] for i in range(a.n)}
            except KeyError:
                return False
            return not verify_symbolic_stages(
                a, SymbolicStageMap.from_finite(keep), sample=a.n).ok

        small = minimize_af(af, still_bad)
        result.violations.append(
            f"injected stage map rejected: {report.violations[0]}; "
            f"minimized: {_dump(small)}")
    return result


# -- entry point ------------------------------------------------------------------------


def run_suites(suite: str, trials: int, max_args: int, seed: int,
               emit_plot: Optional[str] = None,
               inject: Optional[str] = None) -> SuiteResult:
    picked: List[SuiteResult] = []
    if suite in ("lemmas", "all"):
        picked.append(run_lemma_suite(trials, max_args, seed))
    if suite in ("ordinals", "all"):
        picked.append(run_ordinal_suite(max(trials * 10, 200), seed + 1))
    if suite in ("constructions", "all"):
        picked.append(run_construction_suite(max(trials // 2, 5), seed + 2))
    if inject is not None:
        picked.append(run_injected(inject))
    if emit_plot is not None:
        write_growth_csv(emit_plot)
    total = picked[0]
    for extra in picked[1:]:
        total = total.merge(extra)
    return total
