"""Self-defending extensions and the tree reductions T_S and T^a.

The trees turn grounded-extension questions into path questions: T_S has
a path exactly when the seed set avoids G+, and T^a has a path exactly
when a is outside the grounded extension.  On finite AFs path existence
is decided through the grounded-extension oracle, and the tree side then
produces certificates in both directions: a verified path prefix built
from the largest self-defending extension, or the exact finite rank of
the pathless tree (finitely branching, so exhaustion terminates).

Levels of T_S consider argument a_n at every level whose index decodes
to (n, m); over a finite AF the indices n beyond the argument count
belong to no argument, attack nothing, and simply insert single-child
steps.  Subtrees depend only on (level, committed set), which is what
makes rank computation by state sharing exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .core import Affine, FiniteAF, unpair
from .errors import CapExceeded, DomainError
from .grounded import grounded_finite
from .ordinals import Ordinal
from .trees import ChildFamily, ChildrenSpec, FiniteTree, LazyTree, NodePath, \
    NodeStates, _expand

__all__ = [
    "mran_of", "largest_self_defending",
    "SelfDefendingWitness", "build_self_defending_witness",
    "verify_self_defending_witness", "merge_witnesses",
    "build_TS", "ts_rank", "ts_path_exists", "TsDecision",
    "build_Ta", "ta_rank", "witness_path", "ta_path_violations",
    "rank_stage_bridge_check", "BridgeReport", "expand_ts",
]


def mran_of(seed: FrozenSet[int], sigma: NodePath) -> frozenset:
    """The argument set a branch has committed to defending."""
    return frozenset(seed) | {s - 1 for s in sigma if s >= 1}


# -- self-defending extensions -------------------------------------------


def largest_self_defending(af: FiniteAF) -> frozenset:
    """The largest set that counter-attacks each of its attackers.

    It equals the complement of G+, the arguments the grounded extension
    attacks, so it costs one run of the O(n+m) stage kernel plus one pass
    over the attacks of G.
    """
    return frozenset(range(af.n)) - af.plus_set(grounded_finite(af).grounded)


@dataclass(frozen=True)
class SelfDefendingWitness:
    """A set with, for every attacker of it, a chosen counter-attacker.

    Not necessarily conflict-free.
    """

    members: frozenset
    defenders: Tuple[Tuple[int, int], ...]  # (attacker, member attacking it)

    def defender_map(self) -> Dict[int, int]:
        return dict(self.defenders)


def build_self_defending_witness(af: FiniteAF, members) -> Optional[SelfDefendingWitness]:
    members = frozenset(members)
    defenders = []
    for y in sorted(af.minus_set(members)):
        chosen = next((x for x in sorted(members) if af.attacks(x, y)), None)
        if chosen is None:
            return None
        defenders.append((y, chosen))
    return SelfDefendingWitness(members, tuple(defenders))


def verify_self_defending_witness(af: FiniteAF, w: SelfDefendingWitness) -> bool:
    cert = w.defender_map()
    for y in af.minus_set(w.members):
        x = cert.get(y)
        if x is None or x not in w.members or not af.attacks(x, y):
            return False
    return True


def merge_witnesses(w1: SelfDefendingWitness,
                    w2: SelfDefendingWitness) -> SelfDefendingWitness:
    """Union of self-defending sets is self-defending; certificates merge."""
    members = w1.members | w2.members
    cert = dict(w2.defenders)
    cert.update(w1.defenders)
    return SelfDefendingWitness(members, tuple(sorted(cert.items())))


# -- T_S ---------------------------------------------------------------------


def _attacks_safe(af, x: int, y: int) -> bool:
    if isinstance(af, FiniteAF) and (x >= af.n or y >= af.n):
        return False
    return af.attacks(x, y)


def _attacker_children(af, n: int) -> ChildrenSpec:
    """Children {i+1 : a_i attacks a_n} for a case-1 level."""
    if isinstance(af, FiniteAF):
        if n >= af.n:
            return ChildrenSpec()
        return ChildrenSpec(symbols=tuple(i + 1 for i in af.attackers_of(n)))
    spec = af.attacker_spec(n)
    fams = tuple(ChildFamily(f.index_map.then(Affine(1, 1)), f.k_start)
                 for f in spec.families)
    return ChildrenSpec(symbols=tuple(i + 1 for i in sorted(spec.explicit)),
                        families=fams)


def _ts_children(af, level: int, mran: frozenset) -> ChildrenSpec:
    n, _ = unpair(level)
    if any(_attacks_safe(af, n, x) for x in mran):
        return _attacker_children(af, n)
    return ChildrenSpec(symbols=(0,))


def build_TS(af, seed) -> LazyTree:
    """The tree whose paths describe self-defending supersets of the seed."""
    seed = frozenset(seed)

    def children_of(sigma: NodePath) -> ChildrenSpec:
        return _ts_children(af, len(sigma), mran_of(seed, sigma))

    return LazyTree(children_of=children_of)


# Most (level, committed set) states a T_S rank exploration may hold.
STATE_CAP = 250_000


def ts_rank(af: FiniteAF, seed) -> int:
    """Exact rank of a pathless T_S by shared-state exhaustion.

    Requires seed & G+ nonempty (otherwise the tree has a path and no
    rank).  Rank and branching depend only on (level, committed set);
    runs of single-child levels between attacked levels contribute their
    length.
    """
    rank, _ = _ts_rank_states(af, frozenset(seed))
    return rank


def _mask(members) -> int:
    """The int with bit i set for each member i."""
    out = 0
    for i in members:
        out |= 1 << i
    return out


def _first_attacked_level(level: int, dmask: int) -> Optional[int]:
    """The least level >= `level` whose index decodes to (n, m) with bit n
    of dmask set; None when dmask is empty.

    With (x, y) = unpair(level) on diagonal s = x + y, row n meets the
    diagonal at pair(n, s - n) = T(s) + s - n, which is >= level exactly
    when n <= x; so the largest such n wins, else the largest n <= s + 1 on
    the next diagonal, else the smallest n at pair(n, 0) = T(n).
    """
    if not dmask:
        return None
    x, y = unpair(level)
    s = x + y
    below = dmask & ((2 << x) - 1)
    if not below:
        s += 1
        below = dmask & ((2 << s) - 1)
        if not below:
            n = (dmask & -dmask).bit_length() - 1
            return n * (n + 1) // 2
    return s * (s + 1) // 2 + s - (below.bit_length() - 1)


def _ts_rank_states(af: FiniteAF, seed: frozenset):
    """(root rank, {case-1 state: rank}) for a pathless T_S.

    A state is (level, committed mask), bit i of the mask standing for
    a_i.  Each stack entry also carries its attacker mask, the union of
    its members' rows of `att`: a child's is its parent's `|` the row of
    the one member it adds.
    """
    att = [_mask(af.attackers_of(x)) for x in range(af.n)]

    def entry(level: int, cmask: int, dmask: int):
        l1 = _first_attacked_level(level, dmask)
        if l1 is None:
            raise DomainError(
                "no level ever attacks the committed set: T_S has a path")
        return (l1, cmask), dmask, l1 - level

    memo: Dict[Tuple[int, int], int] = {}
    seed_dmask = _mask(af.minus_set(seed))  # checks the seed's range too
    root_state, root_dmask, root_gap = entry(0, _mask(seed), seed_dmask)
    stack: List[list] = [[root_state, root_dmask, None, None]]
    while stack:
        state, dmask, children, results = stack[-1]
        if state in memo:
            stack.pop()
            continue
        level, cmask = state
        if children is None:
            attackers = af.attackers_of(unpair(level)[0])
            if not attackers:
                memo[state] = 0
                stack.pop()
                continue
            children = [entry(level + 1, cmask | 1 << i, dmask | att[i])
                        for i in attackers]
            stack[-1][2] = children
            stack[-1][3] = results = []
        advanced = False
        while len(results) < len(children):
            sub_state, sub_dmask, gap = children[len(results)]
            if sub_state in memo:
                results.append(1 + gap + memo[sub_state])
            else:
                if len(memo) + len(stack) > STATE_CAP:
                    raise CapExceeded(
                        f"T_S rank exploration exceeded {STATE_CAP} states")
                stack.append([sub_state, sub_dmask, None, None])
                advanced = True
                break
        if not advanced and len(results) == len(children):
            memo[state] = max(results)
            stack.pop()
    return root_gap + memo[root_state], memo


def expand_ts(af: FiniteAF, seed, node_cap: int = 50_000) -> FiniteTree:
    """Materialize T_S node by node (pathless seeds only, König-finite).

    The nodes of `build_TS`, each carrying its level and attacker mask
    down from its parent instead of rebuilding them from its path: a
    node is attacked when bit n of its mask is set, for its level
    decoding to (n, m), and its child by symbol i + 1 adds a_i's row.
    """
    att = [_mask(af.attackers_of(x)) for x in range(af.n)]
    attacked = [ChildrenSpec(symbols=tuple(i + 1 for i in af.attackers_of(n)))
                for n in range(af.n)]
    unattacked = ChildrenSpec(symbols=(0,))

    def children(state) -> ChildrenSpec:
        level, dmask = state
        n = unpair(level)[0]
        return attacked[n] if dmask >> n & 1 else unattacked

    def child(state, symbol: int):
        level, dmask = state
        return level + 1, (dmask | att[symbol - 1] if symbol else dmask)

    root = (0, _mask(af.minus_set(frozenset(seed))))
    return _expand(LazyTree(states=NodeStates(root, children, child)), node_cap)


@dataclass(frozen=True)
class TsDecision:
    """Answer plus certificate: a verified path prefix, or the exact rank."""

    path_exists: bool
    prefix: Optional[NodePath]
    rank: Optional[Ordinal]

    def __repr__(self):
        if self.path_exists:
            return f"TsDecision(path, prefix length {len(self.prefix)})"
        return f"TsDecision(no path, rank {self.rank})"


def ts_path_exists(af: FiniteAF, seed, prefix_depth: int = 100) -> TsDecision:
    """Decide whether T_S has a path, via the oracle seed & G+ = empty.

    The positive certificate extends levels by the least member of the
    largest self-defending extension that answers the attack (or 0 at
    unattacked levels), checked against the children relation as it is
    built.  The negative certificate is the exact finite rank.
    """
    seed = frozenset(seed)
    for x in seed:
        if not (0 <= x < af.n):
            raise IndexError(f"seed argument {x} out of range")
    result = grounded_finite(af)
    gplus = af.plus_set(result.grounded)
    if seed & gplus:
        rank = ts_rank(af, seed)
        return TsDecision(False, None, Ordinal.from_int(rank))
    prefix = _defense_prefix(af, seed, gplus, prefix_depth)
    return TsDecision(True, prefix, None)


def _defense_prefix(af: FiniteAF, seed: frozenset, gplus: frozenset,
                    depth: int) -> NodePath:
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
            if j in gplus:
                raise AssertionError("defense prefix left the complement of G+")
        else:
            path.append(0)
    return tuple(path)


# -- T^a ---------------------------------------------------------------------


def build_Ta(af, a: int) -> LazyTree:
    """Root plus, below each attacker a_i of a, the subtree T_{{a_i}}."""

    def children_of(sigma: NodePath) -> ChildrenSpec:
        if not sigma:
            if isinstance(af, FiniteAF):
                return ChildrenSpec(symbols=af.attackers_of(a))
            spec = af.attacker_spec(a)
            fams = tuple(ChildFamily(f.index_map, f.k_start)
                         for f in spec.families)
            return ChildrenSpec(symbols=tuple(sorted(spec.explicit)),
                                families=fams)
        i = sigma[0]
        seed = frozenset((i,))
        return _ts_children(af, len(sigma) - 1, mran_of(seed, sigma[1:]))

    return LazyTree(children_of=children_of)


def ta_rank(af: FiniteAF, a: int) -> Ordinal:
    """Exact rank of T^a; defined exactly when a is grounded."""
    if a not in grounded_finite(af).grounded:
        raise DomainError(
            f"argument {af.name(a)} is not grounded; T^a has a path, not a rank")
    attackers = af.attackers_of(a)
    if not attackers:
        return Ordinal.from_int(0)
    best = 0
    for i in attackers:
        best = max(best, ts_rank(af, frozenset((i,))))
    return Ordinal.from_int(best + 1)


def witness_path(af: FiniteAF, a: int, length: int) -> NodePath:
    """Deterministic path prefix through T^a for a non-grounded argument.

    First symbol: the least attacker of a outside G+; afterwards, at
    attacked levels, the least counter-attacker outside G+ (else 0).
    The committed set never meets G+.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    result = grounded_finite(af)
    if a in result.grounded:
        raise DomainError(
            f"argument {af.name(a)} is grounded; T^a has no path")
    gplus = af.plus_set(result.grounded)
    first = next((i for i in af.attackers_of(a) if i not in gplus), None)
    if first is None:
        raise AssertionError("non-grounded argument with every attacker in G+")
    rest = _defense_prefix(af, frozenset((first,)), gplus, length - 1)
    return (first,) + rest


def ta_path_violations(af: FiniteAF, a: int, path: NodePath,
                       gplus: Optional[frozenset] = None) -> List[str]:
    """Check a path prefix directly against the definitions of T^a and T_S.

    Validates every step from the raw attack relation (not the tree
    builders) and, when G+ is supplied, that the committed set stays
    disjoint from it.  Returns human-readable problems; empty is clean.
    """
    problems = []
    if not path:
        return ["empty path"]
    first = path[0]
    if not _attacks_safe(af, first, a):
        problems.append(f"first symbol {first} does not attack {a}")
        return problems
    mran = {first}
    if gplus is not None and first in gplus:
        problems.append(f"first symbol {first} lies in G+")
    dset = set(af.attackers_of(first)) if first < af.n else set()
    for level, symbol in enumerate(path[1:]):
        n = unpair(level)[0]
        attacked = n in dset
        if symbol == 0:
            if attacked:
                problems.append(
                    f"level {level}: a_{n} attacks the committed set but the "
                    "path claims otherwise")
        else:
            j = symbol - 1
            if not attacked:
                problems.append(
                    f"level {level}: extension by {symbol} at an unattacked level")
            elif not _attacks_safe(af, j, n):
                problems.append(
                    f"level {level}: symbol {symbol} but a_{j} does not "
                    f"attack a_{n}")
            if gplus is not None and j in gplus:
                problems.append(f"level {level}: committed argument {j} is in G+")
            if j not in mran:
                mran.add(j)
                if j < af.n:
                    dset.update(af.attackers_of(j))
    return problems


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
    G_{q+1} attacks the committed set.
    """
    result = grounded_finite(af)
    stages = result.stages
    gplus = af.plus_set(result.grounded)
    violations = []
    states_checked = 0

    for a in sorted(result.grounded):
        r = ta_rank(af, a).as_int()
        stage = stages[a]
        if stage > r + 1:
            violations.append(
                f"grounded {af.name(a)}: stage {stage} exceeds T^a rank+1 = {r + 1}")

    for b in range(af.n):
        if b not in gplus:
            continue
        _, memo = _ts_rank_states(af, frozenset((b,)))
        for (level, cmask), q in memo.items():
            states_checked += 1
            mran = [x for x in range(af.n) if cmask >> x & 1]
            bound = Ordinal.from_int(q + 1)
            hit = any(stages[g] <= bound
                      for x in mran for g in af.attackers_of(x))
            if not hit:
                violations.append(
                    f"T_{{{af.name(b)}}} state (level {level}, committed "
                    f"{mran}) of rank {q}: no member of G_{q + 1} "
                    "attacks the committed set")
    return BridgeReport(violations, len(result.grounded), states_checked)
