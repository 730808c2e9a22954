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
steps.  One state machine, `_ts_states`, defines both trees over
(level, committed mask, attacker mask) states.  The builders, the
expansion and the rank exploration all step it; the exploration only
adds a closed-form skip to the next attacked level.  A subtree depends
only on (level, committed set), so one rank memo keyed by it serves
every seed over the same AF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import FiniteAF, Members, unpair
from .errors import Budget, DomainError
from .grounded import grounded_finite
from .ordinals import Ordinal
from .trees import FiniteTree, LazyTree, NodePath, _expand, expansion_budgets

# -- self-defending extensions -------------------------------------------


def largest_self_defending(af: FiniteAF) -> frozenset:
    """The largest set that counter-attacks each of its attackers.

    It equals the complement of G+, the arguments the grounded extension
    attacks, read off the final counts of one O(n+m) stage kernel run.
    """
    return frozenset(grounded_finite(af).outside_plus(range(af.n)))


# -- T_S ---------------------------------------------------------------------


def _attacks_safe(af: FiniteAF, x: int, y: int) -> bool:
    return x < af.n and y < af.n and af.attacks(x, y)


def _mask(members) -> int:
    """The int with bit i set for each member i."""
    out = 0
    for i in members:
        out |= 1 << i
    return out


def _ts_states(af: FiniteAF, root=None) -> LazyTree:
    """T_S and T^a over one AF as a lazy tree, the root's state `root`.

    A T_S state is (level, committed mask, attacker mask): bit i of the
    committed mask stands for a_i, and the attacker mask is the union of
    the committed members' attacker rows.  Level (n, m) is attacked when
    bit n of the attacker mask is set; its children are then i + 1 for
    each attacker a_i of a_n, and symbol i + 1 commits a_i.  An
    unattacked level has the single child 0.  T^a's root is the state a:
    its children are a's attackers, and its child by symbol i is
    T_{{a_i}}'s root.  The rank exploration brings its own roots.
    """
    att = [_mask(af.attackers_of(x)) for x in range(af.n)]
    attacked = [None] * af.n  # each built when first asked for
    unattacked = Members((0,))

    def children(state) -> Members:
        try:
            level, _, dmask = state
        except TypeError:  # T^a's root, the state a
            return af.attacker_spec(state)
        n = unpair(level)[0]
        if not dmask >> n & 1:
            return unattacked
        if attacked[n] is None:
            attacked[n] = Members(tuple(i + 1 for i in af.attackers_of(n)))
        return attacked[n]

    def child(state, symbol: int):
        try:
            level, cmask, dmask = state
        except TypeError:  # T^a's root
            return 0, 1 << symbol, att[symbol]
        if not symbol:
            return level + 1, cmask, dmask
        return level + 1, cmask | 1 << symbol - 1, dmask | att[symbol - 1]

    return LazyTree(root, children, child)


def _ts_root(af: FiniteAF, seed) -> Tuple[int, int, int]:
    """T_S's root state: level 0 with the seed committed."""
    seed = frozenset(seed)
    dmask = _mask(af.minus_set(seed))  # checks the seed's range too
    return 0, _mask(seed), dmask


def build_TS(af: FiniteAF, seed) -> LazyTree:
    """The tree whose paths describe self-defending supersets of the seed."""
    return _ts_states(af, _ts_root(af, seed))


# Most (level, committed set) states one T_S rank memo may hold.
STATE_CAP = 250_000


def _state_budget() -> Budget:
    """A fresh budget of STATE_CAP states, for one rank memo."""
    return Budget("T_S rank exploration", STATE_CAP, "states")


def ts_rank(af: FiniteAF, seed) -> int:
    """Exact rank of a pathless T_S by shared-state exhaustion.

    Requires seed & G+ nonempty (otherwise the tree has a path and no
    rank).  Rank and branching depend only on (level, committed set);
    runs of single-child levels between attacked levels contribute their
    length.
    """
    return _ts_rank_states(_ts_states(af), [_ts_root(af, seed)], {},
                           _state_budget())[0]


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


def _ts_rank_states(tree: LazyTree, roots, memo: Dict[Tuple[int, int], int],
                    budget: Budget) -> List[int]:
    """The rank of the pathless T_S at each root, filling `memo` with
    {case-1 state: rank}.  The memo, shared by every root over one AF, goes
    with its budget: each state held (memoized or on the stack) but the
    first is spent, and only a push below a root checks the cap.

    A memo state is (level, committed mask), the attacker mask riding
    along on the stack, and each node is skipped down to its first
    attacked level.
    """
    children, child = tree.children, tree.child

    def entry(state):
        level, cmask, dmask = state
        l1 = _first_attacked_level(level, dmask)
        if l1 is None:
            raise DomainError(
                "no level ever attacks the committed set: T_S has a path")
        return (l1, cmask), dmask, l1 - level

    ranks = []
    for root in roots:
        root_state, root_dmask, root_gap = entry(root)
        # [state, attacker mask, children's entries, next child, best rank]
        stack = [[root_state, root_dmask, None, 0, 0]]
        if root_state in memo:  # explored from an earlier root
            stack.pop()
        elif memo:  # a later root is spent, unchecked
            budget.used += 1
        while stack:
            top = stack[-1]
            state, dmask, kids, i, best = top
            if kids is None:
                node = state + (dmask,)
                kids = top[2] = [entry(child(node, s))
                                 for s in children(node).explicit]
            while i < len(kids):
                sub_state, sub_dmask, gap = kids[i]
                q = memo.get(sub_state)
                if q is None:
                    budget.spend(1)
                    top[3], top[4] = i, best
                    stack.append([sub_state, sub_dmask, None, 0, 0])
                    break
                if q + gap + 1 > best:
                    best = q + gap + 1
                i += 1
            else:
                memo[state] = best
                stack.pop()
        ranks.append(root_gap + memo[root_state])
    return ranks


# Default node cap of a materialized T_S.
TS_NODE_CAP = 20_000


def expand_ts(af: FiniteAF, seed, node_cap: int = TS_NODE_CAP) -> FiniteTree:
    """Materialize T_S node by node (pathless seeds only, König-finite)."""
    tree = build_TS(af, seed)
    return _expand(tree, [tree.root], *expansion_budgets(node_cap))


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
    counts = grounded_finite(af).counts  # below 0 exactly on G+
    if any(counts[x] < 0 for x in seed):
        rank = ts_rank(af, seed)
        return TsDecision(False, None, Ordinal.from_int(rank))
    prefix = _defense_prefix(af, seed, counts, prefix_depth)
    return TsDecision(True, prefix, None)


def _defense_prefix(af: FiniteAF, seed: frozenset, counts: Tuple[int, ...],
                    depth: int) -> NodePath:
    """The first `depth` levels of T_S's path that answers each attacked
    level with the least counter-attacker outside G+.

    Diagonal s holds the levels pair(n, s - n) for n = s, s - 1, ..., 0,
    so the walk goes diagonal by diagonal with no level decoded; rows
    n >= af.n are no argument's and read 0.  G+ is fixed, so each
    attacker's counter-attacker is found once, when its level is first
    reached attacked; nothing past the prefix is committed.  G+ is the
    arguments whose grounding count is below 0.
    """
    # symbol[n]: 0 while a_n attacks nothing committed, -1 once it does,
    # and its least counter-attacker outside G+, plus 1, once found
    symbol = [0] * af.n
    path = []

    def commit(j: int) -> None:
        for x in af.attackers_of(j):
            if not symbol[x]:
                symbol[x] = -1

    def walk(hi: int, low: int) -> None:
        """Append the levels of rows hi, hi - 1, ..., low of a diagonal."""
        while hi >= low:
            rows = symbol[low:hi + 1][::-1]
            if -1 not in rows:
                path.extend(rows)
                return
            # the levels before the first unknown counter-attacker are
            # final; finding it commits it, which may mark rows below
            n = hi - rows.index(-1)
            path.extend(rows[:hi - n])
            j = next((i for i in af.attackers_of(n) if counts[i] >= 0), None)
            if j is None:
                raise AssertionError(
                    f"attacker {n} of the committed set has no "
                    "counter-attacker outside G+; the complement of G+ "
                    "failed to defend itself")
            symbol[n] = j + 1
            commit(j)
            path.append(j + 1)
            hi = n - 1

    for a in seed:
        commit(a)
    # level `depth`, the first past the prefix, decodes to (x, y): the
    # prefix holds diagonals 0 to x + y - 1 whole, then the rows above x
    x, y = unpair(depth)
    last = x + y
    for s in range(min(af.n, last)):
        walk(s, 0)
    for s in range(af.n, last):
        path += [0] * (s + 1 - af.n)
        walk(af.n - 1, 0)
    path += [0] * (last + 1 - max(x + 1, af.n))
    walk(min(last, af.n - 1), x + 1)
    return tuple(path)


# -- T^a ---------------------------------------------------------------------


def build_Ta(af: FiniteAF, a: int) -> LazyTree:
    """Root plus, below each attacker a_i of a, the subtree T_{{a_i}}."""
    return _ts_states(af, a)


def ta_rank(af: FiniteAF, a: int) -> Ordinal:
    """Exact rank of T^a; defined exactly when a is grounded."""
    if a not in grounded_finite(af).grounded:
        raise DomainError(
            f"argument {af.name(a)} is not grounded; T^a has a path, not a rank")
    return _exact_ta_rank(af, a)


def _exact_ta_rank(af: FiniteAF, a: int) -> Ordinal:
    return Ordinal.from_int(_ta_rank(_ts_states(af, a), a, {}, _state_budget()))


def _ta_rank(tree: LazyTree, a: int, memo: dict, budget: Budget) -> int:
    """T^a's rank: one more than its largest T_{{a_i}} rank, 0 if none."""
    roots = [tree.child(a, i) for i in tree.children(a).explicit]
    return max(_ts_rank_states(tree, roots, memo, budget), default=-1) + 1


def witness_path(af: FiniteAF, a: int, length: int) -> NodePath:
    """Deterministic path prefix through T^a for a non-grounded argument.

    First symbol: the least attacker of a outside G+; afterwards, at
    attacked levels, the least counter-attacker outside G+ (else 0).
    The committed set never meets G+.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    counts = grounded_finite(af).counts
    if a in range(af.n) and not counts[a]:
        raise DomainError(
            f"argument {af.name(a)} is grounded; T^a has no path")
    return _witness_path(af, a, counts, length)


def _witness_path(af: FiniteAF, a: int, counts: Tuple[int, ...],
                  length: int) -> NodePath:
    first = next((i for i in af.attackers_of(a) if counts[i] >= 0), None)
    if first is None:
        raise AssertionError("non-grounded argument with every attacker in G+")
    rest = _defense_prefix(af, frozenset((first,)), counts, length - 1)
    return (first,) + rest


def ta_path_exists(af: FiniteAF, a: int, prefix_depth: int = 100) -> TsDecision:
    """Decide whether T^a has a path, via the oracle: exactly when a is
    not grounded.  One grounding gives the certificate: witness_path's
    prefix of prefix_depth symbols, or ta_rank's exact rank."""
    if prefix_depth < 1:
        raise ValueError("prefix_depth must be >= 1")
    counts = grounded_finite(af).counts
    if a in range(af.n) and not counts[a]:
        return TsDecision(False, None, _exact_ta_rank(af, a))
    return TsDecision(True, _witness_path(af, a, counts, prefix_depth), None)


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

