"""Reference answers computed by the benchmark itself.

Nothing here calls the library's engines: every answer the CLI prints is
checked against code that shares no logic with the code that produced it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# -- finite AFs ---------------------------------------------------------------


def least_stages(n: int, edges: Iterable[Tuple[int, int]]) -> List[Optional[int]]:
    """Least stage of every argument (None for NEVER) in O(n + m).

    Counter-based labelling: an argument enters stage k+1 when the last of
    its attackers is attacked by a member of stage k, so each edge is
    touched a constant number of times.
    """
    targets: List[List[int]] = [[] for _ in range(n)]
    pending = [0] * n
    for x, y in set(edges):
        targets[x].append(y)
        pending[y] += 1
    stage: List[Optional[int]] = [None] * n
    defeated = [False] * n
    layer = [x for x in range(n) if pending[x] == 0]
    k = 1
    while layer:
        for x in layer:
            stage[x] = k
        nxt = []
        for x in layer:
            for y in targets[x]:
                if defeated[y]:
                    continue
                defeated[y] = True
                for z in targets[y]:
                    pending[z] -= 1
                    if pending[z] == 0:
                        nxt.append(z)
        layer = nxt
        k += 1
    return stage


def attacked_by(edges: Iterable[Tuple[int, int]], members) -> set:
    """S+ for a set S of argument indices."""
    return {y for x, y in edges if x in members}


# -- ordinals below w^w as (exponent, coefficient) tuples ---------------------

Cnf = Tuple[Tuple[int, int], ...]


def cnf_str(alpha: Cnf) -> str:
    """The library's canonical spelling, e.g. w^2*3+w+4."""
    if not alpha:
        return "0"
    parts = []
    for e, c in alpha:
        if e == 0:
            parts.append(str(c))
            continue
        base = "w" if e == 1 else f"w^{e}"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def is_limit(alpha: Cnf) -> bool:
    return bool(alpha) and alpha[-1][0] > 0


def predecessor(alpha: Cnf) -> Cnf:
    e, c = alpha[-1]
    return alpha[:-1] + (((0, c - 1),) if c > 1 else ())


def fundamental(alpha: Cnf, i: int) -> Cnf:
    """i-th member of the standard sequence: w^(e)*c -> w^e*(c-1) + w^(e-1)*i."""
    e, c = alpha[-1]
    out = alpha[:-1] + (((e, c - 1),) if c > 1 else ())
    return out + (((e - 1, i),) if i > 0 else ())


def truncated_rank(alpha: Cnf, width: int) -> int:
    """Rank of the width-truncated rank-alpha tree, walking the sequence."""
    r = 0
    while alpha:
        e, c = alpha[-1]
        if e == 0:
            r += c
            alpha = alpha[:-1]
        else:
            r += 1
            alpha = fundamental(alpha, width - 1)
    return r


@lru_cache(maxsize=None)
def truncated_nodes(alpha: Cnf, width: int) -> int:
    """Node count of the width-truncated rank-alpha tree."""
    if not alpha:
        return 1
    e, c = alpha[-1]
    if e == 0:
        return c + truncated_nodes(alpha[:-1], width)
    return 1 + sum(truncated_nodes(fundamental(alpha, i), width)
                   for i in range(width))


def target_trees(alpha: Cnf, width: int) -> List[Cnf]:
    """Ranks of the trees `gen ord:alpha:truncate=width` lifts to AFs."""
    if not alpha:
        return []
    if is_limit(alpha):
        return [fundamental(alpha, i) for i in range(width)]
    return [predecessor(alpha)]


# -- finite trees given as node paths -----------------------------------------


def path_tree_rank(nodes: Sequence[Sequence[int]]) -> int:
    """Rank of a finite tree from its node list: leaves 0, else 1 + max child."""
    rank: Dict[tuple, int] = {}
    for p in sorted((tuple(p) for p in nodes), key=len, reverse=True):
        rank.setdefault(p, 0)
        if p:
            parent = p[:-1]
            rank[parent] = max(rank.get(parent, 0), rank[p] + 1)
    return rank[()]


# -- T_S prefixes ---------------------------------------------------------------


def unpair(z: int) -> Tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


class _PastCap(Exception):
    pass


def _first_attacked(level: int, threats) -> int:
    """The first level from `level` on that considers a threat.

    Level <y, m> lies on diagonal e = y + m at e(e+1)/2 + e - y; the
    first such level on the diagonal of `level`, or else the next one.
    """
    d = (math.isqrt(8 * level + 1) - 1) // 2
    start = d * (d + 1) // 2
    best = None
    for y in threats:
        if y > d:
            v = y * (y + 1) // 2
        elif start + d - y >= level:
            v = start + d - y
        else:
            v = start + 2 * d + 2 - y
        if best is None or v < best:
            best = v
    return best


def ts_tree_shape(attackers: Sequence[Sequence[int]], seed: Iterable[int],
                  gplus, cap: int, memo: Dict[tuple, Tuple[int, int, int]]
                  ) -> Optional[Tuple[int, int, int]]:
    """(nodes, height, symbols) of T_S, or None when the seed avoids G+.

    `symbols` is the summed depth of the nodes: the length of the node
    list the CLI prints.  A node at level l with committed set C has the
    children i+1 for each attacker a_i of a_k, k = unpair(l)[0], when
    a_k attacks C (none: a leaf); otherwise the single child 0.  The
    subtree depends only on (l, C), so the counts are memoized on that
    state (`memo` may be shared by the seeds of one AF), and each run of
    single-child levels is skipped in one step.  A tree of more than
    `cap` nodes gives (cap + 1, -1, -1): counting stops once the nodes
    counted so far along the current branch of the search pass the cap.
    """
    seed = frozenset(seed)
    if not seed & set(gplus):
        return None
    counted: List[int] = []     # nodes counted so far, per open state

    def shape(level: int, committed: frozenset) -> Tuple[int, int, int]:
        key = (level, committed)
        if key in memo:
            return memo[key]
        first = _first_attacked(level, set().union(
            *(attackers[c] for c in committed)))
        gap = first - level
        counted.append(gap + 1)
        below = []
        for i in attackers[unpair(first)[0]]:
            below.append(shape(first + 1, committed | {i}))
            counted[-1] += below[-1][0]
            if sum(counted) > cap:
                raise _PastCap
        memo[key] = (counted.pop(),
                     gap + max((1 + b[1] for b in below), default=0),
                     gap * (gap + 1) // 2
                     + sum(b[2] + (gap + 1) * b[0] for b in below))
        return memo[key]

    try:
        return shape(0, seed)
    except _PastCap:
        return cap + 1, -1, -1


def ts_states(attackers: Sequence[Sequence[int]], seed: Iterable[int],
              cap: int, graph: Dict[tuple, list]) -> int:
    """States (first attacked level, committed set) of T_S below the seed:
    what rank computation by state sharing visits.  Counting stops past
    `cap`.  `graph` caches each state's children and may be shared by the
    seeds of one AF."""
    def entry(level: int, committed: frozenset) -> tuple:
        return (_first_attacked(level, set().union(
            *(attackers[c] for c in committed))), committed)

    seen = set()
    stack = [entry(0, frozenset(seed))]
    while stack and len(seen) <= cap:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if state not in graph:
            level, committed = state
            graph[state] = [entry(level + 1, committed | {i})
                            for i in attackers[unpair(level)[0]]]
        stack += graph[state]
    return len(seen)


def ts_prefix_problems(n: int, attackers: Sequence[Sequence[int]], seed,
                       gplus, prefix: Sequence[int]) -> List[str]:
    """Check a T_S path prefix against the definition of T_S.

    Level l considers a_n with n = unpair(l)[0]; when a_n attacks the
    committed set the symbol is i+1 for an attacker a_i of a_n (which is
    then committed), otherwise 0.  The committed set must avoid G+.
    """
    committed = set(seed)
    threats = {x for s in committed for x in attackers[s]}
    problems = [f"seed {s} is in G+" for s in committed if s in gplus]
    for level, symbol in enumerate(prefix):
        m = unpair(level)[0]
        if m in threats:
            j = symbol - 1
            if not (0 <= j < n and j in attackers[m]):
                problems.append(f"level {level}: {symbol} does not answer a_{m}")
                continue
            if j in gplus:
                problems.append(f"level {level}: committed {j} is in G+")
            if j not in committed:
                committed.add(j)
                threats.update(attackers[j])
        elif symbol != 0:
            problems.append(f"level {level}: {symbol} at an unattacked level")
    return problems
