import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from transfinite_af import constructions, rank_analysis, trees
from transfinite_af.checks import (
    check_declared_ranks,
    children_at,
    declared_rank_at,
    path_keyed_expand,
    path_keyed_tree,
    path_keyed_tree_af,
)
from transfinite_af.errors import Budget, CapExceeded, DomainError, \
    UnsupportedExpression
from transfinite_af.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    omega_power,
    parse_ordinal,
)
from transfinite_af.trees import (
    NO_CHILDREN,
    ROOT,
    FiniteTree,
    LazyTree,
    bounded_path_search,
    build_tree_of_rank,
    rank_finite,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)
from transfinite_af.constructions import (
    af_from_tree,
    baumann_spanring,
    disjoint_union,
    ordinal_target_af,
)
from transfinite_af.core import Family, FiniteAF, IndexMap, Members, PairLeft, \
    pair, unpair

W2 = Ordinal(((Ordinal.from_int(1), 2),))  # w*2


def definition_rank(tree: FiniteTree, path=ROOT):
    """Independent recursion straight from the rank definition."""
    kids = children_at(tree, path).explicit
    if not kids:
        return 0
    return max(definition_rank(tree, path + (c,)) + 1 for c in kids)


def random_finite_tree(rng, max_nodes=60):
    paths = [ROOT]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(paths)
        paths.append(parent + (rng.randint(0, 3),))
    return FiniteTree(paths)


# -- finite trees -----------------------------------------------------------


def test_rank_examples():
    assert rank_finite(FiniteTree([()])) == 0
    assert rank_finite(FiniteTree([(), (0,), (0, 0)])) == 2
    assert rank_finite(FiniteTree([(), (0,), (1,), (0, 0)])) == 2


def test_rank_matches_definition_recursion():
    rng = random.Random(11)
    for _ in range(150):
        t = random_finite_tree(rng)
        assert rank_finite(t) == definition_rank(t)


def test_prefix_closure_validated():
    with pytest.raises(ValueError):
        FiniteTree([(), (1, 0)])
    with pytest.raises(ValueError):
        FiniteTree([(0,)])


def test_rank_cap():
    big = FiniteTree([()] + [(i,) for i in range(50)])
    with pytest.raises(CapExceeded):
        rank_finite(big, node_cap=10)


# -- bounded path search -------------------------------------------------


def full_binary():
    return path_keyed_tree(lambda p: Members(explicit=(0, 1)))


def counterexample_tree():
    """Arbitrarily long strings, no path: i's subtree dies at depth i+1."""

    def children(p):
        if not p or len(p) - 1 < p[0]:
            return Members(families=(Family(IndexMap.affine(1, 0)),))
        return Members()

    return path_keyed_tree(children)


def test_search_examples():
    assert not bounded_path_search(FiniteTree([()]), depth=1, width=1).found
    res = bounded_path_search(full_binary(), depth=10, width=2)
    assert res.found and len(res.prefix) == 10
    res = bounded_path_search(counterexample_tree(), depth=5, width=3)
    assert not res.found and res.depth == 5


def test_search_finds_deep_strings_in_counterexample():
    # under a wide truncation the same tree does have length-5 strings
    res = bounded_path_search(counterexample_tree(), depth=5, width=6)
    assert res.found and res.prefix[0] >= 4


# -- the rank builder --------------------------------------------------------


def test_build_rank_zero_and_successors():
    t0 = build_tree_of_rank(0)
    assert t0.member(()) and not t0.member((0,))
    assert declared_rank_at(t0, ()) == ZERO

    t2 = build_tree_of_rank(2)
    assert t2.member((0, 0)) and not t2.member((0, 0, 0)) and not t2.member((1,))
    assert [declared_rank_at(t2, (0,) * i).as_int() for i in range(3)] == [2, 1, 0]
    assert rank_finite(truncate_tree(t2, width=5)) == 2


def test_build_rank_omega():
    t = build_tree_of_rank(OMEGA)
    # child i heads a chain of length i
    assert t.member((3, 0, 0, 0)) and not t.member((3, 0, 0, 0, 0))
    for w in (1, 3, 8, 20):
        assert rank_finite(truncate_tree(t, width=w)) == w
    assert declared_rank_at(t, ()) == OMEGA
    assert declared_rank_at(t, (5,)) == 5


def test_build_ranks_are_cofinal_and_below_alpha():
    for alpha, widths in ((OMEGA, range(1, 31)), (W2, range(1, 31)),
                          (omega_power(2), range(1, 7))):
        t = build_tree_of_rank(alpha)
        prev = -1
        for w in widths:
            r = rank_finite(truncate_tree(t, width=w)).as_int()
            assert Ordinal.from_int(r) < alpha
            assert r > prev
            prev = r


def test_build_never_has_paths():
    for alpha in (OMEGA, W2, omega_power(2)):
        t = build_tree_of_rank(alpha)
        assert not bounded_path_search(t, depth=120, width=5).found


def test_check_declared_ranks_accepts_builder_output():
    report = check_declared_ranks(build_tree_of_rank(W2),
                                  sample_width=20, sample_depth=20)
    assert report.ok and report.nodes_checked > 50


def test_check_declared_ranks_examples():
    # root declared 5 over a single child declared 2: violation at the root
    ranks = {(): Ordinal.from_int(5), (0,): Ordinal.from_int(2)}
    bad = path_keyed_tree(
        lambda p: Members(explicit=(0,)) if p == () else Members(),
        lambda p: ranks.get(p),
    )
    report = check_declared_ranks(bad, sample_width=4, sample_depth=4)
    assert not report.ok and "[]" in report.violations[0]

    lone = path_keyed_tree(lambda p: Members(), lambda p: ZERO)
    assert check_declared_ranks(lone, 4, 4).ok


def test_check_declared_ranks_rejects_an_off_by_one_closed_form():
    # the root (rank w) hangs child k of rank k, each a chain; the family
    # claims rank k + 1 for child k
    every = IndexMap.affine(1, 0)
    off = Family(every, expr=fundamental_sequence_expr(OMEGA).add_finite(1))

    def children(state):
        if state == "root":
            return Members(families=(off,))
        return Members(explicit=(0,)) if state else Members()

    def rank(state):
        return OMEGA if state == "root" else Ordinal.from_int(state)

    tree = LazyTree("root", children,
                    lambda state, s: s if state == "root" else state - 1, rank)
    report = check_declared_ranks(tree, sample_width=3, sample_depth=3)
    assert report.violations == [f"[{k}]: declared {k}, closed form gives {k + 1}"
                                 for k in range(3)]


def test_check_declared_ranks_rejects_non_affine():
    t = build_tree_of_rank(omega_power(OMEGA))
    with pytest.raises(UnsupportedExpression):
        check_declared_ranks(t, sample_width=3, sample_depth=2)


def test_check_requires_annotations():
    with pytest.raises(DomainError):
        check_declared_ranks(full_binary(), 2, 2)


def test_prefix_closure_of_builder_members():
    t = build_tree_of_rank(W2)
    rng = random.Random(3)
    for _ in range(120):
        p = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 5)))
        if t.member(p):
            assert t.member(p[:-1])


# -- JSON ---------------------------------------------------------------------


def test_tree_json_roundtrip():
    t = FiniteTree([(), (0,), (0, 0), (1,)])
    assert tree_from_json(tree_to_json(t)) == t
    assert tree_to_json(t) == '{"nodes": [[], [0], [1], [0, 0]]}'


def ts_trees(rng, count):
    """T_S of seeded random AFs: whole for pathless seeds, else cut to a
    depth (T_S has no families, so the width cuts nothing)."""
    for _ in range(count):
        n, density = rng.randint(1, 9), rng.uniform(0.05, 0.5)
        af = FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                          if rng.random() < density])
        for seed in [set()] + [{x} for x in range(n)]:
            if not rank_analysis.ts_path_exists(af, seed).path_exists:
                yield rank_analysis.expand_ts(af, seed)
            yield truncate_tree(rank_analysis.build_TS(af, seed), width=1,
                                depth=rng.randint(0, 6))


def test_tree_json_is_what_json_dumps_writes(monkeypatch):
    rng = random.Random(53)
    chain = [tuple([0] * k) for k in range(40)]
    fan = [ROOT] + [(s,) for s in [*range(10), *rng.sample(range(10, 100), 40),
                                   *rng.sample(range(100, 1_000), 100)]]
    built = [truncate_tree(build_tree_of_rank(parse_ordinal(a)), width)
             for a in ("w", "w^2+3", "w^3") for width in (1, 2, 3)]
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 2_000)
    for _ in range(20):
        try:
            built.append(truncate_tree(
                build_tree_of_rank(random_ordinal_below_w4(rng)),
                rng.randint(1, 4)))
        except CapExceeded:
            pass
    assert len(built) > 20
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 5_000)  # for ts_trees
    tables = [FiniteTree([ROOT]), FiniteTree(chain), FiniteTree(fan),
              *built, *ts_trees(rng, 12)]
    assert len(chain) == 40 and len(fan) == 151
    assert {len(str(s)) for (s,) in fan[1:]} == {1, 2, 3}
    assert sum(len(t) > 100 for t in tables) > 5
    for t in tables:
        want = json.dumps({"nodes": [list(p) for p in t.order]})
        assert tree_to_json(t) == want
        assert tree_from_json(tree_to_json(t)) == t


def test_tree_json_errors():
    with pytest.raises(ValueError):
        tree_from_json('{"nodes": [[0]]}')  # not prefix-closed
    with pytest.raises(ValueError):
        tree_from_json('{"nodes": [[], [-1]]}')
    with pytest.raises(ValueError):
        tree_from_json("[]")
    with pytest.raises(ValueError):
        tree_from_json("{nope")


# -- one node order, one expansion, ranks from the parent's -------------------


def pop0_bfs_order(tree: FiniteTree):
    """The breadth-first order F_T used to compute with its own queue."""
    order, queue = [], [ROOT]
    while queue:
        p = queue.pop(0)
        order.append(p)
        queue.extend(p + (s,) for s in children_at(tree, p).explicit)
    return order


def root_walk_rank(alpha, path):
    """Rank of `path` in build_tree_of_rank(alpha), walked from the root."""
    r = alpha
    for s in path:
        if r.is_zero:
            return None
        if r.is_successor:
            if s != 0:
                return None
            r = r.predecessor()
        else:
            r = fundamental_sequence(r, s)
    return r


def test_finite_tree_order_is_the_breadth_first_order():
    rng = random.Random(23)
    for _ in range(150):
        t = random_finite_tree(rng)
        assert list(t.order) == pop0_bfs_order(t)
        assert list(t.order) == sorted(set(t.order), key=lambda p: (len(p), p))
        ranks = t.node_ranks()
        for p in t.order:
            kids = children_at(t, p).explicit
            assert list(kids) == sorted(kids)
            assert ranks[p] == definition_rank(t, p)


def node_code(path):
    """F_T's code of a node: c(root) = 0, c(p + (s,)) = pair(c(p), s) + 1."""
    code = 0
    for s in path:
        code = pair(code, s) + 1
    return code


# F_T remembers the state of every code it is asked about: one F_T asked
# about every node ("memo"), or a fresh one per node, which remembers only
# that node's ancestors ("tiny-memo").
@pytest.mark.parametrize("fresh_af", [False, True], ids=["memo", "tiny-memo"])
@pytest.mark.parametrize("text", ["w", "w*2+3", "w^2", "w^3", "w^w"])
def test_builder_ranks_match_root_walk_in_any_query_order(text, fresh_af):
    alpha = parse_ordinal(text)
    nodes = list(truncate_tree(build_tree_of_rank(alpha), width=3).order)
    random.Random(text).shuffle(nodes)
    fresh = build_tree_of_rank(alpha)
    ft = af_from_tree(fresh)  # nothing asked yet
    for p in nodes:
        assert fresh.member(p)
        assert declared_rank_at(fresh, p) == root_walk_rank(alpha, p)
        if fresh_af:
            ft = af_from_tree(fresh)
        stage = ft.candidate_stages.stage_of(2 * node_code(p))
        assert stage == root_walk_rank(alpha, p) + 1


def test_builder_rejects_non_nodes_like_root_walk():
    rng = random.Random(7)
    for text in ("5", "w", "w*2+3", "w^2"):
        alpha = parse_ordinal(text)
        t = build_tree_of_rank(alpha)
        misses = 0
        for _ in range(300):
            p = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 9)))
            if root_walk_rank(alpha, p) is None:
                misses += 1
                assert not t.member(p)
                with pytest.raises(DomainError):
                    declared_rank_at(t, p)
            else:
                assert declared_rank_at(t, p) == root_walk_rank(alpha, p)
        assert misses > 50


def test_builder_fills_a_long_cold_path_without_recursion():
    t = build_tree_of_rank(5000)
    leaf = (0,) * 5000
    assert declared_rank_at(t, leaf) == 0 and t.member(leaf)
    assert not t.member(leaf + (0,))
    assert not t.member((0,) * 4999 + (1,))
    assert declared_rank_at(t, (0,) * 2500) == 2500


def test_truncation_enumerates_at_most_node_cap_children_per_node(monkeypatch):
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 10)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="exceeded 10 nodes"):
            truncate_tree(build_tree_of_rank(OMEGA), width=2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_path_search_holds_a_bounded_rank_memo():
    # the search carries node states down one branch at a time and
    # remembers no rank, so its peak stays small through every node
    tree = build_tree_of_rank(omega_power(2))  # 39,172 nodes at width 6
    tracemalloc.start()
    try:
        res = bounded_path_search(tree, depth=40, width=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.found
    assert peak < 512 << 10


def test_path_search_counts_every_pushed_node(monkeypatch):
    # a chain of rank 30 pushes one node per level: 30 fit a budget of
    # 30, not one of 29
    chain = build_tree_of_rank(30)
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 30)
    assert bounded_path_search(chain, depth=30, width=3).prefix == (0,) * 30
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 29)
    with pytest.raises(CapExceeded, match="path search exceeded 29 nodes"):
        bounded_path_search(chain, depth=30, width=3)
    # under a limit every pushed sibling counts: w at width 4 pushes
    # 4 + (0 + 1 + 2 + 3) nodes before it answers
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 10)
    assert not bounded_path_search(build_tree_of_rank(OMEGA), 9, 4).found
    monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", 9)
    with pytest.raises(CapExceeded):
        bounded_path_search(build_tree_of_rank(OMEGA), 9, 4)


def _wide_tree(calls):
    """Every node has a family of children; `child` counts its calls."""
    every = Members(families=(Family(IndexMap.affine(1, 0)),))

    def child(state, symbol):
        calls["child"] += 1
        return state + 1

    def children(state):
        calls["children"] += 1
        return every

    return LazyTree(0, children, child)


def test_path_search_steps_a_state_when_it_pops_its_node():
    # the root's 100,000 pushed children hold no state: only the two
    # nodes popped on the way down are stepped
    calls = {"child": 0, "children": 0}
    res = bounded_path_search(_wide_tree(calls), depth=2, width=100_000)
    assert res.prefix == (0, 0)
    assert calls == {"child": 2, "children": 2}


def test_path_search_refuses_at_the_same_pushed_count():
    # 100,000 pushed per popped node: the sixth push passes the
    # 500,000-node budget, after five nodes below the root were stepped
    calls = {"child": 0, "children": 0}
    with pytest.raises(CapExceeded, match="exceeded 500000 nodes"):
        bounded_path_search(_wide_tree(calls), depth=10, width=100_000)
    assert calls == {"child": 5, "children": 6}


def test_truncation_steps_each_rank_once_from_its_parent(monkeypatch):
    steps = []

    def counted(r, i):
        steps.append((r, i))
        return fundamental_sequence(r, i)

    monkeypatch.setattr(trees, "fundamental_sequence", counted)
    alpha = omega_power(2)
    ft = truncate_tree(build_tree_of_rank(alpha), width=5)
    # each (limit, symbol) pair below a limit node is stepped once, from
    # the parent's rank: 5 limits times width 5, none walked from the root
    below_limits = {(root_walk_rank(alpha, p[:-1]), p[-1]) for p in ft.order
                    if p and root_walk_rank(alpha, p[:-1]).is_limit}
    assert len(ft) == 2916
    assert set(steps) == below_limits and len(steps) == len(below_limits) == 25


def _row_states(tree, ft):
    """The state of every row of an expansion, stepped from its parent's."""
    out = [tree.root]
    for parent, s in zip(ft.parents[1:], ft.symbols[1:]):
        out.append(tree.child(out[parent], s))
    return out


def _counted(tree, asked):
    """`tree` with every `children` and `child` question recorded."""
    def children(state):
        asked["children"].append(state)
        return tree.children(state)

    def child(state, symbol):
        asked["child"].append((state, symbol))
        return tree.child(state, symbol)

    return LazyTree(tree.root, children, child)


def _ts_expansion(monkeypatch, asked):
    ts_states = rank_analysis._ts_states
    monkeypatch.setattr(rank_analysis, "_ts_states",
                        lambda af, root=None: _counted(ts_states(af, root), asked))
    af = FiniteAF(6, [(0, 1), (1, 0), (2, 3), (4, 1), (5, 0), (5, 1), (5, 2)])
    return (rank_analysis.expand_ts(af, {0}),
            ts_states(af, rank_analysis._ts_root(af, {0})))


def _rank_built_expansion(monkeypatch, asked):
    tree = build_tree_of_rank(parse_ordinal("w^2+w*2+3"))
    return truncate_tree(_counted(tree, asked), width=4), tree


@pytest.mark.parametrize("expansion", [_rank_built_expansion, _ts_expansion])
def test_expansion_asks_each_distinct_state_once(monkeypatch, expansion):
    asked = {"children": [], "child": []}
    ft, tree = expansion(monkeypatch, asked)
    rows = _row_states(tree, ft)
    distinct = set(rows)
    steps = {(rows[p], s) for p, s in zip(ft.parents[1:], ft.symbols[1:])}
    assert len(distinct) < len(ft) // 3  # the states do repeat
    assert len(asked["children"]) == len(set(asked["children"]))
    assert set(asked["children"]) == distinct
    assert len(asked["child"]) == len(set(asked["child"]))
    assert set(asked["child"]) == steps


class HashCountedState:
    """A node state that counts how often it is hashed."""

    hashes = 0

    def __init__(self, level, residue):
        self.value = level, residue

    def __eq__(self, other):
        return self.value == other.value

    def __hash__(self):
        HashCountedState.hashes += 1
        return hash(self.value)


def test_expansion_hashes_each_step_once_not_each_node(same_nodes):
    # six levels of three children over three residues: the table's 1,093
    # rows hold 19 distinct states and 48 distinct steps
    def children(state):
        level, _ = state.value
        return Members((0, 1, 2)) if level < 6 else NO_CHILDREN

    def child(state, symbol):
        level, residue = state.value
        return HashCountedState(level + 1, (residue + symbol) % 3)

    tree = LazyTree(HashCountedState(0, 0), children, child)
    HashCountedState.hashes = 0
    ft = trees._expand(tree, [tree.root], *trees.expansion_budgets(10_000))
    hashes = HashCountedState.hashes
    rows = _row_states(tree, ft)
    steps = {(rows[p].value, s) for p, s in zip(ft.parents[1:], ft.symbols[1:])}
    assert (len(ft), len({r.value for r in rows}), len(steps)) == (1093, 19, 48)
    assert hashes <= len(steps) + 1
    assert hashes * 20 < len(ft)
    same_nodes(ft, path_keyed_expand(tree, node_cap=10_000))


# -- node tables against the path-keyed expansion -------------------------------


def random_ordinal_below_w4(rng):
    """A seeded CNF below w^4 with up to three terms."""
    exps = sorted(rng.sample(range(4), rng.randint(1, 3)), reverse=True)
    terms = []
    for e in exps:
        c = rng.randint(1, 2)
        terms.append(str(c) if e == 0 else
                     ("w" if e == 1 else f"w^{e}") + (f"*{c}" if c > 1 else ""))
    return parse_ordinal("+".join(terms))


def expansion_outcomes(tree, **kw):
    """(library, oracle) expansions of one tree, or their cap errors."""
    def library(tree, node_cap, **kw):
        return trees._expand(tree, [tree.root],
                             *trees.expansion_budgets(node_cap), **kw)

    out = []
    for expand in (library, path_keyed_expand):
        try:
            out.append(expand(tree, **kw))
        except CapExceeded as e:
            out.append(str(e))
    return out


def test_built_tree_tables_match_the_path_keyed_expansion(same_nodes):
    rng = random.Random(41)
    compared = capped = 0
    for _ in range(25):
        alpha = random_ordinal_below_w4(rng)
        for width in range(1, 7):
            for depth in (None, rng.randint(0, 5)):
                got, want = expansion_outcomes(
                    build_tree_of_rank(alpha), node_cap=1_000, width=width,
                    depth=depth)
                if isinstance(want, str):
                    assert got == want
                    capped += 1
                    continue
                same_nodes(got, want)
                if depth is None:
                    assert got.rank() == rank_of_truncation(alpha, width)
                compared += 1
    assert compared > 150 and capped > 20


def rank_of_truncation(alpha, width):
    """The rank of build_tree_of_rank(alpha) cut to `width`, walked down."""
    if alpha.is_zero:
        return 0
    if alpha.is_successor:
        return 1 + rank_of_truncation(alpha.predecessor(), width)
    return 1 + max(rank_of_truncation(fundamental_sequence(alpha, k), width)
                   for k in range(width))


def scrambled(tree, rng):
    """A finite tree keyed by paths, each node's symbols shuffled, some
    repeated."""
    def children_of(path):
        symbols = list(children_at(tree, path).explicit)
        if symbols and rng.random() < 0.3:
            symbols.append(rng.choice(symbols))
        rng.shuffle(symbols)
        return Members(explicit=tuple(symbols))
    return path_keyed_tree(children_of)


def test_lazy_finite_tree_tables_match_the_path_keyed_expansion(same_nodes):
    rng = random.Random(43)
    for _ in range(80):
        t = random_finite_tree(rng, max_nodes=40)
        for lazy in (LazyTree(t.root, t.children, t.child), scrambled(t, rng)):
            for depth in (None, rng.randint(0, 4)):
                got, want = expansion_outcomes(lazy, node_cap=100_000,
                                               depth=depth)
                same_nodes(got, want)
                if depth is None:
                    assert got == t


# -- expansions from several roots ---------------------------------------------


def some_states(tree, width, count=12):
    """The first `count` node states met breadth-first, families cut to
    their first `width` members."""
    states, i = [tree.root], 0
    while i < len(states) < count:
        state = states[i]
        states += [tree.child(state, s)
                   for s in tree.children(state).first(width)]
        i += 1
    return states[:count]


@st.composite
def expansion_forests(draw):
    """(tree, roots, width, depth, caps): a finite tree and some of its
    rows, or a rank tree below w^3 and some of its node states."""
    if draw(st.booleans()):
        tree = random_finite_tree(random.Random(draw(st.integers(0, 999))),
                                  max_nodes=40)
        states, width = range(len(tree)), None
    else:
        terms = [(e, draw(st.integers(0, 2))) for e in (2, 1, 0)]
        alpha = Ordinal(tuple((Ordinal.from_int(e), k) for e, k in terms
                              if k))
        tree, width = build_tree_of_rank(alpha), draw(st.integers(1, 3))
        states = some_states(tree, width)
    roots = draw(st.lists(st.sampled_from(states), max_size=5))
    depth = draw(st.none() | st.integers(0, 4))
    caps = draw(st.tuples(st.integers(0, 300) | st.just(10**6),
                          st.integers(0, 2_000) | st.just(10**7)))
    return tree, roots, width, depth, caps


def expanded_or_refused(expand, caps):
    """expand(nodes, path_symbols)'s (parents, symbols, budgets used), or
    its refusal, spending from fresh budgets with these caps."""
    budgets = (Budget("expansion", caps[0], "nodes"),
               Budget("expansion", caps[1], "path symbols"))
    try:
        parents, symbols = expand(*budgets)
    except CapExceeded as e:
        return str(e)
    return tuple(parents), tuple(symbols), tuple(b.used for b in budgets)


FOREST_EXAMPLE = (FiniteTree([(), (0,), (1,), (1, 0), (1, 1), (1, 1, 0)]),
                  [1, 2, 1, 0, 4], None, None, (10**6, 10**7))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(expansion_forests())
@example(FOREST_EXAMPLE)
def test_expansion_from_several_roots_concatenates_the_expansions(forest):
    tree, roots, width, depth, caps = forest

    def together(nodes, path_symbols):
        table = trees._expand(tree, roots, nodes, path_symbols, width=width,
                              depth=depth)
        return table.parents, table.symbols

    def one_by_one(nodes, path_symbols):
        parents, symbols = [], []
        for root in roots:
            table = trees._expand(tree, [root], nodes, path_symbols,
                                  width=width, depth=depth)
            shift = len(parents)
            parents += [p + shift if p >= 0 else -1 for p in table.parents]
            symbols += table.symbols
        return parents, symbols

    assert expanded_or_refused(together, caps) == \
        expanded_or_refused(one_by_one, caps)
    # one root: the node table the path-keyed expansion builds
    for root in set(roots):
        sub = LazyTree(root, tree.children, tree.child)
        got = trees._expand(tree, [root], *trees.expansion_budgets(10**6),
                            width=width, depth=depth)
        assert got == path_keyed_expand(sub, 10**6, width=width, depth=depth)
        if root == tree.root and depth is None and isinstance(tree, FiniteTree):
            assert got == tree


# -- what an expansion charges its node budget ---------------------------------


def row_depths(table):
    """Each row's depth below its own root, in a tree or a forest table."""
    depths = []
    for parent in table.parents:
        depths.append(depths[parent] + 1 if parent >= 0 else 0)
    return depths


# T_{a0} is pathless and has 25 nodes
TS_AF = FiniteAF(4, [(0, 0), (2, 1), (2, 2), (3, 0), (3, 2)])


def record_expansions(monkeypatch):
    """Every trees._expand call that truncate_tree, ordinal_target_af and
    expand_ts make, as (table, the nodes and path symbols used before the
    call, and after it)."""
    calls, expand = [], trees._expand

    def recorded(tree, roots, nodes, path_symbols, **cut):
        before = nodes.used, path_symbols.used
        table = expand(tree, roots, nodes, path_symbols, **cut)
        calls.append((table, before, (nodes.used, path_symbols.used)))
        return table
    for module in (trees, constructions, rank_analysis):
        monkeypatch.setattr(module, "_expand", recorded)
    return calls


def test_an_accepted_expansion_charges_each_row_one_node(monkeypatch):
    # what spending one node per root and each row's children left, the
    # path symbols summed from each root
    calls = record_expansions(monkeypatch)
    truncate_tree(build_tree_of_rank(parse_ordinal("w^2+w*2+1")), width=3)
    truncate_tree(build_tree_of_rank(parse_ordinal("w^3")), width=2, depth=4)
    forest = ordinal_target_af(parse_ordinal("w^2*2+w"), truncate=3)
    ts = rank_analysis.expand_ts(TS_AF, {0})
    assert len(calls) == 4 and calls[2][0] is not None
    assert len(calls[2][0]) == len(forest.names) // 2
    assert calls[3][0] == ts
    for table, before, after in calls:
        assert before == (0, 0)
        assert after == (len(table), sum(row_depths(table)))
    # a call charges on top of what its budgets spent before it
    tree = build_tree_of_rank(parse_ordinal("w*3+2"))
    roots = [tree.child(tree.root, i) for i in range(3)] + [tree.root]
    nodes, path_symbols = trees.expansion_budgets(10**6)
    nodes.spend(17)
    path_symbols.spend(5)
    table = trees._expand(tree, roots, nodes, path_symbols, width=4)
    assert (nodes.used, path_symbols.used) == \
        (17 + len(table), 5 + sum(row_depths(table)))


def limit_forest(alpha, width):
    """The rank-alpha tree and its first `width` root children's states,
    the roots ordinal_target_af expands a truncated limit target from."""
    tree = build_tree_of_rank(parse_ordinal(alpha))
    return tree, [tree.child(tree.root, i) for i in range(width)]


@pytest.mark.parametrize("expansion", ["truncation", "limit forest", "T_S"])
def test_node_caps_around_a_table_refuse_as_before(monkeypatch, expansion):
    # a cap one below the table's rows refuses with its message; the
    # table's own size and one more keep it, charging every row
    build = {
        "truncation": lambda: truncate_tree(
            build_tree_of_rank(parse_ordinal("w^2+3")), width=4),
        "limit forest": lambda: ordinal_target_af(
            parse_ordinal("w^2*2"), truncate=4),
        "T_S": lambda: rank_analysis.expand_ts(TS_AF, {0}, node_cap=cap),
    }[expansion]
    cap = 10**6
    calls = record_expansions(monkeypatch)
    build()
    want = calls.pop()[0]
    k = len(want)
    assert k >= 25
    for cap in (k - 1, k, k + 1):
        monkeypatch.setattr(trees, "TRUNCATE_NODE_CAP", cap)
        monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", cap)
        if cap < k:
            with pytest.raises(CapExceeded,
                               match=f"^expansion exceeded {cap} nodes$"):
                build()
            assert calls == []
        else:
            build()
            got, _, (used, _) = calls.pop()
            assert got == want and used == k


@pytest.mark.parametrize("alpha", ["w^2", "w^2+w*2", "w^3"])
def test_a_root_its_forerunners_leave_no_room_for_refuses_at_its_row(alpha):
    # at the cap where the parts before root j end exactly, root j's row
    # is one node too many: refused with the cap's message before any
    # state but root j's and the earlier parts' is asked for children
    tree, roots = limit_forest(alpha, 4)
    sizes = [len(trees._expand(tree, [r], *trees.expansion_budgets(10**6),
                               width=3)) for r in roots]

    def asked_by(count, cap):
        asked = []
        counting = LazyTree(tree.root,
                            lambda s: asked.append(s) or tree.children(s),
                            tree.child)
        try:
            trees._expand(counting, roots[:count],
                          *trees.expansion_budgets(cap), width=3)
        except CapExceeded as e:
            return asked, str(e)
        return asked, None

    for j in range(1, len(roots)):
        cap = sum(sizes[:j])
        earlier, refused = asked_by(j, cap)
        assert refused is None
        asked, refused = asked_by(len(roots), cap)
        assert refused == f"expansion exceeded {cap} nodes"
        assert set(asked) <= set(earlier) | {roots[j]}
        assert asked_by(len(roots), cap + sizes[j])[1] != refused


# -- F_T from remembered node states against F_T asked by path -------------------


def assert_same_answers(got, want, n, rng):
    """`got`, asked about the indices below n, answers as `want` does: the
    predicate on every candidate pair, each attacker spec, name and
    candidate stage.  The indices are asked twice, each time in a new
    shuffled order and with each index's questions shuffled, so that no
    answer depends on which question filled a memo first."""
    def questions(y):
        def attacks():
            for x in got.attacker_candidates(y, n):
                assert got.attacks(x, y) == want.attacks(x, y), (x, y)

        def spec():
            a, b = got.attacker_spec(y), want.attacker_spec(y)
            # scrambled trees list their symbols in a new order at every call
            assert set(a.explicit) == set(b.explicit), y
            assert a.families == b.families, y

        def name():
            assert got.name(y) == want.name(y)

        def stage():
            if want.candidate_stages is not None:
                assert got.candidate_stages.stage_of(y) == \
                    want.candidate_stages.stage_of(y), y

        return [attacks, spec, name, stage]

    for _ in range(2):
        indices = list(range(n))
        rng.shuffle(indices)
        for y in indices:
            asked = questions(y)
            rng.shuffle(asked)
            for ask in asked:
                ask()


def assert_same_tree_af(tree, n, rng):
    """F_T of `tree` answers as the path-keyed reference does."""
    got, want = af_from_tree(tree), path_keyed_tree_af(tree)
    assert_same_answers(got, want, n, rng)
    if want.candidate_stages is None:
        assert got.candidate_stages is None
    else:
        assert got.candidate_stages.declared_sup()[0] == \
            want.candidate_stages.declared_sup()[0]


def test_tree_af_states_match_the_path_keyed_reference():
    rng = random.Random(47)
    for _ in range(12):
        assert_same_tree_af(build_tree_of_rank(random_ordinal_below_w4(rng)),
                            600, rng)
    for _ in range(10):
        t = random_finite_tree(rng, max_nodes=40)
        assert_same_tree_af(LazyTree(t.root, t.children, t.child), 600, rng)
        assert_same_tree_af(scrambled(t, rng), 600, rng)


class PartsReference:
    """A union asked part by part: index pair(p, j) answers as part(p) does
    at j, with attacks only inside a part, attacker specs moved to part p
    by PairLeft(p) with their families' verdicts and vouches kept, and
    names prefixed u<p>_.  part(p) is None past the last part, where
    every index is padding pad_<index> at stage 1."""

    def __init__(self, part):
        self.part = part
        self.candidate_stages = self

    def attacks(self, x: int, y: int) -> bool:
        (p, i), (q, j) = unpair(x), unpair(y)
        return p == q and self.part(p) is not None and self.part(p).attacks(i, j)

    def attacker_spec(self, y: int) -> Members:
        p, j = unpair(y)
        if self.part(p) is None:
            return Members()
        inner = self.part(p).attacker_spec(j)
        return Members(tuple(pair(p, b) for b in inner.explicit),
                       tuple(Family(f.index_map.then(PairLeft(p)), f.k_start, f.expr,
                                    f.all_never, f.affine)
                             for f in inner.families))

    def name(self, y: int) -> str:
        p, j = unpair(y)
        return f"pad_{y}" if self.part(p) is None else f"u{p}_{self.part(p).name(j)}"

    def stage_of(self, y: int):
        p, j = unpair(y)
        return ONE if self.part(p) is None else \
            self.part(p).candidate_stages.stage_of(j)


def limit_target_reference(alpha) -> PartsReference:
    """F_T of the rank-alpha tree below its root, part p asked by path:
    the path-keyed F_T of the rank-alpha[p] tree."""
    parts = {}

    def part(p):
        if p not in parts:
            parts[p] = path_keyed_tree_af(
                build_tree_of_rank(fundamental_sequence(alpha, p)))
        return parts[p]

    return PartsReference(part)


def test_limit_target_parts_match_the_path_keyed_reference():
    rng = random.Random(53)
    alphas = [parse_ordinal(t) for t in ("w", "w*2", "w^2", "w^3", "w^2+w")]
    while len(alphas) < 10:
        alpha = random_ordinal_below_w4(rng)
        if alpha.is_limit:
            alphas.append(alpha)
    for alpha in alphas:
        got = ordinal_target_af(alpha)
        assert_same_answers(got, limit_target_reference(alpha), 600, rng)
        assert got.candidate_stages.declared_sup() == (alpha, False, None)


def test_lazy_union_parts_match_their_references():
    rng = random.Random(59)
    refs = [baumann_spanring(), limit_target_reference(W2)]
    got = disjoint_union([baumann_spanring(), ordinal_target_af(W2)])
    assert_same_answers(
        got, PartsReference(lambda p: refs[p] if p < len(refs) else None),
        600, rng)
