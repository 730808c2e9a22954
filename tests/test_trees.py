import random
import tracemalloc

import pytest

from transfinite_af import trees
from transfinite_af.checks import path_keyed_expand, path_keyed_tree_af
from transfinite_af.errors import CapExceeded, DomainError, UnsupportedExpression
from transfinite_af.ordinals import (
    OMEGA,
    ZERO,
    Ordinal,
    fundamental_sequence,
    omega_power,
    parse_ordinal,
)
from transfinite_af.trees import (
    ROOT,
    ChildFamily,
    ChildrenSpec,
    FiniteTree,
    LazyTree,
    bounded_path_search,
    build_tree_of_rank,
    check_declared_ranks,
    rank_finite,
    tree_from_json,
    tree_to_json,
    truncate_tree,
)
from transfinite_af.constructions import af_from_tree
from transfinite_af.core import IndexMap, pair

W2 = Ordinal(((Ordinal.from_int(1), 2),))  # w*2


def definition_rank(tree: FiniteTree, path=ROOT):
    """Independent recursion straight from the rank definition."""
    kids = tree.children(path)
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
    return LazyTree(children_of=lambda p: ChildrenSpec(symbols=(0, 1)))


def counterexample_tree():
    """Arbitrarily long strings, no path: i's subtree dies at depth i+1."""

    def children(p):
        if not p or len(p) - 1 < p[0]:
            return ChildrenSpec(families=(ChildFamily(IndexMap.affine(1, 0)),))
        return ChildrenSpec()

    return LazyTree(children_of=children)


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
    assert t0.declared_rank(()) == ZERO

    t2 = build_tree_of_rank(2)
    assert t2.member((0, 0)) and not t2.member((0, 0, 0)) and not t2.member((1,))
    assert [t2.declared_rank((0,) * i).as_int() for i in range(3)] == [2, 1, 0]
    assert rank_finite(truncate_tree(t2, width=5)) == 2


def test_build_rank_omega():
    t = build_tree_of_rank(OMEGA)
    # child i heads a chain of length i
    assert t.member((3, 0, 0, 0)) and not t.member((3, 0, 0, 0, 0))
    for w in (1, 3, 8, 20):
        assert rank_finite(truncate_tree(t, width=w)) == w
    assert t.declared_rank(()) == OMEGA
    assert t.declared_rank((5,)) == 5


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
    bad = LazyTree(
        children_of=lambda p: ChildrenSpec(symbols=(0,)) if p == () else ChildrenSpec(),
        declared_rank_of=lambda p: ranks.get(p),
    )
    report = check_declared_ranks(bad, sample_width=4, sample_depth=4)
    assert not report.ok and "[]" in report.violations[0]

    lone = LazyTree(children_of=lambda p: ChildrenSpec(),
                    declared_rank_of=lambda p: ZERO)
    assert check_declared_ranks(lone, 4, 4).ok


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
        queue.extend(p + (s,) for s in tree.children(p))
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
        assert list(t.order) == sorted(t.paths, key=lambda p: (len(p), p))
        ranks = t.node_ranks()
        for p in t.order:
            assert list(t.children(p)) == sorted(t.children(p))
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
        assert fresh.declared_rank(p) == root_walk_rank(alpha, p)
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
                    t.declared_rank(p)
            else:
                assert t.declared_rank(p) == root_walk_rank(alpha, p)
        assert misses > 50


def test_builder_fills_a_long_cold_path_without_recursion():
    t = build_tree_of_rank(5000)
    leaf = (0,) * 5000
    assert t.declared_rank(leaf) == 0 and t.member(leaf)
    assert not t.member(leaf + (0,))
    assert not t.member((0,) * 4999 + (1,))
    assert t.declared_rank((0,) * 2500) == 2500


def test_truncation_enumerates_at_most_node_cap_children_per_node():
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="exceeded 10 nodes"):
            truncate_tree(build_tree_of_rank(OMEGA), width=2_000_000, node_cap=10)
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


def test_truncation_steps_each_rank_once_from_its_parent(monkeypatch):
    steps = []

    def counted(r, i):
        steps.append(i)
        return fundamental_sequence(r, i)

    monkeypatch.setattr(trees, "fundamental_sequence", counted)
    alpha = omega_power(2)
    ft = truncate_tree(build_tree_of_rank(alpha), width=5)
    below_limits = [p for p in ft.order
                    if p and root_walk_rank(alpha, p[:-1]).is_limit]
    assert len(steps) == len(below_limits) == 975


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
    out = []
    for expand in (trees._expand, path_keyed_expand):
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
    """tree.as_lazy() with each node's symbols shuffled, some repeated."""
    def children_of(path):
        symbols = list(tree.children(path))
        if symbols and rng.random() < 0.3:
            symbols.append(rng.choice(symbols))
        rng.shuffle(symbols)
        return ChildrenSpec(symbols=tuple(symbols))
    return LazyTree(children_of=children_of)


def test_lazy_finite_tree_tables_match_the_path_keyed_expansion(same_nodes):
    rng = random.Random(43)
    for _ in range(80):
        t = random_finite_tree(rng, max_nodes=40)
        for lazy in (t.as_lazy(), scrambled(t, rng)):
            for depth in (None, rng.randint(0, 4)):
                got, want = expansion_outcomes(lazy, node_cap=100_000,
                                               depth=depth)
                same_nodes(got, want)
                if depth is None:
                    assert got == t


# -- F_T from remembered node states against F_T asked by path -------------------


def assert_same_tree_af(tree, n, rng):
    """F_T of `tree`, asked about the indices below n in shuffled order,
    answers as the path-keyed reference does: the predicate on every
    candidate pair, each attacker spec, name and candidate stage."""
    got, want = af_from_tree(tree), path_keyed_tree_af(tree)
    indices = list(range(n))
    rng.shuffle(indices)
    for y in indices:
        for x in got.attacker_candidates(y, n):
            assert got.attacks(x, y) == want.attacks(x, y), (x, y)
        a, b = got.attacker_spec(y), want.attacker_spec(y)
        # scrambled trees list their symbols in a new order at every call
        assert set(a.explicit) == set(b.explicit) and a.families == b.families, y
        assert got.name(y) == want.name(y)
        if want.candidate_stages is not None:
            assert got.candidate_stages.stage_of(y) == \
                want.candidate_stages.stage_of(y), y
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
        assert_same_tree_af(t.as_lazy(), 600, rng)
        assert_same_tree_af(scrambled(t, rng), 600, rng)
