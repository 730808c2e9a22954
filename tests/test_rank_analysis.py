import itertools
import random

import pytest

from transfinite_af import checks, rank_analysis
from transfinite_af.checks import rank_stage_bridge_check
from transfinite_af.core import FiniteAF, pair, unpair
from transfinite_af.errors import CapExceeded, DomainError
from transfinite_af.grounded import GroundedResult, grounded_finite, stages_finite
from transfinite_af.rank_analysis import (
    build_Ta,
    build_TS,
    expand_ts,
    largest_self_defending,
    ta_path_violations,
    ta_rank,
    ts_path_exists,
    ts_rank,
    witness_path,
)
from transfinite_af.trees import (
    NO_CHILDREN,
    OFF_TREE,
    _expand,
    bounded_path_search,
    expansion_budgets,
    rank_finite,
)


def chain(n=3):
    return FiniteAF(n, [(i, i + 1) for i in range(n - 1)])


def two_cycle():
    return FiniteAF(2, [(0, 1), (1, 0)])


def random_af(rng, max_args=8):
    n = rng.randint(1, max_args)
    p = rng.uniform(0.05, 0.45)
    return FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                        if rng.random() < p])


# -- largest self-defending ---------------------------------------------------


def test_largest_self_defending_examples():
    assert largest_self_defending(chain()) == {0, 2}
    assert largest_self_defending(two_cycle()) == {0, 1}
    assert largest_self_defending(FiniteAF(4)) == {0, 1, 2, 3}


def test_largest_self_defending_is_complement_of_g_plus():
    rng = random.Random(31)
    for _ in range(150):
        af = random_af(rng, max_args=10)
        r = grounded_finite(af)
        complement = frozenset(range(af.n)) - af.plus_set(r.grounded)
        assert largest_self_defending(af) == complement


def test_witness_certificates_and_union_closure():
    rng = random.Random(37)
    built = 0
    for _ in range(150):
        af = random_af(rng)
        big = largest_self_defending(af)
        w = checks.build_self_defending_witness(af, big)
        assert w is not None and checks.verify_self_defending_witness(af, w)
        members = [frozenset({x}) for x in big]
        witnesses = [checks.build_self_defending_witness(af, m) for m in members]
        witnesses = [w2 for w2 in witnesses if w2 is not None]
        for i in range(len(witnesses) - 1):
            merged = checks.merge_witnesses(witnesses[i], witnesses[i + 1])
            assert checks.verify_self_defending_witness(af, merged)
            built += 1
    assert built > 20


# -- T_S ------------------------------------------------------------------------


def test_mran():
    assert checks.mran_of(frozenset({5}), (0, 3, 0, 1)) == {5, 2, 0}
    assert checks.mran_of(frozenset(), ()) == frozenset()


def test_ts_examples_two_chain():
    af = FiniteAF(2, [(0, 1)])
    yes = ts_path_exists(af, {0})
    assert yes.path_exists and len(yes.prefix) == 100
    no = ts_path_exists(af, {1})
    assert not no.path_exists and no.rank == 0

    empty = ts_path_exists(af, set())
    assert empty.path_exists
    assert set(empty.prefix) == {0}  # nothing ever attacks the empty commitment


@pytest.mark.parametrize("x", [3, -1])
def test_ts_path_exists_refuses_a_seed_out_of_range(x):
    with pytest.raises(IndexError) as err:
        ts_path_exists(FiniteAF(3, [(0, 1), (1, 2)]), {x})
    assert str(err.value) == f"seed argument {x} out of range"


def test_ts_path_exists_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="prefix_depth must be >= 0"):
        ts_path_exists(chain(), {0}, prefix_depth=-1)


def test_ts_two_cycle_self_defense():
    assert ts_path_exists(two_cycle(), {0}).path_exists


def test_ts_prefix_is_member_of_the_tree():
    af = chain(4)
    decision = ts_path_exists(af, {0}, prefix_depth=30)
    tree = build_TS(af, {0})
    assert tree.member(decision.prefix)
    assert tree.member(decision.prefix[:7])


def test_ts_rank_matches_explicit_expansion():
    rng = random.Random(41)
    checked = 0
    for _ in range(120):
        af = random_af(rng, max_args=6)
        gplus = af.plus_set(grounded_finite(af).grounded)
        for b in range(af.n):
            if b not in gplus:
                continue
            shared = ts_rank(af, {b})
            explicit = rank_finite(expand_ts(af, {b}), node_cap=200_000)
            assert explicit == shared
            checked += 1
    assert checked > 40


def test_ts_rank_five_chain_hand_value():
    # T_{a3} over a 5-chain dies along a single branch of six nodes
    af = chain(5)
    assert ts_rank(af, {3}) == 5
    tree = expand_ts(af, {3})
    assert len(tree) == 6


def test_ts_agreement_with_oracle():
    rng = random.Random(43)
    for _ in range(100):
        af = random_af(rng)
        gplus = af.plus_set(grounded_finite(af).grounded)
        seeds = [frozenset()] + [frozenset({x}) for x in range(af.n)]
        for s in seeds:
            decision = ts_path_exists(af, s, prefix_depth=40)
            assert decision.path_exists == (not (s & gplus))
            if decision.path_exists:
                assert len(decision.prefix) == 40
            else:
                assert decision.rank is not None


def _small_seeds(af):
    """Every seed of one or two members."""
    singles = [frozenset((x,)) for x in range(af.n)]
    pairs = [frozenset(p) for p in itertools.combinations(range(af.n), 2)]
    return singles + pairs


def _ts_corpus():
    """Seeded AFs with their G+; one T_S here runs past level T(n), where
    indices n >= af.n insert single-child steps."""
    rng = random.Random(67)
    afs = [random_af(rng, max_args=7) for _ in range(60)]
    return [(af, af.plus_set(grounded_finite(af).grounded)) for af in afs]


def _ts_outcome(explore, af, seed):
    try:
        return explore(af, seed)
    except (DomainError, CapExceeded) as e:
        return type(e), str(e)


def _rank_states(af, seed):
    """_ts_rank_states on one seed with a memo of its own: (rank, memo)."""
    memo = {}
    [rank] = rank_analysis._ts_rank_states(
        rank_analysis._ts_states(af), [rank_analysis._ts_root(af, seed)], memo,
        rank_analysis._state_budget())
    return rank, memo


def _decoded(af, memo):
    return [((level, frozenset(x for x in range(af.n) if mask >> x & 1)), q)
            for (level, mask), q in memo.items()]


def test_ts_rank_states_match_the_frozenset_oracle(monkeypatch):
    # a small cap lets seeds with a path end at the cap, as pathless ones
    # with too many states do
    monkeypatch.setattr(rank_analysis, "STATE_CAP", 400)
    monkeypatch.setattr(checks, "STATE_CAP", 400)
    outcomes = set()
    for af, gplus in _ts_corpus():
        for seed in _small_seeds(af) + [frozenset()]:
            got = _ts_outcome(_rank_states, af, seed)
            want = _ts_outcome(checks.frozenset_ts_rank_states, af, seed)
            if got[0] in (DomainError, CapExceeded):
                assert got == want, (af.attack_pairs, seed)
                outcomes.add(got[0])
                continue
            assert seed & gplus
            rank, memo = got
            decoded = _decoded(af, memo)
            assert (rank, decoded) == (want[0], list(want[1].items()))
            outcomes.add(int)
    assert outcomes == {int, DomainError, CapExceeded}


def test_one_rank_memo_serves_every_seed_of_an_af():
    shared = 0
    for af, gplus in _ts_corpus():
        seeds = [s for s in _small_seeds(af) if s & gplus]
        memo = {}
        ranks = rank_analysis._ts_rank_states(
            rank_analysis._ts_states(af),
            [rank_analysis._ts_root(af, s) for s in seeds], memo,
            rank_analysis._state_budget())
        union, singles, single_rank, explored = {}, {}, {}, 0
        for seed, rank in zip(seeds, ranks):
            want_rank, want_memo = checks.frozenset_ts_rank_states(af, seed)
            assert rank == want_rank
            union.update(want_memo)
            explored += len(want_memo)
            if len(seed) == 1:
                singles.update(want_memo)
                single_rank[min(seed)] = rank
        assert dict(_decoded(af, memo)) == union
        shared += explored > len(union)
        # T^a and the bridge ask the same memo: T^a is one more than its
        # attackers' T_S, and the bridge checks each T_{b} state once
        for a in grounded_finite(af).grounded:
            want = max((single_rank[i] for i in af.attackers_of(a)),
                       default=-1) + 1
            assert ta_rank(af, a) == want
        bridge = rank_stage_bridge_check(af)
        assert bridge.ok
        assert bridge.states_checked == len(singles)
    assert shared > 5


def test_ta_rank_holds_all_its_attackers_trees_to_one_cap(monkeypatch):
    # a0 <- a1 <- a3 <- a5 <- a7 and a0 <- a2 <- a4 <- a6 <- a8: a0 is
    # grounded, and T_{a1} and T_{a2} explore five states each
    af = FiniteAF(9, [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 4),
                      (7, 5), (8, 6)])
    monkeypatch.setattr(rank_analysis, "STATE_CAP", 8)
    assert ts_rank(af, {1}) == 28 and ts_rank(af, {2}) == 36
    with pytest.raises(CapExceeded, match="exceeded 8 states"):
        ta_rank(af, 0)
    monkeypatch.setattr(rank_analysis, "STATE_CAP", 9)
    assert ta_rank(af, 0) == 37


def test_ts_builders_match_the_path_keyed_oracles(same_nodes):
    # T_S and T^a, node for node: children and membership on every node of
    # a width-(n+1), depth-12 expansion while it holds at most 1,000 nodes
    checked = 0
    for af, _ in _ts_corpus():
        pairs = [(build_TS(af, s), checks.path_keyed_ts(af, s))
                 for s in _small_seeds(af) + [frozenset()]]
        pairs += [(build_Ta(af, a), checks.path_keyed_ta(af, a))
                  for a in range(af.n)]
        for tree, oracle in pairs:
            level, seen = [((), tree.root)], 0
            for _ in range(13):
                below = []
                for p, state in level:
                    assert state is not OFF_TREE
                    spec = tree.children(state)
                    # a path-keyed node's state is its path
                    assert spec == oracle.children(p)
                    assert tree.step(state, af.n + 1) is OFF_TREE
                    below += [(p + (s,), tree.step(state, s))
                              for s in spec.first(af.n + 1)]
                seen += len(level)
                level = below
                if seen > 1_000:
                    break
            else:
                checked += 1
    assert checked > 800


def test_expand_ts_matches_the_definitional_tree():
    # the definitional tree is the path-keyed T_S, whose node states are paths
    trees = padded = 0
    for af, gplus in _ts_corpus():
        for seed in _small_seeds(af):
            if not seed & gplus:
                continue
            try:
                tree = checks.path_keyed_ts(af, seed)
                want = _expand(tree, [tree.root], *expansion_budgets(5_000))
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    expand_ts(af, seed, node_cap=5_000)
                continue
            got = expand_ts(af, seed, node_cap=5_000)
            assert got.order == want.order
            trees += 1
            padded += any(unpair(len(p))[0] >= af.n
                          and checks.children_at(got, p).explicit == (0,)
                          for p in got.order)
    assert trees > 100 and padded > 0


def test_expand_ts_matches_the_path_keyed_expansion(same_nodes):
    compared = capped = 0
    for af, gplus in _ts_corpus():
        for seed in _small_seeds(af):
            if not seed & gplus:
                continue
            try:
                want = checks.path_keyed_expand(checks.path_keyed_ts(af, seed),
                                                5_000)
            except CapExceeded as e:
                with pytest.raises(CapExceeded, match=str(e)):
                    expand_ts(af, seed, node_cap=5_000)
                capped += 1
                continue
            same_nodes(expand_ts(af, seed, node_cap=5_000), want)
            compared += 1
    assert compared > 100 and capped > 0


def _least_attacked_level_by_stepping(level, dmask):
    firsts = []
    for n in range(dmask.bit_length()):
        if dmask >> n & 1:
            m = 0
            while pair(n, m) < level:
                m += 1
            firsts.append(pair(n, m))
    return min(firsts, default=None)


def test_first_attacked_level_closed_form():
    # every attacker set of 9 arguments on every level below 400, through
    # each level's least row-n level
    for level in range(400):
        rows = [_least_attacked_level_by_stepping(level, 1 << n)
                for n in range(9)]
        for dmask in range(1 << 9):
            want = min((rows[n] for n in range(9) if dmask >> n & 1),
                       default=None)
            assert rank_analysis._first_attacked_level(level, dmask) == want
    # attackers that all lie beyond the next diagonal s + 1
    for level in range(60):
        x, y = unpair(level)
        for dmask in (1 << (x + y + 2), 1 << 40, (1 << 25) | (1 << 31)):
            assert rank_analysis._first_attacked_level(level, dmask) == \
                _least_attacked_level_by_stepping(level, dmask)
    assert rank_analysis._first_attacked_level(123, 0) is None


# -- T^a -------------------------------------------------------------------------


def test_ta_unattacked_argument():
    af = FiniteAF(1)
    tree = build_Ta(af, 0)
    assert checks.children_at(tree, ()) == NO_CHILDREN
    assert ta_rank(af, 0) == 0
    assert stages_finite(af)[0] == 1


def test_ta_chain_examples():
    af = chain()
    # a2 is grounded: exhaustive rank 1, and stage(a2)=2 <= 1+1
    assert ta_rank(af, 2) == 1
    assert stages_finite(af)[2] == 2
    # a1 is not grounded: T^{a1} has a path
    with pytest.raises(DomainError):
        ta_rank(af, 1)
    path = witness_path(af, 1, 20)
    assert path[0] == 0
    assert ta_path_violations(af, 1, path,
                              af.plus_set(grounded_finite(af).grounded)) == []


# a0 <-> a1, a2 -> a1 and a3 -> a2: G = {a3} and G+ = {a2}; a1's witness
# path is (0, 0, 1, 0, 0, 1, ...)
PATH_CHECK_AF = FiniteAF(4, [(0, 1), (1, 0), (2, 1), (3, 2)])


@pytest.mark.parametrize("path, problem", [
    ((1,), "first symbol 1 does not attack 1"),
    ((2,), "first symbol 2 lies in G+"),
    ((0, 0, 0), "level 1: a_1 attacks the committed set but the path "
                "claims otherwise"),
    ((0, 1), "level 0: extension by 1 at an unattacked level"),
    ((0, 0, 4), "level 1: symbol 4 but a_3 does not attack a_1"),
    ((0, 0, 3), "level 1: committed argument 2 is in G+"),
    ((), "empty path"),
])
def test_ta_path_violations_names_each_bad_step(path, problem):
    af = PATH_CHECK_AF
    gplus = af.plus_set(grounded_finite(af).grounded)
    assert gplus == {2}
    assert witness_path(af, 1, 6) == (0, 0, 1, 0, 0, 1)
    assert ta_path_violations(af, 1, path, gplus) == [problem]


def test_ta_search_never_finds_paths_for_grounded_args():
    rng = random.Random(47)
    for _ in range(40):
        af = random_af(rng, max_args=6)
        g = grounded_finite(af).grounded
        for a in g:
            assert not bounded_path_search(build_Ta(af, a), depth=25,
                                           width=af.n + 2).found


def test_witness_two_cycle_alternates():
    af = two_cycle()
    path = witness_path(af, 0, 50)
    assert path[0] == 1
    # defence against a0 appears at every level whose index decodes to 0
    assert path[1] == 2 and path[2] == 0 and path[3] == 2
    gplus = af.plus_set(grounded_finite(af).grounded)
    assert ta_path_violations(af, 0, path, gplus) == []
    assert build_Ta(af, 0).member(path)


def test_witness_on_grounded_argument_is_an_error():
    with pytest.raises(DomainError):
        witness_path(chain(), 0, 10)


def test_witness_paths_random():
    rng = random.Random(53)
    for _ in range(60):
        af = random_af(rng)
        res = grounded_finite(af)
        gplus = af.plus_set(res.grounded)
        outside = [a for a in range(af.n) if a not in res.grounded]
        for a in outside[:3]:
            path = witness_path(af, a, 40)
            assert len(path) == 40
            assert ta_path_violations(af, a, path, gplus) == []
            committed = checks.mran_of(frozenset(), path[1:]) | {path[0]}
            assert not (committed & gplus)
            assert build_Ta(af, a).member(path[:12])


def ends_mid_diagonal(depth):
    """Whether the prefix of `depth` levels stops inside a diagonal, i.e.
    its last level does not decode to row 0."""
    return unpair(depth - 1)[0] != 0


def test_defense_prefixes_match_the_per_level_oracle():
    rng = random.Random(26)
    compared = mid_diagonal = witnessed = 0

    def compare(af, seed, depth):
        nonlocal compared, mid_diagonal, witnessed
        grounded = grounded_finite(af).grounded
        gplus = af.plus_set(grounded)
        want = checks.per_level_defense_prefix(af, seed, gplus, depth)
        assert rank_analysis._defense_prefix(
            af, seed, grounded_finite(af).counts, depth) == want
        assert ts_path_exists(af, seed, prefix_depth=depth).prefix == want
        compared += 1
        if not depth:
            return
        mid_diagonal += ends_mid_diagonal(depth)
        for a in sorted(set(range(af.n)) - grounded)[:2]:
            first = min(set(af.attackers_of(a)) - gplus)
            want = (first,) + checks.per_level_defense_prefix(
                af, frozenset((first,)), gplus, depth - 1)
            assert witness_path(af, a, depth) == want
            assert ta_path_violations(af, a, want, gplus) == []
            witnessed += 1

    def outside_g_plus(af):
        gplus = af.plus_set(grounded_finite(af).grounded)
        return [x for x in range(af.n) if x not in gplus]

    for _ in range(40):
        n = rng.randint(6, 16)
        p = rng.uniform(0.05, 0.45)
        af = FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                          if rng.random() < p])
        outside = outside_g_plus(af)
        for depth in (1, 2, 3, 10, 11, 300, rng.randint(1, 300),
                      rng.randint(1, 300)):
            seed = frozenset(rng.sample(outside, min(len(outside),
                                                     rng.randint(0, 3))))
            compare(af, seed, depth)
        compare(af, frozenset(outside), 300)
    # AFs of 0, 1 and 3 arguments, where nearly every level of a long
    # prefix lies in a row of no argument
    small = [FiniteAF(0), FiniteAF(1), FiniteAF(1, [(0, 0)])]
    for _ in range(12):
        p = rng.uniform(0.1, 0.6)
        small.append(FiniteAF(3, [(x, y) for x in range(3) for y in range(3)
                                  if rng.random() < p]))
    for af in small:
        outside = outside_g_plus(af)
        for seed in (frozenset(), frozenset(outside[:1]), frozenset(outside)):
            for depth in (0, 1, 2, 3, 5, 6, 7, 2_000):
                compare(af, seed, depth)
    assert compared == 720 and mid_diagonal > 150 and witnessed > 100


# -- the bridge -------------------------------------------------------------------


def test_bridge_chain():
    report = rank_stage_bridge_check(chain())
    assert report.ok and report.grounded_checked == 2


def test_bridge_two_cycle_vacuous():
    report = rank_stage_bridge_check(two_cycle())
    assert report.ok and report.grounded_checked == 0


def test_bridge_random():
    rng = random.Random(59)
    for _ in range(120):
        report = rank_stage_bridge_check(random_af(rng))
        assert report.ok, report.violations


def test_bridge_reports_stages_one_round_late(monkeypatch):
    # a grounded_finite that puts every grounded argument one round late
    def late(af):
        result = grounded_finite(af)
        return GroundedResult(((),) + result.layers, result.counts)

    monkeypatch.setattr(checks, "grounded_finite", late)
    report = rank_stage_bridge_check(FiniteAF(2, [(0, 1)]))
    assert report.violations == [
        "grounded a0: stage 2 exceeds T^a rank+1 = 1",
        "T_S state (level 0, committed [1]) of rank 0: "
        "no member of G_1 attacks the committed set",
    ]
