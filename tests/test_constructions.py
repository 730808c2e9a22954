import math
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from transfinite_af import constructions, trees
from transfinite_af.checks import per_part_limit_target
from transfinite_af.constructions import (
    MAX_UNION_NESTING,
    GeneratorSpec,
    GeneratorSpecError,
    af_from_finite_tree,
    af_from_tree,
    baumann_spanring,
    disjoint_union,
    materialize_spec,
    ordinal_target_af,
    parse_generator_spec,
)
from transfinite_af.core import SPEC_FAMILY_PROBE, Family, FiniteAF, \
    IndexMap, LazyAF, Members, PairLeft, format_apx, least_right, \
    pair, spot_check_attacker_spec, unpair
from transfinite_af.errors import CapExceeded, UnsupportedExpression
from transfinite_af.grounded import (
    grounded_finite,
    omega_approximation,
    stages_finite,
    verify_symbolic_stages,
)
from transfinite_af.ordinals import NEVER, OMEGA, AffineOrdinalExpr, Ordinal, \
    fundamental_sequence, omega_power, parse_ordinal
from transfinite_af.trees import FiniteTree, LazyTree, build_tree_of_rank, \
    truncate_tree

W2 = OMEGA + OMEGA


def chain_tree(length):
    return FiniteTree([(0,) * i for i in range(length + 1)])


def random_tree(rng, max_nodes):
    paths = [()]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(paths)
        paths.append(parent + (rng.randint(0, 2),))
    return FiniteTree(paths)


# -- F_T over finite trees ------------------------------------------------


def test_ft_singleton_tree():
    ft = af_from_finite_tree(FiniteTree([()]))
    r = grounded_finite(ft.af)
    a, b = ft.a_index[()], ft.b_index[()]
    assert r.grounded == {a}
    assert b in ft.af.plus_set(r.grounded)
    assert r.stages[a] == 1 and r.stages[b] is NEVER
    assert r.grounding_ordinal == 1


def test_ft_chain_stages_climb_the_ranks():
    ft = af_from_finite_tree(chain_tree(2))
    stages = stages_finite(ft.af)
    assert stages[ft.a_index[(0, 0)]] == 1
    assert stages[ft.a_index[(0,)]] == 2
    assert stages[ft.a_index[()]] == 3
    assert grounded_finite(ft.af).grounding_ordinal == 3


def test_ft_characterization_random_trees():
    rng = random.Random(61)
    for _ in range(40):
        ft = af_from_finite_tree(random_tree(rng, 60))
        assert stages_finite(ft.af) == ft.expected_stages()


def test_ft_verifier_accepts_expected_stages():
    rng = random.Random(67)
    for _ in range(10):
        ft = af_from_finite_tree(random_tree(rng, 30))
        from transfinite_af.grounded import SymbolicStageMap
        report = verify_symbolic_stages(
            ft.af, SymbolicStageMap.from_finite(ft.expected_stages()),
            sample=ft.af.n)
        assert report.ok, report.lines()


# -- F_T over lazy trees -----------------------------------------------------


def test_ft_lazy_matches_finite_materialization():
    tree = chain_tree(2)
    lazy = af_from_tree(LazyTree(tree.root, tree.children, tree.child))
    finite = af_from_finite_tree(tree)
    fin_stages = stages_finite(finite.af)
    approx = omega_approximation(lazy, window=8, steps=10)
    assert approx.stabilized
    by_name = {}
    for i in sorted(approx.closure):
        nm = lazy.name(i)
        if i in approx.stages:
            by_name[nm] = approx.stages[i]
        elif i in approx.never:
            by_name[nm] = NEVER
    for p in finite.order:
        assert by_name[finite.af.name(finite.a_index[p])] == \
            fin_stages[finite.a_index[p]]
        assert by_name[finite.af.name(finite.b_index[p])] is NEVER


def test_ft_lazy_of_rank_omega_tree():
    af = af_from_tree(build_tree_of_rank(OMEGA))
    assert af.candidate_stages is not None
    report = verify_symbolic_stages(af, af.candidate_stages, sample=48)
    assert report.ok, report.lines()
    assert report.grounding_ordinal == OMEGA + 1
    assert af.candidate_stages.stage_of(0) == OMEGA + 1  # the root argument
    assert af.name(0) == "a" and af.name(1) == "b"


# -- the two-chain family -----------------------------------------------------------


def test_bs_attack_relation():
    af = baumann_spanring()
    a = lambda i: 2 * i
    b = lambda i: 2 * i + 1
    assert af.attacks(a(3), b(0))  # odd a's attack b_0
    assert af.attacks(a(0), a(1)) and af.attacks(b(2), b(3))
    assert not af.attacks(a(2), b(0)) and not af.attacks(b(0), a(0))


def test_bs_lazy_certified_omega_times_two():
    af = baumann_spanring()
    report = verify_symbolic_stages(af, af.candidate_stages, sample=40)
    assert report.ok, report.lines()
    assert report.grounding_ordinal == W2


def test_bs_truncations():
    tiny = baumann_spanring(truncate=1)
    stages = stages_finite(tiny)
    assert stages[0] == 1 and stages[1] == 1  # a0, b0 both unattacked

    six = baumann_spanring(truncate=6)
    b0 = six.index_of("b0")
    assert stages_finite(six)[b0] == 4

    prev = 0
    for m in range(1, 26):
        af = baumann_spanring(truncate=2 * m)
        stage = stages_finite(af)[af.index_of("b0")]
        assert stage is not NEVER and stage.as_int() == m + 1
        assert stage.as_int() > prev
        prev = stage.as_int()


def test_bs_truncation_matches_lazy_prefix():
    from transfinite_af.checks import materialize

    lazy = baumann_spanring()
    fin = baumann_spanring(truncate=7)
    window = materialize(lazy, 14)
    assert window.attack_pairs == fin.attack_pairs


# -- ordinal targets ---------------------------------------------------------------


def test_ordinal_target_finite_values():
    assert ordinal_target_af(0).n == 0
    for k in range(1, 8):
        af = ordinal_target_af(k)
        assert isinstance(af, FiniteAF)
        assert grounded_finite(af).grounding_ordinal == k


def test_ordinal_target_limits_certified():
    for alpha in (OMEGA, OMEGA + 2, W2, omega_power(2), omega_power(2) + omega_power(2)):
        af = ordinal_target_af(alpha)
        report = verify_symbolic_stages(af, af.candidate_stages, sample=40)
        assert report.ok, (str(alpha), report.lines())
        assert report.grounding_ordinal == alpha


def test_ordinal_target_rejects_non_affine_limits():
    with pytest.raises(UnsupportedExpression):
        ordinal_target_af(omega_power(OMEGA))


@pytest.mark.parametrize("text", ["w^w", "w^w+1", "w^(w+1)", "w^w*2+w",
                                  "w^(w^2)"])
def test_untruncated_targets_from_w_to_the_w_on_are_refused_up_front(
        monkeypatch, text):
    # every such rank tree has a node of rank w^w: no AF is built
    monkeypatch.setattr(constructions, "_tree_af", None)
    with pytest.raises(UnsupportedExpression,
                       match=re.escape(f"target {text} is at least w^w")):
        ordinal_target_af(parse_ordinal(text))


@pytest.mark.parametrize("width, args, ordinal", [(2, 12, 3), (3, 86, 8)])
def test_truncating_w_to_the_w_asks_for_no_closed_form(width, args, ordinal):
    alpha = omega_power(OMEGA)
    af = ordinal_target_af(alpha, truncate=width)
    parts = [af_from_finite_tree(truncate_tree(build_tree_of_rank(
        fundamental_sequence(alpha, i)), width=width)).af for i in range(width)]
    union = disjoint_union(parts)
    assert (af.n, af.names, af) == (args, union.names, union)
    assert grounded_finite(af).grounding_ordinal == ordinal


def test_ordinal_target_truncations_climb():
    for alpha, widths in ((OMEGA, range(1, 13)), (W2, range(1, 9)),
                          (omega_power(2), range(1, 5))):
        prev = -1
        for w in widths:
            af = ordinal_target_af(alpha, truncate=w)
            g = grounded_finite(af).grounding_ordinal
            assert g.is_finite and Ordinal.from_int(g.as_int()) < alpha
            assert g.as_int() > prev
            prev = g.as_int()


def test_truncated_limit_target_parts_share_one_node_budget(monkeypatch):
    # the parts of ord:w^2:truncate=5 hold 2,915 tree nodes together,
    # each of them fewer than 2,914
    sizes = [len(truncate_tree(build_tree_of_rank(fundamental_sequence(
        omega_power(2), i)), width=5)) for i in range(5)]
    assert sum(sizes) == 2_915 and max(sizes) < 2_914
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 2_915)
    assert ordinal_target_af(omega_power(2), truncate=5).n == 2 * 2_915
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 2_914)
    with pytest.raises(CapExceeded, match="exceeded 2914 nodes"):
        ordinal_target_af(omega_power(2), truncate=5)
    # 1000 parts need at least 1+2+...+1000 = 500,500 nodes
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="exceeded 500000 nodes"):
        ordinal_target_af(OMEGA, truncate=1000)


def limit_target_outcomes(alpha, width, node_cap=trees.TRUNCATE_NODE_CAP):
    """(library, per-part oracle) tables of ord:alpha:truncate=width, or
    their refusals; constructions.TRUNCATE_NODE_CAP must be node_cap."""
    out = []
    for build in (lambda: ordinal_target_af(alpha, truncate=width),
                  lambda: per_part_limit_target(alpha, width, node_cap)):
        try:
            af = build()
        except CapExceeded as e:
            out.append(str(e))
        else:
            out.append((af.names, af._fwd))
    return out


def random_limit_below_w4(rng):
    """A seeded limit CNF below w^4: up to three terms, none finite."""
    exps = sorted(rng.sample(range(1, 4), rng.randint(1, 3)), reverse=True)
    return parse_ordinal("+".join(
        ("w" if e == 1 else f"w^{e}") + (f"*{c}" if c > 1 else "")
        for e, c in ((e, rng.randint(1, 2)) for e in exps)))


def test_truncated_limit_targets_match_the_per_part_build(monkeypatch):
    # a smaller node cap keeps the suite fast; past it both builds refuse
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 5_000)
    rng = random.Random(47)
    built = refused = 0
    for _ in range(20):
        alpha = random_limit_below_w4(rng)
        for width in range(7):
            got, want = limit_target_outcomes(alpha, width, node_cap=5_000)
            assert got == want, (alpha, width)
            built += not isinstance(want, str)
            refused += isinstance(want, str)
    assert built > 60 and refused > 40
    for width in range(4):
        got, want = limit_target_outcomes(omega_power(OMEGA), width, 5_000)
        assert got == want and not isinstance(want, str)


def test_bench_limit_targets_match_the_per_part_build(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    cases = [request.argv[1].split(":") for request in
             workloads.build_targets(1, str(tmp_path)).requests
             if request.tag == "union"]
    assert len(cases) == 27
    for _, alpha, width in cases:
        got, want = limit_target_outcomes(
            parse_ordinal(alpha), int(width[len("truncate="):]))
        assert got == want and not isinstance(want, str)


def test_truncated_limit_targets_refuse_as_the_per_part_build(monkeypatch):
    # both caps small: the up-front floors (widths 30 on nodes, 24 and 27
    # on symbols), the shared node budget and the shared path-symbol
    # budget each refuse some inputs, with the same message
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 400)
    monkeypatch.setattr(trees, "TRUNCATE_SYMBOL_CAP", 2_000)
    rng = random.Random(53)
    messages = Counter()
    for _ in range(20):
        alpha = random_limit_below_w4(rng)
        for width in range(0, 31, 3):
            got, want = limit_target_outcomes(alpha, width, node_cap=400)
            assert got == want, (alpha, width)
            messages[want if isinstance(want, str) else "built"] += 1
    assert set(messages) == {"built", "expansion exceeded 400 nodes",
                             "expansion exceeded 2000 path symbols"}
    assert min(messages.values()) > 10


# -- disjoint unions -----------------------------------------------------------------


def test_union_of_chain_and_cycle():
    chain = FiniteAF(3, [(0, 1), (1, 2)])
    cycle = FiniteAF(2, [(0, 1), (1, 0)])
    union = disjoint_union([chain, cycle])
    r = grounded_finite(union)
    assert r.grounded == {union.index_of(f"u0_{chain.name(0)}"),
                          union.index_of(f"u0_{chain.name(2)}")}
    assert r.grounding_ordinal == 2


def test_union_with_empty_is_isomorphic():
    chain = FiniteAF(3, [(0, 1), (1, 2)])
    union = disjoint_union([chain, FiniteAF(0)])
    stages = stages_finite(union)
    original = stages_finite(chain)
    for j in range(3):
        assert stages[union.index_of(f"u0_{chain.name(j)}")] == original[j]


def test_union_stage_preservation_random():
    def random_part(rng):
        n = rng.randint(1, 6)
        return FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                            if rng.random() < 0.3])

    rng = random.Random(71)
    for _ in range(60):
        parts = [random_part(rng), random_part(rng)]
        union = disjoint_union(parts)
        got = stages_finite(union)
        for p, part in enumerate(parts):
            for j, v in stages_finite(part).items():
                assert got[union.index_of(f"u{p}_{part.name(j)}")] == v
        sup_parts = max(
            (grounded_finite(part).grounding_ordinal.as_int() for part in parts),
            default=0)
        assert grounded_finite(union).grounding_ordinal == sup_parts


def test_two_chain_never_evidence_survives_union():
    bs = baumann_spanring()
    odd_a = bs.attacker_spec(1).families[0]
    assert odd_a.all_never is True
    union = materialize_spec(parse_generator_spec("union(bs,ord:w)"))
    b0 = pair(0, 1)
    assert union.name(b0) == "u0_b0"
    lifted = union.attacker_spec(b0).families[0]
    assert lifted.all_never is True


TWICE_LIFTED = "union(union(bs,ord:w),ord:w^2)"


def test_a_verdict_lifted_twice_certifies():
    # u0_u0_b1's NEVER rests on b_0's odd-a family, lifted by both unions
    union = materialize_spec(parse_generator_spec(TWICE_LIFTED))
    b0, b1 = pair(0, pair(0, 1)), pair(0, pair(0, 3))
    assert (union.name(b0), union.name(b1)) == ("u0_u0_b0", "u0_u0_b1")
    assert b1 == 54
    (lifted,) = union.attacker_spec(b0).families
    assert lifted.index_map == \
        IndexMap.affine(4, 2).then(PairLeft(0)).then(PairLeft(0))
    assert lifted.all_never is True
    report = verify_symbolic_stages(union, union.candidate_stages, sample=60)
    assert report.ok, report.lines()
    assert report.stages[b1] is NEVER
    assert report.grounding_ordinal == parse_ordinal("w^2")


def test_a_part_family_without_a_verdict_fails_closed_after_two_lifts():
    bs = baumann_spanring()

    def spec(i):
        own = bs.attacker_spec(i)
        return Members(own.explicit, tuple(replace(f, all_never=False)
                                           for f in own.families))

    unvouched = LazyAF(bs.attacks, spec, naming=bs.name,
                       candidate_stages=bs.candidate_stages,
                       attacker_candidates=bs.attacker_candidates)
    union = disjoint_union([
        disjoint_union([unvouched, materialize_spec(parse_generator_spec(
            "ord:w"))]),
        materialize_spec(parse_generator_spec("ord:w^2"))])
    b0, b1 = pair(0, pair(0, 1)), pair(0, pair(0, 3))
    lifted = IndexMap.affine(4, 2).then(PairLeft(0)).then(PairLeft(0))
    report = verify_symbolic_stages(union, union.candidate_stages, sample=60)
    assert {(v.rule, v.subject) for v in report.violations} == \
        {("never", str(b1))}
    assert [v.message for v in report.violations] == [
        f"attacker {b0}'s counter-attacker family {lifted} is not proved "
        "all-NEVER"]
    assert report.grounding_ordinal is None


def test_union_lazy_with_finite_part_certifies():
    union = disjoint_union([baumann_spanring(), FiniteAF(3, [(0, 1), (1, 2)])])
    report = verify_symbolic_stages(union, union.candidate_stages, sample=40)
    assert report.ok, report.lines()
    assert report.grounding_ordinal == W2


def _union_part(text):
    """Part p of a union or limit-ordinal spec, or None past the last part."""
    spec = parse_generator_spec(text)
    if spec.kind == "union":
        parts = [materialize_spec(s) for s in spec.parts]
        return lambda p: parts[p] if p < len(parts) else None
    alpha = parse_ordinal(spec.param)
    return lambda p: af_from_tree(
        build_tree_of_rank(fundamental_sequence(alpha, p)))


@pytest.mark.parametrize("text", [
    "ord:w", "ord:w^2", "ord:w^3", "ord:w^2*2+w", "ord:w^2+w*2",
    "union(bs,ord:w)", "union(bs:truncate=3,ord:w^2,bs)",
    "union(ord:w*2,ord:5)"])
def test_union_places_part_p_argument_j_at_pair(text):
    # the reference builds each part as an AF of its own: a limit target
    # is one F_T over its rank tree, which must answer as that union does
    union = materialize_spec(parse_generator_spec(text))
    part_of = _union_part(text)
    parts = {p: part_of(p) for p in range(18)}  # each p with pair(p, 0) < 160
    cand = union.candidate_stages
    for x in range(160):
        p, j = unpair(x)
        part = parts[p]
        # the part's arguments before the padding
        n = 0 if part is None else part.universe
        n = math.inf if n is None else n
        for y in range(160):
            q, k = unpair(y)
            want = p == q and j < n and k < n and part.attacks(j, k)
            assert union.attacks(x, y) == want, (x, y)
        for hi in (1, x, x + 1, 97, 160):
            want = [] if j >= n else [
                pair(p, c) for c in part.attacker_candidates(j, least_right(p, hi))]
            assert list(union.attacker_candidates(x, hi)) == want, (x, hi)
        if j >= n:
            assert union.name(x) == f"pad_{x}"
            assert union.attacker_spec(x) == Members()
            assert cand.stage_of(x) == 1
            continue
        assert union.name(x) == f"u{p}_{part.name(j)}"
        if isinstance(part, FiniteAF):
            assert union.attacker_spec(x) == Members(
                explicit=tuple(pair(p, b) for b in part.attackers_of(j)))
            assert cand.stage_of(x) == stages_finite(part)[j]
            continue
        inner = part.attacker_spec(j)
        # a lifted family keeps its part's all-NEVER verdict and affine vouch
        lifted = tuple(Family(f.index_map.then(PairLeft(p)), f.k_start, f.expr,
                              f.all_never, f.affine)
                       for f in inner.families)
        assert union.attacker_spec(x) == Members(
            explicit=tuple(pair(p, b) for b in inner.explicit), families=lifted)
        assert cand.stage_of(x) == part.candidate_stages.stage_of(j)


def test_union_with_a_lazy_part_without_stage_map_has_none():
    # x attacks x + 1, with no candidate stages
    chain = LazyAF(lambda x, y: y == x + 1,
                   lambda x: Members(explicit=(x - 1,) if x else ()))
    union = disjoint_union([chain, baumann_spanring()])
    assert union.candidate_stages is None
    x3, x4, b0 = pair(0, 3), pair(0, 4), pair(1, 1)
    assert union.attacks(x3, x4) and not union.attacks(x4, x3)
    assert not union.attacks(x3, pair(1, 4))
    assert union.attacker_spec(x4) == Members(explicit=(x3,))
    odd_a = baumann_spanring().attacker_spec(1).families[0]
    assert union.attacker_spec(b0) == Members(families=(
        Family(odd_a.index_map.then(PairLeft(1)), odd_a.k_start, odd_a.expr,
               True, True),))
    assert list(union.attacker_candidates(x4, 40)) == \
        [pair(0, c) for c in range(least_right(0, 40))]
    assert list(union.attacker_candidates(pair(2, 0), 40)) == []
    assert [union.name(x) for x in (x4, b0, pair(2, 0))] == \
        ["u0_x4", "u1_b0", f"pad_{pair(2, 0)}"]


def test_limit_targets_are_built_without_the_indexed_union(monkeypatch):
    monkeypatch.setattr(constructions, "disjoint_union", None)
    for text in ("w", "w^2", "w^2+w*2"):
        af = ordinal_target_af(parse_ordinal(text))
        assert verify_symbolic_stages(af, af.candidate_stages, sample=64).ok


def _sampled_families():
    """Families of every kind the verifier samples: lifted F_T families,
    plain and in a forest, a union's, the two-chain's odd a's and a limit
    node's children."""
    successor = ordinal_target_af(OMEGA + 1)   # plain F_T of a rank-w tree
    limit = ordinal_target_af(W2)              # a forest F_T
    union = disjoint_union([baumann_spanring(), successor])
    tree = build_tree_of_rank(OMEGA)
    return [successor.attacker_spec(0).families[0],
            limit.attacker_spec(pair(0, 0)).families[0],
            union.attacker_spec(pair(0, 1)).families[0],
            union.attacker_spec(pair(1, 0)).families[0],
            baumann_spanring().attacker_spec(1).families[0],
            tree.children(tree.root).families[0]]


def test_family_members_read_from_the_head_are_the_index_maps():
    families = _sampled_families()
    assert type(families[-1]) is trees._LimitFamily
    for fam in families:
        ks = range(fam.k_start, fam.k_start + SPEC_FAMILY_PROBE + 3)
        assert [fam.member(k) for k in ks] == [fam.index_map(k) for k in ks]
        # asked again, and past the head first on an equal family
        assert [fam.member(k) for k in ks] == [fam.index_map(k) for k in ks]
        again = Family(fam.index_map, fam.k_start, fam.expr)
        assert [again.member(k) for k in reversed(ks)] == \
            [fam.index_map(k) for k in reversed(ks)]


class _CountedStep:
    """k -> 3k + 1, counting its applications."""

    def __init__(self):
        self.applied = 0

    def apply(self, k):
        self.applied += 1
        return 3 * k + 1

    def invert(self, v):
        return (v - 1) // 3 if v % 3 == 1 else None


def test_family_head_is_worked_out_once_and_is_not_part_of_the_value():
    step = _CountedStep()
    fam = Family(IndexMap((step,)), 2, NEVER)
    fresh = Family(IndexMap((step,)), 2, NEVER)
    assert step.applied == 0
    assert fam.member(SPEC_FAMILY_PROBE + 3) == 3 * (SPEC_FAMILY_PROBE + 3) + 1
    assert step.applied == 1
    for _ in range(3):
        assert [fam.member(k) for k in range(2, 2 + SPEC_FAMILY_PROBE)] == \
            [3 * k + 1 for k in range(2, 2 + SPEC_FAMILY_PROBE)]
    assert step.applied == 1 + SPEC_FAMILY_PROBE
    assert fam == fresh and hash(fam) == hash(fresh)
    assert {fam: 1}[fresh] == 1 and fam != Family(IndexMap((step,)), 3, NEVER)
    # the all-NEVER verdict and the affine vouch are part of the value
    assert fam != Family(IndexMap((step,)), 2, NEVER, True)
    assert fam != Family(IndexMap((step,)), 2, NEVER, False, True)
    for lazy in _sampled_families():
        if type(lazy) is Family:
            equal = Family(lazy.index_map, lazy.k_start, lazy.expr,
                           lazy.all_never, lazy.affine)
            assert equal == lazy and hash(equal) == hash(lazy)


# Counted before limit targets were built as one F_T: that build makes
# each ask cheaper and must not change which ones are made.  Asks are the
# spot check's, the verification's only predicate calls; members are every
# Family.member the verification samples, the spot check's probes included.
# Every attacker family here is vouched affine by its generator, so the
# closed-form rule reads three of its members, not the six it samples of
# a family without the vouch.
@pytest.mark.parametrize("text, asks, members", [
    ("bs", 185, 11), ("ord:w*3+2", 187, 55), ("union(bs,ord:w)", 34, 11),
    ("ord:w^2", 453, 484), ("ord:w^3", 586, 693)])
def test_verification_work_at_sample_150_is_pinned(monkeypatch, text, asks,
                                                   members):
    af = materialize_spec(parse_generator_spec(text))
    counts = Counter()
    attacks, member = af.attacks, Family.member

    def counted_attacks(x, y):
        counts["asks"] += 1
        return attacks(x, y)

    def counted_member(fam, k):
        counts["members"] += 1
        return member(fam, k)

    monkeypatch.setattr(af, "attacks", counted_attacks)
    monkeypatch.setattr(Family, "member", counted_member)
    assert verify_symbolic_stages(af, af.candidate_stages, sample=150).ok
    assert counts == {"asks": asks, "members": members}


def test_a_family_no_generator_vouched_keeps_six_samples():
    # the root claims "child k has rank k" (root rank w), but child 3 has
    # rank w: its own children are a family of ranks 0, 1, 2, ...  The
    # claim is hand-built, not vouched affine, so the closed-form rule
    # samples its first six members and meets child 3 among them.
    every = IndexMap.affine(1, 0)
    ranks_k = Family(every, expr=AffineOrdinalExpr.affine(1, 0))

    def children(state):
        if state in ("root", "bad"):
            return Members(families=(ranks_k,))
        return Members(explicit=(0,)) if state else Members()

    def child(state, symbol):
        if state == "root" and symbol == 3:
            return "bad"
        return symbol if state in ("root", "bad") else state - 1

    def rank(state):
        return OMEGA if state in ("root", "bad") else Ordinal.from_int(state)

    af = af_from_tree(LazyTree("root", children, child, rank))
    assert not af.attacker_spec(0).families[0].affine
    report = verify_symbolic_stages(af, af.candidate_stages, sample=150)
    assert [(v.rule, v.subject, v.message) for v in report.violations] == [
        ("closed-form", "0",
         "defense closed form gives 4 at k=3, samples give w+1")]


def count_rank_tree_asks(monkeypatch) -> Counter:
    """Make the generators' rank trees count each `children` and `child`
    ask, by its arguments, in the Counter returned."""
    asked = Counter()

    def counted(alpha):
        tree = build_tree_of_rank(alpha)

        def children(state):
            asked["children", state] += 1
            return tree.children(state)

        def child(state, symbol):
            asked["child", state, symbol] += 1
            return tree.child(state, symbol)

        return LazyTree(tree.root, children, child, tree.declared_rank)

    monkeypatch.setattr(constructions, "build_tree_of_rank", counted)
    return asked


def test_limit_target_asks_its_tree_once_per_state(monkeypatch):
    # as an expansion does (see LazyTree): children once per distinct
    # state, child once per distinct (state, symbol)
    asked = count_rank_tree_asks(monkeypatch)
    af = ordinal_target_af(parse_ordinal("w^2"))
    assert verify_symbolic_stages(af, af.candidate_stages, sample=150).ok
    assert {kind for kind, *_ in asked} == {"children", "child"}
    assert max(asked.values()) == 1


def test_truncated_limit_target_asks_its_tree_once_per_state(monkeypatch):
    # the five parts share one state table: a state met in several parts
    # is asked for its children once, and a step once, across all of them
    asked = count_rank_tree_asks(monkeypatch)
    af = ordinal_target_af(omega_power(2), truncate=5)
    assert af.n == 2 * 2_915
    assert {kind for kind, *_ in asked} == {"children", "child"}
    assert max(asked.values()) == 1


# -- attacker candidates ---------------------------------------------------------


def _without_hook(af, spec=None):
    """The same AF with the full-scan spot check, optionally another spec."""
    return LazyAF(af.attacks, spec or af.attacker_spec,
                  attacker_candidates=None)


@pytest.mark.parametrize("text", [
    "bs", "ord:w", "ord:w+3", "ord:w*3+1", "ord:w^2", "ord:w^2+w*2+1", "ord:w^3",
    "union(bs,ord:w)", "union(ord:w,apx:chain.apx)",
    "union(bs,union(ord:w^2,ord:5))"])
def test_attacker_candidates_decide_what_the_full_scan_decides(
        tmp_path, monkeypatch, text):
    (tmp_path / "chain.apx").write_text(
        format_apx(FiniteAF(4, [(0, 1), (1, 2), (2, 3), (3, 3)])))
    monkeypatch.chdir(tmp_path)
    af = materialize_spec(parse_generator_spec(text))
    for hi in (16, 160):
        for a in range(hi + 3):  # a past the window has no candidates in it
            cand = list(af.attacker_candidates(a, hi))
            assert cand == sorted(set(cand)) and all(x < hi for x in cand)
            assert [x for x in cand if af.attacks(x, a)] == \
                [x for x in range(hi) if af.attacks(x, a)], (a, hi)


@pytest.mark.parametrize("text", ["bs", "ord:w+3", "union(bs,ord:w)", "ord:w^2"])
def test_spot_check_through_candidates_finds_a_dropped_attacker(text):
    af = materialize_spec(parse_generator_spec(text))
    hi = 120
    dropped = 0
    for a in range(hi):
        attackers = [x for x in range(hi) if af.attacks(x, a)]
        if not attackers:
            continue
        x = attackers[-1]
        spec = af.attacker_spec(a)
        short = Members(
            tuple(b for b in spec.explicit if b != x),
            tuple(f for f in spec.families if not f.contains(x)))

        def spec_fn(i, a=a, short=short):
            return short if i == a else af.attacker_spec(i)

        hooked = LazyAF(af.attacks, spec_fn,
                        attacker_candidates=af.attacker_candidates)
        problems = spot_check_attacker_spec(hooked, [a], bound=hi)
        assert f"spec of {a}: attacker {x} missing from spec" in problems
        assert problems == spot_check_attacker_spec(
            _without_hook(af, spec_fn), [a], bound=hi)
        dropped += 1
    assert dropped >= 10


def _spot_check_asking_every_candidate(af, args, bound):
    """The spot check with a scan that asks every candidate, probed or not."""
    problems = []
    for a in args:
        spec = af.attacker_spec(a)
        for b in spec.explicit:
            if not af.attacks(b, a):
                problems.append(f"spec of {a}: explicit attacker {b} does not attack")
        for fam in spec.families:
            for k in range(fam.k_start, fam.k_start + SPEC_FAMILY_PROBE):
                m = fam.member(k)
                if not af.attacks(m, a):
                    problems.append(
                        f"spec of {a}: family member {m} (k={k}) does not attack")
        for x in af.attacker_candidates(a, bound):
            if af.attacks(x, a) and not spec.contains(x):
                problems.append(f"spec of {a}: attacker {x} missing from spec")
    return problems


@pytest.mark.parametrize("text", ["bs", "ord:w+3", "union(bs,ord:w)", "ord:w^2"])
def test_spot_check_asks_each_pair_once_and_reports_as_the_full_scan(text):
    af = materialize_spec(parse_generator_spec(text))
    hi, rng = 80, random.Random(text)

    def perturbed(a):
        # drop an explicit attacker or a family, claim a non-attacker
        spec = af.attacker_spec(a)
        explicit, families = list(spec.explicit), list(spec.families)
        if explicit and rng.random() < 0.5:
            explicit.remove(rng.choice(explicit))
        if families and rng.random() < 0.3:
            families.pop(rng.randrange(len(families)))
        if rng.random() < 0.5:
            fake = rng.randrange(hi)
            if not af.attacks(fake, a):
                explicit.append(fake)
        return Members(tuple(explicit), tuple(families))

    specs = {a: perturbed(a) for a in range(hi)}
    asked = Counter()

    def attacks(x, y):
        asked[x, y] += 1
        return af.attacks(x, y)

    hooked = LazyAF(attacks, specs.__getitem__,
                    attacker_candidates=af.attacker_candidates)
    problems = spot_check_attacker_spec(hooked, range(hi), bound=hi)
    assert any("missing from spec" in p for p in problems)
    assert any("does not attack" in p for p in problems)
    assert max(asked.values()) == 1
    assert problems == _spot_check_asking_every_candidate(hooked, range(hi), hi)


def test_spot_check_of_omega_squared_asks_a_tenth_of_the_full_scan():
    def count_calls(af):
        calls = 0
        predicate = af.attacks

        def attacks(x, y):
            nonlocal calls
            calls += 1
            return predicate(x, y)

        af.attacks = attacks
        assert spot_check_attacker_spec(af, range(500), bound=500) == []
        return calls

    af = materialize_spec(parse_generator_spec("ord:w^2"))
    full = count_calls(_without_hook(af))
    assert full >= 500 * 500
    assert count_calls(af) < full // 10


# -- generator specs ----------------------------------------------------------------


def test_parse_generator_specs():
    assert parse_generator_spec("bs") == GeneratorSpec("bs")
    assert parse_generator_spec("bs:truncate=6") == GeneratorSpec("bs", truncate=6)
    assert parse_generator_spec("ord:w*2") == GeneratorSpec("ord", param="w*2")
    assert parse_generator_spec("ord:w:truncate=4") == \
        GeneratorSpec("ord", param="w", truncate=4)
    spec = parse_generator_spec("union(bs:truncate=2,apx:x.apx)")
    assert spec.kind == "union" and len(spec.parts) == 2
    nested = parse_generator_spec("union(union(bs,bs),ord:3)")
    assert nested.parts[0].kind == "union"
    for bad in ["", "bs:truncate=", "ord:", "union(bs", "nope:3",
                "ord:w:truncate=-1", "tree:"]:
        with pytest.raises(GeneratorSpecError):
            parse_generator_spec(bad)


def test_parse_caps_union_nesting():
    def nested(depth):
        return "union(" * depth + "bs" + ")" * depth

    spec = parse_generator_spec(nested(MAX_UNION_NESTING))
    for _ in range(MAX_UNION_NESTING):
        spec = spec.parts[0]
    assert spec == GeneratorSpec("bs")
    for depth in (MAX_UNION_NESTING + 1, 1000):
        with pytest.raises(GeneratorSpecError, match="nested deeper"):
            parse_generator_spec(nested(depth))


def test_materialize_specs(tmp_path):
    apx = tmp_path / "chain.apx"
    apx.write_text(format_apx(FiniteAF(3, [(0, 1), (1, 2)])))
    af = materialize_spec(parse_generator_spec(f"apx:{apx}"))
    assert af.n == 3

    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0], [0, 0]]}')
    af = materialize_spec(parse_generator_spec(f"tree:{tree}"))
    assert grounded_finite(af).grounding_ordinal == 3

    af = materialize_spec(parse_generator_spec("ord:4"))
    assert grounded_finite(af).grounding_ordinal == 4

    union = materialize_spec(parse_generator_spec(f"union(apx:{apx},ord:2)"))
    assert grounded_finite(union).grounding_ordinal == 2


# -- finite AFs built from attack rows -------------------------------------------


def _tables(af):
    return (af.n, af.attack_pairs, af._fwd, af._rev, af.names, af._name_index)


def assert_built_as_from_pairs(got, n, pairs, names):
    """`got`, built from rows, is the AF the constructor builds from pairs."""
    want = FiniteAF(n, pairs, names)
    assert _tables(got) == _tables(want)
    assert got == want and hash(got) == hash(want)


def _ft_pairs(tree):
    """F_T's names and attacks, straight from the tree's paths and parents."""
    names = [side + "".join(f"_{s}" for s in p) for p in tree.order for side in "ab"]
    pairs = {(2 * r, 2 * r + 1) for r in range(len(tree.order))}
    pairs |= {(2 * r + 1, 2 * tree.parents[r]) for r in range(1, len(tree.order))}
    return names, pairs


def _union_pairs(parts):
    """The compact union of (names, pairs) parts: part p's argument j goes
    to the rank of pair(p, j) among the parts' codes."""
    codes = sorted(pair(p, j) for p, (names, _) in enumerate(parts)
                   for j in range(len(names)))
    rank = {c: g for g, c in enumerate(codes)}
    names = [None] * len(codes)
    pairs = set()
    for p, (part_names, part_pairs) in enumerate(parts):
        for j, nm in enumerate(part_names):
            names[rank[pair(p, j)]] = f"u{p}_{nm}"
        pairs |= {(rank[pair(p, x)], rank[pair(p, y)]) for x, y in part_pairs}
    return names, pairs


def test_tree_afs_are_built_as_from_their_pairs():
    rng = random.Random(29)
    for _ in range(40):
        beta = Ordinal.from_int(rng.randint(0, 4))
        for _ in range(rng.randint(0, 3)):
            beta = OMEGA + beta
        for _ in range(rng.randint(0, 2)):
            beta = omega_power(2) + beta
        tree = truncate_tree(build_tree_of_rank(beta), width=rng.randint(1, 3))
        names, pairs = _ft_pairs(tree)
        assert_built_as_from_pairs(af_from_finite_tree(tree).af,
                                   len(names), pairs, names)


def test_bs_truncations_are_built_as_from_their_pairs():
    for n in range(41):
        pairs = {(2 * i, 2 * i + 2) for i in range(n - 1)}
        pairs |= {(2 * i + 1, 2 * i + 3) for i in range(n - 1)}
        pairs |= {(2 * i, 1) for i in range(1, n, 2)}
        names = [nm for i in range(n) for nm in (f"a{i}", f"b{i}")]
        assert_built_as_from_pairs(baumann_spanring(truncate=n),
                                   2 * n, pairs, names)


@pytest.mark.parametrize("alpha", ["w", "w*3", "w^2", "w^2+w", "w^2*2"])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_truncated_limit_targets_are_built_as_from_their_pairs(alpha, width):
    limit = parse_ordinal(alpha)
    parts = [_ft_pairs(truncate_tree(
        build_tree_of_rank(fundamental_sequence(limit, i)), width=width))
        for i in range(width)]
    names, pairs = _union_pairs(parts)
    af = materialize_spec(parse_generator_spec(f"ord:{alpha}:truncate={width}"))
    assert_built_as_from_pairs(af, len(names), pairs, names)


def test_finite_unions_are_built_as_from_their_pairs():
    rng = random.Random(31)
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(0, 6)
            parts.append(FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                                      if rng.random() < 0.3]))
        names, pairs = _union_pairs([(part.names, part.attack_pairs)
                                     for part in parts])
        assert_built_as_from_pairs(disjoint_union(parts),
                                   len(names), pairs, names)


@pytest.mark.parametrize("text", ["ord:w^2:truncate=4", "ord:w*3+2:truncate=5"])
def test_generated_afs_build_only_the_tables_asked_for(text):
    af = materialize_spec(parse_generator_spec(text))
    format_apx(af)
    assert af._rev_rows is None
    grounded_finite(af)
    assert af._rev_rows is None
