import random

import pytest

from transfinite_af.constructions import (
    MAX_UNION_NESTING,
    GeneratorSpec,
    GeneratorSpecError,
    af_from_finite_tree,
    af_from_tree,
    baumann_spanring,
    disjoint_union,
    disjoint_union_with_embedding,
    materialize_spec,
    ordinal_target_af,
    parse_generator_spec,
)
from transfinite_af.core import AttackerFamily, AttackerSpec, FiniteAF, \
    PairLeft, format_apx, pair, unpair
from transfinite_af.errors import UnsupportedExpression
from transfinite_af.grounded import (
    grounded_finite,
    omega_approximation,
    stages_finite,
    verify_symbolic_stages,
)
from transfinite_af.ordinals import NEVER, OMEGA, Ordinal, fundamental_sequence, \
    omega_power, parse_ordinal
from transfinite_af.trees import FiniteTree, build_tree_of_rank, truncate_tree

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
    lazy = af_from_tree(tree.as_lazy())
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
    from transfinite_af.core import materialize

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


# -- disjoint unions -----------------------------------------------------------------


def test_union_of_chain_and_cycle():
    chain = FiniteAF(3, [(0, 1), (1, 2)])
    cycle = FiniteAF(2, [(0, 1), (1, 0)])
    union, embed = disjoint_union_with_embedding([chain, cycle])
    r = grounded_finite(union)
    assert r.grounded == {embed(0, 0), embed(0, 2)}
    assert r.grounding_ordinal == 2


def test_union_with_empty_is_isomorphic():
    chain = FiniteAF(3, [(0, 1), (1, 2)])
    union, embed = disjoint_union_with_embedding([chain, FiniteAF(0)])
    stages = stages_finite(union)
    original = stages_finite(chain)
    for j in range(3):
        assert stages[embed(0, j)] == original[j]


def test_union_stage_preservation_random():
    def random_part(rng):
        n = rng.randint(1, 6)
        return FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                            if rng.random() < 0.3])

    rng = random.Random(71)
    for _ in range(60):
        parts = [random_part(rng), random_part(rng)]
        union, embed = disjoint_union_with_embedding(parts)
        got = stages_finite(union)
        for p, part in enumerate(parts):
            for j, v in stages_finite(part).items():
                assert got[embed(p, j)] == v
        sup_parts = max(
            (grounded_finite(part).grounding_ordinal.as_int() for part in parts),
            default=0)
        assert grounded_finite(union).grounding_ordinal == sup_parts


def test_two_chain_never_evidence_survives_union():
    bs = baumann_spanring()
    odd_a = bs.attacker_spec(1).families[0]
    assert bs.candidate_stages.family_all_never(odd_a) is True
    union = materialize_spec(parse_generator_spec("union(bs,ord:w)"))
    b0 = pair(0, 1)
    assert union.name(b0) == "u0_b0"
    lifted = union.attacker_spec(b0).families[0]
    assert union.candidate_stages.family_all_never(lifted) is True


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
    "ord:w", "ord:w^2", "ord:w^2*2+w", "union(bs,ord:w)",
    "union(bs:truncate=3,ord:w^2,bs)", "union(ord:w*2,ord:5)"])
def test_union_places_part_p_argument_j_at_pair(text):
    union = materialize_spec(parse_generator_spec(text))
    part_of = _union_part(text)
    cand = union.candidate_stages
    for x in range(160):
        p, j = unpair(x)
        part = part_of(p)
        if part is None or (isinstance(part, FiniteAF) and j >= part.n):
            assert union.name(x) == f"pad_{x}"
            assert union.attacker_spec(x) == AttackerSpec()
            assert cand.stage_of(x) == 1
            continue
        assert union.name(x) == f"u{p}_{part.name(j)}"
        if isinstance(part, FiniteAF):
            assert union.attacker_spec(x) == AttackerSpec(
                explicit=tuple(pair(p, b) for b in part.attackers_of(j)))
            assert cand.stage_of(x) == stages_finite(part)[j]
            continue
        inner = part.attacker_spec(j)
        lifted = tuple(AttackerFamily(f.index_map.then(PairLeft(p)), f.k_start,
                                      f.defense_stage_expr)
                       for f in inner.families)
        assert union.attacker_spec(x) == AttackerSpec(
            explicit=tuple(pair(p, b) for b in inner.explicit), families=lifted)
        assert cand.stage_of(x) == part.candidate_stages.stage_of(j)
        for fam, own in zip(lifted, inner.families):
            assert (cand.family_all_never(fam)
                    == part.candidate_stages.family_all_never(own))


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
    af = materialize_spec(parse_generator_spec("apx:chain.apx"), str(tmp_path))
    assert af.n == 3

    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0], [0, 0]]}')
    af = materialize_spec(parse_generator_spec("tree:t.json"), str(tmp_path))
    assert grounded_finite(af).grounding_ordinal == 3

    af = materialize_spec(parse_generator_spec("ord:4"), str(tmp_path))
    assert grounded_finite(af).grounding_ordinal == 4

    union = materialize_spec(
        parse_generator_spec("union(apx:chain.apx,ord:2)"), str(tmp_path))
    assert grounded_finite(union).grounding_ordinal == 2
