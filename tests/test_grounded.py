import itertools
import random

import pytest

from transfinite_af.constructions import materialize_spec, parse_generator_spec
from transfinite_af.core import (
    AttackerFamily,
    AttackerSpec,
    FiniteAF,
    IndexMap,
    LazyAF,
    materialize,
)
from transfinite_af.errors import ClosureError, DomainError, IncompleteStageMap
from transfinite_af.grounded import (
    GroundedResult,
    OmegaApproximation,
    StageFamily,
    SymbolicStageMap,
    VerificationReport,
    grounded_finite,
    grounding_ordinal_from_stages,
    omega_approximation,
    stages_finite,
    verify_symbolic_stages,
)
from transfinite_af.ordinals import (
    NEVER,
    OMEGA,
    ONE,
    ZERO,
    AffineOrdinalExpr,
    Ordinal,
)

W2 = OMEGA + OMEGA


def chain(n=3):
    return FiniteAF(n, [(i, i + 1) for i in range(n - 1)])


def random_af(rng, max_args=8):
    n = rng.randint(1, max_args)
    p = rng.uniform(0.05, 0.45)
    attacks = [(x, y) for x in range(n) for y in range(n) if rng.random() < p]
    return FiniteAF(n, attacks)


def brute_least_fixpoint(af):
    """Minimum under inclusion over all subsets with f(S) = S."""
    best = None
    for bits in range(1 << af.n):
        s = frozenset(i for i in range(af.n) if bits >> i & 1)
        if af.defense_step(s) == s:
            if best is None or len(s) < len(best):
                if best is None or s <= best:
                    best = s if best is None else s
    # recompute properly: the least fixpoint is contained in all of them
    fixpoints = [frozenset(i for i in range(af.n) if bits >> i & 1)
                 for bits in range(1 << af.n)]
    fixpoints = [s for s in fixpoints if af.defense_step(s) == s]
    least = min(fixpoints, key=len)
    assert all(least <= s for s in fixpoints)
    return least


# -- finite engine ---------------------------------------------------------


def test_grounded_examples():
    r = grounded_finite(chain())
    assert r.grounded == {0, 2}
    assert r.grounding_ordinal == 2

    r = grounded_finite(FiniteAF(2, [(0, 1), (1, 0)]))
    assert r.grounded == frozenset()
    assert r.grounding_ordinal == ZERO

    r = grounded_finite(FiniteAF(5))
    assert r.grounded == frozenset(range(5))
    assert r.grounding_ordinal == 1


def test_stages_examples():
    s = stages_finite(chain())
    assert s[0] == 1 and s[2] == 2 and s[1] is NEVER

    assert all(v == 1 for v in stages_finite(FiniteAF(4)).values())
    assert stages_finite(FiniteAF(1, [(0, 0)]))[0] is NEVER


def test_least_fixpoint_and_invariants():
    rng = random.Random(19)
    for _ in range(80):
        af = random_af(rng)
        r = grounded_finite(af)
        assert r.grounded == brute_least_fixpoint(af)
        assert af.is_conflict_free(r.grounded)
        assert r.grounding_ordinal <= af.n
        # successor-only stages with monotone consistency: each attacker of
        # a stage-(beta+1) argument is counter-attacked by stage <= beta
        for x, v in r.stages.items():
            if v is not NEVER:
                assert v.is_successor
                beta = v.predecessor()
                for b in af.attackers_of(x):
                    assert any(
                        r.stages[c] is not NEVER and r.stages[c] <= beta
                        for c in af.attackers_of(b))
        assert grounding_ordinal_from_stages(r.stages.values()) == r.grounding_ordinal


def test_stage_chain_is_monotone_and_stops_by_n():
    rng = random.Random(101)
    for _ in range(60):
        af = random_af(rng)
        current = frozenset()
        for _ in range(af.n):
            nxt = af.defense_step(current)
            assert current <= nxt
            current = nxt
        assert af.defense_step(current) == current


def test_grounding_ordinal_of_results_and_stages():
    r = grounded_finite(chain())
    assert r.grounding_ordinal == 2
    assert grounding_ordinal_from_stages(r.stages.values()) == 2
    assert grounding_ordinal_from_stages([NEVER, Ordinal.from_int(3), ONE]) == 3
    assert grounding_ordinal_from_stages([]) == ZERO


# -- omega approximation ------------------------------------------------------


def infinite_chain():
    def spec(i):
        return AttackerSpec(explicit=(() if i == 0 else (i - 1,)))

    return LazyAF(lambda x, y: y == x + 1, spec)


def test_omega_on_infinite_chain():
    approx = omega_approximation(infinite_chain(), window=10, steps=12)
    assert approx.stabilized
    for k in range(5):
        assert approx.stages[2 * k] == k + 1
    assert all(i in approx.never for i in (1, 3, 5, 7, 9))
    assert not approx.unknown


def test_omega_matches_finite_engine():
    af = infinite_chain()
    approx = omega_approximation(af, window=10, steps=12)
    fin = stages_finite(materialize(af, 10))
    for i in range(10):
        if i in approx.stages:
            assert approx.stages[i] == fin[i]
        else:
            assert i in approx.never and fin[i] is NEVER


def test_omega_insufficient_steps_reports_unknown():
    approx = omega_approximation(infinite_chain(), window=10, steps=2)
    assert not approx.stabilized
    assert approx.stages[0] == 1 and approx.stages[2] == 2
    assert 4 in approx.unknown and 1 in approx.unknown


def test_omega_rejects_families_in_window():
    fam = AttackerFamily(IndexMap.affine(2, 1))

    def spec(i):
        return AttackerSpec(families=(fam,)) if i == 0 else AttackerSpec()

    af = LazyAF(lambda x, y: y == 0 and x % 2 == 1, spec)
    with pytest.raises(DomainError):
        omega_approximation(af, window=3, steps=3)


def test_omega_closure_cap_names_argument():
    def spec(i):
        return AttackerSpec(explicit=(2 * i + 10,))

    af = LazyAF(lambda x, y: x == 2 * y + 10, spec)
    with pytest.raises(ClosureError) as info:
        omega_approximation(af, window=4, steps=3, closure_cap=20)
    assert info.value.argument >= 0


# -- hand-built two-chain lazy AF for the verifier -----------------------------
# a_i at index 2i, b_i at index 2i+1; a-chain, b-chain, odd a's attack b_0.


def two_chain_lazy():
    def pred(x, y):
        if x % 2 == 0 and y == x + 2:
            return True
        if x % 2 == 1 and y == x + 2:
            return True
        if y == 1 and x % 2 == 0 and (x // 2) % 2 == 1:
            return True
        return False

    k_plus_1 = AffineOrdinalExpr.affine(1, 1)

    def spec(i):
        if i == 0:
            return AttackerSpec()
        if i == 1:
            fam = AttackerFamily(IndexMap.affine(4, 2), 0, k_plus_1)
            return AttackerSpec(families=(fam,))
        return AttackerSpec(explicit=(i - 2,))

    return LazyAF(pred, spec)


def two_chain_candidate():
    w_plus_k_plus_1 = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))
    families = (
        StageFamily(IndexMap.affine(4, 0), AffineOrdinalExpr.affine(1, 1)),
        StageFamily(IndexMap.affine(4, 2), NEVER),
        StageFamily(IndexMap.affine(4, 1), w_plus_k_plus_1, k_start=1),
        StageFamily(IndexMap.affine(4, 3), NEVER),
    )
    return SymbolicStageMap(families=families, exceptions={1: OMEGA + 1})


def test_verifier_certifies_two_chain():
    report = verify_symbolic_stages(two_chain_lazy(), two_chain_candidate(), sample=40)
    assert report.ok, report.lines()
    assert report.grounding_ordinal == W2
    assert report.checked == 40


def test_verifier_catches_two_chain_tampering():
    base = two_chain_candidate()
    # b_0 one too late
    bad = SymbolicStageMap(families=base.families, exceptions={1: OMEGA + 2})
    report = verify_symbolic_stages(two_chain_lazy(), bad, sample=40)
    assert not report.ok
    # a_{2k} family shifted by one
    fams = (StageFamily(IndexMap.affine(4, 0), AffineOrdinalExpr.affine(1, 2)),) \
        + base.families[1:]
    report = verify_symbolic_stages(
        two_chain_lazy(), SymbolicStageMap(families=fams, exceptions={1: OMEGA + 1}),
        sample=40)
    assert not report.ok


def test_two_chain_truncations_grow_without_bound():
    af = two_chain_lazy()
    prev = 0
    for m in (4, 10, 20, 40):
        fin = materialize(af, 2 * m)
        stage = stages_finite(fin)[1]
        assert stage is not NEVER
        assert stage.as_int() > prev
        prev = stage.as_int()
    assert prev == 21  # truncate to 2m args = m index pairs: stage m/2+1


# -- verifier on finite AFs ----------------------------------------------------


def test_verifier_accepts_exact_finite_maps():
    rng = random.Random(23)
    for _ in range(60):
        af = random_af(rng)
        candidate = SymbolicStageMap.from_finite(stages_finite(af))
        report = verify_symbolic_stages(af, candidate, sample=af.n)
        assert report.ok, (af.attack_pairs, report.lines())
        assert report.grounding_ordinal == grounded_finite(af).grounding_ordinal


def test_verifier_rejects_single_perturbations():
    rng = random.Random(29)
    rejected = 0
    for _ in range(60):
        af = random_af(rng)
        exact = stages_finite(af)
        x = rng.randrange(af.n)
        tampered = dict(exact)
        if exact[x] is NEVER:
            tampered[x] = Ordinal.from_int(rng.randint(1, af.n + 1))
        elif rng.random() < 0.5:
            tampered[x] = exact[x] + 1
        else:
            tampered[x] = NEVER
        report = verify_symbolic_stages(
            af, SymbolicStageMap.from_finite(tampered), sample=af.n)
        assert not report.ok, (af.attack_pairs, x, exact[x], tampered[x])
        rejected += 1
    assert rejected == 60


def test_verifier_chain_not_least_example():
    af = chain()
    tampered = {0: ONE, 1: NEVER, 2: Ordinal.from_int(3)}
    report = verify_symbolic_stages(af, SymbolicStageMap.from_finite(tampered),
                                    sample=3)
    assert any(v.rule == "least" for v in report.violations)


def test_incomplete_candidate():
    af = chain()
    candidate = SymbolicStageMap(exceptions={0: ONE})
    report = verify_symbolic_stages(af, candidate, sample=3)
    assert any(v.rule == "complete" for v in report.violations)


# Every lazy spec the CLI certifies (`ord:w^(w)` has no affine
# fundamental sequence and so no candidate to check).
LAZY_SPECS = ["bs", "ord:w", "ord:w*2", "ord:w*3+2", "ord:w+5", "ord:w*4+1",
              "ord:w^2", "ord:w^3", "ord:w^3+1", "union(bs,ord:w)",
              "union(ord:w,ord:w*2+1)", "union(bs,bs)",
              "union(ord:w^2,ord:w+3)"]


@pytest.mark.parametrize("spec", LAZY_SPECS)
def test_report_carries_the_stages_it_checked(spec):
    af = materialize_spec(parse_generator_spec(spec))
    for sample in (3, 64, 97):
        report = verify_symbolic_stages(af, af.candidate_stages, sample=sample)
        window = sample if af.universe is None else min(sample, af.universe)
        assert report.ok, report.lines()
        assert report.checked == window
        assert list(report.stages) == list(range(window))
        for i in range(window):
            assert report.stages[i] == af.candidate_stages.stage_of(i), (spec, i)
