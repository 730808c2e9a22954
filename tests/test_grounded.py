import random
from dataclasses import replace

import pytest

from transfinite_af import checks
from transfinite_af.constructions import (
    disjoint_union,
    materialize_spec,
    parse_generator_spec,
)
from transfinite_af.core import (
    Family,
    FiniteAF,
    IndexMap,
    LazyAF,
    Members,
)
from transfinite_af.errors import CapExceeded, DomainError, IncompleteStageMap
from transfinite_af.grounded import (
    SymbolicStageMap,
    _Verifier,
    grounded_finite,
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
    parse_ordinal,
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
        assert r.grounding_ordinal == max(
            (v for v in r.stages.values() if v is not NEVER), default=ZERO)


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
    assert max(v for v in r.stages.values() if v is not NEVER) == 2
    assert grounded_finite(FiniteAF(0)).grounding_ordinal == ZERO


# -- omega approximation ------------------------------------------------------


def infinite_chain():
    def spec(i):
        return Members(explicit=(() if i == 0 else (i - 1,)))

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
    fin = stages_finite(checks.materialize(af, 10))
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
    fam = Family(IndexMap.affine(2, 1))

    def spec(i):
        return Members(families=(fam,)) if i == 0 else Members()

    af = LazyAF(lambda x, y: y == 0 and x % 2 == 1, spec)
    with pytest.raises(DomainError):
        omega_approximation(af, window=3, steps=3)


def test_omega_closure_cap_names_argument():
    def spec(i):
        return Members(explicit=(2 * i + 10,))

    af = LazyAF(lambda x, y: x == 2 * y + 10, spec)
    with pytest.raises(CapExceeded) as info:
        omega_approximation(af, window=4, steps=3, closure_cap=20)
    assert str(info.value) == "attacker closure of window 4 exceeded 20 arguments"


def complete_window(n, attacks):
    """A lazy AF whose window [0, n) has the attacks `attacks(x, y)` among
    its own arguments and no attacker from outside it."""
    def pred(x, y):
        return x < n and y < n and attacks(x, y)

    def spec(y):
        return Members(explicit=tuple(
            x for x in range(n) if pred(x, y)))

    return LazyAF(pred, spec)


def test_omega_closure_cap_counts_distinct_arguments():
    # every window argument is an attacker of the others: queued once per
    # attacked argument, the closure of 64 would count 2,080 against the
    # default cap of 576
    for attacks in (lambda x, y: x != y, lambda x, y: x < y):
        af = complete_window(64, attacks)
        got = omega_approximation(af, window=64, steps=70)
        assert got.closure == frozenset(range(64))
        assert got == checks.predicate_omega_approximation(af, window=64,
                                                            steps=70)
    af = complete_window(10, lambda x, y: x != y)
    assert omega_approximation(af, window=10, steps=3, closure_cap=10).closure \
        == frozenset(range(10))
    with pytest.raises(CapExceeded, match="window 10 exceeded 9 arguments"):
        omega_approximation(af, window=10, steps=3, closure_cap=9)


# -- hand-built two-chain lazy AF for the verifier -----------------------------
# a_i at index 2i, b_i at index 2i+1; a-chain, b-chain, odd a's attack b_0.


def two_chain_lazy(all_never=False):
    """all_never: the odd-a family attacking b_0 carries bs's own verdict,
    that the odd a's never enter G.  Its closed form k + 1 is vouched
    affine, as bs mints it."""
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
            return Members()
        if i == 1:
            fam = Family(IndexMap.affine(4, 2), 0, k_plus_1, all_never, True)
            return Members(families=(fam,))
        return Members(explicit=(i - 2,))

    return LazyAF(pred, spec)


def two_chain_candidate():
    w_plus_k_plus_1 = AffineOrdinalExpr(((ONE, 0, 1), (ZERO, 1, 1)))
    families = (
        Family(IndexMap.affine(4, 0), expr=AffineOrdinalExpr.affine(1, 1)),
        Family(IndexMap.affine(4, 2), expr=NEVER),
        Family(IndexMap.affine(4, 1), 1, w_plus_k_plus_1),
        Family(IndexMap.affine(4, 3), expr=NEVER),
    )
    return SymbolicStageMap(families=families, exceptions={1: OMEGA + 1})


def test_verifier_certifies_two_chain():
    report = verify_symbolic_stages(two_chain_lazy(all_never=True),
                                    two_chain_candidate(), sample=40)
    assert report.ok, report.lines()
    assert report.grounding_ordinal == W2
    assert report.checked == 40


def test_verifier_catches_two_chain_tampering():
    base = two_chain_candidate()
    # b_0 one too late
    bad = SymbolicStageMap(families=base.families, exceptions={1: OMEGA + 2})
    report = verify_symbolic_stages(two_chain_lazy(all_never=True), bad,
                                    sample=40)
    assert not report.ok
    # a_{2k} family shifted by one
    fams = (Family(IndexMap.affine(4, 0), expr=AffineOrdinalExpr.affine(1, 2)),) \
        + base.families[1:]
    report = verify_symbolic_stages(
        two_chain_lazy(all_never=True),
        SymbolicStageMap(families=fams, exceptions={1: OMEGA + 1}), sample=40)
    assert not report.ok


@pytest.mark.parametrize("k_start, affine, probed", [
    (0, True, [0, 1, 2]), (2, True, [2, 3]), (0, False, []), (2, False, [])])
def test_the_closed_form_rule_reads_a_vouched_family_at_three_members(
        monkeypatch, k_start, affine, probed):
    # b_0's odd-a family: vouched affine it is read at k = 0 when it starts
    # there and at two k >= 1; without the vouch it is refused unread
    bs = two_chain_lazy(all_never=True)
    fam = replace(bs.attacker_spec(1).families[0], k_start=k_start,
                  affine=affine)
    af = LazyAF(bs.attacks, lambda i: Members(families=(fam,)) if i == 1
                else bs.attacker_spec(i))
    read, member = [], Family.member
    monkeypatch.setattr(Family, "member",
                        lambda f, k: read.append(k) or member(f, k))
    verifier = _Verifier(af, two_chain_candidate())
    verifier.check_stage(1, OMEGA + 1)
    assert read == probed
    assert [(v.rule, v.subject) for v in verifier.violations] == \
        ([] if affine else [("closed-form", "1")])


def test_two_chain_truncations_grow_without_bound():
    af = two_chain_lazy()
    prev = 0
    for m in (4, 10, 20, 40):
        fin = checks.materialize(af, 2 * m)
        stage = stages_finite(fin)[1]
        assert stage is not NEVER
        assert stage.as_int() > prev
        prev = stage.as_int()
    assert prev == 21  # truncate to 2m args = m index pairs: stage m/2+1


# -- one hand-built case per verifier rule ---------------------------------


def found(report):
    """The (rule, subject) pairs of a report's violations."""
    return {(v.rule, v.subject) for v in report.violations}


def messages(report, rule, subject):
    return [v.message for v in report.violations
            if (v.rule, v.subject) == (rule, subject)]


def bs_stages():
    """bs's candidate stage map.  A map answers stages only, so on
    two_chain_lazy(), whose odd-a family carries no verdict, nothing
    vouches for b_0's attackers, the odd a's, being NEVER."""
    return materialize_spec(parse_generator_spec("bs")).candidate_stages


# b_1 (3) fails for its one attacker b_0 (1), whose attackers are the odd a's
ODD_A_UNPROVEN = ("attacker 1's counter-attacker family "
                  f"{IndexMap.affine(4, 2)} is not proved all-NEVER")


@pytest.mark.parametrize("sample", [16, 64])
def test_unproven_never_family_fails_closed(sample):
    # with a fallback or without, no family is proved all-NEVER by
    # sampling its members; the same maps pass once the family is vouched
    own = bs_stages()
    for candidate in (
            SymbolicStageMap(families=own.families, exceptions=own.exceptions,
                             fallback=own.stage_of),
            SymbolicStageMap(families=own.families, exceptions=own.exceptions)):
        report = verify_symbolic_stages(two_chain_lazy(), candidate,
                                        sample=sample)
        assert found(report) == {("never", "3")}
        assert messages(report, "never", "3") == [ODD_A_UNPROVEN]
        assert report.grounding_ordinal is None
        assert verify_symbolic_stages(two_chain_lazy(all_never=True),
                                      candidate, sample=sample).ok


def test_alignment_meeting_a_member_without_a_stage_fails_closed():
    # the odd a's family starts at k = 2 and the exception covers a_2 = 2,
    # so the sample [0, 4) is complete though 6 has no stage value; the
    # AF's family carries no verdict, so it is not proved all-NEVER
    own = bs_stages()
    odd_a = IndexMap.affine(4, 2)
    families = tuple(Family(odd_a, 2, NEVER) if f.index_map == odd_a else f
                     for f in own.families)
    candidate = SymbolicStageMap(families=families,
                                 exceptions={**own.exceptions, 2: NEVER})
    with pytest.raises(IncompleteStageMap):
        candidate.stage_of(6)
    report = verify_symbolic_stages(two_chain_lazy(), candidate, sample=4)
    assert found(report) == {("never", "3")}
    assert messages(report, "never", "3") == [ODD_A_UNPROVEN]


def family_attacked_lazy(decreasing=False):
    """0 is attacked by 1, and 1 by the family 2, 4, 6, ...; the rest is
    unattacked, except that when `decreasing` 3 attacks 2 and 5 attacks 3,
    so the family's stages start 2, 1, 1, ..."""
    extra = {(3, 2), (5, 3)} if decreasing else set()
    family = Family(IndexMap.affine(2, 2))

    def pred(x, y):
        return ((x, y) == (1, 0) or (y == 1 and x >= 2 and x % 2 == 0)
                or (x, y) in extra)

    def spec(i):
        if i == 1:
            return Members(families=(family,))
        return Members(explicit=tuple(x for x, y in sorted(extra) if y == i)
                            + ((1,) if i == 0 else ()))

    return LazyAF(pred, spec)


def family_attacked_candidate(exceptions):
    stage_one = Family(IndexMap.affine(1, 2), expr=AffineOrdinalExpr.affine(0, 1))
    return SymbolicStageMap(families=(stage_one,), exceptions=exceptions)


# the two violations of a map for an AF where 1 is counter-attacked by a
# family: 1 bounds 0's stage, and 1's NEVER has no explicit witness
FAMILY_FAILS_CLOSED = {("fragment", "1"), ("never", "1")}
COUNTER_FAMILY = ("counter-attacked by a family; outside the supported "
                  "fragment of explicit counter-attackers")


def test_verifier_fails_closed_on_a_counter_attacker_family():
    af = family_attacked_lazy()
    # the exact map (0 is defended at 2 through the family) and one a
    # level too late are refused alike: no family member is read
    for zero in (2, 3):
        report = verify_symbolic_stages(
            af, family_attacked_candidate({0: Ordinal.from_int(zero),
                                           1: NEVER}), sample=8)
        assert found(report) == FAMILY_FAILS_CLOSED
        assert messages(report, "fragment", "1") == [COUNTER_FAMILY]
        assert messages(report, "never", "1") == \
            ["no explicit attacker has all its counter-attackers NEVER"]
        assert report.grounding_ordinal is None


def test_verifier_flags_a_decreasing_attacker_family():
    # refused for being a family, before any member's stage is read
    two = Ordinal.from_int(2)
    exact = {0: two, 1: NEVER, 2: two, 3: NEVER}
    report = verify_symbolic_stages(family_attacked_lazy(decreasing=True),
                                    family_attacked_candidate(exact), sample=8)
    assert found(report) == FAMILY_FAILS_CLOSED
    assert messages(report, "fragment", "1") == [COUNTER_FAMILY]


def test_verifier_fails_closed_through_a_closed_form_probe():
    # 0 is attacked by the odd arguments, each counter-attacked by the
    # family of even ones: the closed-form rule's first probe fails
    # closed on 1 and adds no closed-form violation of its own
    evens = Family(IndexMap.affine(2, 2))
    odds = Family(IndexMap.affine(2, 1), expr=AffineOrdinalExpr.affine(0, 1),
                  affine=True)

    def spec(i):
        if i == 0:
            return Members(families=(odds,))
        return Members(families=(evens,)) if i % 2 else Members()

    af = LazyAF(lambda x, y: y == 0 and x % 2 == 1
                or y % 2 == 1 and x >= 2 and x % 2 == 0, spec)
    candidate = SymbolicStageMap(
        families=(Family(IndexMap.affine(2, 1), expr=NEVER),
                  Family(IndexMap.affine(2, 2),
                         expr=AffineOrdinalExpr.affine(0, 1))),
        exceptions={0: Ordinal.from_int(2)})
    report = verify_symbolic_stages(af, candidate, sample=4)
    assert found(report) == FAMILY_FAILS_CLOSED | {("never", "3")}
    assert messages(report, "fragment", "1") == [COUNTER_FAMILY]


def late_answer_lazy():
    """0 is attacked by 1, and 1 by the family c_k = 10 + 3k; each c_k
    but c_6 (28) is attacked by d_k = c_k + 1, which the unattacked
    e_k = c_k + 2 attacks.  So c_k has stage 2 but c_6 has stage 1, and
    0 has stage 2: a minimum read off the family's first members says 3."""
    def c_index(i):
        return i >= 10 and (i - 10) % 3 == 0

    def d_index(i):
        return i >= 11 and (i - 11) % 3 == 0

    def pred(x, y):
        return ((x, y) == (1, 0) or (y == 1 and c_index(x))
                or (x == y + 1 and (c_index(y) and y != 28 or d_index(y))))

    def spec(i):
        if i == 1:
            return Members(families=(Family(IndexMap.affine(3, 10)),))
        if i == 0 or (c_index(i) and i != 28) or d_index(i):
            return Members(explicit=(i + 1,))
        return Members()

    return LazyAF(pred, spec)


def test_verifier_rejects_a_family_minimum_its_first_members_miss():
    af = late_answer_lazy()
    exact = stages_finite(checks.materialize(af, 40))
    assert (exact[0], exact[1], exact[10], exact[28]) == \
        (Ordinal.from_int(2), NEVER, Ordinal.from_int(2), ONE)
    for zero in (2, 3):
        candidate = SymbolicStageMap.from_finite(
            {**exact, 0: Ordinal.from_int(zero)})
        report = verify_symbolic_stages(af, candidate, sample=40)
        assert found(report) == FAMILY_FAILS_CLOSED
        assert messages(report, "fragment", "1") == [COUNTER_FAMILY]


def test_verifier_rejects_a_limit_stage():
    report = verify_symbolic_stages(
        FiniteAF(1), SymbolicStageMap(exceptions={0: OMEGA}), sample=1)
    assert found(report) == {("successor", "0")}


def test_verifier_bounds_a_never_defended_family():
    # 0 is attacked by the odd arguments, which nothing attacks
    def spec(i):
        if i == 0:
            return Members(families=(
                Family(IndexMap.affine(2, 1), 0, NEVER),))
        return Members()

    af = LazyAF(lambda x, y: y == 0 and x % 2 == 1, spec)
    report = verify_symbolic_stages(
        af, SymbolicStageMap(
            families=(Family(IndexMap.affine(1, 1),
                             expr=AffineOrdinalExpr.affine(0, 1)),),
            exceptions={0: Ordinal.from_int(2)}),
        sample=8)
    assert found(report) == {("bound", "0")}
    assert "never counter-attacked" in messages(report, "bound", "0")[0]


def test_verifier_bounds_a_family_sup_above_the_predecessor():
    # b_0's attackers are defended at 1, 2, 3, ..., which reach w
    tampered = SymbolicStageMap(families=two_chain_candidate().families,
                                exceptions={1: Ordinal.from_int(5)})
    report = verify_symbolic_stages(two_chain_lazy(all_never=True), tampered,
                                    sample=4)
    assert found(report) == {("bound", "1")}
    assert messages(report, "bound", "1") == \
        ["family defense stages reach w > 4"]


def test_verifier_rejects_never_when_every_family_member_is_answered():
    # b_0 claimed NEVER, but each odd a is counter-attacked by the a before it
    tampered = SymbolicStageMap(families=two_chain_candidate().families,
                                exceptions={1: NEVER})
    report = verify_symbolic_stages(two_chain_lazy(all_never=True), tampered,
                                    sample=4)
    assert found(report) == {("never", "1")}
    assert messages(report, "never", "1") == \
        ["no explicit attacker has all its counter-attackers NEVER"]


CHAIN_STAGES = {0: ONE, 1: NEVER, 2: Ordinal.from_int(2)}


CONSTANT_3 = Family(IndexMap.affine(1, 0),
                    expr=AffineOrdinalExpr.affine(0, 3))
K_PLUS_1_FROM_3 = Family(IndexMap.affine(1, 0), 3, AffineOrdinalExpr.affine(1, 1))


# Each rule a computed sup can still fail: a fallback above it, a fallback
# reaching an unattained one, and a witness its exceptions shadow
@pytest.mark.parametrize("families, exceptions, fallback, subject, message", [
    ((), {0: ONE}, CHAIN_STAGES, "2", "stage 2 exceeds declared sup 1"),
    ((), {}, CHAIN_STAGES, "0", "stage 1 exceeds declared sup 0"),
    ((K_PLUS_1_FROM_3,), {}, {**CHAIN_STAGES, 2: OMEGA}, "2",
     "stage w attains a sup declared unattained"),
    ((CONSTANT_3,), CHAIN_STAGES, None, "sup",
     "witness 0 has stage 1, declared sup 3"),
])
def test_verifier_rejects_a_map_past_its_computed_sup(
        families, exceptions, fallback, subject, message):
    candidate = SymbolicStageMap(
        families, exceptions, fallback and fallback.__getitem__)
    report = verify_symbolic_stages(chain(), candidate, sample=3)
    assert message in messages(report, "sup", subject)
    # a limit stage breaks the successor rule as well
    assert {rule for rule, _ in found(report)} <= {"sup", "successor"}
    assert report.grounding_ordinal is None


@pytest.mark.parametrize("spec, sup", [
    ("bs", (W2, False, None)),
    ("ord:w", (OMEGA, False, None)),
    ("ord:w*2+3", (W2 + 3, True, 0)),
    ("ord:w^2", (parse_ordinal("w^2"), False, None)),
    ("ord:w+1", (OMEGA + 1, True, 0)),
    ("ord:w^3+w^2*2+1", (parse_ordinal("w^3+w^2*2+1"), True, 0)),
    ("union(bs,ord:w)", (W2, False, None)),
    ("union(union(bs,ord:w),ord:w^2)", (parse_ordinal("w^2"), False, None)),
    ("union(ord:3,ord:w+2)", (OMEGA + 2, True, 1)),
])
def test_generators_stage_maps_compute_their_sup(spec, sup):
    assert materialize_spec(parse_generator_spec(spec)) \
        .candidate_stages.declared_sup() == sup


def test_a_union_whose_best_part_has_sup_1_verifies():
    # every argument of the lazy part is unattacked, at stage 1
    lazy = LazyAF(lambda x, y: False, lambda i: Members(),
                  candidate_stages=SymbolicStageMap(families=(Family(
                      IndexMap.affine(1, 0), expr=AffineOrdinalExpr.affine(0, 1)),)))
    for finite in (FiniteAF(2, [(0, 1)]), FiniteAF(0), None):
        af = lazy if finite is None else disjoint_union([finite, lazy])
        report = verify_symbolic_stages(af, af.candidate_stages, sample=16)
        assert report.ok, report.lines()
        assert report.grounding_ordinal == ONE


def test_verifier_spot_checks_attacker_families():
    # b_0's attackers listed as the even a's, which do not attack it
    base = two_chain_lazy(all_never=True)
    even_a = Family(IndexMap.affine(4, 0))
    af = LazyAF(base.attacks, lambda i: Members(families=(even_a,))
                if i == 1 else base.attacker_spec(i))
    report = verify_symbolic_stages(af, two_chain_candidate(), sample=4)
    assert "spec of 1: family member 0 (k=0) does not attack" in \
        messages(report, "attacker-spec", "spec")


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
              "union(ord:w^2,ord:w+3)", "union(ord:w*2,union(ord:5,bs))"]


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
