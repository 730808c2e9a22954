"""The O(n+m) stage kernel against the round-by-round engines it replaced.

`grounded_finite`, `largest_self_defending` and `omega_approximation`
must agree exactly with the reference loops kept in `checks.py`: the same
grounded set, every stage, the grounding ordinal, the grounded labelling
the kernel's final counts give, the largest self-defending set, and every
field of a window approximation.  A finite AF answers the attacker
queries the engines ask as its lazy view does.
"""

import random

import pytest

from transfinite_af import checks, cli, grounded, rank_analysis
from transfinite_af.checks import (
    bad_classes,
    eliminated_self_defending,
    grounded_classes,
    iterated_defense_step,
    predicate_omega_approximation,
)
from transfinite_af.core import FiniteAF, LazyAF, Members, format_apx, \
    parse_apx, spot_check_attacker_spec
from transfinite_af.grounded import GroundedResult, SymbolicStageMap, \
    grounded_finite, omega_approximation, stages_finite, verify_symbolic_stages
from transfinite_af.ordinals import NEVER, Ordinal
from transfinite_af.rank_analysis import largest_self_defending, \
    ta_path_exists, ts_path_exists, witness_path


def cycle(n):
    return FiniteAF(n, [(i, (i + 1) % n) for i in range(n)])


def shaped_afs():
    """Hand-picked shapes: empty, isolated, self-attacks, even and odd cycles."""
    return [
        FiniteAF(0),
        FiniteAF(1),
        FiniteAF(4),
        FiniteAF(1, [(0, 0)]),
        FiniteAF(3, [(0, 0), (0, 1), (1, 2)]),
        FiniteAF(3, [(1, 1), (0, 1), (1, 2)]),
        cycle(2), cycle(3), cycle(4), cycle(5),
        # a chain feeding an even cycle, and one feeding an odd cycle
        FiniteAF(5, [(0, 1), (1, 2), (2, 3), (3, 2), (4, 4)]),
        FiniteAF(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (5, 0)]),
        # a long chain: one argument per two rounds
        FiniteAF(40, [(i, i + 1) for i in range(39)]),
    ]


def random_afs(seed, count, max_args):
    """Dense and sparse random AFs; self-attacks and cycles occur freely."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_args)
        if rng.random() < 0.5:
            p = rng.uniform(0.05, 0.5)
            attacks = [(x, y) for x in range(n) for y in range(n)
                       if rng.random() < p]
        else:
            attacks = [(rng.randrange(n), rng.randrange(n))
                       for _ in range(rng.randint(0, 2 * n))]
        out.append(FiniteAF(n, attacks))
    return out


CORPUS = shaped_afs() + random_afs(2026, 300, 14) + random_afs(7, 40, 80)


def test_grounded_finite_matches_iterated_defense_step():
    for af in CORPUS:
        got = grounded_finite(af)
        want = iterated_defense_step(af)
        assert got.grounded == want.grounded, af.attack_pairs
        assert got.grounding_ordinal == want.grounding_ordinal, af.attack_pairs
        assert got.stages == want.stages, af.attack_pairs
        assert sorted(got.stages) == list(range(af.n))
        assert all(got.layers), af.attack_pairs
        # pairwise disjoint: their sizes add up to the size of their union
        assert sum(map(len, got.layers)) == len(got.grounded), af.attack_pairs
        assert [sorted(layer) for layer in got.layers] == \
            [list(layer) for layer in want.layers], af.attack_pairs


def _stage_map_fails(monkeypatch):
    """Make reading any GroundedResult's stage map fail the test."""
    def read(result):
        pytest.fail("a stage map was built")
    monkeypatch.setattr(grounded.GroundedResult, "stages", property(read))


def test_grounding_alone_builds_no_stage_map(monkeypatch, tmp_path):
    _stage_map_fails(monkeypatch)
    for af in CORPUS:
        largest_self_defending(af)
        ts_path_exists(af, frozenset(range(min(af.n, 2))))
        for a in range(min(af.n, 3)):
            ta_path_exists(af, a)
            if a not in grounded_finite(af).grounded:
                witness_path(af, a, 5)
    for i, af in enumerate(CORPUS[::8]):
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        spec = f"apx:{path}"
        for argv in (["grounded", spec], ["grounded", spec, "--stages"],
                     ["grounded", spec, "--stages", "--format", "text"],
                     ["self-defending", spec]):
            assert cli.main(argv) == 0, argv


def test_the_stage_map_guard_catches_a_grounding_that_reads_it(monkeypatch):
    def reading(af):
        result = grounded_finite(af)
        result.stages
        return result

    _stage_map_fails(monkeypatch)
    monkeypatch.setattr(rank_analysis, "grounded_finite", reading)
    with pytest.raises(pytest.fail.Exception, match="a stage map was built"):
        largest_self_defending(CORPUS[-1])


def test_largest_self_defending_matches_elimination():
    for af in CORPUS:
        assert largest_self_defending(af) == eliminated_self_defending(af), \
            af.attack_pairs


def test_parsed_afs_ground_from_their_attack_rows_alone():
    """grounded and self-defending on a parsed AF build no attacker rows,
    and agree with the references."""
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(4, 40)
        # argument 0 attacks itself, 1 and 2 attack each other, and the
        # last argument is isolated
        attacks = {(0, 0), (1, 2), (2, 1)} | {
            (rng.randrange(n - 1), rng.randrange(n - 1))
            for _ in range(rng.randint(0, 2 * n))}
        af = FiniteAF(n, attacks, [f"x{rng.randrange(99)}_{i}" for i in range(n)])
        parsed = parse_apx(format_apx(af))
        got = grounded_finite(parsed)
        members = largest_self_defending(parsed)
        assert parsed._rev_rows is None
        want = iterated_defense_step(af)
        assert (got.grounded, got.grounding_ordinal, got.stages) == \
            (want.grounded, want.grounding_ordinal, want.stages), attacks
        assert got.stages[n - 1] == 1
        assert members == eliminated_self_defending(af), attacks


class UnscannedRows(tuple):
    """Attack rows that may be indexed but not passed over whole."""

    def __iter__(self):
        pytest.fail("a pass over every attack")


def built_rows_afs():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 30)
        af = FiniteAF(n, {(rng.randrange(n), rng.randrange(n))
                          for _ in range(rng.randint(0, 3 * n))})
        af.attackers_of(0)  # builds the attacker rows
        yield af


def test_built_attacker_rows_give_the_counts(monkeypatch):
    """Once an AF's attacker rows are built, grounding reads the counts
    from their lengths instead of passing over every attack again."""
    for af in built_rows_afs():
        want = iterated_defense_step(af)
        with monkeypatch.context() as m:
            m.setattr(af, "_fwd", UnscannedRows(af._fwd))
            got = grounded_finite(af)
        assert (got.grounded, got.grounding_ordinal, got.stages) == \
            (want.grounded, want.grounding_ordinal, want.stages)
        assert grounded_classes(got) == grounded_classes(want)


def test_the_row_guard_catches_counts_from_the_attack_rows(monkeypatch):
    af = FiniteAF(3, [(0, 1), (1, 2)])
    monkeypatch.setattr(af, "_fwd", UnscannedRows(af._fwd))
    with pytest.raises(pytest.fail.Exception, match="a pass over every attack"):
        grounded_finite(af)


def parsed_afs():
    rng = random.Random(26)
    for _ in range(40):
        n = rng.randint(1, 40)
        yield parse_apx(format_apx(FiniteAF(n, {
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))})))


def test_the_counts_are_the_grounded_labelling():
    """IN, OUT and UNDEC partition the arguments: IN is G, OUT is G+ and
    its complement is the largest self-defending set, on the corpus, on
    parsed AFs and on AFs whose attacker rows are built."""
    for af in CORPUS + list(parsed_afs()) + list(built_rows_afs()):
        result = grounded_finite(af)
        classes = grounded_classes(result)
        assert len(result.counts) == af.n
        assert sorted(x for c in classes for x in c) == list(range(af.n))
        g, g_plus, undecided = classes
        assert g == result.grounded
        assert g_plus == af.plus_set(g), af.attack_pairs
        assert undecided == frozenset(range(af.n)) - g - g_plus
        rest = frozenset(range(af.n)) - g_plus
        assert rest == eliminated_self_defending(af), af.attack_pairs
        assert result.of_grounded(range(af.n)) == sorted(g)
        assert result.outside_plus(range(af.n)) == sorted(rest)
        assert classes == grounded_classes(iterated_defense_step(af))


def test_the_labelling_oracle_sees_a_dropped_g_plus_member(monkeypatch):
    """check lemmas' oracle against G by all subsets (n <= 10) and by
    rounds (n > 10): it passes the kernel and fails counts that read one
    G+ member UNDEC."""
    def dropped(af):
        result = grounded_finite(af)
        counts = list(result.counts)
        counts[counts.index(min(counts))] = 1
        return GroundedResult(result.layers, counts)

    with_plus = [af for af in CORPUS
                 if af.n and min(grounded_finite(af).counts) < 0]
    assert {af.n <= 10 for af in with_plus} == {True, False}
    assert not any(map(bad_classes, CORPUS))
    monkeypatch.setattr(checks, "grounded_finite", dropped)
    assert all(map(bad_classes, with_plus))


def _plus_set_fails(monkeypatch):
    """Make any call of FiniteAF.plus_set fail the test."""
    def plus_set(af, s):
        pytest.fail("FiniteAF.plus_set was called")
    monkeypatch.setattr(FiniteAF, "plus_set", plus_set)


def test_the_cli_reads_g_plus_off_the_counts(monkeypatch, tmp_path, capsys):
    _plus_set_fails(monkeypatch)
    for i, af in enumerate(CORPUS[::8]):
        if not 0 < af.n <= 14:
            continue
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        spec = f"apx:{path}"
        g = grounded_finite(af).grounded
        inside = [af.names[x] for x in sorted(g)][:1]
        outside = [af.names[x] for x in range(af.n) if x not in g][:1]
        argvs = [["grounded", spec], ["grounded", spec, "--stages"],
                 ["self-defending", spec], ["reduce", "ts", "--af", spec],
                 ["reduce", "ts", "--af", spec, "--set", af.names[0]]]
        argvs += [["reduce", "ta", "--af", spec, "--arg", a]
                  for a in inside + outside]
        argvs += [["reduce", "witness", "--af", spec, "--arg", a,
                   "--length", "5"] for a in outside]
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_the_plus_set_guard_catches_a_consumer_that_calls_it(monkeypatch,
                                                             tmp_path):
    def rebuilding(af):
        result = grounded_finite(af)
        af.plus_set(result.grounded)
        return result

    _plus_set_fails(monkeypatch)
    monkeypatch.setattr(cli, "grounded_finite", rebuilding)
    path = tmp_path / "af.apx"
    path.write_text(format_apx(CORPUS[-1]))
    with pytest.raises(pytest.fail.Exception, match="plus_set was called"):
        cli.main(["self-defending", f"apx:{path}"])


def test_shapes_have_the_expected_stages():
    assert grounded_finite(FiniteAF(0)).grounding_ordinal == 0
    assert grounded_finite(FiniteAF(0)).stages == {}
    assert largest_self_defending(FiniteAF(0)) == frozenset()
    for n in (2, 3, 4, 5):
        r = grounded_finite(cycle(n))
        assert r.grounded == frozenset() and r.grounding_ordinal == 0
        assert all(v is NEVER for v in r.stages.values())
        # self-defence does not ask for conflict-freeness: a cycle of any
        # length counter-attacks each of its own attackers
        assert largest_self_defending(cycle(n)) == frozenset(range(n))
    tail = FiniteAF(3, [(0, 1), (1, 2), (2, 1)])
    assert largest_self_defending(tail) == frozenset({0, 2})
    chain = grounded_finite(FiniteAF(40, [(i, i + 1) for i in range(39)]))
    assert chain.grounding_ordinal == 20
    assert chain.stages[38] == 20 and chain.stages[39] is NEVER


# -- the window engine -----------------------------------------------------------


def lazy_of(af: FiniteAF, doubled: bool = False) -> LazyAF:
    """af as a lazy AF, asked only below n; `doubled` lists each attacker
    twice."""
    def spec(i):
        att = af.attackers_of(i)
        return Members(explicit=att + att if doubled else att)

    return LazyAF(af.attacks, spec)


def infinite_chain():
    def spec(i):
        return Members(explicit=(() if i == 0 else (i - 1,)))

    return LazyAF(lambda x, y: y == x + 1, spec)


def lattice():
    """Over all of N: i is attacked by i+1 when i is even and by i-1 when
    i > 0 is odd; every 3rd argument attacks itself too."""
    def attacks(x, y):
        return (y % 2 == 0 and x == y + 1) or (y % 2 == 1 and x == y - 1) \
            or (x == y and y % 3 == 0)

    def spec(i):
        att = (i + 1,) if i % 2 == 0 else (i - 1,)
        return Members(explicit=att + ((i,) if i % 3 == 0 else ()))

    return LazyAF(attacks, spec)


def test_omega_matches_predicate_rounds_on_random_windows():
    rng = random.Random(404)
    for af in CORPUS[:120]:
        if af.n == 0:
            continue
        for doubled in (False, True):
            lazy = lazy_of(af, doubled)
            window = rng.randint(1, af.n)
            for steps in (1, 2, 3, af.n, af.n + 2):
                got = omega_approximation(lazy, window, steps)
                want = predicate_omega_approximation(lazy, window, steps)
                assert got == want, (af.attack_pairs, window, steps)


@pytest.mark.parametrize("make", [infinite_chain, lattice])
def test_omega_matches_predicate_rounds_on_infinite_afs(make):
    for window in (1, 2, 5, 10, 17):
        for steps in range(1, 12):
            got = omega_approximation(make(), window, steps)
            want = predicate_omega_approximation(make(), window, steps)
            assert got == want, (window, steps)


def test_omega_not_stabilized_when_every_round_adds():
    # the closure of window 10 has five nonempty rounds; with exactly five
    # steps no round is seen to add nothing, so nothing is decided NEVER
    approx = omega_approximation(infinite_chain(), window=10, steps=5)
    assert not approx.stabilized
    assert approx.stages == {0: 1, 2: 2, 4: 3, 6: 4, 8: 5}
    assert approx.never == frozenset()
    assert approx.unknown == frozenset({1, 3, 5, 7, 9})
    assert approx.closure == frozenset(range(10))
    assert approx == predicate_omega_approximation(infinite_chain(), 10, 5)

    more = omega_approximation(infinite_chain(), window=10, steps=6)
    assert more.stabilized and more.stages == approx.stages
    assert more.never == frozenset({1, 3, 5, 7, 9}) and not more.unknown


# -- one query interface ----------------------------------------------------------


def test_finite_af_answers_the_lazy_queries():
    rng = random.Random(77)
    for af in CORPUS[:200]:
        lazy = lazy_of(af)
        assert af.universe == af.n and lazy.universe is None
        for a in range(af.n):
            assert af.attacker_spec(a) == lazy.attacker_spec(a) == \
                Members(explicit=af.attackers_of(a))
            for hi in {0, a, rng.randint(0, af.n), af.n, af.n + 5}:
                below = [x for x in range(min(hi, af.n)) if af.attacks(x, a)]
                assert list(af.attacker_candidates(a, hi)) == below, (a, hi)
                # the lazy view scans in full: a superset, in order
                full = list(lazy.attacker_candidates(a, min(hi, af.n)))
                assert full == list(range(min(hi, af.n)))
        assert spot_check_attacker_spec(af, range(af.n), bound=af.n + 16) == []


def _perturbed(stages, rng):
    x = rng.choice(sorted(stages))
    tampered = dict(stages)
    if stages[x] is NEVER:
        tampered[x] = Ordinal.from_int(rng.randint(1, len(stages) + 1))
    elif rng.random() < 0.5:
        tampered[x] = stages[x] + 1
    else:
        tampered[x] = NEVER
    return tampered


def total_view(af: FiniteAF) -> LazyAF:
    """lazy_of(af) over all of N: indices past n attack nothing."""
    return LazyAF(lambda x, y: max(x, y) < af.n and af.attacks(x, y),
                  lazy_of(af).attacker_spec)


def test_verifier_reports_alike_on_a_finite_af_and_its_lazy_view():
    rng = random.Random(515)
    for af in CORPUS[:160]:
        if af.n == 0:
            continue
        exact = stages_finite(af)
        for stages in (exact, _perturbed(exact, rng)):
            candidate = SymbolicStageMap.from_finite(stages)
            for sample in {1, rng.randint(1, af.n), af.n}:
                got = verify_symbolic_stages(af, candidate, sample)
                assert got == verify_symbolic_stages(total_view(af), candidate,
                                                     sample), sample
            # a window past the arguments is clipped to them
            whole = verify_symbolic_stages(af, candidate, af.n)
            assert verify_symbolic_stages(af, candidate, af.n + 7) == whole
            assert whole.checked == af.n
            assert whole.ok == (stages is exact), stages


def test_omega_reports_alike_on_a_finite_af_and_its_lazy_view():
    rng = random.Random(616)
    for af in CORPUS[:160]:
        if af.n == 0:
            continue
        for window in {1, rng.randint(1, af.n), af.n}:
            for steps in (1, 3, af.n + 2):
                assert omega_approximation(af, window, steps) == \
                    omega_approximation(lazy_of(af), window, steps)
