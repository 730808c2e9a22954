"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expected value is exact (no tolerances anywhere); timing budgets
are asserted with the stated bounds.  Oracles are independent: the
least-fixpoint check re-implements the defense function on bitmasks and
enumerates all subsets, the tree side re-runs the textbook rank
recursion, and truncation growth is brute-forced with the finite engine
only.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.
"""

import random
import time

import pytest

from transfinite_af.constructions import (
    af_from_finite_tree,
    baumann_spanring,
    ordinal_target_af,
)
from transfinite_af.core import FiniteAF
from transfinite_af.grounded import (
    grounded_finite,
    stages_finite,
    verify_symbolic_stages,
)
from transfinite_af.ordinals import (
    NEVER,
    OMEGA,
    AffineOrdinalExpr,
    Ordinal,
    format_ordinal,
    fundamental_sequence,
    fundamental_sequence_expr,
    omega_power,
    parse_ordinal,
)
from transfinite_af.rank_analysis import (
    build_Ta,
    build_TS,
    largest_self_defending,
    ta_path_violations,
    ta_rank,
    ts_path_exists,
    witness_path,
)
from transfinite_af.trees import FiniteTree

W2 = OMEGA + OMEGA
W_SQ = omega_power(2)


def _line(num, ok, message):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")


def random_finite_af(rng, max_args):
    n = rng.randint(1, max_args)
    p = rng.uniform(0.05, 0.5)
    return FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                        if rng.random() < p])


@pytest.fixture(scope="module")
def corpus_500():
    rng = random.Random(20250501)
    return [random_finite_af(rng, 12) for _ in range(500)]


@pytest.fixture(scope="module")
def corpus_300():
    rng = random.Random(20250308)
    return [random_finite_af(rng, 8) for _ in range(300)]


# -- criterion 1: least-fixpoint exactness ------------------------------------


def oracle_least_fixpoint(af):
    """All-subsets enumeration with a bitmask defense function."""
    n = af.n
    targets = [0] * n
    attackers = [0] * n
    for x, y in af.attack_pairs:
        targets[x] |= 1 << y
        attackers[y] |= 1 << x
    fixpoints = []
    for s in range(1 << n):
        s_plus = 0
        t = s
        while t:
            low = t & -t
            s_plus |= targets[low.bit_length() - 1]
            t ^= low
        if all(attackers[i] & ~s_plus == 0 for i in range(n)
               if s >> i & 1) and _defended_mask(attackers, s_plus, n) == s:
            fixpoints.append(s)
    least = min(fixpoints, key=lambda s: bin(s).count("1"))
    assert all(least & ~s == 0 for s in fixpoints), \
        "oracle: fixpoints have no inclusion-minimum"
    return frozenset(i for i in range(n) if least >> i & 1)


def _defended_mask(attackers, s_plus, n):
    out = 0
    for i in range(n):
        if attackers[i] & ~s_plus == 0:
            out |= 1 << i
    return out


def test_criterion_01_least_fixpoint(corpus_500):
    start = time.perf_counter()
    bad = [af for af in corpus_500
           if grounded_finite(af).grounded != oracle_least_fixpoint(af)]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60
    _line(1, ok, f"least fixpoint exact on 500 AFs, n<=12 "
                 f"({elapsed:.1f}s, budget 60s)")
    assert not bad
    assert elapsed < 60


# -- criterion 2: grounding ordinal bound + conflict-freeness --------------------


def test_criterion_02_bound_and_conflict_freeness(corpus_500):
    bad = []
    for af in corpus_500:
        r = grounded_finite(af)
        if r.grounding_ordinal > af.n or not af.is_conflict_free(r.grounded):
            bad.append(af)
    _line(2, not bad, "grounding ordinal <= n and G conflict-free on 500 AFs")
    assert not bad


# -- criterion 3: dual characterization -----------------------------------------


def test_criterion_03_dual_characterization(corpus_500):
    bad = []
    for af in corpus_500:
        complement = frozenset(range(af.n)) - \
            af.plus_set(grounded_finite(af).grounded)
        if largest_self_defending(af) != complement:
            bad.append(af)
    _line(3, not bad, "largest self-defending = complement of G+ on 500 AFs")
    assert not bad


# -- criterion 4: the T_S path question ------------------------------------------


def test_criterion_04_ts_iff(corpus_300):
    start = time.perf_counter()
    problems = []
    seeds_checked = 0
    for idx, af in enumerate(corpus_300):
        result = grounded_finite(af)
        g_plus = af.plus_set(result.grounded)
        stages = result.stages
        seeds = [frozenset()] + [frozenset({x}) for x in range(af.n)]
        seeds += [frozenset({x, y}) for x in range(af.n)
                  for y in range(x + 1, af.n)]
        for s in seeds:
            seeds_checked += 1
            d = ts_path_exists(af, s, prefix_depth=100)
            if d.path_exists != (not (s & g_plus)):
                problems.append(f"AF {idx}: decision mismatch for {sorted(s)}")
                continue
            if d.path_exists:
                if len(d.prefix) != 100:
                    problems.append(f"AF {idx}: short certificate for {sorted(s)}")
                if idx % 37 == 0:
                    if not build_TS(af, s).member(d.prefix[:24]):
                        problems.append(
                            f"AF {idx}: prefix not in T_S for {sorted(s)}")
            else:
                r = d.rank.as_int()
                bound = Ordinal.from_int(r + 1)
                hit = any(stages[g] is not NEVER and stages[g] <= bound
                          for x in s for g in af.attackers_of(x))
                if not hit:
                    problems.append(
                        f"AF {idx}: rank {r} but no G_{r + 1} member attacks "
                        f"{sorted(s)}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 180
    _line(4, ok, f"T_S path question certified both ways on 300 AFs, "
                 f"{seeds_checked} seeds ({elapsed:.1f}s, budget 180s)")
    assert not problems, problems[:5]
    assert elapsed < 180


# -- criterion 5: the rank/stage bridge --------------------------------------------


def test_criterion_05_rank_stage_bridge(corpus_300):
    problems = []
    for idx, af in enumerate(corpus_300):
        result = grounded_finite(af)
        g_plus = af.plus_set(result.grounded)
        for a in range(af.n):
            if a in result.grounded:
                r = ta_rank(af, a).as_int()
                stage = result.stages[a]
                if stage is NEVER or stage > r + 1:
                    problems.append(
                        f"AF {idx}: grounded {a} has stage {stage}, rank {r}")
            else:
                path = witness_path(af, a, 100)
                if len(path) != 100 or ta_path_violations(af, a, path, g_plus):
                    problems.append(f"AF {idx}: no verified path for {a}")
    _line(5, not problems,
          "T^a rank bounds stages for grounded args; depth-100 paths otherwise")
    assert not problems, problems[:5]


# -- criterion 6: the tree-to-AF characterization ------------------------------------


def random_tree(rng, max_nodes):
    paths = [()]
    for _ in range(rng.randint(1, max_nodes - 1)):
        parent = rng.choice(paths)
        paths.append(parent + (rng.randint(0, 3),))
    return FiniteTree(paths)


def test_criterion_06_tree_af_characterization():
    start = time.perf_counter()
    rng = random.Random(20250406)
    problems = []
    for i in range(100):
        ft = af_from_finite_tree(random_tree(rng, 200))
        got = stages_finite(ft.af)
        ranks = ft.tree.node_ranks()
        for p in ft.order:
            if got[ft.a_index[p]] != ranks[p] + 1:
                problems.append(f"tree {i}: a at {list(p)} off")
            if got[ft.b_index[p]] is not NEVER:
                problems.append(f"tree {i}: b at {list(p)} not NEVER")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60
    _line(6, ok, f"stage(a) = rank+1 and b never, 100 trees <= 200 nodes "
                 f"({elapsed:.1f}s, budget 60s)")
    assert not problems, problems[:5]
    assert elapsed < 60


# -- criterion 7: the two-chain reproduction -------------------------------------------


def test_criterion_07_two_chain():
    af = baumann_spanring()
    report = verify_symbolic_stages(af, af.candidate_stages, sample=48)
    symbolic_ok = report.ok and report.grounding_ordinal == W2

    growth_ok = True
    for m in range(1, 51):
        fin = baumann_spanring(truncate=2 * m)
        stage = stages_finite(fin)[fin.index_of("b0")]
        if stage is NEVER or not stage.as_int() > m - 1:
            growth_ok = False
            break
    ok = symbolic_ok and growth_ok
    _line(7, ok, "lazy generator certified at w*2; b0 stage exceeds m-1 "
                 "in size-2m truncations up to m=50")
    assert symbolic_ok, report.lines()
    assert growth_ok


# -- criterion 8: ordinal-target builders ----------------------------------------------


def test_criterion_08_ordinal_targets():
    problems = []
    for k in range(1, 11):
        got = grounded_finite(ordinal_target_af(k)).grounding_ordinal
        if got != k:
            problems.append(f"target {k}: brute-force ordinal {got}")

    for alpha in (OMEGA, OMEGA + 2, W2, W_SQ):
        af = ordinal_target_af(alpha)
        report = verify_symbolic_stages(af, af.candidate_stages, sample=40)
        if not report.ok or report.grounding_ordinal != alpha:
            problems.append(f"target {format_ordinal(alpha)}: not certified")

    # width growth: strictly increasing finite ordinals below alpha.  The
    # w<=30 sweep is physically impossible for w^2 (a width-30 truncation
    # of the rank-w^2 tree has ~30^29 nodes), so that family is swept to
    # width 6 (~78k arguments); see the decisions ledger.
    sweeps = [(OMEGA, 30), (OMEGA + 2, 30), (W2, 30), (W_SQ, 6)]
    for alpha, max_w in sweeps:
        prev = -1
        for w in range(1, max_w + 1):
            g = grounded_finite(
                ordinal_target_af(alpha, truncate=w)).grounding_ordinal
            if not g.is_finite or not Ordinal.from_int(g.as_int()) < alpha \
                    or g.as_int() <= prev:
                problems.append(
                    f"target {format_ordinal(alpha)} truncation w={w}: "
                    f"ordinal {g} after {prev}")
                break
            prev = g.as_int()

    _line(8, not problems,
          "targets exact for k=1..10; w, w+2, w*2, w^2 certified; truncation "
          "growth strict (w<=30; w^2 swept to 6, see ledger)")
    assert not problems, problems[:5]


# -- criterion 9: witness paths ----------------------------------------------------------


def test_criterion_09_witness_paths():
    rng = random.Random(20250909)
    problems = []
    witnesses = 0
    for idx in range(300):
        af = random_finite_af(rng, 8)
        result = grounded_finite(af)
        g_plus = af.plus_set(result.grounded)
        for a in range(af.n):
            if a in result.grounded:
                continue
            witnesses += 1
            path = witness_path(af, a, 100)
            bad = ta_path_violations(af, a, path, g_plus)
            if len(path) != 100 or bad:
                problems.append(f"AF {idx} argument {a}: {bad[:1]}")
            if witnesses % 25 == 0:
                if not build_Ta(af, a).member(path[:16]):
                    problems.append(f"AF {idx} argument {a}: tree walk rejects")
    ok = not problems and witnesses > 300
    _line(9, ok, f"{witnesses} non-grounded arguments, depth-100 verified "
                 "prefixes, committed sets clear of G+")
    assert not problems, problems[:5]
    assert witnesses > 300


# -- criterion 10: the ordinal module -----------------------------------------------------


def test_criterion_10_ordinal_properties():
    start = time.perf_counter()
    rng = random.Random(20251010)
    problems = []
    checks = 0

    def random_ordinal(depth=2):
        if depth == 0 or rng.random() < 0.5:
            terms = []
            for e in range(rng.randint(0, 4), -1, -1):
                if rng.random() < 0.5:
                    terms.append((Ordinal.from_int(e), rng.randint(1, 9)))
            return Ordinal(tuple(terms))
        exps = sorted({random_ordinal(depth - 1)
                       for _ in range(rng.randint(1, 3))}, reverse=True)
        return Ordinal(tuple((e, rng.randint(1, 4)) for e in exps))

    while checks < 10_000:
        x, y = random_ordinal(), random_ordinal()
        if (x < y) + (x == y) + (x > y) != 1:
            problems.append(f"trichotomy: {x} vs {y}")
        checks += 1
        if parse_ordinal(format_ordinal(x)) != x:
            problems.append(f"roundtrip: {x}")
        checks += 1
        a, b = rng.randint(1, 3), rng.randint(0, 5)
        expr = AffineOrdinalExpr.affine(a, b)
        value, attained = expr.sup_over()
        if attained or value != OMEGA or expr.evaluate(7) != a * 7 + b:
            problems.append(f"affine sup: {a}k+{b}")
        checks += 1
        if x.is_limit:
            i = rng.randint(0, 4)
            lo, hi = fundamental_sequence(x, i), fundamental_sequence(x, i + 1)
            if not (lo < hi < x):
                problems.append(f"fundamental sequence at {x}")
            expr = fundamental_sequence_expr(x)
            if expr is not None and expr.sup_over() != (x, False):
                problems.append(f"fundamental family sup at {x}")
        checks += 1
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10
    _line(10, ok, f"{checks} randomized ordinal checks "
                  f"({elapsed:.1f}s, budget 10s)")
    assert not problems, problems[:5]
    assert elapsed < 10
