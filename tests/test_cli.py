import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import transfinite_af
from transfinite_af import checks, cli, constructions, trees
from transfinite_af.checks import eliminated_self_defending, \
    iterated_defense_step, path_keyed_expand
from transfinite_af.cli import MAX_CHECK_ARGS, MAX_PATH_LENGTH, MAX_SAMPLE, \
    _SIZE_BOUNDS, build_parser, main
from transfinite_af.constructions import FiniteTreeAF, materialize_spec, \
    parse_generator_spec
from transfinite_af.core import FiniteAF, format_apx, parse_apx
from transfinite_af.grounded import GroundedResult, VerificationReport, \
    grounded_finite
from transfinite_af.ordinals import NEVER, format_ordinal
from transfinite_af.rank_analysis import TsDecision, build_TS, ts_rank
from transfinite_af.trees import TRUNCATE_NODE_CAP, TRUNCATE_SYMBOL_CAP


CHAIN_APX = "arg(a0).\narg(a1).\narg(a2).\natt(a0,a1).\natt(a1,a2).\n"


@pytest.fixture
def chain_path(tmp_path):
    p = tmp_path / "chain.apx"
    p.write_text(CHAIN_APX)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grounded_finite_json(capsys, chain_path):
    code, out, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    assert code == 0
    doc = json.loads(out)
    assert doc["grounded"] == ["a0", "a2"]
    assert doc["grounding_ordinal"] == "2"
    assert doc["stages"] == {"a0": "1", "a1": "NEVER", "a2": "2"}


def test_grounded_bs_reports_omega_times_two(capsys):
    code, out, _ = run(capsys, "grounded", "bs")
    assert code == 0
    assert json.loads(out)["grounding_ordinal"] == "w*2"


def test_grounded_ord_w(capsys):
    code, out, _ = run(capsys, "grounded", "ord:w")
    assert code == 0
    doc = json.loads(out)
    assert doc["grounding_ordinal"] == "w" and doc["verified"]


def test_grounded_finite_text(capsys, chain_path):
    code, out, err = run(capsys, "grounded", f"apx:{chain_path}", "--format", "text")
    assert (code, out, err) == (0, "grounded: a0 a2\ngrounding ordinal: 2\n", "")
    code, out, err = run(capsys, "grounded", f"apx:{chain_path}", "--format", "text",
                         "--stages")
    assert (code, err) == (0, "")
    assert out == ("grounded: a0 a2\ngrounding ordinal: 2\n"
                   "stage a0: 1\nstage a1: NEVER\nstage a2: 2\n")


def test_grounded_lazy_text_with_stages(capsys):
    code, out, err = run(capsys, "grounded", "ord:w*2+1", "--format", "text",
                         "--stages", "--sample", "6")
    assert (code, err) == (0, "")
    assert out == ("grounding ordinal: w*2+1 (verified on 6 arguments)\n"
                   "stage a: w*2+1\nstage a_0: w+1\nstage a_0_0: 1\n"
                   "stage b: NEVER\nstage b_0: NEVER\nstage b_0_0: NEVER\n")


def test_gen_output_file(capsys, tmp_path):
    _, printed, _ = run(capsys, "gen", "ord:w:truncate=3")
    target = tmp_path / "out.apx"
    code, out, err = run(capsys, "gen", "ord:w:truncate=3", "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == printed and printed.count("arg(") == 12


def test_grounded_deterministic_output(capsys, chain_path):
    _, first, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    _, second, _ = run(capsys, "grounded", f"apx:{chain_path}", "--stages")
    assert first == second


def test_self_defending(capsys, chain_path):
    code, out, _ = run(capsys, "self-defending", f"apx:{chain_path}")
    assert code == 0
    assert json.loads(out)["largest_self_defending"] == ["a0", "a2"]


def _oracle_stdout(af):
    """What `grounded --stages` and `self-defending` print, from the
    round-by-round reference engines."""
    r = iterated_defense_step(af)
    grounded = {
        "grounded": [af.name(i) for i in sorted(r.grounded)],
        "grounding_ordinal": format_ordinal(r.grounding_ordinal),
        "stages": {af.name(i): "NEVER" if v is NEVER else format_ordinal(v)
                   for i, v in r.stages.items()},
    }
    members = eliminated_self_defending(af)
    defending = {"largest_self_defending": [af.name(i) for i in sorted(members)]}
    return (json.dumps(grounded, sort_keys=True) + "\n",
            json.dumps(defending, sort_keys=True) + "\n")


@pytest.mark.parametrize("source", ["bs:truncate=40", "ord:w^2:truncate=4",
                                    "random"])
def test_finite_stdout_matches_reference_engines(capsys, tmp_path, source):
    if source == "random":
        # sparse, so that the stages run several rounds deep
        rng = random.Random(5)
        af = FiniteAF(120, [(rng.randrange(120), rng.randrange(120))
                            for _ in range(180)])
    else:
        af = materialize_spec(parse_generator_spec(source))
    path = tmp_path / "af.apx"
    path.write_text(format_apx(af))
    af = parse_apx(path.read_text())
    want_grounded, want_defending = _oracle_stdout(af)

    code, out, _ = run(capsys, "grounded", f"apx:{path}", "--stages")
    assert code == 0 and out == want_grounded
    code, out, _ = run(capsys, "self-defending", f"apx:{path}")
    assert code == 0 and out == want_defending


def test_tree_commands(capsys, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[]]}')
    code, out, _ = run(capsys, "tree", "rank", "--input", str(tree))
    assert code == 0 and json.loads(out)["rank"] == "0"

    code, out, _ = run(capsys, "tree", "build", "--ordinal", "2")
    assert code == 0
    assert json.loads(out)["nodes"] == [[], [0], [0, 0]]

    code, out, _ = run(capsys, "tree", "build", "--ordinal", "w*2",
                       "--truncate-width", "4")
    assert code == 0
    built = tmp_path / "w2.json"
    built.write_text(out)
    code, out, _ = run(capsys, "tree", "search", "--input", str(built),
                       "--depth", "3", "--width", "4")
    assert code == 0 and json.loads(out)["found"]

    code, out, _ = run(capsys, "tree", "search", "--ordinal", "w",
                       "--depth", "50", "--width", "5")
    assert code == 0
    assert json.loads(out) == {"found": False, "no_path_within": 50}


def test_reduce_ts(capsys, chain_path):
    code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{chain_path}",
                       "--set", "a0", "--depth", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["path_exists"] and len(doc["prefix"]) == 30

    code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{chain_path}",
                       "--set", "a1")
    doc = json.loads(out)
    assert not doc["path_exists"]
    assert doc["rank"] == "0" and doc["tree"]["nodes"] == [[]]


@pytest.mark.parametrize("seed", [(), ("--set", "")])
def test_reduce_ts_with_the_empty_seed(capsys, chain_path, seed):
    # the empty set meets no G+, and no level of T_S is attacked
    code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{chain_path}", *seed)
    assert code == 0
    assert json.loads(out) == {"path_exists": True, "prefix": [0] * 100}


def test_reduce_ts_prints_the_pathless_object_as_json_dumps_does(
        capsys, tmp_path):
    rng = random.Random(61)
    printed = 0
    for i in range(12):
        n, density = rng.randint(3, 9), rng.uniform(0.05, 0.25)
        af = FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                          if rng.random() < density])
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        g_plus = af.plus_set(grounded_finite(af).grounded)
        for x in sorted(g_plus)[:2]:
            tree = path_keyed_expand(build_TS(af, {x}), node_cap=50_000)
            want = json.dumps({"path_exists": False, "rank": str(ts_rank(af, {x})),
                               "tree": {"nodes": [list(p) for p in tree.order]}},
                              sort_keys=True)
            code, out, _ = run(capsys, "reduce", "ts", "--af", f"apx:{path}",
                               "--set", af.names[x])
            assert code == 0 and out == want + "\n"
            printed += len(tree) > 1
    assert printed > 10


def test_reduce_ta(capsys, tmp_path):
    single = tmp_path / "one.apx"
    single.write_text("arg(x).\n")
    code, out, _ = run(capsys, "reduce", "ta", "--af", f"apx:{single}",
                       "--arg", "x")
    assert code == 0
    assert json.loads(out) == {"path_exists": False, "rank": "0"}


@pytest.mark.parametrize("arg, want", [
    ("a0", {"path_exists": False, "rank": "0"}),
    ("a1", {"path_exists": True, "prefix": [0] * 5}),
    ("a2", {"path_exists": False, "rank": "1"}),
])
def test_reduce_ta_grounds_once(capsys, chain_path, monkeypatch, arg, want):
    calls = []

    def counting(af):
        calls.append(af)
        return grounded_finite(af)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("transfinite_af")
                and getattr(module, "grounded_finite", None) is grounded_finite):
            monkeypatch.setattr(module, "grounded_finite", counting)
    code, out, _ = run(capsys, "reduce", "ta", "--af", f"apx:{chain_path}",
                       "--arg", arg, "--depth", "5")
    assert code == 0 and json.loads(out) == want
    assert len(calls) == 1


def test_reduce_witness(capsys, chain_path):
    code, out, _ = run(capsys, "reduce", "witness", "--af", f"apx:{chain_path}",
                       "--arg", "a1", "--length", "20")
    assert code == 0
    assert json.loads(out)["witness"] == [0] * 20

    code, _, err = run(capsys, "reduce", "witness", "--af", f"apx:{chain_path}",
                       "--arg", "a0", "--length", "20")
    assert code == 3 and "grounded" in err


@pytest.mark.parametrize("command, digest", [
    (["witness", "--arg", "a", "--length"],
     "978ed431527264bacdb39ad079910e5328fb3f6f55f662cd1709d4740acfde9b"),
    (["ta", "--arg", "a", "--depth"],
     "fb47b163e5befea93274923529e416ac1686a3738d0adee284c67e6004340fca"),
    (["ts", "--set", "b", "--depth"],
     "54d34ce36cc873391ff5cad380dcd1a5ea121d64d28b7d51e0609aa5b0405156"),
])
def test_reduce_prefixes_at_the_length_cap_are_pinned(capsys, tmp_path,
                                                      command, digest):
    # sha256 of the output while every level was decoded on its own
    path = tmp_path / "three.apx"
    path.write_text("arg(a).\narg(b).\narg(c).\n"
                    "att(a,b).\natt(b,a).\natt(c,a).\n")
    code, out, err = run(capsys, "reduce", command[0], "--af", f"apx:{path}",
                         *command[1:], str(MAX_PATH_LENGTH))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [
    ["reduce", "ts", "--af", "AF", "--set", "a0", "--depth"],
    ["reduce", "ta", "--af", "AF", "--arg", "a1", "--depth"],
    ["reduce", "witness", "--af", "AF", "--arg", "a1", "--length"],
    ["tree", "search", "--ordinal", "w^2", "--width", "3", "--depth"],
    ["tree", "search", "--ordinal", "w^2", "--depth", "3", "--width"],
])
def test_reduce_sizes_are_capped(capsys, chain_path, command):
    command = [f"apx:{chain_path}" if a == "AF" else a for a in command]
    code, out, err = run(capsys, *command, str(MAX_PATH_LENGTH + 1))
    assert code == 2 and out == ""
    assert f"{command[-1]} {MAX_PATH_LENGTH + 1} exceeds the cap of " \
        f"{MAX_PATH_LENGTH}" in err
    if command[0] == "tree":
        return

    code, out, _ = run(capsys, *command[:-1])
    assert code == 0
    doc = json.loads(out)
    assert len(doc.get("prefix", doc.get("witness"))) == 100


# T_S of {a9} is pathless with rank 78 but has more than 2,000,000 nodes
TS_OVER_BUDGET_APX = "".join(f"arg(a{i}).\n" for i in range(13)) + "".join(
    f"att(a{x},a{y}).\n" for x, y in [
        (0, 3), (2, 9), (3, 5), (4, 11), (5, 2), (5, 5), (6, 4), (7, 4), (7, 9),
        (8, 2), (8, 10), (9, 8), (11, 1), (11, 6), (11, 7), (11, 10), (12, 9),
        (12, 10)])


def test_reduce_ts_node_cap_is_capped(capsys, tmp_path):
    path = tmp_path / "ts13.apx"
    path.write_text(TS_OVER_BUDGET_APX)
    assert ts_rank(parse_apx(TS_OVER_BUDGET_APX), {9}) == 78
    command = ["reduce", "ts", "--af", f"apx:{path}", "--set", "a9"]
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--node-cap",
                         str(TRUNCATE_NODE_CAP + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --node-cap {TRUNCATE_NODE_CAP + 1} exceeds the " \
        f"cap of {TRUNCATE_NODE_CAP}\n"
    code, out, err = run(capsys, *command)
    assert code == 3 and out == ""
    assert err == "error: expansion exceeded 20000 nodes\n"


def test_check_max_args_is_capped(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "lemmas", "--trials", "1",
                         "--max-args", str(MAX_CHECK_ARGS + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --max-args {MAX_CHECK_ARGS + 1} exceeds the cap " \
        f"of {MAX_CHECK_ARGS}\n"


@pytest.mark.parametrize("spec", ["bs", "ord:w^3", "AF"])
def test_sample_is_capped(capsys, chain_path, spec):
    spec = f"apx:{chain_path}" if spec == "AF" else spec
    start = time.perf_counter()
    code, out, err = run(capsys, "grounded", spec, "--sample", str(MAX_SAMPLE + 1))
    assert time.perf_counter() - start < 1.0  # refused before any work
    assert code == 2 and out == ""
    assert err == f"error: --sample {MAX_SAMPLE + 1} exceeds the cap of {MAX_SAMPLE}\n"


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "8",
                       "--max-args", "7", "--seed", "42")
    assert code == 0
    assert "pass" in out


def test_check_trials_help_states_each_suites_floor(capsys):
    code, out, _ = run(capsys, "check", "--help")
    assert code == 0
    assert "--trials TRIALS lemma-suite trials; ordinals run max(10 * " \
        "trials, 200) and constructions max(trials // 2, 5)" in " ".join(out.split())
    assert run(capsys, "check", "ordinals", "--trials", "0") == \
        (0, "suite ordinals: pass (200 trials, 200 checks, 0 violations)\n", "")


def test_check_env_seed_overrides(capsys, monkeypatch):
    monkeypatch.setenv("TRANSFINITE_AF_SEED", "9")
    _, first, _ = run(capsys, "check", "lemmas", "--trials", "3",
                      "--max-args", "5", "--seed", "1")
    _, second, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "5", "--seed", "2")
    assert first == second  # env var wins over --seed


def test_check_inject_tampered_fails(capsys, tmp_path):
    bad = tmp_path / "broken.apx"
    bad.write_text(CHAIN_APX + "%stage a0 1\n%stage a1 NEVER\n%stage a2 3\n")
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "2",
                       "--max-args", "4", "--inject", str(bad))
    assert code == 1
    assert "rejected" in out and "minimized" in out


def test_check_inject_exact_passes(capsys, tmp_path):
    good = tmp_path / "fine.apx"
    good.write_text(CHAIN_APX + "%stage a0 1\n%stage a1 NEVER\n%stage a2 2\n")
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "2",
                       "--max-args", "4", "--inject", str(good))
    assert code == 0


def test_check_inject_of_an_af_without_arguments_passes(capsys, tmp_path):
    # the suites that ran before it still print their line
    empty = tmp_path / "empty.apx"
    empty.write_text("% no arguments\n")
    assert run(capsys, "check", "ordinals", "--trials", "0",
               "--inject", str(empty)) == \
        (0, "suite ordinals+inject: pass (201 trials, 200 checks, "
            "0 violations)\n", "")


def test_check_inject_refuses_a_repeated_stage(capsys, tmp_path):
    twice = tmp_path / "twice.apx"
    twice.write_text(CHAIN_APX + "%stage a0 1\n%stage a1 NEVER\n"
                     "%stage a2 1\n%stage a2 2\n")
    assert run(capsys, "check", "lemmas", "--trials", "0",
               "--inject", str(twice)) == \
        (2, "", "error: line 9: duplicate %stage for 'a2'\n")


def test_check_inject_reads_only_the_stage_keyword(capsys, tmp_path):
    # a word that merely starts with %stage is a comment, not an annotation
    note = tmp_path / "note.apx"
    note.write_text("arg(a0).\n%stagenote a0 1\n")
    assert run(capsys, "check", "lemmas", "--trials", "0",
               "--inject", str(note)) == \
        (2, "", "error: injected stage map misses argument a0\n")


def test_importing_the_cli_leaves_the_oracles_unloaded():
    # only `check` imports checks.py
    src = str(Path(transfinite_af.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, transfinite_af.cli; "
         "print('transfinite_af.checks' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_check_lemmas_catches_a_grounded_that_drops_its_last_layer(
        capsys, monkeypatch):
    def short(af):
        result = grounded_finite(af)
        return GroundedResult(result.layers[:-1], result.counts)

    sizes = []
    minimize_af = checks.minimize_af

    def minimized(af, violates):
        small = minimize_af(af, violates)
        sizes.append((af.n, small.n))
        return small

    monkeypatch.setattr(checks, "grounded_finite", short)
    monkeypatch.setattr(checks, "minimize_af", minimized)
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "8", "--seed", "1")
    assert code == 1
    assert "grounded is not the least fixpoint" in out
    assert sizes and all(small <= n for n, small in sizes)


def test_check_lemmas_catches_counts_that_drop_a_g_plus_member(
        capsys, monkeypatch):
    def dropped(af):
        result = grounded_finite(af)
        counts = list(result.counts)
        out = [x for x, c in enumerate(counts) if c < 0]
        if out:
            counts[out[-1]] = 1  # the last of G+ reads UNDEC
        return GroundedResult(result.layers, counts)

    monkeypatch.setattr(checks, "grounded_finite", dropped)
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "8", "--seed", "1")
    assert code == 1
    assert "grounded labelling's IN/OUT/UNDEC classes disagree" in out
    assert "grounded is not the least fixpoint" not in out
    assert "minimized: " in out


def test_check_lemmas_catches_a_ts_path_question_that_flips(
        capsys, monkeypatch):
    ts_path_exists = checks.ts_path_exists

    def flipped(af, seed, prefix_depth=100):
        d = ts_path_exists(af, seed, prefix_depth=prefix_depth)
        return TsDecision(not d.path_exists, d.prefix, d.rank)

    sizes = []
    minimize_af = checks.minimize_af

    def minimized(af, violates):
        small = minimize_af(af, violates)
        sizes.append((af.n, small.n))
        return small

    monkeypatch.setattr(checks, "ts_path_exists", flipped)
    monkeypatch.setattr(checks, "minimize_af", minimized)
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "8", "--seed", "1")
    assert code == 1
    assert "T_S path question disagrees with the oracle" in out
    assert sizes and all(small <= n for n, small in sizes)


def test_check_lemmas_catches_a_witness_path_with_a_wrong_symbol(
        capsys, monkeypatch):
    witness_path = checks.witness_path

    def shifted(af, a, length):
        path = witness_path(af, a, length)
        return (path[0] + 1,) + path[1:]

    sizes = []
    minimize_af = checks.minimize_af

    def minimized(af, violates):
        small = minimize_af(af, violates)
        sizes.append((af.n, small.n))
        return small

    monkeypatch.setattr(checks, "witness_path", shifted)
    monkeypatch.setattr(checks, "minimize_af", minimized)
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "8", "--seed", "1")
    assert code == 1
    assert "witness path through T^" in out
    assert sizes and all(small <= n for n, small in sizes)


def test_check_constructions_catches_a_tree_af_missing_an_attack(
        capsys, monkeypatch):
    af_from_finite_tree = checks.af_from_finite_tree

    def dropped(tree):
        # the root's a no longer attacks its b
        ft = af_from_finite_tree(tree)
        attacks = sorted(ft.af.attack_pairs - {(0, 1)})
        return FiniteTreeAF(FiniteAF(ft.af.n, attacks, ft.af.names), tree)

    monkeypatch.setattr(checks, "af_from_finite_tree", dropped)
    code, out, _ = run(capsys, "check", "constructions", "--trials", "10")
    assert code == 1
    assert "tree-AF stages disagree with node ranks" in out


def test_check_constructions_catches_a_union_that_moves_a_stage(
        capsys, monkeypatch):
    disjoint_union = checks.disjoint_union

    def moved(parts):
        # part 0 loses its first attack inside the union
        first = parts[0]
        attacks = sorted(first.attack_pairs)[1:]
        return disjoint_union([FiniteAF(first.n, attacks, first.names)]
                              + list(parts[1:]))

    monkeypatch.setattr(checks, "disjoint_union", moved)
    code, out, _ = run(capsys, "check", "constructions", "--trials", "10")
    assert code == 1
    assert "union does not preserve stages at part 0" in out


def test_check_lemmas_catches_a_verifier_that_accepts_every_map(
        capsys, monkeypatch):
    def accepting(af, candidate, sample):
        return VerificationReport([], {}, None)

    monkeypatch.setattr(checks, "verify_symbolic_stages", accepting)
    code, out, _ = run(capsys, "check", "lemmas", "--trials", "3",
                       "--max-args", "8", "--seed", "1")
    assert code == 1
    assert "verifier accepted a perturbed stage map" in out


def test_check_ordinals_catches_a_shifted_fundamental_sequence(
        capsys, monkeypatch):
    # still increasing and below x, so only the closed form sees it
    fundamental_sequence = checks.fundamental_sequence
    monkeypatch.setattr(checks, "fundamental_sequence",
                        lambda x, i: fundamental_sequence(x, i + 1))
    code, out, _ = run(capsys, "check", "ordinals", "--trials", "50")
    assert code == 1
    assert re.search(r"fundamental sequence of \S+ at 0 is \S+, "
                     r"closed form gives \S+", out)
    assert "not increasing" not in out


def test_check_emit_plot(capsys, tmp_path):
    csv = tmp_path / "growth.csv"
    code, _, _ = run(capsys, "check", "constructions", "--trials", "2",
                     "--emit-plot", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "truncate,args,b0_stage"
    assert len(lines) == 51
    stages = [int(line.split(",")[2]) for line in lines[1:]]
    assert stages == sorted(stages) and stages[-1] == 51


def test_gen_apx_and_dot_roundtrip(capsys):
    code, apx_out, _ = run(capsys, "gen", "bs:truncate=3")
    assert code == 0
    af = parse_apx(apx_out)
    assert af.n == 6

    code, dot_out, _ = run(capsys, "gen", "bs:truncate=3", "--format", "dot")
    assert code == 0
    nodes = set(re.findall(r'^\s*"([a-zA-Z0-9_]+)";$', dot_out, re.M))
    edges = set(re.findall(r'"([a-zA-Z0-9_]+)" -> "([a-zA-Z0-9_]+)";', dot_out))
    rebuilt = "".join(f"arg({n}).\n" for n in sorted(nodes))
    rebuilt += "".join(f"att({x},{y}).\n" for x, y in sorted(edges))
    reparsed = parse_apx(rebuilt)
    assert {(reparsed.name(x), reparsed.name(y))
            for x, y in reparsed.attack_pairs} == \
        {(af.name(x), af.name(y)) for x, y in af.attack_pairs}
    assert set(reparsed.names) == set(af.names)


def test_gen_lazy_without_truncation_is_domain_error(capsys):
    code, _, err = run(capsys, "gen", "bs")
    assert code == 3 and "truncation" in err


def test_parse_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "grounded", "nonsense:spec")
    assert code == 2
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a.\n")
    code, _, err = run(capsys, "grounded", f"apx:{bad}")
    assert code == 2
    code, _, _ = run(capsys, "grounded", "ord:w^")
    assert code == 2
    code, _, _ = run(capsys, "grounded", f"apx:{tmp_path}/missing.apx")
    assert code == 2


def test_a_missing_file_is_named_as_the_spec_gives_it(capsys, tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    for spec, name in [("apx:nope.apx", "nope.apx"), ("tree:t.json", "t.json"),
                       ("union(bs,apx:nope.apx)", "nope.apx")]:
        code, out, err = run(capsys, "grounded", spec)
        assert (code, out, err) == (
            2, "", f"error: [Errno 2] No such file or directory: '{name}'\n")


def test_zero_truncation_of_a_successor_target_exits_2(capsys):
    for argv, target in [(("gen", "ord:3:truncate=0"), "3"),
                         (("grounded", "ord:w+1:truncate=0"), "w+1")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == ("error: truncate=0 keeps no node of the tree behind "
                       f"successor target {target}; use >= 1\n")
    # limit targets and bs truncate to the empty AF
    for spec in ("ord:w:truncate=0", "bs:truncate=0"):
        assert run(capsys, "gen", spec)[0] == 0


def test_unknown_argument_names_print_the_message_itself(
        capsys, chain_path, tmp_path):
    stages = tmp_path / "stages.apx"
    stages.write_text(CHAIN_APX + "%stage zz 1\n")
    for argv, name in [
            (("reduce", "ta", "--af", f"apx:{chain_path}", "--arg", "zz"), "zz"),
            (("reduce", "ts", "--af", f"apx:{chain_path}", "--set", "a0,,a1"), ""),
            (("check", "lemmas", "--inject", str(stages)), "zz")]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: unknown argument name {name!r}\n"


def test_os_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "grounded", f"apx:{tmp_path}")
    assert code == 2 and err.startswith("error:")


def tree_loading_commands(path):
    """Every command that reads a tree JSON file."""
    return [["tree", "rank", "--input", path],
            ["tree", "search", "--input", path, "--depth", "1", "--width", "1"],
            ["grounded", f"tree:{path}"],
            ["grounded", f"union(tree:{path})"]]


def test_deep_nesting_exits_2(capsys, tmp_path):
    def nested(depth):
        return "w^(" * depth + "1" + ")" * depth

    code, _, err = run(capsys, "grounded", f"ord:{nested(400)}")
    assert code == 2 and "nested deeper" in err
    code, _, err = run(capsys, "tree", "build", "--ordinal", nested(3000))
    assert code == 2 and "nested deeper" in err
    code, _, err = run(capsys, "grounded",
                       "union(" * 1000 + "bs:truncate=2" + ")" * 1000)
    assert code == 2 and "nested deeper" in err
    tree = tmp_path / "t.json"
    tree.write_text("[" * 2000)
    for argv in tree_loading_commands(str(tree)):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: bad tree JSON: ")
        assert "Traceback" not in err


def test_noncanonical_ordinal_warns_once_per_call(capsys):
    warning = "warning: ordinal 'w^(1)+1' normalized to 'w+1'\n"
    with warnings.catch_warnings():
        warnings.resetwarnings()  # the interpreter's once-per-location default
        for _ in range(2):
            code, _, err = run(capsys, "grounded", "ord:w^(1)+1")
            assert code == 0 and err == warning
        code, _, err = run(capsys, "grounded", "union(ord:w^(1)+1,ord:w^(1)+1)")
        assert code == 0 and err == warning


def test_tree_rank_over_its_cap_exits_3(capsys, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0], [1]]}')
    code, out, err = run(capsys, "tree", "rank", "--input", str(tree),
                         "--cap", "2")
    assert (code, out, err) == (3, "", "error: tree rank exceeded 2 nodes\n")
    code, out, _ = run(capsys, "tree", "rank", "--input", str(tree),
                       "--cap", "3")
    assert code == 0 and json.loads(out)["rank"] == "1"


def test_boolean_tree_symbols_exit_2(capsys, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [true], [false]]}')
    for argv in tree_loading_commands(str(tree)) + [["gen", f"tree:{tree}"]]:
        assert run(capsys, *argv) == (2, "", "error: bad node path [True]\n")


def test_a_bad_node_is_quoted_in_one_short_line(capsys, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [' + ", ".join(["1" * 45] * 50) + ", -1]]}")
    code, out, err = run(capsys, "tree", "rank", "--input", str(tree))
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith("error: bad node path [1111") and len(err) <= 121
    # deeper than the nesting cap, as deep as the JSON decoder reads from
    # the command line; the command runs on its own, with a fresh stack
    deep_node_tree(tree)
    src = str(Path(transfinite_af.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "transfinite_af.cli", "tree", "rank",
         "--input", str(tree)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", TOO_DEEP)


def deep_node_tree(path):
    """A tree file whose second node is nested 986 levels deep."""
    path.write_text('{"nodes": [[], ' + "[" * 986 + "]" * 986 + "]}")


TOO_DEEP = (f"error: bad tree JSON: lists nested deeper than "
            f"{trees.MAX_JSON_NESTING} levels\n")


def test_tree_json_nesting_refusal_does_not_depend_on_the_stack(capsys,
                                                               tmp_path):
    # the decoder alone read this file's node in a fresh process but
    # recursed out 60 frames deeper
    tree = tmp_path / "t.json"
    deep_node_tree(tree)

    def below(frames):
        if frames:
            return below(frames - 1)
        return run(capsys, "tree", "rank", "--input", str(tree))

    for frames in (0, 60, 300):
        assert below(frames) == (2, "", TOO_DEEP)


def test_truncated_limit_target_over_budget_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "ord:w:truncate=1000000")
    assert code == 3 and out == ""
    assert err == "error: expansion exceeded 500000 nodes\n"
    assert time.perf_counter() - start < 5


def test_bs_truncation_over_the_node_cap_exits_3(capsys):
    # refused before any row is built: N argument pairs, as N tree nodes
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", f"bs:truncate={TRUNCATE_NODE_CAP + 1}")
    assert (code, out) == (3, "")
    assert err == (f"error: two-chain family exceeded {TRUNCATE_NODE_CAP} "
                   "argument pairs\n")
    assert time.perf_counter() - start < 1


def test_bs_truncation_up_to_the_cap_is_unchanged(capsys, monkeypatch):
    # the cap lowered so that its edge builds in milliseconds
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 40)
    code, out, _ = run(capsys, "gen", "bs:truncate=40")
    assert code == 0
    # sha256 of the output before bs truncations were capped
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a099c8c8cb228ad59313ace83f6c6bf9787e1870d798a8792c1ce09c3e2a7a05"
    assert run(capsys, "grounded", "bs:truncate=41") == (
        3, "", "error: two-chain family exceeded 40 argument pairs\n")


def test_union_parts_share_one_arguments_budget(capsys, monkeypatch):
    # the cap lowered to 40: each part fits its own cap of 80 arguments,
    # and the union's parts share one budget of 80
    monkeypatch.setattr(constructions, "TRUNCATE_NODE_CAP", 40)
    refused = (3, "", "error: union exceeded 80 arguments\n")
    assert run(capsys, "gen", "union(bs:truncate=30,bs:truncate=30)") == refused
    assert run(capsys, "gen", "union(bs:truncate=10,"
               "union(bs:truncate=20,bs:truncate=20))") == refused
    assert run(capsys, "gen", "union(bs:truncate=40,bs:truncate=40,"
               "bs:truncate=40,union(bs:truncate=40,bs:truncate=40))") == refused
    # a lazy part spends nothing
    assert materialize_spec(parse_generator_spec(
        "union(bs:truncate=40,bs,ord:w)")).universe is None
    code, out, _ = run(capsys, "gen", "union(bs:truncate=20,bs:truncate=20)")
    assert code == 0
    # sha256 of the output before a union's parts shared a budget
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "164857c6477b04f0706f51d0416343f6f2b627c5d9b1f99d88648f7812ec5a9f"


def test_limit_children_shifted_by_one_fail_the_closed_form(capsys, monkeypatch):
    # seeded mutant: child k of every limit gets child k+1's rank
    real = trees._split_child
    monkeypatch.setattr(trees, "_split_child",
                        lambda state, s: real(state, s if state[1] else s + 1))
    code, out, err = run(capsys, "grounded", "ord:w^2", "--sample", "64")
    assert code == 3 and out == ""
    assert "[closed-form]" in err


def test_limit_child_zero_alone_shifted_fails_the_closed_form(capsys, monkeypatch):
    # seeded mutant: only child 0 of every limit gets child 1's rank.  A
    # vouched closed form is read at k = 0, 1 and 2, and only k = 0 differs
    real = trees._split_child
    monkeypatch.setattr(trees, "_split_child",
                        lambda state, s: real(state, s if state[1] else s or 1))
    code, out, err = run(capsys, "grounded", "ord:w^2", "--sample", "64")
    assert code == 3 and out == ""
    closed_form = [line for line in err.splitlines() if "[closed-form]" in line]
    assert closed_form
    assert all(" at k=0, " in line for line in closed_form)


@pytest.mark.parametrize("ordinal", ["w^w", "w^w+1", "w^(w+1)", "w^(w^2)"])
def test_lazy_targets_from_w_to_the_w_on_exit_3_with_one_line(capsys, ordinal):
    # the parent built w^w+1 and w^(w+1) and printed [closed-form] lines
    code, out, err = run(capsys, "grounded", f"ord:{ordinal}")
    assert code == 3 and out == ""
    assert err.startswith(f"error: target {ordinal} is at least w^w")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["gen", "ord:w:truncate=999"],  # refused up front: parts hold >= 166M
    ["gen", "ord:w*2:truncate=70"],  # each part fits, their sum does not
    ["tree", "build", "--ordinal", "100000", "--truncate-width", "1"],
])
def test_path_symbol_budget_exits_3(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, *command)
    assert code == 3 and out == ""
    assert err == f"error: expansion exceeded {TRUNCATE_SYMBOL_CAP} path symbols\n"
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("ordinal", ["w^(w^2)", "w^3"])
def test_truncation_refusal_expands_each_state_once(capsys, ordinal):
    # equal node states share their children: the parent stepped every
    # node and took 3.7 s and 1.9 s
    start = time.perf_counter()
    code, out, err = run(capsys, "tree", "build", "--ordinal", ordinal,
                         "--truncate-width", "4")
    assert (code, out, err) == (3, "", "error: expansion exceeded 500000 nodes\n")
    assert time.perf_counter() - start < 2


def test_tree_search_of_a_long_chain_is_linear(capsys):
    # one shared path: the parent copied each node's path, 4.2 s at 40,000
    start = time.perf_counter()
    code, out, _ = run(capsys, "tree", "search", "--ordinal", "100000",
                       "--depth", "100000", "--width", "1")
    assert code == 0
    assert json.loads(out) == {"found": True, "prefix": [0] * 100_000}
    assert time.perf_counter() - start < 2


def test_tree_search_node_budget_exits_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "tree", "search", "--ordinal", "w^3",
                         "--depth", "1000", "--width", "8")
    assert code == 3 and out == ""
    assert err == f"error: path search exceeded {TRUNCATE_NODE_CAP} nodes\n"
    assert time.perf_counter() - start < 5


def test_gen_truncated_limit_target_output_is_pinned(capsys):
    # sha256 of the output before the parts shared one node budget
    code, out, _ = run(capsys, "gen", "ord:w*2:truncate=50")
    assert code == 0 and out.count("arg(") == 2 * 65_025
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a7f3f0825464344e75cf3260936685ed0e258798e9d273ec21d3bc69df1eb425"


def test_usage_error_exit_2(capsys):
    assert main(["tree"]) == 2


@pytest.mark.parametrize("command, minimum", [
    (["reduce", "ts", "--af", "AF", "--set", "a0", "--depth"], 1),
    (["reduce", "ts", "--af", "AF", "--set", "a1", "--node-cap"], 1),
    (["reduce", "ta", "--af", "AF", "--arg", "a1", "--depth"], 1),
    (["reduce", "witness", "--af", "AF", "--arg", "a1", "--length"], 1),
    (["tree", "rank", "--input", "TREE", "--cap"], 1),
    (["tree", "build", "--ordinal", "w", "--truncate-width"], 1),
    (["tree", "build", "--ordinal", "w", "--truncate-depth"], 0),
    (["tree", "search", "--ordinal", "w", "--width", "3", "--depth"], 1),
    (["tree", "search", "--ordinal", "w", "--depth", "3", "--width"], 1),
    (["check", "ordinals", "--trials"], 0),
    (["check", "lemmas", "--trials", "1", "--max-args"], 1),
    (["grounded", "bs", "--sample"], 1),
    (["grounded", "AF", "--sample"], 1),
])
def test_sizes_below_their_minimum_exit_2(capsys, chain_path, tmp_path,
                                          command, minimum):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0]]}')
    command = [{"AF": f"apx:{chain_path}", "TREE": str(tree)}.get(a, a)
               for a in command]
    flag = command[-1]
    for size in (minimum - 1, -4):
        code, out, err = run(capsys, *command, str(size))
        assert code == 2 and out == ""
        assert err == f"error: {flag} {size} is below the minimum of {minimum}\n"
    code, _, err = run(capsys, *command, str(minimum))
    assert "below the minimum" not in err


@pytest.mark.parametrize("sources", [[], ["--input", "TREE", "--ordinal", "w"]])
def test_tree_search_needs_exactly_one_source(capsys, tmp_path, sources):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[]]}')
    sources = [str(tree) if a == "TREE" else a for a in sources]
    code, out, err = run(capsys, "tree", "search", *sources,
                         "--depth", "3", "--width", "3")
    assert code == 2 and out == ""
    assert "--input" in err and "--ordinal" in err


def test_every_integer_option_has_bounds():
    def int_flags(parser):
        for action in parser._actions:
            if action.type is int:
                yield from action.option_strings
            if isinstance(action.choices, dict):  # the subcommands
                for sub in action.choices.values():
                    yield from int_flags(sub)

    assert set(int_flags(build_parser())) == set(_SIZE_BOUNDS) | {"--seed"}


def test_back_to_back_calls_print_what_a_fresh_parser_prints(
        capsys, monkeypatch, chain_path):
    af = f"apx:{chain_path}"
    commands = [
        ["grounded", af, "--stages"],
        ["reduce", "ts", "--af", af, "--set", "a1"],
        ["reduce", "ta", "--af", af, "--arg", "a2"],
        ["reduce", "witness", "--af", af, "--arg", "a1", "--length", "5"],
        ["gen", "bs:truncate=2"],
        ["reduce", "ta", "--af", af, "--bogus"],
        ["reduce", "witness", "--af", af, "--arg", "a1",
         "--length", str(MAX_PATH_LENGTH + 1)],
        ["reduce", "witness", "--af", af, "--arg", "a0"],
        ["--help"],
        ["reduce", "ts", "--help"],
    ]
    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", build_parser())
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 2, 2, 3, 0, 0]

    monkeypatch.setattr(cli, "_PARSER", build_parser())
    monkeypatch.setattr(cli, "build_parser", None)  # main builds none
    assert [run(capsys, *argv) for argv in commands] == fresh


def test_plain_argv_of_every_leaf_command_skips_argparse(
        capsys, monkeypatch, chain_path, tmp_path):
    tree = tmp_path / "t.json"
    tree.write_text('{"nodes": [[], [0], [0, 0]]}')
    af = f"apx:{chain_path}"
    commands = [
        ["grounded", af, "--stages", "--format", "text"],
        ["self-defending", af],
        ["tree", "rank", "--input", str(tree), "--cap", "10"],
        ["tree", "build", "--ordinal", "w+1", "--truncate-width", "2"],
        ["tree", "search", "--depth", "3", "--ordinal", "w", "--width", "2"],
        ["reduce", "ts", "--af", af, "--set", "a1", "--node-cap", "50"],
        ["reduce", "ta", "--af", af, "--arg", "a2", "--depth", "4"],
        ["reduce", "witness", "--af", af, "--arg", "a1", "--length", "5"],
        ["check", "ordinals", "--trials", "1", "--seed", "3"],
        ["gen", "bs:truncate=2", "--format", "dot"],
    ]
    assert {tuple(argv[:2 if argv[0] in ("tree", "reduce") else 1])
            for argv in commands} == set(cli._TABLE)
    # what argparse alone makes of each command
    monkeypatch.setattr(cli, "_fast_args", lambda argv: None)
    parsed = [run(capsys, *argv) for argv in commands]
    assert [code for code, _, _ in parsed] == [0] * 10
    monkeypatch.undo()

    def refuse(*_):
        pytest.fail("plain argv reached argparse")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert [run(capsys, *argv) for argv in commands] == parsed


def test_argv_that_is_not_plain_reaches_argparse_unchanged(capsys, monkeypatch):
    calls = []
    parse_args = cli._PARSER.parse_args

    def counted(argv):
        calls.append(argv)
        return parse_args(argv)

    monkeypatch.setattr(cli._PARSER, "parse_args", counted)
    plain = run(capsys, "grounded", "bs", "--sample", "5")
    assert plain[0] == 0 and calls == []
    for argv in (["grounded", "bs", "--sam", "5"],
                 ["grounded", "bs", "--sample=5"],
                 ["grounded", "--sample", "5", "--", "bs"]):
        assert run(capsys, *argv) == plain
        assert calls[-1] == argv
    assert len(calls) == 3


def test_the_table_gives_unmodelled_commands_no_row():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plain").add_argument("--x", type=int, default=3)
    sub.add_parser("append").add_argument("--x", action="append")
    sub.add_parser("many").add_argument("xs", nargs="+")
    parent = sub.add_parser("parent")
    parent.add_argument("--verbose", action="store_true")
    parent.add_subparsers(dest="inner").add_parser("leaf").add_argument("--y")
    table = cli.compile_table(parser)
    assert set(table) == {("plain",)}
    flags, positionals, defaults, required, groups = table["plain",]
    assert set(flags) == {"--x"} and positionals == required == groups == []
    assert defaults == {"command": "plain", "x": 3}


def test_a_group_member_given_its_default_counts_as_absent(capsys, monkeypatch):
    # argparse counts an action as present only when its value is not the
    # default object itself, and int("5") is the cached 5
    parser = argparse.ArgumentParser()
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--a", type=int, default=5)
    group.add_argument("--b")
    monkeypatch.setattr(cli, "_TABLE", cli.compile_table(parser))
    monkeypatch.setattr(cli, "_DEPTHS", [0])
    for argv, ok in ((["--a", "5"], False), (["--a", "6"], True),
                     (["--a", "5", "--b", "x"], True),
                     (["--a", "6", "--b", "x"], False), (["--b", "x"], True)):
        with pytest.raises(SystemExit) if not ok else contextlib.nullcontext():
            want = parser.parse_args(argv)
        assert cli._fast_args(argv) == (want if ok else None)
    capsys.readouterr()


def test_the_console_entry_point_reads_sys_argv_alike(
        capsys, monkeypatch, chain_path):
    argv = ["reduce", "witness", "--af", f"apx:{chain_path}", "--arg", "a1",
            "--length", "5"]
    direct = run(capsys, *argv)
    assert direct[0] == 0
    monkeypatch.setattr(sys, "argv", ["transfinite-af"] + argv)
    code = main()
    out = capsys.readouterr()
    assert (code, out.out, out.err) == direct
    src = str(Path(transfinite_af.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "transfinite_af.cli"] + argv,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == direct


@pytest.mark.parametrize("spec", ["bs", "ord:w*3+2", "ord:w^3+1",
                                  "union(bs,ord:w)"])
@pytest.mark.parametrize("sample", ["3", "97"])
def test_lazy_grounded_prints_the_window_it_verified(capsys, spec, sample):
    af = materialize_spec(parse_generator_spec(spec))
    window = (int(sample) if af.universe is None
              else min(int(sample), af.universe))
    want = {af.name(i): str(af.candidate_stages.stage_of(i))
            for i in range(window)}
    code, out, _ = run(capsys, "grounded", spec, "--stages", "--sample", sample)
    doc = json.loads(out)
    assert code == 0 and doc["sample_window"] == window
    assert doc["stages"] == want
    assert doc["grounded"] == sorted(n for n, v in want.items() if v != "NEVER")
    code, out, _ = run(capsys, "grounded", spec, "--format", "text",
                       "--sample", sample)
    assert code == 0 and f"(verified on {window} arguments)" in out


# -- pinned outputs of a seeded command corpus ----------------------------------

CORPUS_ORDINALS = ["3", "w", "w+2", "w*2", "w*2+1", "w^2", "w^2+w+1", "w^2*2",
                   "w^3", "w^3+w^2+2"]
CORPUS_LAZY_SPECS = ["bs", "ord:w", "ord:w+3", "ord:w*3+2", "ord:w^2",
                     "ord:w^2*2+w", "ord:w^3", "ord:w^3+1", "union(bs,ord:w)",
                     "union(ord:w^2,bs:truncate=3)",
                     "union(ord:w*2,union(ord:5,bs))"]


def seeded_corpus(rng, tmp_path):
    """About a hundred quick commands over every tree builder, the
    truncated targets, lazy verification and the reductions."""
    for i in range(4):
        n = rng.randint(1, 9)
        density = rng.uniform(0.05, 0.5)
        af = FiniteAF(n, [(x, y) for x in range(n) for y in range(n)
                          if rng.random() < density])
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        for _ in range(3):
            seed = rng.sample(af.names, rng.randint(1, min(2, n)))
            yield ["reduce", "ts", "--af", f"apx:{path}", "--set",
                   ",".join(seed), "--depth", str(rng.randint(1, 12))]
        for _ in range(2):
            yield ["reduce", "ta", "--af", f"apx:{path}", "--arg",
                   rng.choice(af.names), "--depth", str(rng.randint(1, 12))]
            yield ["reduce", "witness", "--af", f"apx:{path}", "--arg",
                   rng.choice(af.names), "--length", str(rng.randint(1, 12))]
        yield ["grounded", f"apx:{path}", "--format", "text", "--stages"]
        paths = [()]
        for _ in range(rng.randint(0, 29)):
            paths.append(rng.choice(paths) + (rng.randint(0, 3),))
        tree = tmp_path / f"t{i}.json"
        tree.write_text(json.dumps({"nodes": [list(p) for p in paths]}))
        yield ["tree", "search", "--input", str(tree),
               "--depth", str(rng.randint(1, 6)), "--width", str(rng.randint(1, 4))]
    for _ in range(24):
        argv = ["tree", "build", "--ordinal", rng.choice(CORPUS_ORDINALS),
                "--truncate-width", str(rng.randint(1, 3))]
        if rng.random() < 0.4:
            argv += ["--truncate-depth", str(rng.randint(0, 6))]
        yield argv
    for _ in range(12):
        yield ["tree", "search", "--ordinal", rng.choice(CORPUS_ORDINALS),
               "--depth", str(rng.randint(1, 12)), "--width", str(rng.randint(1, 4))]
    for _ in range(18):
        argv = ["gen", f"ord:{rng.choice(CORPUS_ORDINALS)}:"
                       f"truncate={rng.randint(1, 3)}"]
        if rng.random() < 0.3:
            argv += ["--format", "dot"]
        yield argv
    for _ in range(22):
        argv = ["grounded", rng.choice(CORPUS_LAZY_SPECS),
                "--sample", str(rng.randint(1, 60))]
        if rng.random() < 0.7:
            argv.append("--stages")
        if rng.random() < 0.3:
            argv += ["--format", "text"]
        yield argv


def test_seeded_corpus_output_is_pinned(capsys, tmp_path):
    # sha256 of every command's exit code, stdout and stderr, recorded
    # before lazy trees answered path queries from their node states
    digest = hashlib.sha256()
    count = 0
    for argv in seeded_corpus(random.Random(2026), tmp_path):
        code, out, err = run(capsys, *argv)
        record = [[a.replace(str(tmp_path), "DIR") for a in argv], code, out,
                  err.replace(str(tmp_path), "DIR")]
        digest.update(json.dumps(record).encode())
        count += 1
    assert count == 112
    assert digest.hexdigest() == \
        "b599a4c788aa439365164c8ea780aade5838c8592e48b8bddc5a8f87590a5696"


def finite_grounding_corpus(rng, tmp_path):
    """The finite-ground shapes as APX files: deep bs truncations, the
    F_T of truncated limit targets, and sparse random AFs."""
    specs = ["bs:truncate=30", "bs:truncate=47", "bs:truncate=60",
             "ord:w*2:truncate=5", "ord:w^2+1:truncate=3"]
    afs = [materialize_spec(parse_generator_spec(s)) for s in specs]
    for _ in range(3):
        n = rng.randint(60, 120)
        afs.append(FiniteAF(n, [(rng.randrange(n), rng.randrange(n))
                                for _ in range(rng.randint(n, 2 * n))]))
    for i, af in enumerate(afs):
        path = tmp_path / f"af{i}.apx"
        path.write_text(format_apx(af))
        yield path


def test_finite_grounding_output_is_pinned(capsys, tmp_path):
    # sha256 of every command's exit code, stdout and stderr, recorded
    # while grounded_finite still built a stage map on every run
    digest = hashlib.sha256()
    count = 0
    for path in finite_grounding_corpus(random.Random(28), tmp_path):
        spec = f"apx:{path}"
        for argv in (["grounded", spec, "--stages"],
                     ["grounded", spec, "--stages", "--format", "text"],
                     ["grounded", spec], ["self-defending", spec]):
            code, out, err = run(capsys, *argv)
            record = [[a.replace(str(tmp_path), "DIR") for a in argv], code,
                      out, err.replace(str(tmp_path), "DIR")]
            digest.update(json.dumps(record).encode())
            count += 1
    assert count == 32
    assert digest.hexdigest() == \
        "c50ca0693d0363aa1ade61814a59c8db67ae09341f0a86050de1a79c0728ecc4"


def test_lazy_grounding_output_is_pinned(capsys):
    # sha256 of every command's exit code, stdout and stderr at the
    # benchmark's sample windows, past the seeded corpus's 1-60; recorded
    # before the verifier's probes were made cheaper
    digest = hashlib.sha256()
    count = 0
    for spec in ("bs", "ord:w*2+1", "union(bs,ord:w)", "ord:w^2", "ord:w^3"):
        for sample in (64, 100, 153):
            for extra in ([], ["--stages"]):
                argv = ["grounded", spec, "--sample", str(sample)] + extra
                code, out, err = run(capsys, *argv)
                digest.update(json.dumps([argv, code, out, err]).encode())
                count += 1
    assert count == 30
    assert digest.hexdigest() == \
        "a2bc39f6a9eb5b0dc14aa7ce0122ac7f01b265c17177fcd3192150856858db17"
